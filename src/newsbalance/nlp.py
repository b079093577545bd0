"""Sentence-level analyzers: valence sentiment, subjectivity, degree tagging,
and reported-speech (point-of-view) detection.

The sentiment analyzer follows the published lexicon-and-rules recipe: token
valences from a lexicon file, a sign-flipping negation damp of 0.74 within a
three-token window, additive booster modifiers, an all-caps emphasis of 0.733
in mixed-case sentences, and the alpha=15 normalization applied to the
positive and negative sums separately. Constants are pinned so results are
exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ConfigError
from .tagging import PhraseMatcher, expand_hyphens
from ._data import data_path

__all__ = [
    "SentimentResult",
    "ValenceLexicon",
    "sentence_sentiment",
    "load_subjectivity_lexicon",
    "default_valence_lexicon",
    "default_subjectivity_lexicon",
    "sentence_subjectivity",
    "tag_degree",
    "DEGREE_NONE",
    "DEGREE_COMPARATIVE",
    "DEGREE_SUPERLATIVE",
    "detect_reported_speech",
]

NEGATION_DAMP = -0.74
CAPS_EMPHASIS = 0.733
NORMALIZE_ALPHA = 15.0
_NEGATION_WINDOW = 3

DEGREE_NONE = "none"
DEGREE_COMPARATIVE = "comparative"
DEGREE_SUPERLATIVE = "superlative"

_SUPERLATIVE_WORDS = frozenset({"most", "least", "best", "worst"})
_COMPARATIVE_WORDS = frozenset({"more", "less", "better", "worse"})

# -er/-est lookalikes that the suffix rule must never tag.
_DEGREE_BLOCKERS = frozenset(
    {
        "other", "another", "never", "under", "over", "after", "whether",
        "either", "neither", "together", "rather", "however", "whatever",
        "whenever", "wherever", "whoever", "moreover", "number", "member",
        "remember", "water", "paper", "order", "border", "offer", "officer",
        "minister", "leader", "reader", "letter", "matter", "mother",
        "father", "brother", "sister", "daughter", "master", "chapter",
        "center", "centre", "consider", "cover", "corner", "answer",
        "partner", "quarter", "register", "winter", "summer", "december",
        "november", "october", "september", "power", "soccer",
        "forest", "honest", "modest", "arrest", "invest", "harvest",
        "protest", "request", "suggest", "contest", "interest", "earnest",
        "tempest", "digest", "manifest",
    }
)

_MIN_DEGREE_STEM = 3

_FINITE_NARRATIVE_VERBS = frozenset({"say", "says", "said", "tell", "tells", "told"})
_NARRATIVE_VERBS = _FINITE_NARRATIVE_VERBS | {"saying", "telling"}


@dataclass(frozen=True)
class SentimentResult:
    """Positive and negative sentiment components, each in [0, 1]."""

    positive: float
    negative: float


@dataclass(frozen=True)
class ValenceLexicon:
    """Token valences plus booster and negator word lists.

    Lookups are case-insensitive. Valences live roughly in [-4, +4]; booster
    modifiers are additive magnitude adjustments; negators flip and damp.
    """

    valences: dict
    boosters: dict
    negators: frozenset

    @classmethod
    def load(cls, *paths: str | Path) -> "ValenceLexicon":
        """Load from TSV files of (token, score[, modifier-class]) rows.

        Rows without a class column carry valences; class "booster" rows carry
        the additive modifier; class "negator" rows list negation words.
        """
        valences: dict[str, float] = {}
        boosters: dict[str, float] = {}
        negators: set[str] = set()
        for path in paths:
            for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) < 2:
                    raise ConfigError(f"{path}:{lineno}: expected at least 2 tab-separated fields")
                token = parts[0].lower()
                score = _score(path, lineno, parts[1])
                kind = parts[2].strip() if len(parts) > 2 else ""
                if kind == "booster":
                    boosters[token] = score
                elif kind == "negator":
                    negators.add(token)
                elif kind:
                    raise ConfigError(f"{path}:{lineno}: unknown modifier class {kind!r}")
                else:
                    valences[token] = score
        return cls(valences=valences, boosters=boosters, negators=frozenset(negators))


def _score(path: str | Path, lineno: int, text: str) -> float:
    """A lexicon row's score: a finite number, else a config error."""
    try:
        score = float(text)
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad score {text!r}") from exc
    if not math.isfinite(score):
        raise ConfigError(f"{path}:{lineno}: score {text!r} is not finite")
    return score


def default_valence_lexicon() -> ValenceLexicon:
    return ValenceLexicon.load(data_path("valence_lexicon.tsv"), data_path("valence_modifiers.tsv"))


def _normalize(total: float, alpha: float = NORMALIZE_ALPHA) -> float:
    square = total * total
    # Where the square overflows, the score is 1 to double precision.
    score = total / math.sqrt(square + alpha) if square != math.inf else 1.0
    return min(max(score, 0.0), 1.0)


def _is_all_caps(token: str) -> bool:
    return token.isupper() and any(ch.isalpha() for ch in token)


def sentence_sentiment(tokens: Sequence[str], lexicon: ValenceLexicon) -> SentimentResult:
    """Score a tokenized sentence's positive and negative components.

    Rule order per lexicon hit: all-caps emphasis, booster adjustment from the
    three preceding tokens, then negation (sign flip damped by 0.74) if a
    negator occurs in the same window. The positive and negative valence sums
    are normalized separately with the alpha=15 rule.
    """
    caps = [_is_all_caps(t) for t in tokens]
    mixed_case = any(caps) and not all(caps)
    positive_sum = 0.0
    negative_sum = 0.0
    lowered = [t.lower() for t in tokens]
    for i, low in enumerate(lowered):
        valence = lexicon.valences.get(low)
        if valence is None or valence == 0.0:
            continue
        if mixed_case and caps[i]:
            valence += CAPS_EMPHASIS if valence > 0 else -CAPS_EMPHASIS
        window = lowered[max(0, i - _NEGATION_WINDOW) : i]
        for prev in window:
            modifier = lexicon.boosters.get(prev)
            if modifier is not None:
                valence += modifier if valence > 0 else -modifier
        if any(prev in lexicon.negators for prev in window):
            valence *= NEGATION_DAMP
        if valence > 0:
            positive_sum += valence
        else:
            negative_sum += -valence
    return SentimentResult(positive=_normalize(positive_sum), negative=_normalize(negative_sum))


def load_subjectivity_lexicon(path: str | Path) -> dict:
    """Load token -> subjectivity (in [0, 1]) from TSV."""
    lexicon: dict[str, float] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ConfigError(f"{path}:{lineno}: expected 2 tab-separated fields")
        score = _score(path, lineno, parts[1])
        if not 0.0 <= score <= 1.0:
            raise ConfigError(f"{path}:{lineno}: subjectivity {score} outside [0, 1]")
        lexicon[parts[0].lower()] = score
    return lexicon


def default_subjectivity_lexicon() -> dict:
    return load_subjectivity_lexicon(data_path("subjectivity_lexicon.tsv"))


def sentence_subjectivity(tokens: Sequence[str], lexicon: dict) -> float:
    """Mean subjectivity over tokens with lexicon entries; 0 with no hits."""
    hits = [lexicon[t.lower()] for t in tokens if t.lower() in lexicon]
    if not hits:
        return 0.0
    return sum(hits) / len(hits)


def tag_degree(tokens: Sequence[str]) -> list[str]:
    """Flag each token as none/comparative/superlative.

    Closed exception lists override the suffix rules; a blocker list stops
    -er/-est lookalikes. The suffix rules require a stem of at least three
    letters, which is what makes "nicer" match while "over" or "west" do not.
    """
    flags = []
    for token in tokens:
        low = token.lower()
        if low in _DEGREE_BLOCKERS or not low.isalpha():
            flags.append(DEGREE_NONE)
        elif low in _SUPERLATIVE_WORDS:
            flags.append(DEGREE_SUPERLATIVE)
        elif low in _COMPARATIVE_WORDS:
            flags.append(DEGREE_COMPARATIVE)
        elif low.endswith("est") and len(low) - 3 >= _MIN_DEGREE_STEM:
            flags.append(DEGREE_SUPERLATIVE)
        elif low.endswith("er") and len(low) - 2 >= _MIN_DEGREE_STEM:
            flags.append(DEGREE_COMPARATIVE)
        else:
            flags.append(DEGREE_NONE)
    return flags


def detect_reported_speech(tokens: Sequence[str], matcher: PhraseMatcher) -> set[str]:
    """Parties whose speech the sentence's tokens report, as labeled by the
    party `matcher` (`tagging.build_matcher`).

    A party is attributed when one of its phrases occurs before a
    narrative-verb form (say/tell and inflections) with no other finite
    narrative verb between the phrase and that verb: a shallow stand-in for
    subject detection that needs no parser.
    """
    expanded = expand_hyphens(tokens)
    lowered = [t.lower() for t in expanded]
    verb_positions = [i for i, t in enumerate(lowered) if t in _NARRATIVE_VERBS]
    if not verb_positions:
        return set()
    finite_positions = [i for i, t in enumerate(lowered) if t in _FINITE_NARRATIVE_VERBS]
    spans = matcher.match_spans(tokens)
    attributed: set[str] = set()
    for verb_pos in verb_positions:
        preceding_finite = [k for k in finite_positions if k < verb_pos]
        blocker = preceding_finite[-1] if preceding_finite else -1
        for start, end, label in spans:
            if end <= verb_pos and blocker < end:
                attributed.add(label)
    return attributed
