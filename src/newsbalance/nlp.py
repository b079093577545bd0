"""Token rules of the four sentence analyzers: valence sentiment,
subjectivity, degree tagging and reported-speech (point-of-view) detection.

Every rule the analyzers apply to one token depends only on its surface
form. So a `FactTable` works each token type's facts out once, on the type's
first sight. `metrics.AnalyzerSuite.features` reads a unit's facts in one
pass, as columns, and each analyzer here scores the unit from its columns.

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
from itertools import compress, count
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .tagging import expand_hyphens
from ._data import data_path

__all__ = [
    "ValenceLexicon",
    "TypeFacts",
    "FactTable",
    "sentence_sentiment",
    "load_subjectivity_lexicon",
    "default_valence_lexicon",
    "default_subjectivity_lexicon",
    "sentence_subjectivity",
    "tag_degree",
    "detect_reported_speech",
]

NEGATION_DAMP = -0.74
CAPS_EMPHASIS = 0.733
NORMALIZE_ALPHA = 15.0
_NEGATION_WINDOW = 3

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


def _normalize(total: float) -> float:
    square = total * total
    # Where the square overflows, the score is 1 to double precision.
    score = total / math.sqrt(square + NORMALIZE_ALPHA) if square != math.inf else 1.0
    return min(max(score, 0.0), 1.0)


def _is_all_caps(token: str) -> bool:
    return token.isupper() and any(ch.isalpha() for ch in token)


def _is_degree_word(low: str) -> bool:
    """Whether a lowercase token is a comparative or a superlative.

    Closed word lists override the suffix rules; a blocker list stops -er/-est
    lookalikes. The suffix rules require a stem of at least three letters,
    which is what makes "nicer" match while "over" or "west" do not.
    """
    if low in _DEGREE_BLOCKERS or not low.isalpha():
        return False
    return (
        low in _SUPERLATIVE_WORDS
        or low in _COMPARATIVE_WORDS
        or (low.endswith("est") and len(low) - 3 >= _MIN_DEGREE_STEM)
        or (low.endswith("er") and len(low) - 2 >= _MIN_DEGREE_STEM)
    )


class TypeFacts(NamedTuple):
    """What the four analyzers read from one token type."""

    lower: str
    valence: float | None  # None without a lexicon entry, or for a valence of 0
    caps: bool  # all-caps: upper case, with at least one letter
    booster: float | None  # the additive modifier of a booster, else None
    negator: bool
    subjectivity: float | None  # None without a lexicon entry
    degree: bool  # a comparative or a superlative
    narrative: bool  # one of its hyphen parts is a say/tell form


# Token types a fact table keeps. A type's facts take about 200 bytes
# besides its key (measured on 16,000 random mixed-case tokens), so a table
# keeps at most about 3 MB of them.
_FACTS_LIMIT = 1 << 14


class FactTable:
    """Each token type's `TypeFacts` under one valence and one subjectivity
    lexicon.

    A type's facts are worked out on its first sight and kept, keyed on its
    exact surface form: "GOOD" and "good" differ in their caps flag. The table
    forgets them all when it holds `_FACTS_LIMIT` types, so an archive's
    vocabulary does not set its size.
    """

    def __init__(self, valence: ValenceLexicon, subjectivity: Mapping[str, float]):
        self._valence = valence
        self._subjectivity = subjectivity
        self._facts: dict[str, TypeFacts] = {}

    def __call__(self, tokens: Sequence[str]) -> list[TypeFacts]:
        """The facts of each token, in order."""
        get = self._facts.get
        return [get(token) or self._first_sight(token) for token in tokens]

    def _first_sight(self, token: str) -> TypeFacts:
        if len(self._facts) >= _FACTS_LIMIT:
            self._facts.clear()
        low = token.lower()
        valence = self._valence.valences.get(low)
        facts = self._facts[token] = TypeFacts(
            lower=low,
            valence=None if valence == 0.0 else valence,
            caps=_is_all_caps(token),
            booster=self._valence.boosters.get(low),
            negator=low in self._valence.negators,
            subjectivity=self._subjectivity.get(low),
            degree=_is_degree_word(low),
            # Lowercasing neither makes nor removes a hyphen, so these are the
            # lowercase forms of the token's hyphen parts.
            narrative=any(part in _NARRATIVE_VERBS for part in expand_hyphens((low,))),
        )
        return facts


# The analyzers below read a unit's facts by column, in token order: the
# column of one `TypeFacts` field over the unit's tokens.


def sentence_sentiment(
    valences: Sequence[float | None],
    caps: Sequence[bool],
    boosters: Sequence[float | None],
    negators: Sequence[bool],
) -> tuple[float, float]:
    """A unit's positive and negative components, each in [0, 1].

    Rule order per valence hit: all-caps emphasis in a mixed-case unit, then
    each booster among the three preceding tokens, from the farthest to the
    nearest, signed by the running valence, then negation (sign flip damped
    by 0.74) if a negator occurs in the same window. The positive and
    negative valence sums are normalized separately with the alpha=15 rule.
    """
    mixed_case = 0 < sum(caps) < len(caps)
    positive_sum = 0.0
    negative_sum = 0.0
    for i in compress(count(), valences):
        valence = valences[i]
        if mixed_case and caps[i]:
            valence += CAPS_EMPHASIS if valence > 0 else -CAPS_EMPHASIS
        start = i - _NEGATION_WINDOW if i > _NEGATION_WINDOW else 0
        for modifier in boosters[start:i]:
            if modifier is not None:
                valence += modifier if valence > 0 else -modifier
        if any(negators[start:i]):
            valence *= NEGATION_DAMP
        if valence > 0:
            positive_sum += valence
        else:
            negative_sum += -valence
    return _normalize(positive_sum), _normalize(negative_sum)


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


def sentence_subjectivity(subjectivities: Sequence[float | None]) -> float:
    """Mean subjectivity over a unit's tokens with lexicon entries; 0 with no hits."""
    hits = [s for s in subjectivities if s is not None]
    if not hits:
        return 0.0
    return sum(hits) / len(hits)


def tag_degree(degrees: Sequence[bool]) -> int:
    """How many of a unit's tokens are comparatives or superlatives."""
    return sum(degrees)


def detect_reported_speech(lowered: Sequence[str], spans: Sequence[tuple[int, int, str]]) -> set[str]:
    """Parties whose speech a unit reports, from its tokens' lowercase forms
    and its party phrase `spans` (`PhraseMatcher.match_spans` of the unit).

    A party is attributed when one of its phrases occurs before a
    narrative-verb form (say/tell and inflections) with no other finite
    narrative verb between the phrase and that verb: a shallow stand-in for
    subject detection that needs no parser.
    """
    expanded = expand_hyphens(lowered)
    verb_positions = [i for i, t in enumerate(expanded) if t in _NARRATIVE_VERBS]
    finite_positions = [i for i, t in enumerate(expanded) if t in _FINITE_NARRATIVE_VERBS]
    attributed: set[str] = set()
    for verb_pos in verb_positions:
        preceding_finite = [k for k in finite_positions if k < verb_pos]
        blocker = preceding_finite[-1] if preceding_finite else -1
        for start, end, label in spans:
            if end <= verb_pos and blocker < end:
                attributed.add(label)
    return attributed
