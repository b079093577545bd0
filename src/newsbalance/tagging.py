"""Party keyword matching and assembly of monthly per-party documents.

A party lexicon is a set of keyword phrases. A text mentions a party when one
of its phrases occurs as a whole-token subsequence; all-uppercase lexicon
entries (acronyms such as "BJP" or "INC") match case-sensitively so that
common words ("inc.") cannot collide, while multi-word proper names match
case-insensitively. Hyphenated compounds are split before matching, so
"Congress-led" still mentions "Congress".

A `MonthlyDocument` keeps exact integer sums over the units of one month,
not the units, so pooling documents is a field-wise sum that does not depend
on the order or grouping of the units. Units are tagged where the documents
are built; nothing keeps the tags. Each unit is matched once, by its phrase
spans, which give both its parties and the speakers of its feature row.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Article, ArticleUnits, MonthKey, month_key, tokenize
from .errors import ConfigError
from ._data import data_path

__all__ = [
    "HEADLINE",
    "CONTENT",
    "PartyLexicon",
    "PhraseMatcher",
    "MonthlyDocument",
    "load_party_lexicons",
    "default_party_lexicons",
    "build_matcher",
    "build_monthly_documents",
    "get_document",
    "expand_hyphens",
]

HEADLINE = "headline"
CONTENT = "content"
_MODES = (HEADLINE, CONTENT)


@dataclass(frozen=True)
class PartyLexicon:
    """A party identifier and the keyword phrases that signal a mention."""

    party_id: str
    phrases: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ConfigError(f"lexicon for {self.party_id!r} has no phrases")


# Every finite double is a multiple of 2**-1074: times this scale, an exact integer.
SCALE = 1 << 1074


def _scaled(value: float) -> int:
    """The finite `value` times `SCALE`, exactly."""
    n, d = value.as_integer_ratio()
    return n * (SCALE // d)


@dataclass
class MonthlyDocument:
    """Exact sums over the units (headlines or content sentences) that match
    one party in one month: counts of units and words, and over content units
    the words reporting the party's speech, the degree hits, and
    Σ word_count·value times `SCALE` for each of three feature values. Integer
    sums do not depend on the order or grouping of their terms."""

    month: MonthKey
    party_id: str
    mode: str
    units: int = 0
    words: int = 0
    pov_words: int = 0
    degree_hits: int = 0
    positive: int = 0
    negative: int = 0
    subjectivity: int = 0

    def add(self, words: int, row) -> None:
        """Count one unit of `words` words with its feature row, or None for a headline."""
        self.units += 1
        self.words += words
        if row is not None:
            if self.party_id in row.speakers:
                self.pov_words += words
            self.degree_hits += row.degree_hits
            self.positive += words * _scaled(row.positive)
            self.negative += words * _scaled(row.negative)
            self.subjectivity += words * _scaled(row.subjectivity)

    def merge(self, other: "MonthlyDocument") -> None:
        """Add the other document's sums (every field after `mode`) to this one's."""
        for name in [f.name for f in fields(self)[3:]]:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def expand_hyphens(tokens: Sequence[str]) -> list[str]:
    """Split hyphenated compounds into their parts for matching purposes."""
    expanded: list[str] = []
    for token in tokens:
        if "-" in token:
            expanded.extend(part for part in token.split("-") if part)
        else:
            expanded.append(token)
    return expanded


# Token types a matcher keeps forms for. A type's forms take about 260 bytes
# (measured on 100k random mixed-case tokens), so a matcher keeps at most
# about 4 MB of them.
_FORMS_LIMIT = 1 << 14


class PhraseMatcher:
    """Matches labeled phrases as whole-token subsequences.

    Phrases are tokenized with the corpus tokenizer and compared against the
    hyphen-expanded token sequence. When `acronyms_case_sensitive` is set,
    all-uppercase phrases compare exactly; everything else compares lowercase.

    Each token type's hyphen-split parts, their lowercase forms and the parts
    at which a phrase may start are worked out once per matcher and kept, so
    a match reads them and compares phrases only at those parts. The matcher
    forgets them all when it holds `_FORMS_LIMIT` types, so an archive's
    vocabulary does not set its size.
    """

    def __init__(self, phrases: Iterable[tuple[str, str]], acronyms_case_sensitive: bool = True):
        # first token -> list of (remaining tokens, label, case_sensitive)
        self._exact: dict[str, list[tuple[tuple[str, ...], str]]] = defaultdict(list)
        self._folded: dict[str, list[tuple[tuple[str, ...], str]]] = defaultdict(list)
        for label, phrase in phrases:
            tokens = expand_hyphens(tokenize(phrase))
            if not tokens:
                raise ConfigError(f"phrase for {label!r} has no word tokens: {phrase!r}")
            if acronyms_case_sensitive and phrase.isupper():
                self._exact[tokens[0]].append((tuple(tokens[1:]), label))
            else:
                folded = tuple(t.lower() for t in tokens)
                self._folded[folded[0]].append((folded[1:], label))
        # token -> (hyphen-split parts, their lowercase forms, and for each
        # part at which a phrase may start: its offset, the exact and the
        # folded phrases that start there)
        self._forms: dict[str, tuple] = {}

    def _token_forms(self, token: str) -> tuple:
        if len(self._forms) >= _FORMS_LIMIT:
            self._forms.clear()
        parts = tuple(expand_hyphens((token,)))
        folded = tuple(part.lower() for part in parts)
        starts = tuple(
            (k, self._exact.get(part, ()), self._folded.get(low, ()))
            for k, (part, low) in enumerate(zip(parts, folded))
            if part in self._exact or low in self._folded
        )
        forms = self._forms[token] = (parts, folded, starts)
        return forms

    def _expand(self, tokens: Sequence[str]) -> tuple[list[str], list[str], list[tuple]]:
        """Hyphen-expanded tokens, their lowercase forms, and (position, exact
        phrases, folded phrases) where a phrase may start."""
        get = self._forms.get
        expanded: list[str] = []
        folded: list[str] = []
        starts: list[tuple] = []
        for token in tokens:
            parts, low, offsets = get(token) or self._token_forms(token)
            if offsets:
                base = len(expanded)
                starts += [(base + k, exact, fold) for k, exact, fold in offsets]
            expanded += parts
            folded += low
        return expanded, folded, starts

    def match_tokens(self, tokens: Sequence[str]) -> set:
        """Labels whose phrase occurs in the (hyphen-expanded) token sequence."""
        return {label for _, _, label in self.match_spans(tokens)}

    def match_spans(self, tokens: Sequence[str]) -> list[tuple[int, int, str]]:
        """All phrase occurrences as (start, end_exclusive, label) over expanded tokens."""
        expanded, folded, starts = self._expand(tokens)
        spans: list[tuple[int, int, str]] = []
        for i, exact, fold in starts:
            for rest, label in exact:
                if tuple(expanded[i + 1 : i + 1 + len(rest)]) == rest:
                    spans.append((i, i + 1 + len(rest), label))
            for rest, label in fold:
                if tuple(folded[i + 1 : i + 1 + len(rest)]) == rest:
                    spans.append((i, i + 1 + len(rest), label))
        return spans


def load_party_lexicons(path: str | Path) -> list[PartyLexicon]:
    """Load party lexicons from a JSON file of {party_id: [phrase, ...]}.

    The file holds exactly two parties, in order: the first plays the role
    of the positive direction in directed imbalance scores.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load party lexicons from {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"party lexicon file must be a JSON object: {path}")
    lexicons = []
    seen: dict[str, str] = {}
    for party_id, phrases in raw.items():
        if not isinstance(phrases, list) or not all(isinstance(p, str) for p in phrases):
            raise ConfigError(f"phrases for {party_id!r} must be a list of strings")
        for phrase in phrases:
            owner = seen.setdefault(phrase, party_id)
            if owner != party_id:
                raise ConfigError(f"phrase {phrase!r} appears in both {owner!r} and {party_id!r}")
        lexicons.append(PartyLexicon(party_id=party_id, phrases=tuple(phrases)))
    if len(lexicons) != 2:
        raise ConfigError(f"{path}: directed imbalance needs exactly 2 party lexicons, got {len(lexicons)}")
    return lexicons


def default_party_lexicons() -> list[PartyLexicon]:
    """The two shipped lexicons (BJP first, Congress second)."""
    return load_party_lexicons(data_path("party_lexicons.json"))


def build_matcher(lexicons: Sequence[PartyLexicon]) -> PhraseMatcher:
    return PhraseMatcher(
        (lex.party_id, phrase) for lex in lexicons for phrase in lex.phrases
    )


def build_monthly_documents(
    articles: Sequence[Article],
    units: Sequence[ArticleUnits],
    mode: str,
    suite,
    rows: bool,
) -> dict[tuple[MonthKey, str], MonthlyDocument]:
    """Sum the matching units into per-(month, party) documents, in one pass.

    `units` holds each article's headline unit and content sentences, in the
    order of `articles`. In headline mode the whole headline is the unit (one
    per matching article per party); in content mode every matching sentence
    is a unit. `suite.matcher` matches each unit once, and its phrase spans
    give the unit's parties. When `rows` is set, `suite.features` turns each
    content unit and its spans into the unit's feature row, once; without
    rows a content document counts only units and words. A unit that matches
    several parties is added to each of their documents. The sums are exact,
    so the documents do not depend on the order of the articles.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {_MODES}")
    featurize = rows and mode == CONTENT
    match_spans = suite.matcher.match_spans
    docs: dict[tuple[MonthKey, str], MonthlyDocument] = {}
    for article, (headline, content) in zip(articles, units, strict=True):
        month = month_key(article.published)
        for unit in (headline,) if mode == HEADLINE else content:
            spans = match_spans(unit)
            if not spans:
                continue
            row = suite.features(unit, spans) if featurize else None
            for party_id in {label for _, _, label in spans}:
                key = (month, party_id)
                doc = docs.get(key)
                if doc is None:
                    doc = docs[key] = MonthlyDocument(month=month, party_id=party_id, mode=mode)
                doc.add(len(unit), row)
    return docs


def get_document(
    docs: Mapping[tuple[MonthKey, str], MonthlyDocument],
    month: MonthKey,
    party_id: str,
    mode: str,
) -> MonthlyDocument:
    """Fetch a document, falling back to an empty one for uncovered months."""
    return docs.get((month, party_id)) or MonthlyDocument(month=month, party_id=party_id, mode=mode)
