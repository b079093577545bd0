"""Article ingestion, text normalization, sentence splitting and tokenization.

Everything downstream consumes the units made here by `article_units`, the
one place that splits articles: a unit is a headline or a content sentence as
the tuple of its interned word tokens. The rules are deliberately simple,
deterministic and order-insensitive: articles can be processed in any order
and in parallel without changing any aggregate.
"""

from __future__ import annotations

import datetime as dt
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError
from ._data import data_text

__all__ = [
    "Article",
    "Unit",
    "MonthKey",
    "SkipRecord",
    "is_outlet_name",
    "load_corpus",
    "iter_corpus",
    "write_corpus",
    "write_skip_report",
    "split_sentences",
    "tokenize",
    "month_key",
    "article_sentences",
    "headline_sentence",
    "ArticleUnits",
    "article_units",
    "partition",
]

_ARTICLE_FIELDS = ("id", "outlet", "published", "headline", "content")

# An outlet name is a stem of artifact file names and a part of labels, so it
# is letters, digits, "_", "-" and ".", starting with a letter or digit.
_OUTLET_NAME_RE = re.compile(r"[^\W_][\w.-]*")

# Maximal runs of letters/digits, optionally chained by internal
# apostrophes/hyphens ("Congress-led", "don't"). Case is preserved.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*")

# A byte that `errors="surrogateescape"` could not decode as UTF-8.
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")

# Candidate sentence boundary: terminal punctuation, optional closing
# quote/bracket, whitespace, then an optional opening quote and a capital.
_BOUNDARY_RE = re.compile(r"[.!?]+[\"'’”)\]]*\s+[\"'‘“(\[]*[A-Z]")


def _load_abbreviations() -> frozenset[str]:
    entries = set()
    for line in data_text("abbreviations.txt").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return frozenset(entries)


_ABBREVIATIONS = _load_abbreviations()


@dataclass(frozen=True, order=True)
class MonthKey:
    """A civil (year, month) bucket; totally ordered and formatted YYYY-MM."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    @classmethod
    def parse(cls, text: str) -> "MonthKey":
        year, _, month = text.partition("-")
        return cls(int(year), int(month))

    def next(self) -> "MonthKey":
        if self.month == 12:
            return MonthKey(self.year + 1, 1)
        return MonthKey(self.year, self.month + 1)


@dataclass(frozen=True)
class Article:
    """One news item; the ingestion unit."""

    id: str
    outlet: str
    published: dt.date
    headline: str
    content: str

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "outlet": self.outlet,
            "published": self.published.isoformat(),
            "headline": self.headline,
            "content": self.content,
        }


@dataclass(frozen=True)
class SkipRecord:
    """Why a corpus line was rejected during ingestion."""

    line: int
    reason: str


def tokenize(text: str) -> list[str]:
    """Split text into word tokens.

    Tokens are maximal runs of letters/digits; apostrophes and hyphens are
    kept when they sit between such runs, so "Congress-led" stays one token.
    All other punctuation is dropped and case is preserved.
    """
    return _TOKEN_RE.findall(text)


def is_outlet_name(name: str) -> bool:
    """Whether `name` is a safe outlet name: a file-name stem with no path or separator in it."""
    return _OUTLET_NAME_RE.fullmatch(name) is not None


def split_sentences(text: str) -> list[str]:
    """Split text into sentence spans.

    A boundary is terminal punctuation (., !, ?) followed by whitespace and a
    capital letter, unless the token ending at the punctuation is a known
    abbreviation (e.g. "Mr.", "U.S.") or a single-letter initial ("J."). The
    returned spans cover all non-whitespace input; a trailing fragment without
    terminal punctuation is returned as the final span.
    """
    spans: list[str] = []
    start = 0
    pos = 0
    while True:
        match = _BOUNDARY_RE.search(text, pos)
        if match is None:
            break
        punct_end = match.start() + 1
        while punct_end < len(text) and text[punct_end] in ".!?":
            punct_end += 1
        while punct_end < len(text) and text[punct_end] in "\"'’”)]":
            punct_end += 1
        if _is_abbreviation_boundary(text, match.start()):
            pos = match.start() + 1
            continue
        spans.append(text[start:punct_end].strip())
        start = punct_end
        pos = match.end() - 1  # the capital may start the next boundary's sentence
    tail = text[start:].strip()
    if tail:
        spans.append(tail)
    return [s for s in spans if s]


def _is_abbreviation_boundary(text: str, punct_pos: int) -> bool:
    """True when the punctuation at punct_pos ends a guarded abbreviation."""
    if text[punct_pos] != ".":
        return False
    word_start = punct_pos
    while word_start > 0 and not text[word_start - 1].isspace():
        word_start -= 1
    word = text[word_start : punct_pos + 1]
    word = word.lstrip("\"'‘“([")
    if word in _ABBREVIATIONS:
        return True
    # Single-letter initials such as "J. Nehru".
    return len(word) == 2 and word[0].isalpha() and word[0].isupper()


def month_key(date: dt.date) -> MonthKey:
    """Bucket a publication date into its civil month."""
    return MonthKey(date.year, date.month)


def iter_corpus(path: str | Path, skips: list[SkipRecord] | None = None) -> Iterator[Article]:
    """Yield articles from a JSONL file in file order.

    Malformed records, a line that is not UTF-8 among them, are appended to
    `skips` (when given) and skipped; only an unreadable file aborts the
    stream.
    """
    path = Path(path)
    try:
        # An undecodable byte becomes a lone surrogate that `_parse_record` rejects.
        handle = path.open("r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    seen_ids: set[str] = set()
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            article, reason = _parse_record(line)
            if article is not None and article.id in seen_ids:
                article, reason = None, f"duplicate id: {article.id}"
            if article is None:
                if skips is not None:
                    skips.append(SkipRecord(line=lineno, reason=reason))
                continue
            seen_ids.add(article.id)
            yield article


def load_corpus(path: str | Path) -> tuple[list[Article], list[SkipRecord]]:
    """Load a JSONL corpus, returning (articles, skip report)."""
    skips: list[SkipRecord] = []
    articles = list(iter_corpus(path, skips))
    return articles, skips


def _parse_record(line: str) -> tuple[Article | None, str]:
    if _ESCAPED_BYTE_RE.search(line):
        return None, "invalid UTF-8"
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON: {exc.msg}"
    except RecursionError:
        return None, "invalid JSON: nesting too deep"
    except ValueError:  # an integer literal over Python's digit limit
        return None, "invalid JSON: integer too long"
    if not isinstance(record, dict):
        return None, "record is not a JSON object"
    for name in _ARTICLE_FIELDS:
        if name not in record:
            return None, f"missing field: {name}"
        if not isinstance(record[name], str):
            return None, f"field is not a string: {name}"
    if not record["id"]:
        return None, "empty id"
    if not is_outlet_name(record["outlet"]):
        return None, f"outlet is not a safe name: {record['outlet']!r}"
    try:
        published = dt.date.fromisoformat(record["published"])
    except ValueError:
        return None, f"invalid date: {record['published']!r}"
    return (
        Article(
            id=record["id"],
            outlet=record["outlet"],
            published=published,
            headline=record["headline"],
            content=record["content"],
        ),
        "",
    )


def write_corpus(articles: Iterable[Article], path: str | Path) -> None:
    """Serialize articles as JSONL (inverse of load_corpus)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for article in articles:
            handle.write(json.dumps(article.to_record(), ensure_ascii=False) + "\n")


def write_skip_report(skips: Iterable[SkipRecord], path: str | Path) -> None:
    """Write the skip report as JSONL of {"line": int, "reason": str}."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for skip in skips:
            handle.write(json.dumps({"line": skip.line, "reason": skip.reason}) + "\n")


Unit = tuple[str, ...]  # a headline or sentence's word tokens, each interned
ArticleUnits = tuple[Unit, tuple[Unit, ...]]  # (headline unit, content sentences)


def _interned_tokens(text: str) -> Unit:
    return tuple(map(sys.intern, tokenize(text)))


def article_sentences(article: Article) -> list[Unit]:
    """Split an article's content into tokenized sentences, in text order."""
    return [_interned_tokens(span) for span in split_sentences(article.content)]


def headline_sentence(article: Article) -> Unit:
    """Treat the whole headline as a single sentence unit."""
    return _interned_tokens(article.headline)


def article_units(articles: Iterable[Article]) -> tuple[ArticleUnits, ...]:
    """Each article's units, in article order. Equal tokens are one string
    object, so a run that keeps every article's units stores each word once."""
    return tuple((headline_sentence(a), tuple(article_sentences(a))) for a in articles)


def partition(articles: Iterable[Article]) -> dict[tuple[str, int], tuple[Article, ...]]:
    """The articles of each (outlet, year), in sorted key order.

    A partition's articles are sorted by (published, id, headline, content),
    so that their order does not depend on record order: ids are unique only
    within a file, and two files may hold one outlet's records.
    """
    partitions: dict[tuple[str, int], list[Article]] = {}
    for article in articles:
        partitions.setdefault((article.outlet, article.published.year), []).append(article)
    return {
        key: tuple(sorted(partitions[key], key=lambda a: (a.published, a.id, a.headline, a.content)))
        for key in sorted(partitions)
    }
