"""Directed monthly imbalance metrics and their two aggregate summaries.

The core score for a month is (score_b - score_c) / (score_b + score_c),
computed between the two parties' aggregated documents. Positive values lean
toward the first configured party, negative toward the second; a month in
which both documents score zero carries no information and is marked missing
rather than balanced.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Article, MonthKey, Sentence, month_key
from .errors import ConfigError, ContractViolation
from .nlp import (
    DEGREE_NONE,
    ValenceLexicon,
    default_subjectivity_lexicon,
    default_valence_lexicon,
    detect_reported_speech,
    sentence_sentiment,
    sentence_subjectivity,
    tag_degree,
)
from .tagging import (
    CONTENT,
    HEADLINE,
    MonthlyDocument,
    PartyLexicon,
    PhraseMatcher,
    TextTable,
    build_matcher,
    build_monthly_documents,
    get_document,
)

__all__ = [
    "MetricId",
    "ImbalancePoint",
    "ImbalanceSeries",
    "FeatureRow",
    "AnalyzerSuite",
    "imbalance",
    "score_document",
    "compute_all_series",
    "aggregate_pooled",
    "aggregate_mean_abs",
    "format_pooled",
    "write_series_csv",
    "month_span",
]


class MetricId(str, enum.Enum):
    """The seven directed imbalance metrics."""

    COV_HEAD = "cov_head"
    COV_CONTENT = "cov_content"
    POV = "pov"
    POS_SENT = "pos_sent"
    NEG_SENT = "neg_sent"
    SUBJ = "subj"
    SUPCOMP = "supcomp"

    @property
    def mode(self) -> str:
        return HEADLINE if self is MetricId.COV_HEAD else CONTENT


@dataclass(frozen=True)
class ImbalancePoint:
    """One month's directed score together with its two document scores."""

    month: MonthKey
    value: float | None
    score_b: float
    score_c: float


@dataclass
class ImbalanceSeries:
    """Monthly directed scores for one (metric, outlet) pair.

    `pooled` is the directed score of all months pooled into one document
    per party (see `aggregate_pooled`).
    """

    metric: MetricId
    outlet: str
    points: list[ImbalancePoint] = field(default_factory=list)
    pooled: float | None = None

    def values(self, drop_missing: bool = False) -> list[float | None]:
        if drop_missing:
            return [p.value for p in self.points if p.value is not None]
        return [p.value for p in self.points]


@dataclass(frozen=True, slots=True)
class FeatureRow:
    """What the content metrics read from one unit."""

    positive: float
    negative: float
    subjectivity: float
    degree_hits: int
    speakers: tuple[str, ...]  # sorted ids of the parties whose speech the unit reports


@dataclass
class AnalyzerSuite:
    """Lexicons and matcher shared by the content analyzers."""

    valence: ValenceLexicon
    subjectivity: dict
    lexicons: Sequence[PartyLexicon]
    matcher: PhraseMatcher = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.matcher is None:
            self.matcher = build_matcher(self.lexicons)

    def features(self, unit: Sentence) -> FeatureRow:
        """The unit's feature row: both sentiment components come from one pass."""
        sentiment = sentence_sentiment(unit.tokens, self.valence)
        return FeatureRow(
            positive=sentiment.positive,
            negative=sentiment.negative,
            subjectivity=sentence_subjectivity(unit.tokens, self.subjectivity),
            degree_hits=sum(1 for flag in tag_degree(unit.tokens) if flag != DEGREE_NONE),
            speakers=tuple(sorted(detect_reported_speech(unit.tokens, self.lexicons, self.matcher))),
        )

    @classmethod
    def default(cls, lexicons: Sequence[PartyLexicon]) -> "AnalyzerSuite":
        return cls(
            valence=default_valence_lexicon(),
            subjectivity=default_subjectivity_lexicon(),
            lexicons=lexicons,
        )


def imbalance(score_b: float, score_c: float) -> float | None:
    """Directed imbalance of two non-negative document scores.

    Returns a value in [-1, +1], or None when both scores are zero.
    """
    if score_b < 0 or score_c < 0:
        raise ContractViolation(f"scores must be non-negative, got ({score_b}, {score_c})")
    total = score_b + score_c
    if total == 0:
        return None
    return (score_b - score_c) / total


def score_document(
    doc: MonthlyDocument,
    metric: MetricId,
    suite: AnalyzerSuite,
    table: TextTable | None = None,
) -> float | None:
    """Score one monthly document under one metric.

    Coverage metrics return 0 for an empty document; the weighted-mean metrics
    (sentiment, subjectivity, superlatives/comparatives) return None because a
    mean over nothing is undefined. `table` keeps the units' feature rows;
    without one, a table is made for this call.
    """
    if doc.mode != metric.mode:
        raise ContractViolation(f"{metric.value} needs a {metric.mode}-mode document, got {doc.mode}")
    if metric is MetricId.COV_HEAD:
        return float(len(doc.units))
    if metric is MetricId.COV_CONTENT:
        return float(doc.total_words)
    if table is None:
        table = TextTable()
    if metric is MetricId.POV:
        total = 0
        for unit in doc.units:
            if doc.party_id in table.features(unit, suite).speakers:
                total += unit.word_count
        return float(total)
    return _weighted_mean_score(doc, metric, suite, table)


def _weighted_mean_score(
    doc: MonthlyDocument, metric: MetricId, suite: AnalyzerSuite, table: TextTable
) -> float | None:
    weight_total = 0
    weighted_sum = 0.0
    for unit in doc.units:
        weight = unit.word_count
        if weight == 0:
            continue
        row = table.features(unit, suite)
        if metric is MetricId.POS_SENT:
            value = row.positive
        elif metric is MetricId.NEG_SENT:
            value = row.negative
        elif metric is MetricId.SUBJ:
            value = row.subjectivity
        elif metric is MetricId.SUPCOMP:
            value = 100.0 * row.degree_hits / weight
        else:  # pragma: no cover - closed enumeration
            raise ContractViolation(f"unhandled metric {metric}")
        weighted_sum += weight * value
        weight_total += weight
    if weight_total == 0:
        return None
    return weighted_sum / weight_total


def month_span(articles: Iterable[Article]) -> list[MonthKey]:
    """Every month from the earliest to the latest publication, inclusive."""
    months = [month_key(a.published) for a in articles]
    if not months:
        return []
    current, last = min(months), max(months)
    span = [current]
    while current < last:
        current = current.next()
        span.append(current)
    return span


def _directed(
    doc_b: MonthlyDocument, doc_c: MonthlyDocument, metric: MetricId, suite: AnalyzerSuite, table: TextTable | None
) -> ImbalancePoint:
    """Both documents' scores (an undefined score counts as 0) and their imbalance."""
    score_b = score_document(doc_b, metric, suite, table)
    score_c = score_document(doc_c, metric, suite, table)
    sb = score_b if score_b is not None else 0.0
    sc = score_c if score_c is not None else 0.0
    return ImbalancePoint(month=doc_b.month, value=imbalance(sb, sc), score_b=sb, score_c=sc)


def _pool(
    docs: Mapping[tuple[MonthKey, str], MonthlyDocument], party_id: str, mode: str
) -> MonthlyDocument:
    """All of one party's units over every month, in (article id, index) order."""
    units = [unit for (_, owner), doc in docs.items() if owner == party_id for unit in doc.units]
    units.sort(key=lambda u: (u.article_id, u.index))
    first = min((month for month, _ in docs), default=MonthKey(1970, 1))
    return MonthlyDocument(month=first, party_id=party_id, mode=mode, units=units)


def _check_party_pair(lexicons: Sequence[PartyLexicon]) -> tuple[str, str]:
    if len(lexicons) != 2:
        raise ConfigError(f"directed imbalance needs exactly 2 lexicons, got {len(lexicons)}")
    return lexicons[0].party_id, lexicons[1].party_id


def compute_all_series(
    articles: Sequence[Article],
    lexicons: Sequence[PartyLexicon],
    metrics: Sequence[MetricId] | None = None,
    suite: AnalyzerSuite | None = None,
    table: TextTable | None = None,
) -> dict[str, dict[str, ImbalanceSeries]]:
    """Monthly series and pooled scores for several metrics at once.

    Returns {metric value: {outlet: series}}, each series carrying its pooled
    score. Each outlet's monthly documents are built once per mode and shared
    by that mode's metrics. The result is independent of article input
    order. `table` keeps the tagged units and their feature rows; without
    one, a table is made for this call.
    """
    metrics = list(MetricId) if metrics is None else list(metrics)
    if not articles:
        raise ConfigError("corpus is empty")
    if suite is None:
        suite = AnalyzerSuite.default(lexicons)
    if table is None:
        table = TextTable()
    party_b, party_c = _check_party_pair(lexicons)
    span = month_span(articles)
    by_outlet: dict[str, list[Article]] = {}
    for article in articles:
        by_outlet.setdefault(article.outlet, []).append(article)

    result: dict[str, dict[str, ImbalanceSeries]] = {m.value: {} for m in metrics}
    for outlet in sorted(by_outlet):
        for mode in sorted({m.mode for m in metrics}):
            docs = build_monthly_documents(by_outlet[outlet], lexicons, mode, table)
            pooled_b, pooled_c = _pool(docs, party_b, mode), _pool(docs, party_c, mode)
            for metric in metrics:
                if metric.mode != mode:
                    continue
                series = ImbalanceSeries(metric=metric, outlet=outlet)
                for month in span:
                    series.points.append(
                        _directed(
                            get_document(docs, month, party_b, mode),
                            get_document(docs, month, party_c, mode),
                            metric,
                            suite,
                            table,
                        )
                    )
                series.pooled = aggregate_pooled(pooled_b, pooled_c, metric, suite, table)
                result[metric.value][outlet] = series
    return result


def aggregate_pooled(
    pooled_b: MonthlyDocument,
    pooled_c: MonthlyDocument,
    metric: MetricId,
    suite: AnalyzerSuite,
    table: TextTable | None = None,
) -> float | None:
    """Directed score of the two parties' documents pooled over all months.

    `table` keeps the units' feature rows; without one, each document is
    scored with a table of its own.
    """
    return _directed(pooled_b, pooled_c, metric, suite, table).value


def aggregate_mean_abs(series: ImbalanceSeries) -> float | None:
    """Mean absolute directed score over the non-missing months."""
    values = series.values(drop_missing=True)
    if not values:
        return None
    return sum(abs(v) for v in values) / len(values)


def format_pooled(value: float | None) -> str:
    """Report-style rendering: direction arrow plus |value| x 100."""
    if value is None:
        return "n/a"
    if value > 0:
        arrow = "↑"
    elif value < 0:
        arrow = "↓"
    else:
        arrow = ""
    return f"{arrow}{abs(value) * 100:.2f}"


def write_series_csv(series: ImbalanceSeries, path: str | Path) -> None:
    """Write one series as CSV with columns month, score_b, score_c, imbalance."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["month", "score_b", "score_c", "imbalance"])
        for point in series.points:
            writer.writerow(
                [
                    str(point.month),
                    repr(point.score_b),
                    repr(point.score_c),
                    "" if point.value is None else repr(point.value),
                ]
            )
