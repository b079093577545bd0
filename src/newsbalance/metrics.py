"""Directed monthly imbalance metrics and their two aggregate summaries.

The core score for a month is (score_b - score_c) / (score_b + score_c),
computed between the two parties' aggregated documents. Positive values lean
toward the first configured party, negative toward the second; a month in
which both documents score zero carries no information and is marked missing
rather than balanced.

A document holds exact integer sums over its units, so its scores do not
depend on the order or grouping of the units. The series fold over (outlet,
year) partitions, and the pooled document is the field-wise sum of the month
documents. A content unit's feature row comes from `AnalyzerSuite.features`,
one pass over the per-type facts of its tokens (`nlp.FactTable`). This
module writes no file: `cli` writes the series as CSV tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import Article, ArticleUnits, MonthKey, Unit, month_key
from .errors import ConfigError, ContractViolation
from .nlp import (
    FactTable,
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
    SCALE,
    MonthlyDocument,
    PartyLexicon,
    PhraseMatcher,
    build_matcher,
    build_monthly_documents,
    get_document,
)
from .timeseries import drop_missing

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

    @property
    def reads_row(self) -> bool:
        """Whether the metric reads its units' feature rows, not only their counts."""
        return self not in (MetricId.COV_HEAD, MetricId.COV_CONTENT)


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

    def values(self) -> list[float | None]:
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
    """Lexicons and the run's one party matcher, which tags units and finds
    the parties whose speech a unit reports. `facts` holds each token type's
    facts under the two lexicons."""

    valence: ValenceLexicon
    subjectivity: dict
    lexicons: Sequence[PartyLexicon]
    matcher: PhraseMatcher
    facts: FactTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.facts = FactTable(self.valence, self.subjectivity)

    def features(self, unit: Unit, spans: Sequence[tuple[int, int, str]]) -> FeatureRow:
        """The unit's feature row, from one pass over its tokens' facts.

        The pass reads the facts as columns, and each analyzer of `nlp` reads
        its own. `spans` are the unit's `matcher.match_spans`; speakers are
        looked for among them only in a unit with a narrative-verb type.
        """
        if not unit:
            return FeatureRow(0.0, 0.0, 0.0, 0, ())
        lowered, valences, caps, boosters, negators, subjectivities, degrees, narratives = zip(*self.facts(unit))
        positive, negative = sentence_sentiment(valences, caps, boosters, negators)
        speakers: tuple[str, ...] = ()
        if any(narratives):
            speakers = tuple(sorted(detect_reported_speech(lowered, spans)))
        return FeatureRow(
            positive=positive,
            negative=negative,
            subjectivity=sentence_subjectivity(subjectivities),
            degree_hits=tag_degree(degrees),
            speakers=speakers,
        )

    @classmethod
    def default(cls, lexicons: Sequence[PartyLexicon]) -> "AnalyzerSuite":
        return cls(
            valence=default_valence_lexicon(),
            subjectivity=default_subjectivity_lexicon(),
            lexicons=lexicons,
            matcher=build_matcher(lexicons),
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


def score_document(doc: MonthlyDocument, metric: MetricId) -> float | None:
    """Score one monthly document under one metric.

    Coverage metrics return 0 for an empty document; the weighted-mean metrics
    (sentiment, subjectivity, superlatives/comparatives) return None for a
    document without words, because a mean over nothing is undefined. Each
    weighted mean is Σ word_count·value / Σ word_count, rounded once from
    the document's exact sums; superlatives/comparatives score
    100·hits / words.
    """
    if doc.mode != metric.mode:
        raise ContractViolation(f"{metric.value} needs a {metric.mode}-mode document, got {doc.mode}")
    if metric is MetricId.COV_HEAD:
        return float(doc.units)
    if metric is MetricId.COV_CONTENT:
        return float(doc.words)
    if metric is MetricId.POV:
        return float(doc.pov_words)
    if doc.words == 0:
        return None
    if metric is MetricId.SUPCOMP:
        return 100 * doc.degree_hits / doc.words
    total = {MetricId.POS_SENT: doc.positive, MetricId.NEG_SENT: doc.negative, MetricId.SUBJ: doc.subjectivity}
    return total[metric] / (SCALE * doc.words)


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


def _directed(doc_b: MonthlyDocument, doc_c: MonthlyDocument, metric: MetricId) -> ImbalancePoint:
    """Both documents' scores (an undefined score counts as 0) and their imbalance."""
    score_b = score_document(doc_b, metric)
    score_c = score_document(doc_c, metric)
    sb = score_b if score_b is not None else 0.0
    sc = score_c if score_c is not None else 0.0
    return ImbalancePoint(month=doc_b.month, value=imbalance(sb, sc), score_b=sb, score_c=sc)


def _pool(
    docs: Mapping[tuple[MonthKey, str], MonthlyDocument], party_id: str, mode: str
) -> MonthlyDocument:
    """One party's document over every month: the sum of its month documents."""
    first = min((month for month, _ in docs), default=MonthKey(1970, 1))
    pooled = MonthlyDocument(month=first, party_id=party_id, mode=mode)
    for (_, owner), doc in docs.items():
        if owner == party_id:
            pooled.merge(doc)
    return pooled


def compute_all_series(
    partitions: Mapping[tuple[str, int], Sequence[Article]],
    units: Mapping[tuple[str, int], Sequence[ArticleUnits]],
    metrics: Sequence[MetricId],
    suite: AnalyzerSuite,
) -> dict[str, dict[str, ImbalanceSeries]]:
    """Monthly series and pooled scores for several metrics at once.

    `partitions` and `units` map each (outlet, year) to its articles and
    their units (`corpus.partition`, `corpus.article_units`). Returns
    {metric value: {outlet: series}}, each series carrying its pooled score.
    Each partition's documents are built once per mode, featurized only when
    a metric reads rows; an outlet's documents are the union of its
    partitions', as a month lies in one year. The result does not depend on
    article order.
    """
    if not partitions:
        raise ConfigError("corpus is empty")
    party_b, party_c = (lex.party_id for lex in suite.lexicons)
    span = month_span(a for articles in partitions.values() for a in articles)
    rows = any(m.reads_row for m in metrics)

    result: dict[str, dict[str, ImbalanceSeries]] = {m.value: {} for m in metrics}
    for mode in sorted({m.mode for m in metrics}):
        docs_by_outlet: dict[str, dict[tuple[MonthKey, str], MonthlyDocument]] = {}
        for key in sorted(partitions):
            docs = build_monthly_documents(partitions[key], units[key], mode, suite, rows)
            docs_by_outlet.setdefault(key[0], {}).update(docs)
        for outlet, docs in docs_by_outlet.items():
            pooled_b, pooled_c = _pool(docs, party_b, mode), _pool(docs, party_c, mode)
            for metric in metrics:
                if metric.mode != mode:
                    continue
                series = ImbalanceSeries(metric=metric, outlet=outlet)
                series.points = [
                    _directed(get_document(docs, m, party_b, mode), get_document(docs, m, party_c, mode), metric)
                    for m in span
                ]
                series.pooled = aggregate_pooled(pooled_b, pooled_c, metric)
                result[metric.value][outlet] = series
    return result


def aggregate_pooled(pooled_b: MonthlyDocument, pooled_c: MonthlyDocument, metric: MetricId) -> float | None:
    """Directed score of the two parties' documents pooled over all months."""
    return _directed(pooled_b, pooled_c, metric).value


def aggregate_mean_abs(series: ImbalanceSeries) -> float | None:
    """Mean absolute directed score over the non-missing months."""
    values = drop_missing(series.values())
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
