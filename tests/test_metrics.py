from __future__ import annotations

import dataclasses
import datetime as dt
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from newsbalance.corpus import MonthKey, article_units
from newsbalance.errors import ConfigError, ContractViolation
from newsbalance.metrics import (
    AnalyzerSuite,
    FeatureRow,
    ImbalanceSeries,
    ImbalancePoint,
    MetricId,
    aggregate_mean_abs,
    aggregate_pooled,
    compute_all_series,
    format_pooled,
    imbalance,
    month_span,
    score_document,
)
from newsbalance.nlp import ValenceLexicon
from newsbalance.tagging import CONTENT, HEADLINE, MonthlyDocument, build_matcher, build_monthly_documents

from conftest import fold_series, make_article
from oracles import float_sum_score

MONTH = MonthKey(2010, 1)

scores = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False)
# subnormal-range scores lose relative precision under scaling, which is about
# float representation rather than the formula; keep the scale property away
sane_scores = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6))


# Articles of two outlets over three years, whose texts mention either party,
# both or neither, in tones that every metric reads.
_FOLD_TEXTS = [
    "BJP said the good plan works.",
    "Congress told voters the best deal failed badly.",
    "BJP and Congress argued about a worse and sad result.",
    "The weather was calm.",
    "Congress-led NDA rallies praised great honest work.",
]
fold_articles = st.builds(
    make_article,
    outlet=st.sampled_from(["daily-alpha", "daily-beta"]),
    published=st.dates(dt.date(2010, 1, 1), dt.date(2012, 12, 31)).map(dt.date.isoformat),
    headline=st.sampled_from(_FOLD_TEXTS),
    content=st.lists(st.sampled_from(_FOLD_TEXTS), max_size=3).map(" ".join),
)


def partition_by_outlet(articles):
    """One partition per outlet, keyed (outlet, 0), in record order."""
    partitions: dict = {}
    for article in articles:
        partitions.setdefault((article.outlet, 0), []).append(article)
    return partitions


def series_for(articles, metric, suite):
    """{outlet: series} for one metric, as the commands compute it."""
    return fold_series(articles, [metric], suite)[metric.value]


def content_units(texts):
    return [tuple(t.split()) for t in texts]


def content_doc(texts, suite, party_id="bjp"):
    """A content document of one unit per text, each with its feature row."""
    doc = MonthlyDocument(month=MONTH, party_id=party_id, mode=CONTENT)
    for unit in content_units(texts):
        doc.add(len(unit), suite.features(unit, suite.matcher.match_spans(unit)))
    return doc


class TestImbalance:
    def test_hand_evaluation(self):
        assert imbalance(58, 42) == pytest.approx(0.16, abs=1e-12)

    def test_symmetry_zero(self):
        assert imbalance(7, 7) == 0

    def test_extremes(self):
        assert imbalance(5, 0) == 1.0
        assert imbalance(0, 5) == -1.0

    def test_missing_when_both_zero(self):
        assert imbalance(0, 0) is None

    def test_negative_rejected(self):
        with pytest.raises(ContractViolation):
            imbalance(-1, 2)

    @given(scores, scores)
    def test_antisymmetry(self, b, c):
        forward = imbalance(b, c)
        backward = imbalance(c, b)
        if forward is None:
            assert backward is None
        else:
            assert abs(forward + backward) <= 1e-12

    @given(sane_scores, sane_scores, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, b, c, k):
        base = imbalance(b, c)
        scaled = imbalance(k * b, k * c)
        if base is None:
            assert scaled is None
        else:
            assert abs(scaled - base) <= 1e-12

    @given(scores, scores)
    def test_bounds(self, b, c):
        value = imbalance(b, c)
        if value is not None:
            assert -1.0 <= value <= 1.0


class TestScoreDocument:
    def test_headline_count(self):
        doc = MonthlyDocument(month=MONTH, party_id="bjp", mode=HEADLINE)
        for _ in range(12):
            doc.add(len(("BJP", "wins")), None)
        assert score_document(doc, MetricId.COV_HEAD) == 12

    def test_content_word_count(self, suite):
        doc = content_doc(["BJP won the vote", "BJP lost ground today"], suite)
        assert score_document(doc, MetricId.COV_CONTENT) == 8

    def test_mode_mismatch_rejected(self, suite):
        doc = content_doc(["BJP spoke"], suite)
        with pytest.raises(ContractViolation):
            score_document(doc, MetricId.COV_HEAD)

    def test_empty_documents(self):
        empty_head = MonthlyDocument(month=MONTH, party_id="bjp", mode=HEADLINE)
        empty_content = MonthlyDocument(month=MONTH, party_id="bjp", mode=CONTENT)
        assert score_document(empty_head, MetricId.COV_HEAD) == 0
        assert score_document(empty_content, MetricId.COV_CONTENT) == 0
        assert score_document(empty_content, MetricId.POS_SENT) is None
        assert score_document(empty_content, MetricId.SUBJ) is None

    def test_weighted_mean_via_subjectivity(self, lexicons):
        # (10 tokens at 0.5, 30 tokens at 0.1) -> (10*0.5 + 30*0.1) / 40 = 0.2
        suite = AnalyzerSuite(
            valence=ValenceLexicon(valences={}, boosters={}, negators=frozenset()),
            subjectivity={"filler": 0.5, "pad": 0.1},
            lexicons=lexicons,
            matcher=build_matcher(lexicons),
        )
        doc = content_doc([" ".join(["filler"] * 10), " ".join(["pad"] * 30)], suite)
        assert score_document(doc, MetricId.SUBJ) == pytest.approx(0.2, abs=1e-12)

    def test_weighted_sentiment_matches_recomposition(self, suite):
        texts = ["BJP delivered a good result", "Critics called the BJP plan bad and dishonest"]
        doc = content_doc(texts, suite)
        expected_num = 0.0
        expected_den = 0
        for unit in content_units(texts):
            s = suite.features(unit, suite.matcher.match_spans(unit)).positive
            expected_num += len(unit) * s
            expected_den += len(unit)
        value = score_document(doc, MetricId.POS_SENT)
        assert value == pytest.approx(expected_num / expected_den, abs=1e-12)

    def test_supcomp_hand_percentage(self, suite):
        doc = content_doc(["the best plan"], suite)
        assert score_document(doc, MetricId.SUPCOMP) == pytest.approx(100.0 / 3, abs=1e-9)

    def test_pov_counts_attributed_words_only(self, suite):
        doc = content_doc(
            ["BJP said the bill passed", "BJP campaigned in Pune", "Critics told BJP to stop"], suite
        )
        # only the first sentence has a bjp phrase before the narrative verb
        assert score_document(doc, MetricId.POV) == 5

    def test_weighted_mean_within_constituent_range(self, suite):
        texts = ["good results pleased everyone", "a bad and dishonest move", "neutral words here"]
        doc = content_doc(texts, suite)
        for metric in (MetricId.POS_SENT, MetricId.NEG_SENT, MetricId.SUBJ):
            per_unit = [score_document(content_doc([text], suite), metric) for text in texts]
            value = score_document(doc, metric)
            assert min(per_unit) - 1e-12 <= value <= max(per_unit) + 1e-12


# Feature values: repeats, zero, the smallest subnormals and the largest, and any in [0, 1].
values = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1 / 3]),
    st.floats(min_value=0.0, max_value=1.0),
)


def unit(words):
    """A unit of `words` words and its feature row: at most one degree hit per word."""
    row = st.builds(
        FeatureRow,
        positive=values,
        negative=values,
        subjectivity=values,
        degree_hits=st.integers(0, min(words, 5)),
        speakers=st.sampled_from([(), ("bjp",), ("congress",), ("bjp", "congress")]),
    )
    return st.tuples(st.just(words), row)


# (word count, feature row) pairs; zero-word units included.
units = st.lists(st.integers(0, 40).flatmap(unit), max_size=12)
WEIGHTED = (MetricId.POS_SENT, MetricId.NEG_SENT, MetricId.SUBJ, MetricId.SUPCOMP)


def summed(pairs, month=MONTH, party_id="bjp"):
    doc = MonthlyDocument(month=month, party_id=party_id, mode=CONTENT)
    for words, row in pairs:
        doc.add(words, row)
    return doc


def exact_score(pairs, metric):
    """The exact weighted mean, rounded once."""
    words = sum(w for w, _ in pairs)
    if words == 0:
        return None
    if metric is MetricId.SUPCOMP:
        return float(Fraction(100 * sum(row.degree_hits for _, row in pairs), words))
    field = {MetricId.POS_SENT: "positive", MetricId.NEG_SENT: "negative", MetricId.SUBJ: "subjectivity"}[metric]
    return float(Fraction(sum(w * Fraction(getattr(row, field)) for w, row in pairs), words))


def bits(value):
    return None if value is None else struct.pack("<d", value)


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(units)
    def test_scores_equal_the_exact_mean(self, pairs):
        doc = summed(pairs)
        for metric in WEIGHTED:
            assert bits(score_document(doc, metric)) == bits(exact_score(pairs, metric)), metric

    @settings(max_examples=200, deadline=None)
    @given(units, st.randoms(use_true_random=False))
    def test_unit_order_does_not_matter(self, pairs, rng):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert summed(shuffled) == summed(pairs)

    @settings(max_examples=200, deadline=None)
    @given(units, st.lists(st.integers(0, 3), max_size=12))
    def test_merged_months_equal_the_pooled_units(self, pairs, groups):
        months = [MonthKey(2010, 1 + g) for g in groups] + [MONTH] * (len(pairs) - len(groups))
        merged = MonthlyDocument(month=MONTH, party_id="bjp", mode=CONTENT)
        for month in sorted(set(months)):
            merged.merge(summed([p for p, m in zip(pairs, months) if m == month], month))
        assert merged == summed(pairs)

    @settings(max_examples=300, deadline=None)
    @given(units, st.sampled_from(["bjp", "congress"]))
    def test_scores_near_the_float_sums(self, pairs, party_id):
        doc = summed(pairs, party_id=party_id)
        for metric in (MetricId.COV_CONTENT, MetricId.POV, *WEIGHTED):
            new, old = score_document(doc, metric), float_sum_score(pairs, party_id, metric)
            if old is None:
                assert new is None, metric
            else:
                assert abs(new - old) <= 1e-12 * max(abs(new), abs(old)), metric


class TestComputeSeries:
    def test_only_bjp_headlines_gives_plus_one(self, lexicons, suite):
        articles = [
            make_article(id=f"a{i}", headline="BJP rally today", content="Neutral.")
            for i in range(3)
        ]
        series = series_for(articles, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert [p.value for p in series.points] == [1.0]

    def test_month_without_matches_is_missing(self, lexicons, suite):
        articles = [
            make_article(id="a1", published="2010-01-10", headline="BJP speaks", content="x"),
            make_article(id="a2", published="2010-02-10", headline="Weather news", content="x"),
        ]
        series = series_for(articles, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert series.points[0].value == 1.0
        assert series.points[1].value is None

    def test_planted_seventy_thirty_split(self, lexicons, suite):
        articles = [
            make_article(id=f"b{i}", headline="BJP gains", content="x") for i in range(7)
        ] + [
            make_article(id=f"c{i}", headline="Congress gains", content="x") for i in range(3)
        ]
        series = series_for(articles, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert series.points[0].value == 0.4

    def test_series_covers_span_per_outlet(self, lexicons, suite):
        articles = [
            make_article(id="a1", published="2010-01-05", headline="BJP x", content="y"),
            make_article(id="a2", published="2010-04-05", headline="Congress y", content="y"),
        ]
        series = series_for(articles, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert [str(p.month) for p in series.points] == ["2010-01", "2010-02", "2010-03", "2010-04"]

    def test_input_order_does_not_matter(self, lexicons, suite, bundled_articles):
        sample = list(bundled_articles[:150])
        forward = series_for(sample, MetricId.POS_SENT, suite)
        backward = series_for(list(reversed(sample)), MetricId.POS_SENT, suite)
        for outlet in forward:
            fv = [p.value for p in forward[outlet].points]
            bv = [p.value for p in backward[outlet].points]
            assert fv == bv  # bitwise: same unit ordering drives the sums

    def test_empty_corpus_rejected(self, lexicons, suite):
        with pytest.raises(ConfigError):
            series_for([], MetricId.COV_HEAD, suite)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(fold_articles, min_size=1, max_size=30))
    def test_yearly_partitions_equal_one_partition_per_outlet(self, suite, articles):
        """An outlet's series from its yearly partitions equal those from all
        its articles in one partition, bitwise."""
        articles = [dataclasses.replace(a, id=f"a{i}") for i, a in enumerate(articles)]
        yearly = fold_series(articles, list(MetricId), suite)
        whole = partition_by_outlet(articles)
        units = {key: article_units(group) for key, group in whole.items()}
        pooled = compute_all_series(whole, units, list(MetricId), suite)
        assert pooled == yearly
        assert repr(pooled) == repr(yearly)


class TestAggregates:
    def test_single_month_pooled_equals_point(self, lexicons, suite):
        articles = [
            make_article(id="a1", headline="BJP up", content="c"),
            make_article(id="a2", headline="Congress down", content="c"),
        ]
        series = series_for(articles, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert series.pooled == series.points[0].value

    def test_pooled_counts_cancel(self, lexicons, suite):
        articles = [
            make_article(id=f"b{i}", published="2010-01-10", headline="BJP x", content="c")
            for i in range(10)
        ] + [
            make_article(id=f"c{i}", published="2010-02-10", headline="Congress y", content="c")
            for i in range(10)
        ]
        series = series_for(articles, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert [p.value for p in series.points] == [1.0, -1.0]
        assert series.pooled == 0

    def test_pooled_scores_the_pooled_documents(self, lexicons, suite):
        articles = [
            make_article(id="a1", published="2010-01-10", content="BJP delivered a good result."),
            make_article(id="a2", published="2010-02-10", content="Congress made a bad and dishonest move."),
            make_article(id="a3", published="2010-02-11", content="BJP plans were honest and good."),
        ]
        series = series_for(articles, MetricId.POS_SENT, suite)["daily-alpha"]
        docs = build_monthly_documents(articles, article_units(articles), CONTENT, suite, True)
        pooled = []
        for party in ("bjp", "congress"):
            doc = MonthlyDocument(month=MONTH, party_id=party, mode=CONTENT)
            for (_, owner), month_doc in docs.items():
                if owner == party:
                    doc.merge(month_doc)
            pooled.append(doc)
        # The sum of the month documents is the document of all units in one month.
        one_month = [dataclasses.replace(a, published=articles[0].published) for a in articles]
        single = build_monthly_documents(one_month, article_units(one_month), CONTENT, suite, True)
        assert pooled == [single[(MONTH, "bjp")], single[(MONTH, "congress")]]
        assert series.pooled == aggregate_pooled(pooled[0], pooled[1], MetricId.POS_SENT)
        assert series.pooled == imbalance(
            score_document(pooled[0], MetricId.POS_SENT), score_document(pooled[1], MetricId.POS_SENT)
        )

    def test_table_display_format(self):
        assert format_pooled(0.1618) == "↑16.18"
        assert format_pooled(-0.0449) == "↓4.49"
        assert format_pooled(None) == "n/a"
        assert format_pooled(0.0) == "0.00"

    def test_mean_abs_symmetry(self):
        series = _series([0.2, -0.2])
        assert aggregate_mean_abs(series) == pytest.approx(0.2)

    def test_mean_abs_singleton(self):
        assert aggregate_mean_abs(_series([1.0])) == 1.0

    def test_mean_abs_ignores_missing(self):
        assert aggregate_mean_abs(_series([0.1, 0.3, None])) == pytest.approx(0.2)

    def test_mean_abs_all_missing(self):
        assert aggregate_mean_abs(_series([None, None])) is None

    def test_mean_abs_bounds(self, lexicons, suite, bundled_articles):
        sample = bundled_articles[:300]
        for outlet, series in series_for(sample, MetricId.COV_CONTENT, suite).items():
            value = aggregate_mean_abs(series)
            assert value is None or 0.0 <= value <= 1.0


def _series(values):
    month = MONTH
    points = []
    for v in values:
        points.append(ImbalancePoint(month=month, value=v, score_b=0.0, score_c=0.0))
        month = month.next()
    return ImbalanceSeries(metric=MetricId.COV_HEAD, outlet="daily-alpha", points=points)


def test_month_span_contiguous():
    articles = [
        make_article(id="a1", published="2010-11-05"),
        make_article(id="a2", published="2011-02-20"),
    ]
    span = month_span(articles)
    assert [str(m) for m in span] == ["2010-11", "2010-12", "2011-01", "2011-02"]
