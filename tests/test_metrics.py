from __future__ import annotations

import csv

import pytest
from hypothesis import given, strategies as st

from newsbalance.corpus import MonthKey, Sentence
from newsbalance.errors import ConfigError, ContractViolation
from newsbalance.metrics import (
    AnalyzerSuite,
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
    write_series_csv,
)
from newsbalance.nlp import ValenceLexicon, sentence_sentiment
from newsbalance.tagging import CONTENT, HEADLINE, MonthlyDocument, build_monthly_documents

from conftest import make_article

MONTH = MonthKey(2010, 1)

scores = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False)
# subnormal-range scores lose relative precision under scaling, which is about
# float representation rather than the formula; keep the scale property away
sane_scores = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6))


def series_for(articles, lexicons, metric, suite):
    """{outlet: series} for one metric, as the commands compute it."""
    return compute_all_series(articles, lexicons, [metric], suite)[metric.value]


def content_doc(texts, party_id="bjp"):
    units = [
        Sentence(article_id=f"a{i}", index=0, tokens=tuple(t.split()))
        for i, t in enumerate(texts)
    ]
    return MonthlyDocument(month=MONTH, party_id=party_id, mode=CONTENT, units=units)


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
    def test_headline_count(self, suite):
        units = [
            Sentence(article_id=f"a{i}", index=0, tokens=("BJP", "wins"))
            for i in range(12)
        ]
        doc = MonthlyDocument(month=MONTH, party_id="bjp", mode=HEADLINE, units=units)
        assert score_document(doc, MetricId.COV_HEAD, suite) == 12

    def test_content_word_count(self, suite):
        doc = content_doc(["BJP won the vote", "BJP lost ground today"])
        assert score_document(doc, MetricId.COV_CONTENT, suite) == 8

    def test_mode_mismatch_rejected(self, suite):
        doc = content_doc(["BJP spoke"])
        with pytest.raises(ContractViolation):
            score_document(doc, MetricId.COV_HEAD, suite)

    def test_empty_documents(self, suite):
        empty_head = MonthlyDocument(month=MONTH, party_id="bjp", mode=HEADLINE)
        empty_content = MonthlyDocument(month=MONTH, party_id="bjp", mode=CONTENT)
        assert score_document(empty_head, MetricId.COV_HEAD, suite) == 0
        assert score_document(empty_content, MetricId.COV_CONTENT, suite) == 0
        assert score_document(empty_content, MetricId.POS_SENT, suite) is None
        assert score_document(empty_content, MetricId.SUBJ, suite) is None

    def test_weighted_mean_via_subjectivity(self, lexicons):
        # (10 tokens at 0.5, 30 tokens at 0.1) -> (10*0.5 + 30*0.1) / 40 = 0.2
        suite = AnalyzerSuite(
            valence=ValenceLexicon(valences={}, boosters={}, negators=frozenset()),
            subjectivity={"filler": 0.5, "pad": 0.1},
            lexicons=lexicons,
        )
        doc = content_doc([" ".join(["filler"] * 10), " ".join(["pad"] * 30)])
        assert score_document(doc, MetricId.SUBJ, suite) == pytest.approx(0.2, abs=1e-12)

    def test_weighted_sentiment_matches_recomposition(self, suite):
        doc = content_doc(
            ["BJP delivered a good result", "Critics called the BJP plan bad and dishonest"]
        )
        expected_num = 0.0
        expected_den = 0
        for unit in doc.units:
            s = sentence_sentiment(unit.tokens, suite.valence).positive
            expected_num += unit.word_count * s
            expected_den += unit.word_count
        value = score_document(doc, MetricId.POS_SENT, suite)
        assert value == pytest.approx(expected_num / expected_den, abs=1e-12)

    def test_supcomp_hand_percentage(self, suite):
        doc = content_doc(["the best plan"])
        assert score_document(doc, MetricId.SUPCOMP, suite) == pytest.approx(100.0 / 3, abs=1e-9)

    def test_pov_counts_attributed_words_only(self, suite):
        doc = content_doc(
            ["BJP said the bill passed", "BJP campaigned in Pune", "Critics told BJP to stop"]
        )
        # only the first sentence has a bjp phrase before the narrative verb
        assert score_document(doc, MetricId.POV, suite) == 5

    def test_weighted_mean_within_constituent_range(self, suite):
        doc = content_doc(
            ["good results pleased everyone", "a bad and dishonest move", "neutral words here"]
        )
        for metric in (MetricId.POS_SENT, MetricId.NEG_SENT, MetricId.SUBJ):
            per_unit = []
            for unit in doc.units:
                single = MonthlyDocument(month=MONTH, party_id="bjp", mode=CONTENT, units=[unit])
                per_unit.append(score_document(single, metric, suite))
            value = score_document(doc, metric, suite)
            assert min(per_unit) - 1e-12 <= value <= max(per_unit) + 1e-12


class TestComputeSeries:
    def test_only_bjp_headlines_gives_plus_one(self, lexicons, suite):
        articles = [
            make_article(id=f"a{i}", headline="BJP rally today", content="Neutral.")
            for i in range(3)
        ]
        series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert [p.value for p in series.points] == [1.0]

    def test_month_without_matches_is_missing(self, lexicons, suite):
        articles = [
            make_article(id="a1", published="2010-01-10", headline="BJP speaks", content="x"),
            make_article(id="a2", published="2010-02-10", headline="Weather news", content="x"),
        ]
        series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert series.points[0].value == 1.0
        assert series.points[1].value is None

    def test_planted_seventy_thirty_split(self, lexicons, suite):
        articles = [
            make_article(id=f"b{i}", headline="BJP gains", content="x") for i in range(7)
        ] + [
            make_article(id=f"c{i}", headline="Congress gains", content="x") for i in range(3)
        ]
        series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert series.points[0].value == 0.4

    def test_series_covers_span_per_outlet(self, lexicons, suite):
        articles = [
            make_article(id="a1", published="2010-01-05", headline="BJP x", content="y"),
            make_article(id="a2", published="2010-04-05", headline="Congress y", content="y"),
        ]
        series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert [str(p.month) for p in series.points] == ["2010-01", "2010-02", "2010-03", "2010-04"]

    def test_input_order_does_not_matter(self, lexicons, suite, bundled_articles):
        sample = list(bundled_articles[:150])
        forward = series_for(sample, lexicons, MetricId.POS_SENT, suite)
        backward = series_for(list(reversed(sample)), lexicons, MetricId.POS_SENT, suite)
        for outlet in forward:
            fv = [p.value for p in forward[outlet].points]
            bv = [p.value for p in backward[outlet].points]
            assert fv == bv  # bitwise: same unit ordering drives the sums

    def test_empty_corpus_rejected(self, lexicons, suite):
        with pytest.raises(ConfigError):
            series_for([], lexicons, MetricId.COV_HEAD, suite)

    def test_requires_exactly_two_lexicons(self, lexicons, suite):
        with pytest.raises(ConfigError):
            series_for([make_article()], lexicons[:1], MetricId.COV_HEAD, suite)


class TestAggregates:
    def test_single_month_pooled_equals_point(self, lexicons, suite):
        articles = [
            make_article(id="a1", headline="BJP up", content="c"),
            make_article(id="a2", headline="Congress down", content="c"),
        ]
        series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert series.pooled == series.points[0].value

    def test_pooled_counts_cancel(self, lexicons, suite):
        articles = [
            make_article(id=f"b{i}", published="2010-01-10", headline="BJP x", content="c")
            for i in range(10)
        ] + [
            make_article(id=f"c{i}", published="2010-02-10", headline="Congress y", content="c")
            for i in range(10)
        ]
        series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
        assert [p.value for p in series.points] == [1.0, -1.0]
        assert series.pooled == 0

    def test_pooled_scores_the_pooled_documents(self, lexicons, suite):
        articles = [
            make_article(id="a1", published="2010-01-10", content="BJP delivered a good result."),
            make_article(id="a2", published="2010-02-10", content="Congress made a bad and dishonest move."),
            make_article(id="a3", published="2010-02-11", content="BJP plans were honest and good."),
        ]
        series = series_for(articles, lexicons, MetricId.POS_SENT, suite)["daily-alpha"]
        docs = build_monthly_documents(articles, lexicons, CONTENT)
        pooled = [
            MonthlyDocument(
                month=MONTH,
                party_id=party,
                mode=CONTENT,
                units=sorted(
                    (u for (_, p), d in docs.items() if p == party for u in d.units),
                    key=lambda u: (u.article_id, u.index),
                ),
            )
            for party in ("bjp", "congress")
        ]
        assert series.pooled == aggregate_pooled(pooled[0], pooled[1], MetricId.POS_SENT, suite)
        assert series.pooled == imbalance(
            score_document(pooled[0], MetricId.POS_SENT, suite), score_document(pooled[1], MetricId.POS_SENT, suite)
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
        for outlet, series in series_for(sample, lexicons, MetricId.COV_CONTENT, suite).items():
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


def test_series_csv_round_trips_missing(tmp_path, lexicons, suite):
    articles = [
        make_article(id="a1", published="2010-01-10", headline="BJP speaks", content="x"),
        make_article(id="a2", published="2010-02-10", headline="No party here", content="x"),
    ]
    series = series_for(articles, lexicons, MetricId.COV_HEAD, suite)["daily-alpha"]
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["month"] == "2010-01" and rows[0]["imbalance"] == "1.0"
    assert rows[1]["imbalance"] == ""
