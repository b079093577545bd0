from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from newsbalance.errors import ContractViolation, DataError, UndefinedProbabilityError
from newsbalance.probe import (
    MASK,
    VOTE_PROMPT,
    NgramMaskBackend,
    ngram_backend,
    popularity_pair,
    popularity_probability,
    token_delta_ranking,
    vote_preference,
)

from conftest import make_article
from oracles import CounterNgramMaskBackend


class StubBackend:
    def __init__(self, distribution):
        self.distribution = dict(distribution)

    def query(self, prompt, mask_token=MASK):
        return dict(self.distribution)


class TestVotePreference:
    def test_uniform_toy_backend(self):
        backend = StubBackend({"BJP": 0.5, "Congress": 0.5})
        assert vote_preference(backend, "BJP") == 0.5
        assert vote_preference(backend, "Congress") == 0.5

    def test_lookup(self):
        backend = StubBackend({"BJP": 0.3, "Congress": 0.1, "other": 0.6})
        assert vote_preference(backend, "BJP") == 0.3

    def test_absent_token_is_zero(self):
        backend = StubBackend({"Congress": 0.2})
        assert vote_preference(backend, "BJP") == 0.0


class TestPopularity:
    def test_hand_normalization(self):
        backend = StubBackend({"BJP": 0.3, "Congress": 0.1})
        assert popularity_probability(backend) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        backend = StubBackend({"BJP": 0.2, "Congress": 0.2})
        assert popularity_probability(backend) == 0.5

    def test_both_zero_is_error(self):
        backend = StubBackend({"other": 1.0})
        with pytest.raises(UndefinedProbabilityError):
            popularity_probability(backend)

    def test_pair_sums_to_one_exactly(self):
        for dist in [{"BJP": 0.3, "Congress": 0.1}, {"BJP": 0.1, "Congress": 0.2}]:
            p_b, p_c = popularity_pair(StubBackend(dist))
            assert p_b + p_c == 1.0


class TestTokenDeltaRanking:
    def test_identical_backends_empty(self):
        backend = StubBackend({"a": 0.5, "b": 0.3})
        rising, falling = token_delta_ranking(backend, backend, "x <mask>")
        assert rising == [] and falling == []

    def test_new_token_heads_rising(self):
        early = StubBackend({"a": 0.5})
        late = StubBackend({"a": 0.5, "b": 0.2})
        rising, falling = token_delta_ranking(early, late, "x <mask>")
        assert rising[0] == ("b", pytest.approx(0.2))
        assert falling == []

    def test_hand_delta_table(self):
        # hand deltas: a:-0.3, b:+0.1, c:+0.25, d:-0.05, e:0 (dropped)
        early = StubBackend({"a": 0.4, "b": 0.1, "c": 0.05, "d": 0.25, "e": 0.2})
        late = StubBackend({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.2, "e": 0.2})
        rising, falling = token_delta_ranking(early, late, "x <mask>")
        assert [t for t, _ in rising] == ["c", "b"]
        assert [t for t, _ in falling] == ["a", "d"]

    def test_truncation_to_m(self):
        early = StubBackend({f"t{i}": 0.01 for i in range(20)})
        late = StubBackend({f"t{i}": 0.01 * (i + 2) for i in range(20)})
        rising, _ = token_delta_ranking(early, late, "x <mask>", k=50, m=5)
        assert len(rising) == 5

    def test_swap_exchanges_lists(self):
        early = StubBackend({"a": 0.4, "b": 0.1})
        late = StubBackend({"a": 0.1, "b": 0.3})
        rising, falling = token_delta_ranking(early, late, "x <mask>")
        rev_rising, rev_falling = token_delta_ranking(late, early, "x <mask>")
        assert [t for t, _ in rising] == [t for t, _ in rev_falling]
        assert [t for t, _ in falling] == [t for t, _ in rev_rising]
        assert not set(t for t, _ in rising) & set(t for t, _ in falling)

    def test_top_k_union_limits_candidates(self):
        early = StubBackend({"a": 0.9, "b": 0.05, "c": 0.01})
        late = StubBackend({"a": 0.1, "b": 0.8, "c": 0.02})
        rising, falling = token_delta_ranking(early, late, "x <mask>", k=1)
        # only a (early top-1) and b (late top-1) are candidates
        assert {t for t, _ in rising} <= {"a", "b"}
        assert {t for t, _ in falling} <= {"a", "b"}

    def test_top_k_ties_break_by_token(self):
        # a and b tie in both backends; top-2 keeps c and the smaller token, a
        early = StubBackend({"c": 0.6, "b": 0.2, "a": 0.2})
        late = StubBackend({"c": 0.6, "b": 0.3, "a": 0.3})
        rising, falling = token_delta_ranking(early, late, "x <mask>", k=2)
        assert [t for t, _ in rising] == ["a"]
        assert falling == []


def vote_articles(b_count, c_count):
    articles = []
    for i in range(b_count):
        articles.append(
            make_article(id=f"b{i}", content="This election people will vote for BJP.")
        )
    for i in range(c_count):
        articles.append(
            make_article(id=f"c{i}", content="This election people will vote for Congress.")
        )
    return articles


class TestNgramBackend:
    def test_dominant_party_near_one(self):
        backend = ngram_backend(vote_articles(50, 0))
        assert popularity_probability(backend) > 0.99

    def test_balanced_corpus_half(self):
        backend = ngram_backend(vote_articles(25, 25))
        assert popularity_probability(backend) == pytest.approx(0.5, abs=1e-9)

    def test_unseen_context_uniform(self):
        backend = ngram_backend(vote_articles(5, 5))
        result = backend.query("zebras quietly poll <mask>")
        values = set(result.values())
        assert len(values) == 1
        assert sum(result.values()) == pytest.approx(1.0, abs=1e-9)

    def test_scores_sum_at_most_one(self):
        backend = ngram_backend(vote_articles(10, 5))
        result = backend.query(VOTE_PROMPT)
        assert all(v >= 0 for v in result.values())
        assert sum(result.values()) <= 1.0 + 1e-9

    def test_right_context_chains(self):
        articles = [
            make_article(id="r1", content="They vote for BJP today. They vote for Congress now."),
        ]
        backend = ngram_backend([articles[0]], order=3)
        scores = backend.query("They vote for <mask> today.")
        assert scores["BJP"] > scores["Congress"]

    def test_deterministic(self):
        first = ngram_backend(vote_articles(8, 3)).query(VOTE_PROMPT)
        second = ngram_backend(vote_articles(8, 3)).query(VOTE_PROMPT)
        assert first == second

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            NgramMaskBackend([])
        with pytest.raises(DataError):
            NgramMaskBackend([[], []])

    def test_multiple_masks_rejected(self):
        backend = ngram_backend(vote_articles(2, 2))
        with pytest.raises(ContractViolation):
            backend.query("<mask> versus <mask>")

    def test_bad_params_rejected(self):
        with pytest.raises(ContractViolation):
            NgramMaskBackend([["a"]], order=1)
        with pytest.raises(ContractViolation):
            NgramMaskBackend([["a"]], smoothing=0.0)


def assert_same_scores(sentences, order, smoothing, prompt):
    """The backend's scores equal the Counter-table oracle's bit for bit, in its key order."""
    fast = NgramMaskBackend(sentences, order=order, smoothing=smoothing).query(prompt)
    slow = CounterNgramMaskBackend(sentences, order=order, smoothing=smoothing).query(prompt)
    assert list(fast) == list(slow)
    assert all(type(v) is float for v in fast.values())
    assert [struct.pack("<d", v) for v in fast.values()] == [struct.pack("<d", v) for v in slow.values()]


WORDS = ["a", "b", "c", "vote", "BJP"]
CORPUS = [["vote", "for", "BJP", "now"], [], ["vote", "for", "Congress", "now"], ["for", "BJP"], []]


class TestCountingOracle:
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize(
        "prompt",
        [
            "<mask> now",  # empty left context: the left factor is 1/V
            "zebra for <mask> now",  # a context token out of the vocabulary
            "vote zebra <mask>",  # the out-of-vocabulary token is the last one
            "vote for <mask> zebra",  # a right-context token never seen
            "vote for <mask>",  # no right context
            "<mask>",  # neither context
            "people will vote for <mask> now and then",  # more left context than order - 1
        ],
    )
    def test_edge_cases(self, order, prompt):
        assert_same_scores(CORPUS, order, 0.01, prompt)

    @settings(max_examples=300, deadline=None)
    @given(
        sentences=st.lists(st.lists(st.sampled_from(WORDS), max_size=8), min_size=1, max_size=6).filter(any),
        order=st.sampled_from([2, 3, 4]),
        smoothing=st.sampled_from([0.01, 0.5, 1.0, 3.0]),
        left=st.lists(st.sampled_from(WORDS + ["zebra"]), max_size=4),
        right=st.lists(st.sampled_from(WORDS + ["zebra"]), max_size=2),
    )
    def test_random_slices_and_prompts(self, sentences, order, smoothing, left, right):
        assert_same_scores(sentences, order, smoothing, " ".join([*left, MASK, *right]))
