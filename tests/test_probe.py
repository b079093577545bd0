from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from newsbalance.corpus import article_units
from newsbalance.errors import ContractViolation, DataError, UndefinedProbabilityError
from newsbalance.probe import (
    MASK,
    VOTE_PROMPT,
    NgramMaskBackend,
    ngram_backend,
    popularity_pair,
    token_delta_ranking,
)

from conftest import make_article
from oracles import CounterNgramMaskBackend


class TestVotePreference:
    """A party's vote preference is its mass at the mask slot, looked up by token."""

    def test_uniform_toy_backend(self):
        assert popularity_pair({"BJP": 0.5, "Congress": 0.5}, "BJP", "Congress") == (0.5, 0.5)

    def test_lookup(self):
        p_other, _ = popularity_pair({"BJP": 0.3, "Congress": 0.1, "other": 0.6}, "other", "BJP")
        assert p_other == pytest.approx(0.6 / 0.9, abs=1e-12)

    def test_absent_token_is_zero(self):
        assert popularity_pair({"Congress": 0.2}, "BJP", "Congress") == (0.0, 1.0)


class TestPopularity:
    def test_hand_normalization(self):
        p_b, _ = popularity_pair({"BJP": 0.3, "Congress": 0.1, "other": 0.6}, "BJP", "Congress")
        assert p_b == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        assert popularity_pair({"BJP": 0.2, "Congress": 0.2}, "BJP", "Congress")[0] == 0.5

    def test_both_zero_is_error(self):
        with pytest.raises(UndefinedProbabilityError):
            popularity_pair({"other": 1.0}, "BJP", "Congress")

    def test_pair_sums_to_one_exactly(self):
        for dist in [{"BJP": 0.3, "Congress": 0.1}, {"BJP": 0.1, "Congress": 0.2}]:
            p_b, p_c = popularity_pair(dist, "BJP", "Congress")
            assert p_b + p_c == 1.0

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.lists(st.sampled_from(["BJP", "Congress", "AAP", "other"]), min_size=2, max_size=2, unique=True),
    )
    def test_party_swap_is_exact(self, v_b, v_c, parties):
        party_b, party_c = parties
        dist = {party_b: v_b, party_c: v_c}
        if v_b + v_c == 0:
            return
        p_b, p_c = popularity_pair(dist, party_b, party_c)
        swapped = popularity_pair(dist, party_c, party_b)
        assert [p.hex() for p in swapped] == [p_c.hex(), p_b.hex()]


class TestTokenDeltaRanking:
    def test_identical_backends_empty(self):
        slot = {"a": 0.5, "b": 0.3}
        rising, falling = token_delta_ranking(slot, slot, k=50, m=15)
        assert rising == [] and falling == []

    def test_new_token_heads_rising(self):
        early = {"a": 0.5}
        late = {"a": 0.5, "b": 0.2}
        rising, falling = token_delta_ranking(early, late, k=50, m=15)
        assert rising[0] == ("b", pytest.approx(0.2))
        assert falling == []

    def test_hand_delta_table(self):
        # hand deltas: a:-0.3, b:+0.1, c:+0.25, d:-0.05, e:0 (dropped)
        early = {"a": 0.4, "b": 0.1, "c": 0.05, "d": 0.25, "e": 0.2}
        late = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.2, "e": 0.2}
        rising, falling = token_delta_ranking(early, late, k=50, m=15)
        assert [t for t, _ in rising] == ["c", "b"]
        assert [t for t, _ in falling] == ["a", "d"]

    def test_truncation_to_m(self):
        early = {f"t{i}": 0.01 for i in range(20)}
        late = {f"t{i}": 0.01 * (i + 2) for i in range(20)}
        rising, _ = token_delta_ranking(early, late, k=50, m=5)
        assert len(rising) == 5

    def test_swap_exchanges_lists(self):
        early = {"a": 0.4, "b": 0.1}
        late = {"a": 0.1, "b": 0.3}
        rising, falling = token_delta_ranking(early, late, k=50, m=15)
        rev_rising, rev_falling = token_delta_ranking(late, early, k=50, m=15)
        assert [t for t, _ in rising] == [t for t, _ in rev_falling]
        assert [t for t, _ in falling] == [t for t, _ in rev_rising]
        assert not set(t for t, _ in rising) & set(t for t, _ in falling)

    def test_top_k_union_limits_candidates(self):
        early = {"a": 0.9, "b": 0.05, "c": 0.01}
        late = {"a": 0.1, "b": 0.8, "c": 0.02}
        rising, falling = token_delta_ranking(early, late, k=1, m=15)
        # only a (early top-1) and b (late top-1) are candidates
        assert {t for t, _ in rising} <= {"a", "b"}
        assert {t for t, _ in falling} <= {"a", "b"}

    def test_top_k_ties_break_by_token(self):
        # a and b tie in both distributions; top-2 keeps c and the smaller token, a
        early = {"c": 0.6, "b": 0.2, "a": 0.2}
        late = {"c": 0.6, "b": 0.3, "a": 0.3}
        rising, falling = token_delta_ranking(early, late, k=2, m=15)
        assert [t for t, _ in rising] == ["a"]
        assert falling == []


def vote_units(b_count, c_count):
    """The units of b_count articles that vote for BJP and c_count that vote for Congress."""
    articles = []
    for i in range(b_count):
        articles.append(
            make_article(id=f"b{i}", content="This election people will vote for BJP.")
        )
    for i in range(c_count):
        articles.append(
            make_article(id=f"c{i}", content="This election people will vote for Congress.")
        )
    return article_units(articles)


class TestNgramBackend:
    def test_dominant_party_near_one(self):
        backend = ngram_backend(vote_units(50, 0), order=3, smoothing=0.01)
        assert popularity_pair(backend.query(VOTE_PROMPT), "BJP", "Congress")[0] > 0.99

    def test_balanced_corpus_half(self):
        backend = ngram_backend(vote_units(25, 25), order=3, smoothing=0.01)
        assert popularity_pair(backend.query(VOTE_PROMPT), "BJP", "Congress")[0] == pytest.approx(0.5, abs=1e-9)

    def test_unseen_context_uniform(self):
        backend = ngram_backend(vote_units(5, 5), order=3, smoothing=0.01)
        result = backend.query("zebras quietly poll <mask>")
        values = set(result.values())
        assert len(values) == 1
        assert sum(result.values()) == pytest.approx(1.0, abs=1e-9)

    def test_scores_sum_at_most_one(self):
        backend = ngram_backend(vote_units(10, 5), order=3, smoothing=0.01)
        result = backend.query(VOTE_PROMPT)
        assert all(v >= 0 for v in result.values())
        assert sum(result.values()) <= 1.0 + 1e-9

    def test_right_context_chains(self):
        articles = [
            make_article(id="r1", content="They vote for BJP today. They vote for Congress now."),
        ]
        backend = ngram_backend(article_units(articles), order=3, smoothing=0.01)
        scores = backend.query("They vote for <mask> today.")
        assert scores["BJP"] > scores["Congress"]

    def test_deterministic(self):
        first = ngram_backend(vote_units(8, 3), order=3, smoothing=0.01).query(VOTE_PROMPT)
        second = ngram_backend(vote_units(8, 3), order=3, smoothing=0.01).query(VOTE_PROMPT)
        assert first == second

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            NgramMaskBackend([], order=3, smoothing=0.01)
        with pytest.raises(DataError):
            NgramMaskBackend([[], []], order=3, smoothing=0.01)

    def test_multiple_masks_rejected(self):
        backend = ngram_backend(vote_units(2, 2), order=3, smoothing=0.01)
        with pytest.raises(ContractViolation):
            backend.query("<mask> versus <mask>")

    def test_bad_params_rejected(self):
        with pytest.raises(ContractViolation):
            NgramMaskBackend([["a"]], order=1, smoothing=0.01)
        with pytest.raises(ContractViolation):
            NgramMaskBackend([["a"]], order=3, smoothing=0.0)


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
