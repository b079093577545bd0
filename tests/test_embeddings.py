from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbalance import embeddings
from newsbalance.embeddings import (
    _DRAW_BINS,
    AssociationSets,
    EmbeddingSpace,
    SgnsParams,
    align,
    cosine,
    differential_association,
    load_binary,
    popularity_timeline,
    save_binary,
    train_sgns,
    weat_score,
)
from newsbalance.errors import (
    ConfigError,
    DataError,
    DegenerateScoreError,
    InsufficientAnchorsError,
    VocabularyError,
)
from oracles import reference_train_sgns

TOPIC_A = ["apple", "banana", "cherry", "grape"]
TOPIC_B = ["steel", "iron", "copper", "zinc"]


def topic_corpus(seed=0, n=400):
    rng = np.random.default_rng(seed)
    sentences = []
    for i in range(n):
        pool = TOPIC_A if i % 2 == 0 else TOPIC_B
        sentences.append([pool[rng.integers(4)] for _ in range(6)])
    return sentences


def small_params(**overrides):
    base = dict(
        dim=16, window=3, negatives=4, epochs=4, min_count=1, seed=7, subsample=0.0,
        chunk_pairs=512,
    )
    base.update(overrides)
    return SgnsParams(**base)


def space_from_rows(rows, tokens=None, year=0):
    rows = np.asarray(rows, dtype=np.float64)
    tokens = tokens or [f"t{i}" for i in range(rows.shape[0])]
    return EmbeddingSpace(
        year=year, dim=rows.shape[1], vocab={t: i for i, t in enumerate(tokens)}, vectors=rows
    )


class TestTrainSgns:
    def test_topic_separation(self):
        space = train_sgns(topic_corpus(), small_params())
        within = cosine(space.vector("apple"), space.vector("banana"))
        cross = cosine(space.vector("apple"), space.vector("steel"))
        assert within > cross

    def test_seeded_determinism_bitwise(self):
        first = train_sgns(topic_corpus(), small_params())
        second = train_sgns(topic_corpus(), small_params())
        assert first.vocab == second.vocab
        assert np.array_equal(first.vectors, second.vectors)

    def test_min_count_filters_rare_tokens(self):
        sentences = [["common", "common", "rare"], ["common", "common"], ["common", "rare"]]
        space = train_sgns(sentences, small_params(min_count=5, window=2))
        assert "rare" not in space.vocab  # 2 occurrences < 5
        # "common": 5 occurrences pass the threshold
        assert "common" in space.vocab

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(DataError):
            train_sgns([["once"], ["twice"]], small_params(min_count=10))

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            train_sgns([], small_params())

    def test_vocab_in_frequency_order(self):
        sentences = [["b", "b", "b", "a", "a", "c"]] * 3
        space = train_sgns(sentences, small_params(window=2))
        assert space.tokens_by_rank() == ["b", "a", "c"]


class TestScatterAdd:
    """`_scatter_add` against `np.add.at`, the row scatter it replaces, bit for bit."""

    @staticmethod
    def assert_same_bits(table, rows, values):
        expected = table.copy()
        np.add.at(expected, rows, values)
        actual = table.copy()
        embeddings._scatter_add(actual, rows, values)
        np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32))

    @pytest.mark.parametrize(
        "count",
        [
            0,
            100,
            4096,
            3 * 4096,
            2 * 4096 + 123,
        ],
    )
    def test_equals_row_scatter(self, count):
        self.assert_same_bits(*self.random_case(count, table_rows=7, dim=5))

    @pytest.mark.parametrize("count", [1, 100, 4097])
    @pytest.mark.parametrize("table_rows, dim", [(7, 1), (1, 5), (1, 1)])
    def test_one_column_and_one_row_tables(self, count, table_rows, dim):
        self.assert_same_bits(*self.random_case(count, table_rows, dim))

    @staticmethod
    def random_case(count, table_rows, dim):
        # Few rows and values spread over eight orders of magnitude, so every
        # row is hit many times and the float32 sums depend on their order.
        rng = np.random.default_rng(count)
        table = rng.standard_normal((table_rows, dim)).astype(np.float32)
        rows = rng.integers(0, table_rows, size=count)
        scale = 10.0 ** rng.uniform(-4, 4, size=(count, 1))
        values = (rng.standard_normal((count, dim)) * scale).astype(np.float32)
        return table, rows, values

    def test_repeated_rows(self):
        table = np.zeros((3, 4), dtype=np.float32)
        rows = np.array([2, 0, 2, 2, 1, 0])
        values = np.array(
            [[1e8, 1.0, -1e8, 0.5]] * 3 + [[1.0, 1e-8, 3.0, -0.5]] * 3, dtype=np.float32
        )
        self.assert_same_bits(table, rows, values)


def noise_cdf(freqs):
    """The noise distribution's cdf, as `train_sgns` builds it."""
    noise = np.asarray(freqs, dtype=np.float64) ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf[-1] = 1.0
    return cdf


def adversarial_draws(cdf):
    """Every cdf value and its neighbours, every bin edge and the double below
    it, 0.0 and the largest double below 1.0; those in [0, 1), a uniform
    draw's range."""
    edges = np.arange(_DRAW_BINS + 1) / _DRAW_BINS
    u = np.concatenate([
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        edges, np.nextafter(edges, 0.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    return u[(u >= 0.0) & (u < 1.0)]


TOP_ROUNDS_TO_ONE = [100.0, 50.0, 20.0, 1e-20, 1e-20]


class TestNegativeDraw:
    """The bin-table draw against `np.searchsorted(noise_cdf, u)`, element by element."""

    @staticmethod
    def table_draw(cdf, u):
        params = small_params(dim=1, negatives=1, chunk_pairs=u.size)
        table = np.zeros((cdf.size, 1), dtype=np.float32)
        step = embeddings._ChunkStep(table, table.copy(), cdf, params)
        return step, step.negatives(u.reshape(-1, 1))[:, 0]

    @pytest.mark.parametrize(
        "freqs",
        [
            [5.0],
            # Zipf over 202 types, the vocabulary size of a synth outlet-year.
            np.floor(60000.0 / np.arange(1, 203)),
            # A tail so light that the cdf's top three entries round to 1.0
            # before the last one is set to it: searchsorted picks the first.
            TOP_ROUNDS_TO_ONE,
        ],
        ids=["V=1", "zipf-V=202", "top-rounds-to-1"],
    )
    def test_equals_searchsorted(self, freqs):
        cdf = noise_cdf(freqs)
        u = adversarial_draws(cdf)
        step, drawn = self.table_draw(cdf, u)
        np.testing.assert_array_equal(drawn, np.searchsorted(cdf, u))
        unsure = step.bins < 0
        assert unsure.sum() < cdf.size
        if cdf.size > 1:  # so the fallback ran, on the draws of those bins
            assert np.isin(np.floor(u * _DRAW_BINS).astype(np.intp), np.flatnonzero(unsure)).any()

    def test_top_entries_round_to_one(self):
        noise = np.asarray(TOP_ROUNDS_TO_ONE) ** 0.75
        assert (np.cumsum(noise / noise.sum()) == 1.0).sum() == 3


def zipf_corpus(seed, sentences=300, types=60, longest=12):
    """Sentences of 0 to `longest` tokens over Zipf-distributed types, so that
    a min_count drops the tail and some sentences are shorter than the window."""
    rng = np.random.default_rng(seed)
    ranks = np.minimum(rng.zipf(1.5, size=sentences * longest), types) - 1
    lengths = rng.integers(0, longest + 1, size=sentences)
    words = iter(ranks.tolist())
    return [[f"w{next(words)}" for _ in range(length)] for length in lengths]


def assert_equals_reference(sentences, params):
    """`train_sgns` gives the oracle's vocabulary, vector bits and pair count,
    or raises its DataError; returns the space, or None after an error."""
    try:
        expected, pairs = reference_train_sgns(sentences, params, year=3)
    except DataError as exc:
        with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
            train_sgns(sentences, params, year=3)
        return None
    space = train_sgns(sentences, params, year=3)
    assert space.vocab == expected.vocab, params
    np.testing.assert_array_equal(space.vectors.view(np.uint32), expected.vectors.view(np.uint32), err_msg=str(params))
    assert (space.year, space.dim, space.pairs) == (3, params.dim, pairs), params
    return space


class TestTrainSgnsOracle:
    """`train_sgns` against the trainer with int64 pairs, whole-chunk
    expressions and row-by-row gradient scatters, bit for bit."""

    @pytest.mark.parametrize("chunk_pairs", [512, 2048])
    def test_training_equals_row_scatter(self, chunk_pairs):
        params = small_params(chunk_pairs=chunk_pairs)
        assert assert_equals_reference(topic_corpus(), params) is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(window=1, epochs=1, negatives=0),
            dict(window=2, epochs=4, negatives=1, subsample=1e-3),
            dict(window=3, epochs=2, negatives=6, min_count=3),
            dict(window=4, epochs=3, negatives=5, subsample=1e-3, min_count=2),
            dict(window=5, epochs=1, negatives=2, chunk_pairs=4096),
            dict(window=6, epochs=2, negatives=4, subsample=1e-3),
            # chunks smaller than the default, of sizes that are no power of two
            dict(window=5, epochs=2, negatives=5, chunk_pairs=300),
            dict(window=5, epochs=2, negatives=5, chunk_pairs=1000),
            dict(window=2, epochs=2, negatives=0, chunk_pairs=5000),
        ],
    )
    def test_grid_equals_reference(self, overrides):
        assert assert_equals_reference(zipf_corpus(len(overrides)), small_params(**overrides)) is not None

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sentences=st.integers(1, 80),
        longest=st.integers(0, 9),
        window=st.integers(1, 6),
        epochs=st.integers(1, 4),
        negatives=st.integers(0, 6),
        min_count=st.integers(1, 4),
        subsample=st.sampled_from([0.0, 1e-3]),
        chunk_pairs=st.sampled_from([1, 7, 64, 700]),
    )
    def test_drawn_corpora_equal_reference(self, seed, sentences, longest, window, epochs, negatives, min_count,
                                           subsample, chunk_pairs):
        corpus = zipf_corpus(seed, sentences=sentences, types=20, longest=longest)
        params = small_params(
            dim=8, window=window, epochs=epochs, negatives=negatives, min_count=min_count,
            subsample=subsample, chunk_pairs=chunk_pairs, seed=seed,
        )
        assert_equals_reference(corpus, params)

    @pytest.mark.parametrize(
        "sentences, overrides",
        [
            ([], {}),
            ([[], []], {}),
            ([["once"], ["twice"]], dict(min_count=2)),
            ([["a", "b"], ["a"], ["c", "a"]], dict(min_count=3)),
            ([["a"], ["b"], ["a"]], {}),
            ([[], ["a"]], dict(window=6)),
        ],
    )
    def test_data_errors_equal_reference(self, sentences, overrides):
        """The first of the four data checks that fails names the error, as in the oracle."""
        assert assert_equals_reference(sentences, small_params(**overrides)) is None

    def test_memory_does_not_grow_with_epochs(self):
        """One epoch's pairs are held at a time, so more epochs add no memory."""
        corpus = zipf_corpus(11, sentences=3000, types=200, longest=20)

        def traced_peak(epochs):
            tracemalloc.start()
            try:
                train_sgns(corpus, small_params(dim=32, window=5, epochs=epochs, chunk_pairs=4096))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = traced_peak(1), traced_peak(8)
        assert eight <= 1.1 * one, (one, eight)


class TestAlign:
    def test_rotation_recovery(self):
        rng = np.random.default_rng(1)
        for dim in (10, 50):
            base = rng.normal(size=(200, dim))
            rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            source = space_from_rows(base, year=1)
            target = space_from_rows(base @ rotation, year=2)
            transform = align(source, target, anchor_count=200, mode="procrustes")
            residual = np.abs(transform.apply_rows(base) - base @ rotation).max()
            assert residual < 1e-6
            # recovered matrix reproduces the planted rotation (row convention)
            assert np.allclose(transform.matrix.T, rotation, atol=1e-8)

    def test_identity_mode(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(40, 8))
        source = space_from_rows(rows, year=1)
        target = space_from_rows(rows + 0.1, year=2)
        transform = align(source, target, anchor_count=40, mode="identity")
        assert np.array_equal(transform.matrix, np.eye(8))

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(3)
        source = space_from_rows(rng.normal(size=(60, 12)), year=1)
        target = space_from_rows(rng.normal(size=(60, 12)), year=2)
        q = align(source, target, anchor_count=60, mode="procrustes").matrix
        assert np.abs(q.T @ q - np.eye(12)).max() < 1e-8

    def test_procrustes_not_worse_than_identity(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(80, 6))
        rotation, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        source = space_from_rows(base, year=1)
        target = space_from_rows(base @ rotation + rng.normal(scale=0.05, size=(80, 6)), year=2)
        fitted = align(source, target, anchor_count=80, mode="procrustes")
        pre = np.linalg.norm(base - target.vectors)
        post = np.linalg.norm(fitted.apply_rows(base) - target.vectors)
        assert post <= pre

    def test_insufficient_anchors(self):
        rng = np.random.default_rng(5)
        source = space_from_rows(rng.normal(size=(4, 8)), year=1)
        target = space_from_rows(rng.normal(size=(4, 8)), year=2)
        with pytest.raises(InsufficientAnchorsError):
            align(source, target, anchor_count=4, mode="procrustes")

    def test_excluded_tokens_not_anchors(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(30, 4))
        source = space_from_rows(rows, year=1)
        target = space_from_rows(rows, year=2)
        transform = align(source, target, anchor_count=30, mode="procrustes", exclude=["t0"])
        assert "t0" not in transform.anchors

    def test_unknown_mode_rejected(self):
        source = space_from_rows(np.eye(3), year=1)
        with pytest.raises(ConfigError):
            align(source, source, anchor_count=3, mode="affine")


class TestAssociation:
    def test_constructed_unit_case(self):
        space = space_from_rows(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            tokens=["s1", "s2", "attr_pos", "attr_neg"],
        )
        value = differential_association("s1", ["attr_pos"], ["attr_neg"], space)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_swap_flips_sign(self):
        rng = np.random.default_rng(7)
        space = space_from_rows(rng.normal(size=(6, 4)), tokens=list("abcdef"))
        forward = differential_association("a", ["b", "c"], ["d", "e"], space)
        backward = differential_association("a", ["d", "e"], ["b", "c"], space)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_hand_built_two_dim(self):
        # cos((1,1),(1,0)) = 1/sqrt(2); cos((1,1),(0,1)) = 1/sqrt(2) -> g = 0
        # cos((1,0),(1,0)) = 1;        cos((1,0),(0,1)) = 0          -> g = 1
        space = space_from_rows(
            [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], tokens=["c", "a1", "a2"]
        )
        assert differential_association("c", ["a1"], ["a2"], space) == pytest.approx(0.0, abs=1e-12)
        assert differential_association("a1", ["a1"], ["a2"], space) == pytest.approx(1.0, abs=1e-12)

    def test_missing_center_token_rejected(self):
        space = space_from_rows(np.eye(2), tokens=["a", "b"])
        with pytest.raises(VocabularyError):
            differential_association("zzz", ["a"], ["b"], space)

    def test_missing_attributes_skipped_with_floor(self):
        space = space_from_rows(np.eye(3), tokens=["c", "a", "b"])
        value = differential_association("c", ["a", "ghost"], ["b"], space)
        assert value == pytest.approx(cosine(space.vector("c"), space.vector("a")) - 0.0)
        with pytest.raises(VocabularyError):
            differential_association("c", ["ghost"], ["b"], space)


class TestWeatScore:
    def fixture_space(self):
        # s1 sits on a1's axis, s2 on a2's: g(s1) = 1, g(s2) = -1
        return space_from_rows(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            tokens=["s1", "s2", "a1", "a2"],
        )

    def sets(self):
        return AssociationSets(s1=("s1",), s2=("s2",), a1=("a1",), a2=("a2",))

    def test_hand_value(self):
        # g over {s1, s2} = {1, -1}: mean diff = 2, population SD = 1
        assert weat_score(self.sets(), self.fixture_space()) == pytest.approx(2.0, abs=1e-12)

    def test_equal_sets_zero_numerator(self):
        space = space_from_rows(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]],
            tokens=["x", "y", "a1", "a2"],
        )
        sets = AssociationSets(s1=("x", "y"), s2=("x", "y"), a1=("a1",), a2=("a2",))
        assert weat_score(sets, space) == pytest.approx(0.0, abs=1e-12)

    def test_all_identical_vectors_degenerate(self):
        space = space_from_rows(
            [[1.0, 1.0]] * 4, tokens=["s1", "s2", "a1", "a2"]
        )
        sets = AssociationSets(s1=("s1",), s2=("s2",), a1=("a1",), a2=("a2",))
        with pytest.raises(DegenerateScoreError):
            weat_score(sets, space)

    def test_antisymmetry_under_swaps(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows = rng.normal(size=(8, 5))
            tokens = ["p1", "p2", "p3", "q1", "q2", "x1", "x2", "x3"]
            space = space_from_rows(rows, tokens=tokens)
            sets = AssociationSets(s1=("p1", "p2"), s2=("q1", "q2"), a1=("x1", "x2"), a2=("x3",))
            try:
                base = weat_score(sets, space)
            except DegenerateScoreError:
                continue
            swapped_s = AssociationSets(s1=sets.s2, s2=sets.s1, a1=sets.a1, a2=sets.a2)
            swapped_a = AssociationSets(s1=sets.s1, s2=sets.s2, a1=sets.a2, a2=sets.a1)
            assert weat_score(swapped_s, space) == pytest.approx(-base, abs=1e-9)
            assert weat_score(swapped_a, space) == pytest.approx(-base, abs=1e-9)

    def test_target_swap_negates_exactly(self):
        """Swapping s1 and s2 negates the score bit for bit, also for sets of unequal size."""
        rng = np.random.default_rng(9)
        tokens = ["p1", "p2", "p3", "q1", "q2", "x1", "x2", "x3"]
        sets = AssociationSets(s1=("p1", "p2", "p3"), s2=("q1", "q2"), a1=("x1", "x2"), a2=("x3",))
        swapped = AssociationSets(s1=sets.s2, s2=sets.s1, a1=sets.a1, a2=sets.a2)
        for _ in range(200):
            space = space_from_rows(rng.normal(size=(8, 5)), tokens=tokens)
            assert repr(weat_score(swapped, space)) == repr(0.0 - weat_score(sets, space))

    def test_overlapping_attribute_sets_rejected(self):
        with pytest.raises(ConfigError):
            AssociationSets(s1=("a",), s2=("b",), a1=("x",), a2=("x",))

    def test_common_rotation_leaves_scores(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(8, 6))
        tokens = ["s1", "s2", "s3", "s4", "a1", "a2", "b1", "b2"]
        space = space_from_rows(rows, tokens=tokens)
        rotation, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = space_from_rows(rows @ rotation, tokens=tokens)
        sets = AssociationSets(s1=("s1", "s2"), s2=("s3", "s4"), a1=("a1", "b1"), a2=("a2", "b2"))
        assert weat_score(sets, rotated) == pytest.approx(weat_score(sets, space), abs=1e-9)

    def test_scaling_single_vector_keeps_cosines(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(4, 3))
        space = space_from_rows(rows, tokens=["c", "a", "b", "d"])
        base = differential_association("c", ["a"], ["b"], space)
        rows2 = rows.copy()
        rows2[0] *= 7.5
        scaled = space_from_rows(rows2, tokens=["c", "a", "b", "d"])
        assert differential_association("c", ["a"], ["b"], scaled) == pytest.approx(base, abs=1e-12)


class TestPopularityTimeline:
    def drift_spaces(self, seed=0):
        """Planted drift: group-1 tokens move from the a2 axis to the a1 axis."""
        rng = np.random.default_rng(seed)
        spaces = []
        attrs = {"a1": [1.0, 0.0], "a2": [0.0, 1.0]}
        mixes = [0.1, 0.3, 0.5, 0.7, 0.9]
        shared = {f"w{i}": rng.normal(size=2).tolist() for i in range(8)}
        for year, mix in enumerate(mixes):
            rows = []
            tokens = []
            for token, vec in attrs.items():
                tokens.append(token)
                rows.append(vec)
            tokens.append("p1")
            rows.append([mix, 1.0 - mix])
            tokens.append("p2")
            rows.append([1.0 - mix, mix])
            for token, vec in shared.items():
                tokens.append(token)
                rows.append(vec)
            spaces.append(space_from_rows(np.array(rows), tokens=tokens, year=2010 + year))
        return spaces

    def test_planted_drift_series_monotone(self):
        spaces = self.drift_spaces()
        sets = AssociationSets(s1=("p1",), s2=("p2",), a1=("a1",), a2=("a2",))
        timeline = popularity_timeline(spaces, sets, anchor_count=8, mode="identity")
        diffs = [g1 - g2 for g1, g2 in zip(timeline.group1, timeline.group2)]
        assert all(d1 < d2 for d1, d2 in zip(diffs, diffs[1:]))
        assert timeline.crossing_year() == 2010 + 2  # group1 reaches group2 at mix 0.5

    def test_identical_spaces_flat_series(self):
        spaces = self.drift_spaces()
        frozen = [
            EmbeddingSpace(year=2010 + i, dim=2, vocab=spaces[0].vocab, vectors=spaces[0].vectors)
            for i in range(3)
        ]
        sets = AssociationSets(s1=("p1",), s2=("p2",), a1=("a1",), a2=("a2",))
        timeline = popularity_timeline(frozen, sets, anchor_count=8, mode="identity")
        assert timeline.group1.count(timeline.group1[0]) == 3
        assert timeline.group2.count(timeline.group2[0]) == 3

    def test_identical_corpora_each_year_flat_series(self):
        """Training the same seeded corpus per 'year' leaves no drift to see."""
        corpus = [
            ["p1", "good", "w1"], ["p2", "bad", "w2"], ["w1", "w2", "w3", "w4"],
            ["p1", "honest", "w3"], ["p2", "dishonest", "w4"], ["w2", "w3", "w1"],
        ] * 40
        params = small_params(dim=8, window=2, epochs=2)
        spaces = [train_sgns(corpus, params, year=2010 + i) for i in range(3)]
        sets = AssociationSets(
            s1=("p1",), s2=("p2",), a1=("good", "honest"), a2=("bad", "dishonest")
        )
        timeline = popularity_timeline(spaces, sets, anchor_count=20, mode="procrustes")
        for group in (timeline.group1, timeline.group2):
            for value in group[1:]:
                assert value == pytest.approx(group[0], abs=1e-9)

    def test_requires_two_years(self):
        spaces = self.drift_spaces()[:1]
        sets = AssociationSets(s1=("p1",), s2=("p2",), a1=("a1",), a2=("a2",))
        with pytest.raises(ConfigError):
            popularity_timeline(spaces, sets, anchor_count=8, mode="identity")

    def test_alignment_mode_matches_identity_scores(self):
        # cosines are rotation-invariant, so procrustes and identity agree
        spaces = self.drift_spaces()
        sets = AssociationSets(s1=("p1",), s2=("p2",), a1=("a1",), a2=("a2",))
        via_identity = popularity_timeline(spaces, sets, anchor_count=8, mode="identity")
        via_procrustes = popularity_timeline(spaces, sets, anchor_count=8, mode="procrustes")
        for a, b in zip(via_identity.group1, via_procrustes.group1):
            assert a == pytest.approx(b, abs=1e-9)


class TestPersistence:
    def test_binary_round_trip(self, tmp_path):
        space = train_sgns(topic_corpus(n=80), small_params(epochs=1))
        path = tmp_path / "space.nbe"
        save_binary(space, path)
        loaded = load_binary(path)
        assert loaded.year == space.year and loaded.dim == space.dim
        assert loaded.vocab == space.vocab
        assert np.array_equal(loaded.vectors, space.vectors.astype(np.float32))

    def test_token_length_is_checked_before_the_file_opens(self, tmp_path):
        """A token's UTF-8 length is a 16-bit field: 65,535 bytes round-trip, one more is a data error."""
        longest = "é" * 32767 + "a"  # 65,535 bytes
        space = space_from_rows(np.eye(2), tokens=[longest, "b"], year=2011)
        path = tmp_path / "longest.nbe"
        save_binary(space, path)
        assert load_binary(path).vocab == space.vocab

        space = space_from_rows(np.eye(2), tokens=["b", longest + "a"], year=2011)
        path = tmp_path / "too-long.nbe"
        with pytest.raises(DataError, match="^year-2011 vocabulary holds a token of 65536 UTF-8 bytes"):
            save_binary(space, path)
        assert not path.exists()

    def test_binary_rejects_other_files(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_binary(path)


def test_cosine_zero_vector():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
