from __future__ import annotations

import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from newsbalance import timeseries
from newsbalance.errors import ContractViolation
from newsbalance.timeseries import (
    cluster,
    distance_matrix,
    drop_missing,
    dtw_distance,
    z_normalize,
)


def brute_force_dtw(a, b):
    """Exhaustive minimum over monotone boundary-aligned warping paths.

    Independent of the DP: walks every path from (0, 0) to (n-1, m-1) using
    steps (1,0), (0,1), (1,1) and takes the cheapest total |a_i - b_j| cost.
    """
    n, m = len(a), len(b)
    best = [math.inf]

    def walk(i, j, cost):
        cost += abs(a[i] - b[j])
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def reference_dtw(a, b):
    """The row-by-row dynamic program `dtw_distance` replaced, kept as its
    bitwise oracle: one Python float operation per cell."""
    n, m = len(a), len(b)
    prev = [math.inf] * m
    prev[0] = abs(a[0] - b[0])
    for j in range(1, m):
        prev[j] = prev[j - 1] + abs(a[0] - b[j])
    for i in range(1, n):
        cur = [math.inf] * m
        cur[0] = prev[0] + abs(a[i] - b[0])
        for j in range(1, m):
            cur[j] = abs(a[i] - b[j]) + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return prev[m - 1]


def assert_same_bits(got, want):
    assert got == want
    assert struct.pack("<d", got) == struct.pack("<d", want)


grid_values = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0])
# Finite floats over the whole double range (differences may overflow to
# +inf), mixed with signed zeros and a few values that repeat.
wide_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 1e300]),
)
wide_seq = st.lists(wide_values, min_size=1, max_size=40)
short_seq = st.lists(grid_values, min_size=1, max_size=6)


class TestDtwDistance:
    def test_identical_sequences(self):
        assert dtw_distance([0.1, 0.4, -0.2], [0.1, 0.4, -0.2]) == 0.0

    def test_constant_offset(self):
        # brute force over all monotone alignments of length <= 6 gives 3
        assert dtw_distance([0, 0, 0], [1, 1, 1]) == 3.0
        assert brute_force_dtw([0, 0, 0], [1, 1, 1]) == 3.0

    def test_single_point_vs_run(self):
        assert dtw_distance([0], [1, 1, 1]) == 3.0
        assert brute_force_dtw([0], [1, 1, 1]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            dtw_distance([], [1.0])

    @given(short_seq, short_seq)
    def test_matches_brute_force(self, a, b):
        assert dtw_distance(a, b) == brute_force_dtw(a, b)

    @given(short_seq, short_seq)
    def test_symmetry(self, a, b):
        assert dtw_distance(a, b) == dtw_distance(b, a)

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=12))
    def test_zero_iff_identical_equal_lengths(self, a):
        assert dtw_distance(a, a) == 0.0

    @given(
        st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=10)
    )
    def test_diagonal_upper_bound(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        assert dtw_distance(a, b) <= sum(abs(x - y) for x, y in pairs) + 1e-12

    def test_warping_beats_diagonal_on_shifted_peak(self):
        a = [0, 0, 1, 0, 0]
        b = [0, 1, 0, 0, 0]
        assert dtw_distance(a, b) < sum(abs(x - y) for x, y in zip(a, b))


class TestDtwKernelOracle:
    """The wavefront kernel against the row-by-row program, bit for bit."""

    @given(wide_seq, wide_seq)
    @example([0.5], [0.25])
    @example([-0.0], [0.0, -0.0, 3.0])
    @example([1.0, -1.0, 1.0], [2.0])
    @example([1e308, -1e308], [-1e308, 1e308, 0.0])
    def test_bitwise_equal_to_row_program(self, a, b):
        assert_same_bits(dtw_distance(a, b), reference_dtw(a, b))

    def test_report_long_shape(self):
        rng = np.random.default_rng(144)
        a = rng.normal(size=138).tolist()
        b = rng.normal(size=144).tolist()
        assert_same_bits(dtw_distance(a, b), reference_dtw(a, b))
        assert_same_bits(dtw_distance(b, a), reference_dtw(b, a))

    def test_returns_python_float(self):
        # distance_matrix.csv is written with repr(); np.float64 would print
        # as "np.float64(...)"
        assert type(dtw_distance([0.0, 1.0], [1.0])) is float
        assert type(dtw_distance([2], [1])) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ContractViolation, match="finite"):
            dtw_distance([0.0, bad], [1.0])
        with pytest.raises(ContractViolation, match="finite"):
            dtw_distance([1.0], [bad, 0.0])

    def test_distance_matrix_equals_oracle_matrix(self, monkeypatch):
        rng = random.Random(17)
        series = {
            f"s{i}": [rng.gauss(0.0, 1.0) for _ in range(rng.randint(1, 30))] for i in range(7)
        }
        labels, matrix = distance_matrix(series)
        monkeypatch.setattr(timeseries, "dtw_distance", reference_dtw)
        oracle_labels, oracle_matrix = distance_matrix(series)
        assert labels == oracle_labels
        for row, oracle_row in zip(matrix, oracle_matrix):
            for got, want in zip(row, oracle_row):
                assert_same_bits(got, want)


def cluster_series(series, linkage="average"):
    """Cluster raw series as the `cluster` command does: drop missing points,
    compute one DTW matrix, then cluster over it."""
    labels, matrix = distance_matrix({label: drop_missing(values) for label, values in series.items()})
    return cluster(labels, matrix, linkage)


class TestCluster:
    def test_identical_pair_merges_first(self):
        dendro = cluster_series({"n1": [0.0, 0.2], "n2": [0.0, 0.2], "far": [1.0, -1.0]})
        first_merge = _deepest_internal(dendro)
        assert sorted(_leaves(first_merge)) == ["n1", "n2"]
        assert first_merge["height"] == 0.0

    def test_equidistant_triple_ties_lexicographic(self):
        # hand matrix: |0-4| = 4; [0] vs [2,2] = 2+2; [4] vs [2,2] = 2+2
        series = {"a": [0.0], "b": [4.0], "c": [2.0, 2.0]}
        d_ab = dtw_distance(series["a"], series["b"])
        d_ac = dtw_distance(series["a"], series["c"])
        d_bc = dtw_distance(series["b"], series["c"])
        assert d_ab == d_ac == d_bc == 4.0
        dendro = cluster_series(series)
        first_merge = _deepest_internal(dendro)
        assert sorted(_leaves(first_merge)) == ["a", "b"]

    def test_twenty_one_leaves(self):
        rng = random.Random(5)
        series = {
            f"outlet{o}/metric{m}": [rng.uniform(-1, 1) for _ in range(24)]
            for o in range(3)
            for m in range(7)
        }
        dendro = cluster_series(series)
        assert sorted(dendro.leaves()) == sorted(series)
        assert len(dendro.leaves()) == 21

    def test_missing_points_dropped(self):
        dendro = cluster_series({"x": [None, 0.5, None, 0.5], "y": [0.5, 0.5], "z": [9.0, 9.0]})
        first_merge = _deepest_internal(dendro)
        assert sorted(_leaves(first_merge)) == ["x", "y"]

    def test_heights_monotone_average_linkage(self):
        rng = random.Random(11)
        series = {f"s{i}": [rng.uniform(-1, 1) for _ in range(10)] for i in range(8)}
        dendro = cluster_series(series, linkage="average")
        assert _heights_monotone(dendro)

    def test_too_few_series_rejected(self):
        with pytest.raises(ContractViolation):
            cluster_series({"only": [1.0]})

    def test_all_missing_series_rejected(self):
        # DTW refuses an empty series; the command skips such series before it
        with pytest.raises(ContractViolation):
            cluster_series({"a": [None], "b": [1.0]})

    def test_matrix_must_match_labels(self):
        with pytest.raises(ContractViolation):
            cluster(["a", "b"], [[0.0, 1.0]])
        with pytest.raises(ContractViolation):
            cluster(["a", "b"], [[0.0, 1.0], [1.0]])

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ContractViolation):
            cluster_series({"a": [1.0], "b": [2.0]}, linkage="centroid")

    def test_deterministic_under_input_order(self):
        rng = random.Random(3)
        series = {f"s{i}": [rng.uniform(-1, 1) for _ in range(12)] for i in range(6)}
        labels, matrix = distance_matrix(series)
        order = [3, 0, 5, 1, 4, 2]
        shuffled = cluster([labels[i] for i in order], [[matrix[i][j] for j in order] for i in order])
        assert cluster(labels, matrix).to_dict() == shuffled.to_dict()

    def test_newick_and_json_outputs(self):
        dendro = cluster_series({"a": [0.0], "b": [0.0], "c": [4.0]})
        newick = dendro.to_newick()
        assert newick.endswith(";") and "a" in newick and "c" in newick
        tree = json.loads(json.dumps(dendro.to_dict()))
        assert set(tree) == {"height", "children"}


def _deepest_internal(root):
    """The earliest merge: an internal node whose children are both leaves."""
    tree = root.to_dict()
    stack = [tree]
    candidates = []
    while stack:
        node = stack.pop()
        if "children" in node:
            if all("leaf" in c for c in node["children"]):
                candidates.append(node)
            stack.extend(node["children"])
    return min(candidates, key=lambda n: n["height"])


def _leaves(node):
    if "leaf" in node:
        return [node["leaf"]]
    out = []
    for child in node.get("children", []):
        out.extend(_leaves(child))
    return out


def _heights_monotone(node) -> bool:
    if node.is_leaf:
        return True
    return all(
        child.height <= node.height + 1e-12 and _heights_monotone(child)
        for child in node.children
    )


def test_distance_matrix_sorts_labels():
    labels, matrix = distance_matrix({"b": [1.0], "a": [0.0], "c": [3.0]})
    assert labels == ["a", "b", "c"]
    assert matrix[0][1] == 1.0 and matrix[1][2] == 2.0


def test_drop_missing_and_znormalize():
    assert drop_missing([None, 1.0, None, 2.0]) == [1.0, 2.0]
    normalized = z_normalize([1.0, 2.0, 3.0])
    assert normalized[1] == 0.0
    assert z_normalize([5.0, 5.0]) == [0.0, 0.0]
