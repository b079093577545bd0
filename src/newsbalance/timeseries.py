"""Dynamic time warping distances and hierarchical agglomerative clustering.

The DTW here is the classic unconstrained dynamic program with local cost
|a_i - b_j| and steps (1,0), (0,1), (1,1): cell (i, j) holds
|a_i - b_j| + min(D[i-1][j], D[i][j-1], D[i-1][j-1]). `dtw_distance` fills it
by anti-diagonals (a wavefront): every cell on diagonal k = i + j reads only
diagonals k-1 and k-2, so a whole diagonal is five numpy ufunc calls over
contiguous slices instead of a Python loop over its cells. It is bitwise equal
to the row-by-row program, which the tests keep as the oracle: each cell adds
the same IEEE |a_i - b_j| to the same neighbour. `min` of non-NaN values
returns one of its operands exactly, ties are between equal bits (no cell is
-0.0), and the +inf cells around the grid make an edge cell's `min` return its
one in-grid neighbour. Non-finite points are refused: with NaN, the row
program's Python `min` depended on operand order.

The kernel stays one call per pair of series rather than batching pairs:
tracing wraps `timeseries.dtw_distance` by name and counts `len(a) * len(b)`
cells per call, so `distance_matrix` calls it through the module-level name
once per pair.

Clustering is implemented directly (rather than via a library) so that ties in
the merge order can be broken lexicographically by leaf label, which makes
dendrograms fully deterministic. This module writes no file: `cli` writes the
distance matrix and the dendrograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "dtw_distance",
    "DendrogramNode",
    "cluster",
    "distance_matrix",
    "drop_missing",
    "z_normalize",
]

_LINKAGES = ("average", "single", "complete")


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Minimum cumulative |a_i - b_j| cost over monotone boundary-aligned paths.

    Raises `ContractViolation` for an empty sequence or a non-finite point.
    """
    x = np.asarray(a, dtype=np.float64)
    # b reversed, so that b[k - i] over a diagonal's i range is a forward slice
    rb = np.asarray(b, dtype=np.float64)[::-1].copy()
    n, m = len(x), len(rb)
    if n == 0 or m == 0:
        raise ContractViolation("dtw_distance requires non-empty sequences")
    if not (np.isfinite(x).all() and np.isfinite(rb).all()):
        raise ContractViolation("dtw_distance requires finite points")
    # Three rolling buffers; slot i + 1 of diagonal k's holds cell (i, k - i).
    # Cells outside the grid read +inf: slot 0 is never written, and the slot
    # just past a diagonal's last cell, which the next two diagonals read
    # while k < n, was written by none of the earlier diagonals (k - 3,
    # k - 6, ...) that shared its buffer.
    older = np.full(n + 1, np.inf)  # diagonal k - 2
    last = np.full(n + 1, np.inf)  # diagonal k - 1
    cur = np.full(n + 1, np.inf)
    cost = np.empty(n)
    best = np.empty(n)
    # A difference or sum past the largest double is +inf, as in Python floats.
    with np.errstate(over="ignore"):
        last[1] = abs(x[0] - rb[m - 1])
        for k in range(1, n + m - 1):
            lo, hi = max(0, k - m + 1), min(n - 1, k)
            c, d = cost[: hi - lo + 1], best[: hi - lo + 1]
            np.subtract(x[lo : hi + 1], rb[m - 1 - k + lo : m - k + hi], out=c)
            np.abs(c, out=c)
            np.minimum(last[lo : hi + 1], last[lo + 1 : hi + 2], out=d)
            np.minimum(d, older[lo : hi + 1], out=d)
            np.add(c, d, out=cur[lo + 1 : hi + 2])
            older, last, cur = last, cur, older
    return float(last[n])


def drop_missing(values: Sequence[float | None]) -> list[float]:
    """Remove missing points; DTW tolerates the resulting unequal lengths."""
    return [v for v in values if v is not None]


def z_normalize(values: Sequence[float]) -> list[float]:
    """Standardize a sequence; constant sequences map to zeros."""
    n = len(values)
    if n == 0:
        return []
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    if var == 0:
        return [0.0] * n
    std = math.sqrt(var)
    return [(v - mean) / std for v in values]


@dataclass(frozen=True)
class DendrogramNode:
    """Leaf (label set, height 0) or an internal merge at a given height."""

    height: float
    label: str | None = None
    children: tuple["DendrogramNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.label or ""]
        out: list[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.label}
        return {"height": self.height, "children": [c.to_dict() for c in self.children]}

    def to_newick(self) -> str:
        return self._newick_inner(parent_height=self.height) + ";"

    def _newick_inner(self, parent_height: float) -> str:
        length = max(parent_height - self.height, 0.0)
        if self.is_leaf:
            return f"{self.label}:{length:.6g}"
        inner = ",".join(c._newick_inner(self.height) for c in self.children)
        return f"({inner}):{length:.6g}"


def distance_matrix(series: Mapping[str, Sequence[float]]) -> tuple[list[str], list[list[float]]]:
    """Symmetric DTW distance matrix over lexicographically sorted labels."""
    labels = sorted(series)
    size = len(labels)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = dtw_distance(series[labels[i]], series[labels[j]])
            matrix[i][j] = d
            matrix[j][i] = d
    return labels, matrix


def cluster(
    labels: Sequence[str],
    matrix: Sequence[Sequence[float]],
    linkage: str = "average",
) -> DendrogramNode:
    """Agglomerative clustering over a precomputed distance matrix; returns
    the root of the merge tree.

    `matrix[i][j]` is the distance between `labels[i]` and `labels[j]`. Merge
    ties are broken by the lexicographically smallest pair of leaf-label
    tuples, so the result does not depend on the order of the labels.
    """
    if linkage not in _LINKAGES:
        raise ContractViolation(f"unknown linkage {linkage!r}; expected one of {_LINKAGES}")
    if len(labels) < 2:
        raise ContractViolation("clustering requires at least 2 labels")
    if len(matrix) != len(labels) or any(len(row) != len(labels) for row in matrix):
        raise ContractViolation("distance matrix must be square, one row per label")
    members: list[tuple[str, ...]] = [(lab,) for lab in labels]
    dist: dict[tuple[int, int], float] = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            dist[(i, j)] = matrix[i][j]
    active = list(range(len(labels)))
    next_id = len(labels)

    def pair_key(i: int, j: int) -> tuple:
        a, b = sorted((members[i], members[j]))
        return (dist[(min(i, j), max(i, j))], a, b)

    merge_tree = {i: DendrogramNode(height=0.0, label=lab) for i, lab in enumerate(labels)}
    while len(active) > 1:
        best: tuple | None = None
        best_pair = (-1, -1)
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                key = pair_key(i, j)
                if best is None or key < best:
                    best = key
                    best_pair = (i, j)
        i, j = best_pair
        height = dist[(min(i, j), max(i, j))]
        left, right = sorted((i, j), key=lambda k: members[k])
        merged = DendrogramNode(
            height=height, children=(merge_tree[left], merge_tree[right])
        )
        merged_members = tuple(sorted(members[i] + members[j]))
        merge_tree[next_id] = merged
        members.append(merged_members)
        for k in active:
            if k in (i, j):
                continue
            d_ik = dist[(min(i, k), max(i, k))]
            d_jk = dist[(min(j, k), max(j, k))]
            if linkage == "average":
                size_i, size_j = len(members[i]), len(members[j])
                d_new = (size_i * d_ik + size_j * d_jk) / (size_i + size_j)
            elif linkage == "single":
                d_new = min(d_ik, d_jk)
            else:
                d_new = max(d_ik, d_jk)
            dist[(k, next_id)] = d_new
        active = [k for k in active if k not in (i, j)] + [next_id]
        next_id += 1

    return merge_tree[active[0]]
