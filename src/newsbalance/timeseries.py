"""Dynamic time warping distances and hierarchical agglomerative clustering.

The DTW here is the classic unconstrained dynamic program with local cost
|a_i - b_j| and steps (1,0), (0,1), (1,1). Clustering is implemented directly
(rather than via a library) so that ties in the merge order can be broken
lexicographically by leaf label, which makes dendrograms fully deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ContractViolation

__all__ = [
    "dtw_distance",
    "Dendrogram",
    "DendrogramNode",
    "cluster",
    "distance_matrix",
    "drop_missing",
    "z_normalize",
    "write_distance_csv",
]

_LINKAGES = ("average", "single", "complete")


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Minimum cumulative |a_i - b_j| cost over monotone boundary-aligned paths."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ContractViolation("dtw_distance requires non-empty sequences")
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


@dataclass
class Dendrogram:
    """Root of the merge tree plus the labels in clustering order."""

    root: DendrogramNode
    labels: list[str]

    def to_json(self) -> str:
        return json.dumps(self.root.to_dict(), sort_keys=True)

    def to_newick(self) -> str:
        return self.root.to_newick()


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
) -> Dendrogram:
    """Agglomerative clustering over a precomputed distance matrix.

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
    labels = list(labels)
    nodes: list[DendrogramNode] = [DendrogramNode(height=0.0, label=lab) for lab in labels]
    members: list[tuple[str, ...]] = [(lab,) for lab in labels]
    sizes: list[int] = [1] * len(labels)
    dist: dict[tuple[int, int], float] = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            dist[(i, j)] = matrix[i][j]
    active = list(range(len(labels)))
    next_id = len(labels)

    def pair_key(i: int, j: int) -> tuple:
        a, b = sorted((members[i], members[j]))
        return (dist[(min(i, j), max(i, j))], a, b)

    merge_tree: dict[int, DendrogramNode] = {i: nodes[i] for i in active}
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
        sizes.append(sizes[i] + sizes[j])
        for k in active:
            if k in (i, j):
                continue
            d_ik = dist[(min(i, k), max(i, k))]
            d_jk = dist[(min(j, k), max(j, k))]
            if linkage == "average":
                d_new = (sizes[i] * d_ik + sizes[j] * d_jk) / (sizes[i] + sizes[j])
            elif linkage == "single":
                d_new = min(d_ik, d_jk)
            else:
                d_new = max(d_ik, d_jk)
            dist[(k, next_id)] = d_new
        active = [k for k in active if k not in (i, j)] + [next_id]
        next_id += 1

    return Dendrogram(root=merge_tree[active[0]], labels=labels)


def write_distance_csv(
    labels: Sequence[str], matrix: Sequence[Sequence[float]], path: str | Path
) -> None:
    """Write the distance matrix as CSV with a label header row/column."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("," + ",".join(labels) + "\n")
        for label, row in zip(labels, matrix):
            handle.write(label + "," + ",".join(repr(v) for v in row) + "\n")
