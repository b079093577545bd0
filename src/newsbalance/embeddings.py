"""Per-year word embeddings, cross-year alignment and association scoring.

Training is skip-gram with negative sampling implemented on numpy: a
unigram^0.75 noise distribution, linear learning-rate decay from 0.025,
optional frequent-word subsampling, and dynamic context windows. Updates are
applied in fixed-size chunks, so a fixed seed yields bitwise-identical
vectors run over run.

Each chunk's gradients are scattered into the vector tables one column at a
time, because numpy's fast ``ufunc.at`` path takes 1-D operands only. Every
element still receives the same float32 additions in the same order as a
row scatter into the 2-D table (chunk rows in order), so the vectors are
bitwise equal to that scatter's. A chunk's negatives are read from a table
of noise ids over equal bins of [0, 1), which gives `searchsorted`'s id for
every draw (see `_ChunkStep`).

Beside its sentences, a year's training holds, at most:

- each in-vocabulary token's id and sentence index, int32;
- one epoch's (center, context) pairs, int32, and, while that epoch is
  drawn, its int64 permutation;
- the two vocabulary x dim float32 tables;
- the negatives' bin table, 2^16 int32 ids (256 KB);
- one chunk's buffers, made once per model. The largest is the chunk's
  gathered out-table rows, chunk_pairs x (negatives + 1) x dim float32
  (9.8 MB at the default chunk, 5 negatives and dim 100). The out-table's
  gradient product is held one column at a time, chunk_pairs x (negatives
  + 1) float32. The scatter makes no index buffer: each column's
  ``ufunc.at`` takes the chunk's row ids, as intp.

One generator draws, in order, the initial vectors, then each epoch's pairs
just before that epoch trains on them, and each chunk's negatives. The
learning rate decays linearly with training progress, the epochs done plus
the share of the current epoch's pairs done, as word2vec decays it, so no
pass counts the pairs in advance.

Alignment is orthogonal Procrustes over the most frequent shared tokens; an
identity mode is available for pipelines that assume already-shared axes.
"""

from __future__ import annotations

import logging
import struct
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateScoreError,
    InsufficientAnchorsError,
    VocabularyError,
)

__all__ = [
    "SgnsParams",
    "EmbeddingSpace",
    "AlignmentTransform",
    "AssociationSets",
    "PopularityTimeline",
    "train_sgns",
    "align",
    "cosine",
    "differential_association",
    "weat_score",
    "popularity_timeline",
    "save_binary",
    "load_binary",
]

logger = logging.getLogger(__name__)

_MAGIC = b"NBEM"
_FORMAT_VERSION = 1

# Equal bins of [0, 1) in the negatives' draw table; a power of two, so that
# a draw's bin is exact.
_DRAW_BINS = 1 << 16


@dataclass(frozen=True)
class SgnsParams:
    """Skip-gram training knobs.

    The first six come from the run config's `embedding` section, which holds
    their defaults; the rest are training constants.
    """

    dim: int
    window: int
    negatives: int
    epochs: int
    min_count: int
    subsample: float
    seed: int = 0
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    chunk_pairs: int = 4096


@dataclass
class EmbeddingSpace:
    """A year's vocabulary and dense vectors; row order is frequency order.

    `pairs` counts the (center, context) pairs over all epochs that
    `train_sgns` trained the space on; it is 0 for a space read from a file.
    """

    year: int
    dim: int
    vocab: dict
    vectors: np.ndarray
    pairs: int = 0

    def vector(self, token: str) -> np.ndarray:
        index = self.vocab.get(token)
        if index is None:
            raise VocabularyError(f"token {token!r} not in year-{self.year} vocabulary")
        return self.vectors[index]

    def tokens_by_rank(self) -> list[str]:
        return sorted(self.vocab, key=self.vocab.get)


@dataclass(frozen=True)
class AssociationSets:
    """Two target (party) word sets and two disjoint attribute word sets."""

    s1: tuple[str, ...]
    s2: tuple[str, ...]
    a1: tuple[str, ...]
    a2: tuple[str, ...]

    def __post_init__(self) -> None:
        for name, words in (("s1", self.s1), ("s2", self.s2), ("a1", self.a1), ("a2", self.a2)):
            if not words:
                raise ConfigError(f"association set {name} is empty")
        if set(self.a1) & set(self.a2):
            raise ConfigError("attribute sets a1 and a2 must be disjoint")


@dataclass(frozen=True)
class AlignmentTransform:
    """An orthogonal map taking source-space vectors into the target space."""

    matrix: np.ndarray
    anchors: tuple[str, ...]

    def apply(self, space: EmbeddingSpace) -> EmbeddingSpace:
        return replace(space, vectors=space.vectors @ self.matrix.T)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.matrix.T


def _encode(
    sentences: Sequence[Sequence[str]], min_count: int
) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """The vocabulary in (-count, token) order, its counts as float64, and the
    id and sentence index of every in-vocabulary token, as int32.

    Tokens get provisional ids in order of first occurrence, in one C-level
    pass: a type's first lookup stores the number of types seen before it.
    One `bincount` counts them, and one gather remaps them to vocabulary ids
    (-1 for a dropped type).
    """
    types: defaultdict[str, int] = defaultdict()
    types.default_factory = types.__len__
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    provisional = np.fromiter(
        map(types.__getitem__, chain.from_iterable(sentences)),
        dtype=np.int32,
        count=int(lengths.sum()),
    )
    counts = np.bincount(provisional, minlength=len(types))
    names = list(types)
    by_id = counts.tolist()
    kept = sorted(
        (i for i, count in enumerate(by_id) if count >= min_count),
        key=lambda i: (-by_id[i], names[i]),
    )
    if not kept:
        raise DataError(f"vocabulary empty after min_count={min_count} filtering")
    remap = np.full(len(names), -1, dtype=np.int32)
    remap[kept] = np.arange(len(kept), dtype=np.int32)
    tokens = remap[provisional]
    sentence_ids = np.repeat(np.arange(len(sentences), dtype=np.int32), lengths)
    if len(kept) < len(names):
        known = tokens >= 0
        tokens = tokens[known]
        sentence_ids = sentence_ids[known]
    vocab = {names[i]: rank for rank, i in enumerate(kept)}
    return vocab, counts[kept].astype(np.float64), tokens, sentence_ids


def _epoch_pairs(
    tokens: np.ndarray,
    sentences: np.ndarray,
    keep_prob: np.ndarray | None,
    window: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) id pairs for one epoch, after subsampling, with the ids' dtype."""
    if keep_prob is not None:
        mask = rng.random(tokens.shape[0]) < keep_prob[tokens]
        tokens = tokens[mask]
        sentences = sentences[mask]
    count = tokens.shape[0]
    if count == 0:
        return tokens[:0], tokens[:0]
    spans = rng.integers(1, window + 1, size=count)
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for offset in range(1, window + 1):
        if count <= offset:
            break
        left, right = tokens[:-offset], tokens[offset:]
        same = sentences[:-offset] == sentences[offset:]
        fwd = same & (spans[:-offset] >= offset)
        centers.append(left[fwd])
        contexts.append(right[fwd])
        bwd = same & (spans[offset:] >= offset)
        centers.append(right[bwd])
        contexts.append(left[bwd])
    if not centers:
        return tokens[:0], tokens[:0]
    order = rng.permutation(sum(c.shape[0] for c in centers))
    return np.concatenate(centers)[order], np.concatenate(contexts)[order]


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(table, rows, values)`` for a 2-D table, bitwise equal.

    One 1-D ``ufunc.at`` per column, numpy's fast path: each element still
    receives the same float32 additions in the same order, chunk rows in order.
    """
    rows = rows.astype(np.intp, copy=False)
    for column in range(table.shape[1]):
        np.add.at(table[:, column], rows, values[:, column])


class _ChunkStep:
    """One model's update of a chunk of pairs, in buffers made once per model.

    The operations, their float32 operands and their order are those of the
    whole-chunk expressions ``h = w_in[c]``, ``out = w_out[targets]``,
    ``sig = 1 / (1 + exp(-clip(h . out, -10, 10)))``,
    ``grad = (labels - sig) * valid * lr`` and ``grad_h = grad . out``,
    followed by row scatters of ``grad_h`` into `w_in` and of
    ``grad * h`` into `w_out`. The out-table's gradient product is made
    and scattered one column at a time.

    A negative is ``searchsorted(noise_cdf, u)`` for a uniform draw u in
    [0, 1), read from a table over `_DRAW_BINS` equal bins: u lies in bin
    ``floor(u * _DRAW_BINS)``, between the bin's edges, so its negative lies
    between the edges' negatives. Where those agree, the table holds that id.
    The other bins, fewer than the vocabulary's size, hold -1, and their
    draws fall back to `searchsorted`. The bin count is a power of two, so the
    product and its floor are exact, and every negative equals
    `searchsorted`'s.
    """

    def __init__(self, w_in: np.ndarray, w_out: np.ndarray, noise_cdf: np.ndarray, params: SgnsParams):
        size, width, dim = params.chunk_pairs, params.negatives + 1, params.dim
        self.w_in = w_in
        self.w_out = w_out
        self.noise_cdf = noise_cdf
        edges = np.searchsorted(noise_cdf, np.arange(_DRAW_BINS + 1) / _DRAW_BINS).astype(np.int32)
        self.bins = np.where(edges[:-1] == edges[1:], edges[:-1], np.int32(-1))
        self.draws = np.empty((size, params.negatives))
        self.bin_ids = np.empty((size, params.negatives), dtype=np.intp)
        self.drawn = np.empty((size, params.negatives), dtype=np.int32)
        self.targets = np.empty((size, width), dtype=np.intp)
        self.labels = np.zeros((size, width), dtype=np.float32)
        self.labels[:, 0] = 1.0
        # negatives that collide with the true context are no-ops
        self.valid = np.ones((size, width), dtype=np.float32)
        self.h = np.empty((size, dim), dtype=np.float32)
        self.out = np.empty((size, width, dim), dtype=np.float32)
        self.grad = np.empty((size, width), dtype=np.float32)
        self.grad_h = np.empty((size, dim), dtype=np.float32)
        self.column = np.empty((size, width), dtype=np.float32)

    def negatives(self, draws: np.ndarray) -> np.ndarray:
        """``searchsorted(noise_cdf, draws)`` for up to a chunk's rows of draws, as int32."""
        n = draws.shape[0]
        bin_ids = np.multiply(draws, _DRAW_BINS, out=self.bin_ids[:n], casting="unsafe")
        negatives = np.take(self.bins, bin_ids, out=self.drawn[:n], mode="clip")
        unsure = negatives < 0
        if unsure.any():
            negatives[unsure] = np.searchsorted(self.noise_cdf, draws[unsure])
        return negatives

    def __call__(self, centers: np.ndarray, contexts: np.ndarray, lr: float, rng: np.random.Generator) -> None:
        n = centers.shape[0]
        targets = self.targets[:n]
        targets[:, 0] = contexts
        targets[:, 1:] = self.negatives(rng.random(out=self.draws[:n]))
        valid = self.valid[:n]
        np.not_equal(targets[:, 1:], targets[:, :1], out=valid[:, 1:])

        # Every operand is float32, so the gradients already are. The ids are
        # in range, and mode="clip" lets `take` write into `out` unbuffered.
        h = np.take(self.w_in, centers, axis=0, out=self.h[:n], mode="clip")
        out = np.take(self.w_out, targets, axis=0, out=self.out[:n], mode="clip")
        # `grad` holds the scores, then their sigmoids, then the gradients.
        grad = np.einsum("nd,nkd->nk", h, out, out=self.grad[:n])
        np.clip(grad, -10.0, 10.0, out=grad)
        np.negative(grad, out=grad)
        np.exp(grad, out=grad)
        grad += 1.0
        np.divide(1.0, grad, out=grad)
        np.subtract(self.labels[:n], grad, out=grad)
        grad *= valid
        grad *= np.float32(lr)
        grad_h = np.einsum("nk,nkd->nd", grad, out, out=self.grad_h[:n])
        _scatter_add(self.w_in, centers, grad_h)
        rows = targets.reshape(-1)
        column = self.column[:n]
        for j in range(self.w_out.shape[1]):
            np.multiply(grad, h[:, j : j + 1], out=column)
            np.add.at(self.w_out[:, j], rows, column.reshape(-1))


def train_sgns(
    sentences: Sequence[Sequence[str]],
    params: SgnsParams,
    year: int = 0,
) -> EmbeddingSpace:
    """Train skip-gram-with-negative-sampling embeddings on tokenized sentences.

    Deterministic for a fixed seed: pair generation, negative draws and chunked
    updates all flow from one seeded generator.
    """
    sentences = list(sentences)
    if not sentences:
        raise DataError("token stream is empty")
    vocab, freqs, tokens, sentence_ids = _encode(sentences, params.min_count)
    if tokens.size == 0:
        raise DataError("no in-vocabulary tokens to train on")
    rng = np.random.default_rng(params.seed)

    total = freqs.sum()
    keep_prob = None
    if params.subsample > 0:
        ratio = params.subsample * total / freqs
        keep_prob = np.minimum(np.sqrt(ratio) + ratio, 1.0)

    noise = freqs**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0  # guard the top bucket against cumsum rounding

    vocab_size = len(vocab)
    w_in = ((rng.random((vocab_size, params.dim)) - 0.5) / params.dim).astype(np.float32)
    w_out = np.zeros((vocab_size, params.dim), dtype=np.float32)
    step = _ChunkStep(w_in, w_out, noise_cdf, params)

    total_pairs = 0
    for epoch in range(params.epochs):
        centers, contexts = _epoch_pairs(tokens, sentence_ids, keep_prob, params.window, rng)
        epoch_pairs = centers.shape[0]
        for start in range(0, epoch_pairs, params.chunk_pairs):
            progress = (epoch + start / epoch_pairs) / params.epochs
            lr = max(params.min_learning_rate, params.learning_rate * (1.0 - progress))
            stop = start + params.chunk_pairs
            step(centers[start:stop], contexts[start:stop], lr, rng)
        total_pairs += epoch_pairs
        del centers, contexts  # so that the next epoch's pairs are not built beside these
    if total_pairs == 0:
        raise DataError("no training pairs generated; corpus may be too sparse")

    return EmbeddingSpace(year=year, dim=params.dim, vocab=vocab, vectors=w_in, pairs=total_pairs)


def _shared_anchors(
    source: EmbeddingSpace,
    target: EmbeddingSpace,
    anchor_count: int,
    exclude: frozenset[str],
) -> list[str]:
    shared = [t for t in source.vocab if t in target.vocab and t not in exclude]
    shared.sort(key=lambda t: (source.vocab[t] + target.vocab[t], t))
    return shared[:anchor_count]


def align(
    source: EmbeddingSpace,
    target: EmbeddingSpace,
    anchor_count: int,
    mode: str,
    exclude: Iterable[str] = (),
) -> AlignmentTransform:
    """Fit a transform taking the source space onto the target space.

    Anchors are the top shared tokens by combined frequency rank. In
    procrustes mode the transform is the orthogonal least-squares fit from the
    SVD of target_anchors^T @ source_anchors; identity mode returns I.
    """
    if mode not in ("procrustes", "identity"):
        raise ConfigError(f"unknown alignment mode {mode!r}")
    if source.dim != target.dim:
        raise ConfigError(f"dimension mismatch: {source.dim} vs {target.dim}")
    anchors = _shared_anchors(source, target, anchor_count, frozenset(exclude))
    if len(anchors) < source.dim:
        raise InsufficientAnchorsError(
            f"need at least dim={source.dim} shared anchors, found {len(anchors)}"
        )
    if mode == "identity":
        return AlignmentTransform(
            matrix=np.eye(source.dim, dtype=np.float64), anchors=tuple(anchors)
        )
    src = np.stack([source.vector(t) for t in anchors]).astype(np.float64)
    tgt = np.stack([target.vector(t) for t in anchors]).astype(np.float64)
    u, _, vt = np.linalg.svd(tgt.T @ src)
    return AlignmentTransform(matrix=u @ vt, anchors=tuple(anchors))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0:
        return 0.0
    return float(np.dot(a, b) / norm)


def differential_association(
    token: str,
    a1: Sequence[str],
    a2: Sequence[str],
    space: EmbeddingSpace,
) -> float:
    """Mean cosine of token with a1 minus mean cosine with a2.

    Attribute words missing from the vocabulary are skipped with a warning;
    each set must keep at least one word.
    """
    center = space.vector(token)
    means = []
    for name, words in (("a1", a1), ("a2", a2)):
        values = []
        for word in words:
            if word in space.vocab:
                values.append(cosine(center, space.vector(word)))
            else:
                logger.warning("attribute word %r missing from year-%s vocab", word, space.year)
        if not values:
            raise VocabularyError(f"no attribute words of {name} present in vocabulary")
        means.append(sum(values) / len(values))
    return means[0] - means[1]


def weat_score(sets: AssociationSets, space: EmbeddingSpace) -> float:
    """Standardized differential association between the two target sets.

    (mean g over s1 - mean g over s2) / population SD of g over s1 and s2.
    A zero spread means the score is undefined and raises.
    """
    g1, g2 = (
        [differential_association(t, sets.a1, sets.a2, space) for t in group if t in space.vocab]
        for group in (sets.s1, sets.s2)
    )
    if not g1 or not g2:
        raise VocabularyError("each target set needs at least one in-vocabulary word")
    # Sorted, so that swapping s1 and s2 negates the score bit for bit.
    pooled = np.sort(np.array(g1 + g2, dtype=np.float64))
    spread = float(pooled.std())
    if spread == 0.0:
        raise DegenerateScoreError("differential associations have zero spread")
    return float((np.mean(g1) - np.mean(g2)) / spread)


@dataclass
class PopularityTimeline:
    """Per-year mean differential association for each target word group."""

    years: list[int] = field(default_factory=list)
    group1: list[float | None] = field(default_factory=list)
    group2: list[float | None] = field(default_factory=list)

    def crossing_year(self) -> int | None:
        """First year where group1 reaches or passes group2 after trailing it."""
        started_below = False
        for year, v1, v2 in zip(self.years, self.group1, self.group2):
            if v1 is None or v2 is None:
                continue
            if v1 < v2:
                started_below = True
            elif started_below:
                return year
        return None


def popularity_timeline(
    spaces: Sequence[EmbeddingSpace],
    sets: AssociationSets,
    anchor_count: int,
    mode: str,
) -> PopularityTimeline:
    """Differential-association series per party group, aligned to the last year.

    Years are processed in ascending order; each year's space is aligned onto
    the latest year's space before scoring. A group with no in-vocabulary
    token in some year yields a missing (None) value for that year.
    """
    if len(spaces) < 2:
        raise ConfigError("popularity timeline needs at least 2 yearly spaces")
    ordered = sorted(spaces, key=lambda s: s.year)
    target = ordered[-1]
    exclude = set(sets.s1) | set(sets.s2)
    timeline = PopularityTimeline()
    for space in ordered:
        if space is target:
            aligned = space
        else:
            aligned = align(space, target, anchor_count, mode, exclude=exclude).apply(space)
        timeline.years.append(space.year)
        for group, out in ((sets.s1, timeline.group1), (sets.s2, timeline.group2)):
            values = [
                differential_association(t, sets.a1, sets.a2, aligned)
                for t in group
                if t in aligned.vocab
            ]
            out.append(sum(values) / len(values) if values else None)
    return timeline


def save_binary(space: EmbeddingSpace, path: str | Path) -> None:
    """Persist as header + vocab + little-endian float32 rows; a token longer
    than the 16-bit length field raises `DataError` before the file opens."""
    encoded = [token.encode("utf-8") for token in space.tokens_by_rank()]
    longest = max(map(len, encoded), default=0)
    if longest > 0xFFFF:
        raise DataError(f"year-{space.year} vocabulary holds a token of {longest} UTF-8 bytes, above 65535")
    with Path(path).open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IiiI", _FORMAT_VERSION, space.year, space.dim, len(encoded)))
        for raw in encoded:
            handle.write(struct.pack("<H", len(raw)))
            handle.write(raw)
        handle.write(np.ascontiguousarray(space.vectors, dtype="<f4").tobytes())


def load_binary(path: str | Path) -> EmbeddingSpace:
    with Path(path).open("rb") as handle:
        magic = handle.read(4)
        if magic != _MAGIC:
            raise DataError(f"{path}: not an embedding file")
        version, year, dim, size = struct.unpack("<IiiI", handle.read(16))
        if version != _FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version {version}")
        tokens = []
        for _ in range(size):
            (length,) = struct.unpack("<H", handle.read(2))
            tokens.append(handle.read(length).decode("utf-8"))
        data = np.frombuffer(handle.read(size * dim * 4), dtype="<f4").reshape(size, dim)
    return EmbeddingSpace(
        year=year, dim=dim, vocab={t: i for i, t in enumerate(tokens)}, vectors=data.copy()
    )
