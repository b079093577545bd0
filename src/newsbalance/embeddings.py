"""Per-year word embeddings, cross-year alignment and association scoring.

Training is skip-gram with negative sampling implemented on numpy: a
unigram^0.75 noise distribution, linear learning-rate decay from 0.025,
optional frequent-word subsampling, and dynamic context windows. Updates are
applied in fixed-size chunks, so a fixed seed yields bitwise-identical
vectors run over run.

Each chunk's gradients are scattered into the flat vector tables at
``row * dim + column``, a block of rows at a time, because numpy's fast
``ufunc.at`` path takes 1-D operands only. Every element still receives the
same float32 additions in the same order as a row scatter into the 2-D table
(chunk rows in order, the blocks in order), so the vectors are bitwise equal
to that scatter's.

Alignment is orthogonal Procrustes over the most frequent shared tokens; an
identity mode is available for pipelines that assume already-shared axes.
"""

from __future__ import annotations

import logging
import struct
from collections import Counter
from dataclasses import dataclass, field, replace
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

# Rows per flat-index block in `_scatter_add`: an index for a whole chunk
# (24,576 rows of the out-table at the default chunk size) raises peak RSS.
_SCATTER_BLOCK_ROWS = 4096


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
    """A year's vocabulary and dense vectors; row order is frequency order."""

    year: int
    dim: int
    vocab: dict
    vectors: np.ndarray

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


def _build_vocab(sentences: Sequence[Sequence[str]], min_count: int) -> tuple[dict, np.ndarray]:
    counts = Counter()
    for sentence in sentences:
        counts.update(sentence)
    kept = sorted(
        (token for token, count in counts.items() if count >= min_count),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        raise DataError(f"vocabulary empty after min_count={min_count} filtering")
    vocab = {token: i for i, token in enumerate(kept)}
    freqs = np.array([counts[t] for t in kept], dtype=np.float64)
    return vocab, freqs


def _encode_sentences(
    sentences: Sequence[Sequence[str]], vocab: dict
) -> tuple[np.ndarray, np.ndarray]:
    token_ids: list[int] = []
    sentence_ids: list[int] = []
    for sid, sentence in enumerate(sentences):
        for token in sentence:
            index = vocab.get(token)
            if index is not None:
                token_ids.append(index)
                sentence_ids.append(sid)
    return np.array(token_ids, dtype=np.int64), np.array(sentence_ids, dtype=np.int64)


def _epoch_pairs(
    tokens: np.ndarray,
    sentences: np.ndarray,
    keep_prob: np.ndarray | None,
    window: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) id pairs for one epoch, after subsampling."""
    if keep_prob is not None:
        mask = rng.random(tokens.shape[0]) < keep_prob[tokens]
        tokens = tokens[mask]
        sentences = sentences[mask]
    count = tokens.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    spans = rng.integers(1, window + 1, size=count)
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for offset in range(1, window + 1):
        if count <= offset:
            break
        left = np.arange(count - offset)
        right = left + offset
        same = sentences[left] == sentences[right]
        fwd = same & (spans[left] >= offset)
        centers.append(tokens[left[fwd]])
        contexts.append(tokens[right[fwd]])
        bwd = same & (spans[right] >= offset)
        centers.append(tokens[right[bwd]])
        contexts.append(tokens[left[bwd]])
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    center_arr = np.concatenate(centers)
    context_arr = np.concatenate(contexts)
    order = rng.permutation(center_arr.shape[0])
    return center_arr[order], context_arr[order]


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(table, rows, values)`` for a C-contiguous 2-D table, bitwise equal."""
    dim = table.shape[1]
    flat = table.reshape(-1)
    columns = np.arange(dim)
    for start in range(0, rows.shape[0], _SCATTER_BLOCK_ROWS):
        block = rows[start : start + _SCATTER_BLOCK_ROWS]
        index = (block[:, None] * dim + columns).reshape(-1)
        np.add.at(flat, index, values[start : start + _SCATTER_BLOCK_ROWS].reshape(-1))


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
    vocab, freqs = _build_vocab(sentences, params.min_count)
    tokens, sentence_ids = _encode_sentences(sentences, vocab)
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

    epochs_pairs = [
        _epoch_pairs(tokens, sentence_ids, keep_prob, params.window, rng)
        for _ in range(params.epochs)
    ]
    total_pairs = sum(c.shape[0] for c, _ in epochs_pairs)
    if total_pairs == 0:
        raise DataError("no training pairs generated; corpus may be too sparse")

    vocab_size = len(vocab)
    w_in = ((rng.random((vocab_size, params.dim)) - 0.5) / params.dim).astype(np.float32)
    w_out = np.zeros((vocab_size, params.dim), dtype=np.float32)

    done = 0
    for centers, contexts in epochs_pairs:
        for start in range(0, centers.shape[0], params.chunk_pairs):
            c = centers[start : start + params.chunk_pairs]
            o = contexts[start : start + params.chunk_pairs]
            lr = max(
                params.min_learning_rate,
                params.learning_rate * (1.0 - done / total_pairs),
            )
            negatives = np.searchsorted(
                noise_cdf, rng.random((c.shape[0], params.negatives))
            ).astype(np.int64)
            targets = np.concatenate([o[:, None], negatives], axis=1)
            labels = np.zeros(targets.shape, dtype=np.float32)
            labels[:, 0] = 1.0
            # negatives that collide with the true context are no-ops
            valid = np.ones(targets.shape, dtype=np.float32)
            valid[:, 1:] = (negatives != o[:, None]).astype(np.float32)

            # Every operand is float32, so the gradients already are.
            h = w_in[c]
            out = w_out[targets]
            scores = np.einsum("nd,nkd->nk", h, out)
            sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -10.0, 10.0)))
            grad = (labels - sig) * valid * np.float32(lr)
            grad_h = np.einsum("nk,nkd->nd", grad, out)
            grad_out = grad[:, :, None] * h[:, None, :]
            _scatter_add(w_in, c, grad_h)
            _scatter_add(w_out, targets.reshape(-1), grad_out.reshape(-1, params.dim))
            done += c.shape[0]

    return EmbeddingSpace(year=year, dim=params.dim, vocab=vocab, vectors=w_in)


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
    g1 = [
        differential_association(t, sets.a1, sets.a2, space)
        for t in sets.s1
        if t in space.vocab
    ]
    g2 = [
        differential_association(t, sets.a1, sets.a2, space)
        for t in sets.s2
        if t in space.vocab
    ]
    if not g1 or not g2:
        raise VocabularyError("each target set needs at least one in-vocabulary word")
    pooled = np.array(g1 + g2, dtype=np.float64)
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
    """Persist as header + vocab + little-endian float32 rows."""
    tokens = space.tokens_by_rank()
    with Path(path).open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IiiI", _FORMAT_VERSION, space.year, space.dim, len(tokens)))
        for token in tokens:
            raw = token.encode("utf-8")
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
