"""Cloze-probe arithmetic over a single-mask n-gram language model.

The model answers one question: given a prompt containing exactly one mask
slot, return a finite token -> probability map for the slot. The arithmetic
on top (normalized popularity, token-delta ranking) reads only that map, so
a slice is asked each prompt once. The model is a deterministic, additively
smoothed n-gram model of one corpus slice, an (outlet, year) partition's
article units, kept as an array of token ids numbered in order of first
occurrence, so every probe runs offline.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import ArticleUnits, tokenize
from .errors import ContractViolation, DataError, UndefinedProbabilityError

__all__ = [
    "MASK",
    "VOTE_PROMPT",
    "popularity_pair",
    "token_delta_ranking",
    "NgramMaskBackend",
    "ngram_backend",
]

MASK = "<mask>"
VOTE_PROMPT = "This election people will vote for <mask>."

# Token ids in NgramMaskBackend: the end of each sentence, and a context
# token the slice never holds, which no position matches.
_END = -1
_UNSEEN = -2


def popularity_pair(
    distribution: Mapping[str, float], party_b: str, party_c: str
) -> tuple[float, float]:
    """Each party's vote preference (its mass at the mask slot) normalized over
    both parties. The party whose token sorts first gets its mass over the
    sum and the other 1 minus that, so the pair sums to 1 exactly and
    swapping the parties swaps the pair exactly."""
    v_b = distribution.get(party_b, 0.0)
    v_c = distribution.get(party_c, 0.0)
    if v_b + v_c == 0:
        raise UndefinedProbabilityError(
            f"both parties have zero mass at the mask slot ({party_b!r}, {party_c!r})"
        )
    if party_c < party_b:
        p_c = v_c / (v_b + v_c)
        return 1.0 - p_c, p_c
    p_b = v_b / (v_b + v_c)
    return p_b, 1.0 - p_b


def _top_k(distribution: Mapping[str, float], k: int) -> list[str]:
    ranked = sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return [token for token, _ in ranked[:k]]


def token_delta_ranking(
    early: Mapping[str, float],
    late: Mapping[str, float],
    k: int,
    m: int,
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Rising and falling completions between two slot distributions of one prompt.

    Takes the union of each distribution's top-k tokens, ranks them by
    probability change (late minus early), and returns up to m strictly
    rising and m strictly falling tokens with their deltas.
    """
    union = sorted(set(_top_k(early, k)) | set(_top_k(late, k)))
    deltas = {token: late.get(token, 0.0) - early.get(token, 0.0) for token in union}
    rising = sorted(
        ((t, d) for t, d in deltas.items() if d > 0), key=lambda kv: (-kv[1], kv[0])
    )[:m]
    falling = sorted(
        ((t, d) for t, d in deltas.items() if d < 0), key=lambda kv: (kv[1], kv[0])
    )[:m]
    return rising, falling


class NgramMaskBackend:
    """Additively smoothed n-gram model answering single-mask queries.

    The slot distribution conditions on up to order-1 tokens of left context;
    when right context exists its first token is chained on as well, so the
    returned scores are joint-style weights that sum to at most 1. No n-gram
    spans two sentences. A query counts only the contexts it reads.
    """

    def __init__(self, sentences: Iterable[Sequence[str]], order: int, smoothing: float):
        if order < 2:
            raise ContractViolation(f"order must be >= 2, got {order}")
        if smoothing <= 0:
            raise ContractViolation(f"smoothing must be > 0, got {smoothing}")
        self.order = order
        self.smoothing = smoothing
        index: dict[str, int] = {}
        ids: list[int] = []
        for sentence in sentences:
            ids.extend(index.setdefault(token, len(index)) for token in sentence)
            ids.append(_END)
        if not index:
            raise DataError("n-gram backend needs a non-empty corpus")
        self._index = index
        self._tokens = list(index)
        self._ids = np.array(ids, dtype=np.int64)

    def _following(self, context: Sequence[str], width: int) -> list[np.ndarray]:
        """Per position after `context`, the ids found there at each in-sentence match."""
        ids, start = self._ids, len(context)
        n = max(len(ids) - start - width + 1, 0)
        hit = np.ones(n, dtype=bool)
        for j, token in enumerate(context):
            hit &= ids[j : j + n] == self._index.get(token, _UNSEEN)
        for j in range(start, start + width):
            hit &= ids[j : j + n] != _END
        return [ids[j : j + n][hit] for j in range(start, start + width)]

    def _conditional(self, counts: np.ndarray, totals: int | np.ndarray) -> np.ndarray:
        return (counts + self.smoothing) / (totals + self.smoothing * len(self._tokens))

    def query(self, prompt: str) -> dict:
        parts = prompt.split(MASK)
        if len(parts) != 2:
            raise ContractViolation(f"prompt must contain exactly one {MASK!r} slot: {prompt!r}")
        left = tokenize(parts[0])
        right = tokenize(parts[1])
        vocab_size = len(self._tokens)
        left_context = tuple(left[-(self.order - 1) :])
        # An empty left context is never counted, so its factor is 1/V.
        slot = self._following(left_context, 1)[0] if left_context else self._ids[:0]
        counts = np.bincount(slot, minlength=vocab_size)
        scores = self._conditional(counts, int(counts.sum()))
        if right:
            # Slot token t and the kept left tokens are the first right token's context.
            kept = left_context[1:] if len(left_context) == self.order - 1 else left_context
            slot, after = self._following(kept, 2)
            hits = slot[after == self._index.get(right[0], _UNSEEN)]
            scores *= self._conditional(
                np.bincount(hits, minlength=vocab_size), np.bincount(slot, minlength=vocab_size)
            )
        return dict(zip(self._tokens, scores.tolist()))


def ngram_backend(
    units: Iterable[ArticleUnits],
    order: int,
    smoothing: float,
) -> NgramMaskBackend:
    """Build the backend from a corpus slice: each article's headline unit and
    content sentences, as `corpus.article_units` gives them."""
    sentences = (unit for headline, content in units for unit in (headline, *content))
    return NgramMaskBackend(sentences, order=order, smoothing=smoothing)
