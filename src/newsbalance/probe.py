"""Cloze-probe arithmetic over a single-mask n-gram language model.

The model answers one question: given a prompt containing exactly one mask
slot, return a finite token -> probability map for the slot. The arithmetic
on top (vote preference, normalized popularity, token-delta ranking) reads
only that map. The model is a deterministic, additively smoothed n-gram
model of one corpus slice, kept as an array of token ids numbered in order
of first occurrence, so every probe runs offline.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Article, tokenize
from .errors import ContractViolation, DataError, UndefinedProbabilityError
from .tagging import TextTable

__all__ = [
    "MASK",
    "VOTE_PROMPT",
    "vote_preference",
    "popularity_probability",
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


def vote_preference(backend: NgramMaskBackend, party_token: str, prompt: str = VOTE_PROMPT) -> float:
    """Probability mass the backend puts on a party token at the mask slot."""
    return backend.query(prompt).get(party_token, 0.0)


def popularity_probability(
    backend: NgramMaskBackend,
    party_b: str = "BJP",
    party_c: str = "Congress",
    prompt: str = VOTE_PROMPT,
) -> float:
    """Vote preference for the first party normalized over both parties."""
    v_b = vote_preference(backend, party_b, prompt)
    v_c = vote_preference(backend, party_c, prompt)
    if v_b + v_c == 0:
        raise UndefinedProbabilityError(
            f"both parties have zero mass at the mask slot ({party_b!r}, {party_c!r})"
        )
    return v_b / (v_b + v_c)


def popularity_pair(
    backend: NgramMaskBackend,
    party_b: str = "BJP",
    party_c: str = "Congress",
    prompt: str = VOTE_PROMPT,
) -> tuple[float, float]:
    """Both parties' normalized shares; the second is defined as 1 - the first,
    so the pair sums to 1 exactly."""
    p_b = popularity_probability(backend, party_b, party_c, prompt)
    return p_b, 1.0 - p_b


def _top_k(distribution: Mapping[str, float], k: int) -> list[str]:
    ranked = sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return [token for token, _ in ranked[:k]]


def token_delta_ranking(
    backend_early: NgramMaskBackend,
    backend_late: NgramMaskBackend,
    prompt: str,
    k: int = 50,
    m: int = 15,
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Rising and falling completions between two backends.

    Takes the union of each backend's top-k tokens, ranks them by probability
    change (late minus early), and returns up to m strictly rising and m
    strictly falling tokens with their deltas.
    """
    early = backend_early.query(prompt)
    late = backend_late.query(prompt)
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

    def __init__(self, sentences: Iterable[Sequence[str]], order: int = 3, smoothing: float = 0.01):
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

    def query(self, prompt: str, mask_token: str = MASK) -> dict:
        parts = prompt.split(mask_token)
        if len(parts) != 2:
            raise ContractViolation(f"prompt must contain exactly one {mask_token!r} slot: {prompt!r}")
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
    articles: Iterable[Article],
    order: int = 3,
    smoothing: float = 0.01,
    table: TextTable | None = None,
) -> NgramMaskBackend:
    """Build the backend from a corpus slice (headlines plus content).

    `table` supplies each article's units; without one, they are made here.
    """
    if table is None:
        table = TextTable()

    def sentences() -> Iterable[Sequence[str]]:
        for article in articles:
            head, content = table.units(article)
            yield head.tokens
            for sentence in content:
                yield sentence.tokens

    return NgramMaskBackend(sentences(), order=order, smoothing=smoothing)
