"""Simple reference implementations that faster program code is checked against.

Each oracle is the plain version of a hot path, frozen as it was before the
fast path replaced it. Tests compare the two bit for bit unless the change
that replaced the oracle declared a bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from newsbalance.corpus import tokenize
from newsbalance.errors import ContractViolation, DataError
from newsbalance.probe import MASK


class CounterNgramMaskBackend:
    """The n-gram cloze backend as a full table of Counters, built up front.

    Every context of 1 to order-1 tokens inside a sentence maps to a Counter
    of the tokens that follow it; a query walks the vocabulary in
    first-occurrence order and looks each conditional up.
    """

    def __init__(self, sentences: Iterable[Sequence[str]], order: int = 3, smoothing: float = 0.01):
        if order < 2:
            raise ContractViolation(f"order must be >= 2, got {order}")
        if smoothing <= 0:
            raise ContractViolation(f"smoothing must be > 0, got {smoothing}")
        self.order = order
        self.smoothing = smoothing
        self._ngrams: dict[tuple, Counter] = {}
        self._vocab: Counter = Counter()
        for sentence in sentences:
            self._count(list(sentence))
        if not self._vocab:
            raise DataError("n-gram backend needs a non-empty corpus")

    def _count(self, tokens: list[str]) -> None:
        self._vocab.update(tokens)
        for length in range(1, self.order):
            for i in range(len(tokens) - length):
                context = tuple(tokens[i : i + length])
                bucket = self._ngrams.get(context)
                if bucket is None:
                    bucket = self._ngrams[context] = Counter()
                bucket[tokens[i + length]] += 1

    def _conditional(self, context: tuple, token: str) -> float:
        bucket = self._ngrams.get(context, None)
        count = bucket[token] if bucket is not None else 0
        total = sum(bucket.values()) if bucket is not None else 0
        vocab_size = len(self._vocab)
        return (count + self.smoothing) / (total + self.smoothing * vocab_size)

    def query(self, prompt: str, mask_token: str = MASK) -> dict:
        parts = prompt.split(mask_token)
        if len(parts) != 2:
            raise ContractViolation(
                f"prompt must contain exactly one {mask_token!r} slot: {prompt!r}"
            )
        left = tokenize(parts[0])
        right = tokenize(parts[1])
        left_context = tuple(left[-(self.order - 1) :])
        scores: dict[str, float] = {}
        for token in self._vocab:
            score = self._conditional(left_context, token)
            if right:
                chained = (left_context + (token,))[-(self.order - 1) :]
                score *= self._conditional(chained, right[0])
            scores[token] = score
        return scores
