"""Cloze-probe arithmetic over a pluggable single-mask language-model backend.

A backend answers one question: given a prompt containing exactly one mask
slot, return a finite token -> probability map for the slot. The arithmetic
on top (vote preference, normalized popularity, token-delta ranking) is
backend-agnostic; a deterministic additively-smoothed n-gram backend is
bundled so every probe runs fully offline, and a JSON wire format lets an
external transformer service stand in without code changes.
"""

from __future__ import annotations

import json
import urllib.request
from collections import Counter
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

from .corpus import Article, tokenize
from .errors import ContractViolation, DataError, UndefinedProbabilityError
from .tagging import TextTable

__all__ = [
    "MASK",
    "VOTE_PROMPT",
    "MaskBackend",
    "vote_preference",
    "popularity_probability",
    "popularity_pair",
    "token_delta_ranking",
    "NgramMaskBackend",
    "ngram_backend",
    "request_to_json",
    "response_to_json",
    "response_from_json",
    "RemoteMaskBackend",
]

MASK = "<mask>"
VOTE_PROMPT = "This election people will vote for <mask>."


@runtime_checkable
class MaskBackend(Protocol):
    """Anything that fills a single mask slot with token probabilities."""

    backend_id: str

    def query(self, prompt: str, mask_token: str = MASK) -> dict:  # pragma: no cover
        ...


def _ranked(distribution: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0])))


def vote_preference(backend: MaskBackend, party_token: str, prompt: str = VOTE_PROMPT) -> float:
    """Probability mass the backend puts on a party token at the mask slot."""
    return backend.query(prompt).get(party_token, 0.0)


def popularity_probability(
    backend: MaskBackend,
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
    backend: MaskBackend,
    party_b: str = "BJP",
    party_c: str = "Congress",
    prompt: str = VOTE_PROMPT,
) -> tuple[float, float]:
    """Both parties' normalized shares; the second is defined as 1 - the first,
    so the pair sums to 1 exactly."""
    p_b = popularity_probability(backend, party_b, party_c, prompt)
    return p_b, 1.0 - p_b


def _top_k(distribution: Mapping[str, float], k: int) -> list[str]:
    return [token for token, _ in _ranked(distribution)[:k]]


def token_delta_ranking(
    backend_early: MaskBackend,
    backend_late: MaskBackend,
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
    returned scores are joint-style weights that sum to at most 1. Everything
    is counted once at construction and queries are pure lookups.
    """

    def __init__(self, order: int = 3, smoothing: float = 0.01, backend_id: str = "ngram"):
        if order < 2:
            raise ContractViolation(f"order must be >= 2, got {order}")
        if smoothing <= 0:
            raise ContractViolation(f"smoothing must be > 0, got {smoothing}")
        self.order = order
        self.smoothing = smoothing
        self.backend_id = backend_id
        self._ngrams: dict[tuple, Counter] = {}
        self._vocab: Counter = Counter()

    @classmethod
    def from_sentences(
        cls,
        sentences: Iterable[Sequence[str]],
        order: int = 3,
        smoothing: float = 0.01,
        backend_id: str = "ngram",
    ) -> "NgramMaskBackend":
        model = cls(order=order, smoothing=smoothing, backend_id=backend_id)
        empty = True
        for sentence in sentences:
            if sentence:
                empty = False
            model._count(list(sentence))
        if empty or not model._vocab:
            raise DataError("n-gram backend needs a non-empty corpus")
        return model

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


def ngram_backend(
    articles: Iterable[Article],
    order: int = 3,
    smoothing: float = 0.01,
    backend_id: str = "ngram",
    table: TextTable | None = None,
) -> NgramMaskBackend:
    """Build the bundled backend from a corpus slice (headlines plus content).

    `table` supplies each article's units; without one, they are made here.
    """
    if table is None:
        table = TextTable()

    def sentences() -> Iterable[list[str]]:
        for article in articles:
            head, content = table.units(article)
            if head.tokens:
                yield list(head.tokens)
            for sentence in content:
                yield list(sentence.tokens)

    return NgramMaskBackend.from_sentences(
        sentences(), order=order, smoothing=smoothing, backend_id=backend_id
    )


def request_to_json(prompt: str, mask_token: str = MASK) -> dict:
    """The documented request shape for external backends."""
    return {"prompt": prompt, "mask_token": mask_token}


def response_to_json(distribution: Mapping[str, float]) -> dict:
    """The documented response shape: tokens ranked by probability."""
    return {"tokens": [[token, prob] for token, prob in _ranked(distribution)]}


def response_from_json(payload: Mapping) -> dict:
    """Parse and validate a response payload into a token -> probability map."""
    tokens = payload.get("tokens")
    if not isinstance(tokens, list):
        raise DataError("backend response must carry a 'tokens' list")
    distribution: dict[str, float] = {}
    for entry in tokens:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DataError(f"malformed token entry: {entry!r}")
        token, prob = entry
        if (
            not isinstance(token, str)
            or isinstance(prob, bool)
            or not isinstance(prob, (int, float))
            or not prob >= 0  # also rejects NaN
        ):
            raise DataError(f"malformed token entry: {entry!r}")
        if token in distribution:
            raise DataError(f"duplicate token in backend response: {token!r}")
        distribution[token] = float(prob)
    total = sum(distribution.values())
    if total > 1.0 + 1e-6:
        raise DataError(f"token probabilities sum to {total}, above 1")
    return distribution


class RemoteMaskBackend:
    """Backend that forwards queries to an external service over the JSON shape."""

    def __init__(self, url: str, backend_id: str = "remote", timeout: float = 30.0):
        self.url = url
        self.backend_id = backend_id
        self.timeout = timeout

    def query(self, prompt: str, mask_token: str = MASK) -> dict:
        body = json.dumps(request_to_json(prompt, mask_token)).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"mask backend request to {self.url} failed: {exc}") from exc
        return response_from_json(payload)
