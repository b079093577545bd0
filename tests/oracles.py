"""Simple reference implementations that faster program code is checked against.

Each oracle is the plain version of a hot path, frozen as it was before the
fast path replaced it. Tests compare the two bit for bit unless the change
that replaced the oracle declared a bound.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from newsbalance.corpus import Article, ArticleUnits, month_key, tokenize
from newsbalance.embeddings import EmbeddingSpace, SgnsParams
from newsbalance.errors import ConfigError, ContractViolation, DataError
from newsbalance.metrics import FeatureRow, MetricId
from newsbalance.nlp import (
    _COMPARATIVE_WORDS,
    _DEGREE_BLOCKERS,
    _FINITE_NARRATIVE_VERBS,
    _MIN_DEGREE_STEM,
    _NARRATIVE_VERBS,
    _SUPERLATIVE_WORDS,
    CAPS_EMPHASIS,
    NEGATION_DAMP,
    NORMALIZE_ALPHA,
    ValenceLexicon,
)
from newsbalance.probe import MASK
from newsbalance.tagging import CONTENT, SCALE, MonthlyDocument, PhraseMatcher, expand_hyphens


class CounterNgramMaskBackend:
    """The n-gram cloze backend as a full table of Counters, built up front.

    Every context of 1 to order-1 tokens inside a sentence maps to a Counter
    of the tokens that follow it; a query walks the vocabulary in
    first-occurrence order and looks each conditional up.
    """

    def __init__(self, sentences: Iterable[Sequence[str]], order: int, smoothing: float):
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


class ExpandEachCallPhraseMatcher:
    """`tagging.PhraseMatcher` as it was before its per-type cache.

    Each call hyphen-expands and lowercases every token again, then looks
    every position up in the two first-token tables.
    """

    def __init__(self, phrases: Iterable[tuple[str, str]], acronyms_case_sensitive: bool = True):
        self._exact: dict[str, list[tuple[tuple[str, ...], str]]] = defaultdict(list)
        self._folded: dict[str, list[tuple[tuple[str, ...], str]]] = defaultdict(list)
        for label, phrase in phrases:
            tokens = expand_hyphens(tokenize(phrase))
            if not tokens:
                raise ConfigError(f"phrase for {label!r} has no word tokens: {phrase!r}")
            if acronyms_case_sensitive and phrase.isupper():
                self._exact[tokens[0]].append((tuple(tokens[1:]), label))
            else:
                folded = tuple(t.lower() for t in tokens)
                self._folded[folded[0]].append((folded[1:], label))

    def match_tokens(self, tokens: Sequence[str]) -> set[str]:
        expanded = expand_hyphens(tokens)
        folded = [t.lower() for t in expanded]
        found: set[str] = set()
        for i, token in enumerate(expanded):
            for rest, label in self._exact.get(token, ()):
                if label not in found and tuple(expanded[i + 1 : i + 1 + len(rest)]) == rest:
                    found.add(label)
            for rest, label in self._folded.get(folded[i], ()):
                if label not in found and tuple(folded[i + 1 : i + 1 + len(rest)]) == rest:
                    found.add(label)
        return found

    def match_spans(self, tokens: Sequence[str]) -> list[tuple[int, int, str]]:
        expanded = expand_hyphens(tokens)
        folded = [t.lower() for t in expanded]
        spans: list[tuple[int, int, str]] = []
        for i, token in enumerate(expanded):
            for rest, label in self._exact.get(token, ()):
                if tuple(expanded[i + 1 : i + 1 + len(rest)]) == rest:
                    spans.append((i, i + 1 + len(rest), label))
            for rest, label in self._folded.get(folded[i], ()):
                if tuple(folded[i + 1 : i + 1 + len(rest)]) == rest:
                    spans.append((i, i + 1 + len(rest), label))
        return spans


# The four sentence analyzers as they were before `nlp` kept one fact table
# per token type: each call lowercases, looks up and tests every token again.

_NEGATION_WINDOW = 3
DEGREE_NONE = "none"
DEGREE_COMPARATIVE = "comparative"
DEGREE_SUPERLATIVE = "superlative"


def _normalize(total: float, alpha: float = NORMALIZE_ALPHA) -> float:
    square = total * total
    # Where the square overflows, the score is 1 to double precision.
    score = total / math.sqrt(square + alpha) if square != math.inf else 1.0
    return min(max(score, 0.0), 1.0)


def _is_all_caps(token: str) -> bool:
    return token.isupper() and any(ch.isalpha() for ch in token)


def sentence_sentiment(tokens: Sequence[str], lexicon: ValenceLexicon) -> tuple[float, float]:
    """A tokenized sentence's (positive, negative) components.

    Rule order per lexicon hit: all-caps emphasis, booster adjustment from the
    three preceding tokens, then negation (sign flip damped by 0.74) if a
    negator occurs in the same window. The positive and negative valence sums
    are normalized separately with the alpha=15 rule.
    """
    caps = [_is_all_caps(t) for t in tokens]
    mixed_case = any(caps) and not all(caps)
    positive_sum = 0.0
    negative_sum = 0.0
    lowered = [t.lower() for t in tokens]
    for i, low in enumerate(lowered):
        valence = lexicon.valences.get(low)
        if valence is None or valence == 0.0:
            continue
        if mixed_case and caps[i]:
            valence += CAPS_EMPHASIS if valence > 0 else -CAPS_EMPHASIS
        window = lowered[max(0, i - _NEGATION_WINDOW) : i]
        for prev in window:
            modifier = lexicon.boosters.get(prev)
            if modifier is not None:
                valence += modifier if valence > 0 else -modifier
        if any(prev in lexicon.negators for prev in window):
            valence *= NEGATION_DAMP
        if valence > 0:
            positive_sum += valence
        else:
            negative_sum += -valence
    return _normalize(positive_sum), _normalize(negative_sum)


def sentence_subjectivity(tokens: Sequence[str], lexicon: dict) -> float:
    """Mean subjectivity over tokens with lexicon entries; 0 with no hits."""
    hits = [lexicon[t.lower()] for t in tokens if t.lower() in lexicon]
    if not hits:
        return 0.0
    return sum(hits) / len(hits)


def tag_degree(tokens: Sequence[str]) -> list[str]:
    """Flag each token as none/comparative/superlative."""
    flags = []
    for token in tokens:
        low = token.lower()
        if low in _DEGREE_BLOCKERS or not low.isalpha():
            flags.append(DEGREE_NONE)
        elif low in _SUPERLATIVE_WORDS:
            flags.append(DEGREE_SUPERLATIVE)
        elif low in _COMPARATIVE_WORDS:
            flags.append(DEGREE_COMPARATIVE)
        elif low.endswith("est") and len(low) - 3 >= _MIN_DEGREE_STEM:
            flags.append(DEGREE_SUPERLATIVE)
        elif low.endswith("er") and len(low) - 2 >= _MIN_DEGREE_STEM:
            flags.append(DEGREE_COMPARATIVE)
        else:
            flags.append(DEGREE_NONE)
    return flags


def detect_reported_speech(tokens: Sequence[str], matcher: PhraseMatcher) -> set[str]:
    """Parties with a phrase before a narrative verb and no finite narrative
    verb between the two; the matcher matches the unit again."""
    expanded = expand_hyphens(tokens)
    lowered = [t.lower() for t in expanded]
    verb_positions = [i for i, t in enumerate(lowered) if t in _NARRATIVE_VERBS]
    if not verb_positions:
        return set()
    finite_positions = [i for i, t in enumerate(lowered) if t in _FINITE_NARRATIVE_VERBS]
    spans = matcher.match_spans(tokens)
    attributed: set[str] = set()
    for verb_pos in verb_positions:
        preceding_finite = [k for k in finite_positions if k < verb_pos]
        blocker = preceding_finite[-1] if preceding_finite else -1
        for start, end, label in spans:
            if end <= verb_pos and blocker < end:
                attributed.add(label)
    return attributed


def reference_features(suite, unit: Sequence[str]) -> FeatureRow:
    """`metrics.AnalyzerSuite.features` as it was: one call per analyzer."""
    positive, negative = sentence_sentiment(unit, suite.valence)
    return FeatureRow(
        positive=positive,
        negative=negative,
        subjectivity=sentence_subjectivity(unit, suite.subjectivity),
        degree_hits=sum(1 for flag in tag_degree(unit) if flag != DEGREE_NONE),
        speakers=tuple(sorted(detect_reported_speech(unit, suite.matcher))),
    )


def reference_content_documents(articles: Sequence[Article], units: Sequence[ArticleUnits], suite) -> dict:
    """`tagging.build_monthly_documents` in content mode with rows, as it was:
    each unit is matched by `match_tokens` and featurized by
    `reference_features`, which matches it again; each party's document adds
    the unit's exact word-weighted values itself."""
    docs: dict = {}
    for article, (_, content) in zip(articles, units, strict=True):
        month = month_key(article.published)
        for unit in content:
            parties = suite.matcher.match_tokens(unit)
            if not parties:
                continue
            row = reference_features(suite, unit)
            words = len(unit)
            for party_id in parties:
                doc = docs.setdefault((month, party_id), MonthlyDocument(month=month, party_id=party_id, mode=CONTENT))
                doc.units += 1
                doc.words += words
                doc.pov_words += words if party_id in row.speakers else 0
                doc.degree_hits += row.degree_hits
                doc.positive += int(words * Fraction(row.positive) * SCALE)
                doc.negative += int(words * Fraction(row.negative) * SCALE)
                doc.subjectivity += int(words * Fraction(row.subjectivity) * SCALE)
    return docs


def float_sum_score(units: Sequence[tuple[int, FeatureRow]], party_id: str, metric: MetricId) -> float | None:
    """`metrics.score_document` as it was before documents kept exact sums.

    `units` are a document's (word count, feature row) pairs in the order the
    document kept them. A weighted mean is a left-to-right float sum of
    word count times value, divided by the summed word counts; a unit
    without words is skipped.
    """
    if metric is MetricId.COV_HEAD:
        return float(len(units))
    if metric is MetricId.COV_CONTENT:
        return float(sum(words for words, _ in units))
    if metric is MetricId.POV:
        return float(sum(words for words, row in units if party_id in row.speakers))
    weight_total = 0
    weighted_sum = 0.0
    for weight, row in units:
        if weight == 0:
            continue
        if metric is MetricId.POS_SENT:
            value = row.positive
        elif metric is MetricId.NEG_SENT:
            value = row.negative
        elif metric is MetricId.SUBJ:
            value = row.subjectivity
        else:
            value = 100.0 * row.degree_hits / weight
        weighted_sum += weight * value
        weight_total += weight
    if weight_total == 0:
        return None
    return weighted_sum / weight_total


def whole_text_places(article: Article, level: str, gazetteer) -> frozenset[str]:
    """The places of one level that `geo.count_mentions` finds in one article,
    found without its units or the gazetteer's matcher: the headline and the
    whole content tokenized again, then matched by a plain matcher of that
    level's places only."""
    places = gazetteer.cities if level == "city" else gazetteer.states
    matcher = ExpandEachCallPhraseMatcher(
        ((place, name) for place, aliases in places.items() for name in (place, *aliases)), False
    )
    return frozenset(matcher.match_tokens(tokenize(article.headline) + tokenize(article.content)))


def _reference_vocab(sentences: Sequence[Sequence[str]], min_count: int) -> tuple[dict, np.ndarray]:
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


def _reference_encode(sentences: Sequence[Sequence[str]], vocab: dict) -> tuple[np.ndarray, np.ndarray]:
    token_ids: list[int] = []
    sentence_ids: list[int] = []
    for sid, sentence in enumerate(sentences):
        for token in sentence:
            index = vocab.get(token)
            if index is not None:
                token_ids.append(index)
                sentence_ids.append(sid)
    return np.array(token_ids, dtype=np.int64), np.array(sentence_ids, dtype=np.int64)


def _reference_epoch_pairs(
    tokens: np.ndarray,
    sentences: np.ndarray,
    keep_prob: np.ndarray | None,
    window: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
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


def reference_train_sgns(
    sentences: Sequence[Sequence[str]], params: SgnsParams, year: int = 0
) -> tuple[EmbeddingSpace, int]:
    """`embeddings.train_sgns` before its int32 pairs and chunk buffers.

    The generator draws the initial vectors, then each epoch's pairs before
    that epoch trains, and the learning rate decays with the epochs done plus
    the share of the current epoch done, as in the trainer. The pairs are
    int64, each chunk is whole-array expressions, and its gradients are
    scattered with `np.add.at` into the 2-D tables, row by row. Returns the
    space and the number of training pairs over all epochs.
    """
    sentences = list(sentences)
    if not sentences:
        raise DataError("token stream is empty")
    vocab, freqs = _reference_vocab(sentences, params.min_count)
    tokens, sentence_ids = _reference_encode(sentences, vocab)
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
    noise_cdf[-1] = 1.0

    vocab_size = len(vocab)
    w_in = ((rng.random((vocab_size, params.dim)) - 0.5) / params.dim).astype(np.float32)
    w_out = np.zeros((vocab_size, params.dim), dtype=np.float32)

    total_pairs = 0
    for epoch in range(params.epochs):
        centers, contexts = _reference_epoch_pairs(tokens, sentence_ids, keep_prob, params.window, rng)
        total_pairs += centers.shape[0]
        for start in range(0, centers.shape[0], params.chunk_pairs):
            c = centers[start : start + params.chunk_pairs]
            o = contexts[start : start + params.chunk_pairs]
            lr = max(
                params.min_learning_rate,
                params.learning_rate * (1.0 - (epoch + start / centers.shape[0]) / params.epochs),
            )
            negatives = np.searchsorted(
                noise_cdf, rng.random((c.shape[0], params.negatives))
            ).astype(np.int64)
            targets = np.concatenate([o[:, None], negatives], axis=1)
            labels = np.zeros(targets.shape, dtype=np.float32)
            labels[:, 0] = 1.0
            valid = np.ones(targets.shape, dtype=np.float32)
            valid[:, 1:] = (negatives != o[:, None]).astype(np.float32)

            h = w_in[c]
            out = w_out[targets]
            scores = np.einsum("nd,nkd->nk", h, out)
            sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -10.0, 10.0)))
            grad = (labels - sig) * valid * np.float32(lr)
            grad_h = np.einsum("nk,nkd->nd", grad, out)
            grad_out = grad[:, :, None] * h[:, None, :]
            np.add.at(w_in, c, grad_h)
            np.add.at(w_out, targets.reshape(-1), grad_out.reshape(-1, params.dim))
    if total_pairs == 0:
        raise DataError("no training pairs generated; corpus may be too sparse")

    return EmbeddingSpace(year=year, dim=params.dim, vocab=vocab, vectors=w_in), total_pairs
