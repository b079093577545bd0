from __future__ import annotations

import http.server
import json
import threading

import pytest

from newsbalance.errors import ContractViolation, DataError, UndefinedProbabilityError
from newsbalance.probe import (
    MASK,
    VOTE_PROMPT,
    NgramMaskBackend,
    RemoteMaskBackend,
    ngram_backend,
    popularity_pair,
    popularity_probability,
    request_to_json,
    response_from_json,
    response_to_json,
    token_delta_ranking,
    vote_preference,
)

from conftest import make_article


class StubBackend:
    def __init__(self, distribution, backend_id="stub"):
        self.distribution = dict(distribution)
        self.backend_id = backend_id

    def query(self, prompt, mask_token=MASK):
        return dict(self.distribution)


class TestVotePreference:
    def test_uniform_toy_backend(self):
        backend = StubBackend({"BJP": 0.5, "Congress": 0.5})
        assert vote_preference(backend, "BJP") == 0.5
        assert vote_preference(backend, "Congress") == 0.5

    def test_lookup(self):
        backend = StubBackend({"BJP": 0.3, "Congress": 0.1, "other": 0.6})
        assert vote_preference(backend, "BJP") == 0.3

    def test_absent_token_is_zero(self):
        backend = StubBackend({"Congress": 0.2})
        assert vote_preference(backend, "BJP") == 0.0


class TestPopularity:
    def test_hand_normalization(self):
        backend = StubBackend({"BJP": 0.3, "Congress": 0.1})
        assert popularity_probability(backend) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        backend = StubBackend({"BJP": 0.2, "Congress": 0.2})
        assert popularity_probability(backend) == 0.5

    def test_both_zero_is_error(self):
        backend = StubBackend({"other": 1.0})
        with pytest.raises(UndefinedProbabilityError):
            popularity_probability(backend)

    def test_pair_sums_to_one_exactly(self):
        for dist in [{"BJP": 0.3, "Congress": 0.1}, {"BJP": 0.1, "Congress": 0.2}]:
            p_b, p_c = popularity_pair(StubBackend(dist))
            assert p_b + p_c == 1.0


class TestTokenDeltaRanking:
    def test_identical_backends_empty(self):
        backend = StubBackend({"a": 0.5, "b": 0.3})
        rising, falling = token_delta_ranking(backend, backend, "x <mask>")
        assert rising == [] and falling == []

    def test_new_token_heads_rising(self):
        early = StubBackend({"a": 0.5})
        late = StubBackend({"a": 0.5, "b": 0.2})
        rising, falling = token_delta_ranking(early, late, "x <mask>")
        assert rising[0] == ("b", pytest.approx(0.2))
        assert falling == []

    def test_hand_delta_table(self):
        # hand deltas: a:-0.3, b:+0.1, c:+0.25, d:-0.05, e:0 (dropped)
        early = StubBackend({"a": 0.4, "b": 0.1, "c": 0.05, "d": 0.25, "e": 0.2})
        late = StubBackend({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.2, "e": 0.2})
        rising, falling = token_delta_ranking(early, late, "x <mask>")
        assert [t for t, _ in rising] == ["c", "b"]
        assert [t for t, _ in falling] == ["a", "d"]

    def test_truncation_to_m(self):
        early = StubBackend({f"t{i}": 0.01 for i in range(20)})
        late = StubBackend({f"t{i}": 0.01 * (i + 2) for i in range(20)})
        rising, _ = token_delta_ranking(early, late, "x <mask>", k=50, m=5)
        assert len(rising) == 5

    def test_swap_exchanges_lists(self):
        early = StubBackend({"a": 0.4, "b": 0.1})
        late = StubBackend({"a": 0.1, "b": 0.3})
        rising, falling = token_delta_ranking(early, late, "x <mask>")
        rev_rising, rev_falling = token_delta_ranking(late, early, "x <mask>")
        assert [t for t, _ in rising] == [t for t, _ in rev_falling]
        assert [t for t, _ in falling] == [t for t, _ in rev_rising]
        assert not set(t for t, _ in rising) & set(t for t, _ in falling)

    def test_top_k_union_limits_candidates(self):
        early = StubBackend({"a": 0.9, "b": 0.05, "c": 0.01})
        late = StubBackend({"a": 0.1, "b": 0.8, "c": 0.02})
        rising, falling = token_delta_ranking(early, late, "x <mask>", k=1)
        # only a (early top-1) and b (late top-1) are candidates
        assert {t for t, _ in rising} <= {"a", "b"}
        assert {t for t, _ in falling} <= {"a", "b"}


def vote_articles(b_count, c_count):
    articles = []
    for i in range(b_count):
        articles.append(
            make_article(id=f"b{i}", content="This election people will vote for BJP.")
        )
    for i in range(c_count):
        articles.append(
            make_article(id=f"c{i}", content="This election people will vote for Congress.")
        )
    return articles


class TestNgramBackend:
    def test_dominant_party_near_one(self):
        backend = ngram_backend(vote_articles(50, 0))
        assert popularity_probability(backend) > 0.99

    def test_balanced_corpus_half(self):
        backend = ngram_backend(vote_articles(25, 25))
        assert popularity_probability(backend) == pytest.approx(0.5, abs=1e-9)

    def test_unseen_context_uniform(self):
        backend = ngram_backend(vote_articles(5, 5))
        result = backend.query("zebras quietly poll <mask>")
        values = set(result.values())
        assert len(values) == 1
        assert sum(result.values()) == pytest.approx(1.0, abs=1e-9)

    def test_scores_sum_at_most_one(self):
        backend = ngram_backend(vote_articles(10, 5))
        result = backend.query(VOTE_PROMPT)
        assert all(v >= 0 for v in result.values())
        assert sum(result.values()) <= 1.0 + 1e-9

    def test_right_context_chains(self):
        articles = [
            make_article(id="r1", content="They vote for BJP today. They vote for Congress now."),
        ]
        backend = ngram_backend([articles[0]], order=3)
        scores = backend.query("They vote for <mask> today.")
        assert scores["BJP"] > scores["Congress"]

    def test_deterministic(self):
        first = ngram_backend(vote_articles(8, 3)).query(VOTE_PROMPT)
        second = ngram_backend(vote_articles(8, 3)).query(VOTE_PROMPT)
        assert first == second

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            NgramMaskBackend.from_sentences([])

    def test_multiple_masks_rejected(self):
        backend = ngram_backend(vote_articles(2, 2))
        with pytest.raises(ContractViolation):
            backend.query("<mask> versus <mask>")

    def test_bad_params_rejected(self):
        with pytest.raises(ContractViolation):
            NgramMaskBackend(order=1)
        with pytest.raises(ContractViolation):
            NgramMaskBackend(smoothing=0.0)


class TestResponseRanking:
    def test_ranked_descending_ties_by_token(self):
        backend = StubBackend({"b": 0.2, "a": 0.2, "c": 0.6})
        payload = response_to_json(backend.query("x <mask>"))
        assert payload["tokens"] == [["c", 0.6], ["a", 0.2], ["b", 0.2]]


class TestWireFormat:
    def test_request_shape(self):
        assert request_to_json("a <mask> b") == {"prompt": "a <mask> b", "mask_token": "<mask>"}

    def test_response_round_trip(self):
        distribution = {"x": 0.25, "y": 0.5}
        payload = response_to_json(distribution)
        assert payload["tokens"][0] == ["y", 0.5]
        assert response_from_json(payload) == distribution

    def test_response_validation(self):
        with pytest.raises(DataError):
            response_from_json({"tokens": [["x"]]})
        with pytest.raises(DataError):
            response_from_json({"nope": []})
        with pytest.raises(DataError):
            response_from_json({"tokens": [["x", -0.5]]})
        with pytest.raises(DataError):
            response_from_json({"tokens": [["x", 0.8], ["y", 0.7]]})
        # non-numeric probabilities, a non-string token, and a token listed twice
        for tokens in (
            [["x", "x"]],
            [["x", None]],
            [["x", True]],
            [["x", float("nan")]],
            [[7, 0.5]],
            [["x", 0.2], ["x", 0.3]],
        ):
            with pytest.raises(DataError):
                response_from_json({"tokens": tokens})

    def test_remote_backend_round_trip(self):
        """Serve the documented JSON shape from a local stub and query it."""
        received = {}

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received.update(json.loads(self.rfile.read(length)))
                body = json.dumps(response_to_json({"BJP": 0.6, "Congress": 0.2})).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}/"
            backend = RemoteMaskBackend(url)
            assert popularity_probability(backend) == pytest.approx(0.75)
            assert received == {"prompt": VOTE_PROMPT, "mask_token": MASK}
        finally:
            server.shutdown()
            thread.join(timeout=5)
