"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from newsbalance.cli import main
from newsbalance.embeddings import (
    AssociationSets,
    EmbeddingSpace,
    SgnsParams,
    align,
    popularity_timeline,
    train_sgns,
    weat_score,
)
from newsbalance.errors import DegenerateScoreError
from newsbalance.geo import Gazetteer, bottom_share, homogeneity_inverse_std, yearly_geo_trends
from newsbalance.metrics import MetricId, compute_all_series, imbalance
from newsbalance.probe import ngram_backend, popularity_pair, popularity_probability, token_delta_ranking
from newsbalance.timeseries import cluster, distance_matrix, dtw_distance

from conftest import make_article
from test_timeseries import brute_force_dtw


def passed(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS: {message}")


def test_criterion_01_imbalance_algebra():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    for _ in range(10_000):
        b = float(rng.uniform(0, 1000))
        c = float(rng.uniform(0, 1000))
        k = float(rng.uniform(1e-3, 1e3))
        forward = imbalance(b, c)
        backward = imbalance(c, b)
        assert abs(forward + backward) <= 1e-12
        assert -1.0 <= forward <= 1.0
        scaled = imbalance(k * b, k * c)
        assert abs(scaled - forward) <= 1e-12
    assert imbalance(7.3, 0.0) == 1.0
    assert imbalance(0.0, 7.3) == -1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"antisymmetry/scale/bounds/extremes on 10k pairs in {elapsed:.2f}s")


def test_criterion_02_planted_coverage_recovery(bundled_articles, lexicons, suite):
    tables = compute_all_series(
        bundled_articles, lexicons, [MetricId.COV_HEAD, MetricId.COV_CONTENT], suite
    )
    for outlet, series in tables["cov_head"].items():
        values = series.values()
        assert len(values) == 24
        assert all(v == 0.4 for v in values[:12]), outlet
        assert all(v == -0.4 for v in values[12:]), outlet
    for outlet, series in tables["cov_content"].items():
        values = series.values()
        assert all(v is not None and v > 0 for v in values[:12]), outlet
        assert all(v is not None and v < 0 for v in values[12:]), outlet
    passed(2, "cov_head exactly +/-0.4 per month and cov_content sign in all 24 months x 3 outlets")


def test_criterion_03_dtw_oracle_equivalence():
    rng = np.random.default_rng(777)
    grid = [0.0, 0.5, -0.5, 1.0, -1.0]
    start = time.perf_counter()
    for _ in range(1000):
        a = [grid[i] for i in rng.integers(0, 5, size=rng.integers(1, 7))]
        b = [grid[i] for i in rng.integers(0, 5, size=rng.integers(1, 7))]
        assert dtw_distance(a, b) == brute_force_dtw(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passed(3, f"DP equals exhaustive alignment minimum on 1000 pairs in {elapsed:.2f}s")


def test_criterion_04_clustering_fidelity():
    hits = 0
    months = np.arange(24)
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        phase = rng.uniform(0, 2 * np.pi)
        signal = 0.5 * np.sin(2 * np.pi * months / 12 + phase)
        shared_a = list(signal + rng.normal(0, 0.1, 24))
        shared_b = list(signal + rng.normal(0, 0.1, 24))
        independent = list(rng.normal(0, 0.5, 24))
        labels, matrix = distance_matrix(
            {"outlet-a": shared_a, "outlet-b": shared_b, "outlet-c": independent}
        )
        dendro = cluster(labels, matrix)
        root = dendro.root.to_dict()
        first = _first_merge(root)
        if sorted(_leaf_labels(first)) == ["outlet-a", "outlet-b"]:
            hits += 1
    assert hits >= 95, f"shared pair merged first in only {hits}/100 trials"
    passed(4, f"shared-generator outlets merged first in {hits}/100 seeded trials")


def _first_merge(tree):
    stack = [tree]
    merges = []
    while stack:
        node = stack.pop()
        if "children" in node:
            if all("leaf" in child for child in node["children"]):
                merges.append(node)
            stack.extend(node["children"])
    return min(merges, key=lambda n: n["height"])


def _leaf_labels(tree):
    if "leaf" in tree:
        return [tree["leaf"]]
    labels = []
    for child in tree.get("children", []):
        labels.extend(_leaf_labels(child))
    return labels


def test_criterion_05_procrustes_recovery():
    rng = np.random.default_rng(4242)
    for dim in (10, 50):
        base = rng.normal(size=(400, dim))
        rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        vocab = [f"t{i}" for i in range(400)]
        source = EmbeddingSpace(1, dim, {t: i for i, t in enumerate(vocab)}, base)
        target_rows = base @ rotation
        target = EmbeddingSpace(2, dim, {t: i for i, t in enumerate(vocab)}, target_rows)
        transform = align(source, target, anchor_count=400)
        residual = np.abs(transform.apply_rows(base) - target_rows).max()
        assert residual < 1e-6, f"noiseless dim={dim}: {residual}"

        sigma = 0.01
        noisy = EmbeddingSpace(
            2, dim, {t: i for i, t in enumerate(vocab)},
            target_rows + rng.normal(0, sigma, size=target_rows.shape),
        )
        transform = align(source, noisy, anchor_count=400)
        rms = float(np.sqrt(np.mean((transform.apply_rows(base) - noisy.vectors) ** 2)))
        assert rms < 10 * sigma, f"noisy dim={dim}: rms {rms}"
    passed(5, "rotation recovered at dims 10/50; noisy residual under 10x the noise floor")


def test_criterion_06_weat_correctness():
    # hand fixture: g(s1) = 1, g(s2) = -1, population SD = 1 -> score 2
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    space = EmbeddingSpace(0, 2, {"s1": 0, "s2": 1, "a1": 2, "a2": 3}, rows)
    sets = AssociationSets(s1=("s1",), s2=("s2",), a1=("a1",), a2=("a2",))
    assert abs(weat_score(sets, space) - 2.0) < 1e-9

    # hand fixture with an off-axis target: g(c) = cos45 - cos45 = 0
    rows = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    space2 = EmbeddingSpace(0, 2, {"c": 0, "s2": 1, "a1": 2, "a2": 3}, rows)
    hand_g = (1.0 / math.sqrt(2.0)) - (1.0 / math.sqrt(2.0))
    sets2 = AssociationSets(s1=("c",), s2=("s2",), a1=("a1",), a2=("a2",))
    expected = (hand_g - (-1.0)) / (abs(hand_g - (-1.0)) / 2.0)  # mean diff / pop SD of {0,-1}
    assert abs(weat_score(sets2, space2) - expected) < 1e-9

    rng = np.random.default_rng(909)
    checked = 0
    while checked < 1000:
        rows = rng.normal(size=(7, 4))
        tokens = ["p1", "p2", "q1", "q2", "x1", "x2", "x3"]
        space = EmbeddingSpace(0, 4, {t: i for i, t in enumerate(tokens)}, rows)
        sets = AssociationSets(s1=("p1", "p2"), s2=("q1", "q2"), a1=("x1", "x2"), a2=("x3",))
        try:
            base = weat_score(sets, space)
        except DegenerateScoreError:
            continue
        s_swapped = AssociationSets(s1=sets.s2, s2=sets.s1, a1=sets.a1, a2=sets.a2)
        a_swapped = AssociationSets(s1=sets.s1, s2=sets.s2, a1=sets.a2, a2=sets.a1)
        assert abs(weat_score(s_swapped, space) + base) < 1e-9
        assert abs(weat_score(a_swapped, space) + base) < 1e-9
        checked += 1

    degenerate = EmbeddingSpace(
        0, 2, {"s1": 0, "s2": 1, "a1": 2, "a2": 3}, np.ones((4, 2))
    )
    with pytest.raises(DegenerateScoreError):
        weat_score(AssociationSets(("s1",), ("s2",), ("a1",), ("a2",)), degenerate)
    passed(6, "hand fixtures match to 1e-9; antisymmetry on 1000 fixtures; SD=0 raises")


A1 = ("good", "honest", "efficient", "superior")
A2 = ("bad", "dishonest", "inefficient", "inferior")
_FILLER = [f"w{i}" for i in range(30)]


def _drift_year_sentences(rng, party1_good_prob, count=500):
    sentences = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.4:
            party, p_good = "alphaparty", party1_good_prob
        elif draw < 0.8:
            party, p_good = "betaparty", 1.0 - party1_good_prob
        else:
            sentences.append([_FILLER[rng.integers(30)] for _ in range(6)])
            continue
        pool = A1 if rng.random() < p_good else A2
        sentences.append(
            [
                _FILLER[rng.integers(30)], party, pool[rng.integers(4)],
                party, pool[rng.integers(4)], _FILLER[rng.integers(30)],
            ]
        )
    return sentences


def test_criterion_07_planted_popularity_crossover():
    sets = AssociationSets(s1=("alphaparty",), s2=("betaparty",), a1=A1, a2=A2)
    probabilities = [0.05, 0.05, 0.95, 0.95, 0.95]  # flip planted between years 2 and 3
    hits = 0
    start = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        spaces = []
        for year, p_good in enumerate(probabilities):
            params = SgnsParams(
                dim=16, window=2, negatives=4, epochs=8, min_count=2,
                seed=trial * 100 + year, subsample=0.0, chunk_pairs=256,
            )
            spaces.append(train_sgns(_drift_year_sentences(rng, p_good), params, year=year))
        timeline = popularity_timeline(spaces, sets, anchor_count=40)
        if timeline.crossing_year() == 2:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 90, f"crossover recovered in only {hits}/100 runs"
    passed(7, f"popularity crossover in the planted year in {hits}/100 runs ({elapsed:.0f}s)")


def test_criterion_08_geo_metrics():
    assert homogeneity_inverse_std([0.25, 0.25, 0.25, 0.25]) is None
    assert abs(homogeneity_inverse_std([0.75, 0.25]) - 4.0) < 1e-12
    uniform = {f"p{i}": 0.1 for i in range(10)}
    assert abs(bottom_share(uniform, 0.2) - 20.0) < 1e-9
    dominant = {"big": 1.0, **{f"p{i}": 0.0 for i in range(9)}}
    assert bottom_share(dominant, 0.5) == 0.0
    hand = {"a": 0.5, "b": 0.3, "c": 0.1, "d": 0.06, "e": 0.04}
    assert abs(bottom_share(hand, 0.2) - 4.0) < 1e-9

    names = [f"state{c}" for c in "abcdefghij"]
    gazetteer = Gazetteer(cities={}, states={name: () for name in names})
    articles = []
    serial = 0
    for offset in range(5):
        counts = {names[0]: 40, **{n: 10 for n in names[1:8]}, **{n: 1 + offset for n in names[8:]}}
        for name, count in counts.items():
            for _ in range(count):
                articles.append(
                    make_article(
                        id=f"geo{serial}",
                        published=f"{2010 + offset}-06-01",
                        content=f"Dispatch from {name} region.",
                    )
                )
                serial += 1
    trend = yearly_geo_trends(articles, gazetteer, level="state")["daily-alpha"]
    bottom20 = [t.bottom20 for t in trend]
    assert all(x < y for x, y in zip(bottom20, bottom20[1:]))
    passed(8, "uniform/dominant fixtures exact; planted flattening gives rising bottom-20% series")


def test_criterion_09_probe_arithmetic():
    skewed = [
        make_article(id=f"b{i}", content="This election people will vote for BJP.")
        for i in range(35)
    ] + [
        make_article(id=f"c{i}", content="This election people will vote for Congress.")
        for i in range(15)
    ]
    backend = ngram_backend(skewed)
    p_b, p_c = popularity_pair(backend)
    assert p_b + p_c == 1.0
    assert p_b > 0.5  # planted 70/30 direction

    flipped = ngram_backend(
        [
            make_article(id=f"x{i}", content="This election people will vote for Congress.")
            for i in range(9)
        ]
        + [make_article(id="y0", content="This election people will vote for BJP.")]
    )
    assert popularity_probability(flipped) < 0.5

    class Fixed:
        def __init__(self, dist):
            self.dist = dist

        def query(self, prompt, mask_token="<mask>"):
            return dict(self.dist)

    early = Fixed({"a": 0.40, "b": 0.10, "c": 0.05, "d": 0.25, "e": 0.20})
    late = Fixed({"a": 0.10, "b": 0.20, "c": 0.30, "d": 0.20, "e": 0.20})
    rising, falling = token_delta_ranking(early, late, "x <mask>", k=50, m=15)
    # hand table: deltas c:+0.25, b:+0.10, d:-0.05, a:-0.30, e:0
    assert [(t, round(d, 10)) for t, d in rising] == [("c", 0.25), ("b", 0.10)]
    assert [(t, round(d, 10)) for t, d in falling] == [("a", -0.30), ("d", -0.05)]
    passed(9, "complements sum to 1; planted vote direction recovered; delta table matches hand oracle")


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    base = tmp_path / "archive"
    assert main(["synth", "--out", str(base), "--seed", "42"]) == 0
    config = str(base / "config.json")
    assert main(["report", "--config", config, "--out", str(tmp_path / "run1")]) == 0
    assert main(["report", "--config", config, "--out", str(tmp_path / "run2")]) == 0

    def stable_lines(path):
        return [
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if '"generated_at"' not in line
        ]

    first = stable_lines(tmp_path / "run1" / "report" / "bundle.json")
    second = stable_lines(tmp_path / "run2" / "report" / "bundle.json")
    assert first == second
    bundle = json.loads((tmp_path / "run1" / "report" / "bundle.json").read_text())
    assert set(bundle["commands"]) == {"metrics", "cluster", "weat", "geo", "probe"}
    assert bundle["provenance"]["seed"] == 42
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    passed(10, f"double report byte-identical modulo timestamp; pipeline x2 in {elapsed:.0f}s")
