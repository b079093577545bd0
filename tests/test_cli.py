from __future__ import annotations

import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from newsbalance import corpus, geo, metrics, nlp, tagging, timeseries
from newsbalance.cli import main
from newsbalance.config import RunConfig
from newsbalance.corpus import article_sentences, load_corpus, write_corpus
from newsbalance.errors import ConfigError, ContractViolation
from newsbalance.metrics import compute_all_series
from newsbalance.tagging import build_matcher, default_party_lexicons
from newsbalance.timeseries import cluster, distance_matrix, drop_missing, z_normalize

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = REPO_ROOT / "sample" / "config.json"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small generated archive plus its config, shared by the CLI tests."""
    directory = tmp_path_factory.mktemp("synth")
    code = main(
        ["synth", "--out", str(directory), "--seed", "11", "--months", "4",
         "--articles-per-month", "10"]
    )
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def two_year_dir(tmp_path_factory):
    """A two-year archive, so that weat has the two years it needs."""
    directory = tmp_path_factory.mktemp("two-year")
    code = main(
        ["synth", "--out", str(directory), "--seed", "5", "--months", "24",
         "--articles-per-month", "10"]
    )
    assert code == 0
    return directory


class TestValidate:
    def test_shipped_sample_config(self, capsys):
        assert main(["validate", "--config", str(SAMPLE_CONFIG)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["outlets"] == ["daily-alpha", "daily-beta", "daily-gamma"]
        assert summary["parties"] == ["bjp", "congress"]

    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent/config.json"]) == 1

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text('{\n "corpora": {\n', encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "config.json:" in err

    def test_missing_corpus_path(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpora": {"x": "missing.jsonl"}}), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 1

    def _rewritten_config(self, synth_dir, tmp_path, **overrides):
        raw = json.loads((synth_dir / "config.json").read_text())
        raw["corpora"] = {k: str(synth_dir / v) for k, v in raw["corpora"].items()}
        raw.update(overrides)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        return config

    def test_bad_date_range(self, tmp_path, synth_dir):
        config = self._rewritten_config(
            synth_dir, tmp_path, date_range={"start": "2011-01-01", "end": "2010-01-01"}
        )
        with pytest.raises(ConfigError, match="date_range"):
            RunConfig.from_file(config)

    def test_negative_seed_rejected(self, tmp_path, synth_dir):
        config = self._rewritten_config(synth_dir, tmp_path, seed=-5)
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_file(config)

    def test_unknown_metric_rejected(self, tmp_path, synth_dir):
        config = self._rewritten_config(synth_dir, tmp_path, metrics=["cov_head", "zing"])
        with pytest.raises(ConfigError, match="metrics"):
            RunConfig.from_file(config)

    def test_one_place_states_list_rejected(self, tmp_path, synth_dir, capsys):
        states = tmp_path / "states.txt"
        states.write_text("Kerala\n", encoding="utf-8")
        config = self._rewritten_config(synth_dir, tmp_path, gazetteer={"cities": None, "states": str(states)})
        assert main(["validate", "--config", str(config)]) == 1
        assert "states list needs at least 2 places" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("embedding", "dim", "abc"),
            ("embedding", "dim", 0),
            ("embedding", "dim", True),
            ("embedding", "window", 0),
            ("embedding", "epochs", 0),
            ("embedding", "negatives", -1),
            ("embedding", "subsample", "often"),
            ("probe", "order", 1),
            ("probe", "order", 2.5),
            ("probe", "smoothing", 0),
            ("probe", "smoothing", -0.5),
            ("weat", "attributes_positive", "good"),
            (None, "date_range", "2014"),
            (None, "embedding", [32]),
            (None, "metrics", 3),
            ("probe", "party_tokens", ["BJP", "Indian National Congress"]),
            ("probe", "party_tokens", ["BJP", "Congress."]),
            ("probe", "party_tokens", ["BJP", ""]),
            ("probe", "party_tokens", ["BJP", 7]),
            ("clustering", "znormalize", "false"),
            ("clustering", "znormalize", 0),
            ("probe", "prompt", "people vote for"),
            ("probe", "prompt", "vote for <mask> or <mask>"),
            ("probe", "prompt", ["vote for <mask>"]),
            ("probe", "top_k", -5),
            ("probe", "max_rank", -1),
            ("embedding", "subsample", -1),
            ("embedding", "min_count", 0),
            ("embedding", "anchor_count", 3),
            ("weat", "attributes_positive", []),
            ("weat", "attributes_negative", ["good", "bad"]),
            ("embedding", "dimension", 50),
            ("probe", "smothing", 0.5),
            ("date_range", "begin", "2010-01-01"),
            (None, "clusterng", {"linkage": "single"}),
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, synth_dir, capsys, section, key, value):
        base = json.loads((synth_dir / "config.json").read_text())
        override = {key: value} if section is None else {section: {**base[section], key: value}}
        config = self._rewritten_config(synth_dir, tmp_path, **override)
        assert main(["validate", "--config", str(config)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, expected",
        [
            ("embedding", "dim", 100.0, 100),
            ("embedding", "dim", "100", 100),
            ("probe", "smoothing", "0.5", 0.5),
        ],
    )
    def test_number_written_otherwise_is_converted(self, tmp_path, synth_dir, section, key, value, expected):
        base = json.loads((synth_dir / "config.json").read_text())
        config = self._rewritten_config(synth_dir, tmp_path, **{section: {**base[section], key: value}})
        assert getattr(getattr(RunConfig.from_file(config), section), key) == expected


class TestCommands:
    def test_metrics_emits_all_series_csv(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["metrics", "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 0
        csvs = sorted(p.name for p in (out / "metrics").glob("*__*.csv"))
        assert len(csvs) == 3 * 7  # outlets x metrics
        with (out / "metrics" / "daily-alpha__cov_head.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4  # months in span
        aggregates = json.loads((out / "metrics" / "aggregates.json").read_text())
        assert set(aggregates["daily-alpha"]) == {
            "cov_head", "cov_content", "pov", "pos_sent", "neg_sent", "subj", "supcomp",
        }

    def test_cluster_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 0
        payload = json.loads((out / "cluster" / "cluster.json").read_text())
        assert len(payload["labels"]) == 21
        assert (out / "cluster" / "dendrogram_all.newick").exists()
        assert set(payload["by_outlet"]) == {"daily-alpha", "daily-beta", "daily-gamma"}

    def test_geo_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["geo", "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 0
        payload = json.loads((out / "geo" / "geo.json").read_text())
        assert "daily-alpha" in payload["trends"]
        with (out / "geo" / "coverage_state.csv").open() as handle:
            header = handle.readline().strip()
        assert header == "year,outlet,place,count,share"

    def test_probe_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["probe", "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 0
        payload = json.loads((out / "probe" / "probe.json").read_text())
        entry = payload["daily-alpha"]
        assert len(entry["popularity"]) == 1  # 4 months span one year
        year, p_b, p_c = entry["popularity"][0]
        assert p_b + p_c == 1.0

    def test_probe_reads_no_party_lexicons(self, synth_dir, tmp_path):
        raw = json.loads((synth_dir / "config.json").read_text())
        raw["corpora"] = {k: str(synth_dir / v) for k, v in raw["corpora"].items()}
        (tmp_path / "broken.json").write_text("{", encoding="utf-8")
        raw["party_lexicons"] = str(tmp_path / "broken.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["probe", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert main(["metrics", "--config", str(config), "--out", str(tmp_path / "out")]) == 1

    def test_weat_requires_two_years(self, synth_dir, tmp_path):
        # the 4-month archive covers a single year: weat must exit with a data error
        out = tmp_path / "out"
        code = main(["weat", "--config", str(synth_dir / "config.json"), "--out", str(out)])
        assert code == 2

    def test_commands_run_independently(self, synth_dir, tmp_path):
        out = tmp_path / "solo"
        assert main(["geo", "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 0
        assert not (out / "metrics").exists()


def _without_series(metrics_entry: dict) -> dict:
    return {
        outlet: {m: {k: v for k, v in entry.items() if k != "series"} for m, entry in by_metric.items()}
        for outlet, by_metric in metrics_entry.items()
    }


def test_standalone_commands_equal_report(two_year_dir, tmp_path):
    """Each command run alone writes what report writes for it."""
    config = str(two_year_dir / "config.json")
    assert main(["report", "--config", config, "--out", str(tmp_path / "report")]) == 0
    bundle = json.loads((tmp_path / "report" / "report" / "bundle.json").read_text())["commands"]
    artifacts = {
        "metrics": "aggregates.json",
        "cluster": "cluster.json",
        "weat": "weat.json",
        "geo": "geo.json",
        "probe": "probe.json",
    }
    for command, artifact in artifacts.items():
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 0
        expected = _without_series(bundle["metrics"]) if command == "metrics" else bundle[command]
        assert json.loads((out / command / artifact).read_text()) == expected, command
        alone = {p.relative_to(out): p.read_bytes() for p in (out / command).rglob("*") if p.is_file()}
        in_report = {
            p.relative_to(tmp_path / "report"): p.read_bytes()
            for p in (tmp_path / "report" / command).rglob("*")
            if p.is_file()
        }
        del alone[Path(command, "provenance.json")], in_report[Path(command, "provenance.json")]
        assert alone == in_report, command


def _count_calls(monkeypatch, module, name: str, counts: Counter) -> None:
    """Count calls of module.name through every newsbalance module that holds it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for held_name, held in list(sys.modules.items()):
        if held_name.startswith("newsbalance") and getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, counted)


def test_report_splits_and_scores_each_article_once(two_year_dir, tmp_path, monkeypatch):
    raw = json.loads((two_year_dir / "config.json").read_text())
    articles = [a for path in raw["corpora"].values() for a in load_corpus(two_year_dir / path)[0]]
    matcher = build_matcher(default_party_lexicons())
    scored_units = sum(
        1 for article in articles for unit in article_sentences(article) if matcher.match_tokens(unit.tokens)
    )

    counts: Counter = Counter()
    _count_calls(monkeypatch, corpus, "load_corpus", counts)
    _count_calls(monkeypatch, corpus, "split_sentences", counts)
    _count_calls(monkeypatch, nlp, "sentence_sentiment", counts)
    _count_calls(monkeypatch, metrics, "compute_all_series", counts)
    _count_calls(monkeypatch, tagging, "build_monthly_documents", counts)
    _count_calls(monkeypatch, timeseries, "dtw_distance", counts)
    assert main(["report", "--config", str(two_year_dir / "config.json"), "--out", str(tmp_path)]) == 0

    assert counts["load_corpus"] == len(raw["corpora"])
    # weat's own pass plus the shared text table
    assert counts["split_sentences"] <= 2 * len(articles)
    assert 0 < counts["sentence_sentiment"] <= scored_units
    # the series once, from one document build per outlet and mode
    assert counts["compute_all_series"] == 1
    assert counts["build_monthly_documents"] == 2 * len(raw["corpora"])
    # one DTW distance per pair of clustered series
    labels = json.loads((tmp_path / "cluster" / "cluster.json").read_text())["labels"]
    assert counts["dtw_distance"] == len(labels) * (len(labels) - 1) // 2


@pytest.fixture(scope="module")
def prefix_dir(tmp_path_factory):
    """A small archive in which one outlet name is a prefix of another."""
    directory = tmp_path_factory.mktemp("prefix")
    code = main(
        ["synth", "--out", str(directory), "--seed", "7", "--months", "6",
         "--articles-per-month", "10"]
    )
    assert code == 0
    path = directory / "corpus" / "daily-alpha.jsonl"
    articles, _ = load_corpus(path)
    write_corpus([dataclasses.replace(a, outlet="daily") for a in articles], path)
    return directory


@pytest.mark.parametrize("znormalize", [False, True])
def test_subset_dendrograms_equal_clustering_each_subset_alone(prefix_dir, tmp_path, znormalize):
    """Trees cut from the one DTW matrix equal trees clustered from each subset's own series.

    "daily" < "daily-beta", but "daily-beta/m" < "daily/m", so a subset
    clustered in the order of its matrix rows would differ.
    """
    raw = json.loads((prefix_dir / "config.json").read_text())
    raw["corpora"] = {k: str(prefix_dir / v) for k, v in raw["corpora"].items()}
    raw["clustering"]["znormalize"] = znormalize
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "cluster" / "cluster.json").read_text())

    articles = [a for path in raw["corpora"].values() for a in load_corpus(path)[0]]
    tables = compute_all_series(articles, default_party_lexicons())
    outlets = sorted({a.outlet for a in articles})
    assert outlets == ["daily", "daily-beta", "daily-gamma"]

    def check(tree, stem, series):
        kept = {label: drop_missing(s.values()) for label, s in series.items()}
        kept = {label: z_normalize(v) if znormalize else v for label, v in kept.items() if v}
        if len(kept) < 2:
            assert tree is None, stem
            return
        expected = cluster(*distance_matrix(kept), linkage=raw["clustering"]["linkage"])
        assert tree == expected.root.to_dict(), stem
        newick = (out / "cluster" / f"dendrogram_{stem}.newick").read_text(encoding="utf-8")
        assert newick == expected.to_newick() + "\n", stem

    for metric_name, by_outlet in tables.items():
        check(payload["by_metric"].get(metric_name), f"metric_{metric_name}", by_outlet)
    for outlet in outlets:
        by_metric = {m: by_outlet[outlet] for m, by_outlet in tables.items()}
        check(payload["by_outlet"].get(outlet), f"outlet_{outlet}", by_metric)
    full = {f"{s.outlet}/{m}": s for m, by_outlet in tables.items() for s in by_outlet.values()}
    check(payload["overall"], "all", full)


def test_traced_report_calls_every_layer(two_year_dir, tmp_path):
    """Every function the benchmark's tracer wraps is still there and called by `report`.

    The tracer rebinds functions for its whole process, so it runs in its own.
    """
    spans = tmp_path / "report.spans"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "tracer.py"), "--spans", str(spans), "--",
         "report", "--config", str(two_year_dir / "config.json"), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.summarize([spans])["missing"] == []


def test_contract_violation_is_an_internal_error(synth_dir, tmp_path, monkeypatch, capsys):
    def broken(shares):
        raise ContractViolation("broken contract")

    monkeypatch.setattr(geo, "homogeneity_inverse_std", broken)
    assert main(["geo", "--config", str(synth_dir / "config.json"), "--out", str(tmp_path / "out")]) == 3
    assert "internal error: broken contract" in capsys.readouterr().err


def test_importing_the_cli_loads_no_network_client():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, newsbalance.cli; print([m for m in ('urllib.request', 'http.client') if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestSynth:
    def test_layout(self, synth_dir):
        assert (synth_dir / "config.json").exists()
        corpus_files = sorted(p.name for p in (synth_dir / "corpus").glob("*.jsonl"))
        assert corpus_files == ["daily-alpha.jsonl", "daily-beta.jsonl", "daily-gamma.jsonl"]

    def test_seeded_regeneration_identical(self, tmp_path):
        for name in ("one", "two"):
            assert main(["synth", "--out", str(tmp_path / name), "--seed", "3",
                         "--months", "2", "--articles-per-month", "5"]) == 0
        first = (tmp_path / "one" / "corpus" / "daily-alpha.jsonl").read_bytes()
        second = (tmp_path / "two" / "corpus" / "daily-alpha.jsonl").read_bytes()
        assert first == second


def test_output_dir_env_override(synth_dir, tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("NEWSBALANCE_OUT", str(target))
    assert main(["geo", "--config", str(synth_dir / "config.json")]) == 0
    assert (target / "geo" / "geo.json").exists()


def test_provenance_block_written(synth_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["metrics", "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 0
    provenance = json.loads((out / "metrics" / "provenance.json").read_text())
    assert set(provenance) >= {"command", "config_hash", "seed", "tool_version", "generated_at"}
    assert provenance["seed"] == 11
