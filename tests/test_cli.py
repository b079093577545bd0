from __future__ import annotations

import ast
import copy
import csv
import dataclasses
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from newsbalance import corpus, geo, metrics, tagging, timeseries
from newsbalance.cli import RunContext, main
from newsbalance.config import RunConfig
from newsbalance.corpus import article_sentences, load_corpus, write_corpus
from newsbalance.errors import ConfigError, ContractViolation
from newsbalance.metrics import AnalyzerSuite, MetricId
from newsbalance.tagging import build_matcher, default_party_lexicons
from newsbalance.timeseries import cluster, distance_matrix, drop_missing, z_normalize

from conftest import fold_series, make_article

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

    @pytest.mark.parametrize(
        "key, text", [("valence", "good\tinf\n"), ("valence", "good\tnan\n"), ("subjectivity", "loud\tabc\n")]
    )
    def test_bad_lexicon_score_is_a_config_error(self, tmp_path, synth_dir, capsys, key, text):
        lexicon = tmp_path / f"{key}.tsv"
        lexicon.write_text(text, encoding="utf-8")
        config = self._rewritten_config(synth_dir, tmp_path, analyzers={key: str(lexicon)})
        assert main(["validate", "--config", str(config)]) == 1
        assert main(["metrics", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {lexicon}:1: ")

    def test_one_place_states_list_rejected(self, tmp_path, synth_dir, capsys):
        states = tmp_path / "states.txt"
        states.write_text("Kerala\n", encoding="utf-8")
        config = self._rewritten_config(synth_dir, tmp_path, gazetteer={"cities": None, "states": str(states)})
        assert main(["validate", "--config", str(config)]) == 1
        assert "states list needs at least 2 places" in capsys.readouterr().err

    def test_tokenless_place_name_rejected(self, tmp_path, synth_dir, capsys):
        states = tmp_path / "states.txt"
        states.write_text("Kerala\n!!!\n", encoding="utf-8")
        config = self._rewritten_config(synth_dir, tmp_path, gazetteer={"cities": None, "states": str(states)})
        assert main(["validate", "--config", str(config)]) == 1
        assert main(["geo", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.count(f"config error: {states}:2: name '!!!' has no word tokens\n") == 2

    @pytest.mark.parametrize(
        "lexicons, message",
        [
            ({"bjp": ["BJP"], "congress": ["Congress"], "aap": ["AAP"]}, "exactly 2 party lexicons, got 3"),
            ({"bjp": ["BJP"]}, "exactly 2 party lexicons, got 1"),
            ({"bjp": ["Bharatiya Janata Party"], "congress": ["Congress"]}, "association set s1 is empty"),
        ],
        ids=["three", "one", "no-single-token"],
    )
    def test_party_setups_weat_rejects(self, tmp_path, synth_dir, capsys, lexicons, message):
        path = tmp_path / "lexicons.json"
        path.write_text(json.dumps(lexicons), encoding="utf-8")
        config = self._rewritten_config(synth_dir, tmp_path, party_lexicons=str(path))
        assert main(["validate", "--config", str(config)]) == 1
        assert main(["weat", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("outlet", ["../../k", "daily,alpha", "daily:alpha", "daily(alpha)", "-daily", ".daily"])
    def test_unsafe_outlet_key_rejected(self, tmp_path, synth_dir, capsys, outlet):
        """A config key names the skip report and every per-outlet artifact."""
        corpus_path = tmp_path / "corpus.jsonl"
        lines = (synth_dir / "corpus" / "daily-alpha.jsonl").read_text(encoding="utf-8")
        corpus_path.write_text("not json\n" + lines, encoding="utf-8")
        config = self._rewritten_config(synth_dir, tmp_path)
        raw = json.loads(config.read_text())
        raw["corpora"][outlet] = str(corpus_path)
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 1
        assert f"outlet {outlet!r} is not letters, digits" in capsys.readouterr().err
        assert main(["metrics", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert sorted(p.name for p in tmp_path.rglob("*.jsonl")) == ["corpus.jsonl"]

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
            (None, "corpora", {"daily-alpha": None}),
            ("probe", "smoothing", "inf"),
            ("embedding", "subsample", "nan"),
            (None, "metrics", []),
            (None, "metrics", ["cov_head", "cov_head"]),
            ("weat", "attributes_positive", ["good good"]),
            ("weat", "attributes_positive", [""]),
            ("weat", "attributes_positive", ["Good"]),
            ("probe", "party_tokens", ["BJP", "BJP"]),
            ("gazetteer", "cities", "."),
            (None, "embedding", {"dim": 2000}),
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

    @pytest.mark.parametrize("value", [5.0, "5"])
    def test_seed_written_otherwise_is_converted(self, tmp_path, synth_dir, value):
        config = self._rewritten_config(synth_dir, tmp_path, seed=value)
        assert RunConfig.from_file(config).seed == 5


def _key_paths(node: dict, path: tuple = ()):
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


# A mutation drops a key of the sample config or sets it to a value of another
# JSON type, out of range, non-finite, empty, repeated or naming a file of the
# wrong kind.
_MUTANT_VALUES = [
    None, True, False, 0, -1, 1, 2.5, float("inf"), float("nan"), "", "x", "-1", "inf", "Good",
    "good good", "2010-13-01", "corpus/daily-beta.jsonl", [], [0], ["BJP", "BJP"], ["good"],
    ["cov_head", "cov_head"], {}, {"x": 1},
]
_KEY_PATHS = st.sampled_from(list(_key_paths(json.loads(SAMPLE_CONFIG.read_text()))))
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), _KEY_PATHS),
    st.tuples(st.just("set"), _KEY_PATHS, st.sampled_from(_MUTANT_VALUES)),
)


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def mutant_dir(synth_dir, tmp_path_factory):
    """A directory for mutated configs whose `corpus` links to the synth corpus,
    so the synth config's relative paths resolve from it."""
    directory = tmp_path_factory.mktemp("mutant")
    (directory / "corpus").symlink_to(synth_dir / "corpus")
    return directory


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutations=st.lists(_MUTATIONS, min_size=1, max_size=2))
@example(mutations=[("set", ("corpora", "daily-alpha"), None)])
@example(mutations=[("set", ("probe", "smoothing"), "inf")])
def test_validate_rejects_what_a_command_would(synth_dir, mutant_dir, mutations):
    """`validate` exits 0 or 1; once it accepts a config, no command fails it
    (exit 1) or crashes (exit 3), and every JSON artifact is strict JSON."""
    raw = json.loads((synth_dir / "config.json").read_text())
    for op, path, *value in mutations:
        parent = raw
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue  # an earlier mutation replaced the section
        if op == "drop":
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(value[0])
    config = mutant_dir / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["validate", "--config", str(config)])
    assert code in (0, 1)
    if code == 1:
        return
    out = mutant_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    for command in ("metrics", "cluster", "geo", "probe"):
        assert main([command, "--config", str(config), "--out", str(out)]) in (0, 2), command
    for artifact in out.rglob("*.json"):
        _strict_json(artifact.read_text(encoding="utf-8"))


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

    def test_unsafe_record_outlet_is_skipped(self, synth_dir, tmp_path):
        """A record's outlet names files, so one that is not a safe name is skipped and reported."""
        directory = tmp_path / "archive"
        shutil.copytree(synth_dir / "corpus", directory / "corpus")
        shutil.copy(synth_dir / "config.json", directory / "config.json")
        path = directory / "corpus" / "daily-alpha.jsonl"
        articles, _ = load_corpus(path)
        write_corpus([dataclasses.replace(a, outlet="../../escaped") for a in articles], path)
        out = directory / "out"
        assert main(["metrics", "--config", str(directory / "config.json"), "--out", str(out)]) == 0
        assert list(tmp_path.rglob("escaped*")) == []
        assert {p.name.split("__")[0] for p in (out / "metrics").glob("*.csv")} == {"daily-beta", "daily-gamma"}
        skips = [json.loads(line) for line in (out / "metrics" / "skips" / "daily-alpha.jsonl").open()]
        assert len(skips) == len(articles)
        assert {s["reason"] for s in skips} == {"outlet is not a safe name: '../../escaped'"}


def test_corpus_line_not_utf8_is_skipped(synth_dir, tmp_path):
    """A line that is not UTF-8 is a skipped record, and later lines keep their numbers."""
    directory = tmp_path / "archive"
    shutil.copytree(synth_dir / "corpus", directory / "corpus")
    shutil.copy(synth_dir / "config.json", directory / "config.json")
    path = directory / "corpus" / "daily-alpha.jsonl"
    lines = len(path.read_bytes().splitlines())
    with path.open("ab") as handle:
        handle.write(b"\xff\xfe bad line\n{not json\n")
    out = directory / "out"
    assert main(["metrics", "--config", str(directory / "config.json"), "--out", str(out)]) == 0
    skips = [json.loads(line) for line in (out / "metrics" / "skips" / "daily-alpha.jsonl").open()]
    assert [s["line"] for s in skips] == [lines + 1, lines + 2]
    assert skips[0]["reason"] == "invalid UTF-8" and skips[1]["reason"].startswith("invalid JSON")


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[" * 100_000, "invalid JSON: nesting too deep"),
        ('{"id": ' + "7" * 5000 + "}", "invalid JSON: integer too long"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_json_the_decoder_cannot_hold_is_skipped(two_year_dir, tmp_path, line, reason):
    """A line too deep or with an integer too long for Python's JSON decoder
    is a skipped record, not a crash."""
    directory = tmp_path / "archive"
    shutil.copytree(two_year_dir / "corpus", directory / "corpus")
    shutil.copy(two_year_dir / "config.json", directory / "config.json")
    path = directory / "corpus" / "daily-alpha.jsonl"
    lines = len(path.read_bytes().splitlines())
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    for command in ("metrics", "report"):
        out = directory / f"out-{command}"
        assert main([command, "--config", str(directory / "config.json"), "--out", str(out)]) == 0
        skips = [json.loads(row) for row in (out / "metrics" / "skips" / "daily-alpha.jsonl").open()]
        assert skips == [{"line": lines + 1, "reason": reason}]


@pytest.mark.parametrize("command", ["metrics", "report"])
def test_out_naming_a_file_is_a_config_error(synth_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main([command, "--config", str(synth_dir / "config.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {out / command}: ")
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_report_fails_on_a_bad_weat_setup_before_anything_runs(two_year_dir, tmp_path, capsys):
    lexicons = tmp_path / "lexicons.json"
    lexicons.write_text(json.dumps({"bjp": ["Bharatiya Janata Party"], "congress": ["Congress"]}), encoding="utf-8")
    raw = json.loads((two_year_dir / "config.json").read_text())
    raw["corpora"] = {k: str(two_year_dir / v) for k, v in raw["corpora"].items()}
    raw["party_lexicons"] = str(lexicons)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: association set s1 is empty: party 'bjp' in {lexicons} has no single-token phrase\n"
    )
    assert not out.exists() or list(out.iterdir()) == []


def test_overlong_token_is_a_data_error(two_year_dir, tmp_path, capsys):
    """A token too long for the embedding file fails `weat` with exit 2, and leaves no model file."""
    raw = json.loads((two_year_dir / "config.json").read_text())
    raw["corpora"] = {k: str(two_year_dir / v) for k, v in raw["corpora"].items()}
    articles, _ = load_corpus(raw["corpora"]["daily-alpha"])
    word = "a" * 70_000
    articles[:20] = [dataclasses.replace(a, content=f"{a.content} {word} and {word}.") for a in articles[:20]]
    assert {a.published.year for a in articles[:20]} == {2010}
    raw["corpora"]["daily-alpha"] = str(tmp_path / "daily-alpha.jsonl")
    write_corpus(articles, raw["corpora"]["daily-alpha"])
    raw["embedding"].update(dim=8, epochs=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["weat", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "data error: year-2010 vocabulary holds a token of 70000 UTF-8 bytes"
    )
    assert not (out / "weat" / "daily-alpha_2010.nbe").exists()


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


def _report_tree(config: Path, out: Path) -> dict[Path, bytes]:
    """Every file `report` writes, with the values of generated_at and config_hash blanked."""
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    stamp = re.compile(rb'"(generated_at|config_hash)": "[^"]*"')
    return {p.relative_to(out): stamp.sub(b"", p.read_bytes()) for p in sorted(out.rglob("*")) if p.is_file()}


def test_report_is_independent_of_record_order(two_year_dir, tmp_path):
    """Shuffled records, and each outlet's records split across two files, give
    the report tree of the archive as written, `.nbe` files included. Split
    files whose records share ids give one tree whichever file loads first."""
    raw = json.loads((two_year_dir / "config.json").read_text())
    rng = random.Random(3)
    shuffled, split, shared = tmp_path / "shuffled", tmp_path / "split", tmp_path / "shared"
    for directory in (shuffled, split, shared):
        (directory / "corpus").mkdir(parents=True)
    split_corpora = {}
    shared_corpora = {}
    for outlet, relative in raw["corpora"].items():
        lines = (two_year_dir / relative).read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        (shuffled / relative).write_text("".join(lines), encoding="utf-8")
        # The second file's records keep their own `outlet` field.
        for name, part in ((outlet, lines[::2]), (f"{outlet}-more", lines[1::2])):
            (split / "corpus" / f"{name}.jsonl").write_text("".join(part), encoding="utf-8")
            split_corpora[name] = f"corpus/{name}.jsonl"
        # The second file reuses the first file's ids, so a month holds two
        # articles of one outlet under each id.
        first = [json.loads(line) for line in lines[::2]]
        second = [{**json.loads(line), "id": twin["id"]} for line, twin in zip(lines[1::2], first)]
        for name, part in ((f"{outlet}-1", first), (f"{outlet}-2", second)):
            (shared / "corpus" / f"{name}.jsonl").write_text(
                "".join(json.dumps(record) + "\n" for record in part), encoding="utf-8"
            )
            shared_corpora[name] = f"corpus/{name}.jsonl"
    shutil.copy(two_year_dir / "config.json", shuffled / "config.json")
    (split / "config.json").write_text(json.dumps({**raw, "corpora": split_corpora}), encoding="utf-8")

    expected = _report_tree(two_year_dir / "config.json", tmp_path / "out")
    assert sum(p.suffix == ".nbe" for p in expected) == 6
    for variant in (shuffled, split):
        actual = _report_tree(variant / "config.json", tmp_path / f"out-{variant.name}")
        assert sorted(p for p in expected if expected[p] != actual.get(p)) == [], variant.name
        assert actual.keys() == expected.keys(), variant.name

    # Files load in the order of their config keys: swap which file each key names.
    trees = []
    for order in ("forward", "swapped"):
        corpora = {}
        for outlet in raw["corpora"]:
            files = [shared_corpora[f"{outlet}-1"], shared_corpora[f"{outlet}-2"]]
            if order == "swapped":
                files.reverse()
            corpora.update({f"{outlet}-a": files[0], f"{outlet}-b": files[1]})
        config = shared / f"config-{order}.json"
        config.write_text(json.dumps({**raw, "corpora": corpora}), encoding="utf-8")
        trees.append(_report_tree(config, tmp_path / f"out-shared-{order}"))
    assert sorted(p for p in trees[0] if trees[0][p] != trees[1].get(p)) == []
    assert trees[0].keys() == trees[1].keys()


def test_partition_order_is_total(tmp_path):
    """Articles that share outlet, date and id across files take one order."""
    articles = [
        make_article(id="x", headline="b", content="One two."),
        make_article(id="x", headline="a", content="Three four."),
        make_article(id="x", headline="a", content="Five six."),
        make_article(id="w", published="2010-01-20"),
    ]
    files = {"1.jsonl": articles[:1], "2.jsonl": articles[1:2], "3.jsonl": articles[:1:-1]}
    for name, part in files.items():
        write_corpus(part, tmp_path / name)
    orders = []
    # Files load in the order of their config keys.
    for names in (["1.jsonl", "2.jsonl", "3.jsonl"], ["3.jsonl", "2.jsonl", "1.jsonl"]):
        cfg = RunConfig.from_dict({"corpora": dict(zip("abc", names))}, tmp_path)
        with RunContext(cfg) as ctx:
            orders.append(ctx.partitions)
    assert orders[0] == orders[1] == {("daily-alpha", 2010): (articles[2], articles[1], articles[0], articles[3])}


def _count_calls(monkeypatch, owner, name: str, counts: Counter, size=None) -> None:
    """Count calls of owner.name: a method of the class `owner`, or a function
    of the module `owner` through every newsbalance module that holds it.
    With `size`, also sum size(first argument) under counts[name, "size"]."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        if size is not None:
            counts[name, "size"] += size(args[0])
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
        return
    for held_name, held in list(sys.modules.items()):
        if held_name.startswith("newsbalance") and getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, counted)


def test_report_splits_and_scores_each_article_once(two_year_dir, tmp_path, monkeypatch):
    raw = json.loads((two_year_dir / "config.json").read_text())
    articles = [a for path in raw["corpora"].values() for a in load_corpus(two_year_dir / path)[0]]
    partitions = {(a.outlet, a.published.year) for a in articles}
    matcher = build_matcher(default_party_lexicons())
    scored_units = sum(
        1 for article in articles for unit in article_sentences(article) if matcher.match_tokens(unit)
    )

    counts: Counter = Counter()
    _count_calls(monkeypatch, corpus, "load_corpus", counts)
    _count_calls(monkeypatch, corpus, "split_sentences", counts)
    _count_calls(monkeypatch, AnalyzerSuite, "features", counts)
    _count_calls(monkeypatch, metrics, "compute_all_series", counts)
    _count_calls(monkeypatch, tagging, "build_monthly_documents", counts)
    _count_calls(monkeypatch, timeseries, "dtw_distance", counts)
    _count_calls(monkeypatch, geo, "count_mentions", counts, size=len)
    _count_calls(monkeypatch, tagging.PhraseMatcher, "match_tokens", counts)
    # With 2 CPUs a worker trains two of the three outlets; with 1, this process trains all three.
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        counts.clear()
        out = tmp_path / f"cpus{cpus}"
        assert main(["report", "--config", str(two_year_dir / "config.json"), "--out", str(out)]) == 0

        assert counts["load_corpus"] == len(raw["corpora"]), cpus
        # SGNS here trains from the units the other commands share
        assert counts["split_sentences"] == len(articles), cpus
        assert 0 < counts["features"] <= scored_units
        # the series once, from one document build per (outlet, year) partition and mode
        assert counts["compute_all_series"] == 1
        assert counts["build_monthly_documents"] == 2 * len(partitions)
        # one DTW distance per pair of clustered series
        labels = json.loads((out / "cluster" / "cluster.json").read_text())["labels"]
        assert counts["dtw_distance"] == len(labels) * (len(labels) - 1) // 2
        # one gazetteer scan per article, for both levels; only geo matches tokens
        assert counts["count_mentions"] == len(partitions)
        assert counts["count_mentions", "size"] == len(articles)
        assert counts["match_tokens"] == len(articles)


def test_coverage_metrics_alone_featurize_no_unit(two_year_dir, tmp_path, monkeypatch):
    """With only the coverage metrics configured, no unit gets a feature row,
    and their series are the ones the default metrics give. Either way the
    party matcher matches each headline and each content unit once."""
    raw = json.loads((two_year_dir / "config.json").read_text())
    raw["corpora"] = {k: str(two_year_dir / v) for k, v in raw["corpora"].items()}
    articles = [a for path in raw["corpora"].values() for a in load_corpus(path)[0]]
    content_units = sum(len(article_sentences(a)) for a in articles)
    raw["metrics"] = ["cov_head", "cov_content"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    counts: Counter = Counter()
    _count_calls(monkeypatch, AnalyzerSuite, "features", counts)
    _count_calls(monkeypatch, tagging.PhraseMatcher, "match_tokens", counts)
    _count_calls(monkeypatch, tagging.PhraseMatcher, "match_spans", counts)
    assert main(["metrics", "--config", str(config), "--out", str(tmp_path / "coverage")]) == 0
    assert counts["features"] == 0
    # headline mode matches each headline, content mode each content unit, by their spans
    assert counts["match_spans"] == len(articles) + content_units
    assert counts["match_tokens"] == 0
    counts.clear()
    assert main(["metrics", "--config", str(two_year_dir / "config.json"), "--out", str(tmp_path / "all")]) == 0
    assert counts["features"] > 0
    assert counts["match_spans"] == len(articles) + content_units
    assert counts["match_tokens"] == 0

    coverage = {p.name: p.read_bytes() for p in (tmp_path / "coverage" / "metrics").glob("*.csv")}
    assert len(coverage) == 2 * len(raw["corpora"])
    assert coverage == {
        p.name: p.read_bytes() for p in (tmp_path / "all" / "metrics").glob("*__cov_*.csv")
    }


def test_report_is_independent_of_blas_threads(two_year_dir, tmp_path):
    """`report` writes one tree, `.nbe` files included, whether BLAS and OpenMP
    run one thread or as many as they choose; the alignment uses `@` and `svd`."""
    trees = []
    for name in ("one-thread", "unset"):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if name == "one-thread":
            env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "newsbalance.cli", "report", "--config", str(two_year_dir / "config.json"),
             "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        stamp = re.compile(rb'"generated_at": "[^"]*"')
        trees.append({p.relative_to(out): stamp.sub(b"", p.read_bytes()) for p in out.rglob("*") if p.is_file()})
    assert sum(p.suffix == ".nbe" for p in trees[0]) == 6
    assert sorted(p for p in trees[0] if trees[0][p] != trees[1].get(p)) == []
    assert trees[0].keys() == trees[1].keys()


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
    tables = fold_series(articles, list(MetricId), AnalyzerSuite.default(default_party_lexicons()))
    outlets = sorted({a.outlet for a in articles})
    assert outlets == ["daily", "daily-beta", "daily-gamma"]

    def check(tree, stem, series):
        kept = {label: drop_missing(s.values()) for label, s in series.items()}
        kept = {label: z_normalize(v) if znormalize else v for label, v in kept.items() if v}
        if len(kept) < 2:
            assert tree is None, stem
            return
        expected = cluster(*distance_matrix(kept), linkage=raw["clustering"]["linkage"])
        assert tree == expected.to_dict(), stem
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


def test_csv_artifacts_are_payload_tables(two_year_dir, tmp_path):
    """Every CSV of the report tree is one dialect (LF, minimal quoting) and
    holds its command's bundle rows, None read back as an empty cell.

    One outlet has no articles in the archive's second month, so its series
    have missing months."""
    directory = tmp_path / "archive"
    shutil.copytree(two_year_dir / "corpus", directory / "corpus")
    shutil.copy(two_year_dir / "config.json", directory / "config.json")
    path = directory / "corpus" / "daily-alpha.jsonl"
    articles, _ = load_corpus(path)
    second = sorted({(a.published.year, a.published.month) for a in articles})[1]
    write_corpus([a for a in articles if (a.published.year, a.published.month) != second], path)
    out = tmp_path / "out"
    assert main(["report", "--config", str(directory / "config.json"), "--out", str(out)]) == 0
    texts = [p for p in out.rglob("*") if p.suffix in (".csv", ".json", ".jsonl", ".newick")]
    assert {p.suffix for p in texts} == {".csv", ".json", ".newick"}
    assert [p for p in texts if b"\r" in p.read_bytes()] == []

    tables = {}
    for path in out.rglob("*.csv"):
        with path.open(newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert {len(row) for row in rows} == {len(header)}, path
        tables[path.relative_to(out).as_posix()] = [header, *rows]
    assert len(tables) == 27

    def cells(rows):
        return [["" if v is None else str(v) for v in row] for row in rows]

    bundle = json.loads((out / "report" / "bundle.json").read_text())["commands"]
    expected = {}
    for outlet, by_metric in bundle["metrics"].items():
        for metric_name, entry in by_metric.items():
            header = ["month", "score_b", "score_c", "imbalance"]
            expected[f"metrics/{outlet}__{metric_name}.csv"] = [header, *cells(entry["series"])]
    clusters = bundle["cluster"]
    expected["cluster/distance_matrix.csv"] = [
        ["", *clusters["labels"]],
        *cells([label, *row] for label, row in zip(clusters["labels"], clusters["distance_matrix"])),
    ]
    expected["geo/trends_state.csv"] = [
        ["outlet", "year", "inverse_std", "bottom20_pct", "bottom50_pct"],
        *cells([outlet, *row] for outlet, rows in bundle["geo"]["trends"].items() for row in rows),
    ]
    expected["probe/popularity.csv"] = [
        ["outlet", "year", "p_BJP", "p_Congress"],
        *cells([outlet, *row] for outlet, entry in bundle["probe"].items() for row in entry["popularity"]),
    ]
    expected["weat/popularity.csv"] = [
        ["outlet", "year", "group1", "group2", "weat_score"],
        *cells(
            [outlet, year, g1, g2, entry["weat_scores"][str(year)]]
            for outlet, entry in bundle["weat"].items()
            for year, g1, g2 in zip(entry["years"], entry["group1"], entry["group2"])
        ),
    ]
    assert {name: tables[name] for name in expected} == expected
    assert [row[3] for row in expected["metrics/daily-alpha__cov_head.csv"][1:]].count("") == 1
    assert sorted(set(tables) - set(expected)) == ["geo/coverage_city.csv", "geo/coverage_state.csv"]


def test_only_the_cli_imports_csv():
    """The CSV dialect is the CLI's: no other package module writes or reads CSV."""
    importers = []
    for path in sorted((REPO_ROOT / "src" / "newsbalance").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["cli.py"]


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
