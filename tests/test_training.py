"""SGNS jobs in worker processes: same bytes as inline training, errors, lifetime."""

from __future__ import annotations

import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from newsbalance import cli, training
from newsbalance.cli import RunContext, cmd_weat, main
from newsbalance.config import RunConfig
from newsbalance.corpus import article_units, load_corpus, partition, write_corpus
from newsbalance.embeddings import SgnsParams, save_binary, train_sgns
from newsbalance.training import SgnsJob, SgnsYear, year_seed
from oracles import reference_train_sgns

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """Three outlets over two years, so that weat runs and a worker has two outlets."""
    directory = tmp_path_factory.mktemp("archive")
    assert main(["synth", "--out", str(directory), "--seed", "5", "--months", "24",
                 "--articles-per-month", "10"]) == 0
    return directory


@pytest.fixture
def deadline():
    """Fails the test by an exception, rather than hanging, if a wait never ends."""

    def expire(signum, frame):
        raise TimeoutError("test still running after 300 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(300)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, count: int) -> None:
    """Make the CLI see `count` CPUs, so that it starts min(count, outlets) - 1 workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _config(archive: Path, tmp_path: Path, **embedding) -> Path:
    raw = json.loads((archive / "config.json").read_text())
    raw["corpora"] = {k: str(archive / v) for k, v in raw["corpora"].items()}
    raw["embedding"].update(embedding)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    return config


def _lowered_sentences(articles) -> list[list[str]]:
    """Each non-empty headline and content unit's tokens, each lowercased anew."""
    return [
        [t.lower() for t in unit]
        for headline, content in article_units(articles)
        for unit in (headline, *content)
        if unit
    ]


def _outlet_years(archive: Path) -> tuple[str, tuple]:
    """The first outlet's name and its (year, articles) partitions."""
    cfg = RunConfig.from_file(archive / "config.json")
    outlet = sorted(cfg.corpora)[0]
    articles, _ = load_corpus(archive / cfg.corpora[outlet])
    return outlet, tuple((year, group) for (_, year), group in partition(articles).items())


def test_year_sentences_share_one_string_per_lowercase_type(archive):
    _, years = _outlet_years(archive)
    lowered = {}
    shared = {}
    surfaces = {}
    for _, articles in years:
        sentences = training._year_sentences(article_units(articles), lowered)
        assert sentences == _lowered_sentences(articles)
        for token in (t for sentence in sentences for t in sentence):
            assert shared.setdefault(token, token) is token
    for surface, low in lowered.items():
        surfaces.setdefault(low, set()).add(surface)
    # Some forms have several surfaces ("The", "the"), which all share one string.
    assert any(len(forms) > 1 for forms in surfaces.values())


def test_result_records_what_each_year_trained_on(archive):
    """Tokens, vocabulary size and pairs per year, against the trainer oracle's counts."""
    outlet, years = _outlet_years(archive)
    params = SgnsParams(dim=8, window=3, negatives=3, epochs=2, min_count=2, subsample=1e-3)
    job = SgnsJob(outlet, 40, years, params)
    result = training.train_outlet(job, lambda year, articles: article_units(articles))
    assert result.outlet == outlet and len(result.years) == len(years) == 2
    for (year, articles), space, trained in zip(job.years, result.spaces, result.years):
        sentences = _lowered_sentences(articles)
        expected, pairs = reference_train_sgns(sentences, replace(params, seed=year_seed(40, outlet, year)), year=year)
        assert trained == SgnsYear(year, sum(len(s) for s in sentences), len(expected.vocab), pairs, trained.seconds)
        assert trained.seconds > 0 and pairs > 0
        np.testing.assert_array_equal(space.vectors.view(np.uint32), expected.vectors.view(np.uint32))


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_nbe_bytes_equal_inline_training(archive, tmp_path, monkeypatch, workers, deadline):
    """Every `.nbe` file equals train_sgns called here on its partition's sentences."""
    _cpus(monkeypatch, workers + 1)
    cfg = RunConfig.from_file(archive / "config.json")
    with RunContext(cfg) as ctx:
        cmd_weat(ctx, tmp_path / "out")
    _assert_no_child_left()

    e = cfg.embedding
    outlets = sorted(cfg.corpora)
    written = sorted(p.name for p in (tmp_path / "out" / "weat").glob("*.nbe"))
    assert written == [f"{outlet}_{year}.nbe" for outlet in outlets for year in (2010, 2011)]
    for outlet in outlets:
        articles, _ = load_corpus(archive / cfg.corpora[outlet])
        # A partition's order, which makes the models independent of record order.
        articles.sort(key=lambda a: (a.published, a.id, a.headline, a.content))
        for year in (2010, 2011):
            sentences = _lowered_sentences(a for a in articles if a.published.year == year)
            params = SgnsParams(
                dim=e.dim, window=e.window, negatives=e.negatives, epochs=e.epochs,
                min_count=e.min_count, subsample=e.subsample, seed=year_seed(cfg.seed, outlet, year),
            )
            expected = tmp_path / "expected.nbe"
            save_binary(train_sgns(sentences, params, year=year), expected)
            actual = tmp_path / "out" / "weat" / f"{outlet}_{year}.nbe"
            assert actual.read_bytes() == expected.read_bytes(), (workers, outlet, year)


def test_worker_data_error_has_the_inline_message(archive, tmp_path, monkeypatch, capsys, deadline):
    """A job that fails in a worker exits 2 with the message the inline job gives."""
    # One article a year for the last outlet: its vocabulary is empty at a
    # min_count that the other outlets' full years pass.
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    raw = json.loads((archive / "config.json").read_text())
    for outlet, relative in raw["corpora"].items():
        articles, _ = load_corpus(archive / relative)
        if outlet == "daily-gamma":
            articles = [next(a for a in articles if a.published.year == y) for y in (2010, 2011)]
        write_corpus(articles, corpus_dir / f"{outlet}.jsonl")
        raw["corpora"][outlet] = str(corpus_dir / f"{outlet}.jsonl")
    raw["embedding"]["min_count"] = 40
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")

    messages = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        capsys.readouterr()
        assert main(["weat", "--config", str(config), "--out", str(tmp_path / f"out{cpus}")]) == 2
        messages[cpus] = capsys.readouterr().err
        _assert_no_child_left()
    assert messages[1] == messages[2] == "data error: vocabulary empty after min_count=40 filtering\n"


def test_one_year_outlet_fails_before_any_training(archive, tmp_path, monkeypatch, capsys, deadline):
    """`report` names the one-year outlet, and neither trains nor writes a text artifact first."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    raw = json.loads((archive / "config.json").read_text())
    for outlet, relative in raw["corpora"].items():
        articles, _ = load_corpus(archive / relative)
        if outlet == "daily-gamma":
            articles = [a for a in articles if a.published.year == 2010]
        write_corpus(articles, corpus_dir / f"{outlet}.jsonl")
        raw["corpora"][outlet] = str(corpus_dir / f"{outlet}.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "train_outlet", None)  # a call would be a TypeError: exit 3
    monkeypatch.setattr(cli, "SgnsWorkers", None)
    assert main(["report", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "data error: outlet daily-gamma: popularity timeline needs >= 2 years\n"
    assert not (tmp_path / "out" / "metrics").exists()
    _assert_no_child_left()


def test_dead_worker_is_an_internal_error(archive, tmp_path, monkeypatch, capsys, deadline):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(training, "_WORKER_CODE", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)")
    assert main(["report", "--config", str(archive / "config.json"), "--out", str(tmp_path)]) == 3
    assert "internal error: SGNS worker" in (err := capsys.readouterr().err)
    assert "exited with status -9" in err
    _assert_no_child_left()


def test_no_child_left_after_report(archive, tmp_path, monkeypatch, caplog, deadline):
    _cpus(monkeypatch, 2)
    with caplog.at_level(logging.INFO, logger="newsbalance.cli"):
        assert main(["report", "--config", str(archive / "config.json"), "--out", str(tmp_path)]) == 0
    _assert_no_child_left()
    # --verbose names, for each outlet, the process that trained it, its years and tokens.
    jobs = [r.getMessage() for r in caplog.records if r.getMessage().startswith("SGNS ")]
    assert [m.split(":")[0] for m in jobs] == ["SGNS daily-alpha", "SGNS daily-beta", "SGNS daily-gamma"]
    assert jobs[0].endswith("in this process")
    assert all(m.endswith("in worker 1") and "years 2010,2011," in m for m in jobs[1:])
    # ... and for each (outlet, year), its tokens, vocabulary size, pairs and seconds.
    years = [r.getMessage() for r in caplog.records if re.fullmatch(
        r"daily-\w+ 201[01]: \d+ tokens, vocabulary \d+, \d+ pairs, \d+\.\d\d s", r.getMessage())]
    assert [m.split(":")[0] for m in years] == [f"daily-{o} {y}" for o in ("alpha", "beta", "gamma") for y in (2010, 2011)]


def test_no_child_left_after_a_data_error_in_this_process(archive, tmp_path, monkeypatch, deadline):
    """Every outlet fails, the first one here while the worker trains the others."""
    _cpus(monkeypatch, 2)
    config = _config(archive, tmp_path, min_count=10**6)
    assert main(["report", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    _assert_no_child_left()


# Starts one worker on a share of many years, prints its pid, then ends
# itself by SIGKILL, which leaves it no chance to stop the worker.
_ORPHANING_PARENT = """
import os, signal, sys, time
from newsbalance.config import RunConfig
from newsbalance.corpus import load_corpus
from newsbalance.embeddings import SgnsParams
from newsbalance.training import SgnsJob, SgnsWorkers

cfg = RunConfig.from_file(sys.argv[1])
e = cfg.embedding
articles, _ = load_corpus(cfg.corpora["daily-alpha"])
year = tuple(a for a in articles if a.published.year == 2010)
params = SgnsParams(dim=e.dim, window=e.window, negatives=e.negatives, epochs=e.epochs,
                    min_count=e.min_count, subsample=e.subsample)
# About 0.1 s a year on a 2-core VM, so the share alone would train for about a minute.
job = SgnsJob("daily-alpha", 0, tuple((2010 + i, year) for i in range(600)), params)
workers = SgnsWorkers([[job]])
print(workers._running[0][0].pid, flush=True)
time.sleep(1)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie that nobody has reaped yet."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_worker_stops_once_its_parent_is_killed(archive, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_PARENT, str(archive / "config.json")],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    worker = int(parent.stdout.readline())
    parent.stdout.close()
    try:
        assert parent.wait(timeout=60) == -signal.SIGKILL
        waited = 0.0
        while _running(worker) and waited < 20:
            time.sleep(0.1)
            waited += 0.1
        assert not _running(worker), "the worker trained on after its parent was killed"
    finally:
        if _running(worker):
            os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads sessions from /proc")
def test_report_leaves_no_process_in_its_session(archive, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "newsbalance.cli", "report", "--config", str(archive / "config.json"),
         "--out", str(tmp_path)],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL,
    )
    assert process.wait(timeout=300) == 0
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while the directory was listed
        if int(fields[3]) == process.pid:  # the session id
            left.append(stat.parent.name)
    assert left == []
