"""Self-test of the benchmark's tracer.

Run from the root of a checkout (it is not collected by the repository's own
test run, because it starts full traced CLI runs)::

    python3 -m pytest -q perfbench/check_tracer.py

It traces a small ``report`` twice and requires every count to repeat
exactly, and it checks the self-time arithmetic on a hand-built call tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work" / "check_tracer"


def _traced_report(archive: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NEWSBALANCE_OUT", None)
    spans = WORK / f"{name}.spans"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans", str(spans), "--",
         "report", "--config", str(archive / "config.json"), "--out", str(WORK / name)],
        cwd=ROOT, env=env, check=True, capture_output=True,
    )
    return tracer.summarize([spans])


@pytest.fixture(scope="module")
def archive() -> Path:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "newsbalance.cli", "synth", "--out", str(WORK / "archive"),
         "--seed", "5", "--articles-per-month", "10"],
        cwd=ROOT, env=env, check=True, capture_output=True,
    )
    return WORK / "archive"


def test_counts_repeat_exactly(archive):
    first = _traced_report(archive, "first")
    second = _traced_report(archive, "second")
    assert first["missing"] == [] and second["missing"] == []
    assert first["calls"] == second["calls"]
    assert first["work"] == second["work"]
    assert first["calls"]["corpus.load_corpus"] == 15
    assert first["calls"]["timeseries.dtw_distance"] == 504


def test_self_time_excludes_children_and_uncalled_functions_are_missing():
    spans = tracer.Tracer()
    inner = spans.wrap("probe.query", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = spans.wrap("probe.popularity_pair", outer_body)
    outer()
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "tree.spans"
    spans.write(path)
    summary = tracer.summarize([path])

    assert summary["calls"] == {"probe.query": 2, "probe.popularity_pair": 1}
    outer_self = summary["self_s"]["probe.popularity_pair"]
    assert summary["incl_s"]["probe.popularity_pair"] >= 0.05
    assert 0.01 <= outer_self < 0.02
    assert summary["self_s"]["probe.query"] == pytest.approx(summary["incl_s"]["probe.query"])
    assert "probe.query" not in summary["missing"]
    assert "corpus.tokenize" in summary["missing"]
