"""End-to-end benchmark of the newsbalance command-line interface.

Each run generates its workload's archive with ``newsbalance synth --seed
SEED`` (five times, to time set-up), then runs ``newsbalance report`` as a
closed loop from this one process: each call starts after the previous one
has exited. Repetitions continue while the next one is expected to finish
within ``--seconds``, and at least one always runs. Every call's outputs are
checked (see README.md in this directory).

With ``--trace 1`` the run adds one ``report`` under ``tracer.py`` and one
pass of the five stand-alone commands, and reports per-layer metrics instead
of end-to-end ones. ``--workload all`` runs every workload traced and prints
every metric of both kinds.

Run it from the root of a newsbalance checkout; the CLI is imported from
``./src``::

    python3 perfbench/run.py --workload report-1x --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# Stand-alone command -> the artifact that must equal report's bundle entry.
STANDALONE_ARTIFACTS = {
    "metrics": "aggregates.json",
    "cluster": "cluster.json",
    "weat": "weat.json",
    "geo": "geo.json",
    "probe": "probe.json",
}
# Workload name -> ``synth`` arguments. Headline coverage is planted at
# exactly 70/30 only when 0.7 x articles-per-month is a whole number.
WORKLOADS = {
    "report-1x": (),
    "report-long": ("--months", "144", "--articles-per-month", "10"),
}


@dataclasses.dataclass
class Call:
    """One finished CLI process."""

    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class BenchmarkError(Exception):
    """Set-up failed, so the run cannot produce a result."""


class Runner:
    """Starts CLI processes from the checkout's sources and times each one."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "NEWSBALANCE_OUT"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(tmp)
        self.log = work / "cli.log"

    def run(self, argv: list[str]) -> Call:
        with self.log.open("ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode("utf-8"))
            log.flush()
            start = time.perf_counter()
            process = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                process.kill()
                process.wait()
                raise
            wall = time.perf_counter() - start
        # Reaped by wait4 already; recording the code stops Popen waiting again.
        process.returncode = os.waitstatus_to_exitcode(status)
        return Call(
            args=tuple(argv),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=process.returncode,
        )

    def cli(self, *args: str, spans: Path | None = None) -> Call:
        if spans is None:
            return self.run([sys.executable, "-m", "newsbalance.cli", *args])
        script = Path(__file__).with_name("tracer.py")
        return self.run([sys.executable, str(script), "--spans", str(spans), "--", *args])


# ------------------------------------------------------------------ inputs

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def describe_inputs(root: Path, workload: str, seed: int, archive: Path) -> dict:
    """Everything that decides what a run measured, apart from the code's speed."""
    config = json.loads((archive / "config.json").read_text(encoding="utf-8"))
    start, end = config["date_range"]["start"], config["date_range"]["end"]
    files = {}
    articles = 0
    for outlet, relative in sorted(config["corpora"].items()):
        path = archive / relative
        with path.open(encoding="utf-8") as handle:
            articles += sum(
                1 for line in handle if line.strip() and start <= json.loads(line)["published"] <= end
            )
        files[outlet] = {"sha256": _sha256(path), "bytes": path.stat().st_size}
    source = hashlib.sha256()
    for path in sorted((root / "src" / "newsbalance").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    git = None
    if (root / ".git").exists():
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            git = probe.stdout.strip() if probe.returncode == 0 else None
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "synth_args": list(WORKLOADS[workload]),
        "corpus_files": files,
        "articles": articles,
        "input_bytes": sum(f["bytes"] for f in files.values()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git,
        "source_sha256": source.hexdigest(),
    }


def set_up(runner: Runner, workload: str, seed: int) -> tuple[list[float], Path]:
    """Generate and validate the archive SETUP_REPEATS times; return the times."""
    times = []
    digests = set()
    for index in range(SETUP_REPEATS):
        archive = runner.work / f"archive{index}"
        start = time.perf_counter()
        ok = (
            runner.cli("synth", "--out", str(archive), "--seed", str(seed), *WORKLOADS[workload]).code == 0
            and runner.cli("validate", "--config", str(archive / "config.json")).code == 0
        )
        times.append(time.perf_counter() - start)
        if not ok:
            raise BenchmarkError(f"set-up failed; see {runner.log}")
        digests.add(tuple(_sha256(p) for p in sorted((archive / "corpus").iterdir())))
    if len(digests) != 1:
        raise BenchmarkError("synth wrote different archives for one seed")
    return times, runner.work / "archive0"


# ------------------------------------------------------------------ output checks

def _bundle_bytes(path: Path) -> bytes:
    """bundle.json with the value of provenance.generated_at blanked out."""
    raw = path.read_bytes()
    stamp = json.loads(raw)["provenance"]["generated_at"]
    return raw.replace(json.dumps(stamp).encode("utf-8"), b'""', 1)


def check_bundle(path: Path, first: bytes | None) -> tuple[list[str], bytes | None]:
    """Problems with one report bundle, and its bytes without the timestamp.

    ``first`` is the first readable bundle of the run, which every later one
    must equal byte for byte.
    """
    try:
        normalized = _bundle_bytes(path)
        metrics = json.loads(normalized)["commands"]["metrics"]
        series = {outlet: [p[3] for p in by_metric["cov_head"]["series"]] for outlet, by_metric in metrics.items()}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{path}: unreadable bundle ({exc!r})"], None
    problems = []
    if first is not None and normalized != first:
        problems.append(f"{path}: differs from the first repetition's bundle")
    for outlet, values in sorted(series.items()):
        half = len(values) // 2
        if values != [0.4] * half + [-0.4] * (len(values) - half):
            problems.append(f"{path}: {outlet} cov_head is not +0.4 then -0.4")
    return problems, normalized


def check_command(out: Path, command: str, reference: dict | None) -> list[str]:
    """Problems with one stand-alone command's artifact versus report's bundle."""
    path = out / command / STANDALONE_ARTIFACTS[command]
    if reference is None:
        return [f"{path}: no report bundle to compare with"]
    try:
        expected = reference["commands"][command]
        if command == "metrics":
            expected = {
                outlet: {m: {k: v for k, v in entry.items() if k != "series"} for m, entry in by_metric.items()}
                for outlet, by_metric in expected.items()
            }
        actual = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        return [f"{path}: unreadable artifact or bundle entry ({exc!r})"]
    return [] if actual == expected else [f"{path}: differs from report's {command} entry"]


# ------------------------------------------------------------------ one run

def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """One workload run: set-up, measured loop, output checks, optional trace."""

    def __init__(self, runner: Runner, workload: str, seed: int, seconds: float):
        self.runner = runner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_calls = 0

    def _account(self, call: Call, problems: list[str]) -> None:
        self.attempted += 1
        if call.code != 0:
            problems = [f"{' '.join(call.args[1:])}: exit code {call.code}"] + problems
        if problems:
            self.failed_calls += 1
            self.problems.extend(problems)

    def _report(self, config: Path, out: Path, first: bytes | None, spans: Path | None = None):
        """Run and check one ``report``; return the call and the run's first bundle."""
        call = self.runner.cli("report", "--config", str(config), "--out", str(out), spans=spans)
        problems: list[str] = []
        if call.code == 0:
            problems, normalized = check_bundle(out / "report" / "bundle.json", first)
            first = first or normalized
        self._account(call, problems)
        return call, first

    def execute(self, trace: bool) -> dict:
        setup_times, archive = set_up(self.runner, self.workload, self.seed)
        inputs = describe_inputs(self.runner.root, self.workload, self.seed, archive)
        config = archive / "config.json"

        calls: list[Call] = []
        first = None
        loop_start = time.perf_counter()
        while True:
            call, first = self._report(config, self.runner.work / f"rep{len(calls)}", first)
            calls.append(call)
            elapsed = time.perf_counter() - loop_start
            if elapsed + elapsed / len(calls) > self.seconds:
                break

        wall = statistics.median(c.wall_s for c in calls)
        result = {
            "inputs": inputs,
            "repetitions": len(calls),
            "rep_wall_s": [c.wall_s for c in calls],
            "setup_times_s": setup_times,
            "end_to_end": {
                "wall_s": wall,
                "articles_per_s": inputs["articles"] / wall,
                "cpu_s": statistics.median(c.cpu_s for c in calls),
                "peak_rss_mb": max(c.rss_mb for c in calls),
                "setup_s": statistics.median(setup_times),
            },
        }
        if trace:
            result["per_layer"], result["missing"] = self._traced(config, first, wall, inputs["articles"])
        result["attempted"] = self.attempted
        result["failed"] = self.failed_calls
        result["failed_frac"] = self.failed_calls / self.attempted
        result["problems"] = self.problems
        return result

    def _traced(self, config: Path, first: bytes | None, untraced_wall: float, articles: int):
        work = self.runner.work
        spans = work / "report.spans"
        traced, _ = self._report(config, work / "traced", first, spans=spans)

        # Untimed for the end-to-end metrics: the stand-alone path, whose
        # artifacts must equal the entries of report's bundle.
        reference = json.loads(first) if first is not None else None
        standalone = []
        for command in STANDALONE_ARTIFACTS:
            call = self.runner.cli(command, "--config", str(config), "--out", str(work / "standalone"))
            self._account(call, check_command(work / "standalone", command, reference) if call.code == 0 else [])
            standalone.append(call)

        startup = [
            self.runner.run([sys.executable, "-c", "import newsbalance.cli"]).wall_s
            for _ in range(STARTUP_REPEATS)
        ]
        summary = tracer.summarize([spans] if spans.exists() else [])
        return layer_metrics(summary, articles) | {
            "cli.standalone_wall_s": sum(c.wall_s for c in standalone),
            "cli.artifact_bytes": _tree_bytes(work / "rep0"),
            "cli.startup_s": statistics.median(startup),
            "trace.overhead_frac": traced.wall_s / untraced_wall - 1.0,
        }, summary["missing"]


def layer_metrics(summary: dict, articles: int) -> dict:
    """Per-layer metric values from a trace summary; missing functions are left out."""
    values: dict[str, float] = {}
    missing = set(summary["missing"])
    for module, qualnames in tracer.LAYERS.items():
        for qualname in qualnames:
            name = tracer.span_name(module, qualname)
            if name in missing:
                continue
            if module == "cli":
                values[f"{name}.incl_s"] = summary["incl_s"][name]
            else:
                values[f"{name}.calls"] = summary["calls"][name]
                values[f"{name}.self_s"] = summary["self_s"][name]
    work = summary["work"]
    calls = summary["calls"]
    if "corpus.split_sentences" not in missing:
        values["corpus.splits_per_article"] = calls["corpus.split_sentences"] / articles
    if "timeseries.dtw_distance" not in missing:
        values["timeseries.dtw_cells"] = work["timeseries.dtw_cells"]
    if "embeddings.train_sgns" not in missing:
        values["embeddings.train_tokens"] = work["embeddings.train_tokens"]
        values["embeddings.train_tokens_per_s"] = (
            work["embeddings.train_tokens"] / summary["self_s"]["embeddings.train_sgns"]
        )
    if "geo.count_mentions" not in missing:
        values["geo.articles_scanned"] = work["geo.articles_scanned"]
        values["geo.scans_per_article"] = work["geo.articles_scanned"] / articles
    return values


# ------------------------------------------------------------------ entry point

def _declared_metrics(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, unit in units.items():
        value = values.get(name)
        shown = "missing" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0, help="measured-loop budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the CLI process it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "newsbalance" / "cli.py").is_file():
        print(f"error: no newsbalance sources under {root / 'src'}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = _declared_metrics(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.workload == "all" or args.trace == 1

    results = {}
    for name in names:
        work = root / WORK_DIR / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            result = Run(Runner(root, work), name, args.seed, args.seconds).execute(trace)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        results[name] = result
        print(json.dumps({"inputs": result["inputs"]}, sort_keys=True))
        print(f"{name}: {result['repetitions']} repetition(s), {result['attempted']} CLI calls, "
              f"failed_frac {result['failed_frac']:.6g}")
        for problem in result["problems"]:
            print(f"  FAILED {problem}")
        _print_table(f"{name} end to end (untraced)", result["end_to_end"], end_to_end_units)
        if trace:
            _print_table(f"{name} per layer (traced)", result["per_layer"], per_layer_units)

    # --trace 1 reports the per-layer metrics, --trace 0 the end-to-end
    # ones, and "all" reports both for every workload.
    metrics = {}
    for name, result in results.items():
        values, units = {}, {}
        if not trace or args.workload == "all":
            values, units = result["end_to_end"], end_to_end_units
        if trace:
            values, units = values | result["per_layer"], units | per_layer_units
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, unit in units.items():
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
