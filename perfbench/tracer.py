"""Span tracer that instruments newsbalance from outside the package.

Run as a program, it wraps the layer functions listed in ``LAYERS``, runs
the newsbalance CLI in the same process and writes the spans when the CLI
returns::

    python3 perfbench/tracer.py --spans OUT.spans -- report --config cfg.json

A span records its function, start, end and parent span. Spans stay in
memory until the CLI exits. The file then gets a header with per-function
call counts, self seconds (span time minus the time covered by its child
spans) and inclusive seconds; ``summarize`` adds up the headers of several
files.
"""

from __future__ import annotations

import argparse
import array
import functools
import json
import sys
import time
from pathlib import Path

# module -> public functions (``Class.method`` for methods) wrapped in a span.
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus": ("load_corpus", "split_sentences", "tokenize", "article_sentences"),
    "tagging": ("build_monthly_documents", "PhraseMatcher.match_tokens", "PhraseMatcher.match_spans"),
    "nlp": ("sentence_sentiment", "sentence_subjectivity", "tag_degree", "detect_reported_speech"),
    "metrics": ("compute_all_series", "aggregate_pooled", "score_document"),
    "timeseries": ("dtw_distance", "distance_matrix", "cluster"),
    "embeddings": ("train_sgns", "align", "popularity_timeline", "weat_score", "save_binary"),
    "geo": ("count_mentions", "yearly_geo_trends"),
    "probe": ("ngram_backend", "NgramMaskBackend.query", "popularity_pair", "token_delta_ranking"),
    "cli": ("cmd_metrics", "cmd_cluster", "cmd_weat", "cmd_geo", "cmd_probe"),
}


def span_name(module: str, qualname: str) -> str:
    """Metric prefix of a wrapped function: ``<module>.<function>``."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _dtw_cells(args, kwargs):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return len(a) * len(b)


def _train_tokens(args, kwargs):
    sentences = args[0] if args else kwargs["sentences"]
    return sum(len(s) for s in sentences)


def _articles_scanned(args, kwargs):
    return len(args[0] if args else kwargs["articles"])


# Work counters taken from the arguments of a wrapped call:
# span name -> (counter name, function of (args, kwargs)).
WORK_COUNTERS = {
    "timeseries.dtw_distance": ("timeseries.dtw_cells", _dtw_cells),
    "embeddings.train_sgns": ("embeddings.train_tokens", _train_tokens),
    "geo.count_mentions": ("geo.articles_scanned", _articles_scanned),
}


class Tracer:
    """Collects spans of wrapped calls; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.work: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = WORK_COUNTERS.get(name)
        stack = self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        work = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                work[key] = work.get(key, 0) + count(args, kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every function in ``LAYERS``; return the names not found.

        A module-level function is rebound in every newsbalance module that
        holds it, so calls through ``from .x import f`` are traced too.
        """
        import newsbalance.cli  # noqa: F401  (imports every layer module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "newsbalance" or n.startswith("newsbalance.")]
        missing: list[str] = []
        for module_name, qualnames in LAYERS.items():
            module = sys.modules.get(f"newsbalance.{module_name}")
            for qualname in qualnames:
                name = span_name(module_name, qualname)
                if module is None:
                    missing.append(name)
                    continue
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(method) if isinstance(cls, type) else None
                    if original is None:
                        missing.append(name)
                        continue
                    setattr(cls, method, self.wrap(name, original))
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    missing.append(name)
                    continue
                traced = self.wrap(name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
        return missing

    def summary(self) -> dict:
        """Calls, self seconds and inclusive seconds per function, plus work counts."""
        import numpy as np  # here, so that importing this module keeps the benchmark process small

        name = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.intc)
        duration = np.frombuffer(self.span_end, dtype=np.double) - np.frombuffer(self.span_start, dtype=np.double)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        self_s = np.bincount(name, weights=duration - covered, minlength=size)
        incl_s = np.bincount(name, weights=duration, minlength=size)
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "incl_s": {n: float(incl_s[i]) for i, n in enumerate(self.names)},
            "work": dict(self.work),
        }

    def write(self, path: Path) -> None:
        """Write the summary as a JSON header line, then the four span arrays."""
        header = {"spans": len(self.span_start), "names": self.names, "summary": self.summary()}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)


def summarize(span_files: list[Path]) -> dict:
    """Sum the per-process summaries stored in the headers of span files.

    Only the header line is read: a child's ``ru_maxrss`` starts from its
    parent's peak, so the benchmark process must stay small and never loads
    the span arrays. Functions listed in ``LAYERS`` that no process called
    are returned under ``missing`` instead of with zero counts, so a renamed
    function shows up as a gap rather than as a layer that got free.
    Inclusive seconds would count a recursive call twice; no traced function
    recurses.
    """
    total: dict[str, dict] = {"calls": {}, "self_s": {}, "incl_s": {}, "work": {}}
    for path in span_files:
        with open(path, "rb") as handle:
            summary = json.loads(handle.readline())["summary"]
        for key, values in summary.items():
            for name, value in values.items():
                total[key][name] = total[key].get(name, 0) + value
    expected = [span_name(m, q) for m, qs in LAYERS.items() for q in qs]
    total["missing"] = [name for name in expected if total["calls"].get(name, 0) == 0]
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file to write the spans to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the newsbalance CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    for name in tracer.install():
        print(f"tracer: {name} not found; its metrics are reported missing", file=sys.stderr)
    from newsbalance import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
