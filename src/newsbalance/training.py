"""One outlet's yearly SGNS models as a job, trained here or in a worker process.

A job carries one outlet's articles grouped by year, the run's base seed and
the training parameters. `train_outlet` seeds each year with `year_seed` from
the base seed, the outlet's name and the year, so an outlet's models do not
depend on which other outlets the run holds. It lowercases the tokens of a
year's units (`corpus.article_units`) and trains its model with
`embeddings.train_sgns`, so a model is bitwise the same whichever process runs
its job. The process that starts the workers trains from the units it keeps
for its other commands; a worker splits its own articles, one year at a time,
just before the year trains.

`SgnsWorkers` runs shares of the jobs in worker processes. A worker is a fresh
interpreter that reads its share as a pickle on stdin and writes its results
(or the toolkit error a job raised) as a pickle on stdout. Both are unnamed
temporary files, so neither process blocks on a pipe, and only bytes that this
program wrote are unpickled. A worker imports this module, `corpus` and
`embeddings`, and nothing of `multiprocessing`, whose resource tracker can
outlive the command that started it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Article, ArticleUnits, article_units
from .embeddings import EmbeddingSpace, SgnsParams, train_sgns
from .errors import NewsbalanceError

__all__ = ["SgnsJob", "SgnsResult", "SgnsWorkers", "SgnsYear", "train_outlet", "year_seed"]

# The package's parent directory goes first on the worker's import path,
# ahead of its working directory, so the worker imports this very package.
# The argument after it is the pid of the process that starts the worker.
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)
_WORKER_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from newsbalance.training import serve; serve()"


def year_seed(base_seed: int, outlet: str, year: int) -> int:
    """One outlet's yearly seed, from the base seed, the year and each byte of the
    outlet's UTF-8 name. No hash module is imported: OpenSSL's would raise a
    worker's peak memory by several MB."""
    return int(np.random.SeedSequence([base_seed, year, *outlet.encode("utf-8")]).generate_state(1)[0])


@dataclass(frozen=True)
class SgnsJob:
    """One outlet's years to train, (year, articles) in year order, and the run's base seed."""

    outlet: str
    seed: int
    years: tuple[tuple[int, tuple[Article, ...]], ...]
    params: SgnsParams


@dataclass(frozen=True)
class SgnsYear:
    """What one year's model trained on: its tokens, its vocabulary size and its
    (center, context) pairs over all epochs, and the seconds it took."""

    year: int
    tokens: int
    vocab: int
    pairs: int
    seconds: float


@dataclass(frozen=True)
class SgnsResult:
    """One outlet's yearly spaces and what each year trained on, in year order."""

    outlet: str
    spaces: tuple[EmbeddingSpace, ...]
    years: tuple[SgnsYear, ...]


def _year_sentences(units: Sequence[ArticleUnits], lowered: dict[str, str]) -> list[list[str]]:
    """The lowercased tokens of every non-empty headline and content unit.

    `lowered` maps each surface token to its lowercase form, one interned
    string for every occurrence of the form; one dict serves a job's years.
    """
    sentences = []
    for headline, content in units:
        for unit in (headline, *content):
            if unit:
                sentence = []
                for token in unit:
                    low = lowered.get(token)
                    if low is None:
                        low = lowered[token] = sys.intern(token.lower())
                    sentence.append(low)
                sentences.append(sentence)
    return sentences


def train_outlet(job: SgnsJob, units: Callable[[int, tuple[Article, ...]], Sequence[ArticleUnits]]) -> SgnsResult:
    """Train each of the job's years in order, from the units that
    `units(year, articles)` gives for it just before the year trains."""
    spaces = []
    years = []
    lowered: dict[str, str] = {}
    for year, articles in job.years:
        start = time.perf_counter()
        sentences = _year_sentences(units(year, articles), lowered)
        tokens = sum(len(s) for s in sentences)
        space = train_sgns(sentences, replace(job.params, seed=year_seed(job.seed, job.outlet, year)), year=year)
        del sentences  # so that the next year's sentences are not built beside these
        spaces.append(space)
        years.append(SgnsYear(year, tokens, len(space.vocab), space.pairs, time.perf_counter() - start))
    return SgnsResult(job.outlet, tuple(spaces), tuple(years))


def serve() -> None:
    """Worker entry point: train the pickled jobs on stdin, pickle the results to stdout.
    Before each year the worker exits once the process that started it is gone."""
    parent = int(sys.argv[2])

    def split(year: int, articles: tuple[Article, ...]) -> tuple[ArticleUnits, ...]:
        if os.getppid() != parent:
            raise SystemExit(f"SGNS worker {os.getpid()}: process {parent} that started it is gone")
        return article_units(articles)

    jobs = pickle.load(sys.stdin.buffer)
    try:
        results: list[SgnsResult] | NewsbalanceError = [train_outlet(job, split) for job in jobs]
    except NewsbalanceError as exc:
        results = exc
    pickle.dump(results, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


class SgnsWorkers:
    """One worker process per share of jobs, started at once.

    `results` waits for every worker; `close` stops and reaps any still
    running, so no worker outlives its owner. An owner ended by a signal that
    Python does not handle cannot close its workers; each then exits before
    its next year.
    """

    def __init__(self, shares: Sequence[Sequence[SgnsJob]]):
        self._running: list[tuple[subprocess.Popen, object]] = []
        try:
            for share in shares:
                self._running.append(self._start(share))
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _start(share: Sequence[SgnsJob]) -> tuple[subprocess.Popen, object]:
        output = tempfile.TemporaryFile()
        try:
            with tempfile.TemporaryFile() as jobs:
                pickle.dump(list(share), jobs, protocol=pickle.HIGHEST_PROTOCOL)
                jobs.seek(0)
                process = subprocess.Popen(
                    [sys.executable, "-c", _WORKER_CODE, _PACKAGE_ROOT, str(os.getpid())], stdin=jobs, stdout=output
                )
        except BaseException:
            output.close()
            raise
        return process, output

    def results(self) -> list[list[SgnsResult]]:
        """Each share's results, in share order; raises the first error a worker met."""
        collected = []
        for process, output in self._running:
            status = process.wait()
            if status != 0:
                raise RuntimeError(f"SGNS worker {process.pid} exited with status {status}")
            output.seek(0)
            results = pickle.load(output)
            if isinstance(results, NewsbalanceError):
                raise results
            collected.append(results)
        return collected

    def close(self) -> None:
        for process, output in self._running:
            if process.poll() is None:
                process.kill()
            process.wait()
            output.close()
        self._running = []
