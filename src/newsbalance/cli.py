"""Command-line entry point for reproducible analysis runs.

Commands: validate, synth, metrics, cluster, weat, geo, probe, report. Every
command reads the same JSON config and writes its artifacts plus a provenance
block (config hash, seed, tool version) under its own subdirectory, so any
subset of commands can run independently. The commands of one run share a
`RunContext`: it loads and filters the corpora once, groups them into
(outlet, year) partitions, splits each partition's articles once into units,
computes the metric series once for `metrics` and `cluster`, and trains the
yearly SGNS models for `weat`, each made on first use, so a command run alone
builds only what it reads. `metrics`, `geo` and `probe` fold the partitions'
units into monthly documents, place counts or slot distributions, and SGNS
trains from them; party tags and place sets are computed where they are read.
`report` runs everything on one context and bundles the results into one
deterministic JSON file. It starts the SGNS training first: worker processes
split and train every outlet but the first, and this process trains the first
from its units, then runs `metrics`, `cluster`, `geo` and `probe` while the
workers train, and `weat` last. `_write_csv` writes every CSV artifact, in
one dialect, from rows its command builds: the coverage tables' rows, and the
payload's for the rest, so those CSVs hold what the bundle holds.

Exit codes: 0 ok, 1 config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import logging
import os
import sys
from collections import Counter
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import RunConfig
from .corpus import Article, ArticleUnits, SkipRecord, article_units, load_corpus, partition, write_skip_report
from .embeddings import AssociationSets, EmbeddingSpace, SgnsParams, popularity_timeline, save_binary, weat_score
from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    DegenerateScoreError,
    NewsbalanceError,
    UndefinedProbabilityError,
    VocabularyError,
)
from .geo import CITY, STATE, Gazetteer, count_mentions, coverage_distribution, yearly_geo_trends
from .metrics import AnalyzerSuite, ImbalanceSeries, aggregate_mean_abs, compute_all_series, format_pooled
from .nlp import ValenceLexicon, default_subjectivity_lexicon, load_subjectivity_lexicon
from .probe import ngram_backend, popularity_pair, token_delta_ranking
from .synthetic import SynthSpec, default_config, generate_corpus, write_outlet_files
from .tagging import build_matcher, default_party_lexicons, load_party_lexicons
from .timeseries import cluster, distance_matrix, drop_missing, z_normalize
from .training import SgnsJob, SgnsResult, SgnsWorkers, train_outlet
from ._data import data_path

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "NEWSBALANCE_OUT"


# ---------------------------------------------------------------- loading

def _load_lexicons(cfg: RunConfig):
    if cfg.party_lexicons is not None:
        return load_party_lexicons(cfg.party_lexicons)
    return default_party_lexicons()


def _load_suite(cfg: RunConfig, lexicons) -> AnalyzerSuite:
    paths = cfg.analyzers
    valence_path = paths.valence or data_path("valence_lexicon.tsv")
    modifiers_path = paths.modifiers or data_path("valence_modifiers.tsv")
    subjectivity = (
        load_subjectivity_lexicon(paths.subjectivity)
        if paths.subjectivity is not None
        else default_subjectivity_lexicon()
    )
    return AnalyzerSuite(
        valence=ValenceLexicon.load(valence_path, modifiers_path),
        subjectivity=subjectivity,
        lexicons=lexicons,
        matcher=build_matcher(lexicons),
    )


def _load_gazetteer(cfg: RunConfig) -> Gazetteer:
    cities = cfg.gazetteer.cities or data_path("india_cities.txt")
    states = cfg.gazetteer.states or data_path("india_states.txt")
    return Gazetteer.load(cities, states)


def _association_sets(cfg: RunConfig, lexicons) -> AssociationSets:
    """WEAT's sets: each party's single-token phrases, lowercased for
    embedding lookups, and the configured attribute words."""
    s1, s2 = (tuple(sorted({p.lower() for p in lex.phrases if len(p.split()) == 1})) for lex in lexicons)
    for name, lex, words in (("s1", lexicons[0], s1), ("s2", lexicons[1], s2)):
        if not words:
            source = cfg.party_lexicons or "the bundled lexicons"
            raise ConfigError(f"association set {name} is empty: party {lex.party_id!r} in {source} "
                              "has no single-token phrase")
    return AssociationSets(s1=s1, s2=s2, a1=cfg.weat.attributes_positive, a2=cfg.weat.attributes_negative)


def _sgns_worker_count(outlets: int) -> int:
    """Workers for all but one outlet, one per CPU this process may run on beyond its own."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, outlets) - 1


def _outlet_years(partitions: dict[tuple[str, int], tuple]):
    """(outlet, [(year, value), ...]) for each outlet, from a dict in sorted partition order."""
    for outlet, group in groupby(partitions.items(), key=lambda item: item[0][0]):
        yield outlet, [(year, value) for (_, year), value in group]


class RunContext:
    """What one run loads and derives from its config, each made on first use.

    The corpora are read once and grouped into (outlet, year) partitions, and
    each partition's articles are split once, on first use, into the units
    that `metrics`, `geo`, `probe` and this process's SGNS training read. The
    metric series are computed once, for `metrics` and `cluster`; `report`
    drops them once `cluster` is done. The yearly SGNS models train in worker
    processes, all but the first outlet's, and in this process, which trains
    the first outlet's when `start_sgns` is called; `sgns_spaces` waits for
    the workers. Use the context in a `with` block, so that no worker
    outlives it. Everything here goes when the run does.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._units: dict[tuple[str, int], tuple[ArticleUnits, ...]] = {}
        self._workers: SgnsWorkers | None = None
        # The first outlet's results, once `start_sgns` has trained them here.
        self._sgns_here: list[SgnsResult] | None = None

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._workers is not None:
            self._workers.close()

    @cached_property
    def lexicons(self):
        return _load_lexicons(self.cfg)

    @cached_property
    def suite(self) -> AnalyzerSuite:
        return _load_suite(self.cfg, self.lexicons)

    @cached_property
    def gazetteer(self) -> Gazetteer:
        return _load_gazetteer(self.cfg)

    @cached_property
    def series(self) -> dict[str, dict[str, ImbalanceSeries]]:
        """{metric: {outlet: monthly series with its pooled score}}, made once
        for `metrics` and `cluster`."""
        return compute_all_series(self.partitions, self.units, self.cfg.metrics, self.suite)

    @cached_property
    def _corpora(self) -> tuple[list[Article], dict[str, list[SkipRecord]]]:
        cfg = self.cfg
        dates = cfg.date_range
        articles: list[Article] = []
        skips: dict[str, list[SkipRecord]] = {}
        for outlet in sorted(cfg.corpora):
            loaded, skipped = load_corpus(cfg.corpora[outlet])
            if skipped:
                logger.warning("%s: skipped %d malformed records", cfg.corpora[outlet], len(skipped))
                skips[outlet] = skipped
            articles.extend(
                a for a in loaded if dates.start <= a.published <= dates.end
            )
        return articles, skips

    @cached_property
    def partitions(self) -> dict[tuple[str, int], tuple[Article, ...]]:
        """Each (outlet, year)'s articles in the date range, in sorted key
        order and in `corpus.partition`'s canonical article order."""
        return partition(self._corpora[0])

    def partition_units(self, key: tuple[str, int]) -> tuple[ArticleUnits, ...]:
        """One partition's article units (`corpus.article_units`), split on first use."""
        if key not in self._units:
            self._units[key] = article_units(self.partitions[key])
        return self._units[key]

    @property
    def units(self) -> dict[tuple[str, int], tuple[ArticleUnits, ...]]:
        """Each partition's article units, in the order of `partitions`."""
        return {key: self.partition_units(key) for key in self.partitions}

    def start_sgns(self) -> None:
        """Start the workers, then train the first outlet's years here from its units.

        An outlet with a single year fails the run before any model trains.
        """
        if self._sgns_here is not None:
            return
        by_outlet = list(_outlet_years(self.partitions))
        for outlet, years in by_outlet:
            if len(years) < 2:
                raise DataError(f"outlet {outlet}: popularity timeline needs >= 2 years")
        embedding = self.cfg.embedding
        params = SgnsParams(
            dim=embedding.dim,
            window=embedding.window,
            negatives=embedding.negatives,
            epochs=embedding.epochs,
            min_count=embedding.min_count,
            subsample=embedding.subsample,
        )
        jobs = [SgnsJob(outlet, self.cfg.seed, tuple(years), params) for outlet, years in by_outlet]
        workers = _sgns_worker_count(len(jobs))
        if workers > 0:
            self._workers = SgnsWorkers([jobs[1 + i :: workers] for i in range(workers)])
            jobs = jobs[:1]
        self._sgns_here = [train_outlet(job, lambda year, _: self.partition_units((job.outlet, year))) for job in jobs]

    @cached_property
    def sgns_spaces(self) -> dict[str, tuple[EmbeddingSpace, ...]]:
        """{outlet: its yearly spaces in year order}, once every worker is done."""
        self.start_sgns()
        trained = [("this process", self._sgns_here)]
        if self._workers is not None:
            shares = self._workers.results()
            trained += [(f"worker {i + 1}", share) for i, share in enumerate(shares)]
        spaces = {}
        for where, results in trained:
            for result in results:
                logger.info(
                    "SGNS %s: years %s, %d tokens, %.2f s in %s",
                    result.outlet,
                    ",".join(str(y.year) for y in result.years),
                    sum(y.tokens for y in result.years),
                    sum(y.seconds for y in result.years),
                    where,
                )
                for y in result.years:
                    logger.info(
                        "%s %d: %d tokens, vocabulary %d, %d pairs, %.2f s",
                        result.outlet, y.year, y.tokens, y.vocab, y.pairs, y.seconds,
                    )
                spaces[result.outlet] = result.spaces
        return {outlet: spaces[outlet] for outlet in sorted(spaces)}

    def write_skips(self, command_dir: Path) -> None:
        """Write the skip reports under command_dir; raises `DataError` when no
        article is in the date range."""
        articles, skips = self._corpora
        for outlet, skipped in skips.items():
            skip_dir = command_dir / "skips"
            skip_dir.mkdir(parents=True, exist_ok=True)
            write_skip_report(skipped, skip_dir / f"{outlet}.jsonl")
        if not articles:
            raise DataError("no articles in the configured date range")


def _provenance(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "tool_version": __version__,
        "generated_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }


def _write_json(payload, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence, rows) -> None:
    """The run's one CSV dialect: a header row, LF line ends, fields quoted
    only where they hold a comma, quote or line break. None is an empty cell
    and a float its repr, as in the JSON artifacts."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _command_dir(out_base: Path, name: str) -> Path:
    """`out_base`/`name`, made if missing; raises `ConfigError` naming the path
    when it cannot be made, as when `out_base` is a regular file."""
    directory = out_base / name
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {directory}: {exc.strerror}") from exc
    return directory


# ---------------------------------------------------------------- commands

def cmd_validate(cfg: RunConfig) -> dict:
    lexicons = _load_lexicons(cfg)
    _load_suite(cfg, lexicons)
    _association_sets(cfg, lexicons)
    _load_gazetteer(cfg)
    return {
        "outlets": sorted(cfg.corpora),
        "date_range": [cfg.date_range.start.isoformat(), cfg.date_range.end.isoformat()],
        "metrics": [m.value for m in cfg.metrics],
        "parties": [lex.party_id for lex in lexicons],
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
    }


def cmd_metrics(ctx: RunContext, out_base: Path) -> dict:
    cfg = ctx.cfg
    directory = _command_dir(out_base, "metrics")
    ctx.write_skips(directory)

    payload: dict = {}
    for metric_name, by_outlet in sorted(ctx.series.items()):
        for outlet, series in sorted(by_outlet.items()):
            rows = [[str(p.month), p.score_b, p.score_c, p.value] for p in series.points]
            _write_csv(directory / f"{outlet}__{metric_name}.csv", ["month", "score_b", "score_c", "imbalance"], rows)
            payload.setdefault(outlet, {})[metric_name] = {
                "series": rows,
                "pooled": series.pooled,
                "pooled_display": format_pooled(series.pooled),
                "mean_abs": aggregate_mean_abs(series),
            }
    _write_json(
        {
            outlet: {m: {k: v for k, v in entry.items() if k != "series"} for m, entry in metrics.items()}
            for outlet, metrics in payload.items()
        },
        directory / "aggregates.json",
    )
    _write_json(_provenance(cfg, "metrics"), directory / "provenance.json")
    return payload


def cmd_cluster(ctx: RunContext, out_base: Path) -> dict:
    """One DTW matrix over every non-empty (outlet, metric) series, and the
    overall, per-metric and per-outlet dendrograms cut from it."""
    clustering = ctx.cfg.clustering
    directory = _command_dir(out_base, "cluster")
    ctx.write_skips(directory)

    cleaned: dict[tuple[str, str], list[float]] = {}
    skipped: list[str] = []
    for metric_name, by_outlet in ctx.series.items():
        for outlet, series in by_outlet.items():
            values = drop_missing(series.values())
            if values:
                cleaned[(outlet, metric_name)] = z_normalize(values) if clustering.znormalize else values
            else:
                skipped.append(f"{outlet}/{metric_name}")
    if len(cleaned) < 2:
        raise DataError("clustering needs at least 2 non-empty series")
    labels, matrix = distance_matrix({f"{outlet}/{m}": values for (outlet, m), values in cleaned.items()})
    _write_csv(directory / "distance_matrix.csv", ["", *labels], ([label, *row] for label, row in zip(labels, matrix)))
    payload: dict = {
        "linkage": clustering.linkage,
        "skipped": sorted(skipped),
        "labels": labels,
        "distance_matrix": matrix,
        "by_metric": {},
        "by_outlet": {},
    }

    # (file stem, where the tree goes, its key, {leaf label: row label}).
    # Each subset clusters under its own leaf labels, which can sort
    # differently from the row labels ("x" < "x-y", but "x-y/m" < "x/m").
    subsets = [("all", payload, "overall", {label: label for label in labels})]
    for metric_name in sorted({m for _, m in cleaned}):
        leaves = {o: f"{o}/{m}" for o, m in cleaned if m == metric_name}
        subsets.append((f"metric_{metric_name}", payload["by_metric"], metric_name, leaves))
    for outlet in sorted({o for o, _ in cleaned}):
        leaves = {m: f"{o}/{m}" for o, m in cleaned if o == outlet}
        subsets.append((f"outlet_{outlet}", payload["by_outlet"], outlet, leaves))
    row = {label: i for i, label in enumerate(labels)}
    for stem, target, key, leaves in subsets:
        if len(leaves) < 2:
            continue
        names = sorted(leaves)
        rows = [row[leaves[name]] for name in names]
        root = cluster(names, [[matrix[i][j] for j in rows] for i in rows], clustering.linkage)
        target[key] = root.to_dict()
        (directory / f"dendrogram_{stem}.newick").write_text(root.to_newick() + "\n", encoding="utf-8")

    _write_json(payload, directory / "cluster.json")
    _write_json(_provenance(ctx.cfg, "cluster"), directory / "provenance.json")
    return payload


def cmd_weat(ctx: RunContext, out_base: Path) -> dict:
    """Yearly embeddings and WEAT scores.

    The embeddings are `RunContext.sgns_spaces`, each trained from its
    partition's units; run alone, this command starts the training itself.
    """
    cfg = ctx.cfg
    directory = _command_dir(out_base, "weat")
    ctx.write_skips(directory)
    sets = _association_sets(cfg, ctx.lexicons)

    payload: dict = {}
    rows = []
    for outlet, spaces in ctx.sgns_spaces.items():
        for space in spaces:
            save_binary(space, directory / f"{outlet}_{space.year}.nbe")
        timeline = popularity_timeline(
            spaces, sets, anchor_count=cfg.embedding.anchor_count, mode=cfg.embedding.alignment
        )
        scores: dict[str, float | None] = {}
        for space in spaces:
            try:
                scores[str(space.year)] = weat_score(sets, space)
            except (DegenerateScoreError, VocabularyError):
                scores[str(space.year)] = None
        payload[outlet] = {
            "years": timeline.years,
            "group1": timeline.group1,
            "group2": timeline.group2,
            "weat_scores": scores,
        }
        rows += [
            [outlet, year, g1, g2, scores.get(str(year))]
            for year, g1, g2 in zip(timeline.years, timeline.group1, timeline.group2)
        ]
    _write_csv(directory / "popularity.csv", ["outlet", "year", "group1", "group2", "weat_score"], rows)
    _write_json(payload, directory / "weat.json")
    _write_json(_provenance(cfg, "weat"), directory / "provenance.json")
    return payload


def cmd_geo(ctx: RunContext, out_base: Path) -> dict:
    cfg = ctx.cfg
    directory = _command_dir(out_base, "geo")
    gazetteer = ctx.gazetteer
    ctx.write_skips(directory)

    # {(outlet, year): {level: place counts}}
    yearly = {key: count_mentions(units, gazetteer) for key, units in ctx.units.items()}
    payload: dict = {"totals": {}, "trends": {}}
    for level in (CITY, STATE):
        rows = []
        outlet_counts: dict[str, Counter] = {}
        for (outlet, year), levels in yearly.items():
            counts = levels[level]
            # An outlet's totals are the sums of its yearly counts.
            outlet_counts.setdefault(outlet, Counter()).update(counts)
            dist = coverage_distribution(counts)
            for place in sorted(dist.counts):
                rows.append((year, outlet, place, dist.counts[place], dist.shares[place]))
        _write_csv(directory / f"coverage_{level}.csv", ["year", "outlet", "place", "count", "share"], rows)
        totals = {}
        for outlet, counts in sorted(outlet_counts.items()):
            dist = coverage_distribution(counts)
            totals[outlet] = {
                place: {"count": dist.counts[place], "share": dist.shares[place]}
                for place in sorted(dist.counts)
            }
        payload["totals"][level] = totals

    trends = yearly_geo_trends({key: levels[STATE] for key, levels in yearly.items()})
    payload["trends"] = {
        outlet: [[t.year, t.inverse_std, t.bottom20, t.bottom50] for t in rows]
        for outlet, rows in sorted(trends.items())
    }
    _write_csv(
        directory / "trends_state.csv",
        ["outlet", "year", "inverse_std", "bottom20_pct", "bottom50_pct"],
        ([outlet, *row] for outlet, rows in payload["trends"].items() for row in rows),
    )
    _write_json(payload, directory / "geo.json")
    _write_json(_provenance(cfg, "geo"), directory / "provenance.json")
    return payload


def cmd_probe(ctx: RunContext, out_base: Path) -> dict:
    cfg = ctx.cfg
    directory = _command_dir(out_base, "probe")
    ctx.write_skips(directory)
    party_b, party_c = cfg.probe.party_tokens

    payload: dict = {}
    for outlet, partitions in _outlet_years(ctx.units):
        years = [year for year, _ in partitions]
        slots = {}  # year -> the slice's distribution at the prompt's mask slot
        popularity = []
        for year, units in partitions:
            backend = ngram_backend(units, order=cfg.probe.order, smoothing=cfg.probe.smoothing)
            slots[year] = backend.query(cfg.probe.prompt)
            try:
                p_b, p_c = popularity_pair(slots[year], party_b, party_c)
            except UndefinedProbabilityError:
                p_b = p_c = None
            popularity.append([year, p_b, p_c])
        rising: list = []
        falling: list = []
        if len(years) >= 2:
            rising, falling = token_delta_ranking(
                slots[years[0]], slots[years[-1]], k=cfg.probe.top_k, m=cfg.probe.max_rank
            )
        payload[outlet] = {
            "popularity": popularity,
            "rising": [[t, d] for t, d in rising],
            "falling": [[t, d] for t, d in falling],
        }
    _write_csv(
        directory / "popularity.csv",
        ["outlet", "year", f"p_{party_b}", f"p_{party_c}"],
        ([outlet, *row] for outlet, entry in payload.items() for row in entry["popularity"]),
    )
    _write_json(payload, directory / "probe.json")
    _write_json(_provenance(cfg, "probe"), directory / "provenance.json")
    return payload


def cmd_report(ctx: RunContext, out_base: Path) -> dict:
    _association_sets(ctx.cfg, ctx.lexicons)  # a bad WEAT setup fails before anything trains or is written
    directory = _command_dir(out_base, "report")
    provenance = _provenance(ctx.cfg, "report")
    # SGNS training is the run's memory peak, so this process trains its share
    # before the other outlets' units exist; the workers train the rest while
    # the other commands run, and weat collects them last.
    ctx.start_sgns()
    metrics = cmd_metrics(ctx, out_base)
    clusters = cmd_cluster(ctx, out_base)
    del ctx.series  # no later command reads them
    geo = cmd_geo(ctx, out_base)
    probe = cmd_probe(ctx, out_base)
    bundle = {
        "provenance": provenance,
        "commands": {
            "metrics": metrics,
            "cluster": clusters,
            "weat": cmd_weat(ctx, out_base),
            "geo": geo,
            "probe": probe,
        },
    }
    _write_json(bundle, directory / "bundle.json")
    return bundle


# ---------------------------------------------------------------- plumbing

class _Parser(argparse.ArgumentParser):
    """Argument errors are config errors: exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newsbalance",
        description="Quantify political coverage and tonality imbalance in news archives.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in [
        ("validate", "check the config: schema, paths, lexicons"),
        ("metrics", "monthly imbalance series and aggregate summaries"),
        ("cluster", "DTW distance matrix and dendrograms"),
        ("weat", "yearly embeddings and association-based popularity"),
        ("geo", "place coverage shares and homogeneity trends"),
        ("probe", "cloze-probe popularity timeline and delta tables"),
        ("report", "run everything and bundle one JSON report"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        if name != "validate":
            p.add_argument("--out", help="output directory (overrides env and config)")

    p = sub.add_parser("synth", help="generate the bundled synthetic archive plus a ready config")
    p.add_argument("--out", required=True, help="directory for corpus files and config.json")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--months", type=int, default=24)
    p.add_argument("--articles-per-month", type=int, default=70)
    return parser


def _resolve_out(cfg: RunConfig, flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get(OUTPUT_DIR_ENV)
    if env_value:
        return Path(env_value)
    return cfg.output_dir


def _run_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    spec = SynthSpec(seed=args.seed, months=args.months, articles_per_month=args.articles_per_month)
    articles = generate_corpus(spec)
    paths = write_outlet_files(articles, out / "corpus")
    relative = {outlet: str(Path("corpus") / path.name) for outlet, path in paths.items()}
    config = default_config(relative, spec)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(articles)} articles for {len(paths)} outlets; config at {config_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            return _run_synth(args)
        cfg = RunConfig.from_file(args.config)
        if args.command == "validate":
            summary = cmd_validate(cfg)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        out_base = _resolve_out(cfg, args.out)
        runner = {
            "metrics": cmd_metrics,
            "cluster": cmd_cluster,
            "weat": cmd_weat,
            "geo": cmd_geo,
            "probe": cmd_probe,
            "report": cmd_report,
        }[args.command]
        with RunContext(cfg) as ctx:
            runner(ctx, out_base)
        print(f"{args.command}: artifacts written under {out_base}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        # Config and data are checked before any operation sees them, so a
        # broken operation contract is a bug in the program.
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (DataError, NewsbalanceError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
