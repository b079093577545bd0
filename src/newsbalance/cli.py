"""Command-line entry point for reproducible analysis runs.

Commands: validate, synth, metrics, cluster, weat, geo, probe, report. Every
command reads the same JSON config and writes its artifacts plus a provenance
block (config hash, seed, tool version) under its own subdirectory, so any
subset of commands can run independently. The commands of one run share a
`RunContext`: it loads and filters the corpora once, keeps each article's
units, party tags, feature rows and place sets, and computes the metric
series once for `metrics` and `cluster`, each made on first use, so a command
run alone builds only what it reads. `report` runs everything on one context
and bundles the results into one deterministic JSON file.

Exit codes: 0 ok, 1 config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import os
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import RunConfig
from .corpus import Article, SkipRecord, article_sentences, headline_sentence, load_corpus, write_skip_report
from .embeddings import (
    AssociationSets,
    SgnsParams,
    popularity_timeline,
    save_binary,
    train_sgns,
    weat_score,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    DegenerateScoreError,
    NewsbalanceError,
    UndefinedProbabilityError,
    VocabularyError,
)
from .geo import Gazetteer, count_mentions, coverage_distribution, write_coverage_csv, write_trends_csv, yearly_geo_trends
from .metrics import (
    AnalyzerSuite,
    ImbalanceSeries,
    aggregate_mean_abs,
    compute_all_series,
    format_pooled,
    write_series_csv,
)
from .nlp import ValenceLexicon, default_subjectivity_lexicon, load_subjectivity_lexicon
from .probe import ngram_backend, popularity_pair, token_delta_ranking
from .synthetic import SynthSpec, default_config, generate_corpus, write_outlet_files
from .tagging import TextTable, default_party_lexicons, load_party_lexicons
from .timeseries import cluster, distance_matrix, drop_missing, write_distance_csv, z_normalize
from ._data import data_path

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "NEWSBALANCE_OUT"


# ---------------------------------------------------------------- loading

def _load_lexicons(cfg: RunConfig):
    if cfg.party_lexicons_path is not None:
        return load_party_lexicons(cfg.party_lexicons_path)
    return default_party_lexicons()


def _load_suite(cfg: RunConfig, lexicons) -> AnalyzerSuite:
    valence_path = cfg.valence_path or data_path("valence_lexicon.tsv")
    modifiers_path = cfg.modifiers_path or data_path("valence_modifiers.tsv")
    subjectivity = (
        load_subjectivity_lexicon(cfg.subjectivity_path)
        if cfg.subjectivity_path is not None
        else default_subjectivity_lexicon()
    )
    return AnalyzerSuite(
        valence=ValenceLexicon.load(valence_path, modifiers_path),
        subjectivity=subjectivity,
        lexicons=lexicons,
    )


def _load_gazetteer(cfg: RunConfig) -> Gazetteer:
    cities = cfg.cities_path or data_path("india_cities.txt")
    states = cfg.states_path or data_path("india_states.txt")
    return Gazetteer.load(cities, states)


class RunContext:
    """What one run loads and derives from its config, each made on first use.

    The corpora are read once. The text table then keeps each article's
    units, party tags, feature rows and place sets for the rest of the run.
    The metric series are computed once, for `metrics` and `cluster`; `report`
    drops them once `cluster` is done. Everything here goes when the run does.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

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
    def table(self) -> TextTable:
        return TextTable()

    @cached_property
    def series(self) -> dict[str, dict[str, ImbalanceSeries]]:
        """{metric: {outlet: monthly series with its pooled score}}, made once
        for `metrics` and `cluster`."""
        return compute_all_series(self._corpora[0], self.lexicons, self.cfg.metrics, self.suite, self.table)

    @cached_property
    def _corpora(self) -> tuple[list[Article], dict[str, list[SkipRecord]]]:
        cfg = self.cfg
        articles: list[Article] = []
        skips: dict[str, list[SkipRecord]] = {}
        for outlet in sorted(cfg.corpora):
            loaded, skipped = load_corpus(cfg.corpora[outlet])
            if skipped:
                logger.warning("%s: skipped %d malformed records", cfg.corpora[outlet], len(skipped))
                skips[outlet] = skipped
            articles.extend(
                a for a in loaded if cfg.date_start <= a.published <= cfg.date_end
            )
        return articles, skips

    def articles(self, command_dir: Path) -> list[Article]:
        """The articles in the date range; the skip reports go under command_dir."""
        articles, skips = self._corpora
        for outlet, skipped in skips.items():
            skip_dir = command_dir / "skips"
            skip_dir.mkdir(parents=True, exist_ok=True)
            write_skip_report(skipped, skip_dir / f"{outlet}.jsonl")
        if not articles:
            raise DataError("no articles in the configured date range")
        return articles


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


def _command_dir(out_base: Path, name: str) -> Path:
    directory = out_base / name
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------- commands

def cmd_validate(cfg: RunConfig) -> dict:
    lexicons = _load_lexicons(cfg)
    _load_suite(cfg, lexicons)
    _load_gazetteer(cfg)
    return {
        "outlets": sorted(cfg.corpora),
        "date_range": [cfg.date_start.isoformat(), cfg.date_end.isoformat()],
        "metrics": [m.value for m in cfg.metrics],
        "parties": [lex.party_id for lex in lexicons],
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
    }


def cmd_metrics(ctx: RunContext, out_base: Path) -> dict:
    cfg = ctx.cfg
    directory = _command_dir(out_base, "metrics")
    ctx.articles(directory)

    payload: dict = {}
    for metric_name, by_outlet in sorted(ctx.series.items()):
        for outlet, series in sorted(by_outlet.items()):
            write_series_csv(series, directory / f"{outlet}__{metric_name}.csv")
            payload.setdefault(outlet, {})[metric_name] = {
                "series": [
                    [str(p.month), p.score_b, p.score_c, p.value] for p in series.points
                ],
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
    cfg = ctx.cfg
    directory = _command_dir(out_base, "cluster")
    ctx.articles(directory)

    cleaned: dict[tuple[str, str], list[float]] = {}
    skipped: list[str] = []
    for metric_name, by_outlet in ctx.series.items():
        for outlet, series in by_outlet.items():
            values = drop_missing(series.values())
            if values:
                cleaned[(outlet, metric_name)] = z_normalize(values) if cfg.znormalize else values
            else:
                skipped.append(f"{outlet}/{metric_name}")
    if len(cleaned) < 2:
        raise DataError("clustering needs at least 2 non-empty series")
    labels, matrix = distance_matrix({f"{outlet}/{m}": values for (outlet, m), values in cleaned.items()})
    write_distance_csv(labels, matrix, directory / "distance_matrix.csv")
    payload: dict = {
        "linkage": cfg.linkage,
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
        dendro = cluster(names, [[matrix[i][j] for j in rows] for i in rows], cfg.linkage)
        target[key] = dendro.root.to_dict()
        (directory / f"dendrogram_{stem}.newick").write_text(dendro.to_newick() + "\n", encoding="utf-8")

    _write_json(payload, directory / "cluster.json")
    _write_json(_provenance(cfg, "cluster"), directory / "provenance.json")
    return payload


def _party_token_sets(lexicons) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Single-token lexicon phrases, lowercased for embedding lookups."""
    sets = []
    for lex in lexicons[:2]:
        tokens = tuple(
            sorted({p.lower() for p in lex.phrases if len(p.split()) == 1})
        )
        sets.append(tokens)
    return sets[0], sets[1]


def _embedding_seed(base_seed: int, outlet_index: int, year: int) -> int:
    return int(np.random.SeedSequence([base_seed, outlet_index, year]).generate_state(1)[0])


def cmd_weat(ctx: RunContext, out_base: Path) -> dict:
    """Yearly embeddings and WEAT scores.

    Reads each article in its own pass rather than from the text table, so
    that `report`, which runs this first, does not hold the table while SGNS
    trains.
    """
    cfg = ctx.cfg
    directory = _command_dir(out_base, "weat")
    lexicons = ctx.lexicons
    articles = ctx.articles(directory)
    s1, s2 = _party_token_sets(lexicons)
    sets = AssociationSets(s1=s1, s2=s2, a1=cfg.weat_positive, a2=cfg.weat_negative)

    buckets: dict[tuple[str, int], list[Article]] = {}
    for article in articles:
        buckets.setdefault((article.outlet, article.published.year), []).append(article)
    outlets = sorted({outlet for outlet, _ in buckets})

    payload: dict = {}
    csv_rows: list[str] = ["outlet,year,group1,group2,weat_score"]
    for outlet_index, outlet in enumerate(outlets):
        years = sorted(year for o, year in buckets if o == outlet)
        spaces = []
        for year in years:
            sentences = []
            for article in buckets[(outlet, year)]:
                units = [headline_sentence(article)] + article_sentences(article)
                for unit in units:
                    if unit.tokens:
                        sentences.append([t.lower() for t in unit.tokens])
            params = SgnsParams(
                dim=cfg.embedding.dim,
                window=cfg.embedding.window,
                negatives=cfg.embedding.negatives,
                epochs=cfg.embedding.epochs,
                min_count=cfg.embedding.min_count,
                subsample=cfg.embedding.subsample,
                seed=_embedding_seed(cfg.seed, outlet_index, year),
            )
            space = train_sgns(sentences, params, year=year)
            save_binary(space, directory / f"{outlet}_{year}.nbe")
            spaces.append(space)
        if len(spaces) < 2:
            raise DataError(f"outlet {outlet}: popularity timeline needs >= 2 years")
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
        for year, g1, g2 in zip(timeline.years, timeline.group1, timeline.group2):
            score = scores.get(str(year))
            csv_rows.append(
                f"{outlet},{year},{'' if g1 is None else repr(g1)},"
                f"{'' if g2 is None else repr(g2)},{'' if score is None else repr(score)}"
            )
    (directory / "popularity.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")
    _write_json(payload, directory / "weat.json")
    _write_json(_provenance(cfg, "weat"), directory / "provenance.json")
    return payload


def cmd_geo(ctx: RunContext, out_base: Path) -> dict:
    cfg = ctx.cfg
    directory = _command_dir(out_base, "geo")
    gazetteer = ctx.gazetteer
    articles = ctx.articles(directory)

    buckets: dict[tuple[str, int], list[Article]] = {}
    for article in articles:
        buckets.setdefault((article.outlet, article.published.year), []).append(article)

    payload: dict = {"totals": {}, "trends": {}}
    for level in ("city", "state"):
        rows = []
        outlet_counts: dict[str, Counter] = {}
        for (outlet, year) in sorted(buckets):
            counts = count_mentions(buckets[(outlet, year)], gazetteer, level, ctx.table)
            # An outlet's totals are the sums of its yearly counts.
            outlet_counts.setdefault(outlet, Counter()).update(counts)
            dist = coverage_distribution(counts)
            for place in sorted(dist.counts):
                rows.append((year, outlet, place, dist.counts[place], dist.shares[place]))
        write_coverage_csv(rows, directory / f"coverage_{level}.csv")
        totals = {}
        for outlet, counts in sorted(outlet_counts.items()):
            dist = coverage_distribution(counts)
            totals[outlet] = {
                place: {"count": dist.counts[place], "share": dist.shares[place]}
                for place in sorted(dist.counts)
            }
        payload["totals"][level] = totals

    trends = yearly_geo_trends(articles, gazetteer, level="state", table=ctx.table)
    write_trends_csv(trends, directory / "trends_state.csv")
    payload["trends"] = {
        outlet: [[t.year, t.inverse_std, t.bottom20, t.bottom50] for t in rows]
        for outlet, rows in sorted(trends.items())
    }
    _write_json(payload, directory / "geo.json")
    _write_json(_provenance(cfg, "geo"), directory / "provenance.json")
    return payload


def cmd_probe(ctx: RunContext, out_base: Path) -> dict:
    cfg = ctx.cfg
    directory = _command_dir(out_base, "probe")
    articles = ctx.articles(directory)
    party_b, party_c = cfg.probe.party_tokens

    buckets: dict[tuple[str, int], list[Article]] = {}
    for article in articles:
        buckets.setdefault((article.outlet, article.published.year), []).append(article)
    outlets = sorted({outlet for outlet, _ in buckets})

    payload: dict = {}
    csv_rows = [f"outlet,year,p_{party_b},p_{party_c}"]
    for outlet in outlets:
        years = sorted(year for o, year in buckets if o == outlet)
        backends = {}
        popularity = []
        for year in years:
            backend = ngram_backend(
                buckets[(outlet, year)],
                order=cfg.probe.order,
                smoothing=cfg.probe.smoothing,
                table=ctx.table,
            )
            backends[year] = backend
            try:
                p_b, p_c = popularity_pair(backend, party_b, party_c, cfg.probe.prompt)
            except UndefinedProbabilityError:
                p_b = p_c = None
            popularity.append([year, p_b, p_c])
            csv_rows.append(
                f"{outlet},{year},{'' if p_b is None else repr(p_b)},{'' if p_c is None else repr(p_c)}"
            )
        rising: list = []
        falling: list = []
        if len(years) >= 2:
            rising, falling = token_delta_ranking(
                backends[years[0]],
                backends[years[-1]],
                cfg.probe.prompt,
                k=cfg.probe.top_k,
                m=cfg.probe.max_rank,
            )
        payload[outlet] = {
            "popularity": popularity,
            "rising": [[t, d] for t, d in rising],
            "falling": [[t, d] for t, d in falling],
        }
    (directory / "popularity.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")
    _write_json(payload, directory / "probe.json")
    _write_json(_provenance(cfg, "probe"), directory / "provenance.json")
    return payload


def cmd_report(ctx: RunContext, out_base: Path) -> dict:
    directory = _command_dir(out_base, "report")
    provenance = _provenance(ctx.cfg, "report")
    # weat first: SGNS training is the run's memory peak, and the text table
    # that the other commands share does not exist yet while it trains.
    weat = cmd_weat(ctx, out_base)
    metrics = cmd_metrics(ctx, out_base)
    clusters = cmd_cluster(ctx, out_base)
    del ctx.series  # no later command reads them
    bundle = {
        "provenance": provenance,
        "commands": {
            "metrics": metrics,
            "cluster": clusters,
            "weat": weat,
            "geo": cmd_geo(ctx, out_base),
            "probe": cmd_probe(ctx, out_base),
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
    config = default_config(relative, output_dir="out", seed=args.seed)
    config["date_range"] = {
        "start": f"{spec.start_year}-01-01",
        "end": f"{spec.start_year + (spec.months - 1) // 12}-12-31",
    }
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
        runner(RunContext(cfg), out_base)
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
