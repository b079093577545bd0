"""Place-mention counting and coverage homogeneity trends.

An article contributes at most one count per place no matter how often it
repeats the name; matching is whole-token, case-insensitive and alias-folded
("Odisha" counts toward "Orissa"). Homogeneity is summarized three ways: the
inverse standard deviation of the share distribution and the total share of
the bottom 20% and bottom 50% of places.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Article, tokenize
from .errors import ConfigError, ContractViolation
from .tagging import PhraseMatcher, TextTable
from ._data import data_path

__all__ = [
    "Gazetteer",
    "CoverageDistribution",
    "load_place_list",
    "count_mentions",
    "coverage_distribution",
    "homogeneity_inverse_std",
    "bottom_share",
    "YearHomogeneity",
    "yearly_geo_trends",
    "write_coverage_csv",
    "write_trends_csv",
]

_UNIFORM_EPS = 1e-12

CITY = "city"
STATE = "state"


def load_place_list(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse a place file: one canonical name per line, optional comma-separated aliases.

    Names must stay unique after alias folding: the same surface form may not
    point at two different canonical places.
    """
    places: dict[str, tuple[str, ...]] = {}
    folded: dict[tuple, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        names = [part.strip() for part in line.split(",") if part.strip()]
        if not names:
            continue
        canonical = names[0]
        if canonical in places:
            raise ConfigError(f"{path}:{lineno}: duplicate place {canonical!r}")
        for name in names:
            key = tuple(t.lower() for part in tokenize(name) for t in part.split("-"))
            owner = folded.setdefault(key, canonical)
            if owner != canonical:
                raise ConfigError(
                    f"{path}:{lineno}: name {name!r} already belongs to {owner!r}"
                )
        places[canonical] = tuple(names[1:])
    return places


@dataclass(frozen=True)
class Gazetteer:
    """City and state name lists with alias folding."""

    cities: dict
    states: dict

    @classmethod
    def load(cls, cities_path: str | Path, states_path: str | Path) -> "Gazetteer":
        states = load_place_list(states_path)
        # State homogeneity is a spread over places, which one place lacks.
        if len(states) < 2:
            raise ConfigError(f"{states_path}: the states list needs at least 2 places, got {len(states)}")
        return cls(cities=load_place_list(cities_path), states=states)

    @classmethod
    def default(cls) -> "Gazetteer":
        return cls.load(data_path("india_cities.txt"), data_path("india_states.txt"))

    def places(self, level: str) -> dict:
        if level == CITY:
            return self.cities
        if level == STATE:
            return self.states
        raise ConfigError(f"unknown gazetteer level {level!r}")

    def matcher(self, level: str) -> PhraseMatcher:
        phrases = []
        for canonical, aliases in self.places(level).items():
            phrases.append((canonical, canonical))
            for alias in aliases:
                phrases.append((canonical, alias))
        return PhraseMatcher(phrases, acronyms_case_sensitive=False)


def count_mentions(
    articles: Iterable[Article],
    gazetteer: Gazetteer,
    level: str = CITY,
    table: TextTable | None = None,
) -> dict[str, int]:
    """Article counts per place (once per article), zero-count places included.

    `table` keeps each article's place sets; without one, a table is made
    for this call.
    """
    counts = {place: 0 for place in gazetteer.places(level)}
    if table is None:
        table = TextTable()
    for article in articles:
        for place in table.places(article, level, gazetteer):
            counts[place] += 1
    return counts


@dataclass(frozen=True)
class CoverageDistribution:
    """Counts and normalized shares over every gazetteer place."""

    counts: dict
    shares: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def coverage_distribution(counts: Mapping[str, int]) -> CoverageDistribution:
    total = sum(counts.values())
    if total > 0:
        shares = {place: count / total for place, count in counts.items()}
    else:
        shares = {place: 0.0 for place in counts}
    return CoverageDistribution(counts=dict(counts), shares=shares)


def homogeneity_inverse_std(shares: Sequence[float]) -> float | None:
    """Inverse population standard deviation of the share vector.

    Returns None (undefined) for a perfectly uniform distribution rather than
    hiding it behind an epsilon.
    """
    n = len(shares)
    if n < 2:
        raise ContractViolation("inverse-std homogeneity needs at least 2 places")
    mean = sum(shares) / n
    variance = sum((s - mean) ** 2 for s in shares) / n
    std = math.sqrt(variance)
    if std < _UNIFORM_EPS:
        return None
    return 1.0 / std


def bottom_share(shares: Mapping[str, float], fraction: float) -> float:
    """Percentage of coverage held by the floor(fraction*n) least-covered places.

    Ties are broken by place name so the selection is deterministic.
    """
    if not shares:
        raise ContractViolation("bottom_share needs at least 1 place")
    if not 0.0 <= fraction <= 1.0:
        raise ContractViolation(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(shares.items(), key=lambda item: (item[1], item[0]))
    k = math.floor(fraction * len(ordered))
    return 100.0 * sum(share for _, share in ordered[:k])


@dataclass(frozen=True)
class YearHomogeneity:
    """One year's homogeneity triple for one outlet."""

    year: int
    inverse_std: float | None
    bottom20: float
    bottom50: float


def yearly_geo_trends(
    articles: Sequence[Article],
    gazetteer: Gazetteer,
    level: str = STATE,
    table: TextTable | None = None,
) -> dict[str, list[YearHomogeneity]]:
    """Per-outlet, per-year homogeneity triples; years with no articles are omitted.

    `table` keeps each article's place sets, as in `count_mentions`.
    """
    buckets: dict[tuple[str, int], list[Article]] = {}
    for article in articles:
        buckets.setdefault((article.outlet, article.published.year), []).append(article)
    trends: dict[str, list[YearHomogeneity]] = {}
    for outlet, year in sorted(buckets):
        dist = coverage_distribution(count_mentions(buckets[(outlet, year)], gazetteer, level, table))
        share_values = [dist.shares[p] for p in sorted(dist.shares)]
        trends.setdefault(outlet, []).append(
            YearHomogeneity(
                year=year,
                inverse_std=homogeneity_inverse_std(share_values),
                bottom20=bottom_share(dist.shares, 0.2),
                bottom50=bottom_share(dist.shares, 0.5),
            )
        )
    return trends


def write_coverage_csv(
    rows: Iterable[tuple[int, str, str, int, float]], path: str | Path
) -> None:
    """Write (year, outlet, place, count, share) rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["year", "outlet", "place", "count", "share"])
        for year, outlet, place, count, share in rows:
            writer.writerow([year, outlet, place, count, repr(share)])


def write_trends_csv(trends: Mapping[str, Sequence[YearHomogeneity]], path: str | Path) -> None:
    """Write (outlet, year, inverse_std, bottom20_pct, bottom50_pct) rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["outlet", "year", "inverse_std", "bottom20_pct", "bottom50_pct"])
        for outlet in sorted(trends):
            for row in trends[outlet]:
                writer.writerow(
                    [
                        outlet,
                        row.year,
                        "" if row.inverse_std is None else repr(row.inverse_std),
                        repr(row.bottom20),
                        repr(row.bottom50),
                    ]
                )
