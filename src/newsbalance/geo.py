"""Place-mention counting and coverage homogeneity trends.

An article contributes at most one count per place no matter how often it
repeats the name; matching is whole-token, case-insensitive and alias-folded
("Odisha" counts toward "Orissa"). A gazetteer holds one matcher over its
cities and states, built when it loads, so a place name the matcher cannot
use fails `validate`. Counts are made from each article's units, one
(outlet, year) partition at a time, and one scan of an article counts both
levels; an outlet's totals are the sums of its yearly counts. Homogeneity is
summarized three ways: the inverse standard deviation of the share
distribution and the total share of the bottom 20% and bottom 50% of places.
This module writes no file: `cli` writes the coverage and trend tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import ArticleUnits, tokenize
from .errors import ConfigError, ContractViolation
from .tagging import PhraseMatcher

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
]

_UNIFORM_EPS = 1e-12

CITY = "city"
STATE = "state"


def load_place_list(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse a place file: one canonical name per line, optional comma-separated aliases.

    Every name needs a word token, and names must stay unique after alias
    folding: the same surface form may not point at two different canonical
    places.
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
            if not key:
                raise ConfigError(f"{path}:{lineno}: name {name!r} has no word tokens")
            owner = folded.setdefault(key, canonical)
            if owner != canonical:
                raise ConfigError(
                    f"{path}:{lineno}: name {name!r} already belongs to {owner!r}"
                )
        places[canonical] = tuple(names[1:])
    return places


@dataclass(frozen=True)
class Gazetteer:
    """City and state name lists with alias folding, and one matcher over
    both levels, built with the lists, whose labels are (level, place)."""

    cities: dict
    states: dict
    matcher: PhraseMatcher = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        phrases = [
            ((level, canonical), name)
            for level, places in ((CITY, self.cities), (STATE, self.states))
            for canonical, aliases in places.items()
            for name in (canonical, *aliases)
        ]
        object.__setattr__(self, "matcher", PhraseMatcher(phrases, acronyms_case_sensitive=False))

    @classmethod
    def load(cls, cities_path: str | Path, states_path: str | Path) -> "Gazetteer":
        states = load_place_list(states_path)
        # State homogeneity is a spread over places, which one place lacks.
        if len(states) < 2:
            raise ConfigError(f"{states_path}: the states list needs at least 2 places, got {len(states)}")
        return cls(cities=load_place_list(cities_path), states=states)


def count_mentions(units: Sequence[ArticleUnits], gazetteer: Gazetteer) -> dict[str, dict[str, int]]:
    """Article counts per level and place (once per article), zero-count places included.

    `units` holds each article's headline unit and content sentences, as
    `corpus.article_units` gives them; an article names a place when the
    gazetteer's matcher finds it in the headline's tokens followed by the
    content's, one scan for both levels.
    """
    counts = {CITY: dict.fromkeys(gazetteer.cities, 0), STATE: dict.fromkeys(gazetteer.states, 0)}
    for headline, content in units:
        # The content units' tokens, joined, are the content's tokens.
        tokens = [token for unit in (headline, *content) for token in unit]
        for level, place in gazetteer.matcher.match_tokens(tokens):
            counts[level][place] += 1
    return counts


@dataclass(frozen=True)
class CoverageDistribution:
    """Counts and normalized shares over every gazetteer place."""

    counts: dict
    shares: dict


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
    counts: Mapping[tuple[str, int], Mapping[str, int]],
) -> dict[str, list[YearHomogeneity]]:
    """Per-outlet, per-year homogeneity triples from per-(outlet, year) place
    counts, one level's of what `count_mentions` gives; years without counts
    are omitted."""
    trends: dict[str, list[YearHomogeneity]] = {}
    for outlet, year in sorted(counts):
        dist = coverage_distribution(counts[(outlet, year)])
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
