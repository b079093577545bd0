"""Deterministic synthetic news corpus with planted, exactly countable signals.

The generated archive spans 24 months and three outlets. Within each
outlet-month the first party owns exactly 70% of party headlines during the
first year and exactly 30% during the second, so the headline-coverage
imbalance is +0.4 and then -0.4 with no sampling noise. Party-bearing content
sentences keep their token counts inside [7, 15]; with a 70/30 article split
that bounds the content word ratio away from 1, so the content-coverage sign
is structurally guaranteed every month. Attribute co-occurrence and cloze
("vote for") sentences drift between the years to exercise the embedding and
probe pipelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Sequence

from .config import RunConfig, schema_defaults
from .corpus import Article, write_corpus

__all__ = ["SynthSpec", "generate_corpus", "write_outlet_files", "default_config"]

PARTY_B = "bjp"
PARTY_C = "congress"

_HEADLINE_SURFACES = {
    PARTY_B: ["BJP", "BJP", "NDA", "Bharatiya Janata Party"],
    PARTY_C: ["Congress", "Congress", "UPA", "United Progressive Alliance"],
}
_CONTENT_SURFACES = {PARTY_B: ["BJP", "NDA"], PARTY_C: ["Congress", "UPA"]}

_TOPICS = [
    "infrastructure", "education", "irrigation", "housing", "transport",
    "healthcare", "taxation", "employment", "agriculture", "energy",
]
_DAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]

_POSITIVE_ATTRS = ["good", "honest", "efficient", "superior", "promising", "stronger", "steadier"]
_NEGATIVE_ATTRS = ["bad", "dishonest", "inefficient", "inferior", "dismal", "weaker", "shakier"]

_CITIES = [
    "Mumbai", "Delhi", "Bangalore", "Hyderabad", "Ahmedabad", "Chennai",
    "Kolkata", "Surat", "Pune", "Jaipur", "Lucknow", "Kanpur", "Nagpur",
    "Indore", "Thane", "Bhopal", "Visakhapatnam", "Patna", "Vadodara",
    "Ghaziabad", "Ludhiana", "Agra", "Nashik", "Faridabad",
]
_STATES = [
    "Maharashtra", "Uttar Pradesh", "Bihar", "West Bengal", "Rajasthan",
    "Karnataka", "Gujarat", "Tamil Nadu", "Kerala", "Punjab", "Haryana",
    "Assam", "Jharkhand", "Odisha", "Tripura", "Manipur", "Sikkim",
    "Meghalaya", "Mizoram", "Nagaland",
]

_HEADLINE_TEMPLATES = [
    "{p} announces {topic} push in {city}",
    "{p} leaders rally in {city} ahead of {topic} vote",
    "{p} unveils {topic} roadmap for {state}",
    "New {topic} scheme draws praise from {p}",
    "{p} presses for faster {topic} approvals",
]

# Party-bearing content templates; single-token party surface keeps every
# instance inside the 7..15 token band that guarantees the coverage sign.
_LEAD_TEMPLATES = [
    "The {p} leadership announced a new {topic} programme on {day}",
    "{p} workers organised a large {topic} rally in {city}",
    "Senior {p} members discussed the {topic} strategy with local units",
    "The {p} manifesto promised {attr} governance and steady {topic} reforms",
]
_EXTRA_TEMPLATES = [
    "Supporters described the {p} record on {topic} as {attr}",
    "Observers called the {p} position on {topic} {attr} overall",
    "Analysts rated the {p} campaign in {city} as {attr} this month",
    "Voters in {city} viewed the {p} approach to {topic} as {attr}",
    "Several districts reported {attr} responses to the {p} outreach drive",
]
_POV_TEMPLATES = [
    "{p} said the {topic} plan would expand in {city}",
    "{p} told reporters the {topic} measures were {attr} and timely",
    "The {p} spokesperson said citizens wanted {attr} progress on {topic}",
]
_DUAL_TEMPLATES = [
    "{p1} accused {p2} of delaying the {topic} bill",
    "{p1} and {p2} clashed over the {topic} proposal in parliament",
]
_FILLER_TEMPLATES = [
    "Local markets in {city} stayed busy through the festival week",
    "Heavy rain disrupted traffic across {city} and nearby districts",
    "A cultural festival in {state} drew visitors from across the region",
    "Farmers in {state} prepared for the sowing season this week",
    "The railway board opened a new line between {city} and {city2}",
    "Schools in {city} resumed classes after the monsoon break",
]
_PROBE_TEMPLATE = "This election people will vote for {p}"


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the generated archive."""

    seed: int = 42
    start_year: int = 2010
    months: int = 24
    articles_per_month: int = 70
    outlets: tuple[str, ...] = ("daily-alpha", "daily-beta", "daily-gamma")
    first_party_share: float = 0.7
    probe_per_month: int = 12
    probe_first_party: int = 8  # of probe_per_month; mirrored in the second half


def _weighted_places(rng: random.Random, places: Sequence[str], skew: float) -> str:
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(places))]
    return rng.choices(places, weights=weights, k=1)[0]


def _fill(template: str, rng: random.Random, values: dict) -> str:
    city2 = _weighted_places(rng, _CITIES, values["geo_skew"])
    return template.format(
        p=values.get("p", ""),
        p1=values.get("p1", ""),
        p2=values.get("p2", ""),
        topic=rng.choice(_TOPICS),
        day=rng.choice(_DAYS),
        attr=values.get("attr", rng.choice(_POSITIVE_ATTRS)),
        city=_weighted_places(rng, _CITIES, values["geo_skew"]),
        city2=city2,
        state=_weighted_places(rng, _STATES, values["geo_skew"]),
    )


def _attr(rng: random.Random, positive_prob: float) -> str:
    pool = _POSITIVE_ATTRS if rng.random() < positive_prob else _NEGATIVE_ATTRS
    return rng.choice(pool)


def generate_corpus(spec: SynthSpec = SynthSpec()) -> list[Article]:
    """Generate the full archive; a fixed spec yields an identical corpus."""
    rng = random.Random(spec.seed)
    articles: list[Article] = []
    half = spec.months // 2
    b_count_first = round(spec.first_party_share * spec.articles_per_month)

    for month_index in range(spec.months):
        year = spec.start_year + month_index // 12
        month = month_index % 12 + 1
        first_half = month_index < half
        b_count = b_count_first if first_half else spec.articles_per_month - b_count_first
        probe_b = spec.probe_first_party if first_half else spec.probe_per_month - spec.probe_first_party
        # second-year coverage flattens across places
        geo_skew = 1.6 if month_index < 12 else 0.8

        for outlet_index, outlet in enumerate(spec.outlets):
            # attribute mixtures drift between the two years and vary by outlet
            drift = 0.35 if first_half else 0.75
            tilt = 0.05 * (outlet_index - 1)
            pos_prob = {PARTY_B: drift + tilt, PARTY_C: (1.0 - drift) - tilt}

            parties = [PARTY_B] * b_count + [PARTY_C] * (spec.articles_per_month - b_count)
            rng.shuffle(parties)
            probe_parties = [PARTY_B] * probe_b + [PARTY_C] * (spec.probe_per_month - probe_b)
            rng.shuffle(probe_parties)

            for i, party in enumerate(parties):
                values = {"geo_skew": geo_skew}
                surface = rng.choice(_CONTENT_SURFACES[party])
                attr_prob = pos_prob[party]

                sentences = []
                values.update(p=surface, attr=_attr(rng, attr_prob))
                sentences.append(_fill(rng.choice(_LEAD_TEMPLATES), rng, values))
                for _ in range(2):
                    values.update(p=rng.choice(_CONTENT_SURFACES[party]), attr=_attr(rng, attr_prob))
                    sentences.append(_fill(rng.choice(_EXTRA_TEMPLATES), rng, values))
                values.update(p=rng.choice(_CONTENT_SURFACES[party]), attr=_attr(rng, attr_prob))
                sentences.append(_fill(rng.choice(_POV_TEMPLATES), rng, values))
                if rng.random() < 0.15:
                    other = PARTY_C if party == PARTY_B else PARTY_B
                    values.update(
                        p1=rng.choice(_CONTENT_SURFACES[party]),
                        p2=rng.choice(_CONTENT_SURFACES[other]),
                    )
                    sentences.append(_fill(rng.choice(_DUAL_TEMPLATES), rng, values))
                if i < spec.probe_per_month:
                    sentences.append(_PROBE_TEMPLATE.format(p=_CONTENT_SURFACES[probe_parties[i]][0]))
                for _ in range(2):
                    sentences.append(_fill(rng.choice(_FILLER_TEMPLATES), rng, values))
                rng.shuffle(sentences)

                headline_values = dict(values)
                headline_values.update(p=rng.choice(_HEADLINE_SURFACES[party]))
                articles.append(
                    Article(
                        id=f"{outlet}-{year}{month:02d}-{i:03d}",
                        outlet=outlet,
                        published=date(year, month, rng.randint(1, 28)),
                        headline=_fill(rng.choice(_HEADLINE_TEMPLATES), rng, headline_values),
                        content=". ".join(sentences) + ".",
                    )
                )
    return articles


def write_outlet_files(articles: Sequence[Article], directory: str | Path) -> dict:
    """Write one JSONL per outlet; returns outlet -> path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    outlets = sorted({a.outlet for a in articles})
    paths = {}
    for outlet in outlets:
        path = directory / f"{outlet}.jsonl"
        write_corpus([a for a in articles if a.outlet == outlet], path)
        paths[outlet] = path
    return paths


def default_config(corpus_paths: dict, spec: SynthSpec) -> dict:
    """The schema's defaults with the archive's corpora, dates and seed, and
    small embeddings: the synthetic vocabulary is tiny and the goal is a fast,
    reproducible end-to-end run."""
    config = schema_defaults(RunConfig)
    config["corpora"] = {outlet: str(path) for outlet, path in sorted(corpus_paths.items())}
    last_year = spec.start_year + (spec.months - 1) // 12
    config["date_range"] = {"start": f"{spec.start_year}-01-01", "end": f"{last_year}-12-31"}
    config["embedding"].update(dim=32, window=4, epochs=2)
    config["seed"] = spec.seed
    return config
