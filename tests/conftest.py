from __future__ import annotations

import datetime as dt

import pytest

from newsbalance.corpus import Article
from newsbalance.geo import count_mentions
from newsbalance.metrics import AnalyzerSuite
from newsbalance.synthetic import SynthSpec, generate_corpus
from newsbalance.tagging import default_party_lexicons


@pytest.fixture(scope="session")
def lexicons():
    return default_party_lexicons()


@pytest.fixture(scope="session")
def suite(lexicons):
    return AnalyzerSuite.default(lexicons)


@pytest.fixture(scope="session")
def bundled_articles():
    """The full bundled synthetic archive (fixed seed)."""
    return generate_corpus(SynthSpec(seed=42))


def make_article(
    id: str = "a1",
    outlet: str = "daily-alpha",
    published: str = "2010-01-15",
    headline: str = "",
    content: str = "",
) -> Article:
    return Article(
        id=id,
        outlet=outlet,
        published=dt.date.fromisoformat(published),
        headline=headline,
        content=content,
    )


def yearly_place_counts(articles, gazetteer, level: str) -> dict:
    """Place counts per (outlet, year), the input of `geo.yearly_geo_trends`."""
    buckets: dict = {}
    for article in articles:
        buckets.setdefault((article.outlet, article.published.year), []).append(article)
    return {key: count_mentions(group, gazetteer, level) for key, group in buckets.items()}
