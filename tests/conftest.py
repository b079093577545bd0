from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import strategies as st

from newsbalance.corpus import Article, article_units, partition
from newsbalance.geo import Gazetteer, count_mentions
from newsbalance.metrics import AnalyzerSuite, compute_all_series
from newsbalance.synthetic import SynthSpec, generate_corpus
from newsbalance.tagging import default_party_lexicons
from newsbalance._data import data_path


@pytest.fixture(scope="session")
def lexicons():
    return default_party_lexicons()


@pytest.fixture(scope="session")
def suite(lexicons):
    return AnalyzerSuite.default(lexicons)


@pytest.fixture(scope="session")
def gazetteer():
    return Gazetteer.load(data_path("india_cities.txt"), data_path("india_states.txt"))


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


def place_counts(articles, gazetteer, level: str) -> dict:
    """`geo.count_mentions` over the articles' units, at one gazetteer level."""
    return count_mentions(article_units(articles), gazetteer)[level]


def yearly_place_counts(articles, gazetteer, level: str) -> dict:
    """Place counts per (outlet, year), the input of `geo.yearly_geo_trends`."""
    return {key: place_counts(group, gazetteer, level) for key, group in partition(articles).items()}


def fold_series(articles, metrics, suite) -> dict:
    """`metrics.compute_all_series` over the (outlet, year) partitions of the articles."""
    partitions = partition(articles)
    units = {key: article_units(group) for key, group in partitions.items()}
    return compute_all_series(partitions, units, metrics, suite)


# Pieces of news text that the sentence splitter and the tokenizer treat
# specially: abbreviations, initials, straight and curly quotes, apostrophes,
# hyphenated compounds, place names and runs of terminal punctuation. Each
# piece is followed by no space, a space or a line break.
_PIECES = [
    "Mr.", "Dr.", "U.S.", "St.", "J.", "A.", "Modi", "BJP", "Congress-led", "the", "rally",
    "Mumbai", "New Delhi", "Uttar Pradesh", "Mumbai-based", "Tamil-Nadu", "Delhi's",
    "don't", "NSUI’s", "’", "'", '"', "“", "”", "‘", "(", ")", "-", "--", ".", "?!", "...", "3.", "5",
]
adversarial_text = st.lists(
    st.tuples(st.sampled_from(_PIECES), st.sampled_from(["", " ", "\n"])), max_size=40
).map(lambda pieces: "".join(piece + gap for piece, gap in pieces))
