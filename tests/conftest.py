from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import strategies as st

from newsbalance.corpus import Article
from newsbalance.geo import Gazetteer, count_mentions
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
def gazetteer():
    return Gazetteer.default()


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
