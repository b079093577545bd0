from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from newsbalance.corpus import article_units
from newsbalance.errors import ContractViolation
from newsbalance.geo import (
    CITY,
    STATE,
    Gazetteer,
    bottom_share,
    count_mentions,
    coverage_distribution,
    homogeneity_inverse_std,
    yearly_geo_trends,
)

from conftest import adversarial_text, make_article, place_counts, yearly_place_counts
from oracles import whole_text_places


def toy_gazetteer(names):
    return Gazetteer(cities={}, states={name: () for name in names})


class TestCountMentions:
    def test_repetition_counts_once(self, gazetteer):
        article = make_article(content="Delhi Delhi Delhi. Delhi again, Delhi.")
        counts = place_counts([article], gazetteer, "city")
        assert counts["Delhi"] == 1

    def test_two_cities_both_counted(self, gazetteer):
        article = make_article(content="Trains between Delhi and Mumbai resumed.")
        counts = place_counts([article], gazetteer, "city")
        assert counts["Delhi"] == 1 and counts["Mumbai"] == 1

    def test_alias_folding(self, gazetteer):
        article = make_article(content="Odisha approved the port project.")
        counts = place_counts([article], gazetteer, "state")
        assert counts["Orissa"] == 1

    def test_case_insensitive_whole_token(self, gazetteer):
        counts = place_counts([make_article(content="DELHI stays warm")], gazetteer, "city")
        assert counts["Delhi"] == 1
        counts = place_counts([make_article(content="The Delhiites cheered")], gazetteer, "city")
        assert counts["Delhi"] == 0

    def test_multi_token_state(self, gazetteer):
        article = make_article(content="Votes were counted in Tamil Nadu today.")
        counts = place_counts([article], gazetteer, "state")
        assert counts["Tamil Nadu"] == 1

    def test_headline_also_counts(self, gazetteer):
        article = make_article(headline="Mumbai metro opens", content="No places here.")
        assert place_counts([article], gazetteer, "city")["Mumbai"] == 1

    def test_order_independent(self, gazetteer):
        articles = [
            make_article(id="a1", content="Delhi hosted talks."),
            make_article(id="a2", content="Mumbai and Delhi traded."),
        ]
        assert place_counts(articles, gazetteer, "city") == place_counts(
            list(reversed(articles)), gazetteer, "city"
        )

    def test_zero_count_places_present(self, gazetteer):
        counts = place_counts([make_article(content="Nothing located")], gazetteer, "city")
        assert len(counts) == 25
        assert all(v == 0 for v in counts.values())

    def test_places_equal_the_whole_text_oracle(self, gazetteer, bundled_articles):
        articles = bundled_articles[:300]
        for article, units in zip(articles, article_units(articles), strict=True):
            counts = count_mentions((units,), gazetteer)
            for level in (CITY, STATE):
                assert {p for p, n in counts[level].items() if n} == whole_text_places(article, level, gazetteer)

    def test_one_scan_keeps_each_level_apart(self, gazetteer):
        """Delhi is a city and a state, and New Delhi an alias of both: one
        scan still counts each level as a matcher of that level alone would."""
        article = make_article(
            headline="New Delhi and Odisha", content="Delhi traders reached Pimpri-Chinchwad."
        )
        counts = count_mentions(article_units([article]), gazetteer)
        for level in (CITY, STATE):
            assert {p for p, n in counts[level].items() if n} == whole_text_places(article, level, gazetteer)
        assert {p for p, n in counts[CITY].items() if n} == {"Delhi", "Pimpri-Chinchwad"}
        assert {p for p, n in counts[STATE].items() if n} == {"Delhi", "Orissa"}

    @settings(max_examples=200, deadline=None)
    @given(adversarial_text, adversarial_text)
    def test_places_of_adversarial_texts(self, gazetteer, headline, content):
        article = make_article(headline=headline, content=content)
        for level in (CITY, STATE):
            counts = place_counts([article], gazetteer, level)
            assert {p for p, n in counts.items() if n} == whole_text_places(article, level, gazetteer)


class TestDistributionAndHomogeneity:
    def test_shares_sum_to_one(self):
        dist = coverage_distribution({"a": 3, "b": 1, "c": 0})
        assert sum(dist.shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_is_undefined(self):
        assert homogeneity_inverse_std([0.25, 0.25, 0.25, 0.25]) is None

    def test_hand_std(self):
        # population std of {0.75, 0.25} is 0.25; inverse is 4
        assert homogeneity_inverse_std([0.75, 0.25]) == pytest.approx(4.0, abs=1e-12)

    def test_more_uniform_is_larger(self):
        skewed = homogeneity_inverse_std([0.9, 0.1])
        flatter = homogeneity_inverse_std([0.6, 0.4])
        assert flatter > skewed

    def test_min_places(self):
        with pytest.raises(ContractViolation):
            homogeneity_inverse_std([1.0])


class TestBottomShare:
    def test_uniform_twenty_percent(self):
        shares = {f"p{i}": 0.1 for i in range(10)}
        assert bottom_share(shares, 0.2) == pytest.approx(20.0, abs=1e-9)

    def test_single_dominant(self):
        shares = {"big": 1.0}
        shares.update({f"p{i}": 0.0 for i in range(9)})
        assert bottom_share(shares, 0.5) == 0.0

    def test_hand_sorted_case(self):
        shares = {"a": 0.5, "b": 0.3, "c": 0.1, "d": 0.06, "e": 0.04}
        assert bottom_share(shares, 0.2) == pytest.approx(4.0, abs=1e-9)

    def test_full_fraction_returns_everything(self):
        shares = {"a": 0.25, "b": 0.75}
        assert bottom_share(shares, 1.0) == pytest.approx(100.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            bottom_share({}, 0.2)

    @given(
        st.dictionaries(
            st.sampled_from([f"p{i}" for i in range(8)]),
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=1,
        ),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_fraction(self, shares, f1, f2):
        low, high = sorted((f1, f2))
        assert bottom_share(shares, low) <= bottom_share(shares, high) + 1e-9


class TestYearlyTrends:
    def test_planted_flattening(self):
        """Bottom-2 states gain coverage every year, so bottom20 must rise."""
        names = [f"state{c}" for c in "abcdefghij"]
        gaz = toy_gazetteer(names)
        articles = []
        counter = 0
        for year_offset in range(5):
            year = 2010 + year_offset
            counts = {names[0]: 40}
            counts.update({name: 10 for name in names[1:8]})
            counts.update({name: 1 + year_offset for name in names[8:]})
            for name, count in counts.items():
                for _ in range(count):
                    articles.append(
                        make_article(
                            id=f"g{counter}",
                            published=f"{year}-06-15",
                            content=f"Report from {name} today.",
                        )
                    )
                    counter += 1
        trends = yearly_geo_trends(yearly_place_counts(articles, gaz, "state"))["daily-alpha"]
        bottom20 = [t.bottom20 for t in trends]
        assert len(bottom20) == 5
        assert all(x < y for x, y in zip(bottom20, bottom20[1:]))

    def test_single_year_corpus(self, gazetteer):
        articles = [make_article(content="Delhi and Maharashtra featured.")]
        trends = yearly_geo_trends(yearly_place_counts(articles, gazetteer, "state"))
        assert len(trends["daily-alpha"]) == 1
        assert trends["daily-alpha"][0].year == 2010

    def test_empty_year_omitted(self, gazetteer):
        articles = [
            make_article(id="a1", published="2010-03-01", content="Delhi news."),
            make_article(id="a2", published="2012-03-01", content="Mumbai news."),
        ]
        trends = yearly_geo_trends(yearly_place_counts(articles, gazetteer, "city"))
        years = [t.year for t in trends["daily-alpha"]]
        assert years == [2010, 2012]


def test_alias_collision_rejected(tmp_path):
    target = tmp_path / "places.txt"
    target.write_text("Alpha, Shared\nBeta, Shared\n", encoding="utf-8")
    from newsbalance.errors import ConfigError
    from newsbalance.geo import load_place_list
    with pytest.raises(ConfigError):
        load_place_list(target)
