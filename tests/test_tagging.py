from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from newsbalance import tagging
from newsbalance.corpus import MonthKey, article_sentences, article_units, headline_sentence, month_key, tokenize
from newsbalance.errors import ConfigError
from newsbalance.geo import CITY, STATE, Gazetteer
from newsbalance.tagging import (
    CONTENT,
    HEADLINE,
    PartyLexicon,
    PhraseMatcher,
    build_matcher,
    build_monthly_documents,
    get_document,
    load_party_lexicons,
)
from newsbalance._data import data_path

from conftest import adversarial_text, make_article
from oracles import ExpandEachCallPhraseMatcher, reference_content_documents


def match_parties(text, lexicons):
    """Party ids whose lexicon matches the text (or token sequence), as `build_monthly_documents` tags units."""
    tokens = tokenize(text) if isinstance(text, str) else text
    return build_matcher(lexicons).match_tokens(tokens)


class TestMatchParties:
    def test_direct_acronym_hit(self, lexicons):
        assert match_parties("The BJP announced a new plan", lexicons) == {"bjp"}

    def test_keyword_in_both_documents(self, lexicons):
        # NDA belongs to the bjp keyword set
        assert match_parties("Congress and NDA clashed", lexicons) == {"congress", "bjp"}

    def test_whole_token_boundary(self, lexicons):
        # "INC" must not fire inside "success" (nor lowercase "inc")
        assert match_parties("He achieved success", lexicons) == set()
        assert match_parties("the inc. results improved", lexicons) == set()
        assert match_parties("INC won the seat", lexicons) == {"congress"}

    def test_acronyms_case_sensitive(self, lexicons):
        assert match_parties("nda upa abvp nsui", lexicons) == set()

    def test_proper_names_case_insensitive(self, lexicons):
        assert match_parties("the congress rallied", lexicons) == {"congress"}
        assert match_parties("BHARATIYA JANATA PARTY wins", lexicons) == {"bjp"}

    def test_multiword_phrase(self, lexicons):
        assert match_parties("The United Progressive Alliance meets today", lexicons) == {"congress"}

    def test_hyphenated_compound_matches(self, lexicons):
        assert match_parties("A Congress-led front advanced", lexicons) == {"congress"}

    def test_accepts_tokens(self, lexicons):
        assert match_parties(["BJP", "wins"], lexicons) == {"bjp"}


class TestLexiconLoading:
    def test_duplicate_phrase_rejected(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text('{"a": ["X"], "b": ["X"]}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_party_lexicons(path)

    def test_requires_exactly_two_lexicons(self, tmp_path):
        path = tmp_path / "lex.json"
        for raw in ('{"a": ["X"]}', '{"a": ["X"], "b": ["Y"], "c": ["Z"]}'):
            path.write_text(raw, encoding="utf-8")
            with pytest.raises(ConfigError, match="exactly 2 party lexicons"):
                load_party_lexicons(path)

    def test_empty_phrases_rejected(self):
        with pytest.raises(ConfigError):
            PartyLexicon(party_id="a", phrases=())

    def test_shipped_defaults(self, lexicons):
        assert [lex.party_id for lex in lexicons] == ["bjp", "congress"]
        assert "BJP" in lexicons[0].phrases
        assert "United Progressive Alliance" in lexicons[1].phrases


def build(articles, lexicons, mode, suite):
    """The documents of the articles, tagged with these lexicons."""
    suite = dataclasses.replace(suite, lexicons=lexicons, matcher=build_matcher(lexicons))
    return build_monthly_documents(articles, article_units(articles), mode, suite, True)


# Adversarial text with reported speech by hyphenated and plain party names.
_SPEECH = ["BJP said", "Congress-led allies told", "NDA-UPA", "BJP-ruled states kept saying", "Congress and BJP said"]
speech_text = st.lists(st.one_of(adversarial_text, st.sampled_from(_SPEECH)), max_size=6).map(" ".join)


class TestBuildMonthlyDocuments:
    def test_headline_mode_single_party(self, lexicons, suite):
        article = make_article(headline="BJP sweeps local polls", content="Neutral text.")
        docs = build([article], lexicons, HEADLINE, suite)
        month = MonthKey(2010, 1)
        assert get_document(docs, month, "bjp", HEADLINE).units == 1
        assert get_document(docs, month, "congress", HEADLINE).units == 0

    def test_dual_mention_in_both(self, lexicons, suite):
        article = make_article(content="BJP blamed Congress. Unrelated line.")
        docs = build([article], lexicons, CONTENT, suite)
        month = MonthKey(2010, 1)
        bjp_doc = get_document(docs, month, "bjp", CONTENT)
        congress_doc = get_document(docs, month, "congress", CONTENT)
        assert bjp_doc.units == 1 and congress_doc.units == 1
        assert dataclasses.replace(bjp_doc, party_id="congress") == congress_doc
        assert bjp_doc.words == len(("BJP", "blamed", "Congress"))

    def test_sentence_counting(self, lexicons, suite):
        article = make_article(
            published="2014-05-10",
            content="BJP gained ground. BJP held a rally. Nothing here.",
        )
        docs = build([article], lexicons, CONTENT, suite)
        doc = get_document(docs, MonthKey(2014, 5), "bjp", CONTENT)
        assert doc.units == 2
        assert doc.words == 3 + 4

    def test_bad_mode_rejected(self, lexicons, suite):
        with pytest.raises(ConfigError):
            build([], lexicons, "paragraph", suite)

    def test_monotonic_under_addition(self, lexicons, suite):
        first = make_article(id="a1", content="BJP spoke.")
        second = make_article(id="a2", content="Congress replied. BJP answered.")
        docs_one = build([first], lexicons, CONTENT, suite)
        docs_two = build([first, second], lexicons, CONTENT, suite)
        for key, doc in docs_one.items():
            for name in ("units", "words", "pov_words", "degree_hits", "positive", "negative", "subjectivity"):
                assert getattr(doc, name) <= getattr(docs_two[key], name), name
        assert docs_two[(MonthKey(2010, 1), "bjp")].units == 2

    def test_swap_lexicons_swaps_documents(self, lexicons, suite):
        articles = [
            make_article(id="a1", headline="BJP wins", content="Congress protested."),
            make_article(id="a2", headline="Congress regroups", content="BJP celebrated."),
        ]
        swapped = [lexicons[1], lexicons[0]]
        for mode in (HEADLINE, CONTENT):
            assert build(articles, lexicons, mode, suite) == build(articles, swapped, mode, suite)

    def test_units_rematch_their_lexicon(self, lexicons, suite, bundled_articles):
        """Each document counts the units that its party's lexicon alone matches."""
        sample = bundled_articles[:200]
        docs = build(sample, lexicons, CONTENT, suite)
        expected: dict = {}
        for article in sample:
            for unit in article_sentences(article):
                for lex in lexicons:
                    if match_parties(list(unit), [lex]):
                        key = (month_key(article.published), lex.party_id)
                        units, words = expected.get(key, (0, 0))
                        expected[key] = (units + 1, words + len(unit))
        assert {key: (doc.units, doc.words) for key, doc in docs.items()} == expected

    def test_content_documents_equal_the_oracle(self, suite, bundled_articles):
        """Each unit matched once, its row scaled once: the documents of the
        analyzers as they were, unit by unit."""
        sample = bundled_articles[::7]
        units = article_units(sample)
        assert build_monthly_documents(sample, units, CONTENT, suite, True) == reference_content_documents(
            sample, units, suite
        )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.builds(make_article, headline=st.just(""), content=speech_text), max_size=4))
    def test_adversarial_documents_equal_the_oracle(self, suite, articles):
        units = article_units(articles)
        assert build_monthly_documents(articles, units, CONTENT, suite, True) == reference_content_documents(
            articles, units, suite
        )

    def test_order_insensitive(self, lexicons, suite, bundled_articles):
        sample = list(bundled_articles[:120])
        forward = build(sample, lexicons, CONTENT, suite)
        backward = build(list(reversed(sample)), lexicons, CONTENT, suite)
        assert forward == backward


@given(
    st.lists(
        st.sampled_from(["BJP", "Congress", "voters", "rally", "NDA", "spoke"]),
        min_size=1,
        max_size=12,
    )
)
def test_match_parties_subset_of_token_vocab(tokens):
    lexicons = [
        PartyLexicon("bjp", ("BJP", "NDA")),
        PartyLexicon("congress", ("Congress",)),
    ]
    found = match_parties(tokens, lexicons)
    expected = set()
    if "BJP" in tokens or "NDA" in tokens:
        expected.add("bjp")
    if "Congress" in tokens:
        expected.add("congress")
    assert found == expected


_EDGE_TEXTS = [
    "Congress-led BJP-ruled alliance",
    "the NDA-UPA face-off and the upa-nda rematch",
    "-BJP BJP- a--b BJP--Congress ---",
    "bjp Bjp BJP bJP CONGRESS congress Congress",
    "United-Progressive Alliance and United Progressive-Alliance",
    "Bharatiya Janata Party Bharatiya-Janata-Party bharatiya janata",
    "New Delhi new-delhi NEW DELHI Delhi-based Mumbai's Navi-Mumbai",
    "Orissa Odisha ODISHA Tamil Nadu Tamil-Nadu tamil",
    "National Students' Union of India NSUI nsui",
    "",
    "BJP",
    "Congress Congress Congress",
]


def _edge_units():
    units = [tokenize(text) for text in _EDGE_TEXTS]
    # A phrase cut short at the end of the unit, and one of its parts alone.
    units += [["United", "Progressive"], ["Progressive", "Alliance"], ["Janata-Party"]]
    return units


class TestPhraseMatcherOracle:
    """The per-type form cache against `ExpandEachCallPhraseMatcher`, the plain matcher."""

    @pytest.fixture(scope="class")
    def matchers(self, lexicons):
        gazetteer = Gazetteer.load(data_path("india_cities.txt"), data_path("india_states.txt"))
        party = [(lex.party_id, phrase) for lex in lexicons for phrase in lex.phrases]
        pairs = [(PhraseMatcher(party), ExpandEachCallPhraseMatcher(party))]
        both = []
        for level, places in ((CITY, gazetteer.cities), (STATE, gazetteer.states)):
            places = [(place, alias) for place, aliases in places.items() for alias in (place, *aliases)]
            pairs.append((PhraseMatcher(places, False), ExpandEachCallPhraseMatcher(places, False)))
            both += [((level, place), alias) for place, alias in places]
        # The gazetteer's own matcher, over both levels.
        pairs.append((gazetteer.matcher, ExpandEachCallPhraseMatcher(both, False)))
        return pairs

    def test_edge_cases(self, matchers):
        for matcher, oracle in matchers:
            for tokens in _edge_units():
                assert matcher.match_tokens(tokens) == oracle.match_tokens(tokens), tokens
                assert matcher.match_spans(tokens) == oracle.match_spans(tokens), tokens

    def test_synth_units(self, matchers, bundled_articles):
        units = []
        for article in bundled_articles[::10]:
            units.append(headline_sentence(article))
            units.extend(article_sentences(article))
            units.append(tokenize(article.headline) + tokenize(article.content))
        for matcher, oracle in matchers:
            # Twice, so the second pass reads cached forms only.
            for _ in range(2):
                assert [matcher.match_tokens(u) for u in units] == [oracle.match_tokens(u) for u in units]
                assert [matcher.match_spans(u) for u in units] == [oracle.match_spans(u) for u in units]

    def test_forms_stay_bounded(self, lexicons, monkeypatch):
        monkeypatch.setattr(tagging, "_FORMS_LIMIT", 3)
        party = [(lex.party_id, phrase) for lex in lexicons for phrase in lex.phrases]
        matcher, oracle = PhraseMatcher(party), ExpandEachCallPhraseMatcher(party)
        for tokens in _edge_units() * 2:
            assert matcher.match_tokens(tokens) == oracle.match_tokens(tokens), tokens
            assert matcher.match_spans(tokens) == oracle.match_spans(tokens), tokens
            assert len(matcher._forms) <= 3

    @given(st.lists(st.sampled_from(["BJP", "bjp", "Congress-led", "NDA-UPA", "United", "Progressive",
                                     "Alliance", "-", "Delhi", "New", "voters", "Janata-Party"]), max_size=10))
    def test_random_sequences(self, matchers, tokens):
        for matcher, oracle in matchers:
            assert matcher.match_tokens(tokens) == oracle.match_tokens(tokens)
            assert matcher.match_spans(tokens) == oracle.match_spans(tokens)
