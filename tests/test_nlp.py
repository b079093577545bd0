from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from newsbalance.corpus import tokenize
from newsbalance.errors import ConfigError
from newsbalance.nlp import (
    CAPS_EMPHASIS,
    DEGREE_COMPARATIVE,
    DEGREE_NONE,
    DEGREE_SUPERLATIVE,
    NEGATION_DAMP,
    NORMALIZE_ALPHA,
    ValenceLexicon,
    default_valence_lexicon,
    default_subjectivity_lexicon,
    detect_reported_speech,
    load_subjectivity_lexicon,
    sentence_sentiment,
    sentence_subjectivity,
    tag_degree,
)
from newsbalance.tagging import build_matcher


def norm(total: float) -> float:
    return total / math.sqrt(total * total + NORMALIZE_ALPHA)


@pytest.fixture(scope="module")
def valence():
    return default_valence_lexicon()


class TestSentiment:
    def test_all_neutral(self, valence):
        result = sentence_sentiment(["the", "committee", "met", "today"], valence)
        assert result == type(result)(positive=0.0, negative=0.0)

    def test_single_positive_hit(self, valence):
        # the shipped lexicon carries good = 1.9; normalization is x/sqrt(x^2+15)
        assert valence.valences["good"] == 1.9
        result = sentence_sentiment(["good"], valence)
        assert result.positive == pytest.approx(norm(1.9), abs=1e-12)
        assert result.negative == 0.0

    def test_negation_flips_and_damps(self, valence):
        result = sentence_sentiment(["not", "good"], valence)
        expected = norm(abs(1.9 * NEGATION_DAMP))
        assert result.positive == 0.0
        assert result.negative == pytest.approx(expected, abs=1e-12)

    def test_negation_window_is_three_tokens(self, valence):
        hit = sentence_sentiment(["not", "a", "very", "good", "idea"], valence)
        assert hit.negative > 0
        out_of_window = sentence_sentiment(["not", "a", "b", "c", "good"], valence)
        assert out_of_window.positive > 0 and out_of_window.negative == 0.0

    def test_booster_raises_magnitude(self, valence):
        plain = sentence_sentiment(["good"], valence)
        boosted = sentence_sentiment(["very", "good"], valence)
        assert boosted.positive == pytest.approx(norm(1.9 + 0.293), abs=1e-12)
        assert boosted.positive > plain.positive

    def test_caps_emphasis_in_mixed_case(self, valence):
        mixed = sentence_sentiment(["a", "GOOD", "deal"], valence)
        assert mixed.positive == pytest.approx(norm(1.9 + CAPS_EMPHASIS), abs=1e-12)
        all_caps = sentence_sentiment(["A", "GOOD", "DEAL"], valence)
        assert all_caps.positive == pytest.approx(norm(1.9), abs=1e-12)

    def test_outputs_bounded(self, valence):
        tokens = ["terrible", "awful", "great", "excellent"] * 10
        result = sentence_sentiment(tokens, valence)
        assert 0.0 <= result.positive <= 1.0
        assert 0.0 <= result.negative <= 1.0

    @given(tokens=st.lists(st.sampled_from(["good", "bad", "the", "very", "not"]), max_size=8))
    def test_neutral_suffix_never_changes_result(self, valence, tokens):
        base = sentence_sentiment(tokens, valence)
        extended = sentence_sentiment(tokens + ["committee"], valence)
        assert base == extended

    def test_loader_rejects_bad_class(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("good\t1.0\tmystery\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            ValenceLexicon.load(path)


class TestSubjectivity:
    def test_no_hits(self):
        assert sentence_subjectivity(["committee", "met"], {"good": 0.6}) == 0.0

    def test_singleton_mean(self):
        assert sentence_subjectivity(["good"], {"good": 0.8}) == 0.8

    def test_hand_mean(self):
        lexicon = {"odd": 0.2, "plain": 0.6}
        assert sentence_subjectivity(["odd", "plain", "стол"], lexicon) == pytest.approx(0.4)

    def test_case_insensitive(self):
        assert sentence_subjectivity(["GOOD"], {"good": 0.5}) == 0.5

    def test_loader_range_check(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("loud\t1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_subjectivity_lexicon(path)

    def test_default_lexicon_loads(self):
        lexicon = default_subjectivity_lexicon()
        assert all(0.0 <= v <= 1.0 for v in lexicon.values())
        assert len(lexicon) > 100


class TestTagDegree:
    def test_exception_list_superlative(self):
        assert tag_degree(["best"]) == [DEGREE_SUPERLATIVE]

    def test_suffix_rule_comparative(self):
        # suffix oracle: strip -er, stem "great" passes the stem guard
        assert tag_degree(["greater"]) == [DEGREE_COMPARATIVE]

    def test_blocker_table(self):
        assert tag_degree(["other"]) == [DEGREE_NONE]

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("most", DEGREE_SUPERLATIVE),
            ("least", DEGREE_SUPERLATIVE),
            ("worst", DEGREE_SUPERLATIVE),
            ("more", DEGREE_COMPARATIVE),
            ("less", DEGREE_COMPARATIVE),
            ("better", DEGREE_COMPARATIVE),
            ("worse", DEGREE_COMPARATIVE),
            ("strongest", DEGREE_SUPERLATIVE),
            ("stronger", DEGREE_COMPARATIVE),
            ("never", DEGREE_NONE),
            ("under", DEGREE_NONE),
            ("west", DEGREE_NONE),
            ("her", DEGREE_NONE),
            ("forest", DEGREE_NONE),
            ("42", DEGREE_NONE),
        ],
    )
    def test_word_table(self, token, expected):
        assert tag_degree([token]) == [expected]

    def test_deterministic_and_exceptions_dominate(self):
        tokens = ["best", "other", "bigger", "most", "paper"]
        assert tag_degree(tokens) == tag_degree(tokens)
        assert tag_degree(["better"]) == [DEGREE_COMPARATIVE]  # not blocked by -er lookalikes


class TestReportedSpeech:
    def test_canonical_pattern(self, lexicons):
        assert detect_reported_speech(tokenize("BJP said the bill will pass"), lexicons) == {"bjp"}

    def test_keyword_after_verb_not_attributed(self, lexicons):
        sentence = "The minister told reporters that Congress objected"
        assert detect_reported_speech(tokenize(sentence), lexicons) == set()

    def test_both_parties_before_verb(self, lexicons):
        sentence = "BJP and Congress said the talks failed"
        assert detect_reported_speech(tokenize(sentence), lexicons) == {"bjp", "congress"}

    def test_intervening_finite_verb_blocks(self, lexicons):
        sentence = "BJP said officials told reporters about Congress"
        assert detect_reported_speech(tokenize(sentence), lexicons) == {"bjp"}

    def test_no_narrative_verb(self, lexicons):
        assert detect_reported_speech(tokenize("BJP campaigned across the state"), lexicons) == set()

    def test_nonfinite_form_does_not_block(self, lexicons):
        # "saying" anchors an attribution but must not block the earlier phrase
        sentence = "Congress kept saying the deal was dead"
        assert detect_reported_speech(tokenize(sentence), lexicons) == {"congress"}

    @pytest.mark.parametrize(
        "sentence",
        [
            "BJP said yes",
            "Congress told a story",
            "Voters said BJP and Congress failed",
            "Nothing to see here",
        ],
    )
    def test_attribution_implies_mention(self, lexicons, sentence):
        attributed = detect_reported_speech(tokenize(sentence), lexicons)
        assert attributed <= build_matcher(lexicons).match_tokens(tokenize(sentence))
