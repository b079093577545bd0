from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from newsbalance import nlp
from newsbalance.corpus import article_units, tokenize
from newsbalance.errors import ConfigError
from newsbalance.metrics import AnalyzerSuite
from newsbalance.nlp import (
    CAPS_EMPHASIS,
    NEGATION_DAMP,
    NORMALIZE_ALPHA,
    FactTable,
    ValenceLexicon,
    default_subjectivity_lexicon,
    default_valence_lexicon,
    load_subjectivity_lexicon,
)
from newsbalance.synthetic import SynthSpec, generate_corpus
from newsbalance.tagging import build_matcher, default_party_lexicons

import oracles
from oracles import DEGREE_COMPARATIVE, DEGREE_NONE, DEGREE_SUPERLATIVE, reference_features


def norm(total: float) -> float:
    return total / math.sqrt(total * total + NORMALIZE_ALPHA)


def analyzers(valence=None, subjectivity=None) -> AnalyzerSuite:
    """A suite of the default lexicons, or of the ones given."""
    lexicons = default_party_lexicons()
    return AnalyzerSuite(
        valence=valence or default_valence_lexicon(),
        subjectivity=default_subjectivity_lexicon() if subjectivity is None else subjectivity,
        lexicons=lexicons,
        matcher=build_matcher(lexicons),
    )


DEFAULT = analyzers()


def features(tokens, valence=None, subjectivity=None):
    """The feature row of one unit, through `AnalyzerSuite.features`."""
    suite = DEFAULT if valence is None and subjectivity is None else analyzers(valence, subjectivity)
    return row_of(suite, tuple(tokens))


def row_of(suite, unit):
    """The unit's feature row, given the unit's spans as the documents give them."""
    return suite.features(unit, suite.matcher.match_spans(unit))


def sentiment(tokens, valence=None) -> tuple[float, float]:
    row = features(tokens, valence)
    return row.positive, row.negative


class TestSentiment:
    def test_all_neutral(self):
        assert sentiment(["the", "committee", "met", "today"]) == (0.0, 0.0)

    def test_single_positive_hit(self):
        # the shipped lexicon carries good = 1.9; normalization is x/sqrt(x^2+15)
        assert DEFAULT.valence.valences["good"] == 1.9
        positive, negative = sentiment(["good"])
        assert positive == pytest.approx(norm(1.9), abs=1e-12)
        assert negative == 0.0

    def test_negation_flips_and_damps(self):
        positive, negative = sentiment(["not", "good"])
        expected = norm(abs(1.9 * NEGATION_DAMP))
        assert positive == 0.0
        assert negative == pytest.approx(expected, abs=1e-12)

    def test_negation_window_is_three_tokens(self):
        hit = sentiment(["not", "a", "very", "good", "idea"])
        assert hit[1] > 0
        out_of_window = sentiment(["not", "a", "b", "c", "good"])
        assert out_of_window[0] > 0 and out_of_window[1] == 0.0

    def test_booster_raises_magnitude(self):
        plain = sentiment(["good"])
        boosted = sentiment(["very", "good"])
        assert boosted[0] == pytest.approx(norm(1.9 + 0.293), abs=1e-12)
        assert boosted[0] > plain[0]

    def test_caps_emphasis_in_mixed_case(self):
        mixed = sentiment(["a", "GOOD", "deal"])
        assert mixed[0] == pytest.approx(norm(1.9 + CAPS_EMPHASIS), abs=1e-12)
        all_caps = sentiment(["A", "GOOD", "DEAL"])
        assert all_caps[0] == pytest.approx(norm(1.9), abs=1e-12)

    def test_outputs_bounded(self):
        tokens = ["terrible", "awful", "great", "excellent"] * 10
        positive, negative = sentiment(tokens)
        assert 0.0 <= positive <= 1.0
        assert 0.0 <= negative <= 1.0

    @given(tokens=st.lists(st.sampled_from(["good", "bad", "the", "very", "not"]), max_size=8))
    def test_neutral_suffix_never_changes_result(self, tokens):
        assert sentiment(tokens) == sentiment(tokens + ["committee"])

    @pytest.mark.parametrize("valence", [1e200, 1e308])
    def test_huge_valence_sums_score_one(self, valence):
        """Sums whose square, or which themselves, overflow score 1, never 0 or NaN."""
        lexicon = ValenceLexicon(valences={"good": valence, "bad": -valence}, boosters={}, negators=frozenset())
        assert sentiment(["good", "good", "bad", "bad"], lexicon) == (1.0, 1.0)

    def test_loader_rejects_bad_class(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("good\t1.0\tmystery\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            ValenceLexicon.load(path)

    @pytest.mark.parametrize(
        "row", ["good\tinf", "good\t-inf", "good\tnan", "very\tinf\tbooster", "very\tnan\tbooster", "not\tinf\tnegator"]
    )
    def test_loader_rejects_non_finite_scores(self, tmp_path, row):
        path = tmp_path / "v.tsv"
        path.write_text(row + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not finite"):
            ValenceLexicon.load(path)


class TestSubjectivity:
    def test_no_hits(self):
        assert features(["committee", "met"], subjectivity={"good": 0.6}).subjectivity == 0.0

    def test_singleton_mean(self):
        assert features(["good"], subjectivity={"good": 0.8}).subjectivity == 0.8

    def test_hand_mean(self):
        lexicon = {"odd": 0.2, "plain": 0.6}
        assert features(["odd", "plain", "стол"], subjectivity=lexicon).subjectivity == pytest.approx(0.4)

    def test_case_insensitive(self):
        assert features(["GOOD"], subjectivity={"good": 0.5}).subjectivity == 0.5

    def test_loader_range_check(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("loud\t1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_subjectivity_lexicon(path)

    @pytest.mark.parametrize("score", ["abc", "", "nan", "inf"])
    def test_loader_rejects_scores_that_are_not_numbers(self, tmp_path, score):
        path = tmp_path / "s.tsv"
        path.write_text(f"loud\t{score}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="s.tsv:1"):
            load_subjectivity_lexicon(path)

    def test_default_lexicon_loads(self):
        lexicon = default_subjectivity_lexicon()
        assert all(0.0 <= v <= 1.0 for v in lexicon.values())
        assert len(lexicon) > 100


class TestTagDegree:
    """Degree hits through the fast path; the word table also pins the oracle's flags."""

    def test_exception_list_superlative(self):
        assert features(["best"]).degree_hits == 1

    def test_suffix_rule_comparative(self):
        # suffix rule: strip -er, stem "great" passes the stem guard
        assert features(["greater"]).degree_hits == 1

    def test_blocker_table(self):
        assert features(["other"]).degree_hits == 0

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
        assert features([token]).degree_hits == (expected != DEGREE_NONE)
        assert oracles.tag_degree([token]) == [expected]

    def test_deterministic_and_exceptions_dominate(self):
        tokens = ["best", "other", "bigger", "most", "paper"]
        assert features(tokens).degree_hits == features(tokens).degree_hits == 3
        assert features(["better"]).degree_hits == 1  # not blocked by -er lookalikes


class TestReportedSpeech:
    def speakers(self, sentence) -> set[str]:
        """The unit's speakers, found among its spans."""
        return set(row_of(DEFAULT, tuple(tokenize(sentence))).speakers)

    def test_canonical_pattern(self):
        assert self.speakers("BJP said the bill will pass") == {"bjp"}

    def test_keyword_after_verb_not_attributed(self):
        assert self.speakers("The minister told reporters that Congress objected") == set()

    def test_both_parties_before_verb(self):
        assert self.speakers("BJP and Congress said the talks failed") == {"bjp", "congress"}

    def test_intervening_finite_verb_blocks(self):
        assert self.speakers("BJP said officials told reporters about Congress") == {"bjp"}

    def test_no_narrative_verb(self):
        assert self.speakers("BJP campaigned across the state") == set()

    def test_nonfinite_form_does_not_block(self):
        # "saying" anchors an attribution but must not block the earlier phrase
        assert self.speakers("Congress kept saying the deal was dead") == {"congress"}

    @pytest.mark.parametrize(
        "sentence",
        [
            "BJP said yes",
            "Congress told a story",
            "Voters said BJP and Congress failed",
            "Nothing to see here",
        ],
    )
    def test_attribution_implies_mention(self, sentence):
        assert self.speakers(sentence) <= DEFAULT.matcher.match_tokens(tokenize(sentence))


# Valences small enough that a booster flips their sign, so the order of the
# boosters in a window and the sign each one reads both show in the sums.
SIGN_FLIP = analyzers(
    ValenceLexicon(
        valences={"meh": 0.2, "ugh": -0.1, "fine": 0.8, "good": 1.9, "bad": -2.5, "void": 0.0},
        boosters={"very": 0.293, "barely": -0.293, "so": 0.5},
        negators=frozenset({"not", "never", "don't"}),
    ),
    {"good": 0.7, "meh": 0.0, "fine": 0.3, "bjp": 0.5},
)

# Tokens that the rules treat specially: mixed and all-caps forms, boosters of
# either sign, negators with straight and curly apostrophes, party names
# (hyphenated too), narrative verbs (hyphenated too), -er/-est words and their
# blockers, and tokens the tokenizer never makes.
_ADVERSARIAL = [
    "good", "GOOD", "Good", "bad", "BAD", "fine", "FINE", "meh", "MEH", "ugh", "void", "x", "the", "A", "I",
    "very", "VERY", "barely", "so", "slightly", "hardly", "less", "most", "not", "NOT", "never",
    "don't", "don’t", "can’t", "isn't", "NSUI’s", "Delhi’s",
    "BJP", "bjp", "Congress", "CONGRESS", "Congress-led", "BJP-ruled", "NDA-UPA", "United", "Progressive", "Alliance",
    "said", "SAID", "told", "Told", "saying", "telling", "says", "say-so", "tell-all", "said-BJP",
    "other", "forest", "nicer", "greatest", "better", "best", "BEST", "West", "over", "leader", "42",
    "-", "--", "",
]
adversarial_units = st.lists(st.sampled_from(_ADVERSARIAL), max_size=12).map(tuple)
# Short runs of small valences, boosters and negators, dense enough that a
# booster flips the running sign within a window.
window_units = st.lists(
    st.sampled_from(["meh", "MEH", "ugh", "fine", "very", "barely", "so", "not", "x"]), max_size=8
).map(tuple)

_SYNTH = generate_corpus(SynthSpec(seed=7, months=1, articles_per_month=30))
SYNTH_UNITS = [unit for headline, content in article_units(_SYNTH) for unit in (headline, *content)]
synth_units = st.sampled_from(SYNTH_UNITS)
units = st.one_of(
    adversarial_units,
    window_units,
    synth_units,
    st.tuples(synth_units, adversarial_units, synth_units).map(lambda parts: parts[0] + parts[1] + parts[2]),
)


def bits(row):
    """A feature row with its floats as their bytes."""
    floats = tuple(struct.pack("<d", x) for x in (row.positive, row.negative, row.subjectivity))
    return floats, row.degree_hits, row.speakers


class TestFeaturesOracle:
    """`AnalyzerSuite.features` against `reference_features`, the four analyzers
    as they were, bit for bit."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(units)
    @example(())
    @example(("not", "x", "x", "good"))  # the negator three tokens back
    @example(("not", "x", "x", "x", "good"))  # four back: out of the window
    @example(("barely", "very", "meh"))  # barely flips the sign that very then reads
    @example(("Congress-led", "rally", "said", "BJP-ruled", "told", "saying"))
    def test_rows_equal_the_oracle(self, unit):
        for suite in (DEFAULT, SIGN_FLIP):
            assert bits(row_of(suite, unit)) == bits(reference_features(suite, unit)), unit

    def test_synth_units_equal_the_oracle(self):
        for suite in (DEFAULT, SIGN_FLIP):
            assert [bits(row_of(suite, u)) for u in SYNTH_UNITS] == [
                bits(reference_features(suite, u)) for u in SYNTH_UNITS
            ]

    def test_facts_stay_bounded(self):
        """More types than the table keeps: it is cleared, and rows do not change."""
        suite = analyzers()
        types = [f"w{i}" for i in range(nlp._FACTS_LIMIT + 100)]
        units = [tuple(types[i : i + 7]) + ("not", "GOOD", "said", "BJP") for i in range(0, len(types), 7)]
        for unit in units:
            assert bits(row_of(suite, unit)) == bits(reference_features(suite, unit))
            assert len(suite.facts._facts) <= nlp._FACTS_LIMIT

    def test_case_forms_are_separate_types(self):
        table = FactTable(default_valence_lexicon(), {})
        upper, lower = table(["GOOD", "good"])
        assert upper.caps and not lower.caps
        assert upper._replace(caps=False) == lower
        assert len(table._facts) == 2
