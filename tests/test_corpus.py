from __future__ import annotations

import datetime as dt
import json

import pytest
from hypothesis import given, settings, strategies as st

from newsbalance.corpus import (
    MonthKey,
    article_sentences,
    article_units,
    load_corpus,
    month_key,
    split_sentences,
    tokenize,
    write_corpus,
    write_skip_report,
)
from newsbalance.errors import DataError

from conftest import adversarial_text, make_article


def _write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def _record(i, published="2010-01-15"):
    return {
        "id": f"a{i}",
        "outlet": "daily-alpha",
        "published": published,
        "headline": f"Headline {i}",
        "content": "Some content.",
    }


class TestLoadCorpus:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [_record(i) for i in range(3)])
        articles, skips = load_corpus(path)
        assert len(articles) == 3
        assert skips == []
        assert [a.id for a in articles] == ["a0", "a1", "a2"]

    def test_bad_date_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [_record(0), _record(1, published="2010-13-45"), _record(2)])
        articles, skips = load_corpus(path)
        assert len(articles) == 2
        assert len(skips) == 1
        assert skips[0].line == 2
        assert "date" in skips[0].reason

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        articles, skips = load_corpus(path)
        assert articles == [] and skips == []

    def test_missing_field_and_bad_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = _record(0)
        del bad["headline"]
        path.write_text(json.dumps(bad) + "\n{not json\n", encoding="utf-8")
        articles, skips = load_corpus(path)
        assert articles == []
        assert [s.line for s in skips] == [1, 2]

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "missing.jsonl")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        originals = [
            make_article(id="x1", headline="BJP wins", content="One. Two."),
            make_article(id="x2", published="2011-06-03", content="Unicode: café."),
        ]
        write_corpus(originals, path)
        reloaded, skips = load_corpus(path)
        assert skips == []
        assert reloaded == originals

    def test_skip_report_format(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [_record(0, published="nope")])
        _, skips = load_corpus(path)
        report = tmp_path / "skips.jsonl"
        write_skip_report(skips, report)
        row = json.loads(report.read_text().splitlines()[0])
        assert set(row) == {"line", "reason"}


class TestSplitSentences:
    def test_two_terminal_periods(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_abbreviation_guard(self):
        assert split_sentences("Mr. Modi spoke.") == ["Mr. Modi spoke."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_initials_guard(self):
        assert split_sentences("J. Nehru arrived.") == ["J. Nehru arrived."]

    def test_lowercase_continuation_not_split(self):
        assert split_sentences("It cost 3. 5 percent less. see here") == [
            "It cost 3. 5 percent less. see here"
        ]

    def test_question_and_exclamation(self):
        assert split_sentences("Really?! Yes. Fine") == ["Really?!", "Yes.", "Fine"]

    def test_idempotent_on_single_sentences(self):
        for text in ["The vote passed.", "Why not?", "Stop!", "No terminal punctuation"]:
            spans = split_sentences(text)
            assert spans == [text]
            assert split_sentences(spans[0]) == spans

    @given(st.text(max_size=300))
    def test_covers_non_whitespace(self, text):
        spans = split_sentences(text)
        stripped = "".join(text.split())
        assert "".join("".join(s.split()) for s in spans) == stripped

    @given(st.text(max_size=200))
    def test_resplitting_spans_is_identity(self, text):
        for span in split_sentences(text):
            assert split_sentences(span) == [span]


class TestTokenize:
    def test_whitespace_punct_split(self):
        assert tokenize("BJP won 42 seats.") == ["BJP", "won", "42", "seats"]

    def test_hyphen_internal(self):
        # hand oracle: hyphens joining word characters stay inside the token
        assert tokenize("Congress-led UPA") == ["Congress-led", "UPA"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophes_and_case(self):
        assert tokenize("Didn't the NSUI's cadre march?") == ["Didn't", "the", "NSUI's", "cadre", "march"]

    @given(st.text(max_size=200))
    def test_sentence_word_counts_sum_to_text_count(self, text):
        sentences = split_sentences(text)
        assert sum(len(tokenize(s)) for s in sentences) == len(tokenize(text))

    @settings(max_examples=500)
    @given(st.one_of(adversarial_text, st.text(max_size=200)))
    def test_span_tokens_joined_are_the_text_tokens(self, text):
        """The text table's places read the units' tokens in place of the whole text's."""
        assert [t for span in split_sentences(text) for t in tokenize(span)] == tokenize(text)


class TestMonthKey:
    @pytest.mark.parametrize(
        "date,expected",
        [("2014-05-16", "2014-05"), ("2010-01-01", "2010-01"), ("2018-12-31", "2018-12")],
    )
    def test_examples(self, date, expected):
        assert str(month_key(dt.date.fromisoformat(date))) == expected

    def test_order_and_next(self):
        assert MonthKey(2010, 12) < MonthKey(2011, 1)
        assert MonthKey(2010, 12).next() == MonthKey(2011, 1)
        assert MonthKey.parse("2013-07") == MonthKey(2013, 7)

    def test_invalid_month(self):
        with pytest.raises(ValueError):
            MonthKey(2010, 13)


def test_article_sentences_dense_index():
    article = make_article(content="First point. Second point. Third.")
    assert article_sentences(article) == [("First", "point"), ("Second", "point"), ("Third",)]


def test_equal_tokens_in_units_are_one_string():
    """Unit tokens are interned, so equal words in different articles' units are one object."""
    (head_a, content_a), (head_b, content_b) = article_units([
        make_article(id="a", headline="Congress rally", content="The Congress met. Voters came."),
        make_article(id="b", headline="Voters speak", content="Congress-led alliance. The Congress won."),
    ])
    assert content_b == (("Congress-led", "alliance"), ("The", "Congress", "won"))
    assert head_a[0] is content_a[0][1] is content_b[1][1]
    assert content_a[1][0] is head_b[0]
    assert content_a[0][0] is content_b[1][0]


def test_duplicate_ids_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record(0), _record(0), _record(1)])
    articles, skips = load_corpus(path)
    assert [a.id for a in articles] == ["a0", "a1"]
    assert len(skips) == 1 and "duplicate id" in skips[0].reason
