from io import StringIO

import pytest

from pmctag.conll import (LabeledCorpus, apply_mapping, mark_known, read_conll,
                          read_records, read_tag_mapping, write_conll)
from pmctag.errors import FormatError, UnknownTag
from pmctag.model import Interner


class TestReadConll:
    def test_two_token_sentence(self):
        corpus = read_conll(StringIO("John NNP\n. .\n\n"), 0, 1)
        assert corpus.sentences == [[("John", "NNP"), (".", ".")]]

    def test_multiple_blank_lines_equal_one(self):
        one = read_conll(StringIO("a X\n\nb Y\n"), 0, 1)
        two = read_conll(StringIO("a X\n\n\n\nb Y\n"), 0, 1)
        assert one.sentences == two.sentences

    def test_trailing_blanks_and_missing_final_newline(self):
        base = read_conll(StringIO("a X\n\nb Y\n"), 0, 1)
        no_nl = read_conll(StringIO("a X\n\nb Y"), 0, 1)
        trailing = read_conll(StringIO("a X\n\nb Y\n\n\n"), 0, 1)
        assert base.sentences == no_nl.sentences == trailing.sentences

    def test_tabs_and_spaces_both_split(self):
        corpus = read_conll(StringIO("a\tX\nb  Y\n"), 0, 1)
        assert corpus.sentences == [[("a", "X"), ("b", "Y")]]

    def test_missing_tag_column_names_line(self):
        with pytest.raises(FormatError) as err:
            read_conll(StringIO("a X\nb\n"), 0, 1)
        assert err.value.line == 2

    def test_missing_tag_names_line_when_rows_agree(self):
        with pytest.raises(FormatError) as err:
            read_conll(StringIO("a\nb\n"), 0, 1)
        assert err.value.line == 1
        assert "expected a tag in column 1" in str(err.value)

    @pytest.mark.parametrize("word_column, tag_column", [(-1, 1), (0, -1), (-2, -1)])
    def test_negative_columns_rejected_before_reading(self, word_column, tag_column):
        # an empty stream has no line a per-line check could fail on
        with pytest.raises(FormatError, match="column must be 0 or more"):
            read_conll(StringIO(""), word_column, tag_column)

    def test_missing_word_column(self):
        with pytest.raises(FormatError):
            read_conll(StringIO("a X\n"), 5, 1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(FormatError) as err:
            read_records(StringIO("a X Y\nb X\n"), 0)
        assert err.value.line == 2

    def test_column_selection(self):
        corpus = read_conll(StringIO("w1 pos1 chunk1\nw2 pos2 chunk2\n"), 0, 2)
        assert corpus.sentences == [[("w1", "chunk1"), ("w2", "chunk2")]]

    def test_skip_pattern_drops_boundary_lines(self):
        text = "-DOCSTART- -X- O\n\nEU NNP B-ORG\n"
        corpus = read_conll(StringIO(text), 0, 2, skip_pattern=r"-DOCSTART-")
        assert corpus.sentences == [[("EU", "B-ORG")]]

    def test_comment_prefix(self):
        text = "# text = hi\n1 hi X\n"
        corpus = read_conll(StringIO(text), 1, 2, comment_prefix="#")
        assert corpus.sentences == [[("hi", "X")]]

    def test_hash_token_not_confused_with_comment(self):
        corpus = read_conll(StringIO("# NN B-NP\n"), 0, 1)
        assert corpus.sentences == [[("#", "NN")]]


class TestWriteConll:
    def test_round_trip_identity(self):
        rows = [[["a", "X", "1"], ["b", "Y", "2"]], [["c", "Z", "3"]]]
        out = StringIO()
        write_conll(rows, out)
        back = read_records(StringIO(out.getvalue()), 0)
        assert back == rows

    def test_labeled_corpus_round_trip(self):
        corpus = LabeledCorpus([[("a", "X")], [("b", "Y"), ("c", "Z")]])
        out = StringIO()
        write_conll(corpus, out)
        assert read_conll(StringIO(out.getvalue()), 0, 1).sentences == corpus.sentences

    def test_deterministic_bytes(self):
        corpus = LabeledCorpus([[("a", "X")]])
        first, second = StringIO(), StringIO()
        write_conll(corpus, first)
        write_conll(corpus, second)
        assert first.getvalue() == second.getvalue() == "a X\n\n"


class TestTagMapping:
    def test_apply(self):
        corpus = LabeledCorpus([[("John", "NNP"), ("runs", "VBZ")]])
        mapped = apply_mapping(corpus, {"NNP": "NOUN", "VBZ": "VERB"})
        assert mapped.sentences == [[("John", "NOUN"), ("runs", "VERB")]]

    def test_identity_mapping(self):
        corpus = LabeledCorpus([[("a", "X"), ("b", "Y")]])
        assert apply_mapping(corpus, {"X": "X", "Y": "Y"}).sentences == corpus.sentences

    def test_unmapped_tag_listed(self):
        corpus = LabeledCorpus([[("a", "X"), ("b", "Q"), ("c", "R")]])
        with pytest.raises(UnknownTag) as err:
            apply_mapping(corpus, {"X": "X"})
        assert err.value.tags == ["Q", "R"]

    def test_mapping_file_parse(self):
        mapping = read_tag_mapping(StringIO("NNP\tNOUN\n\nVBZ\tVERB\n"))
        assert mapping == {"NNP": "NOUN", "VBZ": "VERB"}

    def test_mapping_file_conflict(self):
        with pytest.raises(FormatError):
            read_tag_mapping(StringIO("A\tX\nA\tY\n"))

    def test_mapping_file_bad_row(self):
        with pytest.raises(FormatError) as err:
            read_tag_mapping(StringIO("A\n"))
        assert err.value.line == 1


class TestMarkKnown:
    def test_all_known(self):
        vocab = Interner(["a", "b"])
        corpus = LabeledCorpus([[("a", "X"), ("b", "Y")]])
        assert mark_known(corpus, vocab) == [[True, True]]

    def test_empty_vocabulary(self):
        corpus = LabeledCorpus([[("a", "X"), ("b", "Y")]])
        assert mark_known(corpus, Interner()) == [[False, False]]

    def test_mixed(self):
        vocab = Interner(["a"])
        corpus = LabeledCorpus([[("a", "X"), ("b", "Y"), ("a", "Z")]])
        assert mark_known(corpus, vocab) == [[True, False, True]]
