from io import BytesIO, StringIO, TextIOWrapper
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conll_reference
from pmctag import conll
from pmctag.conll import (LabeledCorpus, apply_mapping, mark_known, read_conll,
                          read_records, read_tag_mapping, windows, write_conll)
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

    @pytest.mark.parametrize("word_column, tag_column, message", [
        pytest.param(-1, 1, "column must be 0 or more", id="-1-1"),
        pytest.param(0, -1, "column must be 0 or more", id="0--1"),
        pytest.param(-2, -1, "column must be 0 or more", id="-2--1"),
        pytest.param(2, 2, "tag column and word column are both 2", id="2-2"),
    ])
    def test_negative_columns_rejected_before_reading(self, word_column, tag_column,
                                                      message):
        # an empty stream has no line a per-line check could fail on
        with pytest.raises(FormatError, match=message):
            read_conll(StringIO(""), word_column, tag_column)

    def test_invalid_skip_pattern_rejected_before_reading(self):
        with pytest.raises(FormatError, match="invalid skip pattern '\\('"):
            read_records(StringIO(""), 0, skip_pattern="(")

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
        write_conll(corpus.sentences, out)
        assert read_conll(StringIO(out.getvalue()), 0, 1).sentences == corpus.sentences

    def test_deterministic_bytes(self):
        corpus = LabeledCorpus([[("a", "X")]])
        first, second = StringIO(), StringIO()
        write_conll(corpus.sentences, first)
        write_conll(corpus.sentences, second)
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


# str.split separators beyond space and tab; str.splitlines would also
# break lines at \x1c, \x1d, \x85 and \u2028, the reader must not
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\xa0", "\u2028", "\u3000"]
TOKENS = ["a", "B", "x1", "#", "#c", "-DOCSTART-", "\xe9", "ab-c", "\x00"]
STREAMS = {
    "string": StringIO,
    # what open(path, encoding="utf-8") gives: universal newlines
    "file": lambda text: TextIOWrapper(BytesIO(text.encode("utf-8")), encoding="utf-8"),
}


@st.composite
def _line(draw):
    """One line of mostly well-formed columns, with odd whitespace around them."""
    space = st.text(st.sampled_from(SPACES), max_size=2)
    if draw(st.booleans()):
        return draw(space)  # empty or whitespace-only
    cols = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4))
    seps = [draw(st.text(st.sampled_from(SPACES), min_size=1, max_size=2))
            for _ in cols[1:]]
    body = cols[0] + "".join(sep + col for sep, col in zip(seps, cols[1:]))
    return draw(space) + body + draw(space)


@st.composite
def _corpus_text(draw):
    """Lines with LF or CRLF ends and an optional final newline, or raw noise."""
    if draw(st.integers(0, 3)) == 0:
        pieces = ["a", "B", "#", " ", "\t", "\x1c", "\x85", "\xa0", "\u2028", "\n", "\r",
                  "\r\n", "-DOCSTART-"]
        return "".join(draw(st.lists(st.sampled_from(pieces), max_size=40)))
    lines = draw(st.lists(_line(), max_size=12))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, stream, **options):
    """The sentences read, or the FormatError's message and line."""
    try:
        result = read(stream, **options)
    except FormatError as exc:
        return "error", str(exc), exc.line
    return getattr(result, "sentences", result)


_columns = st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 3))) \
    .filter(lambda wt: wt[0] != wt[1])


EDGE_TEXTS = [
    "# \n", "#\t\na X\n", "a X\x1cb Y\n", "a X\x85\n", "a\u2028X\n", "a X\r\nb Y\r\n",
    "a X\rb Y\n", "\n\n a X \n \t \n\nb Y", "a X\n\x0b\nb Y", "a X\nb\n", "a\nb X\n",
    "-DOCSTART- X\n\na X Y\n", "#c d\na X\n", "a X Y\nb X\n", "\x00 X\n", "",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_reader_matches_line_loop_on_edge_cases(text):
    for word_column in (0, 1):
        for tag_column in {None, 1, 2} - {word_column}:
            for comment_prefix in (None, "#", "# "):
                for skip_pattern in (None, "-DOCSTART-", "[A-Z].*"):
                    options = dict(word_column=word_column, tag_column=tag_column,
                                   comment_prefix=comment_prefix,
                                   skip_pattern=skip_pattern)
                    for make in STREAMS.values():
                        assert _outcome(read_records, make(text), **options) == \
                            _outcome(conll_reference.read_records, make(text), **options)


@settings(max_examples=600, deadline=None)
@given(text=_corpus_text(), columns=_columns,
       comment_prefix=st.sampled_from([None, "#", "# "]),
       skip_pattern=st.sampled_from([None, "-DOCSTART-", "[A-Z].*"]),
       stream=st.sampled_from(sorted(STREAMS)))
def test_reader_matches_line_loop(text, columns, comment_prefix, skip_pattern, stream):
    word_column, tag_column = columns
    options = dict(word_column=word_column, comment_prefix=comment_prefix,
                   skip_pattern=skip_pattern)
    make = STREAMS[stream]
    assert _outcome(read_records, make(text), tag_column=tag_column, **options) == \
        _outcome(conll_reference.read_records, make(text), tag_column=tag_column,
                 **options)
    if tag_column is not None:
        got = _outcome(read_conll, make(text), tag_column=tag_column, **options)
        assert got == _outcome(conll_reference.read_conll, make(text),
                               tag_column=tag_column, **options)
        if got and got[0] != "error":
            assert all(type(pair) is tuple for sent in got for pair in sent)


def _read_windows(stream, budget, **options):
    """read_records over every window of the stream, joined."""
    return [sent for window in windows(stream, budget, **options)
            for sent in read_records(window, **options)]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_corpus_text(), min_size=1, max_size=3), budget=st.integers(1, 6),
       columns=_columns, comment_prefix=st.sampled_from([None, "#", "# "]),
       skip_pattern=st.sampled_from([None, "-DOCSTART-", "[A-Z].*"]),
       stream=st.sampled_from(sorted(STREAMS)))
def test_windows_read_like_the_line_loop(texts, budget, columns, comment_prefix,
                                         skip_pattern, stream):
    """Texts joined by blank lines put a later text's lines, well-formed or
    not, after the first windows."""
    text = "\n\n".join(texts)
    word_column, tag_column = columns
    options = dict(word_column=word_column, tag_column=tag_column,
                   comment_prefix=comment_prefix, skip_pattern=skip_pattern)
    make = STREAMS[stream]
    assert _outcome(_read_windows, make(text), budget=budget, **options) == \
        _outcome(conll_reference.read_records, make(text), **options)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_corpus_text(), min_size=1, max_size=3), block=st.integers(1, 4),
       budget=st.integers(1, 6), columns=_columns,
       comment_prefix=st.sampled_from([None, "#", "# "]),
       skip_pattern=st.sampled_from([None, "-DOCSTART-", "[A-Z].*"]),
       stream=st.sampled_from(sorted(STREAMS)))
def test_readers_at_any_block_size_read_like_the_line_loop(texts, block, budget, columns,
                                                          comment_prefix, skip_pattern, stream):
    """The readers read a stream in blocks of `block` non-blank lines, most
    of them shorter than a sentence here, and each read and window still
    gives the line loop's sentences or error."""
    text = "\n\n".join(texts)
    word_column, tag_column = columns
    options = dict(word_column=word_column, tag_column=tag_column,
                   comment_prefix=comment_prefix, skip_pattern=skip_pattern)
    make = STREAMS[stream]
    expected = _outcome(conll_reference.read_records, make(text), **options)
    with mock.patch.object(conll, "_BLOCK_LINES", block):
        assert _outcome(read_records, make(text), **options) == expected
        assert _outcome(_read_windows, make(text), budget=budget, **options) == expected
        if tag_column is not None:
            assert _outcome(read_conll, make(text), **options) == \
                _outcome(conll_reference.read_conll, make(text), **options)


@pytest.mark.parametrize("text", EDGE_TEXTS + [
    "a X\n\nb Y\n\nc\n", "a X\r\n\r\nb Y Z\r\n", "a X\rb Y\r\rc\n", "a X\n\x85\nb\u2028Y\n\nc\n",
    "a X\n\nb\x85Y\n\nc Y Z\n", "# c\n\na X\n\n#\nb\n"])
@pytest.mark.parametrize("budget", [1, 2, 3])
def test_windows_read_like_the_line_loop_on_edge_cases(text, budget):
    for tag_column in (None, 1):
        for comment_prefix in (None, "#"):
            options = dict(tag_column=tag_column, comment_prefix=comment_prefix)
            for make in STREAMS.values():
                assert _outcome(_read_windows, make(text), budget=budget, **options) == \
                    _outcome(conll_reference.read_records, make(text), **options)


def test_windows_hold_whole_sentences_of_at_least_the_budget():
    text = "a\nb\nc\n\nd\n\n\ne\nf\n\ng\n"
    got = [window.getvalue() for window in windows(StringIO(text), 2)]
    assert got == ["a\nb\nc\n\n", "d\n\n\ne\nf\n\n", "g\n"]
    assert [w.getvalue() for w in windows(StringIO(""), 2)] == [""]


def test_windows_check_the_tag_mapping_before_the_first_window():
    text = "a X\n\nb Q\n\nc R\n\nd Q\n"
    with pytest.raises(UnknownTag) as err:
        windows(StringIO(text), 1, tag_column=1, mapping={"X": "Y"})
    assert err.value.tags == ["Q", "R"]
    assert len(list(windows(StringIO(text), 1, tag_column=1,
                            mapping=dict.fromkeys("XQR", "Y")))) == 4


def test_windows_refuse_a_stream_that_cannot_be_rewound():
    class Pipe(StringIO):
        def seekable(self):
            return False

    with pytest.raises(FormatError, match="cannot be read twice"):
        windows(Pipe("a X\n"), 1)


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80"])
@pytest.mark.parametrize("place", [0, 8191, 65535, 65536, 70000, None])
def test_windows_place_bad_utf8_in_the_file(bad, place, tmp_path):
    """The check decodes the file in chunks, and the rest of the file in
    blocks of 64 KiB when a chunk fails; the message is the codec's for
    the whole file, also for a sequence cut by a block edge or the file end."""
    data = bytearray(b"a X\n" * 20000)
    at = len(data) if place is None else place
    data[at:at] = bad
    path = tmp_path / "corpus.conll"
    path.write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as want:
        bytes(data).decode("utf-8")
    with open(path, encoding="utf-8") as fh, pytest.raises(FormatError) as got:
        windows(fh, 5)
    assert str(got.value) == str(want.value)


@settings(max_examples=150, deadline=None)
@given(text=_corpus_text(), stream=st.sampled_from(sorted(STREAMS)))
def test_read_write_read_round_trip(text, stream):
    try:
        records = read_records(STREAMS[stream](text))
    except FormatError:
        return
    out = StringIO()
    write_conll(records, out)
    assert read_records(StringIO(out.getvalue())) == records


_token = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4) \
    .filter(lambda t: t.split() == [t])


@settings(max_examples=100, deadline=None)
@given(sentences=st.lists(st.lists(st.tuples(_token, _token), min_size=1, max_size=5),
                          max_size=5))
def test_any_corpus_of_whitespace_free_tokens_round_trips(sentences):
    out = StringIO()
    write_conll(sentences, out)
    for make in STREAMS.values():
        assert read_conll(make(out.getvalue())).sentences == sentences
