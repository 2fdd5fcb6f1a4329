from io import BufferedReader, BytesIO, StringIO, TextIOWrapper, UnsupportedOperation
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


class _Pipe(BytesIO):
    """Bytes that, like a pipe, can be read only once: seeking and telling raise."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise UnsupportedOperation("seek")

    def tell(self):
        raise UnsupportedOperation("tell")


def _piped(data):
    """What open("/dev/stdin", encoding="utf-8") gives when stdin is a pipe of `data`."""
    return TextIOWrapper(BufferedReader(_Pipe(data)), encoding="utf-8")


STREAMS = {
    "string": StringIO,
    # what open(path, encoding="utf-8") gives: universal newlines
    "file": lambda text: TextIOWrapper(BytesIO(text.encode("utf-8")), encoding="utf-8"),
    "pipe": lambda text: _piped(text.encode("utf-8")),
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
    """The readers read a stream in blocks of `block` lines, most
    of them shorter than a sentence here, and each read and window still
    gives the line loop's sentences or error."""
    text = "\n\n".join(texts)
    word_column, tag_column = columns
    options = dict(word_column=word_column, tag_column=tag_column,
                   comment_prefix=comment_prefix, skip_pattern=skip_pattern)
    make = STREAMS[stream]
    expected = _outcome(conll_reference.read_records, make(text), **options)
    with mock.patch.object(conll, "WINDOW_LINES", block):
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


@st.composite
def _pooled_text(draw, need):
    """Lines drawn from a pool of a few, so that most lines repeat.

    The pool holds token lines of one column count, mostly `need`, in
    whitespace variants, blank lines, comment and skip lines, and may hold
    one line that is too short or ragged, which then comes after some good
    lines.
    """
    width = draw(st.one_of(st.just(need), st.integers(1, 4)))
    space = st.text(st.sampled_from(SPACES), max_size=2)

    def line(n_cols):
        cols = draw(st.lists(st.sampled_from(TOKENS), min_size=n_cols, max_size=n_cols))
        seps = [draw(st.text(st.sampled_from(SPACES), min_size=1, max_size=2))
                for _ in cols[1:]]
        return draw(space) + cols[0] + "".join(map(str.__add__, seps, cols[1:])) + draw(space)

    good = [line(width) for _ in range(draw(st.integers(1, 4)))]
    other = draw(st.lists(st.sampled_from(["", " ", "\t", "\x1c", "\x85", "# c", "#",
                                           "-DOCSTART- X", "-DOCSTART-"]), max_size=4))
    picks = draw(st.lists(st.integers(0, len(good) + len(other) - 1), min_size=1, max_size=40))
    lines = [(good + other)[n] for n in picks]
    if draw(st.booleans()):  # a bad line's first copy, after good copies, and more copies
        bad = line(draw(st.sampled_from([n for n in range(1, 6) if n != width])))
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = [bad] * draw(st.integers(1, 3))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), table=st.integers(1, 6), block=st.integers(1, 4),
       budget=st.integers(1, 6), columns=_columns,
       comment_prefix=st.sampled_from([None, "#", "# "]),
       skip_pattern=st.sampled_from([None, "-DOCSTART-", "[A-Z].*"]),
       stream=st.sampled_from(sorted(STREAMS)))
def test_readers_of_repeated_lines_read_like_the_line_loop(data, table, block, budget, columns,
                                                           comment_prefix, skip_pattern,
                                                           stream):
    """Each distinct line is checked when the line table first meets it;
    a table of `table` lines is cleared in the middle of the stream, and
    a line new to the next table is checked again. The readers still give
    the line loop's sentences, or its error message and line, and
    read_conll numbers words and tags in order of first occurrence."""
    word_column, tag_column = columns
    text = data.draw(_pooled_text(max(word_column, tag_column or 0) + 1))
    options = dict(word_column=word_column, tag_column=tag_column,
                   comment_prefix=comment_prefix, skip_pattern=skip_pattern)
    make = STREAMS[stream]
    expected = _outcome(conll_reference.read_records, make(text), **options)
    with mock.patch.object(conll, "TABLE_LINES", table), \
            mock.patch.object(conll, "WINDOW_LINES", block):
        assert _outcome(read_records, make(text), **options) == expected
        assert _outcome(_read_windows, make(text), budget=budget, **options) == expected
        if tag_column is None:
            return
        assert _outcome(read_conll, make(text), **options) == \
            _outcome(conll_reference.read_conll, make(text), **options)
        if isinstance(expected, list):  # no error
            corpus = read_conll(make(text), **options)
            assert corpus.word_items == tuple(dict.fromkeys(corpus.words))
            assert corpus.tag_items == tuple(dict.fromkeys(corpus.tags))


def _shown(window):
    """A window as (the line of each token, the sentence lengths, the width)."""
    entries, lengths, lines, width = window
    return [lines[e] for e in entries.tolist()], lengths.tolist(), width


def test_windows_hold_whole_sentences_of_at_least_the_budget():
    """A block is `budget` lines of any kind, blank ones included, and the
    lines through the next blank line when the last of them is not blank."""
    text = "a\nb\nc\n\nd\n\n\ne\nf\n\ng\n"
    assert list(map(_shown, windows(StringIO(text), 2))) == [
        (["a\n", "b\n", "c\n"], [3], 1), (["d\n"], [1], 1), (["e\n", "f\n"], [2], 1),
        (["g\n"], [1], 1)]
    assert list(map(_shown, windows(StringIO(""), 2))) == [([], [], 0)]
    # a run of blank lines longer than the budget yields no window of its own,
    # and the sentence after it comes whole
    text = "a\n" + "\n" * 7 + "b\nc\n\nd\n"
    assert list(map(_shown, windows(StringIO(text), 2))) == [
        (["a\n"], [1], 1), (["b\n", "c\n"], [2], 1), (["d\n"], [1], 1)]
    # a block whose last line is blank reads no further line
    stream = StringIO("a\n\nb\nc\n\n")
    assert _shown(next(windows(stream, 2))) == (["a\n"], [1], 1)
    assert stream.readline() == "b\n"


def test_windows_give_each_distinct_line_one_entry_per_table():
    """A repeated line has the entry of its first copy, in any window,
    until the table is cleared; a window lists its token lines' entries."""
    text = "a X\nb Y\n# c\na X\n\na X\n# c\nb Y\n\nb Y\n"
    got = list(windows(StringIO(text), 2, tag_column=1, comment_prefix="#"))
    assert [w[0].tolist() for w in got] == [[0, 1, 0], [0, 1], [1]]
    assert got[0][2] == ["a X\n", "b Y\n", "# c\n", "\n"]
    with mock.patch.object(conll, "TABLE_LINES", 2):
        got = list(windows(StringIO(text), 2, tag_column=1, comment_prefix="#"))
    assert [w[0].tolist() for w in got] == [[0, 1, 0], [0, 2], [0]]
    assert [_shown(w) for w in got] == [(["a X\n", "b Y\n", "a X\n"], [3], 2),
                                        (["a X\n", "b Y\n"], [2], 2), (["b Y\n"], [1], 2)]
    # each window keeps the lines of its table
    assert got[0][2] == ["a X\n", "b Y\n", "# c\n", "\n"] and got[1][2] is not got[0][2]


def test_read_conll_interns_the_lines_of_each_table():
    """A cleared table numbers its lines from 0 again, so the word and tag
    ids of one table's entries do not carry over to the next table's."""
    text = "a X\n\nb Y\n\nc Z\n\nd W\n\na X\n"
    with mock.patch.object(conll, "TABLE_LINES", 1), mock.patch.object(conll, "WINDOW_LINES", 1):
        corpus = read_conll(StringIO(text))
    assert corpus.sentences == conll_reference.read_conll(StringIO(text))
    assert (corpus.word_items, corpus.word_ids.tolist()) == (("a", "b", "c", "d"), [0, 1, 2, 3, 0])


@pytest.mark.parametrize("budget", [0, -1])
def test_windows_refuse_a_budget_below_one(budget):
    """A budget of 0 would read no line and yield no window, losing every line."""
    with pytest.raises(ValueError, match=f"window budget must be 1 or more, not {budget}"):
        next(windows(StringIO("a X\nb Y\n"), budget))


def test_windows_over_a_pipe_read_like_the_line_loop():
    """windows read a stream once, as they advance, so a pipe that cannot
    seek gives the sentences of the line loop, over many windows and read
    blocks, and a bad line raises only when its window is reached."""
    text = "a X\nb Y\n\n# c\nc Z\n\n" * 5000
    expected = conll_reference.read_records(StringIO(text), comment_prefix="#")
    assert _read_windows(STREAMS["pipe"](text), 100, comment_prefix="#") == expected
    parts = windows(STREAMS["pipe"](text + "d\n"), 100, comment_prefix="#")
    first = read_records(next(parts), comment_prefix="#")
    assert 0 < len(first) < len(expected) and first == expected[:len(first)]
    with pytest.raises(FormatError, match="line 30001: ragged row"):
        list(parts)


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80"])
@pytest.mark.parametrize("place", [0, 8191, 65535, 65536, 70000, None])
def test_windows_place_bad_utf8_in_the_file(bad, place, tmp_path):
    """The windows decode the file in chunks, and the rest of the file in
    blocks of 64 KiB when a chunk fails; the message is the codec's for
    the whole file, also for a sequence cut by a block edge or the file end.
    The lines are a valid tag mapping too, and read_tag_mapping says the same."""
    data = bytearray(b"a X\n" * 20000)
    at = len(data) if place is None else place
    data[at:at] = bad
    path = tmp_path / "corpus.conll"
    path.write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as want:
        bytes(data).decode("utf-8")
    for read in (lambda stream: list(windows(stream, 5)), read_tag_mapping):
        with open(path, encoding="utf-8") as fh, pytest.raises(FormatError) as got:
            read(fh)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad, named", [(b"\xff", "byte 0xff"), (b"\xe2\x80", "bytes 0xe2 0x80"),
                                        (b"\xed\xa0\x80", "byte 0xed")])
@pytest.mark.parametrize("place", [0, 8191, 70000, None])
def test_readers_name_bad_utf8_from_a_pipe(bad, named, place):
    """A pipe cannot be decoded again to count the bytes before the bad
    ones, so the message names them and the codec's reason, and gives no
    position."""
    data = bytearray(b"a X\n" * 20000)
    at = len(data) if place is None else place
    data[at:at] = bad
    with pytest.raises(UnicodeDecodeError) as want:
        bytes(data).decode("utf-8")
    for read in (read_records, read_conll, lambda stream: list(windows(stream, 5)),
                 read_tag_mapping):
        with pytest.raises(FormatError) as got:
            read(_piped(bytes(data)))
        assert str(got.value) == f"'utf-8' codec can't decode {named}: {want.value.reason}"


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
