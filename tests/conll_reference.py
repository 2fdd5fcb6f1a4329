"""Line-at-a-time reference for pmctag.conll's corpus reader.

The reader reads a stream in blocks of whole sentences and splits each
block's text at once; this module keeps the plain loop over lines it
replaced, so property tests can check that both give the same sentences,
or the same FormatError message and line. It is not used by the package.
"""

import re

from pmctag.errors import FormatError


def read_records(stream, word_column=0, skip_pattern=None, comment_prefix=None,
                 tag_column=None):
    skip = re.compile(skip_pattern) if skip_pattern else None
    sentences = []
    current = []
    expected_cols = None
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            if current:
                sentences.append(current)
            current = []
            continue
        if comment_prefix and stripped.startswith(comment_prefix):
            continue
        cols = stripped.split()
        if word_column >= len(cols):
            raise FormatError(
                f"expected a word in column {word_column}, found {len(cols)} columns",
                line=lineno)
        if skip and skip.fullmatch(cols[word_column]):
            continue
        if tag_column is not None and tag_column >= len(cols):
            raise FormatError(
                f"expected a tag in column {tag_column}, found {len(cols)} columns",
                line=lineno)
        if expected_cols is None:
            expected_cols = len(cols)
        elif len(cols) != expected_cols:
            raise FormatError(
                f"ragged row: {len(cols)} columns where previous lines had {expected_cols}",
                line=lineno)
        current.append(cols)
    if current:
        sentences.append(current)
    return sentences


def read_conll(stream, word_column=0, tag_column=1, skip_pattern=None,
               comment_prefix=None):
    records = read_records(stream, word_column=word_column, skip_pattern=skip_pattern,
                           comment_prefix=comment_prefix, tag_column=tag_column)
    return [[(cols[word_column], cols[tag_column]) for cols in sent] for sent in records]
