"""Exception types shared across the toolkit."""


class PmctagError(Exception):
    """Base class for every error raised by this package."""


class EmptySupport(PmctagError):
    """A count table with no positive entry cannot be normalized."""


class EmptyCorpus(PmctagError):
    """Training or update was attempted on a corpus with no sentences."""


class EmptyToken(PmctagError):
    """Feature extraction received an empty word string."""


class EmptySentence(PmctagError):
    """Decoding was attempted on a sentence with no tokens."""


class FormatError(PmctagError):
    """Malformed corpus, mapping or config file, or an option value out of range.

    Carries the 1-based line number when the input is a file.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownTag(PmctagError):
    """A corpus tag is missing from the tag mapping being applied."""

    def __init__(self, tags):
        self.tags = sorted(set(tags))
        super().__init__("tags missing from mapping: " + ", ".join(self.tags))


class ShapeError(PmctagError):
    """Sequence lengths disagree where they must match."""


class DeadEnd(PmctagError):
    """Every label received zero probability mass at some position."""

    def __init__(self, position, sentence_index=None):
        self.position = position
        self.sentence_index = sentence_index
        where = f"position {position}"
        if sentence_index is not None:
            where = f"sentence {sentence_index}, {where}"
        super().__init__(f"no label has positive mass at {where}")


class CorruptModel(PmctagError):
    """Model bytes are truncated or fail the integrity check."""


class UnsupportedVersion(PmctagError):
    """Model file declares a format version this build cannot read."""
