"""Exception types raised across the package.

Every error the library raises deliberately derives from UtterTuneError so
callers can catch one base class at CLI boundaries.
"""


class UtterTuneError(Exception):
    """Base class for all library errors."""


# --- notation ---

class UnsupportedCharacter(UtterTuneError):
    """Input contains a character outside the supported katakana set."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"unsupported character {char!r} at position {position}")


class DanglingSmallKana(UtterTuneError):
    """A small kana appeared with no preceding base kana to attach to."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"small kana {char!r} at position {position} has no base kana")


class EmptyPhrase(UtterTuneError):
    """A slash-delimited accent phrase is empty."""


class MultipleNuclei(UtterTuneError):
    """More than one accent nucleus marked inside a single accent phrase."""


class MisplacedNucleusMark(UtterTuneError):
    """Apostrophe not immediately after a complete mora."""


# --- tokenizer ---

class VocabTooSmall(UtterTuneError):
    """Requested vocabulary size cannot hold the atomic symbols."""


class UnbalancedTags(UtterTuneError):
    """Phoneme-mode tags do not pair up."""


class NestedTags(UtterTuneError):
    """A phoneme span was opened inside another phoneme span."""


class InvalidAnnotation(UtterTuneError):
    """Text between tags failed to parse as an accent annotation."""

    def __init__(self, position: int, reason: Exception):
        self.position = position
        self.reason = reason
        super().__init__(f"invalid annotation in span at offset {position}: {reason}")


class UncoveredSymbol(UtterTuneError):
    """A character has no atomic token in the vocabulary."""


# --- lora / tensor container ---

class InvalidRank(UtterTuneError):
    """LoRA rank outside [1, model width]."""


class ShapeMismatch(UtterTuneError):
    """Matrix shapes do not compose."""


class CorruptFile(UtterTuneError):
    """A file's checksum, framing or values do not check out."""


# --- model ---

class SequenceTooLong(UtterTuneError):
    """Token sequence exceeds the model's maximum context."""


class NonFiniteLoss(UtterTuneError):
    """Training loss became NaN or infinite."""


# --- dataprep / eval ---

class EmptyLexicon(UtterTuneError):
    """Lexicon lacks the entries corpus generation needs."""


class UnknownMora(UtterTuneError):
    """Mora surface outside the speech-code inventory."""


class DecodeError(UtterTuneError):
    """Token id outside the speech-token range."""
