"""Accent-annotated katakana notation.

Notation format: katakana spelling with an apostrophe after the mora that
carries the accent nucleus and slashes between accent phrases, e.g.
チ'ミ/モーリョー. Both the ASCII apostrophe and the typographic right
single quote are accepted on input; rendering always emits the ASCII one.

Pitch realization per phrase is binary H/L: an unaccented phrase rises
after the first mora and stays high; a nucleus on mora 1 gives H then all
L; a nucleus on mora n > 1 gives L, H up to mora n, then L after it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DanglingSmallKana,
    EmptyPhrase,
    MisplacedNucleusMark,
    MultipleNuclei,
    UnsupportedCharacter,
)

# Small kana that attach to a preceding full-size kana to form one mora.
SMALL_KANA = frozenset("ャュョァィゥェォ")

# Morae that stand alone: long-vowel mark, geminate, moraic nasal.
STANDALONE_KANA = frozenset("ーッン")

# Full-size katakana that can head a mora. Small kana, the standalone
# three, and the rare letters ヮヵヶヷヸヹヺ are excluded (rejected in v1).
_REJECTED_FULLSIZE = frozenset("ヮヵヶヷヸヹヺ")
BASE_KANA = frozenset(
    chr(cp)
    for cp in range(0x30A1, 0x30FB)
    if chr(cp) not in SMALL_KANA
    and chr(cp) not in STANDALONE_KANA
    and chr(cp) not in _REJECTED_FULLSIZE
)

NUCLEUS_MARKS = ("'", "’")  # U+0027 and U+2019 both accepted
PHRASE_SEPARATOR = "/"

HIGH = "H"
LOW = "L"


@dataclass(frozen=True)
class Mora:
    """One rhythmic unit: a base kana plus optional small kana, or ー/ッ/ン."""

    surface: str

    def __post_init__(self):
        if not _is_valid_mora(self.surface):
            raise UnsupportedCharacter(self.surface, 0)

    def __str__(self) -> str:
        return self.surface


def _is_valid_mora(surface: str) -> bool:
    if len(surface) == 1:
        return surface in BASE_KANA or surface in STANDALONE_KANA
    if len(surface) == 2:
        return surface[0] in BASE_KANA and surface[1] in SMALL_KANA
    return False


@dataclass(frozen=True)
class AccentPhrase:
    """Ordered morae with at most one accent nucleus (1-based index)."""

    morae: tuple[Mora, ...]
    nucleus: int | None = None

    def __post_init__(self):
        if not self.morae:
            raise EmptyPhrase("accent phrase must contain at least one mora")
        if self.nucleus is not None and not 1 <= self.nucleus <= len(self.morae):
            raise MisplacedNucleusMark(
                f"nucleus index {self.nucleus} outside 1..{len(self.morae)}"
            )

    def surface(self) -> str:
        return "".join(m.surface for m in self.morae)


@dataclass(frozen=True)
class PhonemeAnnotation:
    """A parsed annotation: one or more accent phrases in order."""

    phrases: tuple[AccentPhrase, ...]

    def __post_init__(self):
        if not self.phrases:
            raise EmptyPhrase("annotation must contain at least one phrase")

    def mora_count(self) -> int:
        return sum(len(p.morae) for p in self.phrases)

    def morae(self) -> tuple[Mora, ...]:
        return tuple(m for p in self.phrases for m in p.morae)

    def surface(self) -> str:
        return "".join(p.surface() for p in self.phrases)


def segment_morae(katakana: str, offset: int = 0) -> list[Mora]:
    """Split a katakana string into morae.

    A base kana greedily absorbs one following small kana; ー, ッ, ン each
    stand alone. Empty input yields an empty list. Error positions count
    from offset.
    """
    morae: list[Mora] = []
    i = 0
    n = len(katakana)
    while i < n:
        ch = katakana[i]
        if ch in BASE_KANA:
            if i + 1 < n and katakana[i + 1] in SMALL_KANA:
                morae.append(Mora(ch + katakana[i + 1]))
                i += 2
            else:
                morae.append(Mora(ch))
                i += 1
        elif ch in STANDALONE_KANA:
            morae.append(Mora(ch))
            i += 1
        elif ch in SMALL_KANA:
            raise DanglingSmallKana(ch, offset + i)
        else:
            raise UnsupportedCharacter(ch, offset + i)
    return morae


def _parse_phrase(segment: str, offset: int) -> AccentPhrase:
    """Parse one slash-free phrase: the runs between nucleus marks are
    segmented left to right, and each mark is checked where it stands."""
    morae: list[Mora] = []
    nucleus: int | None = None
    start = 0
    for i, ch in enumerate(segment):
        if ch not in NUCLEUS_MARKS:
            continue
        morae += segment_morae(segment[start:i], offset + start)
        if i == start:
            raise MisplacedNucleusMark(
                f"nucleus mark at position {offset + i} does not follow a mora"
            )
        # A mark between a lone base kana and a small kana would split a
        # two-character mora; that is a placement error, not a dangling
        # small kana.
        if (
            segment[i + 1 : i + 2] in SMALL_KANA
            and len(morae[-1].surface) == 1
            and morae[-1].surface in BASE_KANA
        ):
            raise MisplacedNucleusMark(
                f"nucleus mark at position {offset + i} splits a two-character mora"
            )
        if nucleus is not None:
            raise MultipleNuclei(f"second nucleus mark at position {offset + i}")
        nucleus = len(morae)
        start = i + 1
    morae += segment_morae(segment[start:], offset + start)
    if not morae:
        raise EmptyPhrase(f"empty accent phrase at position {offset}")
    return AccentPhrase(morae=tuple(morae), nucleus=nucleus)


def parse_annotation(notated: str) -> PhonemeAnnotation:
    """Parse notation text into phrases with optional nuclei.

    Raises EmptyPhrase for leading, trailing, or doubled slashes (and for
    empty input), MultipleNuclei for two marks in one phrase, and
    MisplacedNucleusMark for a mark that does not immediately follow a
    complete mora.
    """
    phrases: list[AccentPhrase] = []
    offset = 0
    for segment in notated.split(PHRASE_SEPARATOR):
        phrases.append(_parse_phrase(segment, offset))
        offset += len(segment) + 1
    return PhonemeAnnotation(phrases=tuple(phrases))


def render_annotation(annotation: PhonemeAnnotation) -> str:
    """Render back to notation text; inverse of parse_annotation."""
    parts = []
    for phrase in annotation.phrases:
        chunk = []
        for idx, mora in enumerate(phrase.morae, start=1):
            chunk.append(mora.surface)
            if phrase.nucleus == idx:
                chunk.append("'")
        parts.append("".join(chunk))
    return PHRASE_SEPARATOR.join(parts)


def phrase_pitch(phrase: AccentPhrase) -> list[str]:
    """H/L levels for one phrase."""
    n = len(phrase.morae)
    if phrase.nucleus == 1:
        return [HIGH] + [LOW] * (n - 1)
    if phrase.nucleus is not None:
        k = phrase.nucleus
        return [LOW] + [HIGH] * (k - 1) + [LOW] * (n - k)
    return [LOW] + [HIGH] * (n - 1)


def derive_pitch(annotation: PhonemeAnnotation) -> tuple[str, ...]:
    """Per-mora H/L levels, phrases concatenated in order."""
    return tuple(lv for phrase in annotation.phrases
                 for lv in phrase_pitch(phrase))


_HIRAGANA_TO_KATAKANA = {
    cp: cp + 0x60 for cp in range(0x3041, 0x3097)  # ぁ..ゖ → ァ..ヶ
}

# Characters normalize_kana keeps: katakana letters plus the long-vowel mark.
_KEPT = frozenset(chr(cp) for cp in range(0x30A1, 0x30FB)) | {"ー"}


def normalize_kana(text: str) -> str:
    """Map hiragana to katakana and drop everything else.

    Spaces, punctuation, accent marks, and any non-kana characters are
    removed; the long-vowel mark ー is kept.
    """
    converted = text.translate(_HIRAGANA_TO_KATAKANA)
    return "".join(ch for ch in converted if ch in _KEPT)
