"""Synthetic corpus and pronunciation oracle.

This module replaces a real speech corpus and G2P frontend at desk scale:

* a 30-mora inventory and its speech codes: a mora at H or L pitch is
  the int 2 * mora id + (pitch == H), its speech token's id minus the
  vocabulary's speech offset and what corpus files store, so accent
  correctness is exactly decidable from generated ids;
* a hand-written 40-word lexicon whose graphemes stand in for kanji
  words, 12 of them ambiguous nouns with two prior-weighted readings;
* a sentence generator that concatenates lexicon words, takes gold
  speech tokens from each reading's oracle rendering (made once per
  reading, not per word drawn), draws each reading from its word's
  stored prior CDF with one uniform, and optionally rewrites one noun
  per sentence into the tagged phoneme form (or plain kana);
* held-out evaluation sets: an unambiguous set, an ambiguous set with
  prescribed readings in plain/kana/tagged variants, and a leakage set
  pairing one tagged word with an untagged ambiguous word.

Training sentences and evaluation sentences are disjoint by
construction: a digest of the grapheme tuple partitions sentence space,
and the corpus builder only draws from one side of the partition while
the eval builders only draw from the other.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CorruptFile, DecodeError, EmptyLexicon, UnknownMora
from .model import TrainingExample
from .notation import (
    HIGH,
    LOW,
    PhonemeAnnotation,
    derive_pitch,
    parse_annotation,
    render_annotation,
)
from .tensorio import load_table, save_table
from .tokenizer import PHON_END, PHON_START, Vocabulary, encode_text

# -- mora inventory and speech codes ------------------------------------------

MORA_INVENTORY: tuple[str, ...] = (
    "ア", "イ", "ウ", "エ", "オ",
    "カ", "キ", "ク", "ケ", "コ",
    "サ", "シ", "ス", "セ",
    "タ", "チ", "ツ", "テ", "ト",
    "ナ", "ハ", "マ", "ミ", "メ",
    "モ", "リ", "リョ", "ー", "ッ", "ン",
)
MORA_TO_ID: dict[str, int] = {m: i for i, m in enumerate(MORA_INVENTORY)}

# Two pitched codes per mora plus one end-of-speech id.
END_OF_SPEECH_INDEX: int = 2 * len(MORA_INVENTORY)
SPEECH_TOKEN_COUNT: int = END_OF_SPEECH_INDEX + 1
_PITCHES = (LOW, HIGH)


def decode_speech_ids(ids, speech_token_offset: int) -> tuple[int, ...]:
    """Speech codes of token ids; DecodeError for any id outside the
    pitched range, end-of-speech included."""
    codes = tuple(int(i) - speech_token_offset for i in ids)
    for code in codes:
        if not 0 <= code < END_OF_SPEECH_INDEX:
            raise DecodeError(
                f"id {code + speech_token_offset} is not a pitched speech "
                f"token (offset {speech_token_offset}, "
                f"{END_OF_SPEECH_INDEX} codes)"
            )
    return codes


def codes_to_kana(codes: Iterable[int]) -> str:
    return "".join(MORA_INVENTORY[c >> 1] for c in codes)


def codes_to_pitch(codes: Iterable[int]) -> str:
    return "".join(_PITCHES[c & 1] for c in codes)


def render_oracle(annotation) -> tuple[int, ...]:
    """Gold speech codes for a PhonemeAnnotation."""
    pitch = derive_pitch(annotation)
    codes = []
    for mora, level in zip(annotation.morae(), pitch):
        if mora.surface not in MORA_TO_ID:
            raise UnknownMora(f"{mora.surface!r} is not in the mora inventory")
        codes.append(2 * MORA_TO_ID[mora.surface] + (level == HIGH))
    return tuple(codes)


# -- lexicon ------------------------------------------------------------------

NOUN = "noun"
OTHER = "other"


@dataclass(frozen=True)
class Reading:
    """One reading of a word; text, kana and codes are rendered once."""

    annotation: PhonemeAnnotation
    prior: float

    def __post_init__(self):
        if self.prior <= 0:
            raise ValueError("reading prior must be positive")

    @cached_property
    def text(self) -> str:
        return render_annotation(self.annotation)

    @cached_property
    def kana(self) -> str:
        return self.annotation.surface()

    @cached_property
    def codes(self) -> tuple[int, ...]:
        return render_oracle(self.annotation)


@dataclass(frozen=True)
class LexiconEntry:
    grapheme: str
    pos: str
    readings: tuple[Reading, ...]

    def __post_init__(self):
        if not self.readings:
            raise ValueError(f"entry {self.grapheme!r} has no readings")
        if self.pos not in (NOUN, OTHER):
            raise ValueError(f"pos must be noun or other, got {self.pos!r}")

    @property
    def is_ambiguous(self) -> bool:
        return len(self.readings) > 1

    def majority_reading(self) -> Reading:
        return max(self.readings, key=lambda r: r.prior)

    @cached_property
    def prior_cdf(self) -> list[float]:
        """The readings' prior CDF, built as Generator.choice builds it
        from p: normalise, cumsum, divide by the last element."""
        priors = np.array([r.prior for r in self.readings], dtype=np.float64)
        cdf = (priors / priors.sum()).cumsum()
        return (cdf / cdf[-1]).tolist()


# One line per word: grapheme, word class, then reading:prior pairs.
# The first 12 entries are the ambiguous nouns; within those, the first
# six keep the same kana across readings (accent-only contrast) and the
# next six change kana entirely (segmental contrast).
_LEXICON_TABLE = """\
雨	noun	ア'メ:0.65	アメ:0.35
花	noun	ハ'ナ:0.65	ハナ:0.35
海	noun	ウ'ミ:0.65	ウミ:0.35
港	noun	ミナ'ト:0.65	ミナト:0.35
魎	noun	モ'ーリョー:0.65	モーリョー:0.35
糸	noun	イ'ト:0.65	イト:0.35
明	noun	アシタ:0.65	ア'ス:0.35
金	noun	カ'ナ:0.65	キン:0.35
石	noun	イシ:0.65	コ'ク:0.35
竹	noun	タ'ケ:0.65	チク:0.35
門	noun	モ'ン:0.65	カト:0.35
星	noun	セ'イ:0.65	シン:0.35
駅	noun	エ'キ:1
音	noun	オ'ト:1
月	noun	ツ'キ:1
手	noun	テ':1
馬	noun	ウ'マ:1
栗	noun	ク'リ:1
砂	noun	スナ:1
空	noun	ク'ー:1
山	noun	サ'ン:1
川	noun	カセ:1
火	noun	カ':1
水	noun	ミ'ス:1
木	noun	キ:1
土	noun	ツチ':1
目	noun	メ':1
店	noun	ミセ:1
声	noun	コ'エ:1
夏	noun	ナ'ツ:1
冬	noun	トーミ:1
客	noun	カ'ッコ:1
坂	other	サカ:1
切	other	キッテ:1
口	other	クチ:1
耳	other	ミミ:1
歌	other	ウタ:1
道	other	ミチ:1
時	other	トキ:1
線	other	セン:1
"""


def parse_lexicon_table(text: str) -> tuple[LexiconEntry, ...]:
    entries = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise CorruptFile(f"lexicon line {lineno}: expected at least 3 fields")
        grapheme, pos = fields[0], fields[1]
        if grapheme in seen:
            raise CorruptFile(f"lexicon line {lineno}: duplicate grapheme {grapheme!r}")
        seen.add(grapheme)
        readings = []
        for spec in fields[2:]:
            text_part, sep, prior_part = spec.rpartition(":")
            if not sep:
                raise CorruptFile(f"lexicon line {lineno}: reading needs a prior")
            readings.append(
                Reading(parse_annotation(text_part), float(prior_part))
            )
        entries.append(LexiconEntry(grapheme, pos, tuple(readings)))
    return tuple(entries)


def build_lexicon() -> tuple[LexiconEntry, ...]:
    """The built-in desk lexicon: 40 words, 12 ambiguous nouns."""
    return parse_lexicon_table(_LEXICON_TABLE)


# -- sentence-space partition -------------------------------------------------


def is_held_out(graphemes: Iterable[str]) -> bool:
    """True for the 1/8 of grapheme tuples reserved for evaluation."""
    key = "\x1f".join(graphemes).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return digest[0] % 8 == 0


# -- corpus -------------------------------------------------------------------

TAGGED_FORM = "tagged"
KANA_FORM = "kana"


@dataclass(frozen=True)
class CorpusRecord:
    sentence_id: int
    input_text: str
    codes: tuple[int, ...]
    graphemes: tuple[str, ...]
    annotations: tuple[str, ...]
    converted_index: int | None
    converted_form: str | None

    def __post_init__(self):
        words, index = len(self.graphemes), self.converted_index
        if (len(self.annotations) != words
                or (index is None) != (self.converted_form is None)
                or index is not None and not 0 <= index < words):
            raise ValueError(
                f"sentence {self.sentence_id} contradicts itself: {words} "
                f"words, {len(self.annotations)} annotations, converted word "
                f"{index} as {self.converted_form}"
            )


def _sample_reading(entry: LexiconEntry, rng) -> Reading:
    """Draw a reading by prior with one rng.random(), as Generator.choice
    with p does, so the index and the stream after it match choice's."""
    return entry.readings[bisect_right(entry.prior_cdf, rng.random())]


def _sample_sentence_words(lexicon, rng, held_out,
                           require_noun: bool = True):
    """Draw a grapheme tuple; held_out True/False pins the partition
    side, None accepts either."""
    while True:
        n_words = int(rng.integers(2, 7))
        picks = [lexicon[int(i)] for i in rng.integers(0, len(lexicon), n_words)]
        if require_noun and not any(e.pos == NOUN for e in picks):
            continue
        if held_out is not None and is_held_out(
            e.grapheme for e in picks
        ) != held_out:
            continue
        return picks


def _assemble(words, readings, converted_index, converted_form):
    pieces = []
    for idx, (entry, reading) in enumerate(zip(words, readings)):
        if idx == converted_index and converted_form == TAGGED_FORM:
            pieces.append(f"{PHON_START}{reading.text}{PHON_END}")
        elif idx == converted_index and converted_form == KANA_FORM:
            pieces.append(reading.kana)
        else:
            pieces.append(entry.grapheme)
    return "".join(pieces)


def build_corpus(
    lexicon,
    n_sentences: int,
    tag_fraction: float,
    seed: int,
    kana_fraction: float = 0.0,
) -> list[CorpusRecord]:
    """Deterministic sentence sample from the non-held-out partition.

    Each sentence is 2-6 lexicon words; readings are drawn by prior.
    With probability tag_fraction one noun is rewritten into the tagged
    phoneme form; otherwise, with probability kana_fraction, one word is
    rewritten as plain kana (reading spelled out, no accent marks) so a
    model pretrained on this corpus can read kana input at all.
    """
    lexicon = tuple(lexicon)
    if not lexicon:
        raise EmptyLexicon("lexicon is empty")
    if not any(e.pos == NOUN and e.is_ambiguous for e in lexicon):
        raise EmptyLexicon("lexicon has no ambiguous noun")
    if tag_fraction < 0 or kana_fraction < 0 or not tag_fraction + kana_fraction <= 1:
        raise ValueError("tag_fraction and kana_fraction must sum within [0, 1]")
    rng = np.random.default_rng(seed)
    records = []
    for sentence_id in range(n_sentences):
        words = _sample_sentence_words(lexicon, rng, held_out=False)
        readings = [_sample_reading(e, rng) for e in words]
        converted_index = None
        converted_form = None
        draw = float(rng.random())
        if draw < tag_fraction:
            noun_slots = [i for i, e in enumerate(words) if e.pos == NOUN]
            converted_index = noun_slots[int(rng.integers(0, len(noun_slots)))]
            converted_form = TAGGED_FORM
        elif draw < tag_fraction + kana_fraction:
            converted_index = int(rng.integers(0, len(words)))
            converted_form = KANA_FORM
        codes = []
        for reading in readings:
            codes.extend(reading.codes)
        records.append(
            CorpusRecord(
                sentence_id=sentence_id,
                input_text=_assemble(words, readings, converted_index,
                                     converted_form),
                codes=tuple(codes),
                graphemes=tuple(e.grapheme for e in words),
                annotations=tuple(r.text for r in readings),
                converted_index=converted_index,
                converted_form=converted_form,
            )
        )
    return records


_CORPUS_MAGIC = "uttertune-corpus v1"
_CONVERTED_FORMS = {"-": None, TAGGED_FORM: TAGGED_FORM, KANA_FORM: KANA_FORM}


def save_corpus(records: Iterable[CorpusRecord], path) -> None:
    rows = (
        (r.sentence_id, r.input_text,
         " ".join(map(str, r.codes)),
         " ".join(r.graphemes), " ".join(r.annotations),
         "-" if r.converted_index is None else r.converted_index,
         r.converted_form or "-")
        for r in records
    )
    save_table(path, _CORPUS_MAGIC, {}, rows)


def load_corpus(path) -> list[CorpusRecord]:
    _, rows = load_table(path, _CORPUS_MAGIC, (), 7)
    try:
        return [
            CorpusRecord(int(sentence_id), text, decode_speech_ids(ids.split(), 0),
                         tuple(graphemes.split()), tuple(annotations.split()),
                         None if index == "-" else int(index),
                         _CONVERTED_FORMS[form])
            for sentence_id, text, ids, graphemes, annotations, index, form
            in rows
        ]
    except (KeyError, ValueError, DecodeError) as exc:
        raise CorruptFile(f"{path}: bad value {exc}") from None


def vocab_training_text(records: Iterable[CorpusRecord],
                        lexicon: Iterable[LexiconEntry]) -> list[str]:
    """Corpus text with tag literals removed, for BPE training.

    Tags are structural (they get reserved ids, never merges), so the
    trainer sees only the plain text and the annotation characters. A
    coverage line over the whole lexicon guarantees every grapheme and
    notation symbol becomes an atom even if sampling missed it.
    """
    texts = []
    for r in records:
        texts.append(r.input_text.replace(PHON_START, "").replace(PHON_END, ""))
    pieces = []
    for entry in lexicon:
        pieces.append(entry.grapheme)
        pieces.extend(r.text for r in entry.readings)
    texts.append("".join(pieces) + "/")
    return texts


def to_training_examples(records: Iterable[CorpusRecord],
                         vocab: Vocabulary) -> list[TrainingExample]:
    offset = vocab.speech_token_offset
    out = []
    for r in records:
        out.append(
            TrainingExample(
                input_ids=tuple(encode_text(r.input_text, vocab)),
                target_ids=tuple(offset + c for c in r.codes),
            )
        )
    return out


# -- evaluation sets ----------------------------------------------------------


@dataclass(frozen=True)
class EvalItem:
    item_id: int
    graphemes: tuple[str, ...]
    text_plain: str
    text_kana: str
    text_tagged: str
    target_grapheme: str
    target_annotation: str
    target_mora_start: int
    target_mora_count: int
    codes: tuple[int, ...]

    def reference_kana(self) -> str:
        return codes_to_kana(self.codes)

    def target_pitch(self) -> str:
        span = self.codes[
            self.target_mora_start : self.target_mora_start + self.target_mora_count
        ]
        return codes_to_pitch(span)


class EvalSets(NamedTuple):
    test_set_1: tuple[EvalItem, ...]
    test_set_2: tuple[EvalItem, ...]
    leakage_set: tuple[EvalItem, ...]


def _make_item(item_id, words, readings, target_index, tagged_index=None):
    """Build one eval item; tagged_index overrides which word gets tags
    (defaults to the target itself)."""
    if tagged_index is None:
        tagged_index = target_index
    codes = []
    starts = []
    for reading in readings:
        starts.append(len(codes))
        codes.extend(reading.codes)
    target_reading = readings[target_index]
    return EvalItem(
        item_id=item_id,
        graphemes=tuple(e.grapheme for e in words),
        text_plain=_assemble(words, readings, None, None),
        text_kana=_assemble(words, readings, target_index, KANA_FORM),
        text_tagged=_assemble(words, readings, tagged_index, TAGGED_FORM),
        target_grapheme=words[target_index].grapheme,
        target_annotation=target_reading.text,
        target_mora_start=starts[target_index],
        target_mora_count=target_reading.annotation.mora_count(),
        codes=tuple(codes),
    )


def _held_out_words(plain_entries, rng, inserted):
    """Context words, trimmed by one per inserted entry, with each of
    ``inserted`` put in at a drawn slot in turn; redrawn until the sentence
    is held out."""
    while True:
        words = _sample_sentence_words(
            plain_entries, rng, held_out=None, require_noun=False
        )[:-len(inserted)]
        for entry in inserted:
            words.insert(int(rng.integers(0, len(words) + 1)), entry)
        if is_held_out(e.grapheme for e in words):
            return words


def build_eval_sets(
    lexicon,
    seed: int,
    n_test_1: int = 48,
    n_test_2: int = 120,
    n_leakage: int = 240,
) -> EvalSets:
    """Held-out evaluation sets.

    test_set_1: unambiguous words only, target is one unambiguous noun.
    test_set_2: exactly one ambiguous noun per sentence with a prescribed
    reading; readings alternate per word so each ambiguous word is
    prescribed its majority and minority readings equally often. The kana
    baseline is this same set evaluated in kana mode (reading spelled out,
    accent marks absent).
    leakage_set: one unambiguous noun is tagged while an ambiguous noun
    stays plain; its gold reading is the majority one. text_plain is the
    fully untagged variant for baseline-model comparison.

    The sets are drawn in that order from one generator, so a set's items
    depend on the sizes of the sets before it and not on those after it:
    n_leakage=0 gives the same test sets without the leakage draws.
    `uttertune eval` scores test set 2 and, with --leakage, the leakage
    set; it passes n_leakage=0 without --leakage. It still draws test
    set 1, which it never scores, because skipping those draws would
    change test set 2.
    """
    lexicon = tuple(lexicon)
    ambiguous = [e for e in lexicon if e.pos == NOUN and e.is_ambiguous]
    plain_entries = [e for e in lexicon if not e.is_ambiguous]
    plain_nouns = [e for e in plain_entries if e.pos == NOUN]
    if not ambiguous or not plain_nouns:
        raise EmptyLexicon("need ambiguous nouns and unambiguous nouns")
    rng = np.random.default_rng(seed)

    test_1 = []
    for item_id in range(n_test_1):
        words = _sample_sentence_words(plain_entries, rng, held_out=True)
        noun_slots = [i for i, e in enumerate(words) if e.pos == NOUN]
        readings = [e.readings[0] for e in words]
        target = noun_slots[int(rng.integers(0, len(noun_slots)))]
        test_1.append(_make_item(item_id, words, readings, target))

    test_2 = []
    for item_id in range(n_test_2):
        entry = ambiguous[item_id % len(ambiguous)]
        reading = entry.readings[(item_id // len(ambiguous)) % len(entry.readings)]
        words = _held_out_words(plain_entries, rng, [entry])
        readings = [reading if e is entry else e.readings[0] for e in words]
        test_2.append(_make_item(item_id, words, readings, words.index(entry)))

    leakage = []
    for item_id in range(n_leakage):
        entry = ambiguous[item_id % len(ambiguous)]
        tagged_entry = plain_nouns[int(rng.integers(0, len(plain_nouns)))]
        words = _held_out_words(plain_entries, rng, [entry, tagged_entry])
        target_slot = words.index(entry)
        readings = [
            e.majority_reading() if e is entry else e.readings[0] for e in words
        ]
        leakage.append(
            _make_item(item_id, words, readings, target_slot,
                       tagged_index=words.index(tagged_entry))
        )

    return EvalSets(
        test_set_1=tuple(test_1),
        test_set_2=tuple(test_2),
        leakage_set=tuple(leakage),
    )
