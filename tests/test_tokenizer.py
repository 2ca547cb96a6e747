"""BPE training, tag parsing, atomic phoneme-span encoding, vocab io."""

import hashlib
import random
import re
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADAPTER_CORPUS_CFG, DESK_CFG
from uttertune.dataprep import (
    build_corpus,
    build_eval_sets,
    build_lexicon,
    vocab_training_text,
)
from uttertune.errors import (
    CorruptFile,
    InvalidAnnotation,
    NestedTags,
    UnbalancedTags,
    UncoveredSymbol,
    UtterTuneError,
    VocabTooSmall,
)
from uttertune.manifest import parse_config_file
from uttertune.notation import (
    BASE_KANA,
    SMALL_KANA,
    STANDALONE_KANA,
    PhonemeAnnotation,
    parse_annotation,
    render_annotation,
)
from uttertune.tokenizer import (
    PHON_END,
    PHON_START,
    Vocabulary,
    encode_text,
    load_vocab,
    save_vocab,
    train_bpe,
)

ALL_KANA = "".join(sorted(BASE_KANA | SMALL_KANA | STANDALONE_KANA))


def decode(ids, vocab):
    """Text for text and tag ids, the inverse of encode_text."""
    strings = {i: s for s, i in vocab.string_to_id.items()}
    strings |= {vocab.phon_start_id: PHON_START, vocab.phon_end_id: PHON_END}
    return "".join(strings[i] for i in ids)


@pytest.fixture(scope="module")
def wide_vocab():
    """Zero-merge vocabulary covering every kana plus marks and ASCII."""
    corpus = [ALL_KANA + "'/" + "abcXY "]
    return train_bpe(corpus, target_vocab_size=len(set(corpus[0])), seed=0)


@pytest.fixture(scope="module")
def merge_vocab():
    """Vocabulary with merges between kana and marks, over the same
    alphabet as wide_vocab."""
    corpus = [ALL_KANA + "'/" + "abcXY ", "アメアメ'/カミカミ'ハシハシ/アメ'カミ"]
    return train_bpe(corpus, target_vocab_size=len(set(corpus[0])) + 12)


class TestTrainBpe:
    def test_first_merge_is_most_frequent_pair(self):
        vocab = train_bpe(["aaab", "aaab"], target_vocab_size=4, seed=0)
        assert vocab.merges[0] == ("a", "a")
        assert len(vocab.merges) == 2

    def test_zero_merges_at_atom_count(self):
        vocab = train_bpe(["aaab", "aaab"], target_vocab_size=2, seed=0)
        assert vocab.merges == ()
        assert encode_text("aaab", vocab) == [0, 0, 0, 1]

    def test_no_pair_index_at_atom_count(self):
        """A target equal to the atom count wants no merge, so train_bpe
        returns the atoms without building the pair index, which one
        merge needs."""
        rng = random.Random(0)
        corpus = ["".join(rng.choices(ALL_KANA, k=30)) for _ in range(2000)]
        atoms = tuple(sorted(set("".join(corpus))))
        peaks = []
        tracemalloc.start()
        try:
            for target in (len(atoms), len(atoms) + 1):
                tracemalloc.reset_peak()
                vocab = train_bpe(corpus, target)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(vocab.merges) == 1
        assert train_bpe(corpus, len(atoms), seed=3) == Vocabulary(
            atoms=atoms, merges=(), speech_token_count=61, seed=3)
        assert peaks[0] < peaks[1] / 20, peaks

    def test_deterministic(self):
        a = train_bpe(["アメアメ", "カミ"], target_vocab_size=8, seed=1)
        b = train_bpe(["アメアメ", "カミ"], target_vocab_size=8, seed=1)
        assert a.merges == b.merges and a.atoms == b.atoms

    def test_tie_breaks_lexicographically(self):
        # "ab" and "cd" both occur twice; ("a","b") < ("c","d").
        vocab = train_bpe(["abcd", "abcd"], target_vocab_size=5, seed=0)
        assert vocab.merges[0] == ("a", "b")

    def test_target_below_atoms_rejected(self):
        with pytest.raises(VocabTooSmall):
            train_bpe(["abc"], target_vocab_size=2, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(VocabTooSmall):
            train_bpe([], target_vocab_size=4, seed=0)

    def test_merges_stop_when_exhausted(self):
        vocab = train_bpe(["ab"], target_vocab_size=100, seed=0)
        # One possible merge, then nothing left.
        assert len(vocab.merges) == 1
        assert vocab.base_size == 3

    def test_no_merge_product_equals_tag_literal(self):
        # Feed the tag literal itself as corpus text; merges toward it
        # must be skipped so tags stay atomic.
        corpus = [PHON_START * 30]
        vocab = train_bpe(corpus, target_vocab_size=200, seed=0)
        for left, right in vocab.merges:
            assert left + right != PHON_START
            assert left + right != PHON_END

    def test_id_ranges_dense(self):
        vocab = train_bpe(["aaab"], target_vocab_size=3, seed=0)
        assert vocab.phon_start_id == vocab.base_size
        assert vocab.phon_end_id == vocab.base_size + 1
        assert vocab.speech_token_offset == vocab.base_size + 2
        assert vocab.total_size == vocab.speech_token_offset + vocab.speech_token_count


def _atom_ids(text, vocab):
    return [vocab.string_to_id[ch] for ch in text]


class TestParseTagged:
    def test_plain_phoneme_plain(self, wide_vocab):
        ids = encode_text(f"X{PHON_START}チ'ミ/モーリョー{PHON_END}Y", wide_vocab)
        assert ids == (_atom_ids("X", wide_vocab) + [wide_vocab.phon_start_id]
                       + _atom_ids("チ'ミ/モーリョー", wide_vocab)
                       + [wide_vocab.phon_end_id] + _atom_ids("Y", wide_vocab))

    def test_no_tags(self):
        vocab = train_bpe(["no tags"], target_vocab_size=7, seed=0)
        assert encode_text("no tags", vocab) == _atom_ids("no tags", vocab)

    def test_unclosed_start(self, wide_vocab):
        with pytest.raises(UnbalancedTags, match="position 0 is never closed"):
            encode_text(f"{PHON_START}ア", wide_vocab)

    def test_stray_end(self, wide_vocab):
        with pytest.raises(UnbalancedTags, match="position 1 has no opening"):
            encode_text(f"ア{PHON_END}", wide_vocab)

    def test_end_after_balanced_span(self, wide_vocab):
        with pytest.raises(UnbalancedTags):
            encode_text(f"{PHON_START}ア{PHON_END}{PHON_END}", wide_vocab)

    def test_nested_start(self, wide_vocab):
        with pytest.raises(NestedTags):
            encode_text(f"{PHON_START}ア{PHON_START}イ{PHON_END}{PHON_END}",
                        wide_vocab)

    def test_bad_annotation_wrapped(self, wide_vocab):
        with pytest.raises(InvalidAnnotation) as exc:
            encode_text(f"X{PHON_START}ka{PHON_END}", wide_vocab)
        assert exc.value.position == 1 + len(PHON_START)

    def test_empty_span_wrapped(self, wide_vocab):
        with pytest.raises(InvalidAnnotation):
            encode_text(f"{PHON_START}{PHON_END}", wide_vocab)

    def test_adjacent_spans(self, wide_vocab):
        ids = encode_text(f"{PHON_START}ア{PHON_END}{PHON_START}イ{PHON_END}",
                          wide_vocab)
        start, end = wide_vocab.phon_start_id, wide_vocab.phon_end_id
        assert ids == [start, *_atom_ids("ア", wide_vocab), end,
                       start, *_atom_ids("イ", wide_vocab), end]

    def test_empty_text(self, wide_vocab):
        with pytest.raises(UnbalancedTags, match="empty input has no spans"):
            encode_text("", wide_vocab)

    @pytest.mark.parametrize("text, error", [
        (f"Z{PHON_START}ア", UnbalancedTags),
        (f"Z{PHON_START}ka{PHON_END}", InvalidAnnotation),
        (f"Z{PHON_START}ア{PHON_START}イ{PHON_END}", NestedTags),
    ])
    def test_structure_checked_before_any_span_is_encoded(self, wide_vocab,
                                                          text, error):
        """Z is uncovered, but the tag structure after it is reported."""
        with pytest.raises(error):
            encode_text(text, wide_vocab)


class TestEncodeDecode:
    def test_round_trip_with_tags(self, wide_vocab):
        text = f"XY{PHON_START}チ'ミ/モーリョー{PHON_END}ab"
        ids = encode_text(text, wide_vocab)
        assert decode(ids, wide_vocab) == text

    def test_phoneme_span_is_atomic_per_character(self):
        vocab = train_bpe(["チ'チ'チ'ミ"], target_vocab_size=4, seed=0)
        assert vocab.merges == (("チ", "'"),)
        ids = encode_text(f"{PHON_START}チ'ミ{PHON_END}", vocab)
        apo = vocab.string_to_id["'"]
        chi = vocab.string_to_id["チ"]
        mi = vocab.string_to_id["ミ"]
        assert ids == [vocab.phon_start_id, chi, apo, mi, vocab.phon_end_id]

    def test_plain_span_uses_merges(self):
        vocab = train_bpe(["チ'チ'チ'ミ"], target_vocab_size=4, seed=0)
        ids = encode_text("チ'ミ", vocab)
        merged_id = vocab.string_to_id["チ'"]
        assert ids == [merged_id, vocab.string_to_id["ミ"]]

    def test_uncovered_symbol_plain(self, wide_vocab):
        with pytest.raises(UncoveredSymbol):
            encode_text("Z", wide_vocab)

    def test_uncovered_symbol_in_annotation(self):
        vocab = train_bpe(["ab"], target_vocab_size=2, seed=0)
        with pytest.raises(UncoveredSymbol):
            encode_text(f"{PHON_START}ア{PHON_END}", vocab)


class TestVocabIo:
    def test_round_trip(self, tmp_path):
        vocab = train_bpe(["アメアメ", "カミ'ハ/シ"], target_vocab_size=12, seed=3)
        p = tmp_path / "vocab.txt"
        save_vocab(vocab, p)
        loaded = load_vocab(p)
        assert loaded == vocab

    def test_serialization_deterministic(self, tmp_path):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vocab(train_bpe(["アメカミ"], 6, seed=0), pa)
        save_vocab(train_bpe(["アメカミ"], 6, seed=0), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "vocab.txt"
        save_vocab(train_bpe(["ab"], 2, seed=0), p)
        body = p.read_text(encoding="utf-8").splitlines()
        body[0] = "uttertune-vocab v999"
        p.write_text("\n".join(body) + "\n", encoding="utf-8")
        with pytest.raises(CorruptFile, match=":1: "):
            load_vocab(p)

    def test_carriage_return_atom_round_trip(self, tmp_path):
        vocab = train_bpe(["アメ\rカミ", "アメ"], 8)
        assert "\r" in vocab.atoms
        p = tmp_path / "vocab.txt"
        save_vocab(vocab, p)
        assert load_vocab(p) == vocab

    @pytest.mark.parametrize("edit", ["drop-last-merge", "raise-count"])
    def test_merge_count_mismatch(self, tmp_path, edit):
        p = tmp_path / "vocab.txt"
        vocab = train_bpe(["アメアメ", "カミ'ハ/シ"], target_vocab_size=12)
        save_vocab(vocab, p)
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        if edit == "drop-last-merge":
            del lines[-1]
        else:
            stated = f"merges\t{len(vocab.merges)}\n"
            lines[lines.index(stated)] = f"merges\t{len(vocab.merges) + 1}\n"
        p.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorruptFile, match="merges"):
            load_vocab(p)

    @pytest.mark.parametrize("count", [-5, 0])
    def test_speech_token_count_below_one(self, tmp_path, count):
        p = tmp_path / "vocab.txt"
        save_vocab(train_bpe(["アメアメ", "カミ'ハ/シ"], target_vocab_size=12), p)
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        stated = [i for i, line in enumerate(lines)
                  if line.startswith("speech_tokens\t")]
        assert len(stated) == 1
        lines[stated[0]] = f"speech_tokens\t{count}\n"
        p.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorruptFile, match=re.escape(f"{p}: bad value speech token count {count} < 1")):
            load_vocab(p)
        with pytest.raises(CorruptFile):
            Vocabulary(atoms=("ア",), merges=(), speech_token_count=count)

    def test_atoms_are_single_characters(self):
        with pytest.raises(CorruptFile):
            Vocabulary(atoms=("ア", "メカ"), merges=(), speech_token_count=1)

    @pytest.mark.parametrize("merge", [("", "Z"), ("ア", "カ"), ("メア", "ア")])
    def test_merge_joins_earlier_tokens_only(self, merge):
        with pytest.raises(CorruptFile, match="no earlier token"):
            Vocabulary(atoms=("ア", "メ"), merges=(merge,),
                       speech_token_count=1)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        save_vocab(train_bpe(["アメカミ"], 6, seed=0), p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptFile):
            load_vocab(p)

    def test_not_a_vocab_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("something else\n", encoding="utf-8")
        with pytest.raises(CorruptFile):
            load_vocab(p)


# -- property tests -----------------------------------------------------

from test_notation import annotations  # noqa: E402  (shared strategy)

plain_text = st.text(
    alphabet=sorted(set(ALL_KANA + "'/abcXY ")), min_size=1, max_size=8
)


@st.composite
def tagged_spans(draw):
    """Canonical tag-bearing text as its pieces: plain strings, never two
    in a row, and tagged rendered annotations."""
    spans = []
    if draw(st.booleans()):
        spans.append(draw(plain_text))
    for _ in range(draw(st.integers(1, 3))):
        rendered = render_annotation(draw(annotations()))
        spans.append(PHON_START + rendered + PHON_END)
        if draw(st.booleans()):
            spans.append(draw(plain_text))
    return spans


@given(tagged_spans())
@settings(max_examples=150, deadline=None)
def test_encode_decode_round_trip(wide_vocab, spans):
    text = "".join(spans)
    assert decode(encode_text(text, wide_vocab), wide_vocab) == text


@given(tagged_spans())
@settings(max_examples=100, deadline=None)
def test_surface_reparses_to_same_value(merge_vocab, spans):
    """The text splits back into the spans it was built from: its ids are
    those of each span encoded alone, so no merge crosses a tag."""
    ids = [i for span in spans for i in encode_text(span, merge_vocab)]
    assert encode_text("".join(spans), merge_vocab) == ids


# -- equivalence with the span-tree encoder -------------------------------
#
# encode_text once built a tree of plain and phoneme spans and encoded it in
# a second walk. That encoder is kept here as the reference: the one-pass
# encoder must give the same ids, or raise the same type with the same
# message, on any text.


@dataclass(frozen=True)
class _PlainSpan:
    text: str


@dataclass(frozen=True)
class _PhonemeSpan:
    annotation: PhonemeAnnotation


def _reference_parse_tagged(text: str) -> tuple:
    spans: list = []
    pos = 0
    n = len(text)
    while pos < n:
        start = text.find(PHON_START, pos)
        stray_end = text.find(PHON_END, pos)
        if start == -1:
            if stray_end != -1:
                raise UnbalancedTags(
                    f"{PHON_END} at position {stray_end} has no opening tag"
                )
            spans.append(_PlainSpan(text[pos:]))
            break
        if stray_end != -1 and stray_end < start:
            raise UnbalancedTags(
                f"{PHON_END} at position {stray_end} has no opening tag"
            )
        if start > pos:
            spans.append(_PlainSpan(text[pos:start]))
        body_at = start + len(PHON_START)
        end = text.find(PHON_END, body_at)
        if end == -1:
            raise UnbalancedTags(f"{PHON_START} at position {start} is never closed")
        body = text[body_at:end]
        if PHON_START in body:
            raise NestedTags(
                f"{PHON_START} reopened inside the span at position {start}"
            )
        try:
            annotation = parse_annotation(body)
        except UtterTuneError as exc:
            raise InvalidAnnotation(body_at, exc) from exc
        spans.append(_PhonemeSpan(annotation))
        pos = end + len(PHON_END)
    if not spans:
        raise UnbalancedTags("empty input has no spans")
    return tuple(spans)


def _reference_merge_once(seq, pair, product):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
            out.append(product)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def _reference_encode_plain(text: str, vocab: Vocabulary) -> list[int]:
    # The span-tree encoder raised a tag-literal error here; a plain span
    # never holds a tag, so the reference asserts that instead.
    assert PHON_START not in text and PHON_END not in text, text
    atom_to_id = {a: i for i, a in enumerate(vocab.atoms)}
    for ch in text:
        if ch not in atom_to_id:
            raise UncoveredSymbol(f"character {ch!r} not covered by vocabulary")
    symbols = list(text)
    ranks = vocab.merge_ranks
    while len(symbols) > 1:
        best_rank = None
        best_pair = None
        for pair in zip(symbols, symbols[1:]):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = pair
        if best_pair is None:
            break
        symbols = _reference_merge_once(symbols, best_pair,
                                        best_pair[0] + best_pair[1])
    return [vocab.string_to_id[sym] for sym in symbols]


def _reference_encode(text: str, vocab: Vocabulary) -> list[int]:
    atom_to_id = {a: i for i, a in enumerate(vocab.atoms)}
    ids: list[int] = []
    for span in _reference_parse_tagged(text):
        if isinstance(span, _PlainSpan):
            ids.extend(_reference_encode_plain(span.text, vocab))
        else:
            ids.append(vocab.phon_start_id)
            for ch in render_annotation(span.annotation):
                atom = atom_to_id.get(ch)
                if atom is None:
                    raise UncoveredSymbol(
                        f"annotation character {ch!r} not covered by vocabulary"
                    )
                ids.append(atom)
            ids.append(vocab.phon_end_id)
    return ids


def _outcome(encoder, text, vocab):
    try:
        return encoder(text, vocab)
    except UtterTuneError as exc:
        return type(exc), str(exc)


# Kana (merge_vocab merges some of them), both nucleus marks, the phrase
# mark and characters no vocabulary here covers, in runs; both tag
# literals alone; and runs or valid annotations between tags.
_random_run = st.lists(
    st.sampled_from([*"アメカミハシッョーン'’/Zé", "アメ", "カミ", "ハシ", "'/"]),
    max_size=6,
).map("".join)
_random_piece = st.one_of(
    _random_run,
    st.sampled_from([PHON_START, PHON_END]),
    _random_run.map(lambda run: PHON_START + run + PHON_END),
    annotations().map(lambda a: PHON_START + render_annotation(a) + PHON_END),
)


@given(st.lists(_random_piece, max_size=8).map("".join))
@settings(max_examples=600, deadline=None)
def test_encode_text_matches_span_tree_encoder(wide_vocab, merge_vocab, text):
    for vocab in (wide_vocab, merge_vocab):
        assert _outcome(encode_text, text, vocab) == \
            _outcome(_reference_encode, text, vocab)


# SHA-256 of the ids of every desk text (both desk corpora, then the plain,
# kana and tagged text of each seed-0 eval item), one line per text, under
# the desk vocabulary (72, no merges) and a 160-token one with merges.
# Recorded with the span-tree encoder.
_DESK_IDS_SHA256 = {
    72: "39bf49466ea3ab14847fb2dbc44478a17509cdaed75a2f7609b90fcbe72e956b",
    160: "f9bddefe2f44dd47dcae9f6582b6e582eefd20c4ae1b0f98e4c3baa1ba745cc6",
}


def test_desk_text_ids_are_pinned():
    lexicon = build_lexicon()
    corpora = []
    for path in (DESK_CFG, ADAPTER_CORPUS_CFG):
        cfg = parse_config_file(path)
        corpora.append(build_corpus(lexicon, cfg["sentences"],
                                    cfg["tag_fraction"], seed=cfg["seed"],
                                    kana_fraction=cfg["kana_fraction"]))
    texts = [r.input_text for records in corpora for r in records]
    for items in build_eval_sets(lexicon, seed=0):
        for it in items:
            texts += [it.text_plain, it.text_kana, it.text_tagged]
    assert len(texts) == 19_224
    for size, want in _DESK_IDS_SHA256.items():
        vocab = train_bpe(vocab_training_text(corpora[0], lexicon), size)
        h = hashlib.sha256()
        for text in texts:
            ids = encode_text(text, vocab)
            h.update((" ".join(map(str, ids)) + "\n").encode("utf-8"))
        assert h.hexdigest() == want, size
