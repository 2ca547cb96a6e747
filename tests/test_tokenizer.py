"""BPE training, tag parsing, atomic phoneme-span encoding, vocab io."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttertune.errors import (
    CorruptFile,
    InvalidAnnotation,
    NestedTags,
    TagLiteralInPlainText,
    UnbalancedTags,
    UncoveredSymbol,
    UnknownTokenId,
    VocabTooSmall,
)
from uttertune.notation import (
    BASE_KANA,
    SMALL_KANA,
    STANDALONE_KANA,
    parse_annotation,
)
from uttertune.tokenizer import (
    PHON_END,
    PHON_START,
    PhonemeSpan,
    PlainSpan,
    TaggedText,
    Vocabulary,
    decode,
    encode,
    encode_text,
    load_vocab,
    parse_tagged,
    save_vocab,
    train_bpe,
)

ALL_KANA = "".join(sorted(BASE_KANA | SMALL_KANA | STANDALONE_KANA))


@pytest.fixture(scope="module")
def wide_vocab():
    """Zero-merge vocabulary covering every kana plus marks and ASCII."""
    corpus = [ALL_KANA + "'/" + "abcXY "]
    return train_bpe(corpus, target_vocab_size=len(set(corpus[0])), seed=0)


class TestTrainBpe:
    def test_first_merge_is_most_frequent_pair(self):
        vocab = train_bpe(["aaab", "aaab"], target_vocab_size=4, seed=0)
        assert vocab.merges[0] == ("a", "a")
        assert len(vocab.merges) == 2

    def test_zero_merges_at_atom_count(self):
        vocab = train_bpe(["aaab", "aaab"], target_vocab_size=2, seed=0)
        assert vocab.merges == ()
        assert encode(TaggedText((PlainSpan("aaab"),)), vocab) == [0, 0, 0, 1]

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


class TestParseTagged:
    def test_plain_phoneme_plain(self):
        t = parse_tagged(f"X{PHON_START}チ'ミ/モーリョー{PHON_END}Y")
        assert len(t.spans) == 3
        assert isinstance(t.spans[0], PlainSpan) and t.spans[0].text == "X"
        assert isinstance(t.spans[1], PhonemeSpan)
        assert t.spans[1].annotation == parse_annotation("チ'ミ/モーリョー")
        assert isinstance(t.spans[2], PlainSpan) and t.spans[2].text == "Y"

    def test_no_tags(self):
        t = parse_tagged("no tags")
        assert t.spans == (PlainSpan("no tags"),)

    def test_unclosed_start(self):
        with pytest.raises(UnbalancedTags):
            parse_tagged(f"{PHON_START}ア")

    def test_stray_end(self):
        with pytest.raises(UnbalancedTags):
            parse_tagged(f"ア{PHON_END}")

    def test_end_after_balanced_span(self):
        with pytest.raises(UnbalancedTags):
            parse_tagged(f"{PHON_START}ア{PHON_END}{PHON_END}")

    def test_nested_start(self):
        with pytest.raises(NestedTags):
            parse_tagged(f"{PHON_START}ア{PHON_START}イ{PHON_END}{PHON_END}")

    def test_bad_annotation_wrapped(self):
        with pytest.raises(InvalidAnnotation) as exc:
            parse_tagged(f"X{PHON_START}ka{PHON_END}")
        assert exc.value.position == 1 + len(PHON_START)

    def test_empty_span_wrapped(self):
        with pytest.raises(InvalidAnnotation):
            parse_tagged(f"{PHON_START}{PHON_END}")

    def test_adjacent_spans(self):
        t = parse_tagged(f"{PHON_START}ア{PHON_END}{PHON_START}イ{PHON_END}")
        assert len(t.spans) == 2
        assert all(isinstance(s, PhonemeSpan) for s in t.spans)


class TestEncodeDecode:
    def test_round_trip_with_tags(self, wide_vocab):
        text = f"XY{PHON_START}チ'ミ/モーリョー{PHON_END}ab"
        ids = encode_text(text, wide_vocab)
        assert decode(ids, wide_vocab) == text

    def test_phoneme_span_is_atomic_per_character(self):
        vocab = train_bpe(["チ'チ'チ'ミ"], target_vocab_size=4, seed=0)
        assert vocab.merges == (("チ", "'"),)
        t = TaggedText((PhonemeSpan(parse_annotation("チ'ミ")),))
        ids = encode(t, vocab)
        apo = vocab.atom_to_id["'"]
        chi = vocab.atom_to_id["チ"]
        mi = vocab.atom_to_id["ミ"]
        assert ids == [vocab.phon_start_id, chi, apo, mi, vocab.phon_end_id]

    def test_plain_span_uses_merges(self):
        vocab = train_bpe(["チ'チ'チ'ミ"], target_vocab_size=4, seed=0)
        ids = encode(TaggedText((PlainSpan("チ'ミ"),)), vocab)
        merged_id = vocab.string_to_id["チ'"]
        assert ids == [merged_id, vocab.atom_to_id["ミ"]]

    def test_tag_literal_in_plain_text_rejected(self, wide_vocab):
        t = TaggedText((PlainSpan(f"a{PHON_START}b"),))
        with pytest.raises(TagLiteralInPlainText):
            encode(t, wide_vocab)

    def test_uncovered_symbol_plain(self, wide_vocab):
        with pytest.raises(UncoveredSymbol):
            encode(TaggedText((PlainSpan("Z"),)), wide_vocab)

    def test_uncovered_symbol_in_annotation(self):
        vocab = train_bpe(["ab"], target_vocab_size=2, seed=0)
        t = TaggedText((PhonemeSpan(parse_annotation("ア")),))
        with pytest.raises(UncoveredSymbol):
            encode(t, vocab)

    def test_decode_rejects_speech_ids(self, wide_vocab):
        with pytest.raises(UnknownTokenId):
            decode([wide_vocab.speech_token_offset], wide_vocab)

    def test_decode_rejects_out_of_range(self, wide_vocab):
        with pytest.raises(UnknownTokenId):
            decode([wide_vocab.total_size], wide_vocab)
        with pytest.raises(UnknownTokenId):
            decode([-1], wide_vocab)

    def test_empty_plain_span_rejected(self):
        with pytest.raises(ValueError):
            PlainSpan("")


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
def tagged_texts(draw):
    spans = []
    if draw(st.booleans()):
        spans.append(PlainSpan(draw(plain_text)))
    for _ in range(draw(st.integers(1, 3))):
        spans.append(PhonemeSpan(draw(annotations())))
        if draw(st.booleans()):
            spans.append(PlainSpan(draw(plain_text)))
    return TaggedText(tuple(spans))


@given(tagged_texts())
@settings(max_examples=150, deadline=None)
def test_encode_decode_round_trip(wide_vocab, t):
    ids = encode(t, wide_vocab)
    assert decode(ids, wide_vocab) == t.surface()


@given(tagged_texts())
@settings(max_examples=100, deadline=None)
def test_surface_reparses_to_same_value(wide_vocab, t):
    assert parse_tagged(t.surface()) == t
