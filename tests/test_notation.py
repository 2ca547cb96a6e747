"""Mora segmentation, annotation parsing/rendering, and pitch rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttertune.errors import (
    DanglingSmallKana,
    EmptyPhrase,
    MisplacedNucleusMark,
    MultipleNuclei,
    UnsupportedCharacter,
)
from uttertune.notation import (
    BASE_KANA,
    SMALL_KANA,
    STANDALONE_KANA,
    AccentPhrase,
    Mora,
    PhonemeAnnotation,
    derive_pitch,
    normalize_kana,
    parse_annotation,
    phrase_pitch,
    render_annotation,
    segment_morae,
)


def surfaces(morae):
    return [m.surface for m in morae]


class TestSegmentMorae:
    def test_two_plain_morae(self):
        assert surfaces(segment_morae("チミ")) == ["チ", "ミ"]

    def test_long_vowels_and_digraph(self):
        assert surfaces(segment_morae("モーリョー")) == ["モ", "ー", "リョ", "ー"]

    def test_empty_string(self):
        assert segment_morae("") == []

    def test_geminate_and_nasal_stand_alone(self):
        assert surfaces(segment_morae("キッテ")) == ["キ", "ッ", "テ"]
        assert surfaces(segment_morae("カンダ")) == ["カ", "ン", "ダ"]

    def test_digraph_absorbs_exactly_one_small_kana(self):
        # Second small kana after a digraph has nothing to attach to.
        with pytest.raises(DanglingSmallKana):
            segment_morae("キャャ")

    def test_leading_small_kana_rejected(self):
        with pytest.raises(DanglingSmallKana) as exc:
            segment_morae("ョキ")
        assert exc.value.position == 0

    def test_small_kana_after_standalone_rejected(self):
        # ン cannot host a small kana.
        with pytest.raises(DanglingSmallKana):
            segment_morae("ンャ")

    def test_non_katakana_rejected(self):
        with pytest.raises(UnsupportedCharacter) as exc:
            segment_morae("カabc")
        assert exc.value.position == 1

    def test_hiragana_rejected(self):
        with pytest.raises(UnsupportedCharacter):
            segment_morae("かみ")

    def test_rare_kana_rejected(self):
        for ch in "ヮヵヶヷヸヹヺ":
            with pytest.raises(UnsupportedCharacter):
                segment_morae(ch)


class TestParseAnnotation:
    def test_two_phrases_with_nucleus(self):
        ann = parse_annotation("チ'ミ/モーリョー")
        assert len(ann.phrases) == 2
        first, second = ann.phrases
        assert surfaces(first.morae) == ["チ", "ミ"]
        assert first.nucleus == 1
        assert surfaces(second.morae) == ["モ", "ー", "リョ", "ー"]
        assert second.nucleus is None

    def test_typographic_apostrophe_accepted(self):
        ann = parse_annotation("チ’ミ")
        assert ann.phrases[0].nucleus == 1

    def test_nucleus_on_last_mora(self):
        ann = parse_annotation("ハシ'")
        assert ann.phrases[0].nucleus == 2

    def test_nucleus_after_digraph(self):
        ann = parse_annotation("リョ'ー")
        assert surfaces(ann.phrases[0].morae) == ["リョ", "ー"]
        assert ann.phrases[0].nucleus == 1

    def test_multiple_nuclei_rejected(self):
        with pytest.raises(MultipleNuclei):
            parse_annotation("ア'イ'ウ")

    def test_leading_apostrophe_rejected(self):
        with pytest.raises(MisplacedNucleusMark):
            parse_annotation("'アメ")

    def test_double_apostrophe_rejected(self):
        # Second mark follows a mark, not a mora.
        with pytest.raises(MisplacedNucleusMark):
            parse_annotation("ア''メ")

    def test_apostrophe_after_slash_rejected(self):
        with pytest.raises(MisplacedNucleusMark):
            parse_annotation("アメ/'カミ")

    def test_apostrophe_inside_digraph_rejected(self):
        with pytest.raises(MisplacedNucleusMark):
            parse_annotation("リ'ョー")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyPhrase):
            parse_annotation("")

    def test_leading_slash_rejected(self):
        with pytest.raises(EmptyPhrase):
            parse_annotation("/アメ")

    def test_trailing_slash_rejected(self):
        with pytest.raises(EmptyPhrase):
            parse_annotation("アメ/")

    def test_double_slash_rejected(self):
        with pytest.raises(EmptyPhrase):
            parse_annotation("アメ//カミ")

    def test_unaccented_single_phrase(self):
        ann = parse_annotation("アメ")
        assert len(ann.phrases) == 1
        assert ann.phrases[0].nucleus is None


class TestRenderAnnotation:
    def test_render_two_phrases(self):
        ann = parse_annotation("チ'ミ/モーリョー")
        assert render_annotation(ann) == "チ'ミ/モーリョー"

    def test_render_normalizes_apostrophe(self):
        ann = parse_annotation("チ’ミ")
        assert render_annotation(ann) == "チ'ミ"


class TestDerivePitch:
    def test_initial_nucleus(self):
        ann = parse_annotation("チ'ミ")
        assert list(derive_pitch(ann)) == ["H", "L"]

    def test_unaccented_phrase(self):
        ann = parse_annotation("モーリョー")
        assert list(derive_pitch(ann)) == ["L", "H", "H", "H"]

    def test_medial_nucleus(self):
        phrase = AccentPhrase(
            morae=tuple(Mora(c) for c in "アイウエ"), nucleus=3
        )
        assert phrase_pitch(phrase) == ["L", "H", "H", "L"]

    def test_final_nucleus(self):
        ann = parse_annotation("ハシ'")
        assert list(derive_pitch(ann)) == ["L", "H"]

    def test_single_mora_unaccented_is_low(self):
        ann = parse_annotation("ハ")
        assert list(derive_pitch(ann)) == ["L"]

    def test_single_mora_accented_is_high(self):
        ann = parse_annotation("ハ'")
        assert list(derive_pitch(ann)) == ["H"]

    def test_phrases_concatenate(self):
        ann = parse_annotation("チ'ミ/モーリョー")
        assert list(derive_pitch(ann)) == ["H", "L", "L", "H", "H", "H"]


class TestNormalizeKana:
    def test_hiragana_to_katakana(self):
        assert normalize_kana("あめ") == "アメ"

    def test_punctuation_dropped(self):
        assert normalize_kana("アメ。") == "アメ"

    def test_space_dropped(self):
        assert normalize_kana("ア メ") == "アメ"

    def test_accent_marks_dropped(self):
        assert normalize_kana("チ'ミ/モーリョー") == "チミモーリョー"

    def test_long_vowel_mark_kept(self):
        assert normalize_kana("もーりょー") == "モーリョー"

    def test_ascii_dropped(self):
        assert normalize_kana("abcアxyz1メ!") == "アメ"

    def test_empty(self):
        assert normalize_kana("") == ""


class TestDomainTypes:
    def test_empty_phrase_rejected(self):
        with pytest.raises(EmptyPhrase):
            AccentPhrase(morae=())

    def test_nucleus_out_of_range_rejected(self):
        with pytest.raises(MisplacedNucleusMark):
            AccentPhrase(morae=(Mora("ア"),), nucleus=2)

    def test_empty_annotation_rejected(self):
        with pytest.raises(EmptyPhrase):
            PhonemeAnnotation(phrases=())

    def test_invalid_mora_surface_rejected(self):
        with pytest.raises(UnsupportedCharacter):
            Mora("ャ")
        with pytest.raises(UnsupportedCharacter):
            Mora("アイ")
        with pytest.raises(UnsupportedCharacter):
            Mora("")


# -- property tests -----------------------------------------------------

BASE_LIST = sorted(BASE_KANA)
SMALL_LIST = sorted(SMALL_KANA)
STANDALONE_LIST = sorted(STANDALONE_KANA)

mora_surface = st.one_of(
    st.sampled_from(BASE_LIST),
    st.sampled_from(STANDALONE_LIST),
    st.tuples(st.sampled_from(BASE_LIST), st.sampled_from(SMALL_LIST)).map(
        lambda t: t[0] + t[1]
    ),
)


@st.composite
def accent_phrases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    morae = tuple(Mora(draw(mora_surface)) for _ in range(n))
    nucleus = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=n)))
    return AccentPhrase(morae=morae, nucleus=nucleus)


@st.composite
def annotations(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    return PhonemeAnnotation(phrases=tuple(draw(accent_phrases()) for _ in range(k)))


@given(annotations())
@settings(max_examples=300)
def test_render_parse_round_trip(ann):
    assert parse_annotation(render_annotation(ann)) == ann


@given(annotations())
@settings(max_examples=200)
def test_segmentation_matches_phrase_morae(ann):
    for phrase in ann.phrases:
        assert segment_morae(phrase.surface()) == list(phrase.morae)


@given(annotations())
@settings(max_examples=200)
def test_pitch_length_equals_mora_count(ann):
    assert len(derive_pitch(ann)) == ann.mora_count()


@given(accent_phrases())
@settings(max_examples=200)
def test_phrase_pitch_shape(phrase):
    """Each phrase's contour has at most one H-run and no L between Hs."""
    levels = phrase_pitch(phrase)
    assert len(levels) == len(phrase.morae)
    falls = sum(
        1 for a, b in zip(levels, levels[1:]) if a == "H" and b == "L"
    )
    rises = sum(
        1 for a, b in zip(levels, levels[1:]) if a == "L" and b == "H"
    )
    assert falls <= 1
    assert rises <= 1
    if phrase.nucleus is None:
        assert falls == 0
    if len(levels) >= 2:
        # First two morae always differ except in nucleus-on-1 vs elsewhere.
        assert (levels[0] == "H") == (phrase.nucleus == 1)


@given(st.lists(mora_surface, min_size=0, max_size=12))
def test_segment_concatenation(parts):
    text = "".join(parts)
    segmented = segment_morae(text)
    assert "".join(m.surface for m in segmented) == text
