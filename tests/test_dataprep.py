"""Tests for the synthetic corpus: codec bijection, oracle rendering,
lexicon table, corpus construction, and eval-set properties."""

import hashlib
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADAPTER_CORPUS_CFG, DESK_CFG
from uttertune import dataprep
from uttertune.dataprep import (
    END_OF_SPEECH_INDEX,
    KANA_FORM,
    MORA_INVENTORY,
    MORA_TO_ID,
    SPEECH_TOKEN_COUNT,
    CorpusRecord,
    EvalSets,
    LexiconEntry,
    Reading,
    TAGGED_FORM,
    _sample_reading,
    build_corpus,
    build_eval_sets,
    build_lexicon,
    codes_to_kana,
    codes_to_pitch,
    decode_speech_ids,
    is_held_out,
    load_corpus,
    parse_lexicon_table,
    render_oracle,
    save_corpus,
    to_training_examples,
    vocab_training_text,
)
from uttertune.errors import (
    CorruptFile,
    DecodeError,
    EmptyLexicon,
    EmptyPhrase,
    UnknownMora,
)
from uttertune.manifest import parse_config_file
from uttertune.notation import derive_pitch, parse_annotation, render_annotation
from uttertune.tokenizer import PHON_END, PHON_START, train_bpe


@pytest.fixture(scope="module")
def lexicon():
    return build_lexicon()


@pytest.fixture(scope="module")
def corpus(lexicon):
    return build_corpus(lexicon, n_sentences=400, tag_fraction=0.5, seed=11,
                        kana_fraction=0.25)


@pytest.fixture(scope="module")
def eval_sets(lexicon):
    return build_eval_sets(lexicon, seed=23)


# -- codec ---------------------------------------------------------------


def test_inventory_is_thirty_unique_morae():
    assert len(MORA_INVENTORY) == 30
    assert len(set(MORA_INVENTORY)) == 30
    assert SPEECH_TOKEN_COUNT == 61
    assert END_OF_SPEECH_INDEX == 60


def test_code_id_bijection_over_full_inventory():
    offset = 137
    ids = range(offset, offset + END_OF_SPEECH_INDEX)
    codes = decode_speech_ids(ids, offset)
    assert codes == tuple(range(END_OF_SPEECH_INDEX))
    pairs = {(codes_to_kana([c]), codes_to_pitch([c])) for c in codes}
    assert pairs == {(mora, pitch) for mora in MORA_INVENTORY
                     for pitch in "HL"}


def test_decode_rejects_out_of_range():
    with pytest.raises(DecodeError):
        decode_speech_ids([99], 100)
    with pytest.raises(DecodeError):
        decode_speech_ids([100 + END_OF_SPEECH_INDEX], 100)  # end-of-speech


@given(
    st.integers(min_value=0, max_value=29),
    st.sampled_from(["H", "L"]),
    st.integers(min_value=0, max_value=5000),
)
def test_bijection_property(mora_id, pitch, offset):
    code = 2 * mora_id + (pitch == "H")
    codes = decode_speech_ids([offset + code], offset)
    assert codes == (code,)
    assert codes_to_kana(codes) == MORA_INVENTORY[mora_id]
    assert codes_to_pitch(codes) == pitch


# -- oracle --------------------------------------------------------------


def test_oracle_accented_word():
    codes = render_oracle(parse_annotation("チ'ミ"))
    assert codes == (2 * MORA_TO_ID["チ"] + 1, 2 * MORA_TO_ID["ミ"])


def test_oracle_unaccented_word():
    codes = render_oracle(parse_annotation("アメ"))
    assert codes == (2 * MORA_TO_ID["ア"], 2 * MORA_TO_ID["メ"] + 1)


def test_oracle_multi_phrase():
    codes = render_oracle(parse_annotation("チ'ミ/モーリョー"))
    assert codes_to_kana(codes) == "チミモーリョー"
    assert codes_to_pitch(codes) == "HLLHHH"


def test_oracle_rejects_empty():
    with pytest.raises(EmptyPhrase):
        render_oracle(parse_annotation(""))


def test_oracle_rejects_mora_outside_inventory():
    with pytest.raises(UnknownMora):
        render_oracle(parse_annotation("ヒト"))  # valid notation, but ヒ is not stocked


def test_oracle_accepts_parsed_annotation():
    from uttertune.notation import AccentPhrase, Mora, PhonemeAnnotation

    built = PhonemeAnnotation((AccentPhrase((Mora("ウ"), Mora("ミ")), 1),))
    assert render_oracle(built) == render_oracle(parse_annotation("ウ'ミ"))


def test_oracle_determinism():
    ann = parse_annotation("ミナ'ト")
    assert render_oracle(ann) == render_oracle(parse_annotation("ミナ'ト"))


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(MORA_INVENTORY), min_size=1, max_size=5),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=150)
def test_oracle_matches_pitch_and_morae(phrase_specs):
    from uttertune.notation import AccentPhrase, Mora, PhonemeAnnotation
    from uttertune.notation import render_annotation

    phrases = []
    for morae, accented in phrase_specs:
        nucleus = 1 if accented else None
        phrases.append(AccentPhrase(tuple(Mora(m) for m in morae), nucleus))
    ann = PhonemeAnnotation(tuple(phrases))
    codes = render_oracle(parse_annotation(render_annotation(ann)))
    assert len(codes) == ann.mora_count()
    assert codes_to_kana(codes) == ann.surface()
    assert codes_to_pitch(codes) == "".join(derive_pitch(ann))


# -- lexicon --------------------------------------------------------------


def test_lexicon_shape(lexicon):
    assert len(lexicon) == 40
    ambiguous = [e for e in lexicon if e.is_ambiguous]
    assert len(ambiguous) == 12
    assert all(e.pos == "noun" for e in ambiguous)
    assert all(len(e.readings) == 2 for e in ambiguous)
    for entry in ambiguous:
        priors = sorted(r.prior for r in entry.readings)
        assert priors == [0.35, 0.65]


def test_lexicon_contrast_types(lexicon):
    ambiguous = [e for e in lexicon if e.is_ambiguous]
    same_kana = [
        e for e in ambiguous if e.readings[0].kana == e.readings[1].kana
    ]
    different_kana = [
        e for e in ambiguous if e.readings[0].kana != e.readings[1].kana
    ]
    assert len(same_kana) == 6
    assert len(different_kana) == 6
    # Accent-contrast pairs must differ inside the word's own morae,
    # not merely on a following particle.
    for entry in same_kana:
        pitches = {
            "".join(derive_pitch(r.annotation)) for r in entry.readings
        }
        assert len(pitches) == 2


def test_every_reading_renders(lexicon):
    for entry in lexicon:
        for reading in entry.readings:
            codes = render_oracle(reading.annotation)
            assert len(codes) == reading.annotation.mora_count()


def test_lexicon_covers_whole_inventory(lexicon):
    used = set()
    for entry in lexicon:
        for reading in entry.readings:
            used.update(m.surface for m in reading.annotation.morae())
    assert used == set(MORA_INVENTORY)


def test_lexicon_table_rejects_duplicates():
    with pytest.raises(CorruptFile):
        parse_lexicon_table("雨\tnoun\tア'メ:1\n雨\tnoun\tアメ:1\n")


def test_lexicon_table_rejects_missing_prior():
    with pytest.raises(CorruptFile):
        parse_lexicon_table("雨\tnoun\tア'メ\n")


def test_reading_requires_positive_prior():
    with pytest.raises(ValueError):
        Reading(parse_annotation("アメ"), 0.0)


def test_entry_requires_readings():
    with pytest.raises(ValueError):
        LexiconEntry("雨", "noun", ())


# -- corpus ---------------------------------------------------------------


def test_corpus_is_deterministic(lexicon):
    a = build_corpus(lexicon, 50, 0.5, seed=3)
    b = build_corpus(lexicon, 50, 0.5, seed=3)
    assert a == b
    c = build_corpus(lexicon, 50, 0.5, seed=4)
    assert a != c


def test_corpus_rejects_degenerate_lexicons(lexicon):
    with pytest.raises(EmptyLexicon):
        build_corpus([], 10, 0.5, seed=0)
    unambiguous_only = [e for e in lexicon if not e.is_ambiguous]
    with pytest.raises(EmptyLexicon):
        build_corpus(unambiguous_only, 10, 0.5, seed=0)


def test_corpus_rejects_bad_fractions(lexicon):
    nan = float("nan")
    for tag, kana in ((0.8, 0.3), (-0.1, 0.5), (nan, 0.0), (0.0, nan)):
        with pytest.raises(ValueError):
            build_corpus(lexicon, 10, tag, seed=0, kana_fraction=kana)


def test_tag_fraction_zero_produces_no_tags(lexicon):
    records = build_corpus(lexicon, 80, 0.0, seed=5)
    assert all(PHON_START not in r.input_text for r in records)
    assert all(r.converted_form is None for r in records)


def test_tag_fraction_one_tags_exactly_one_noun(lexicon):
    by_grapheme = {e.grapheme: e for e in lexicon}
    records = build_corpus(lexicon, 80, 1.0, seed=6)
    for r in records:
        assert r.input_text.count(PHON_START) == 1
        assert r.input_text.count(PHON_END) == 1
        assert r.converted_form == TAGGED_FORM
        assert by_grapheme[r.graphemes[r.converted_index]].pos == "noun"


def test_tagged_span_shows_the_sampled_reading(corpus):
    """The annotation inside the tags is the reading whose oracle codes
    sit in the target, independent of that reading's prior."""
    for r in corpus:
        if r.converted_form != TAGGED_FORM:
            continue
        start = r.input_text.index(PHON_START) + len(PHON_START)
        end = r.input_text.index(PHON_END)
        inline = r.input_text[start:end]
        assert inline == r.annotations[r.converted_index]
        mora_start = sum(
            parse_annotation(a).mora_count()
            for a in r.annotations[: r.converted_index]
        )
        expected = render_oracle(parse_annotation(inline))
        got = r.codes[mora_start : mora_start + len(expected)]
        assert got == expected


def test_kana_form_strips_marks(corpus):
    for r in corpus:
        if r.converted_form != KANA_FORM:
            continue
        kana = parse_annotation(r.annotations[r.converted_index]).surface()
        assert kana in r.input_text
        assert "'" not in r.input_text
    assert any(r.converted_form == KANA_FORM for r in corpus)


def test_sentences_have_two_to_six_words_and_a_noun(corpus, lexicon):
    nouns = {e.grapheme for e in lexicon if e.pos == "noun"}
    for r in corpus:
        assert 2 <= len(r.graphemes) <= 6
        assert any(g in nouns for g in r.graphemes)
        assert len(r.annotations) == len(r.graphemes)


def test_gold_codes_concatenate_word_oracles(corpus):
    for r in corpus[:60]:
        expected = []
        for annotation in r.annotations:
            expected.extend(render_oracle(parse_annotation(annotation)))
        assert r.codes == tuple(expected)


def test_corpus_avoids_held_out_sentences(corpus):
    assert not any(is_held_out(r.graphemes) for r in corpus)


def test_corpus_round_trip(corpus, tmp_path):
    path = tmp_path / "corpus.tsv"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_corpus_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.tsv"
    path.write_text("not a corpus\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        load_corpus(path)


@pytest.mark.parametrize("column, value", [
    (0, "x"), (2, "0 x"), (2, "999"), (5, "first"), (6, "zzz"),
    (5, "9"), (5, "-"), (6, "-"), (4, "ミチ"),
], ids=["sentence-id", "speech-id-word", "speech-id-range", "converted-index",
        "converted-form", "index-past-last-word", "form-without-index",
        "index-without-form", "one-annotation-for-four-words"])
def test_corpus_load_rejects_bad_value(corpus, tmp_path, column, value):
    """The edited row is sentence 1: four words, word 0 written as kana."""
    assert (len(corpus[1].graphemes), corpus[1].converted_index,
            corpus[1].converted_form) == (4, 0, KANA_FORM)
    path = tmp_path / "corpus.tsv"
    save_corpus(corpus[:3], path)
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[2].split("\t")
    fields[column] = value
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CorruptFile, match=str(path)):
        load_corpus(path)


def test_corpus_load_names_line_of_short_row(corpus, tmp_path):
    path = tmp_path / "corpus.tsv"
    save_corpus(corpus[:3], path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text + "3\tonly two\n", encoding="utf-8")
    with pytest.raises(CorruptFile, match=f"{path}:5: "):
        load_corpus(path)


# -- reading balance -------------------------------------------------------


def chi_square_two_cell(observed, priors):
    """Goodness-of-fit statistic and p-value (df=1) for two categories."""
    total = observed[0] + observed[1]
    if total == 0:
        return 0.0, 1.0
    norm = priors[0] + priors[1]
    stat = 0.0
    for obs, prior in zip(observed, priors):
        expected = total * prior / norm
        stat += (obs - expected) ** 2 / expected
    return stat, math.erfc(math.sqrt(stat / 2.0))


class ReadingBalance(NamedTuple):
    grapheme: str
    counts: tuple[int, ...]
    chi_square: float
    p_value: float


def reading_balance(records, lexicon):
    """Observed reading counts vs priors for each ambiguous word."""
    by_grapheme = {e.grapheme: e for e in lexicon if e.is_ambiguous}
    counts = {g: [0] * len(e.readings) for g, e in by_grapheme.items()}
    for r in records:
        for grapheme, annotation in zip(r.graphemes, r.annotations):
            entry = by_grapheme.get(grapheme)
            if entry is None:
                continue
            for idx, reading in enumerate(entry.readings):
                if reading.text == annotation:
                    counts[grapheme][idx] += 1
                    break
    out = []
    for grapheme, entry in by_grapheme.items():
        observed = counts[grapheme]
        stat, p = chi_square_two_cell(
            (observed[0], observed[1]),
            (entry.readings[0].prior, entry.readings[1].prior),
        )
        out.append(ReadingBalance(grapheme, tuple(observed), stat, p))
    return out


def test_chi_square_hand_values():
    stat, p = chi_square_two_cell((50, 50), (0.5, 0.5))
    assert stat == 0.0 and p == 1.0
    stat, p = chi_square_two_cell((90, 10), (0.5, 0.5))
    assert stat == pytest.approx(64.0)
    assert p < 1e-10
    stat, p = chi_square_two_cell((65, 35), (0.65, 0.35))
    assert stat == pytest.approx(0.0)


def test_generated_corpus_matches_priors(lexicon):
    records = build_corpus(lexicon, 3000, 0.5, seed=0)
    balances = reading_balance(records, lexicon)
    assert len(balances) == 12
    for row in balances:
        assert sum(row.counts) > 50
        assert row.p_value > 1e-4, f"{row.grapheme}: {row}"


def test_reading_balance_detects_skew(lexicon):
    records = build_corpus(lexicon, 1500, 0.0, seed=1)
    skewed = []
    for r in records:
        swapped = tuple(
            a.replace("ア'メ", "アメ") if g == "雨" else a
            for g, a in zip(r.graphemes, r.annotations)
        )
        skewed.append(
            CorpusRecord(r.sentence_id, r.input_text, r.codes, r.graphemes,
                         swapped, r.converted_index, r.converted_form)
        )
    row = {b.grapheme: b for b in reading_balance(skewed, lexicon)}["雨"]
    assert row.counts[0] == 0
    assert row.p_value < 1e-6


# -- vocabulary interplay ----------------------------------------------------


def test_vocab_text_strips_tags_and_covers_everything(corpus, lexicon):
    texts = vocab_training_text(corpus, lexicon)
    assert all(PHON_START not in t and PHON_END not in t for t in texts)
    chars = set("".join(texts))
    for entry in lexicon:
        assert entry.grapheme in chars
    assert "/" in chars and "'" in chars


def test_to_training_examples_encode_and_target_range(corpus, lexicon):
    texts = vocab_training_text(corpus, lexicon)
    vocab = train_bpe(texts, target_vocab_size=len(set("".join(texts))) + 24,
                      speech_token_count=SPEECH_TOKEN_COUNT)
    examples = to_training_examples(corpus[:80], vocab)
    lo = vocab.speech_token_offset
    hi = lo + END_OF_SPEECH_INDEX
    for record, ex in zip(corpus[:80], examples):
        assert all(lo <= t < hi for t in ex.target_ids)
        decoded = decode_speech_ids(ex.target_ids, lo)
        assert decoded == record.codes
        if record.converted_form == TAGGED_FORM:
            assert vocab.phon_start_id in ex.input_ids
            assert vocab.phon_end_id in ex.input_ids


# -- eval sets ---------------------------------------------------------------


def test_eval_sets_shape(eval_sets):
    assert isinstance(eval_sets, EvalSets)
    assert len(eval_sets.test_set_1) == 48
    assert len(eval_sets.test_set_2) == 120
    assert len(eval_sets.leakage_set) == 240


def test_eval_sets_deterministic(lexicon, eval_sets):
    again = build_eval_sets(lexicon, seed=23)
    assert again == eval_sets


def test_test_set_1_is_unambiguous(eval_sets, lexicon):
    ambiguous = {e.grapheme for e in lexicon if e.is_ambiguous}
    for item in eval_sets.test_set_1:
        assert not (set(item.graphemes) & ambiguous)
        assert PHON_START not in item.text_plain


def test_test_set_2_has_exactly_one_ambiguous_word(eval_sets, lexicon):
    ambiguous = {e.grapheme for e in lexicon if e.is_ambiguous}
    for item in eval_sets.test_set_2:
        hits = [g for g in item.graphemes if g in ambiguous]
        assert len(hits) == 1
        assert item.target_grapheme == hits[0]


def test_test_set_2_prescriptions_are_balanced(eval_sets, lexicon):
    by_word = {}
    for item in eval_sets.test_set_2:
        by_word.setdefault(item.target_grapheme, []).append(
            item.target_annotation
        )
    assert len(by_word) == 12
    entries = {e.grapheme: e for e in lexicon}
    for grapheme, prescriptions in by_word.items():
        entry = entries[grapheme]
        assert len(prescriptions) == 10
        for reading in entry.readings:
            assert prescriptions.count(reading.text) == 5


def test_eval_variant_texts(eval_sets):
    for item in eval_sets.test_set_2:
        assert PHON_START not in item.text_plain
        assert "'" not in item.text_kana and "/" not in item.text_kana
        assert PHON_START not in item.text_kana
        assert item.text_tagged.count(PHON_START) == 1
        kana = parse_annotation(item.target_annotation).surface()
        assert kana in item.text_kana
        assert (
            f"{PHON_START}{item.target_annotation}{PHON_END}"
            in item.text_tagged
        )


def test_eval_target_span_matches_oracle(eval_sets):
    for item in eval_sets.test_set_2 + eval_sets.test_set_1:
        ann = parse_annotation(item.target_annotation)
        span = item.codes[
            item.target_mora_start : item.target_mora_start
            + item.target_mora_count
        ]
        assert span == render_oracle(ann)
        assert item.target_pitch() == "".join(derive_pitch(ann))
        assert item.reference_kana().count(ann.surface()) >= 1


def test_leakage_items_tag_a_different_word(eval_sets, lexicon):
    ambiguous = {e.grapheme for e in lexicon if e.is_ambiguous}
    entries = {e.grapheme: e for e in lexicon}
    for item in eval_sets.leakage_set:
        assert PHON_START not in item.text_plain
        assert item.text_tagged.count(PHON_START) == 1
        assert item.target_grapheme in ambiguous
        # The untagged ambiguous target keeps its grapheme in the tagged text.
        assert item.target_grapheme in item.text_tagged
        # Gold reading is the majority one.
        majority = entries[item.target_grapheme].majority_reading().text
        assert item.target_annotation == majority


def test_eval_sets_disjoint_from_training(lexicon, corpus, eval_sets):
    train_keys = {r.graphemes for r in corpus}
    more = build_corpus(lexicon, 2000, 0.3, seed=99)
    train_keys |= {r.graphemes for r in more}
    eval_keys = {
        item.graphemes
        for group in (
            eval_sets.test_set_1,
            eval_sets.test_set_2,
            eval_sets.leakage_set,
        )
        for item in group
    }
    assert not (train_keys & eval_keys)
    assert all(is_held_out(k) for k in eval_keys)


def test_eval_sets_need_both_word_kinds(lexicon):
    ambiguous_only = [e for e in lexicon if e.is_ambiguous]
    with pytest.raises(EmptyLexicon):
        build_eval_sets(ambiguous_only, seed=0)


def test_held_out_is_deterministic():
    assert is_held_out(("雨", "花")) == is_held_out(("雨", "花"))
    sides = {is_held_out((g,) * 2) for g in "雨花海港魎糸明金石竹門星駅音月手"}
    assert sides == {True, False}


# -- sampling stream: stored CDF and once-rendered readings -----------------
#
# The reference path is the sampler and renderer these replaced: a fresh
# priors array and Generator.choice(p=...) per word drawn, and an oracle
# render of the reading each time a word is used.


def _choice_reading(entry, rng):
    priors = np.array([r.prior for r in entry.readings], dtype=np.float64)
    priors /= priors.sum()
    return entry.readings[int(rng.choice(len(entry.readings), p=priors))]


def _use_reference_path(patch):
    patch.setattr(dataprep, "_sample_reading", _choice_reading)
    patch.setattr(Reading, "codes",
                  property(lambda r: render_oracle(r.annotation)))
    patch.setattr(Reading, "text",
                  property(lambda r: render_annotation(r.annotation)))
    patch.setattr(Reading, "kana", property(lambda r: r.annotation.surface()))


def _desk_corpus(lexicon, cfg_path):
    cfg = parse_config_file(cfg_path)
    return build_corpus(lexicon, cfg["sentences"], cfg["tag_fraction"],
                        seed=cfg["seed"], kana_fraction=cfg["kana_fraction"])


@pytest.fixture(scope="module")
def desk_corpora(lexicon):
    return {path.name: _desk_corpus(lexicon, path)
            for path in (DESK_CFG, ADAPTER_CORPUS_CFG)}


def test_sample_reading_matches_choice_stream(lexicon):
    """12,000 draws cycling over every entry: each index and the
    generator state after each draw equal choice's, then the next draw."""
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    for draw in range(12_000):
        entry = lexicon[draw % len(lexicon)]
        assert _sample_reading(entry, rng) is _choice_reading(entry, reference)
        assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.random() == reference.random()


def test_reading_renders_match_oracle(lexicon):
    for entry in lexicon:
        for reading in entry.readings:
            assert reading.codes == render_oracle(reading.annotation)
            assert reading.text == render_annotation(reading.annotation)
            assert reading.kana == reading.annotation.surface()


def test_cached_renders_leave_reading_identity_alone(lexicon):
    reading = lexicon[0].readings[0]
    fresh = Reading(reading.annotation, reading.prior)
    assert reading.codes and fresh == reading
    assert hash(fresh) == hash(reading) and repr(fresh) == repr(reading)


def test_desk_corpora_match_reference_path(lexicon, desk_corpora,
                                           monkeypatch):
    with monkeypatch.context() as patch:
        _use_reference_path(patch)
        for path in (DESK_CFG, ADAPTER_CORPUS_CFG):
            assert _desk_corpus(lexicon, path) == desk_corpora[path.name]


@pytest.mark.parametrize("seed", [0, 3, 23])
def test_eval_sets_match_reference_path(lexicon, seed, monkeypatch):
    stored = build_eval_sets(lexicon, seed=seed)
    with monkeypatch.context() as patch:
        _use_reference_path(patch)
        assert build_eval_sets(lexicon, seed=seed) == stored


@pytest.mark.parametrize("seed", [0, 3, 23])
def test_eval_sets_without_leakage_keep_test_sets(lexicon, seed):
    """The leakage set is drawn last, so eval can skip it without --leakage."""
    full = build_eval_sets(lexicon, seed=seed)
    lean = build_eval_sets(lexicon, seed=seed, n_leakage=0)
    assert lean.test_set_1 == full.test_set_1
    assert lean.test_set_2 == full.test_set_2
    assert lean.leakage_set == ()
    assert len(full.leakage_set) == 240


def _eval_items_digest(items):
    h = hashlib.sha256()
    for it in items:
        fields = (it.item_id, " ".join(it.graphemes), it.text_plain,
                  it.text_kana, it.text_tagged, it.target_grapheme,
                  it.target_annotation, it.target_mora_start,
                  it.target_mora_count,
                  " ".join(map(str, it.codes)))
        h.update(("\t".join(map(str, fields)) + "\n").encode("utf-8"))
    return h.hexdigest()


# SHA-256 of the desk corpora as saved and of the desk eval sets (seed 0),
# recorded before the stored-CDF sampler: a change that shifts the
# sampling stream changes these.
_DESK_CORPUS_SHA256 = {
    "desk.cfg":
        "03c19e5ce5e1b2ac80702692e4a094e8b14ec31d6d93b0bd524577c09094fb9f",
    "desk_adapter_corpus.cfg":
        "7fb1e8280d05fa4773c67c27ba64ebe360322b2396b78db7fc6a52d27b0f6c0d",
}
_DESK_EVAL_SHA256 = {
    "test_set_1":
        "268a1cefe45d35e1301419a3581b4a683a2f34d4c416e398c515644301d37a10",
    "test_set_2":
        "92beaf805f889ff58d6a038251c0e21c46e98de7427e7139332cee6d92318e26",
    "leakage_set":
        "dee9de1cab8a8d888e066d9a77e1bf0383df42260de47add2e2af86cc59e86be",
}


def test_desk_sampling_stream_is_pinned(lexicon, desk_corpora, tmp_path):
    for name, records in desk_corpora.items():
        path = tmp_path / name
        save_corpus(records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            _DESK_CORPUS_SHA256[name], name
    cfg = parse_config_file(DESK_CFG)
    sets = build_eval_sets(lexicon, seed=cfg["seed"], n_test_1=cfg["n_test_1"],
                           n_test_2=cfg["n_test_2"], n_leakage=cfg["n_leakage"])
    for name, items in sets._asdict().items():
        assert _eval_items_digest(items) == _DESK_EVAL_SHA256[name], name
