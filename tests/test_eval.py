"""Tests for CER, set evaluation, report serialization, and the
leakage bootstrap."""

import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uttertune.eval as eval_mod
from uttertune.dataprep import (
    END_OF_SPEECH_INDEX,
    SPEECH_TOKEN_COUNT,
    build_corpus,
    build_eval_sets,
    build_lexicon,
    codes_to_kana,
    codes_to_pitch,
    decode_speech_ids,
    vocab_training_text,
)
from uttertune.errors import CorruptFile, DecodeError
from uttertune.eval import (
    EvalReport,
    SampleResult,
    bootstrap_diff_ci,
    cer,
    evaluate_set,
    format_summary,
    item_text,
    leakage_test,
    load_leakage,
    load_report,
    save_leakage,
    save_report,
)
from uttertune.kernels import edit_distance_tables
from uttertune.model import ToyLM, ToyLMConfig, generate
from uttertune.tokenizer import encode_text, train_bpe

# -- cer -----------------------------------------------------------------


def test_cer_identity():
    assert cer("アメ", "アメ") == 0.0


def test_cer_single_substitution():
    assert cer("アメ", "アマ") == 0.5


def test_cer_normalizes_hiragana():
    assert cer("あめ", "アメ") == 0.0


def test_cer_strips_non_kana():
    assert cer("ア メ。", "アメ") == 0.0
    assert cer("アメ", "ア'メ") == 0.0


def test_cer_empty_reference():
    assert cer("", "アメ") == 1.0
    assert cer("", "") == 0.0
    assert cer("。!", "アメ") == 1.0


def test_cer_can_exceed_one():
    assert cer("ア", "カキクケ") == 4.0


def _naive_distance(a: str, b: str) -> int:
    """Definitional recursion, no DP table."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = a[0] != b[0]
    return min(
        _naive_distance(a[1:], b) + 1,
        _naive_distance(a, b[1:]) + 1,
        _naive_distance(a[1:], b[1:]) + cost,
    )


def test_cer_matches_recursive_definition_exhaustively():
    alphabet = "アメ"
    universe = [""]
    for length in (1, 2, 3):
        universe += [
            "".join(c)
            for c in __import__("itertools").product(alphabet, repeat=length)
        ]
    for ref in universe:
        for hyp in universe:
            expected = _naive_distance(ref, hyp)
            if ref:
                assert cer(ref, hyp) == expected / len(ref)
            else:
                assert cer(ref, hyp) == (1.0 if hyp else 0.0)


@given(
    st.text(alphabet="アイウエオ", min_size=1, max_size=8),
    st.text(alphabet="アイウエオ", min_size=1, max_size=8),
)
@settings(max_examples=150)
def test_cer_numerator_is_symmetric(a, b):
    assert cer(a, b) * len(a) == cer(b, a) * len(b)


# -- target-span alignment ------------------------------------------------


def _reference_links(ref_ids, hyp_ids):
    """The hypothesis mora matched to each reference mora (or None), from a
    pure-Python DP table and its backtrace: the alignment that eval ran
    before it read its tables from a kernel."""
    n, m = len(ref_ids), len(hyp_ids)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, prev = dist[i], dist[i - 1]
        r = ref_ids[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j - 1] + (r != hyp_ids[j - 1]),
                prev[j] + 1,
                row[j - 1] + 1,
            )
    link = [None] * n
    i, j = n, m
    while i > 0:
        if j > 0 and dist[i][j] == dist[i - 1][j - 1] + (
            ref_ids[i - 1] != hyp_ids[j - 1]
        ):
            if ref_ids[i - 1] == hyp_ids[j - 1]:
                link[i - 1] = j - 1
            i, j = i - 1, j - 1
        elif dist[i][j] == dist[i - 1][j] + 1:
            i -= 1
        else:
            j -= 1
    return link


def _reference_span_start(link, lo, hi):
    span = link[lo:hi]
    if not span or None in span:
        return None
    if span != list(range(span[0], span[0] + (hi - lo))):
        return None
    return span[0]


def test_align_target_span_matches_reference_exhaustively():
    """Every pair of sequences over 3 letters up to length 5, every
    non-empty span of the reference.

    One batched DP per reference gives the tables of its pairs with every
    hypothesis, each padded to the longest; the backtrace runs once per
    span."""
    universe = [
        seq for length in range(6)
        for seq in itertools.product(range(3), repeat=length)
    ]
    assert len(universe) == 364
    align = eval_mod._align_target_span
    for ref in universe:
        spans = [(lo, hi) for hi in range(len(ref) + 1) for lo in range(hi)]
        tables = edit_distance_tables([ref] * len(universe), universe)
        for table, hyp in zip(tables, universe):
            link = _reference_links(ref, hyp)
            for lo, hi in spans:
                assert align(table, ref, hyp, lo, hi) == _reference_span_start(
                    link, lo, hi
                ), (ref, hyp, lo, hi)


# -- fixtures for set evaluation ----------------------------------------


@pytest.fixture(scope="module")
def lexicon():
    return build_lexicon()


@pytest.fixture(scope="module")
def eval_sets(lexicon):
    return build_eval_sets(lexicon, seed=5, n_test_1=12, n_test_2=24,
                           n_leakage=12)


@pytest.fixture(scope="module")
def vocab(lexicon):
    records = build_corpus(lexicon, 120, 0.4, seed=2, kana_fraction=0.2)
    texts = vocab_training_text(records, lexicon)
    atoms = len(set("".join(texts)))
    return train_bpe(texts, target_vocab_size=atoms + 12,
                     speech_token_count=SPEECH_TOKEN_COUNT)


@pytest.fixture(scope="module")
def tiny_model(vocab):
    config = ToyLMConfig(
        vocab_size=vocab.total_size,
        speech_offset=vocab.speech_token_offset,
        speech_count=vocab.speech_token_count,
        layers=1,
        width=16,
        heads=2,
        ff_width=32,
        max_seq=128,
        seed=3,
    )
    return ToyLM.init(config)


def _fake_generate(mapping):
    """A stand-in for model.generate keyed on the prompt ids."""

    def fake(model, prompts, max_new, adapter=None):
        return [list(mapping[tuple(int(i) for i in p)])[:max_new]
                for p in prompts]

    return fake


def _oracle_mapping(items, vocab, mode, transform=None):
    offset = vocab.speech_token_offset
    mapping = {}
    for item in items:
        codes = item.codes if transform is None else transform(item.codes)
        prompt = tuple(encode_text(item_text(item, mode), vocab))
        mapping[prompt] = [offset + c for c in codes]
    return mapping


# -- evaluate_set ---------------------------------------------------------


def test_perfect_model_scores_zero_cer_full_accent(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.test_set_2
    monkeypatch.setattr(
        eval_mod, "generate", _fake_generate(_oracle_mapping(items, vocab, "tagged"))
    )
    report = evaluate_set(tiny_model, vocab, items, "tagged")
    assert report.mean_cer == 0.0
    assert report.accent_rate == 1.0
    assert report.n_excluded == 0
    assert report.n_items == len(items)


def test_all_low_pitch_model_matches_gold_fraction(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.test_set_1

    def flatten(codes):
        return tuple(c & ~1 for c in codes)

    monkeypatch.setattr(
        eval_mod,
        "generate",
        _fake_generate(_oracle_mapping(items, vocab, "plain", flatten)),
    )
    report = evaluate_set(tiny_model, vocab, items, "plain")
    expected = sum(
        1 for item in items if set(item.target_pitch()) == {"L"}
    ) / len(items)
    assert report.accent_rate == expected
    assert report.mean_cer == 0.0  # same morae, so kana is untouched


def test_exclusion_rule_keeps_bad_rows_out_of_aggregates(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.test_set_2[:6]
    mapping = _oracle_mapping(items, vocab, "plain")
    # Ruin two items: empty output → CER 1.0 → excluded.
    for item in items[:2]:
        prompt = tuple(encode_text(item_text(item, "plain"), vocab))
        mapping[prompt] = []
    monkeypatch.setattr(eval_mod, "generate", _fake_generate(mapping))
    report = evaluate_set(tiny_model, vocab, items, "plain")
    assert report.n_excluded == 2
    assert report.mean_cer == 0.0
    assert report.accent_rate == 1.0
    excluded_rows = [r for r in report.per_sample if r.excluded]
    assert len(excluded_rows) == 2
    assert all(r.cer == 1.0 for r in excluded_rows)


def test_short_hypothesis_is_accent_incorrect(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.test_set_2[:3]

    def truncate(codes):
        return codes[:1]

    monkeypatch.setattr(
        eval_mod,
        "generate",
        _fake_generate(_oracle_mapping(items, vocab, "tagged", truncate)),
    )
    report = evaluate_set(tiny_model, vocab, items, "tagged")
    assert all(r.accent_correct is False for r in report.per_sample
               if not r.excluded)


def test_insertion_before_target_does_not_break_accent(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.test_set_2[:4]

    def shift(codes):
        # A spurious leading mora shifts every later position by one.
        return (2 * 5,) + tuple(codes)

    monkeypatch.setattr(
        eval_mod,
        "generate",
        _fake_generate(_oracle_mapping(items, vocab, "tagged", shift)),
    )
    report = evaluate_set(tiny_model, vocab, items, "tagged")
    assert all(r.accent_correct for r in report.per_sample)


def test_mistranscribed_target_word_is_accent_incorrect(
    monkeypatch, tiny_model, vocab, eval_sets
):
    from uttertune.dataprep import END_OF_SPEECH_INDEX

    items = eval_sets.test_set_2[:4]
    offset = vocab.speech_token_offset
    mapping = {}
    for item in items:
        codes = list(item.codes)
        k = item.target_mora_start
        # The next mora in the inventory, at the same pitch.
        codes[k] = (codes[k] + 2) % END_OF_SPEECH_INDEX
        prompt = tuple(encode_text(item_text(item, "tagged"), vocab))
        mapping[prompt] = [offset + c for c in codes]
    monkeypatch.setattr(eval_mod, "generate", _fake_generate(mapping))
    report = evaluate_set(tiny_model, vocab, items, "tagged")
    assert all(r.accent_correct is False for r in report.per_sample)


def test_decode_error_propagates(monkeypatch, tiny_model, vocab, eval_sets):
    items = eval_sets.test_set_2[:1]
    prompt = tuple(encode_text(item_text(items[0], "plain"), vocab))
    monkeypatch.setattr(
        eval_mod, "generate", _fake_generate({prompt: [10**6]})
    )
    with pytest.raises(DecodeError):
        evaluate_set(tiny_model, vocab, items, "plain")


def test_mode_validation(eval_sets):
    with pytest.raises(ValueError):
        item_text(eval_sets.test_set_1[0], "loud")


def test_each_item_decodes_within_its_own_budget(vocab, eval_sets):
    items = eval_sets.test_set_2
    prompts = [encode_text(item_text(item, "tagged"), vocab) for item in items]
    lengths = sorted(len(p) for p in prompts)
    # A context that clips the longer prompts' budgets below max_new and
    # leaves the longest no room at all.
    max_seq = lengths[-1]
    assert lengths[0] + 4 < max_seq
    model = ToyLM.init(ToyLMConfig(
        vocab_size=vocab.total_size,
        speech_offset=vocab.speech_token_offset,
        speech_count=vocab.speech_token_count,
        layers=1, width=16, heads=2, ff_width=32, max_seq=max_seq, seed=4,
    ))
    report = evaluate_set(model, vocab, items, "tagged", max_new=4)
    for prompt, row in zip(prompts, report.per_sample):
        budget = min(4, max_seq - len(prompt))
        ids = generate(model, [prompt], max_new=budget)[0]
        codes = decode_speech_ids(ids, vocab.speech_token_offset)
        assert row.hypothesis_kana == codes_to_kana(codes)
        assert row.hypothesis_pitch == codes_to_pitch(codes)


# -- batched judging against the per-item oracle ---------------------------


def _reference_judge_item(vocab, item, hyp_ids):
    """One item's SampleResult, judged on its own: CER through eval.cer and
    the target span through the pure-Python alignment above. This is how
    eval judged an item before it judged each set in two batched DPs."""
    codes = decode_speech_ids(hyp_ids, vocab.speech_token_offset)
    hyp_kana = codes_to_kana(codes)
    hyp_pitch = codes_to_pitch(codes)
    sample_cer = cer(item.reference_kana(), hyp_kana)
    lo = item.target_mora_start
    hi = lo + item.target_mora_count
    link = _reference_links([c >> 1 for c in item.codes],
                            [c >> 1 for c in codes])
    start = _reference_span_start(link, lo, hi)
    accent_correct = (
        start is not None
        and hyp_pitch[start : start + item.target_mora_count]
        == item.target_pitch()
    )
    return SampleResult(item.item_id, sample_cer, accent_correct, hyp_kana,
                        hyp_pitch)


def _random_hypotheses(items, vocab, seed):
    """Speech ids per item, from its own codes exact, with pitches flipped,
    with a few mora edits, or from random codes, or empty."""
    rng = np.random.default_rng(seed)
    hyps = []
    for item in items:
        codes = list(item.codes)
        kind = int(rng.integers(5))
        if kind == 1:
            codes = [c ^ int(rng.random() < 0.3) for c in codes]
        elif kind == 2:
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(len(codes) + 1))
                edit = int(rng.integers(3))
                if edit == 0 or at == len(codes):
                    codes.insert(at, int(rng.integers(END_OF_SPEECH_INDEX)))
                elif edit == 1:
                    del codes[at]
                else:
                    codes[at] = int(rng.integers(END_OF_SPEECH_INDEX))
        elif kind == 3:
            codes = rng.integers(END_OF_SPEECH_INDEX,
                                 size=int(rng.integers(41))).tolist()
        elif kind == 4:
            codes = []
        hyps.append([vocab.speech_token_offset + c for c in codes])
    return hyps


def _judge_both_ways(monkeypatch, model, vocab, items, hyps):
    """evaluate_set's rows for the given hypotheses, and the oracle's."""
    monkeypatch.setattr(eval_mod, "generate",
                        lambda model, prompts, max_new, adapter=None: hyps)
    report = evaluate_set(model, vocab, items, "tagged")
    want = [_reference_judge_item(vocab, item, hyp)
            for item, hyp in zip(items, hyps)]
    assert all(type(row.cer) is float for row in report.per_sample)
    return list(report.per_sample), want


@pytest.fixture(scope="module")
def desk_sets(lexicon):
    return build_eval_sets(lexicon, seed=0)


@pytest.mark.parametrize("name", ["test_set_2", "leakage_set"])
@pytest.mark.parametrize("seed", [0, 1])
def test_batched_judging_matches_per_item_oracle_on_desk_sets(
        monkeypatch, tiny_model, vocab, desk_sets, name, seed):
    items = getattr(desk_sets, name)
    assert len(items) == {"test_set_2": 120, "leakage_set": 240}[name]
    hyps = _random_hypotheses(items, vocab, seed)
    got, want = _judge_both_ways(monkeypatch, tiny_model, vocab, items, hyps)
    assert got == want
    # The draw reaches both sides of every judgment.
    assert {r.excluded for r in got} == {r.accent_correct for r in got} == {
        True, False}


def test_batched_judging_matches_oracle_on_edge_cases(
        monkeypatch, tiny_model, vocab, desk_sets):
    """An empty hypothesis, a reference that normalizes to empty (with an
    empty and a non-empty hypothesis), and a hypothesis longer than every
    reference, in one set."""
    items = desk_sets.test_set_2[:4]
    empty_ref = dataclasses.replace(items[1], codes=(), target_mora_start=0,
                                    target_mora_count=0)
    items = (items[0], empty_ref, empty_ref, items[2], items[3])
    offset = vocab.speech_token_offset
    longest = max(len(item.codes) for item in desk_sets.test_set_2)
    hyps = [[], [], [offset + c for c in items[0].codes],
            [offset + c for c in items[3].codes],
            [offset + c for c in (items[4].codes * longest)[: longest + 5]]]
    got, want = _judge_both_ways(monkeypatch, tiny_model, vocab, items, hyps)
    assert got == want
    assert [r.cer for r in got[:3]] == [1.0, 0.0, 1.0]


@pytest.mark.parametrize("empty", [False, True])
def test_batched_judging_matches_oracle_on_one_item(
        monkeypatch, tiny_model, vocab, desk_sets, empty):
    items = desk_sets.test_set_2[5:6]
    hyps = [[] if empty else [vocab.speech_token_offset + c
                              for c in items[0].codes]]
    got, want = _judge_both_ways(monkeypatch, tiny_model, vocab, items, hyps)
    assert got == want


def test_out_of_range_id_in_a_set_raises_decode_error(
        monkeypatch, tiny_model, vocab, desk_sets):
    items = desk_sets.test_set_2[:6]
    hyps = _random_hypotheses(items, vocab, 2)
    hyps[3] = hyps[3] + [vocab.speech_token_offset + END_OF_SPEECH_INDEX]
    monkeypatch.setattr(eval_mod, "generate",
                        lambda model, prompts, max_new, adapter=None: hyps)
    with pytest.raises(DecodeError, match="is not a pitched speech token"):
        evaluate_set(tiny_model, vocab, items, "plain")


@pytest.mark.parametrize("size", [1, 7, 240])
def test_judging_runs_two_dps_per_set(monkeypatch, tiny_model, vocab,
                                      desk_sets, size):
    """The pair DP runs once on kana and once on morae, whatever the set's
    size, and the one-pair kernel not at all."""
    items = desk_sets.leakage_set[:size]
    hyps = _random_hypotheses(items, vocab, 3)
    monkeypatch.setattr(eval_mod, "generate",
                        lambda model, prompts, max_new, adapter=None: hyps)
    calls = []

    def spy(name):
        kernel = getattr(eval_mod, name)

        def counted(*args):
            calls.append((name, len(args[0])))
            return kernel(*args)

        return counted

    for name in ("edit_distance_tables", "edit_distance"):
        monkeypatch.setattr(eval_mod, name, spy(name))
    evaluate_set(tiny_model, vocab, items, "tagged")
    assert calls == [("edit_distance_tables", size)] * 2


# -- report serialization --------------------------------------------------


def _sample_report():
    rows = (
        SampleResult(0, 0.0, True, "アメ", "HL"),
        SampleResult(1, 0.25, False, "アメミ", "HLL"),
        SampleResult(2, 1.0, False, "", ""),
        SampleResult(3, 0.0, True, "キ", "L"),
    )
    return EvalReport("plain", rows)


def test_report_round_trip(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.tsv"
    save_report(report, path)
    assert load_report(path) == report


def test_report_aggregates_recomputable(tmp_path):
    report = _sample_report()
    kept = [r for r in report.per_sample if not r.excluded]
    assert report.mean_cer == sum(r.cer for r in kept) / len(kept)
    assert report.accent_rate == sum(
        1 for r in kept if r.accent_correct
    ) / len(kept)
    assert report.n_excluded == 1
    assert [r.excluded for r in report.per_sample] == [False, False, True,
                                                       False]


def test_report_aggregates_with_every_row_excluded():
    report = EvalReport("kana", (SampleResult(0, 0.75, True, "ア", "H"),))
    assert (report.n_items, report.n_excluded) == (1, 1)
    assert (report.mean_cer, report.accent_rate) == (0.0, 0.0)


def test_report_load_rejects_tampered_aggregates(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.tsv"
    save_report(report, path)
    text = path.read_text(encoding="utf-8")
    assert "\t0.25\t" in text
    path.write_text(text.replace("\t0.25\t", "\t0.375\t", 1),
                    encoding="utf-8")
    with pytest.raises(CorruptFile):
        load_report(path)


@pytest.mark.parametrize(
    "field", ["mode", "n_items", "n_excluded", "mean_cer", "accent_rate"]
)
def test_report_load_rejects_missing_header_field(tmp_path, field):
    path = tmp_path / "report.tsv"
    save_report(_sample_report(), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(field + "\t")]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept), encoding="utf-8")
    with pytest.raises(CorruptFile, match=field):
        load_report(path)


@pytest.mark.parametrize("old, new", [
    ("\tcorrect\t", "\tmaybe\t"),
    ("\tcorrect\t", "\tna\t"),
    ("\tkept\t", "\tkpt\t"),
    ("row\t1\t", "row\tone\t"),
    ("n_items\t4", "n_items\tfour"),
    ("mode\tplain", "mode\tloud"),
], ids=["accent-word", "accent-na", "exclusion-word", "item-id",
        "header-count", "mode"])
def test_report_load_rejects_bad_value(tmp_path, old, new):
    path = tmp_path / "report.tsv"
    save_report(_sample_report(), path)
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(CorruptFile, match=str(path)):
        load_report(path)


@pytest.mark.parametrize("cer_value, excluded, reason", [
    (0.923, False, "cer>0.5"),
    (0.923, False, None),
    (0.923, True, None),
    (0.923, True, "cer>0.6"),
    (0.25, True, "cer>0.5"),
    (0.25, False, "cer>0.5"),
    (0.5, True, "cer>0.5"),
])
def test_report_load_rejects_row_contradicting_its_cer(tmp_path, cer_value,
                                                       excluded, reason):
    """A row is excluded, with reason cer>0.5, exactly when its CER is above
    the threshold. The file's last row states the given CER, exclusion and
    reason, and its header the aggregates that its kept cells give, so only
    the row itself is wrong."""
    path = tmp_path / "report.tsv"
    save_report(_sample_report(), path)
    text = path.read_text(encoding="utf-8")
    kept_cer = [0.0, 0.25] + ([] if excluded else [cer_value])
    for old, new in [
        ("row\t3\t0.0\tcorrect\tkept\t-\t",
         f"row\t3\t{cer_value}\tcorrect\t"
         f"{'excluded' if excluded else 'kept'}\t{reason or '-'}\t"),
        ("n_excluded\t1\n", f"n_excluded\t{4 - len(kept_cer)}\n"),
        ("mean_cer\t0.08333333333333333\n",
         f"mean_cer\t{sum(kept_cer) / len(kept_cer)}\n"),
        ("accent_rate\t0.6666666666666666\n",
         f"accent_rate\t{(2 - excluded) / len(kept_cer)}\n"),
    ]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptFile, match=f"^{path}: item 3: exclusion and "
                                          f"reason do not follow from cer "):
        load_report(path)


def test_report_load_accepts_cer_at_the_threshold(tmp_path):
    rows = _sample_report().per_sample[:3] + (
        SampleResult(3, 0.5, True, "キ", "L"),
    )
    report = EvalReport("plain", rows)
    assert not report.per_sample[3].excluded
    path = tmp_path / "report.tsv"
    save_report(report, path)
    assert load_report(path) == report


def test_report_load_rejects_row_of_wrong_width(tmp_path):
    path = tmp_path / "report.tsv"
    save_report(_sample_report(), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[6].endswith("\tHL\n")
    lines[6] = lines[6].replace("\tHL\n", "\n")
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CorruptFile, match=f"{path}:7: "):
        load_report(path)


def test_report_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk"
    path.write_text("hello\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        load_report(path)


def test_format_summary_lists_each_mode():
    text = format_summary(_sample_report())
    assert "plain" in text
    assert "CER" in text
    lines = text.splitlines()
    assert len(lines) == 2


# -- bootstrap CI -----------------------------------------------------------


def test_identical_vectors_give_zero_ci():
    a = [1.0, 0.0, 1.0, 1.0, 0.0]
    lo, hi = bootstrap_diff_ci(a, a, resamples=500, seed=0)
    assert lo == 0.0 and hi == 0.0


def test_bootstrap_is_seeded():
    rng = np.random.default_rng(1)
    a = (rng.random(60) < 0.7).astype(float)
    b = (rng.random(60) < 0.5).astype(float)
    first = bootstrap_diff_ci(a, b, resamples=2000, seed=9)
    second = bootstrap_diff_ci(a, b, resamples=2000, seed=9)
    assert first == second
    assert first[0] <= first[1]


def _one_shot_diff_ci(adapted, baseline, resamples, seed, level=0.99):
    """bootstrap_diff_ci as it was before it averaged in row chunks: one
    int64 index, gathered and averaged at once. Kept as its reference."""
    a = np.asarray(adapted, dtype=np.float64)
    b = np.asarray(baseline, dtype=np.float64)
    idx = np.random.default_rng(seed).integers(0, a.size,
                                               size=(resamples, a.size))
    diffs = a[idx].mean(axis=1) - b[idx].mean(axis=1)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(diffs, [tail, 1.0 - tail])
    return float(lo), float(hi)


@pytest.mark.parametrize("n, resamples", [(240, 10_000), (60, 2_500),
                                          (7, eval_mod._BOOTSTRAP_CHUNK + 13),
                                          (1, 300)])
@pytest.mark.parametrize("kind", ["bool", "float"])
def test_bootstrap_matches_one_shot_form(n, resamples, kind):
    for seed in (0, 5, 9):
        rng = np.random.default_rng(100 + seed)
        if kind == "bool":
            a, b = rng.random(n) < 0.7, rng.random(n) < 0.5
        else:
            a, b = rng.normal(size=n), rng.normal(size=n)
        assert (bootstrap_diff_ci(a, b, resamples=resamples, seed=seed)
                == _one_shot_diff_ci(a, b, resamples, seed))
        # The int32 index bootstrap_diff_ci draws chunk by chunk holds the
        # values of one whole int64 draw.
        whole = np.random.default_rng(seed).integers(0, n,
                                                     size=(resamples, n))
        rng = np.random.default_rng(seed)
        chunk = eval_mod._BOOTSTRAP_CHUNK
        chunks = [rng.integers(0, n, dtype=np.int32,
                               size=(min(chunk, resamples - start), n))
                  for start in range(0, resamples, chunk)]
        assert np.array_equal(whole, np.concatenate(chunks))


def test_bootstrap_memory_is_one_chunk():
    """At the desk's 240 items x 10,000 resamples the whole int32 index
    alone was 9.6 MB; drawn per chunk, the traced peak stays near one
    chunk's index and gather."""
    rng = np.random.default_rng(0)
    a, b = rng.random(240) < 0.7, rng.random(240) < 0.5
    bootstrap_diff_ci(a, b, resamples=100, seed=0)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        bootstrap_diff_ci(a, b, resamples=10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = eval_mod._BOOTSTRAP_CHUNK * 240
    # The chunk's int32 index and one float64 gather, the differences and
    # a copy of them for the quantiles.
    assert peak < 1.1 * (12 * chunk + 16 * 10_000), peak
    assert peak < 9.6e6 / 2


def test_bootstrap_validates_input():
    with pytest.raises(ValueError):
        bootstrap_diff_ci([1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        bootstrap_diff_ci([], [])
    for resamples in (0, -1):
        with pytest.raises(ValueError, match=r"^resamples must be >= 1, got "):
            bootstrap_diff_ci([1.0], [0.0], resamples=resamples)


def test_bootstrap_coverage_on_known_gap():
    """500 simulated studies with a true gap of 0.2; the 99% interval
    must cover the truth in at least 98% of them."""
    rng = np.random.default_rng(777)
    trials = 500
    covered = 0
    for t in range(trials):
        a = (rng.random(120) < 0.7).astype(float)
        b = (rng.random(120) < 0.5).astype(float)
        lo, hi = bootstrap_diff_ci(a, b, resamples=2000, seed=1000 + t)
        if lo <= 0.2 <= hi:
            covered += 1
    assert covered / trials >= 0.98


# -- leakage test ------------------------------------------------------------


def test_leakage_identical_behavior_centers_on_zero(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.leakage_set
    mapping = _oracle_mapping(items, vocab, "plain")
    mapping.update(_oracle_mapping(items, vocab, "tagged"))
    monkeypatch.setattr(eval_mod, "generate", _fake_generate(mapping))
    result = leakage_test(tiny_model, vocab, items, adapter=None,
                          resamples=2000, seed=4)
    assert result.baseline_rate == 1.0
    assert result.adapted_rate == 1.0
    assert result.difference == 0.0
    assert result.ci_low <= 0.0 <= result.ci_high
    assert len(result.outcomes) == len(items)
    assert all(o.baseline_correct and o.adapted_correct
               for o in result.outcomes)


def test_leakage_reports_per_word_outcomes(
    monkeypatch, tiny_model, vocab, eval_sets
):
    items = eval_sets.leakage_set

    def flatten(codes):
        return tuple(c & ~1 for c in codes)

    mapping = _oracle_mapping(items, vocab, "plain")
    mapping.update(_oracle_mapping(items, vocab, "tagged", flatten))
    monkeypatch.setattr(eval_mod, "generate", _fake_generate(mapping))
    result = leakage_test(tiny_model, vocab, items, adapter=None,
                          resamples=2000, seed=4)
    assert result.baseline_rate == 1.0
    assert result.adapted_rate < 1.0
    assert result.difference == result.adapted_rate - result.baseline_rate
    graphemes = {o.grapheme for o in result.outcomes}
    assert graphemes <= {e.grapheme for e in build_lexicon() if e.is_ambiguous}


@pytest.fixture
def saved_leakage(monkeypatch, tiny_model, vocab, eval_sets, tmp_path):
    """A leakage result from oracle outputs, and the file it was saved to."""
    items = eval_sets.leakage_set
    mapping = _oracle_mapping(items, vocab, "plain")
    mapping.update(_oracle_mapping(items, vocab, "tagged"))
    monkeypatch.setattr(eval_mod, "generate", _fake_generate(mapping))
    result = leakage_test(tiny_model, vocab, items, adapter=None,
                          resamples=500, seed=1)
    path = tmp_path / "leakage.tsv"
    save_leakage(result, path)
    return result, path


def test_leakage_round_trip(saved_leakage):
    result, path = saved_leakage
    assert load_leakage(path) == result


def test_leakage_load_rejects_tampered_rates(saved_leakage):
    _, path = saved_leakage
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("baseline_rate\t1.0", "baseline_rate\t0.5"),
                    encoding="utf-8")
    with pytest.raises(CorruptFile):
        load_leakage(path)


@pytest.mark.parametrize("old, new", [
    ("\t1\t1\n", "\t7\t1\n"),
    ("\t1\t1\n", "\t1\ttrue\n"),
    ("resamples\t500", "resamples\tmany"),
    ("difference\t0.0\n", "difference\t0.25\n"),
], ids=["flag-seven", "flag-word", "header-count", "difference"])
def test_leakage_load_rejects_bad_value(saved_leakage, old, new):
    _, path = saved_leakage
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(CorruptFile, match=str(path)):
        load_leakage(path)


def test_leakage_test_refuses_an_empty_set(tiny_model, vocab):
    with pytest.raises(ValueError, match=r"^leakage_set is empty"):
        leakage_test(tiny_model, vocab, [], None)


def test_leakage_load_rejects_file_without_rows(saved_leakage):
    _, path = saved_leakage
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if not line.startswith("row\t")),
                    encoding="utf-8")
    with pytest.raises(CorruptFile, match=f"^{path}: no outcome rows"):
        load_leakage(path)


# -- pinned bytes ------------------------------------------------------------


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """save_report's and save_leakage's bytes, pinned by SHA-256: each
    header aggregate and rate, computed from the rows, shows in them, as
    do the kept and reason cells of every row."""

    REPORT = "f0fed94d426a80bc9214ef4cd0b6fc36737fe1f8aaec1cbe4287bd7be1fdabd1"
    LEAKAGE = "490e61746820f1b62352a64be7ba15c43e381c07409490d788f87575a779dbcc"
    # Half the tagged outputs flattened: rates 1.0 and 0.5, a CI off zero.
    LEAKAGE_HALF = (
        "0314fb8a557485ae8eae7df70416527c3aa53a8f5e24fafe1bf90f480f0c478d")

    def test_report(self, tmp_path):
        path = tmp_path / "report.tsv"
        save_report(_sample_report(), path)
        assert _sha256(path) == self.REPORT

    def test_leakage(self, saved_leakage):
        assert _sha256(saved_leakage[1]) == self.LEAKAGE

    def test_leakage_with_half_the_words_flattened(
            self, monkeypatch, tiny_model, vocab, eval_sets, tmp_path):
        items = eval_sets.leakage_set

        def flatten(codes):
            return tuple(c & ~1 for c in codes)

        mapping = _oracle_mapping(items, vocab, "plain")
        mapping.update(_oracle_mapping(items[::2], vocab, "tagged", flatten))
        mapping.update(_oracle_mapping(items[1::2], vocab, "tagged"))
        monkeypatch.setattr(eval_mod, "generate", _fake_generate(mapping))
        result = leakage_test(tiny_model, vocab, items, adapter=None,
                              resamples=500, seed=1)
        path = tmp_path / "leakage.tsv"
        save_leakage(result, path)
        assert (result.baseline_rate, result.adapted_rate) == (1.0, 0.5)
        assert _sha256(path) == self.LEAKAGE_HALF
        assert load_leakage(path) == result
