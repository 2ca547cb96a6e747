"""Acceptance gate: the nine checks this package must pass.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
and asserts at its stated tolerance. Checks 3, 5, 6, and 9 share the
session-scoped reference pipeline run from conftest; everything else uses
small purpose-built models so the gate stays honest but quick.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from uttertune import cli
from uttertune.dataprep import (
    MORA_INVENTORY,
    SPEECH_TOKEN_COUNT,
    build_corpus,
    build_lexicon,
    to_training_examples,
    vocab_training_text,
)
from uttertune.errors import (
    EmptyPhrase,
    MisplacedNucleusMark,
    MultipleNuclei,
    UnsupportedCharacter,
)
from uttertune.eval import cer, load_leakage, load_report
from uttertune.kernels import (
    active_backend,
    bfs_distance_matrix,
    edit_distance,
    edit_distance_matrix,
    edit_move_graph,
    enumerate_strings,
)
from uttertune.lora import init_adapter, load_adapter, trainable_param_count
from uttertune.manifest import load_manifest, manifest_config_text
from uttertune.model import (
    ToyLM,
    ToyLMConfig,
    TrainConfig,
    gradient_check,
    train_adapter,
)
from uttertune.notation import (
    AccentPhrase,
    Mora,
    PhonemeAnnotation,
    parse_annotation,
    render_annotation,
)
from uttertune.tokenizer import train_bpe


EVAL_MODES = ("tagged", "kana", "plain")


def _verdict(number: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {number}: {detail}"
    print(line)
    assert ok, line


# -- small shared setup -------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_setup():
    """Width-16 model with a matching vocabulary and training examples."""
    lexicon = build_lexicon()
    records = build_corpus(lexicon, 60, 0.3, seed=2, kana_fraction=0.2)
    vocab = train_bpe(
        vocab_training_text(records, lexicon),
        90,
        seed=0,
        speech_token_count=SPEECH_TOKEN_COUNT,
    )
    config = ToyLMConfig(
        vocab_size=vocab.total_size,
        speech_offset=vocab.speech_token_offset,
        speech_count=vocab.speech_token_count,
        layers=2,
        width=16,
        heads=2,
        ff_width=32,
        max_seq=128,
        seed=3,
    )
    model = ToyLM.init(config)
    examples = to_training_examples(records, vocab)
    return model, vocab, examples


# -- 1. adapter transparency at initialization --------------------------------


def test_criterion_1_zero_init_transparency(tiny_setup):
    model, _, _ = tiny_setup
    adapter = init_adapter(
        model.shape_spec(), r=4, alpha=64.0, dropout_rate=0.05, seed=1
    )
    rng = np.random.default_rng(11)
    n_same = 0
    for _ in range(100):
        length = int(rng.integers(2, 40))
        ids = rng.integers(0, model.config.vocab_size, size=length)
        bare = model.forward(ids)
        adapted = model.forward(ids, adapter=adapter)
        n_same += int(np.array_equal(bare, adapted))
    _verdict(
        1,
        n_same == 100,
        f"fresh adapter left logits bitwise identical on {n_same}/100 prompts",
    )


# -- 2. base weights frozen during adapter training ----------------------------


def test_criterion_2_base_frozen_under_adapter_training(tiny_setup):
    model, _, examples = tiny_setup
    adapter = init_adapter(
        model.shape_spec(), r=2, alpha=16.0, dropout_rate=0.05, seed=4
    )
    before = {k: v.tobytes() for k, v in model.weights.items()}
    train_adapter(
        model,
        adapter,
        examples,
        TrainConfig(steps=100, learning_rate=1e-3, batch_size=4, seed=5),
    )
    unchanged = all(
        model.weights[k].tobytes() == before[k] for k in before
    ) and set(model.weights) == set(before)
    adapter_moved = any(float(np.abs(layer.C).max()) > 0 for layer in adapter.layers)
    _verdict(
        2,
        unchanged and adapter_moved,
        f"100 adapter steps: base bytes unchanged={unchanged}, "
        f"adapter factors moved={adapter_moved}",
    )


# -- 3. adapter parameter budget on the desk artifacts -------------------------


def test_criterion_3_parameter_budget(reference_run):
    model = ToyLM.load(reference_run.base_model)
    adapter = load_adapter(reference_run.adapter)
    count, ratio = trainable_param_count(adapter)
    _verdict(
        3,
        ratio < 0.005,
        f"trainable {count} / base {model.param_count()} = {ratio:.5f} < 0.005",
    )


# -- 4. adapter gradients match central differences ----------------------------


def test_criterion_4_gradient_check(tiny_setup):
    model, _, examples = tiny_setup
    adapter = init_adapter(
        model.shape_spec(), r=2, alpha=16.0, dropout_rate=0.0, seed=6
    )
    err_plain = gradient_check(
        model, adapter, examples[:4], n_samples=50, step=1e-4, seed=7
    )
    adapter_do = init_adapter(
        model.shape_spec(), r=2, alpha=16.0, dropout_rate=0.2, seed=6
    )
    err_dropout = gradient_check(
        model,
        adapter_do,
        examples[:4],
        n_samples=50,
        step=1e-4,
        seed=8,
        dropout_seed=9,
    )
    worst = max(err_plain, err_dropout)
    _verdict(
        4,
        worst <= 1e-4,
        f"max relative error {worst:.2e} <= 1e-4 "
        f"(plain {err_plain:.2e}, dropout {err_dropout:.2e})",
    )


# -- 5. reference run quality ---------------------------------------------------


def test_criterion_5_reference_run_quality(reference_run, desk_config):
    tagged = load_report(reference_run.reports["tagged"])
    kana = load_report(reference_run.reports["kana"])
    plain = load_report(reference_run.reports["plain"])
    gap = tagged.accent_rate - kana.accent_rate
    ok = (
        tagged.accent_rate >= desk_config["tagged_accent_min"]
        and kana.mean_cer <= desk_config["kana_cer_max"]
        and gap >= 0.2
        and plain.mean_cer > kana.mean_cer
        and reference_run.wall <= 600.0
    )
    _verdict(
        5,
        ok,
        f"tagged accent {tagged.accent_rate:.4f} >= "
        f"{desk_config['tagged_accent_min']}, kana CER {kana.mean_cer:.4f} <= "
        f"{desk_config['kana_cer_max']}, accent gap {gap:+.4f} >= 0.2, "
        f"plain CER {plain.mean_cer:.4f} > kana, "
        f"wall {reference_run.wall:.0f}s <= 600s",
    )


# -- 6. no tag leakage into untagged behavior ----------------------------------


def test_criterion_6_leakage_bounded(reference_run, desk_config):
    result = load_leakage(reference_run.leakage)
    halfwidth = (result.ci_high - result.ci_low) / 2.0
    ok = (
        result.ci_low <= 0.0 <= result.ci_high
        and halfwidth <= desk_config["leakage_halfwidth_max"]
    )
    _verdict(
        6,
        ok,
        f"difference {result.difference:+.4f}, CI [{result.ci_low:+.4f}, "
        f"{result.ci_high:+.4f}] contains 0, half-width {halfwidth:.4f} <= "
        f"{desk_config['leakage_halfwidth_max']}",
    )


# -- 7. the two distance routes agree ------------------------------------------


def test_criterion_7_distance_dual_route():
    started = time.perf_counter()
    padded, lengths = enumerate_strings(4, 6)
    dp_started = time.perf_counter()
    dp = edit_distance_matrix(padded, lengths)
    dp_s = time.perf_counter() - dp_started
    indptr, indices, n_nodes = edit_move_graph(4, 6)
    bfs_started = time.perf_counter()
    bfs = bfs_distance_matrix(indptr, indices, n_nodes)
    bfs_s = time.perf_counter() - bfs_started
    matrices_equal = bool(np.array_equal(dp, bfs))

    rng = np.random.default_rng(21)
    sample = rng.integers(0, n_nodes, size=400)
    spot_ok = True
    for idx in sample:
        i, j = int(idx), int((idx * 131 + 7) % n_nodes)
        a = [int(v) for v in padded[i, : lengths[i]]]
        b = [int(v) for v in padded[j, : lengths[j]]]
        direct = edit_distance(a, b)
        spot_ok = spot_ok and direct == int(dp[i, j])
        if lengths[i] > 0:
            ref = "".join(MORA_INVENTORY[v][0] for v in a)
            hyp = "".join(MORA_INVENTORY[v][0] for v in b)
            spot_ok = spot_ok and abs(
                cer(ref, hyp) - direct / lengths[i]
            ) < 1e-12
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        matrices_equal and spot_ok and elapsed < 60.0,
        f"DP == BFS over {n_nodes}x{n_nodes} pairs: {matrices_equal}, "
        f"400 spot checks vs edit_distance/cer: {spot_ok}, "
        f"{elapsed:.1f}s < 60s (DP {dp_s:.2f}s, BFS {bfs_s:.2f}s) on backend "
        f"{active_backend()!r}",
    )


# -- 8. annotation round trip ----------------------------------------------------


def test_criterion_8_notation_round_trip():
    rng = np.random.default_rng(31)
    failures = 0
    for _ in range(10_000):
        phrases = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 6))
            morae = tuple(
                Mora(MORA_INVENTORY[int(rng.integers(0, len(MORA_INVENTORY)))])
                for _ in range(n)
            )
            nucleus = None
            if rng.random() < 0.5:
                nucleus = int(rng.integers(1, n + 1))
            phrases.append(AccentPhrase(morae=morae, nucleus=nucleus))
        annotation = PhonemeAnnotation(phrases=tuple(phrases))
        text = render_annotation(annotation)
        reparsed = parse_annotation(text)
        if reparsed != annotation or render_annotation(reparsed) != text:
            failures += 1

    errors_ok = True
    for bad, expected in (
        ("ア'メ'", MultipleNuclei),
        ("アア''", MisplacedNucleusMark),
        ("", EmptyPhrase),
        ("ア//メ", EmptyPhrase),
        ("アxメ", UnsupportedCharacter),
        ("'アメ", MisplacedNucleusMark),
    ):
        try:
            parse_annotation(bad)
        except expected:
            continue
        except Exception:
            errors_ok = False
        else:
            errors_ok = False
    _verdict(
        8,
        failures == 0 and errors_ok,
        f"10000 random annotations round-tripped with {failures} failures; "
        f"malformed inputs raise their typed errors: {errors_ok}",
    )


# -- 9. manifest-driven reproducibility ----------------------------------------


def _replay(reference_run, root: Path) -> tuple[dict, float]:
    """Re-run every stage from its recorded config snapshot."""
    started = time.perf_counter()

    def snapshot(stage_dir: Path, name: str) -> str:
        manifest = load_manifest(stage_dir / "manifest.txt")
        cfg_path = root / f"{name}.cfg"
        cfg_path.write_text(manifest_config_text(manifest), encoding="utf-8")
        return str(cfg_path)

    dirs = {name: root / name for name in (
        "corpus_pretrain", "corpus_adapter", "vocab", "train",
        "eval_tagged", "eval_kana", "eval_plain",
    )}
    ref_dirs = reference_run.stage_dirs

    rc = cli.main(["--config", snapshot(ref_dirs["corpus_pretrain"], "c1"),
                   "corpus", "build", "--out", str(dirs["corpus_pretrain"])])
    assert rc == 0
    rc = cli.main(["--config", snapshot(ref_dirs["corpus_adapter"], "c2"),
                   "corpus", "build", "--out", str(dirs["corpus_adapter"])])
    assert rc == 0
    rc = cli.main(["--config", snapshot(ref_dirs["vocab"], "vocab"),
                   "vocab", "train",
                   "--corpus", str(dirs["corpus_pretrain"] / "corpus.tsv"),
                   "--out", str(dirs["vocab"])])
    assert rc == 0
    rc = cli.main(["--config", snapshot(ref_dirs["train"], "train"),
                   "train",
                   "--corpus", str(dirs["corpus_pretrain"] / "corpus.tsv"),
                   "--adapter-corpus",
                   str(dirs["corpus_adapter"] / "corpus.tsv"),
                   "--vocab", str(dirs["vocab"] / "vocab.txt"),
                   "--out", str(dirs["train"])])
    assert rc == 0
    for mode in EVAL_MODES:
        manifest = load_manifest(
            reference_run.eval_dirs[mode] / "manifest.txt"
        )
        argv = ["--config", snapshot(reference_run.eval_dirs[mode],
                                     f"eval_{mode}"),
                "eval",
                "--model", str(dirs["train"] / "base_model.ut"),
                "--vocab", str(dirs["vocab"] / "vocab.txt"),
                "--adapter", str(dirs["train"] / "adapter.ut"),
                "--out", str(dirs[f"eval_{mode}"])]
        if "leakage" in manifest.outputs:
            argv.append("--leakage")
        rc = cli.main(argv)
        assert rc in (0, 4)
    return dirs, time.perf_counter() - started


def test_criterion_9_manifest_reproducibility(
    reference_run, tmp_path_factory
):
    root = tmp_path_factory.mktemp("replay")
    dirs, wall_b = _replay(reference_run, root)

    pairs = [
        (reference_run.corpus_pretrain,
         dirs["corpus_pretrain"] / "corpus.tsv"),
        (reference_run.corpus_adapter, dirs["corpus_adapter"] / "corpus.tsv"),
        (reference_run.vocab, dirs["vocab"] / "vocab.txt"),
        (reference_run.base_model, dirs["train"] / "base_model.ut"),
        (reference_run.adapter, dirs["train"] / "adapter.ut"),
        (reference_run.leakage, dirs["eval_tagged"] / "leakage.tsv"),
    ]
    for mode in EVAL_MODES:
        pairs.append(
            (reference_run.reports[mode],
             dirs[f"eval_{mode}"] / f"report_{mode}.tsv")
        )
    mismatched = [
        str(a.name) for a, b in pairs if a.read_bytes() != b.read_bytes()
    ]
    within_time = wall_b <= 2.0 * reference_run.wall
    _verdict(
        9,
        not mismatched and within_time,
        f"{len(pairs)} artifacts byte-identical "
        f"(mismatched: {mismatched or 'none'}); replay {wall_b:.0f}s <= "
        f"2x reference {reference_run.wall:.0f}s",
    )
