"""End-to-end tests for the command-line interface and run manifests."""

import argparse
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uttertune
import uttertune.cli
import uttertune.eval
from uttertune.cli import main
from uttertune.errors import CorruptFile
from uttertune.dataprep import (
    build_eval_sets,
    build_lexicon,
    load_corpus,
    save_corpus,
    to_training_examples,
)
from uttertune.eval import evaluate_set, load_report, save_report
from uttertune.lora import _ADAPTER_KEYS, _ADAPTER_MAGIC, load_adapter
from uttertune.manifest import (
    COMMAND_DEFAULTS,
    CONFIG_KEYS,
    RunManifest,
    check_value,
    load_manifest,
    manifest_config_text,
    parse_config_file,
    parse_value,
    resolve_config,
    save_manifest,
)
from uttertune.model import _MODEL_KEYS, _MODEL_MAGIC, ToyLM
from uttertune.tensorio import load_tensors, save_tensors
from uttertune.tokenizer import (
    PHON_END,
    PHON_START,
    encode_text,
    load_vocab,
    save_vocab,
)

# -- notation subcommands ---------------------------------------------------


def test_pitch_spec_example(capsys):
    assert main(["notation", "pitch", "チ'ミ/モーリョー"]) == 0
    assert capsys.readouterr().out == "HL LHHH\n"


def test_parse_rejects_double_nucleus(capsys):
    rc = main(["notation", "parse", "ア'イ'ウ"])
    assert rc == 1
    assert "MultipleNuclei" in capsys.readouterr().err


def test_parse_structure(capsys):
    assert main(["notation", "parse", "チ'ミ/モーリョー"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "phrase チ ミ nucleus 1",
        "phrase モ ー リョ ー nucleus 0",
    ]


def test_render_inverts_parse(capsys, monkeypatch):
    assert main(["notation", "parse", "チ'ミ/モーリョー"]) == 0
    parsed = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(parsed))
    assert main(["notation", "render"]) == 0
    assert capsys.readouterr().out == "チ'ミ/モーリョー\n"


def test_render_rejects_garbage(capsys):
    assert main(["notation", "render", "not a phrase line"]) == 1
    assert main(["notation", "render", "phrase チ nucleus two"]) == 1
    # a nucleus outside 1..n, and a token that is not one mora
    assert main(["notation", "render", "phrase ア イ nucleus 5"]) == 1
    assert main(["notation", "render", "phrase ア イ nucleus -1"]) == 1
    assert main(["notation", "render", "phrase アイ nucleus 0"]) == 1
    assert capsys.readouterr().out == ""


def test_morae_output(capsys):
    assert main(["notation", "morae", "チ'ミ/モーリョー"]) == 0
    assert capsys.readouterr().out == "チ ミ / モ ー リョ ー\n"


def test_notation_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("ア'メ\n"))
    assert main(["notation", "pitch"]) == 0
    assert capsys.readouterr().out == "HL\n"


# -- usage and config errors --------------------------------------------------


def test_missing_command_is_usage_error():
    assert main([]) == 1
    assert main(["corpus"]) == 1
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["vocab", "train", "--corpus", "x"]) == 1  # no --out


def test_missing_input_file_is_data_error(tmp_path):
    rc = main([
        "vocab", "train", "--corpus", str(tmp_path / "absent.tsv"),
        "--out", str(tmp_path / "v"),
    ])
    assert rc == 2


def test_bad_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 3\n", encoding="utf-8")
    rc = main([
        "corpus", "build", "--config", str(cfg),
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 2
    assert "nonsense" in capsys.readouterr().err


def test_bad_config_value_is_data_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sentences = many\n", encoding="utf-8")
    rc = main([
        "corpus", "build", "--config", str(cfg),
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 2


def test_global_config_matches_subcommand_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("sentences = 30\ntag_fraction = 0.5\nseed = 4\n",
                   encoding="utf-8")
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["--config", str(cfg), "corpus", "build",
                 "--out", str(before)]) == 0
    assert main(["corpus", "build", "--config", str(cfg),
                 "--out", str(after)]) == 0
    assert (before / "corpus.tsv").read_bytes() == (
        after / "corpus.tsv"
    ).read_bytes()
    config = load_manifest(before / "manifest.txt").config
    assert config
    assert config == load_manifest(after / "manifest.txt").config
    assert config["sentences"] == 30


def test_subcommand_config_wins_over_global(tmp_path):
    outer = tmp_path / "outer.cfg"
    outer.write_text("sentences = 30\n", encoding="utf-8")
    inner = tmp_path / "inner.cfg"
    inner.write_text("sentences = 12\n", encoding="utf-8")
    out = tmp_path / "c"
    assert main(["--config", str(outer), "corpus", "build",
                 "--config", str(inner), "--out", str(out)]) == 0
    assert load_manifest(out / "manifest.txt").config["sentences"] == 12


def test_missing_global_config_is_data_error(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "absent.cfg"), "corpus", "build",
               "--out", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "absent.cfg" in err


@pytest.mark.parametrize("name", ["a\tb", "a\nb"], ids=["tab", "newline"])
def test_path_flag_with_tab_or_newline_is_usage_error(tmp_path, capsys, name):
    """Manifests record paths as table fields, so a path that would break
    the table is refused before anything is written."""
    rc = main(["corpus", "build", "--sentences", "3",
               "--out", str(tmp_path / name)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "--out" in err
    assert not any(tmp_path.iterdir())


def test_impossible_fractions_are_data_errors(tmp_path):
    rc = main([
        "corpus", "build", "--tag-fraction", "0.9", "--kana-fraction", "0.9",
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 2


# -- manifest / config plumbing ------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        command="corpus build",
        version="0.1.0",
        config={"sentences": 10, "tag_fraction": 0.5, "scaling": "literal"},
        inputs={"corpus": "/tmp/in.tsv"},
        outputs={"out": "/tmp/out dir/corpus.tsv"},
        timings={"total": 1.25},
    )
    path = tmp_path / "manifest.txt"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_manifest_rejects_foreign_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("something else\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        load_manifest(path)


@pytest.mark.parametrize("old, new", [
    ("1.250", "fast"),
    ("12345", "x"),
    ("timing", "metric"),
    ("sentences", "nonsense"),
], ids=["timing-value", "config-value", "section", "config-key"])
def test_manifest_load_rejects_bad_entry(tmp_path, old, new):
    path = tmp_path / "manifest.txt"
    save_manifest(RunManifest("corpus build", "0.1.0", {"sentences": 12345},
                              timings={"total": 1.25}), path)
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(CorruptFile, match=str(path)):
        load_manifest(path)


@pytest.mark.parametrize("section, name, value", [
    ("config", "width", "999"),
    ("input", "corpus", "/tmp/other.tsv"),
    ("output", "model", "/tmp/other.ut"),
    ("timing", "total", "9.000"),
])
def test_manifest_load_rejects_name_stated_twice(tmp_path, section, name,
                                                 value):
    """A repeated name within a section is refused, not read as its last
    value."""
    path = tmp_path / "manifest.txt"
    save_manifest(RunManifest("train", "0.1.0", {"width": 64},
                              {"corpus": "/tmp/c.tsv"},
                              {"model": "/tmp/m.ut"}, {"total": 1.25}), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"row\t{section}\t{name}\t{value}\n")
    with pytest.raises(CorruptFile, match=f"^{path}: duplicate {section} "
                                          f"name '{name}'$"):
        load_manifest(path)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# comment\n\nsentences = 25   # trailing comment\nalpha = 2.5\n",
        encoding="utf-8",
    )
    assert parse_config_file(cfg) == {"sentences": 25, "alpha": 2.5}
    cfg.write_text("sentences = 1\nsentences = 2\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        parse_config_file(cfg)
    cfg.write_text("sentences 1\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        parse_config_file(cfg)


# The config schema written out by hand: the reference that the types
# derived from the per-command defaults must equal.
_REFERENCE_CONFIG_KEYS = {
    # corpus build
    "sentences": int,
    "tag_fraction": float,
    "kana_fraction": float,
    "seed": int,
    # vocab train
    "vocab_size": int,
    # model shape
    "width": int,
    "layers": int,
    "heads": int,
    "ff_width": int,
    "max_seq": int,
    "model_seed": int,
    # base-model pretraining
    "pretrain_steps": int,
    "pretrain_lr": float,
    "pretrain_batch": int,
    "pretrain_seed": int,
    "warmup_fraction": float,
    # adapter training
    "steps": int,
    "learning_rate": float,
    "batch_size": int,
    "rank": int,
    "alpha": float,
    "dropout": float,
    "scaling": str,
    # generation
    "max_new": int,
    # evaluation
    "mode": str,
    "n_test_1": int,
    "n_test_2": int,
    "n_leakage": int,
    "resamples": int,
    "tagged_accent_min": float,
    "kana_cer_max": float,
    "leakage_halfwidth_max": float,
}


def test_config_keys_derived_from_defaults():
    assert CONFIG_KEYS == _REFERENCE_CONFIG_KEYS
    assert set(COMMAND_DEFAULTS) == {
        "corpus build", "vocab train", "train", "generate", "eval",
    }


def test_shared_config_key_has_one_type():
    """A key that several commands read (seed, max_new) has the same type
    in each command's defaults."""
    types: dict[str, set] = {}
    for defaults in COMMAND_DEFAULTS.values():
        for key, value in defaults.items():
            types.setdefault(key, set()).add(type(value))
    shared = {k for k in types
              if sum(k in d for d in COMMAND_DEFAULTS.values()) > 1}
    assert {"seed", "max_new"} <= shared
    assert all(len(t) == 1 for t in types.values())


# Each command's config flags; every other option is a path flag, --text,
# --leakage, --config or --help.
_CONFIG_FLAGS = {
    "corpus build": {"sentences", "tag_fraction", "kana_fraction", "seed"},
    "vocab train": {"vocab_size", "seed"},
    "train": {"seed", "steps", "rank", "alpha", "dropout", "scaling"},
    "generate": {"max_new"},
    "eval": {"mode", "seed", "max_new"},
}
_OTHER_DESTS = {"out", "corpus", "adapter_corpus", "model", "vocab",
                "adapter", "text", "leakage", "config", "help"}


def _leaf_parsers(parser, words=()):
    """(command, parser) for each subcommand that takes no further one."""
    groups = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(words), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_parsers(sub, words + (name,))


def test_config_flags_are_built_from_the_schema():
    """Every option of every subcommand other than a path flag, --text,
    --leakage or --config sets a config key of its command: its name is
    the key with dashes, and its type parses and checks text exactly as
    the schema does, so a bad value is refused with the schema's message."""
    found = {}
    for command, parser in _leaf_parsers(uttertune.cli.build_parser()):
        for action in parser._actions:
            key = action.dest
            if not action.option_strings or key in _OTHER_DESTS:
                continue
            found.setdefault(command, set()).add(key)
            assert key in COMMAND_DEFAULTS[command], (command, key)
            assert action.option_strings == ["--" + key.replace("_", "-")]
            assert action.choices is None and action.default is None
            for text in ("x", "-1", "0", "2", "0.5", "nan", "plain", "literal"):
                try:
                    expected = parse_value(key, text)
                    check_value(key, expected)
                except ValueError as exc:
                    with pytest.raises(argparse.ArgumentTypeError) as refused:
                        action.type(text)
                    assert str(refused.value) == str(exc)
                else:
                    value = action.type(text)
                    assert type(value) is CONFIG_KEYS[key]
                    assert value == expected or value != value  # nan
    assert found == _CONFIG_FLAGS


def test_config_precedence():
    resolved = resolve_config(
        {"seed": 0, "steps": 100},
        {"seed": 5, "steps": 7},
        {"seed": 9, "steps": None},
    )
    assert resolved == {"seed": 9, "steps": 7}


# -- tiny end-to-end pipeline ----------------------------------------------------

_TINY_CFG = """
sentences = 120
kana_fraction = 0.25
vocab_size = 120
width = 16
layers = 1
heads = 2
ff_width = 32
max_seq = 96
pretrain_steps = 8
pretrain_lr = 0.001
pretrain_batch = 4
steps = 6
learning_rate = 0.001
batch_size = 4
rank = 2
alpha = 4
dropout = 0.0
n_test_1 = 6
n_test_2 = 12
n_leakage = 8
max_new = 24
resamples = 400
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    cfg = root / "tiny.cfg"
    cfg.write_text(_TINY_CFG, encoding="utf-8")
    c = str(cfg)

    assert main(["corpus", "build", "--config", c, "--seed", "0",
                 "--out", str(root / "c1")]) == 0
    assert main(["corpus", "build", "--config", c, "--tag-fraction", "0.8",
                 "--kana-fraction", "0.0", "--seed", "1",
                 "--out", str(root / "c2")]) == 0
    corpus1 = str(root / "c1" / "corpus.tsv")
    corpus2 = str(root / "c2" / "corpus.tsv")
    assert main(["vocab", "train", "--config", c, "--corpus", corpus1,
                 "--out", str(root / "v")]) == 0
    vocab = str(root / "v" / "vocab.txt")
    assert main(["train", "--config", c, "--corpus", corpus1,
                 "--adapter-corpus", corpus2, "--vocab", vocab,
                 "--out", str(root / "t")]) == 0
    model = str(root / "t" / "base_model.ut")
    adapter = str(root / "t" / "adapter.ut")
    assert main(["eval", "--config", c, "--model", model, "--vocab", vocab,
                 "--adapter", adapter, "--mode", "plain",
                 "--out", str(root / "e")]) == 0
    return {
        "root": root,
        "cfg": cfg,
        "corpus1": corpus1,
        "corpus2": corpus2,
        "vocab": vocab,
        "model": model,
        "adapter": adapter,
    }


def test_pipeline_artifacts_and_manifests(pipeline):
    root = pipeline["root"]
    for rel, command in (
        ("c1", "corpus build"),
        ("c2", "corpus build"),
        ("v", "vocab train"),
        ("t", "train"),
        ("e", "eval"),
    ):
        manifest = load_manifest(root / rel / "manifest.txt")
        assert manifest.command == command
        assert manifest.version
        for path in manifest.outputs.values():
            assert Path(path).exists()
    assert (root / "t" / "pretrain_curve.tsv").exists()
    assert (root / "t" / "adapter_curve.tsv").exists()
    report = load_report(root / "e" / "report_plain.tsv")
    assert report.mode == "plain"
    assert report.n_items == 12


def test_corpus_reproducible_from_manifest_alone(pipeline, tmp_path):
    manifest = load_manifest(pipeline["root"] / "c1" / "manifest.txt")
    snapshot = tmp_path / "replay.cfg"
    snapshot.write_text(manifest_config_text(manifest), encoding="utf-8")
    assert main(["corpus", "build", "--config", str(snapshot),
                 "--out", str(tmp_path / "replay")]) == 0
    original = open(pipeline["corpus1"], "rb").read()
    assert (tmp_path / "replay" / "corpus.tsv").read_bytes() == original


def test_train_reproducible_from_manifest_alone(pipeline, tmp_path):
    manifest = load_manifest(pipeline["root"] / "t" / "manifest.txt")
    snapshot = tmp_path / "replay.cfg"
    snapshot.write_text(manifest_config_text(manifest), encoding="utf-8")
    assert main(["train", "--config", str(snapshot),
                 "--corpus", manifest.inputs["corpus"],
                 "--adapter-corpus", manifest.inputs["adapter_corpus"],
                 "--vocab", manifest.inputs["vocab"],
                 "--out", str(tmp_path / "replay")]) == 0
    for name in ("base_model.ut", "adapter.ut"):
        original = (pipeline["root"] / "t" / name).read_bytes()
        assert (tmp_path / "replay" / name).read_bytes() == original


def test_train_twice_is_byte_identical(pipeline, tmp_path):
    args = ["train", "--config", str(pipeline["cfg"]),
            "--corpus", pipeline["corpus1"],
            "--adapter-corpus", pipeline["corpus2"],
            "--vocab", pipeline["vocab"],
            "--steps", "10", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("base_model.ut", "adapter.ut"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_no_command_mutates_its_inputs(pipeline, tmp_path):
    before = {
        name: open(pipeline[name], "rb").read()
        for name in ("corpus1", "corpus2", "vocab", "model", "adapter")
    }
    assert main(["eval", "--config", str(pipeline["cfg"]),
                 "--model", pipeline["model"], "--vocab", pipeline["vocab"],
                 "--adapter", pipeline["adapter"], "--mode", "kana",
                 "--out", str(tmp_path / "e2")]) == 0
    assert main(["adapter", "merge", "--model", pipeline["model"],
                 "--adapter", pipeline["adapter"],
                 "--out", str(tmp_path / "m")]) == 0
    for name, blob in before.items():
        assert open(pipeline[name], "rb").read() == blob


def test_generate_prints_kana_pitch_ids(pipeline, capsys):
    assert main(["generate", "--model", pipeline["model"],
                 "--vocab", pipeline["vocab"], "--text", "駅"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    kana, pitch, ids = out
    assert set(pitch) <= {"H", "L"}
    id_list = [int(t) for t in ids.split()] if ids else []
    assert len(id_list) == len(pitch)


def _text_of_ids(vocab_path, n):
    """Plain text that encode_text turns into exactly n ids."""
    vocab = load_vocab(vocab_path)
    for k in range(1, 2 * n + 1):
        if len(encode_text("駅" * k, vocab)) == n:
            return "駅" * k
    raise AssertionError(f"no run of 駅 encodes to {n} ids")


def test_generate_takes_a_prompt_one_short_of_max_seq(pipeline, capsys):
    """The pipeline model's max_seq is 96."""
    text = _text_of_ids(pipeline["vocab"], 95)
    assert main(["generate", "--model", pipeline["model"],
                 "--vocab", pipeline["vocab"], "--text", text]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_generate_refuses_a_prompt_of_max_seq_ids(pipeline, tmp_path, capsys):
    """The library's generate returns no ids for such a prompt; the command
    refuses it as a numeric error."""
    out = tmp_path / "g"
    text = _text_of_ids(pipeline["vocab"], 96)
    assert main(["generate", "--model", pipeline["model"],
                 "--vocab", pipeline["vocab"], "--text", text,
                 "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "SequenceTooLong: prompt occupies 96 of 96 positions\n"
    assert not out.exists()


def test_generate_writes_artifact_and_manifest(pipeline, tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["generate", "--model", pipeline["model"],
                 "--vocab", pipeline["vocab"],
                 "--adapter", pipeline["adapter"],
                 "--text", "駅", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "generation.tsv").exists()
    manifest = load_manifest(out / "manifest.txt")
    assert manifest.command == "generate"
    assert set(manifest.config) == {"max_new"}
    assert "adapter" in manifest.inputs


def test_eval_threshold_gate(pipeline, tmp_path, capsys):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(_TINY_CFG + "tagged_accent_min = 0.99\n", encoding="utf-8")
    rc = main(["eval", "--config", str(cfg), "--model", pipeline["model"],
               "--vocab", pipeline["vocab"], "--adapter", pipeline["adapter"],
               "--mode", "tagged", "--out", str(tmp_path / "e")])
    assert rc == 4
    assert "threshold unmet" in capsys.readouterr().err
    # the report is still written for inspection
    assert (tmp_path / "e" / "report_tagged.tsv").exists()


def test_kana_threshold_unmet_when_every_item_excluded(pipeline, tmp_path,
                                                       capsys, monkeypatch):
    """With no kept item the mean CER is undefined, so kana_cer_max fails."""
    monkeypatch.setattr(uttertune.eval, "CER_EXCLUSION_THRESHOLD", -1.0)
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(_TINY_CFG + "kana_cer_max = 0.01\n", encoding="utf-8")
    rc = main(["eval", "--config", str(cfg), "--model", pipeline["model"],
               "--vocab", pipeline["vocab"], "--mode", "kana",
               "--out", str(tmp_path / "e")])
    assert rc == 4
    assert "all 12 items excluded" in capsys.readouterr().err
    report = load_report(tmp_path / "e" / "report_kana.tsv")
    assert report.n_excluded == report.n_items == 12
    assert report.mean_cer == 0.0


@pytest.mark.parametrize("source, setting, code", [
    pytest.param("flag", "--decode sampled", 1, id="flag-decode"),
    pytest.param("flag", "--temperature 0.5", 1, id="flag-temperature"),
    pytest.param("flag", "--seed 3", 1, id="flag-seed"),
    pytest.param("config", "temperature = 0.5", 2, id="config-temperature"),
    pytest.param("config", "decode = greedy", 2, id="config-decode"),
])
def test_generate_refuses_removed_sampling_surface(pipeline, tmp_path, capsys,
                                                   source, setting, code):
    """generate decodes greedily only: the sampling flags are unknown
    arguments and the sampling keys unknown config keys."""
    out = tmp_path / "g"
    argv = ["generate", "--model", pipeline["model"],
            "--vocab", pipeline["vocab"], "--text", "駅", "--out", str(out)]
    if source == "flag":
        argv += setting.split()
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == code
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert setting.split()[0] in err
    assert not out.exists()


def test_eval_leakage_artifact(pipeline, tmp_path, capsys):
    rc = main(["eval", "--config", str(pipeline["cfg"]),
               "--model", pipeline["model"], "--vocab", pipeline["vocab"],
               "--adapter", pipeline["adapter"], "--mode", "plain",
               "--leakage", "--out", str(tmp_path / "e")])
    assert rc == 0
    assert "leakage" in capsys.readouterr().out
    text = (tmp_path / "e" / "leakage.tsv").read_text(encoding="utf-8")
    assert text.startswith("uttertune-leakage v1\n")
    assert sum(1 for line in text.splitlines() if line.startswith("row\t")) == 8


def test_eval_draws_leakage_set_only_with_leakage(pipeline, tmp_path,
                                                 monkeypatch):
    """Without --leakage eval draws no leakage set; the scored test set 2,
    and so the report, is the one the full draw gives."""
    seen = []

    def spy(lexicon, **kwargs):
        seen.append(kwargs)
        return build_eval_sets(lexicon, **kwargs)

    monkeypatch.setattr(uttertune.cli, "build_eval_sets", spy)
    common = ["eval", "--config", str(pipeline["cfg"]),
              "--model", pipeline["model"], "--vocab", pipeline["vocab"]]
    assert main(common + ["--mode", "kana", "--out", str(tmp_path / "k")]) == 0
    assert main(common + ["--adapter", pipeline["adapter"], "--mode", "plain",
                          "--leakage", "--out", str(tmp_path / "l")]) == 0
    assert [kwargs["n_leakage"] for kwargs in seen] == [0, 8]
    config = load_manifest(tmp_path / "k" / "manifest.txt").config
    assert config["n_leakage"] == 8

    full = build_eval_sets(build_lexicon(), seed=config["seed"],
                           n_test_1=config["n_test_1"],
                           n_test_2=config["n_test_2"],
                           n_leakage=config["n_leakage"])
    report = evaluate_set(ToyLM.load(pipeline["model"]),
                          load_vocab(pipeline["vocab"]), full.test_set_2,
                          "kana", max_new=config["max_new"])
    save_report(report, tmp_path / "report_kana.tsv")
    assert ((tmp_path / "report_kana.tsv").read_bytes()
            == (tmp_path / "k" / "report_kana.tsv").read_bytes())


def test_eval_leakage_requires_adapter(pipeline, tmp_path):
    rc = main(["eval", "--model", pipeline["model"],
               "--vocab", pipeline["vocab"], "--leakage",
               "--out", str(tmp_path / "e")])
    assert rc == 1


def test_adapter_merge_bakes_weights(pipeline, tmp_path):
    out = tmp_path / "m"
    assert main(["adapter", "merge", "--model", pipeline["model"],
                 "--adapter", pipeline["adapter"], "--out", str(out)]) == 0
    base = ToyLM.load(pipeline["model"])
    adapter = load_adapter(pipeline["adapter"])
    merged = ToyLM.load(out / "merged_model.ut")
    layer = adapter.layers[0]
    assert layer.target == "L0.q"
    expected = (
        base.weights["L0.q"].astype(np.float64)
        + adapter.scale()
        * (layer.B.astype(np.float64) @ layer.C.astype(np.float64))
    ).astype(np.float32)
    assert np.array_equal(merged.weights["L0.q"], expected)
    start_id = base.config.tag_ids[0]
    expected_row = (
        base.weights["embed"][start_id].astype(np.float64)
        + adapter.tag_deltas[0].astype(np.float64)
    ).astype(np.float32)
    assert np.array_equal(merged.weights["embed"][start_id], expected_row)


def test_adapter_info_lists_hyperparameters(pipeline, capsys):
    assert main(["adapter", "info", "--adapter", pipeline["adapter"]]) == 0
    out = capsys.readouterr().out
    assert "r=2" in out
    assert "alpha=4" in out
    assert "trainable_ratio=" in out


@pytest.fixture(scope="module")
def default_hyperparameter_run(pipeline, tmp_path_factory):
    """Adapter trained without rank/alpha/dropout overrides."""
    root = tmp_path_factory.mktemp("cli_defaults")
    cfg = root / "defaults.cfg"
    cfg.write_text(
        "\n".join(
            line
            for line in _TINY_CFG.strip().splitlines()
            if not line.startswith(("rank", "alpha", "dropout", "steps",
                                    "pretrain_steps"))
        )
        + "\npretrain_steps = 2\nsteps = 2\n",
        encoding="utf-8",
    )
    assert main(["train", "--config", str(cfg),
                 "--corpus", pipeline["corpus1"],
                 "--adapter-corpus", pipeline["corpus2"],
                 "--vocab", pipeline["vocab"],
                 "--out", str(root / "t")]) == 0
    return root / "t"


def test_adapter_info_default_hyperparameters(default_hyperparameter_run,
                                              capsys):
    adapter = str(default_hyperparameter_run / "adapter.ut")
    assert main(["adapter", "info", "--adapter", adapter]) == 0
    out = capsys.readouterr().out
    assert "r=16" in out
    assert "alpha=64" in out
    assert "dropout=0.05" in out


def test_adapter_merge_rejects_foreign_base(pipeline,
                                            default_hyperparameter_run,
                                            tmp_path, capsys):
    rc = main(["adapter", "merge",
               "--model", str(default_hyperparameter_run / "base_model.ut"),
               "--adapter", pipeline["adapter"],
               "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "fingerprint" in capsys.readouterr().err


def test_eval_rejects_mismatched_adapter(pipeline, default_hyperparameter_run,
                                         tmp_path):
    rc = main(["eval", "--config", str(pipeline["cfg"]),
               "--model", str(default_hyperparameter_run / "base_model.ut"),
               "--vocab", pipeline["vocab"],
               "--adapter", pipeline["adapter"], "--mode", "plain",
               "--out", str(tmp_path / "e")])
    assert rc == 2


def _model_argv(command, pipeline, out, **given):
    """generate or eval on the tiny pipeline's model and vocabulary, with
    the files given in place of them or as the adapter."""
    files = {"model": pipeline["model"], "vocab": pipeline["vocab"], **given}
    argv = [command] + [x for slot, path in files.items()
                        for x in (f"--{slot}", str(path))]
    extra = ["--text", "駅"] if command == "generate" else ["--mode", "plain"]
    return argv + extra + ["--out", str(out)]


# Each tensor file's first line and header keys, by the flag it is given to.
_TENSOR_FILES = {"model": (_MODEL_MAGIC, _MODEL_KEYS),
                 "adapter": (_ADAPTER_MAGIC, _ADAPTER_KEYS)}


def _load_tensor_file(slot, path):
    """(header, tensors) of the model or adapter file at path."""
    return load_tensors(path, *_TENSOR_FILES[slot])


def _save_tensor_file(slot, path, header, tensors):
    save_tensors(path, _TENSOR_FILES[slot][0], header, tensors)


def _assert_one_line_shape_error(capsys, out, *named):
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("ShapeMismatch: "), err
    assert all(name in err for name in named), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "eval"])
@pytest.mark.parametrize("name, cut", [
    pytest.param("embed", np.s_[:10], id="embed-10-rows"),
    pytest.param("L0.ff1", np.s_[:, :5], id="ff1-5-columns"),
])
def test_model_tensor_of_wrong_shape_is_one_line_data_error(
        pipeline, tmp_path, capsys, command, name, cut):
    header, tensors = _load_tensor_file("model", pipeline["model"])
    expected = tensors[name].shape
    tensors[name] = tensors[name][cut]
    model = tmp_path / "cut_model.ut"
    _save_tensor_file("model", model, header, tensors)
    out = tmp_path / "o"
    assert main(_model_argv(command, pipeline, out, model=model)) == 2
    _assert_one_line_shape_error(
        capsys, out, name, f"expected shape {expected}",
        f"found {tensors[name].shape}",
    )


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_adapter_factor_of_wrong_shape_is_one_line_data_error(
        pipeline, tmp_path, capsys, command):
    header, tensors = _load_tensor_file("adapter", pipeline["adapter"])
    tensors["L0.q.B"] = tensors["L0.q.B"][:8]
    adapter = tmp_path / "cut_adapter.ut"
    _save_tensor_file("adapter", adapter, header, tensors)
    out = tmp_path / "o"
    assert main(_model_argv(command, pipeline, out, adapter=adapter)) == 2
    _assert_one_line_shape_error(capsys, out, "L0.q", "(8, 2)")


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_vocabulary_of_another_size_is_one_line_data_error(
        pipeline, tmp_path, capsys, command):
    vocab = load_vocab(pipeline["vocab"])
    assert len(vocab.merges) >= 3
    other = tmp_path / "vocab.txt"
    save_vocab(dataclasses.replace(vocab, merges=vocab.merges[:-3]), other)
    out = tmp_path / "o"
    assert main(_model_argv(command, pipeline, out, vocab=other)) == 2
    _assert_one_line_shape_error(capsys, out, str(other))


def test_wrong_artifact_kind_is_one_line_data_error(pipeline, tmp_path,
                                                    capsys):
    files = {
        "model": pipeline["model"],
        "adapter": pipeline["adapter"],
        "vocab": pipeline["vocab"],
        "corpus": pipeline["corpus1"],
        "report": str(pipeline["root"] / "e" / "report_plain.tsv"),
        "manifest": str(pipeline["root"] / "t" / "manifest.txt"),
    }
    out = ["--out", str(tmp_path / "out")]
    all_slots = {"--model": "model", "--vocab": "vocab", "--adapter": "adapter"}
    commands = [
        (["generate", "--text", "駅"], all_slots),
        (["eval", "--mode", "plain"] + out, all_slots),
        (["adapter", "merge"] + out,
         {"--model": "model", "--adapter": "adapter"}),
        (["adapter", "info"], {"--adapter": "adapter"}),
    ]
    for head, slots in commands:
        for flag, right in slots.items():
            for kind, path in files.items():
                if kind == right:
                    continue
                given = {f: files[k] for f, k in slots.items()}
                given[flag] = path
                argv = head + [x for pair in given.items() for x in pair]
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc == 2, (argv, err)
                assert len(err.splitlines()) == 1, (argv, err)


def test_container_without_its_fields_is_one_line_data_error(pipeline,
                                                             tmp_path, capsys):
    for slot, argv in (
        ("model", ["generate", "--text", "駅", "--vocab", pipeline["vocab"],
                   "--model"]),
        ("adapter", ["adapter", "info", "--adapter"]),
    ):
        path = tmp_path / f"{slot}.ut"
        _save_tensor_file(slot, path, {},
                          {"x": np.zeros(2, dtype=np.float32)})
        assert main(argv + [str(path)]) == 2
        first_key = _TENSOR_FILES[slot][1][0]
        assert capsys.readouterr().err == (
            f"CorruptFile: {path}:2: expected header key {first_key!r}\n")


def _resigned_table_part(raw, edit):
    """raw with the lines before its end line passed through edit, and its
    checksum made anew."""
    blob = raw[:-32]
    cut = blob.index(b"\nend\n") + 1
    lines = edit(blob[:cut].decode("utf-8").split("\n")[:-1])
    blob = "".join(line + "\n" for line in lines).encode("utf-8") + blob[cut:]
    return blob + hashlib.sha256(blob).digest()


def _other_kind(lines):
    magics = [magic for magic, _ in _TENSOR_FILES.values()]
    return [magics[1 - magics.index(lines[0])]] + lines[1:]


def _drop_third_key(lines):
    return lines[:3] + lines[4:]


def _swap_first_keys(lines):
    return [lines[0], lines[2], lines[1]] + lines[3:]


def _extra_last_key(lines):
    first_row = next(i for i, line in enumerate(lines)
                     if line.startswith("row\t"))
    return lines[:first_row] + ["vocab_fingerprint\t0123abcd"] + lines[first_row:]


# Both files have nine header keys, so an extra one is read on line 11.
@pytest.mark.parametrize("slot", ["model", "adapter"])
@pytest.mark.parametrize("edit, line", [
    pytest.param(_other_kind, 1, id="other-kind"),
    pytest.param(_drop_third_key, 4, id="missing-key"),
    pytest.param(_swap_first_keys, 2, id="reordered-keys"),
    pytest.param(_extra_last_key, 11, id="extra-key"),
])
def test_tensor_file_header_off_is_one_line_naming_path_and_line(
        pipeline, tmp_path, capsys, slot, edit, line):
    """A model or adapter file is refused as the table codec refuses a
    table: by its first line and its header keys, in order."""
    bad = tmp_path / f"bad_{slot}.ut"
    bad.write_bytes(_resigned_table_part(Path(pipeline[slot]).read_bytes(),
                                         edit))
    out = tmp_path / "o"
    assert main(_model_argv("eval", pipeline, out, **{slot: bad})) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert len(_TENSOR_FILES[slot][1]) == 9
    assert err.startswith(f"CorruptFile: {bad}:{line}: "), err
    assert not out.exists()


@pytest.mark.parametrize("key", ["base_layers", "base_width", "base_params"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_adapter_base_shape_below_one_is_one_line_data_error(
        pipeline, tmp_path, capsys, key, value):
    def edit(lines):
        return [f"{key}\t{value}" if line.startswith(f"{key}\t") else line
                for line in lines]

    adapter = tmp_path / "adapter.ut"
    adapter.write_bytes(_resigned_table_part(
        Path(pipeline["adapter"]).read_bytes(), edit))
    assert main(["adapter", "info", "--adapter", str(adapter)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"CorruptFile: {adapter}: bad header value: "), err
    assert err.endswith(f" must be >= 1, got {value}\n"), err



@pytest.mark.parametrize("command", ["adapter info", "eval"])
def test_adapter_tensor_it_does_not_read_is_one_line_data_error(
        pipeline, tmp_path, capsys, command):
    header, tensors = _load_tensor_file("adapter", pipeline["adapter"])
    tensors["L7.q.B"] = tensors["L0.q.B"]
    adapter = tmp_path / "adapter.ut"
    _save_tensor_file("adapter", adapter, header, tensors)
    out = tmp_path / "o"
    if command == "adapter info":
        argv = ["adapter", "info", "--adapter", str(adapter)]
    else:
        argv = _model_argv(command, pipeline, out, adapter=adapter)
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == (f"CorruptFile: {adapter}: tensor 'L7.q.B' is not one the "
                   f"adapter reads\n"), err
    assert not out.exists()


@pytest.mark.parametrize("slot, key, value", [
    pytest.param("model", "layers", "x", id="model-layers-x"),
    pytest.param("adapter", "rank", "x", id="adapter-rank-x"),
    pytest.param("adapter", "alpha", "nan", id="adapter-alpha-nan"),
    pytest.param("adapter", "dropout", "1.5", id="adapter-dropout-1.5"),
])
def test_malformed_meta_value_is_one_line_data_error_naming_the_file(
        pipeline, tmp_path, capsys, slot, key, value):
    header, tensors = _load_tensor_file(slot, pipeline[slot])
    header[key] = value
    bad = tmp_path / f"bad_{slot}.ut"
    _save_tensor_file(slot, bad, header, tensors)
    out = tmp_path / "o"
    assert main(_model_argv("eval", pipeline, out, **{slot: bad})) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"CorruptFile: {bad}: "), err
    assert key in err or repr(value) in err, err
    assert not out.exists()


def _flip_last_byte(raw):
    return raw[:-1] + bytes([raw[-1] ^ 1])


def _version_v9(raw):
    return _resigned_table_part(
        raw, lambda lines: [lines[0].replace(" v1", " v9")] + lines[1:])


@pytest.mark.parametrize("slot", ["model", "adapter"])
@pytest.mark.parametrize("damage, error, line", [
    pytest.param(_flip_last_byte, "CorruptFile", "", id="checksum"),
    pytest.param(_version_v9, "CorruptFile", ":1", id="version"),
    pytest.param(None, "CorruptFile", "", id="vocabulary-file"),
])
def test_bad_tensor_file_is_one_line_data_error_naming_it(
        pipeline, tmp_path, capsys, slot, damage, error, line):
    """With both --model and --adapter given, the error says which is bad,
    and the line when it is in the table part."""
    bad = tmp_path / f"bad_{slot}.ut"
    source = pipeline["vocab"] if damage is None else pipeline[slot]
    raw = Path(source).read_bytes()
    bad.write_bytes(raw if damage is None else damage(raw))
    files = {"adapter": pipeline["adapter"], slot: bad}
    out = tmp_path / "o"
    assert main(_model_argv("eval", pipeline, out, **files)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"{error}: {bad}{line}: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "eval", "adapter merge"])
@pytest.mark.parametrize("fingerprint, error", [
    pytest.param(None, "CorruptFile", id="missing"),
    pytest.param("", "ShapeMismatch", id="empty"),
])
def test_adapter_without_base_fingerprint_is_one_line_data_error(
        pipeline, tmp_path, capsys, command, fingerprint, error):
    """Without the base fingerprint an adapter would pair with any model of
    its shape, so the field is required and always compared."""
    header, tensors = _load_tensor_file("adapter", pipeline["adapter"])
    del header["base_fingerprint"]
    if fingerprint is not None:
        header["base_fingerprint"] = fingerprint
    adapter = tmp_path / "adapter.ut"
    _save_tensor_file("adapter", adapter, header, tensors)
    out = tmp_path / "o"
    if command == "adapter merge":
        argv = ["adapter", "merge", "--model", pipeline["model"],
                "--adapter", str(adapter), "--out", str(out)]
    else:
        argv = _model_argv(command, pipeline, out, adapter=adapter)
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"{error}: ") and "fingerprint" in err, err
    assert not out.exists()


@pytest.mark.parametrize("text, error", [
    pytest.param(f"駅{PHON_START}エ'キ", "UnbalancedTags", id="unclosed-tag"),
    pytest.param(f"駅{PHON_START}eki{PHON_END}", "InvalidAnnotation",
                 id="unparsable-span"),
    pytest.param("駅\u2603", "UncoveredSymbol", id="uncovered-character"),
    pytest.param("", "UnbalancedTags", id="empty"),
])
def test_generate_rejects_malformed_tagged_text(pipeline, tmp_path, capsys,
                                                text, error):
    out = tmp_path / "g"
    assert main(["generate", "--model", pipeline["model"],
                 "--vocab", pipeline["vocab"],
                 "--adapter", pipeline["adapter"],
                 "--text", text, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"{error}: "), err
    assert not out.exists()

_MAX_NEW_CASES = [("flag", "-5", 1), ("flag", "0", 1), ("config", "-5", 2),
                  ("config", "0", 2)]
_COUNT_CASES = [
    pytest.param(source, value, code, command, "max_new",
                 id=f"{source}-{value}-{code}-{command}")
    for command in ("generate", "eval")
    for source, value, code in _MAX_NEW_CASES
] + [
    pytest.param(source, value, code, command, key,
                 id=f"{key}-{source}-{value}-{code}-{command}")
    for source, value, code, command, key in (
        ("config", "0", 2, "eval", "n_test_1"),
        ("config", "0", 2, "eval", "n_test_2"),
        ("config", "-3", 2, "eval", "n_test_2"),
        ("config", "0", 2, "eval", "n_leakage"),
        ("config", "0", 2, "eval", "resamples"),
        ("config", "1000001", 2, "eval", "resamples"),
        ("config", "1000000000000", 2, "eval", "resamples"),
        ("config", "0", 2, "corpus", "sentences"),
        ("flag", "0", 1, "corpus", "sentences"),
        ("flag", "-1", 1, "corpus", "seed"),
        ("config", "-1", 2, "corpus", "seed"),
        ("flag", "-1", 1, "eval", "seed"),
        ("config", "-1", 2, "eval", "seed"),
        ("flag", "loud", 1, "eval", "mode"),
        ("config", "nan", 2, "eval", "tagged_accent_min"),
        ("config", "nan", 2, "eval", "kana_cer_max"),
        ("config", "inf", 2, "eval", "leakage_halfwidth_max"),
        ("flag", "1.5", 1, "corpus", "tag_fraction"),
        ("config", "1.5", 2, "corpus", "tag_fraction"),
        ("flag", "-0.5", 1, "corpus", "kana_fraction"),
        ("config", "nan", 2, "corpus", "kana_fraction"),
        ("flag", "1.5", 1, "train", "dropout"),
        ("flag", "1", 1, "train", "dropout"),
        ("config", "-0.1", 2, "train", "dropout"),
        ("flag", "nan", 1, "train", "alpha"),
        ("config", "inf", 2, "train", "alpha"),
        ("config", "0", 2, "train", "warmup_fraction"),
        ("config", "1", 2, "train", "warmup_fraction"),
        ("config", "0", 2, "train", "learning_rate"),
        ("config", "nan", 2, "train", "learning_rate"),
        ("config", "inf", 2, "train", "pretrain_lr"),
    )
]


@pytest.mark.parametrize("source, value, code, command, key", _COUNT_CASES)
def test_max_new_below_one_is_rejected(pipeline, tmp_path, capsys,
                                       no_pretrain, command, source, value,
                                       code, key):
    """A flag value outside its key's bounds or choices is a usage error, a
    config value outside them a bad config value; either is reported
    before any work starts."""
    out = tmp_path / "o"
    if command == "corpus":
        argv = ["corpus", "build"]
    elif command == "train":
        argv = ["train", "--corpus", pipeline["corpus1"],
                "--adapter-corpus", pipeline["corpus2"],
                "--vocab", pipeline["vocab"]]
    else:
        argv = [command, "--model", pipeline["model"],
                "--vocab", pipeline["vocab"]]
        argv += ["--text", "駅"] if command == "generate" else [
            "--adapter", pipeline["adapter"], "--leakage"
        ]
    argv += ["--out", str(out)]
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv += [flag, value]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert (flag if source == "flag" else key) in err
    assert not out.exists()


@pytest.fixture
def no_pretrain(monkeypatch):
    """Makes train fail loudly if it reaches pretraining."""
    def refuse(*args, **kwargs):
        raise AssertionError("pretrain started before the settings were checked")
    monkeypatch.setattr(uttertune.cli, "pretrain", refuse)


def _train_argv(pipeline, tmp_path):
    return ["train", "--corpus", pipeline["corpus1"],
            "--adapter-corpus", pipeline["corpus2"],
            "--vocab", pipeline["vocab"], "--out", str(tmp_path / "t")]


@pytest.mark.parametrize("flag", ["--steps", "--rank"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_train_flag_below_one_is_usage_error(pipeline, tmp_path, capsys,
                                             no_pretrain, flag, value):
    assert main(_train_argv(pipeline, tmp_path) + [flag, value]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert flag in err


@pytest.mark.parametrize("line, named", [
    ("steps = 0", "steps"),
    ("pretrain_steps = 0", "steps"),
    ("batch_size = -2", "batch_size"),
    ("pretrain_batch = 0", "batch_size"),
    ("rank = 0", "rank"),
    ("rank = 65", "rank"),
    ("dropout = 1.5", "dropout"),
    ("scaling = halved", "scaling"),
    ("heads = 0", "heads"),
    ("layers = 0", "layers"),
    ("layers = -1", "layers"),
    ("ff_width = 0", "ff_width"),
    ("learning_rate = -1", "learning_rate"),
    ("learning_rate = nan", "learning_rate"),
    ("pretrain_lr = 0", "pretrain_lr"),
    ("pretrain_lr = inf", "pretrain_lr"),
    ("alpha = nan", "alpha"),
    ("alpha = inf", "alpha"),
])
def test_train_rejects_bad_config_before_pretraining(pipeline, tmp_path,
                                                      capsys, no_pretrain,
                                                      line, named):
    """A bad setting of either stage is a data error raised before the
    pretraining stage runs and before the output directory is made (the
    default width is 64, so rank 65 is too large)."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = _train_argv(pipeline, tmp_path) + ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert named in err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("long_flag", ["--corpus", "--adapter-corpus"])
def test_train_refuses_an_over_long_example_before_pretraining(
        pipeline, tmp_path, capsys, no_pretrain, long_flag):
    """An example of either corpus that packs (input, target and
    end-of-speech) past max_seq is one SequenceTooLong line and exit 3,
    before pretraining and before the output directory is made."""
    records = load_corpus(pipeline["corpus2"])
    packed = [len(ex.input_ids) + len(ex.target_ids) + 1
              for ex in to_training_examples(records,
                                             load_vocab(pipeline["vocab"]))]
    assert min(packed) < max(packed)
    short = tmp_path / "short.tsv"
    save_corpus([records[packed.index(min(packed))]], short)
    corpora = {"--corpus": str(short), "--adapter-corpus": str(short),
               long_flag: pipeline["corpus2"]}
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"max_seq = {min(packed)}\n", encoding="utf-8")
    out = tmp_path / "t"
    argv = ["train", "--vocab", pipeline["vocab"], "--config", str(cfg),
            "--out", str(out)]
    for flag, path in corpora.items():
        argv += [flag, path]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"SequenceTooLong: {pipeline['corpus2']}: a training example packs "
        f"{max(packed)} tokens > max_seq {min(packed)}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("empty_flag", ["--corpus", "--adapter-corpus"])
def test_train_refuses_an_empty_corpus_before_pretraining(
        pipeline, tmp_path, capsys, no_pretrain, empty_flag):
    """A corpus file with a header and no rows, given to either flag, is one
    line naming the file and exit 2, before pretraining and before the
    output directory is made."""
    empty = tmp_path / "empty.tsv"
    save_corpus([], empty)
    argv = _train_argv(pipeline, tmp_path)
    argv[argv.index(empty_flag) + 1] = str(empty)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(empty) in err[0]
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command, line, extra, named", [
    pytest.param("corpus", "tag_fraction = nan", [], "tag_fraction",
                 id="corpus-tag_fraction-nan"),
    pytest.param("vocab", "vocab_size = 60", [], "target 60 below atom count",
                 id="vocab-vocab_size-60"),
    pytest.param("eval", "", ["--model", "missing-model.ut"],
                 "missing-model.ut", id="eval-missing-model"),
    pytest.param("eval", "mode = loud", [], "mode", id="eval-mode-loud"),
] + [
    pytest.param(command, f"{key} = -1", [], f"config {key} must be >= 0",
                 id=f"{command}-{key}--1")
    for command, key in (("corpus", "seed"), ("vocab", "seed"),
                         ("train", "seed"), ("train", "model_seed"),
                         ("train", "pretrain_seed"), ("eval", "seed"))
])
def test_rejected_run_makes_no_out_dir(pipeline, tmp_path, capsys,
                                       no_pretrain, command, line, extra,
                                       named):
    """A bad value or input is a one-line data error, reported before the
    command makes its output directory."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = {
        "corpus": ["corpus", "build"],
        "vocab": ["vocab", "train", "--corpus", pipeline["corpus1"]],
        "train": ["train", "--corpus", pipeline["corpus1"],
                  "--adapter-corpus", pipeline["corpus2"],
                  "--vocab", pipeline["vocab"]],
        "generate": ["generate", "--model", pipeline["model"],
                     "--vocab", pipeline["vocab"], "--text", "駅"],
        "eval": ["eval", "--model", pipeline["model"],
                 "--vocab", pipeline["vocab"]],
    }[command]
    argv += extra + ["--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert named in err
    assert not out.exists()


# -- console entry point ---------------------------------------------------------

# The child interpreter imports the same uttertune as this process, also
# when it comes from a source checkout rather than an installed package.
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(uttertune.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p
    ),
}


def test_module_invocation_pitch():
    proc = subprocess.run(
        [sys.executable, "-m", "uttertune.cli", "notation", "pitch",
         "チ'ミ/モーリョー"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "HL LHHH\n"


def test_module_invocation_parse_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "uttertune.cli", "notation", "parse",
         "ア'イ'ウ"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert proc.returncode == 1
    assert "MultipleNuclei" in proc.stderr


def test_module_invocation_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "uttertune.cli", "notation", "morae", "-"],
        input="モーリョー\n",
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "モ ー リョ ー\n"
