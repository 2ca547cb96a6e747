"""Produce the benchmark's fixed inputs and recorded outputs.

Two steps, run from the repository root:

    # 1. After a desk run of ``uttertune train`` (see fixture/PROVENANCE.md),
    #    store its base model and adapter as plain arrays with SHA-256s.
    python3 perfbench/record.py fixture --train-dir DIR --vocab FILE \\
        --commit SHA --config configs/desk.cfg \\
        --config configs/desk_adapter_corpus.cfg

    # 2. Record, for seeds 0 to 19, the final losses of the first train
    #    operation and the decoded hypotheses of the first eval round.
    python3 perfbench/record.py outputs

Both write under perfbench/fixture/. The benchmark compares its outputs on
a recorded seed against recorded.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from uttertune.lora import load_adapter  # noqa: E402
from uttertune.manifest import parse_config_file  # noqa: E402
from uttertune.model import ToyLM  # noqa: E402
from uttertune.tokenizer import load_vocab  # noqa: E402

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

FIXTURE_DIR = workloads.FIXTURE_DIR
RECORDED_SEEDS = range(20)
# The desk run that made the train dir ``record.py fixture`` reads, each
# command run as ``PYTHONPATH=src python3 -m uttertune.cli ...``.
DESK_COMMANDS = [
    "uttertune corpus build --config configs/desk.cfg --out corpus_pretrain",
    "uttertune corpus build --config configs/desk_adapter_corpus.cfg"
    " --out corpus_adapter",
    "uttertune vocab train --config configs/desk.cfg"
    " --corpus corpus_pretrain/corpus.tsv --out vocab",
    "uttertune train --config configs/desk.cfg"
    " --corpus corpus_pretrain/corpus.tsv"
    " --adapter-corpus corpus_adapter/corpus.tsv --vocab vocab/vocab.txt"
    " --out train",
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_fixture(args) -> None:
    model = ToyLM.load(Path(args.train_dir) / "base_model.ut")
    adapter = load_adapter(Path(args.train_dir) / "adapter.ut")
    vocab = load_vocab(args.vocab)
    FIXTURE_DIR.mkdir(exist_ok=True)
    model_path = FIXTURE_DIR / "desk_model.npz"
    adapter_path = FIXTURE_DIR / "desk_adapter.npz"
    np.savez(model_path, **model.weights)
    arrays = {}
    for layer in adapter.layers:
        arrays[f"{layer.target}.B"] = layer.B
        arrays[f"{layer.target}.C"] = layer.C
    arrays["tag_deltas"] = adapter.tag_deltas
    np.savez(adapter_path, **arrays)
    config = {}
    for path in args.config:
        config[Path(path).name] = parse_config_file(path)
    cfg = model.config
    meta = {
        "provenance": {
            "commit": args.commit,
            "config": config,
            "command": DESK_COMMANDS,
        },
        "model": {
            "file": model_path.name,
            "sha256": _sha256(model_path),
            "fingerprint": model.fingerprint(),
            "config": {
                "vocab_size": cfg.vocab_size,
                "speech_offset": cfg.speech_offset,
                "speech_count": cfg.speech_count,
                "layers": cfg.layers,
                "width": cfg.width,
                "heads": cfg.heads,
                "ff_width": cfg.ff_width,
                "max_seq": cfg.max_seq,
                "seed": cfg.seed,
            },
            "weight_names": list(model.weights),
        },
        "adapter": {
            "file": adapter_path.name,
            "sha256": _sha256(adapter_path),
            "rank": adapter.rank,
            "alpha": adapter.alpha,
            "dropout": adapter.dropout_rate,
            "scaling": adapter.scaling,
            "seed": adapter.seed,
            "targets": [layer.target for layer in adapter.layers],
        },
        "vocab": {
            "atoms": list(vocab.atoms),
            "merges": [list(m) for m in vocab.merges],
        },
    }
    (FIXTURE_DIR / "fixture.json").write_text(
        json.dumps(meta, indent=1, ensure_ascii=False) + "\n", "utf-8")
    print(f"wrote {model_path.name}, {adapter_path.name} and fixture.json")


def record_outputs() -> None:
    workdir = ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    path = FIXTURE_DIR / "recorded.json"
    tracer = NullTracer()
    recorded = {"train": {}, "eval": {}}
    train = workloads.TrainWorkload(0, workdir, {})
    train.prepare(tracer)
    for seed in RECORDED_SEEDS:
        train.seed = seed
        train.operate(0, tracer)
        pretrain_loss, adapter_loss = train.last_losses
        recorded["train"][str(seed)] = {
            "pretrain_loss": repr(pretrain_loss),
            "adapter_loss": repr(adapter_loss),
        }
        print(f"train seed {seed}: {pretrain_loss!r} {adapter_loss!r}")
    failures = list(train.tally.failures)
    for seed in RECORDED_SEEDS:
        ev = workloads.EvalWorkload(seed, workdir, {})
        ev.prepare(tracer)
        ev.operate(0, tracer)
        recorded["eval"][str(seed)] = workloads.eval_outputs(ev.out_dirs)
        failures += ev.tally.failures
        print(f"eval seed {seed} recorded")
    if failures:
        raise SystemExit("checks failed while recording: "
                         + "; ".join(failures))
    path.write_text(json.dumps(recorded, indent=1) + "\n", "utf-8")
    shutil.rmtree(workdir)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="step", required=True)
    fixture = sub.add_parser("fixture")
    fixture.add_argument("--train-dir", required=True)
    fixture.add_argument("--vocab", required=True)
    fixture.add_argument("--commit", required=True)
    fixture.add_argument("--config", action="append", required=True)
    sub.add_parser("outputs")
    args = parser.parse_args()
    if args.step == "fixture":
        record_fixture(args)
    else:
        record_outputs()


if __name__ == "__main__":
    main()
