"""The three benchmark workloads: train, eval and distance.

Each workload is one closed-loop caller: a single process makes one call
into the program at a time and starts the next call when the previous one
has returned. A workload object has three parts, which ``run.py`` drives:

* ``prepare(tracer)`` builds the inputs (timed as set-up);
* ``operate(k, tracer)`` runs operation k and returns
  (items done, seconds busy); it checks the outputs and records every
  failure in ``self.tally``;
* ``layer_metrics(tracer, ops)`` turns the spans of a traced pass into the
  per-layer metrics.

Layers are timed from outside, around calls into the public functions of
the program's modules; nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import uttertune.cli
import uttertune.eval
import uttertune.kernels
import uttertune.model
from uttertune.dataprep import (
    MORA_INVENTORY,
    SPEECH_TOKEN_COUNT,
    build_corpus,
    build_lexicon,
    to_training_examples,
    vocab_training_text,
)
from uttertune.eval import load_leakage, load_report
from uttertune.lora import (
    BaseShapeSpec,
    LoraAdapter,
    LoraLayer,
    init_adapter,
    save_adapter,
)
from uttertune.model import (
    ToyLM,
    ToyLMConfig,
    TrainConfig,
    loss_and_grads,
    pretrain,
    train_adapter,
)
from uttertune.tokenizer import save_vocab, train_bpe

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"

# The reference desk run (configs/desk.cfg and desk_adapter_corpus.cfg at
# the fixture's commit), pinned here so that a recipe change in the configs
# does not change what the benchmark measures.
PRETRAIN_CORPUS = dict(n_sentences=12000, tag_fraction=0.0, seed=0,
                       kana_fraction=0.9)
ADAPTER_CORPUS = dict(n_sentences=6000, tag_fraction=0.6, seed=1,
                      kana_fraction=0.2)
VOCAB_SIZE = 72
DESK_MODEL = dict(layers=2, width=64, heads=4, ff_width=1024, max_seq=256)
DESK_BATCH = 8
DESK_ADAPTER = dict(r=1, alpha=8.0, dropout_rate=0.05, scaling="literal")
PRETRAIN_LR = 2e-3
ADAPTER_LR = 3e-4
WARMUP_FRACTION = 0.1
EVAL_CONFIG = dict(n_test_1=48, n_test_2=120, n_leakage=240, max_new=40,
                   resamples=10000)

# Steps per call in one train operation: short, so that a run makes
# several operations and their median shrugs off a slow moment of the
# machine.
TRAIN_STEPS = 10
DESK_TRAIN_SEED = 0
TRANSPARENCY_PROMPTS = 8
# A recorded final loss must match to this relative tolerance; whether it
# is also bit-identical is reported. At the fixture's commit it is.
LOSS_RTOL = 1e-6
PROBE_REPEATS = 3

EVAL_MODES = ("tagged", "kana", "plain")
EVAL_ITEMS = 3 * EVAL_CONFIG["n_test_2"] + 2 * EVAL_CONFIG["n_leakage"]

DISTANCE_ALPHABET = 4
DISTANCE_MAX_LEN = 6
SPOT_CHECKS = 400


class Tally:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def _desk_vocab(lexicon, records):
    return train_bpe(vocab_training_text(records, lexicon), VOCAB_SIZE,
                     seed=0, speech_token_count=SPEECH_TOKEN_COUNT)


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


# -- train -------------------------------------------------------------------


class TrainWorkload:
    """model.pretrain then model.train_adapter at desk shapes.

    Operation k trains a fresh model for TRAIN_STEPS steps, then a fresh
    rank-1 adapter on it for TRAIN_STEPS steps; an item is one sequence
    trained (steps x batch). The seed picks the initial weights of model
    and adapter. Batches and dropout masks are the first TRAIN_STEPS of
    the desk run's (training seed 0), so every operation does the same
    work and the median over operations compares like with like.
    """

    name = "train"

    def __init__(self, seed: int, workdir: Path, recorded: dict):
        self.seed = seed
        self.recorded = recorded.get("train", {}).get(str(seed))
        self.tally = Tally()

    def prepare(self, tracer) -> None:
        lexicon = build_lexicon()
        with tracer.span("dataprep.build_corpus"):
            pre = build_corpus(lexicon, **PRETRAIN_CORPUS)
            ada = build_corpus(lexicon, **ADAPTER_CORPUS)
        with tracer.span("tokenizer.train_bpe"):
            self.vocab = _desk_vocab(lexicon, pre)
        with tracer.span("dataprep.to_training_examples"):
            self.pretrain_examples = to_training_examples(pre, self.vocab)
            self.adapter_examples = to_training_examples(ada, self.vocab)

    def _config(self, seed: int) -> ToyLMConfig:
        return ToyLMConfig(
            vocab_size=self.vocab.total_size,
            speech_offset=self.vocab.speech_token_offset,
            speech_count=self.vocab.speech_token_count,
            seed=seed,
            **DESK_MODEL,
        )

    def _train_config(self, lr: float, steps: int) -> TrainConfig:
        return TrainConfig(steps=steps, learning_rate=lr,
                           warmup_fraction=WARMUP_FRACTION,
                           batch_size=DESK_BATCH, seed=DESK_TRAIN_SEED)

    def warm_up(self) -> None:
        """Lazy set-up (allocator, BLAS threads) before anything is timed."""
        model = ToyLM.init(self._config(0))
        pretrain(model, self.pretrain_examples,
                 self._train_config(PRETRAIN_LR, TRAIN_STEPS))
        adapter = init_adapter(model.shape_spec(), seed=0, **DESK_ADAPTER)
        train_adapter(model, adapter, self.adapter_examples,
                      self._train_config(ADAPTER_LR, TRAIN_STEPS))

    def operate(self, k: int, tracer):
        op_seed = self.seed * 1000 + k
        problems = []
        model = ToyLM.init(self._config(op_seed))
        with tracer.span("model.pretrain"):
            started = time.perf_counter()
            curve_p = pretrain(model, self.pretrain_examples,
                               self._train_config(PRETRAIN_LR, TRAIN_STEPS))
            pretrain_s = time.perf_counter() - started

        fingerprint = model.fingerprint()
        adapter = init_adapter(model.shape_spec(), seed=op_seed,
                               **DESK_ADAPTER)
        problems += self._transparency(model, adapter, op_seed)
        with tracer.span("model.train_adapter"):
            started = time.perf_counter()
            curve_a = train_adapter(model, adapter, self.adapter_examples,
                                    self._train_config(ADAPTER_LR,
                                                       TRAIN_STEPS))
            adapter_s = time.perf_counter() - started

        losses = (curve_p[-1][1], curve_a[-1][1])
        self.last_losses = losses
        if not all(math.isfinite(loss) for _, loss in curve_p + curve_a):
            problems.append(f"train op {k}: non-finite loss")
        if model.fingerprint() != fingerprint:
            problems.append(f"train op {k}: train_adapter changed the base")
        if k == 0:
            problems += self._check_recorded(losses)
        self.tally.record(problems)
        return 2 * TRAIN_STEPS * DESK_BATCH, pretrain_s + adapter_s

    def patch(self, tracer) -> list[str]:
        return []  # every train span is around the benchmark's own calls

    def _transparency(self, model, adapter, op_seed: int) -> list[str]:
        """Check 1: a fresh adapter leaves logits bitwise equal."""
        rng = np.random.default_rng(op_seed)
        for _ in range(TRANSPARENCY_PROMPTS):
            ids = rng.integers(0, model.config.vocab_size,
                               size=int(rng.integers(2, 40)))
            if not np.array_equal(model.forward(ids),
                                  model.forward(ids, adapter=adapter)):
                return ["fresh adapter changed the base model's logits"]
        return []

    def _check_recorded(self, losses) -> list[str]:
        if self.recorded is None:
            self.tally.info.append(
                f"final loss: no recorded value for seed {self.seed}"
            )
            return []
        problems = []
        identical = True
        for name, got in zip(("pretrain", "adapter"), losses):
            want = float(self.recorded[f"{name}_loss"])
            identical = identical and repr(got) == self.recorded[f"{name}_loss"]
            if abs(got - want) > LOSS_RTOL * abs(want):
                problems.append(
                    f"{name} final loss {got!r} != recorded {want!r}"
                )
        self.tally.info.append(
            f"final loss vs recorded (seed {self.seed}): "
            f"{'bit-identical' if identical else 'differs in low bits'}"
        )
        return problems

    def layer_metrics(self, tracer, ops: int) -> dict:
        metrics = {
            "dataprep.build_corpus_s": tracer.total("dataprep.build_corpus"),
            "tokenizer.train_bpe_s": tracer.total("tokenizer.train_bpe"),
            "dataprep.to_training_examples_s":
                tracer.total("dataprep.to_training_examples"),
            "model.pretrain_step_ms": 1e3 * statistics.median(
                tracer.durations("model.pretrain")) / TRAIN_STEPS,
            "model.adapter_step_ms": 1e3 * statistics.median(
                tracer.durations("model.train_adapter")) / TRAIN_STEPS,
        }
        probe = self._probe()
        metrics.update(probe)
        metrics["model.opt_other_ms"] = (
            metrics["model.pretrain_step_ms"] - probe["model.fwd_bwd_ms"]
        )
        metrics["lora.opt_other_ms"] = (
            metrics["model.adapter_step_ms"] - probe["lora.fwd_bwd_ms"]
        )
        return metrics

    def _probe(self) -> dict:
        """Forward and forward+backward on fixed desk-shaped batches.

        The batches are drawn the way pretrain draws its batches from the
        desk training seed, so they have the shapes of the timed steps
        (exactly for pretraining; train_adapter interleaves its dropout
        draws, so its batches differ but come from the same corpus). A
        figure is the median over PROBE_REPEATS passes of the time per
        batch.
        """
        model = ToyLM.init(self._config(self.seed))
        adapter = init_adapter(model.shape_spec(), seed=self.seed,
                               **DESK_ADAPTER)

        def batches(examples):
            rng = np.random.default_rng(DESK_TRAIN_SEED)
            return [
                [examples[int(i)]
                 for i in rng.integers(0, len(examples), size=DESK_BATCH)]
                for _ in range(TRAIN_STEPS)
            ]

        pretrain_batches = batches(self.pretrain_examples)
        adapter_batches = batches(self.adapter_examples)

        def per_batch_ms(fn, batch_list):
            fn(batch_list[0])
            passes = []
            for _ in range(PROBE_REPEATS):
                started = time.perf_counter()
                for batch in batch_list:
                    fn(batch)
                passes.append(time.perf_counter() - started)
            return 1e3 * statistics.median(passes) / len(batch_list)

        return {
            "model.fwd_ms": per_batch_ms(model.loss, pretrain_batches),
            "lora.fwd_ms": per_batch_ms(
                lambda b: model.loss(b, adapter), adapter_batches),
            "model.fwd_bwd_ms": per_batch_ms(
                lambda b: loss_and_grads(model, b), pretrain_batches),
            "lora.fwd_bwd_ms": per_batch_ms(
                lambda b: loss_and_grads(model, b, adapter,
                                         dropout_seed=DESK_TRAIN_SEED),
                adapter_batches),
        }


# -- eval --------------------------------------------------------------------


def load_fixture() -> dict:
    """fixture.json, after checking both array files against their SHA-256."""
    meta = json.loads((FIXTURE_DIR / "fixture.json").read_text("utf-8"))
    for part in ("model", "adapter"):
        path = FIXTURE_DIR / meta[part]["file"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != meta[part]["sha256"]:
            raise RuntimeError(f"{path.name}: SHA-256 {digest} does not match "
                               f"fixture.json")
    return meta


def rebuild_fixture(meta: dict):
    """The fixed base model and adapter, through the public constructors."""
    spec = meta["model"]
    with np.load(FIXTURE_DIR / spec["file"], allow_pickle=False) as arrays:
        weights = {name: arrays[name] for name in spec["weight_names"]}
    model = ToyLM(ToyLMConfig(**spec["config"]), weights)
    spec = meta["adapter"]
    with np.load(FIXTURE_DIR / spec["file"], allow_pickle=False) as arrays:
        layers = [
            LoraLayer(target=t, B=arrays[f"{t}.B"], C=arrays[f"{t}.C"],
                      rank=spec["rank"], alpha=spec["alpha"],
                      dropout_rate=spec["dropout"])
            for t in spec["targets"]
        ]
        tag_deltas = arrays["tag_deltas"]
    adapter = LoraAdapter(
        layers=layers, tag_deltas=tag_deltas, rank=spec["rank"],
        alpha=spec["alpha"], dropout_rate=spec["dropout"],
        scaling=spec["scaling"], seed=spec["seed"],
        base_spec=BaseShapeSpec(
            n_layers=model.config.layers, width=model.config.width,
            base_param_count=model.param_count(),
            fingerprint=model.fingerprint(),
        ),
    )
    return model, adapter


def _hypothesis_key(kana: str, pitch: str) -> str:
    return hashlib.sha256(f"{kana}\t{pitch}".encode()).hexdigest()[:12]


def eval_outputs(out_dirs: dict) -> dict:
    """Decoded hypotheses of one round, in the form recorded.json keeps."""
    outputs = {}
    for mode in EVAL_MODES:
        report = load_report(out_dirs[mode] / f"report_{mode}.tsv")
        outputs[mode] = [_hypothesis_key(r.hypothesis_kana, r.hypothesis_pitch)
                         for r in report.per_sample]
    leakage = load_leakage(out_dirs["tagged"] / "leakage.tsv")
    outputs["leakage"] = "".join(
        f"{int(o.baseline_correct)}{int(o.adapted_correct)}"
        for o in leakage.outcomes
    )
    return outputs


class EvalWorkload:
    """The three desk ``uttertune eval`` commands, in process via cli.main.

    Operation k is one round: ``tagged --leakage``, ``kana`` and ``plain``
    on the fixed model and adapter; an item is one generation judged
    (3 x 120 test items plus 2 x 240 leakage items).
    """

    name = "eval"

    def __init__(self, seed: int, workdir: Path, recorded: dict):
        self.seed = seed
        self.workdir = workdir
        self.recorded = recorded.get("eval", {}).get(str(seed))
        self.tally = Tally()
        self.out_dirs = {m: workdir / f"eval_{m}" for m in EVAL_MODES}
        self.counts = {"generate_tokens": 0, "generate_eos": 0,
                       "items_judged": 0, "items_kept": 0}

    def prepare(self, tracer) -> None:
        self.fixture = load_fixture()
        lexicon = build_lexicon()
        with tracer.span("dataprep.build_corpus"):
            records = build_corpus(lexicon, **PRETRAIN_CORPUS)
        with tracer.span("tokenizer.train_bpe"):
            vocab = _desk_vocab(lexicon, records)
        expected = self.fixture["vocab"]
        if (list(vocab.atoms) != expected["atoms"]
                or [list(m) for m in vocab.merges] != expected["merges"]):
            raise RuntimeError("rebuilt desk vocabulary differs from the one "
                               "the fixture model was trained on")
        with tracer.span("fixture.rebuild"):
            model, adapter = rebuild_fixture(self.fixture)
        self.model_path = self.workdir / "base_model.ut"
        self.adapter_path = self.workdir / "adapter.ut"
        self.vocab_path = self.workdir / "vocab.txt"
        self.config_path = self.workdir / "eval.cfg"
        model.save(self.model_path)
        save_adapter(adapter, self.adapter_path)
        save_vocab(vocab, self.vocab_path)
        # Desk eval keys and no threshold keys: every call must exit 0.
        lines = [f"seed = {self.seed}"]
        lines += [f"{key} = {value}" for key, value in EVAL_CONFIG.items()]
        self.config_path.write_text("\n".join(lines) + "\n", "utf-8")

    def _argv(self, mode: str, out_dir: Path, config: Path) -> list[str]:
        argv = ["eval", "--config", str(config),
                "--model", str(self.model_path),
                "--vocab", str(self.vocab_path),
                "--adapter", str(self.adapter_path),
                "--mode", mode, "--out", str(out_dir)]
        return argv + ["--leakage"] if mode == "tagged" else argv

    def warm_up(self) -> None:
        """One small eval call, so lazy set-up is not timed."""
        config = self.workdir / "warmup.cfg"
        config.write_text("n_test_2 = 4\nn_leakage = 4\nresamples = 100\n",
                          "utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            uttertune.cli.main(self._argv("tagged", self.workdir / "warmup",
                                          config))

    def operate(self, k: int, tracer):
        busy = 0.0
        for mode in EVAL_MODES:
            problems = []
            with tracer.span(f"cli.eval_{mode}"):
                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = uttertune.cli.main(
                        self._argv(mode, self.out_dirs[mode], self.config_path)
                    )
                busy += time.perf_counter() - started
            if rc != 0:
                problems.append(f"eval {mode} exited {rc}")
            else:
                problems += self._read_back(mode)
            self.tally.record(problems)
        if k == 0 and not self.tally.failed:
            self._compare_recorded()
        return EVAL_ITEMS, busy

    def _read_back(self, mode: str) -> list[str]:
        report = load_report(self.out_dirs[mode] / f"report_{mode}.tsv")
        problems = []
        if report.mode != mode or report.n_items != EVAL_CONFIG["n_test_2"]:
            problems.append(f"eval {mode}: report has mode {report.mode!r} "
                            f"and {report.n_items} items")
        if mode == "tagged":
            leakage = load_leakage(self.out_dirs[mode] / "leakage.tsv")
            if len(leakage.outcomes) != EVAL_CONFIG["n_leakage"]:
                problems.append(f"leakage has {len(leakage.outcomes)} items")
        return problems

    def _compare_recorded(self) -> None:
        if self.recorded is None:
            self.tally.info.append(
                f"hypotheses: no recorded outputs for seed {self.seed}"
            )
            return
        got = eval_outputs(self.out_dirs)
        same = total = 0
        for mode in EVAL_MODES:
            same += sum(a == b for a, b in zip(got[mode], self.recorded[mode]))
            total += len(self.recorded[mode])
        want = self.recorded["leakage"]
        pairs = range(0, len(want), 2)
        same += sum(got["leakage"][i:i + 2] == want[i:i + 2] for i in pairs)
        total += len(pairs)
        self.tally.info.append(
            f"hypotheses equal to recorded (seed {self.seed}): "
            f"{same}/{total} = {same / total:.4f}"
        )

    # -- tracing ---------------------------------------------------------

    def _observe_generate(self, args, kwargs, result) -> None:
        budget = kwargs["max_new"] if "max_new" in kwargs else args[2]
        ended_on_eos = len(result) < budget
        self.counts["generate_tokens"] += len(result) + int(ended_on_eos)
        self.counts["generate_eos"] += int(ended_on_eos)

    def _observe_report(self, args, kwargs, report) -> None:
        self.counts["items_judged"] += report.n_items
        self.counts["items_kept"] += report.n_items - report.n_excluded

    def patch(self, tracer) -> list[str]:
        """Wrap the program's public functions where eval looks them up."""
        cli, ev = uttertune.cli, uttertune.eval
        targets = [
            (uttertune.model.ToyLM, "load", "tensorio.load", None),
            (cli, "load_adapter", "tensorio.load", None),
            (cli, "build_eval_sets", "dataprep.build_eval_sets", None),
            (cli, "evaluate_set", "eval.evaluate_set", self._observe_report),
            (ev, "evaluate_set", "eval.evaluate_set", self._observe_report),
            (cli, "leakage_test", "eval.leakage_test", None),
            (ev, "bootstrap_diff_ci", "eval.bootstrap_diff_ci", None),
            (ev, "generate", "model.generate", self._observe_generate),
            (ev, "encode_text", "tokenizer.encode_text", None),
            (ev, "edit_distance", "kernels.edit_distance", None),
            (cli, "save_report", "eval.write", None),
            (cli, "save_leakage", "eval.write", None),
            (cli, "save_manifest", "eval.write", None),
        ]
        return _patch_all(tracer, targets)

    def layer_metrics(self, tracer, ops: int) -> dict:
        c = self.counts
        generate_s = tracer.total("model.generate")
        call_ms = [1e3 * d for d in tracer.durations("model.generate")]
        calls = len(call_ms)
        return {
            "dataprep.build_corpus_s": tracer.total("dataprep.build_corpus"),
            "tokenizer.train_bpe_s": tracer.total("tokenizer.train_bpe"),
            "cli.eval_tagged_s": _per_op(tracer.total("cli.eval_tagged"), ops),
            "cli.eval_kana_s": _per_op(tracer.total("cli.eval_kana"), ops),
            "cli.eval_plain_s": _per_op(tracer.total("cli.eval_plain"), ops),
            "tensorio.load_s": _per_op(tracer.total("tensorio.load"), ops),
            "dataprep.build_eval_sets_s":
                _per_op(tracer.total("dataprep.build_eval_sets"), ops),
            "eval.evaluate_set_s":
                _per_op(tracer.total("eval.evaluate_set"), ops),
            "eval.leakage_test_s":
                _per_op(tracer.total("eval.leakage_test"), ops),
            "eval.bootstrap_diff_ci_s":
                _per_op(tracer.total("eval.bootstrap_diff_ci"), ops),
            "model.generate_calls": _per_op(calls, ops),
            "model.generate_tokens": _per_op(c["generate_tokens"], ops),
            "model.generate_ms_per_token":
                1e3 * generate_s / c["generate_tokens"]
                if c["generate_tokens"] else 0.0,
            "model.generate_call_ms.p50": _percentile(call_ms, 50),
            "model.generate_call_ms.p98": _percentile(call_ms, 98),
            "model.generate_eos_ratio":
                c["generate_eos"] / calls if calls else 0.0,
            "eval.kept_ratio":
                c["items_kept"] / c["items_judged"]
                if c["items_judged"] else 0.0,
            "tokenizer.encode_text_s":
                _per_op(tracer.total("tokenizer.encode_text"), ops),
            "kernels.edit_distance_calls":
                _per_op(len(tracer.durations("kernels.edit_distance")), ops),
            "kernels.edit_distance_s":
                _per_op(tracer.total("kernels.edit_distance"), ops),
            "eval.write_s": _per_op(tracer.total("eval.write"), ops),
        }


def _patch_all(tracer, targets) -> list[str]:
    """Patch every target that exists; return the names of those missing.

    The caller counts each missing target as a failed operation: its layer
    would otherwise read 0, which looks like a large gain.
    """
    missing = []
    for owner, attr, name, observe in targets:
        if attr in vars(owner):
            tracer.patch(owner, attr, name, observe)
        else:
            missing.append(f"{owner.__name__}.{attr}")
    return missing


# -- distance ------------------------------------------------------------------


class DistanceWorkload:
    """Check 7's dual route over alphabet 4, length <= 6 (5,461 strings).

    One operation is the whole route: enumerate_strings,
    edit_distance_matrix, edit_move_graph, bfs_distance_matrix, DP == BFS,
    then 400 spot checks through edit_distance and eval.cer. An item is one
    ordered pair of strings (29.8 M per route). The seed picks the spot
    check sample.
    """

    name = "distance"

    def __init__(self, seed: int, workdir: Path, recorded: dict):
        self.seed = seed
        self.tally = Tally()
        self.sizes: dict[str, int] = {}

    def prepare(self, tracer) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def operate(self, k: int, tracer):
        kernels = uttertune.kernels
        started = time.perf_counter()
        with tracer.span("kernels.enumerate_strings"):
            padded, lengths = kernels.enumerate_strings(DISTANCE_ALPHABET,
                                                        DISTANCE_MAX_LEN)
        with tracer.span("kernels.edit_distance_matrix"):
            dp = kernels.edit_distance_matrix(padded, lengths)
        with tracer.span("kernels.edit_move_graph"):
            indptr, indices, n_nodes = kernels.edit_move_graph(
                DISTANCE_ALPHABET, DISTANCE_MAX_LEN)
        with tracer.span("kernels.bfs_distance_matrix"):
            bfs = kernels.bfs_distance_matrix(indptr, indices, n_nodes)
        matrices_equal = bool(np.array_equal(dp, bfs))
        with tracer.span("kernels.spot_checks"):
            spot_failures = self._spot_checks(padded, lengths, dp, n_nodes)
        busy = time.perf_counter() - started

        self.tally.record([] if matrices_equal else ["DP != BFS"])
        for problem in spot_failures:
            self.tally.record([problem])
        for _ in range(SPOT_CHECKS - len(spot_failures)):
            self.tally.record([])
        # Work counts follow from the inputs, not from inside the kernels.
        total_len = int(lengths.sum())
        self.sizes = {
            "dp_cell_updates": total_len * total_len,
            "bfs_edge_visits": n_nodes * int(indices.size),
            "matrix_bytes": int(dp.nbytes + bfs.nbytes),
        }
        return n_nodes * n_nodes, busy

    def _spot_checks(self, padded, lengths, dp, n_nodes) -> list[str]:
        """Check 7's spot checks, with the sample drawn from the seed."""
        rng = np.random.default_rng(self.seed)
        failures = []
        for idx in rng.integers(0, n_nodes, size=SPOT_CHECKS):
            i, j = int(idx), int((idx * 131 + 7) % n_nodes)
            a = [int(v) for v in padded[i, : lengths[i]]]
            b = [int(v) for v in padded[j, : lengths[j]]]
            direct = uttertune.kernels.edit_distance(a, b)
            ok = direct == int(dp[i, j])
            if lengths[i] > 0:
                ref = "".join(MORA_INVENTORY[v][0] for v in a)
                hyp = "".join(MORA_INVENTORY[v][0] for v in b)
                ok = ok and abs(
                    uttertune.eval.cer(ref, hyp) - direct / lengths[i]
                ) < 1e-12
            if not ok:
                failures.append(f"spot check ({i}, {j}) disagrees")
        return failures

    def patch(self, tracer) -> list[str]:
        return _patch_all(tracer, [
            (uttertune.kernels, "edit_distance", "kernels.edit_distance",
             None),
            (uttertune.eval, "edit_distance", "kernels.edit_distance", None),
        ])

    def layer_metrics(self, tracer, ops: int) -> dict:
        metrics = {
            f"kernels.{step}_s": _per_op(tracer.total(f"kernels.{step}"), ops)
            for step in ("enumerate_strings", "edit_distance_matrix",
                         "edit_move_graph", "bfs_distance_matrix",
                         "spot_checks")
        }
        metrics["kernels.edit_distance_calls"] = _per_op(
            len(tracer.durations("kernels.edit_distance")), ops)
        metrics["kernels.edit_distance_s"] = _per_op(
            tracer.total("kernels.edit_distance"), ops)
        for key, value in self.sizes.items():
            metrics[f"kernels.{key}"] = value
        return metrics


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload,
                                 DistanceWorkload)}
