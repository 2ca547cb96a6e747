"""Single command-line entry point for the whole workflow.

Subcommands: ``notation parse|render|pitch|morae``, ``corpus build``,
``vocab train``, ``train``, ``generate``, ``eval``, and ``adapter
merge|info``. Every artifact-producing command writes a ``manifest.txt``
next to its output; re-feeding the manifest's config snapshot through
``--config`` reproduces the run.

``--config FILE`` may come before the command (``uttertune --config F
train ...``) or after it (``uttertune train --config F ...``); both forms
produce the same artifacts, and when both are given the one after the
command wins.

Exit codes: 0 success, 1 usage error (including malformed notation
input and a flag value the config schema refuses), 2 data error
(unreadable or inconsistent files, bad config values), 3 numeric failure
during training or generation, 4 evaluation threshold from the config
unmet.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import __version__
from .dataprep import (
    SPEECH_TOKEN_COUNT,
    build_corpus,
    build_eval_sets,
    build_lexicon,
    codes_to_kana,
    codes_to_pitch,
    decode_speech_ids,
    load_corpus,
    save_corpus,
    to_training_examples,
    vocab_training_text,
)
from .errors import NonFiniteLoss, SequenceTooLong, ShapeMismatch, UtterTuneError
from .eval import (
    evaluate_set,
    format_summary,
    leakage_test,
    save_leakage,
    save_report,
)
from .lora import (
    init_adapter,
    load_adapter,
    merge,
    save_adapter,
    trainable_param_count,
)
from .manifest import (
    COMMAND_DEFAULTS,
    CONFIG_CHOICES,
    THRESHOLD_KEYS,
    RunManifest,
    check_config,
    check_value,
    parse_config_file,
    parse_value,
    resolve_config,
    save_manifest,
)
from .model import ToyLM, ToyLMConfig, TrainConfig, generate, pretrain, train_adapter
from .notation import (
    AccentPhrase,
    Mora,
    PhonemeAnnotation,
    parse_annotation,
    phrase_pitch,
    render_annotation,
)
from .tensorio import save_table
from .tokenizer import encode_text, load_vocab, save_vocab, train_bpe

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_THRESHOLD = 4

class _UsageError(Exception):
    pass


def _path(text: str) -> str:
    """argparse type for a path flag: manifests record paths as table
    fields, which hold no tab or newline."""
    if "\t" in text or "\n" in text:
        raise argparse.ArgumentTypeError(f"tab or newline in path {text!r}")
    return text


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# -- shared plumbing -------------------------------------------------------


def _read_text(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read().strip("\n")
    return arg


def _config(args, command) -> dict:
    """The command's config: defaults, then the config file, then flags,
    checked; eval's thresholds come from the file only."""
    file_values = (parse_config_file(args.config)
                   if getattr(args, "config", None) else {})
    defaults = COMMAND_DEFAULTS[command]
    overrides = {k: getattr(args, k, None) for k in defaults}
    config = resolve_config(defaults, file_values, overrides)
    if command == "eval":
        config.update((k, file_values[k]) for k in THRESHOLD_KEYS
                      if k in file_values)
    check_config(config)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# The path flags a manifest records as its inputs, in its row order.
_INPUT_FLAGS = ("corpus", "adapter_corpus", "model", "vocab", "adapter")


def _write_manifest(args, out: Path, command, config, outputs,
                    timings) -> None:
    manifest = RunManifest(
        command=command,
        version=__version__,
        config=config,
        inputs={k: getattr(args, k) for k in _INPUT_FLAGS
                if getattr(args, k, None)},
        outputs={k: str(v) for k, v in outputs.items()},
        timings=timings,
    )
    save_manifest(manifest, out / "manifest.txt")


def _load_model_and_adapter(args):
    """(model, adapter or None, vocabulary), checked against each other."""
    model = ToyLM.load(args.model)
    adapter = None
    if getattr(args, "adapter", None):
        adapter = load_adapter(args.adapter)
        _check_pairing(model, adapter)
    vocab = load_vocab(args.vocab)
    cfg = model.config
    ids = (vocab.total_size, vocab.speech_token_offset, vocab.speech_token_count)
    if ids != (cfg.vocab_size, cfg.speech_offset, cfg.speech_count):
        raise ShapeMismatch(
            f"vocabulary {args.vocab} has {ids[0]} ids with {ids[2]} speech "
            f"ids from {ids[1]}; the model has {cfg.vocab_size} with "
            f"{cfg.speech_count} from {cfg.speech_offset}"
        )
    return model, adapter, vocab


def _check_pairing(model: ToyLM, adapter) -> None:
    spec = adapter.base_spec
    if (spec.n_layers, spec.width) != (model.config.layers, model.config.width):
        raise ShapeMismatch(
            f"adapter was built for a {spec.n_layers}-layer width-{spec.width} "
            f"model, got {model.config.layers} layers at width {model.config.width}"
        )
    if spec.fingerprint != model.fingerprint():
        raise ShapeMismatch(
            f"adapter base fingerprint {spec.fingerprint} does not match "
            f"model fingerprint {model.fingerprint()}"
        )


# -- notation --------------------------------------------------------------


def _cmd_notation(args) -> int:
    try:
        text = _read_text(args.text)
        if args.action == "parse":
            annotation = parse_annotation(text)
            for phrase in annotation.phrases:
                morae = " ".join(m.surface for m in phrase.morae)
                print(f"phrase {morae} nucleus {phrase.nucleus or 0}")
        elif args.action == "render":
            phrases = []
            for line in text.splitlines():
                tokens = line.split()
                if len(tokens) < 4 or tokens[0] != "phrase" or tokens[-2] != "nucleus":
                    raise _UsageError(
                        f"render expects 'phrase <morae...> nucleus <n>' lines, "
                        f"got {line!r}"
                    )
                morae = tuple(Mora(m) for m in tokens[1:-2])
                phrases.append(AccentPhrase(morae, int(tokens[-1]) or None))
            print(render_annotation(PhonemeAnnotation(tuple(phrases))))
        elif args.action == "pitch":
            annotation = parse_annotation(text)
            print(
                " ".join(
                    "".join(phrase_pitch(p)) for p in annotation.phrases
                )
            )
        else:  # morae
            annotation = parse_annotation(text)
            print(
                " / ".join(
                    " ".join(m.surface for m in p.morae)
                    for p in annotation.phrases
                )
            )
    except (UtterTuneError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# -- corpus / vocab ----------------------------------------------------------


def _cmd_corpus_build(args) -> int:
    config = _config(args, "corpus build")
    started = time.perf_counter()
    records = build_corpus(
        build_lexicon(),
        config["sentences"],
        config["tag_fraction"],
        seed=config["seed"],
        kana_fraction=config["kana_fraction"],
    )
    out = _out_dir(args)
    corpus_path = out / "corpus.tsv"
    save_corpus(records, corpus_path)
    elapsed = time.perf_counter() - started
    _write_manifest(args, out, "corpus build", config,
                    {"corpus": corpus_path}, {"total": elapsed})
    print(f"wrote {len(records)} sentences to {corpus_path}")
    return EXIT_OK


def _cmd_vocab_train(args) -> int:
    config = _config(args, "vocab train")
    started = time.perf_counter()
    records = load_corpus(args.corpus)
    texts = vocab_training_text(records, build_lexicon())
    vocab = train_bpe(
        texts,
        config["vocab_size"],
        seed=config["seed"],
        speech_token_count=SPEECH_TOKEN_COUNT,
    )
    out = _out_dir(args)
    vocab_path = out / "vocab.txt"
    save_vocab(vocab, vocab_path)
    elapsed = time.perf_counter() - started
    _write_manifest(args, out, "vocab train", config,
                    {"vocab": vocab_path}, {"total": elapsed})
    print(
        f"vocab: {vocab.total_size} ids = {vocab.base_size} text + 2 tags "
        f"+ {vocab.speech_token_count} speech -> {vocab_path}"
    )
    return EXIT_OK


# -- training -----------------------------------------------------------------


def _training_examples(path, vocab, max_seq: int):
    """A corpus file's training examples, refused with ValueError when it
    holds none and with SequenceTooLong when one packs (input, target and
    end-of-speech) past max_seq."""
    examples = to_training_examples(load_corpus(path), vocab)
    if not examples:
        raise ValueError(f"{path}: the corpus holds no training examples")
    longest = max(len(ex.input_ids) + len(ex.target_ids) + 1
                  for ex in examples)
    if longest > max_seq:
        raise SequenceTooLong(
            f"{path}: a training example packs {longest} tokens > "
            f"max_seq {max_seq}"
        )
    return examples


def _cmd_train(args) -> int:
    config = _config(args, "train")
    vocab = load_vocab(args.vocab)

    model_config = ToyLMConfig(
        vocab_size=vocab.total_size,
        speech_offset=vocab.speech_token_offset,
        speech_count=vocab.speech_token_count,
        layers=config["layers"],
        width=config["width"],
        heads=config["heads"],
        ff_width=config["ff_width"],
        max_seq=config["max_seq"],
        seed=config["model_seed"],
    )
    model = ToyLM.init(model_config)
    pretrain_config = TrainConfig(
        steps=config["pretrain_steps"],
        learning_rate=config["pretrain_lr"],
        warmup_fraction=config["warmup_fraction"],
        batch_size=config["pretrain_batch"],
        seed=config["pretrain_seed"],
    )
    adapter_config = TrainConfig(
        steps=config["steps"],
        learning_rate=config["learning_rate"],
        warmup_fraction=config["warmup_fraction"],
        batch_size=config["batch_size"],
        seed=config["seed"],
    )
    # Built before pretraining so that its checks (rank, dropout, scaling)
    # reject a bad adapter setting at once; it depends on the base only
    # through its shape, and takes the trained base's spec below.
    adapter = init_adapter(
        model.shape_spec(),
        r=config["rank"],
        alpha=config["alpha"],
        dropout_rate=config["dropout"],
        seed=config["seed"],
        scaling=config["scaling"],
    )
    pretrain_examples, adapter_examples = (
        _training_examples(path, vocab, model_config.max_seq)
        for path in (args.corpus, args.adapter_corpus)
    )
    out = _out_dir(args)

    started = time.perf_counter()
    pretrain_curve = pretrain(model, pretrain_examples, pretrain_config)
    pretrain_seconds = time.perf_counter() - started

    adapter.base_spec = model.shape_spec()
    started = time.perf_counter()
    adapter_curve = train_adapter(model, adapter, adapter_examples,
                                  adapter_config)
    adapter_seconds = time.perf_counter() - started

    model_path = out / "base_model.ut"
    adapter_path = out / "adapter.ut"
    model.save(model_path)
    save_adapter(adapter, adapter_path)
    for name, curve in (("pretrain", pretrain_curve), ("adapter", adapter_curve)):
        save_table(out / f"{name}_curve.tsv", "step\tloss", {}, curve)
    _write_manifest(
        args,
        out,
        "train",
        config,
        {
            "base_model": model_path,
            "adapter": adapter_path,
            "pretrain_curve": out / "pretrain_curve.tsv",
            "adapter_curve": out / "adapter_curve.tsv",
        },
        {"pretrain": pretrain_seconds, "adapter": adapter_seconds},
    )
    count, ratio = trainable_param_count(adapter)
    print(
        f"pretrain loss {pretrain_curve[-1][1]:.4f} "
        f"({pretrain_seconds:.1f}s), adapter loss {adapter_curve[-1][1]:.4f} "
        f"({adapter_seconds:.1f}s), trainable {count} params "
        f"(ratio {ratio:.6f})"
    )
    return EXIT_OK


# -- generation ----------------------------------------------------------------


def _cmd_generate(args) -> int:
    config = _config(args, "generate")
    model, adapter, vocab = _load_model_and_adapter(args)
    text = _read_text(args.text)
    started = time.perf_counter()
    prompt = encode_text(text, vocab)
    if len(prompt) >= model.config.max_seq:
        raise SequenceTooLong(
            f"prompt occupies {len(prompt)} of {model.config.max_seq} positions"
        )
    ids = generate(model, [prompt], config["max_new"], adapter=adapter)[0]
    elapsed = time.perf_counter() - started
    codes = decode_speech_ids(ids, vocab.speech_token_offset)
    kana = codes_to_kana(codes)
    pitch = codes_to_pitch(codes)
    print(kana)
    print(pitch)
    ids_text = " ".join(str(i) for i in ids)
    print(ids_text)
    if args.out:
        out = _out_dir(args)
        gen_path = out / "generation.tsv"
        save_table(gen_path, "text\tids\tkana\tpitch", {},
                   [(text, ids_text, kana, pitch)])
        _write_manifest(args, out, "generate", config,
                        {"generation": gen_path}, {"total": elapsed})
    return EXIT_OK


# -- evaluation -----------------------------------------------------------------


def _cmd_eval(args) -> int:
    config = _config(args, "eval")
    if args.leakage and not args.adapter:
        raise _UsageError("eval --leakage requires --adapter")
    model, adapter, vocab = _load_model_and_adapter(args)
    out = _out_dir(args)

    started = time.perf_counter()
    sets = build_eval_sets(
        build_lexicon(),
        seed=config["seed"],
        n_test_1=config["n_test_1"],
        n_test_2=config["n_test_2"],
        n_leakage=config["n_leakage"] if args.leakage else 0,
    )
    report = evaluate_set(
        model,
        vocab,
        sets.test_set_2,
        config["mode"],
        adapter=adapter,
        max_new=config["max_new"],
    )
    report_path = out / f"report_{config['mode']}.tsv"
    save_report(report, report_path)
    print(format_summary(report))

    failures = []
    if config["mode"] == "tagged" and "tagged_accent_min" in config:
        if report.accent_rate < config["tagged_accent_min"]:
            failures.append(
                f"accent correctness {report.accent_rate:.4f} "
                f"< tagged_accent_min {config['tagged_accent_min']}"
            )
    if config["mode"] == "kana" and "kana_cer_max" in config:
        if report.n_excluded == report.n_items:
            failures.append(f"CER undefined: all {report.n_items} items excluded")
        elif report.mean_cer > config["kana_cer_max"]:
            failures.append(
                f"CER {report.mean_cer:.4f} > kana_cer_max "
                f"{config['kana_cer_max']}"
            )

    outputs = {"report": report_path}
    if args.leakage:
        result = leakage_test(
            model,
            vocab,
            sets.leakage_set,
            adapter,
            resamples=config["resamples"],
            seed=config["seed"],
            max_new=config["max_new"],
        )
        leakage_path = out / "leakage.tsv"
        save_leakage(result, leakage_path)
        outputs["leakage"] = leakage_path
        print(
            f"leakage: baseline {result.baseline_rate:.3f} adapted "
            f"{result.adapted_rate:.3f} diff {result.difference:+.3f} "
            f"CI [{result.ci_low:+.3f}, {result.ci_high:+.3f}]"
        )
        if "leakage_halfwidth_max" in config:
            halfwidth = (result.ci_high - result.ci_low) / 2.0
            if not (
                result.ci_low <= 0.0 <= result.ci_high
                and halfwidth <= config["leakage_halfwidth_max"]
            ):
                failures.append(
                    f"leakage CI [{result.ci_low:+.4f}, {result.ci_high:+.4f}] "
                    f"must contain 0 with half-width <= "
                    f"{config['leakage_halfwidth_max']}"
                )
    elapsed = time.perf_counter() - started

    _write_manifest(args, out, "eval", config, outputs, {"total": elapsed})
    for failure in failures:
        print(f"threshold unmet: {failure}", file=sys.stderr)
    return EXIT_THRESHOLD if failures else EXIT_OK


# -- adapter management ------------------------------------------------------------


def _cmd_adapter_merge(args) -> int:
    model = ToyLM.load(args.model)
    adapter = load_adapter(args.adapter)
    _check_pairing(model, adapter)
    out = _out_dir(args)
    merged = ToyLM(model.config,
                   merge(adapter, model.weights, model.config.tag_ids))
    merged_path = out / "merged_model.ut"
    merged.save(merged_path)
    _write_manifest(args, out, "adapter merge", {},
                    {"merged_model": merged_path}, {})
    print(f"merged model {merged.fingerprint()} -> {merged_path}")
    return EXIT_OK


def _cmd_adapter_info(args) -> int:
    adapter = load_adapter(args.adapter)
    count, ratio = trainable_param_count(adapter)
    print(f"r={adapter.rank}")
    print(f"alpha={adapter.alpha:g}")
    print(f"dropout={adapter.dropout_rate:g}")
    print(f"scaling={adapter.scaling}")
    print(f"seed={adapter.seed}")
    print(f"layers={len(adapter.layers)}")
    print(f"trainable_params={count}")
    print(f"trainable_ratio={ratio:.6f}")
    print(f"base_fingerprint={adapter.base_spec.fingerprint}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def _add_config_flag(parser) -> None:
    # SUPPRESS leaves the attribute unset when the flag is absent, so a
    # subcommand copy never overwrites the global one with None.
    parser.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS,
        help="key = value config file; may come before or after the command",
    )


def _key_value(key: str, text: str):
    """argparse type of a config key's flag: the value as the config schema
    parses and checks it, so a value it refuses is a usage error."""
    try:
        value = parse_value(key, text)
        check_value(key, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_key_flags(parser, keys, **help) -> None:
    """Add --key (dashes for underscores) per config key, with help[key]."""
    for key in keys:
        choices = CONFIG_CHOICES.get(key)
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, help=help.get(key),
            type=functools.partial(_key_value, key),
            metavar="{" + ",".join(choices) + "}" if choices else None,
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="uttertune", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    _add_config_flag(parser)
    sub = parser.add_subparsers(dest="group", required=True, metavar="command")

    notation = sub.add_parser("notation", help="annotation utilities")
    nsub = notation.add_subparsers(dest="action", required=True)
    for action, blurb in (
        ("parse", "annotation -> one structural line per phrase"),
        ("render", "structural lines -> annotation"),
        ("pitch", "annotation -> H/L string per phrase"),
        ("morae", "annotation -> mora segmentation"),
    ):
        p = nsub.add_parser(action, help=blurb)
        p.add_argument("text", nargs="?",
                       help="input; omit or '-' to read stdin")
        p.set_defaults(func=_cmd_notation)

    corpus = sub.add_parser("corpus", help="synthetic corpus")
    csub = corpus.add_subparsers(dest="action", required=True)
    build = csub.add_parser("build", help="sample sentences from the lexicon")
    _add_config_flag(build)
    _add_key_flags(build, ("sentences", "tag_fraction", "kana_fraction", "seed"))
    build.add_argument("--out", required=True, type=_path, metavar="DIR")
    build.set_defaults(func=_cmd_corpus_build)

    vocab = sub.add_parser("vocab", help="subword vocabulary")
    vsub = vocab.add_subparsers(dest="action", required=True)
    vtrain = vsub.add_parser("train", help="learn BPE merges from a corpus")
    _add_config_flag(vtrain)
    vtrain.add_argument("--corpus", required=True, type=_path,
                        metavar="FILE")
    _add_key_flags(vtrain, ("vocab_size", "seed"))
    vtrain.add_argument("--out", required=True, type=_path, metavar="DIR")
    vtrain.set_defaults(func=_cmd_vocab_train)

    train = sub.add_parser(
        "train", help="pretrain the base model, then train an adapter"
    )
    _add_config_flag(train)
    train.add_argument("--corpus", required=True, type=_path, metavar="FILE",
                       help="pretraining corpus")
    train.add_argument("--adapter-corpus", required=True, type=_path,
                       metavar="FILE", dest="adapter_corpus",
                       help="adapter training corpus")
    train.add_argument("--vocab", required=True, type=_path, metavar="FILE")
    _add_key_flags(train, ("seed", "steps", "rank", "alpha", "dropout", "scaling"),
                   seed="adapter init/training seed",
                   steps="adapter training steps")
    train.add_argument("--out", required=True, type=_path, metavar="DIR")
    train.set_defaults(func=_cmd_train)

    gen = sub.add_parser("generate", help="text -> speech tokens, greedy")
    _add_config_flag(gen)
    gen.add_argument("--model", required=True, type=_path, metavar="FILE")
    gen.add_argument("--vocab", required=True, type=_path, metavar="FILE")
    gen.add_argument("--adapter", type=_path, metavar="FILE")
    gen.add_argument("--text", help="input text; omit to read stdin")
    _add_key_flags(gen, ("max_new",))
    gen.add_argument("--out", type=_path, metavar="DIR")
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("eval", help="held-out evaluation")
    _add_config_flag(ev)
    ev.add_argument("--model", required=True, type=_path, metavar="FILE")
    ev.add_argument("--vocab", required=True, type=_path, metavar="FILE")
    ev.add_argument("--adapter", type=_path, metavar="FILE")
    _add_key_flags(ev, ("mode", "seed", "max_new"))
    ev.add_argument("--leakage", action="store_true",
                    help="also run the untagged-word leakage test")
    ev.add_argument("--out", required=True, type=_path, metavar="DIR")
    ev.set_defaults(func=_cmd_eval)

    adapter = sub.add_parser("adapter", help="adapter management")
    asub = adapter.add_subparsers(dest="action", required=True)
    amerge = asub.add_parser("merge", help="bake an adapter into base weights")
    amerge.add_argument("--model", required=True, type=_path,
                        metavar="FILE")
    amerge.add_argument("--adapter", required=True, type=_path,
                        metavar="FILE")
    amerge.add_argument("--out", required=True, type=_path, metavar="DIR")
    amerge.set_defaults(func=_cmd_adapter_merge)
    ainfo = asub.add_parser("info", help="print adapter hyperparameters")
    ainfo.add_argument("--adapter", required=True, type=_path,
                       metavar="FILE")
    ainfo.set_defaults(func=_cmd_adapter_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteLoss, SequenceTooLong) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UtterTuneError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
