"""Run manifests, config files and the config schema.

``COMMAND_DEFAULTS`` is the one list of config keys: each command's keys
with their defaults, from which ``CONFIG_KEYS`` takes each key's type.
``parse_value`` and ``check_value`` are the one rule for a key's values,
whether they come from a flag, a config file or a manifest.

Every artifact-producing command writes a ``manifest.txt`` next to its
output, a ``tensorio`` table: the command and tool version as header
keys, then one ``(section, name, value)`` row per entry, in the sections
``config`` (the resolved config snapshot), ``input`` and ``output``
(paths) and ``timing`` (wall-clock seconds). ``manifest_config_text``
turns the config section back into ``key = value`` config-file syntax,
so a run can be reproduced by feeding it through ``--config``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CorruptFile
from .eval import EVAL_MODES
from .lora import SCALING_MODES
from .tensorio import load_table, save_table

_MAGIC = "uttertune-manifest v2"
_SECTIONS = ("config", "input", "output", "timing")

# Every key a config file may define, with its built-in default, under
# the command (as a manifest records it) that consumes it. A key may serve
# several commands, so one file can drive a whole pipeline.
COMMAND_DEFAULTS: dict[str, dict[str, int | float | str]] = {
    "corpus build": {
        "sentences": 400,
        "tag_fraction": 0.0,
        "kana_fraction": 0.0,
        "seed": 0,
    },
    "vocab train": {"vocab_size": 180, "seed": 0},
    "train": {
        # model shape
        "width": 64,
        "layers": 2,
        "heads": 4,
        "ff_width": 256,
        "max_seq": 256,
        "model_seed": 0,
        # base-model pretraining
        "pretrain_steps": 3000,
        "pretrain_lr": 3e-4,
        "pretrain_batch": 8,
        "pretrain_seed": 0,
        "warmup_fraction": 0.1,
        # adapter training
        "steps": 3000,
        "learning_rate": 1e-3,
        "batch_size": 8,
        "rank": 16,
        "alpha": 64.0,
        "dropout": 0.05,
        "scaling": "literal",
        "seed": 0,
    },
    "generate": {"max_new": 40},
    "eval": {
        "mode": "plain",
        "seed": 0,
        "n_test_1": 48,
        "n_test_2": 120,
        "n_leakage": 240,
        "max_new": 40,
        "resamples": 10_000,
    },
}

# Pass/fail bounds that eval checks only when the config file sets them.
THRESHOLD_KEYS = ("tagged_accent_min", "kana_cer_max", "leakage_halfwidth_max")

# Each key's value type: its default's type; thresholds are floats.
CONFIG_KEYS: dict[str, type] = {
    **{key: type(value) for defaults in COMMAND_DEFAULTS.values()
       for key, value in defaults.items()},
    **dict.fromkeys(THRESHOLD_KEYS, float),
}

# The values each bounded key accepts, as a test and the rule it states.
# A rule that involves two keys (rank <= width, tag_fraction +
# kana_fraction <= 1) is the library's to check.
_at_least_1 = (lambda v: v >= 1, ">= 1")
_finite = (math.isfinite, "finite")
_fraction = (lambda v: 0 <= v <= 1, "in [0, 1]")
_rate = (lambda v: 0 < v < math.inf, "finite and > 0")
_BOUNDS = {
    **dict.fromkeys(("max_new", "n_test_1", "n_test_2", "n_leakage",
                     "sentences", "steps", "rank"), _at_least_1),
    # The bootstrap holds one float64 difference per resample: 8 MB at the
    # cap, 100x the desk's count. A count past memory would fail to
    # allocate mid-eval, after the reports were written.
    "resamples": (lambda v: 1 <= v <= 1_000_000, "in [1, 1000000]"),
    **dict.fromkeys(("seed", "model_seed", "pretrain_seed"),
                    (lambda v: v >= 0, ">= 0")),
    "tag_fraction": _fraction,
    "kana_fraction": _fraction,
    "warmup_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "learning_rate": _rate,
    "pretrain_lr": _rate,
    "alpha": _finite,
    "dropout": (lambda v: 0 <= v < 1, "in [0, 1)"),
    **dict.fromkeys(THRESHOLD_KEYS, _finite),
}

# The values a key that names a choice accepts.
CONFIG_CHOICES = {"mode": EVAL_MODES, "scaling": SCALING_MODES}


def parse_value(key: str, text: str) -> int | float | str:
    """text as key's type; ValueError naming both."""
    kind = CONFIG_KEYS[key]
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"bad {kind.__name__} value {text!r} for {key}") from None


def check_value(key: str, value) -> None:
    """ValueError for a value outside key's bounds or its choices."""
    if key in _BOUNDS:
        accepts, rule = _BOUNDS[key]
        if not accepts(value):
            raise ValueError(f"config {key} must be {rule}, got {value}")
    if key in CONFIG_CHOICES and value not in CONFIG_CHOICES[key]:
        raise ValueError(
            f"config {key} must be one of {CONFIG_CHOICES[key]}, got {value!r}"
        )


def check_config(config) -> None:
    for key, value in config.items():
        check_value(key, value)


def parse_config_file(path) -> dict[str, int | float | str]:
    """Read ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, int | float | str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = (part.strip() for part in line.partition("="))
            if eq != "=" or not key or not text:
                raise CorruptFile(f"{path}:{lineno}: expected 'key = value'")
            if key not in CONFIG_KEYS:
                raise CorruptFile(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise CorruptFile(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                values[key] = parse_value(key, text)
            except ValueError as exc:
                raise CorruptFile(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(defaults, file_values, overrides) -> dict:
    """Layer values: built-in defaults, then config file, then flags.

    The file's keys outside ``defaults`` are ignored; ``overrides`` has
    keys from ``defaults`` only, and ``None`` means the flag was not given.
    """
    resolved = dict(defaults)
    for key, value in file_values.items():
        if key in resolved:
            resolved[key] = value
    for key, value in overrides.items():
        if value is not None:
            resolved[key] = value
    return resolved


@dataclass(frozen=True)
class RunManifest:
    command: str
    version: str
    config: dict[str, int | float | str] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)


def save_manifest(manifest: RunManifest, path) -> None:
    entries = (manifest.config, manifest.inputs, manifest.outputs,
               {name: f"{seconds:.3f}"
                for name, seconds in manifest.timings.items()})
    rows = [(section, name, value)
            for section, values in zip(_SECTIONS, entries)
            for name, value in values.items()]
    save_table(path, _MAGIC,
               {"command": manifest.command, "version": manifest.version}, rows)


def load_manifest(path) -> RunManifest:
    header, rows = load_table(path, _MAGIC, ("command", "version"), 3)
    sections: dict[str, dict[str, str]] = {s: {} for s in _SECTIONS}
    for section, name, value in rows:
        if section not in sections:
            raise CorruptFile(f"{path}: unknown manifest section {section!r}")
        if section == "config" and name not in CONFIG_KEYS:
            raise CorruptFile(f"{path}: unknown config key {name!r}")
        if name in sections[section]:
            raise CorruptFile(f"{path}: duplicate {section} name {name!r}")
        sections[section][name] = value
    if not header["command"]:
        raise CorruptFile(f"{path}: manifest names no command")
    try:
        config = {k: parse_value(k, v) for k, v in sections["config"].items()}
        timings = {k: float(v) for k, v in sections["timing"].items()}
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from None
    return RunManifest(header["command"], header["version"], config,
                       sections["input"], sections["output"], timings)


def manifest_config_text(manifest: RunManifest) -> str:
    """The config snapshot in config-file syntax, for reproduction."""
    return "".join(f"{k} = {v}\n" for k, v in manifest.config.items())
