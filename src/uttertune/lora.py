"""Low-rank adapters over frozen attention projections.

Each adapted projection W (d x k) carries a factor pair: B (d x r) drawn
from N(0, 0.02^2) and C (r x k) zeroed, so the update BC is exactly zero
at initialization and the adapted model is transparent. The effective
weight is W + alpha * BC taken literally; a normalized mode scaling by
alpha / r is selectable per adapter and recorded in its file.

Tag-token embeddings are handled as trainable deltas over the base
model's (randomly initialized, never pretrained) tag rows: zero at init,
which is what makes step-0 transparency exact while the trained rows
remain free to move.

A LoraAdapter is the adapter's only storage. Its file, the forward pass and
the optimizer read it as named tensors (factor_names, TAG_DELTAS) through
LoraAdapter.tensors(); init_adapter and load_adapter build it from such a
dict through _from_tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptFile, InvalidRank, ShapeMismatch
from .tensorio import load_tensors, save_tensors

PROJECTIONS = ("q", "k", "v", "o")
SCALING_MODES = ("literal", "normalized")
TAG_DELTAS = "tag_deltas"


@dataclass(frozen=True)
class BaseShapeSpec:
    """What the adapter needs to know about the frozen base model."""

    n_layers: int
    width: int
    base_param_count: int
    fingerprint: str = ""

    def __post_init__(self):
        for name in ("n_layers", "width", "base_param_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _targets(base_spec: BaseShapeSpec) -> list[str]:
    """Every Q/K/V/O projection of the base model, in order."""
    return [f"L{i}.{p}" for i in range(base_spec.n_layers) for p in PROJECTIONS]


def factor_names(target: str) -> tuple[str, str]:
    """The names of target's B and C factors."""
    return f"{target}.B", f"{target}.C"


@dataclass
class LoraLayer:
    target: str
    B: np.ndarray
    C: np.ndarray
    rank: int
    alpha: float
    dropout_rate: float


@dataclass
class LoraAdapter:
    layers: list[LoraLayer]
    tag_deltas: np.ndarray  # (2, width): PHON_START row, PHON_END row
    rank: int
    alpha: float
    dropout_rate: float
    scaling: str
    seed: int
    base_spec: BaseShapeSpec

    def __post_init__(self):
        _check_rank(self.rank, self.base_spec.width)
        if self.scaling not in SCALING_MODES:
            raise ValueError(f"scaling must be one of {SCALING_MODES}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(
                f"dropout_rate must be in [0,1), got {self.dropout_rate}"
            )
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.tag_deltas.shape != (2, self.base_spec.width):
            raise ShapeMismatch(
                f"tag deltas shape {self.tag_deltas.shape} != (2, {self.base_spec.width})"
            )
        if [layer.target for layer in self.layers] != _targets(self.base_spec):
            raise ShapeMismatch("adapter must cover every Q/K/V/O projection in order")
        d, r = self.base_spec.width, self.rank
        for layer in self.layers:
            for name in ("rank", "alpha", "dropout_rate"):
                mine, adapters = getattr(layer, name), getattr(self, name)
                if mine != adapters:
                    raise ValueError(f"{layer.target}: {name} {mine!r} "
                                     f"!= the adapter's {adapters!r}")
            if layer.B.shape != (d, r) or layer.C.shape != (r, d):
                raise ShapeMismatch(
                    f"{layer.target}: factors B {layer.B.shape} and C "
                    f"{layer.C.shape}, expected ({d}, {r}) and ({r}, {d})"
                )

    def scale(self) -> float:
        return self.alpha / self.rank if self.scaling == "normalized" else self.alpha

    def tensors(self) -> dict[str, np.ndarray]:
        """The adapter's own arrays (not copies) by name, in file order:
        each target's B, then its C, then the tag deltas."""
        out = {}
        for layer in self.layers:
            out.update(zip(factor_names(layer.target), (layer.B, layer.C)))
        out[TAG_DELTAS] = self.tag_deltas
        return out


def _from_tensors(tensors, base_spec, rank, alpha, dropout_rate, scaling,
                  seed) -> LoraAdapter:
    """The adapter holding the arrays of tensors, named as tensors() names
    them; a missing name raises KeyError."""
    layers = [
        LoraLayer(target, *(tensors[name] for name in factor_names(target)),
                  rank, alpha, dropout_rate)
        for target in _targets(base_spec)
    ]
    return LoraAdapter(layers, tensors[TAG_DELTAS], rank, alpha, dropout_rate,
                       scaling, seed, base_spec)


def _check_rank(rank: int, width: int) -> None:
    """Raise InvalidRank unless 1 <= rank <= width: every adapted projection
    is width x width."""
    if not 1 <= rank <= width:
        raise InvalidRank(f"rank {rank} outside [1, {width}], the model width")


def init_adapter(
    base_spec: BaseShapeSpec,
    r: int = 16,
    alpha: float = 64.0,
    dropout_rate: float = 0.05,
    seed: int = 0,
    scaling: str = "literal",
) -> LoraAdapter:
    """Fresh adapter: B random (std 0.02), C zero, tag deltas zero."""
    # Checked before the draw, which allocates width x r values per factor.
    _check_rank(r, base_spec.width)
    rng = np.random.default_rng(seed)
    d = base_spec.width
    tensors = {}
    for target in _targets(base_spec):
        b_name, c_name = factor_names(target)
        tensors[b_name] = rng.normal(0.0, 0.02, size=(d, r)).astype(np.float32)
        tensors[c_name] = np.zeros((r, d), dtype=np.float32)
    tensors[TAG_DELTAS] = np.zeros((2, d), dtype=np.float32)
    return _from_tensors(tensors, base_spec, r, alpha, dropout_rate, scaling,
                         seed)


def trainable_param_count(adapter: LoraAdapter) -> tuple[int, float]:
    """(trainable parameter count, ratio against the base model)."""
    count = sum(array.size for array in adapter.tensors().values())
    return count, count / adapter.base_spec.base_param_count


def merge(
    adapter: LoraAdapter,
    weights: dict[str, np.ndarray],
    tag_token_ids: tuple[int, int],
) -> dict[str, np.ndarray]:
    """Bake the adapter into a copy of the base weights.

    Projection matrices get W + scale*BC; the embedding rows of the two
    tag tokens get their deltas. Accumulation runs in float64 and each
    result keeps its weight's dtype; ToyLM's constructor rounds a merged
    model through float32.
    """
    out = {name: w.copy() for name, w in weights.items()}
    scale = adapter.scale()
    for layer in adapter.layers:
        W = out[layer.target]
        update = np.float64(scale) * (
            layer.B.astype(np.float64) @ layer.C.astype(np.float64)
        )
        out[layer.target] = (W.astype(np.float64) + update).astype(W.dtype)
    embed = out["embed"]
    for row, tid in enumerate(tag_token_ids):
        embed[tid] = (
            embed[tid].astype(np.float64)
            + adapter.tag_deltas[row].astype(np.float64)
        ).astype(embed.dtype)
    return out


# An adapter file's first line and header keys.
_ADAPTER_MAGIC = "uttertune-adapter v1"
_ADAPTER_KEYS = ("rank", "alpha", "dropout", "scaling", "seed", "base_layers",
                 "base_width", "base_params", "base_fingerprint")


def save_adapter(adapter: LoraAdapter, path) -> None:
    spec = adapter.base_spec
    values = (adapter.rank, repr(float(adapter.alpha)),
              repr(float(adapter.dropout_rate)), adapter.scaling, adapter.seed,
              spec.n_layers, spec.width, spec.base_param_count,
              spec.fingerprint)
    save_tensors(path, _ADAPTER_MAGIC, dict(zip(_ADAPTER_KEYS, values)),
                 adapter.tensors())


def load_adapter(path) -> LoraAdapter:
    header, tensors = load_tensors(path, _ADAPTER_MAGIC, _ADAPTER_KEYS)
    try:
        base_spec = BaseShapeSpec(
            n_layers=int(header["base_layers"]),
            width=int(header["base_width"]),
            base_param_count=int(header["base_params"]),
            fingerprint=header["base_fingerprint"],
        )
        adapter = _from_tensors(
            tensors, base_spec, int(header["rank"]), float(header["alpha"]),
            float(header["dropout"]), header["scaling"], int(header["seed"]),
        )
    except KeyError as missing:
        raise CorruptFile(f"{path}: missing tensor {missing}") from None
    except ValueError as exc:
        raise CorruptFile(f"{path}: bad header value: {exc}") from None
    read = adapter.tensors()
    unread = [name for name in tensors if name not in read]
    if unread:
        raise CorruptFile(f"{path}: tensor {unread[0]!r} is not one the "
                          f"adapter reads")
    return adapter
