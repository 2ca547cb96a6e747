"""Desk-scale decoder-only LM over the joint text+speech id space.

Architecture: learned absolute positions, pre-norm blocks, multi-head
causal attention with Q/K/V/O projections (the LoRA attach points), GELU
feed-forward, untied output head. Everything is numpy with hand-written
reverse-mode gradients. The weights are float64 in memory and hold
float32 values: the constructor rounds what it is given through float32,
and pretrain rounds its float64 masters back once at the end. Training,
the loss, the gradient check and ToyLM.forward run in float64 and read
them as they are; decoding runs the same forward in float32, on an exact
cast of them made once per generate call. Files hold float32, and the
fingerprint hashes those bytes.
pretrain and train_adapter share one AdamW loop; only what trains differs
(every base weight, or the adapter's factors and tag deltas). The trainable
values, their gradient and both moments are each one flat float64 vector
with a view per name: the backward pass adds into the gradient's views,
the clip norm sums each view whole, and the update works in place on
cache-sized blocks of the vectors, cut where weight decay starts or stops.

The adapter path is computed separately from the frozen path
(x @ W + scale * ((dropout(x)) @ B) @ C) so adapter-input dropout has a
well-defined place and zero-initialized C keeps step-0 logits bitwise
equal to the base model's.

Every forward, in training, in ToyLM.forward and in decoding, is one call
of _forward_batch over a right-padded (N, T) id batch that names the flat
rows whose logits it wants (out_rows), in the dtype of the weights it is
given: the causal mask is added in place, dropout masks take that dtype
and every constant is a Python float, so nothing upcasts. Pad rows sit
after every real position, so causal attention gives them zero weight and
they cannot affect a real row. The embedding, the layer norms before
attention, the Q/K/V/O projections (and their dropout draws) and attention
run on the padded layout in every layer; the feed-forward block of every
layer but the last runs on the real rows (gathered, and scattered back
with zeros at the pad rows); the last layer's second norm and feed-forward
block, the final norm and the head run at out_rows only. A training step
asks for the speech-target rows the loss reads, ToyLM.forward for every
position, and a decode step for each row's last position. GELU is the tanh
form, in row blocks that stay in cache through its chain of elementwise
ops; the backward pass reuses the forward tanh. A forward that no backward
follows (ToyLM.forward, decoding) keeps no feed-forward activations: GELU
overwrites the first feed-forward layer's output, with one block of tanh
scratch.

Generation is greedy and constrained to the speech-token range: the
model's job after a text prompt is to emit speech codes, each step takes
the argmax over that range, and the end-of-speech id (last id of the
range) terminates it. generate is the one decoder, used by eval and by the
generate command alike. Prompts of equal length share a batch, which runs
the prompts once and then one token per row and step; the forward, called
without rows, keeps each layer's keys and values and nothing else, and the
next step takes them back as past. Rows that emit end-of-speech drop out.

The weight table (_weight_shapes) names every tensor with its shape; the
constructor checks a loaded model against it, and init and fingerprint
walk it in order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CorruptFile, NonFiniteLoss, SequenceTooLong, ShapeMismatch
from .lora import PROJECTIONS, TAG_DELTAS, BaseShapeSpec, LoraAdapter, factor_names
from .tensorio import load_tensors, save_tensors

_LN_EPS = 1e-5
_NEG_INF = -1e30
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# Values per block of the elementwise GELU chain: 64 rows at ff 1,024, so
# that a block's operands stay in the L2 cache from one op to the next.
_GELU_BLOCK = 65536


@dataclass(frozen=True)
class ToyLMConfig:
    vocab_size: int
    speech_offset: int
    speech_count: int
    layers: int = 2
    width: int = 64
    heads: int = 4
    ff_width: int = 256
    max_seq: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("layers", "width", "heads", "ff_width", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.width % self.heads != 0:
            raise ValueError("width must be divisible by heads")
        if not 0 <= self.speech_offset < self.vocab_size:
            raise ValueError("speech_offset outside vocab")
        if self.speech_offset + self.speech_count > self.vocab_size:
            raise ValueError("speech range exceeds vocab")

    @property
    def eos_id(self) -> int:
        return self.speech_offset + self.speech_count - 1

    @property
    def tag_ids(self) -> tuple[int, int]:
        """The phoneme start and end tag ids, just below the speech ids."""
        return (self.speech_offset - 2, self.speech_offset - 1)


# A model file's first line and header keys: the config, field by field.
_MODEL_MAGIC = "uttertune-model v1"
_MODEL_KEYS = tuple(f.name for f in fields(ToyLMConfig))


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 3000
    learning_rate: float = 1e-4
    warmup_fraction: float = 0.10
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in (0,1)")
        lr = self.learning_rate
        if not 0.0 < lr < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {lr}")
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainingExample:
    input_ids: tuple[int, ...]
    target_ids: tuple[int, ...]

    def __post_init__(self):
        if not self.input_ids:
            raise ValueError("input_ids must be non-empty")


def _weight_shapes(cfg: ToyLMConfig) -> dict[str, tuple[int, ...]]:
    """Every weight's shape, by name, in the order init draws them."""
    d, ff = cfg.width, cfg.ff_width
    shapes = {"embed": (cfg.vocab_size, d), "pos": (cfg.max_seq, d)}
    for i in range(cfg.layers):
        shapes.update({f"L{i}.ln1.g": (d,), f"L{i}.ln1.b": (d,)})
        shapes.update({f"L{i}.{p}": (d, d) for p in PROJECTIONS})
        shapes.update({f"L{i}.ln2.g": (d,), f"L{i}.ln2.b": (d,),
                       f"L{i}.ff1": (d, ff), f"L{i}.ff1b": (ff,),
                       f"L{i}.ff2": (ff, d), f"L{i}.ff2b": (d,)})
    shapes.update({"lnf.g": (d,), "lnf.b": (d,), "head": (d, cfg.vocab_size)})
    return shapes


# Matmul weights and the adapter's factors get weight decay; embeddings,
# norms, biases and tag deltas do not. Keyed by a name's last component.
_DECAYED = frozenset(PROJECTIONS + ("ff1", "ff2", "head", "B", "C"))


class ToyLM:
    def __init__(self, config: ToyLMConfig, weights: dict[str, np.ndarray]):
        self.config = config
        shapes = _weight_shapes(config)
        if list(weights) != list(shapes):
            raise ShapeMismatch("weight table does not match the architecture")
        for name, shape in shapes.items():
            if weights[name].shape != shape:
                raise ShapeMismatch(f"weight {name}: expected shape {shape}, "
                                    f"found {weights[name].shape}")
        self.weights = {name: np.asarray(w, np.float32).astype(np.float64)
                        for name, w in weights.items()}

    # -- construction and persistence -----------------------------------

    @classmethod
    def init(cls, config: ToyLMConfig) -> "ToyLM":
        """Matrices from N(0, 0.02^2), in table order; norm gains one,
        norm and feed-forward biases zero."""
        rng = np.random.default_rng(config.seed)
        weights = {}
        for name, shape in _weight_shapes(config).items():
            if len(shape) == 2:
                weights[name] = rng.normal(0.0, 0.02, size=shape)
            else:
                weights[name] = np.full(shape, name.endswith(".g"), np.float32)
        return cls(config, weights)

    def param_count(self) -> int:
        return sum(int(w.size) for w in self.weights.values())

    def shape_spec(self) -> BaseShapeSpec:
        return BaseShapeSpec(
            n_layers=self.config.layers,
            width=self.config.width,
            base_param_count=self.param_count(),
            fingerprint=self.fingerprint(),
        )

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in _weight_shapes(self.config):
            h.update(name.encode("utf-8"))
            h.update(self.weights[name].astype(np.float32).tobytes())
        return h.hexdigest()[:16]

    def save(self, path) -> None:
        header = {key: getattr(self.config, key) for key in _MODEL_KEYS}
        save_tensors(path, _MODEL_MAGIC, header,
                     {name: w.astype(np.float32)
                      for name, w in self.weights.items()})

    @classmethod
    def load(cls, path) -> "ToyLM":
        header, tensors = load_tensors(path, _MODEL_MAGIC, _MODEL_KEYS)
        try:
            config = ToyLMConfig(**{key: int(value)
                                    for key, value in header.items()})
        except ValueError as exc:
            raise CorruptFile(f"{path}: bad header value: {exc}") from None
        return cls(config, tensors)

    # -- public forward/loss ---------------------------------------------

    def forward(self, ids, adapter: LoraAdapter | None = None) -> np.ndarray:
        """Logits (len(ids), vocab) for one sequence, causal, no dropout."""
        ids = _checked_ids(ids, self.config, "ids")
        logits, _ = _forward_batch(
            self.weights, self.config, ids[None, :], np.arange(ids.size),
            _adapter_params(adapter, np.float64), None,
        )
        return logits

    def loss(self, examples, adapter: LoraAdapter | None = None) -> float:
        """Mean next-token cross-entropy over speech positions only."""
        value, _ = _loss_forward(
            self.weights, self.config, examples,
            _adapter_params(adapter, np.float64), None,
        )
        return float(value)


def _checked_ids(ids, cfg: ToyLMConfig, what: str) -> np.ndarray:
    """ids as int64, or an error naming what unless it is a non-empty 1-D
    sequence of at most max_seq integer ids in [0, vocab_size)."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"{what} is not a non-empty id sequence")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"{what} holds non-integer ids, dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"{what} holds ids outside [0, {cfg.vocab_size})")
    if ids.size > cfg.max_seq:
        raise SequenceTooLong(
            f"{what}: {ids.size} ids exceed max_seq {cfg.max_seq}")
    return ids.astype(np.int64, copy=False)


# -- adapter helpers --------------------------------------------------------


def _adapter_params(adapter: LoraAdapter | None, dtype):
    """(adapter.tensors() cast to dtype, scale, dropout_rate) or None. An
    array that already has dtype is the adapter's own, not a copy."""
    if adapter is None:
        return None
    params = {name: array.astype(dtype, copy=False)
              for name, array in adapter.tensors().items()}
    return params, float(adapter.scale()), float(adapter.dropout_rate)


def _block_rows(x):
    """Rows of x (along its first axis) per block of about _GELU_BLOCK
    values."""
    return max(1, _GELU_BLOCK * len(x) // max(x.size, 1))


def _gelu(x, keep=True):
    """(GELU(x), t) with t = tanh(u), which _gelu_backward reuses.

    Runs in row blocks of about _GELU_BLOCK values, so that a block's x, t
    and output stay in cache through the chain of ops; every op is
    elementwise, so the bits are those of the whole-array form. With keep
    false, for a forward that no backward follows, GELU(x) is written over
    x and t lives in one block of scratch: (x, None) comes back, from the
    same ops in the same order, so with the same bits.
    """
    step = _block_rows(x)
    if keep:
        y, t = np.empty_like(x), np.empty_like(x)
    else:
        y, t = x, np.empty_like(x[:step])
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        xb, yb = x[rows], y[rows]
        tb = t[rows] if keep else t[: len(xb)]
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= _GELU_A
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        # t + 1 goes where it overwrites nothing still to be read.
        sb = yb if keep else tb
        np.add(tb, 1.0, out=sb)
        np.multiply(xb, sb, out=yb)
        yb *= 0.5
    return y, (t if keep else None)


def _gelu_backward(dy, x, t):
    """dy * GELU'(x), given the forward pass's t = tanh(u), in the row
    blocks of _gelu.

    GELU'(x) = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2). The factor
    0.5 is applied once at the end; scaling by a power of two is exact, so
    the result carries the same bits as the term-by-term form.
    """
    step = _block_rows(x)
    s, g = np.empty_like(x), np.empty_like(x[:step])
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        xb, tb, sb = x[rows], t[rows], s[rows]
        gb = g[: len(xb)]
        np.multiply(xb, 3.0 * _GELU_A, out=gb)
        gb *= xb
        gb += 1.0
        np.multiply(tb, tb, out=sb)
        np.subtract(1.0, sb, out=sb)
        sb *= xb
        sb *= _GELU_C
        sb *= gb
        np.add(tb, 1.0, out=gb)
        sb += gb
        sb *= 0.5
        sb *= dy[rows]
    return s


def _mean_last(x):
    """x.mean(axis=-1, keepdims=True), bitwise: the sum numpy's mean takes,
    divided by the count, without mean's Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x, g, b):
    xc = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(xc * xc) + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_backward(dy, g, cache):
    xhat, inv = cache
    rows_axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=rows_axes)
    db = dy.sum(axis=rows_axes)
    dxhat = dy * g
    dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
    return dx, dg, db


def _project(x, W, adapter, name, masks):
    """x @ W plus the adapter path scale*((x*mask) @ B) @ C."""
    base = x @ W
    if adapter is None:
        return base, None
    params, scale, _rate = adapter
    B, C = (params[factor] for factor in factor_names(name))
    xd = x if masks is None else x * masks[name]
    mid = xd @ B
    return base + scale * (mid @ C), (xd, mid)


def _project_backward(dy, x, W, adapter, name, masks, cache, grads, adapter_grads):
    """Accumulates dW (if grads is not None) and adapter grads; returns dx."""
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    if grads is not None:
        grads[name] += flat_x.T @ flat_dy
    dx = dy @ W.T
    if adapter is not None:
        params, scale, _rate = adapter
        b_name, c_name = factor_names(name)
        B, C = params[b_name], params[c_name]
        xd, mid = cache
        dmid = scale * (dy @ C.T)
        adapter_grads[c_name] += scale * (
            mid.reshape(-1, mid.shape[-1]).T @ flat_dy
        )
        adapter_grads[b_name] += (
            xd.reshape(-1, xd.shape[-1]).T @ dmid.reshape(-1, dmid.shape[-1])
        )
        dxd = dmid @ B.T
        if masks is not None:
            dxd = dxd * masks[name]
        dx = dx + dxd
    return dx


def _forward_batch(params, cfg: ToyLMConfig, ids, out_rows, adapter,
                   dropout_rng, rows=None, past=None):
    """Causal forward over a right-padded id batch: (logits, cache).

    out_rows are flat indices into (N*T); the logits are (len(out_rows), V)
    in their order, and the last layer after attention, the final norm and
    the head run at those rows only. rows are the flat indices of the real
    positions (None: every position is real); the feed-forward block of the
    other layers runs at them only, and its output at the pad rows is zero.
    dropout_rng (None: no dropout) draws the adapter-path masks at rate > 0.

    With rows, cache is what _backward_batch takes. Without, it is one
    (kh, vh) pair per layer, each (N, H, positions, dh), and a next call
    takes it as past: that call's ids sit after the cached positions and
    attend to them as well as causally to each other; no backward follows
    such a call, so GELU runs in place.
    """
    N, T = ids.shape
    P = 0 if past is None else past[0][0].shape[2]
    if P + T > cfg.max_seq:
        raise SequenceTooLong(f"{P + T} tokens > max_seq {cfg.max_seq}")
    H = cfg.heads
    dh = cfg.width // H
    x = params["embed"][ids] + params["pos"][P : P + T]
    tag_hits = None
    if adapter is not None:
        aparams, _scale, _rate = adapter
        deltas = aparams[TAG_DELTAS]
        tag_hits = tuple(ids == tag_id for tag_id in cfg.tag_ids)
        for row, hits in enumerate(tag_hits):
            if hits.any():
                x = x + hits[:, :, None] * deltas[row]
    # A single query position sees every key: its mask would be all zero.
    causal = np.triu(np.full((T, P + T), _NEG_INF), k=P + 1) if T > 1 else None
    layers_cache = []
    for i in range(cfg.layers):
        ln1_out, ln1_cache = _layer_norm(
            x, params[f"L{i}.ln1.g"], params[f"L{i}.ln1.b"]
        )
        masks = None
        if adapter is not None:
            _aparams, _scale, rate = adapter
            if dropout_rng is not None and rate > 0.0:
                keep = 1.0 - rate
                masks = {
                    f"L{i}.{p}": (
                        dropout_rng.random((N, T, cfg.width)) < keep
                    ).astype(ln1_out.dtype) / keep
                    for p in PROJECTIONS
                }
        q, q_cache = _project(ln1_out, params[f"L{i}.q"], adapter, f"L{i}.q", masks)
        k, k_cache = _project(ln1_out, params[f"L{i}.k"], adapter, f"L{i}.k", masks)
        v, v_cache = _project(ln1_out, params[f"L{i}.v"], adapter, f"L{i}.v", masks)
        qh = q.reshape(N, T, H, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(N, T, H, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(N, T, H, dh).transpose(0, 2, 1, 3)
        if past is not None:
            kh = np.concatenate((past[i][0], kh), axis=2)
            vh = np.concatenate((past[i][1], vh), axis=2)
        scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh)
        if causal is not None:
            scores += causal
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(N, T, cfg.width)
        attn_out, o_cache = _project(
            ctx, params[f"L{i}.o"], adapter, f"L{i}.o", masks
        )
        x_attn = x + attn_out
        ff_at = rows
        if i == cfg.layers - 1:
            # Past this point only out_rows reach the logits.
            x_attn, ff_at = x_attn.reshape(-1, cfg.width)[out_rows], None
        ln2_out, ln2_cache = _layer_norm(
            x_attn, params[f"L{i}.ln2.g"], params[f"L{i}.ln2.b"]
        )
        ln2_rows = ln2_out.reshape(-1, cfg.width)
        if ff_at is not None:
            ln2_rows = ln2_rows[ff_at]
        pre_act = ln2_rows @ params[f"L{i}.ff1"]
        pre_act += params[f"L{i}.ff1b"]
        act, tanh_u = _gelu(pre_act, keep=rows is not None)
        ff_rows = act @ params[f"L{i}.ff2"]
        ff_rows += params[f"L{i}.ff2b"]
        if ff_at is None:
            x = x_attn + ff_rows.reshape(x_attn.shape)
        else:
            x = x_attn.copy()
            x.reshape(-1, cfg.width)[ff_at] += ff_rows
        layers_cache.append((kh, vh) if rows is None else {
            "ln1_out": ln1_out,
            "ln1_cache": ln1_cache,
            "masks": masks,
            "q_cache": q_cache,
            "k_cache": k_cache,
            "v_cache": v_cache,
            "o_cache": o_cache,
            "qh": qh,
            "kh": kh,
            "vh": vh,
            "attn": attn,
            "ctx": ctx,
            "ln2_rows": ln2_rows,
            "ln2_cache": ln2_cache,
            "pre_act": pre_act,
            "tanh_u": tanh_u,
            "act": act,
        })
    final_out, lnf_cache = _layer_norm(x, params["lnf.g"], params["lnf.b"])
    logits = final_out @ params["head"]
    if rows is None:
        return logits, layers_cache
    cache = {
        "ids": ids,
        "rows": rows,
        "out_rows": out_rows,
        "tag_hits": tag_hits,
        "layers": layers_cache,
        "final_out": final_out,
        "lnf_cache": lnf_cache,
    }
    return logits, cache


def _scatter_rows(values, at, shape):
    """An array of zeros of shape whose flat rows at hold values."""
    out = np.zeros((math.prod(shape[:-1]), shape[-1]))
    out[at] = values
    return out.reshape(shape)


def _backward_batch(dlogits, params, cfg: ToyLMConfig, cache, adapter,
                    grads, adapter_grads) -> None:
    """Given dlogits at the forward's out_rows, adds the base gradients
    into grads (None skips them) and, with an adapter, its gradients into
    adapter_grads; each dict is shaped like the parameters it belongs to."""
    H = cfg.heads
    dh = cfg.width // H
    N, T = cache["ids"].shape
    rows, out_rows = cache["rows"], cache["out_rows"]

    flat_final = cache["final_out"].reshape(-1, cfg.width)
    if grads is not None:
        grads["head"] += flat_final.T @ dlogits.reshape(-1, cfg.vocab_size)
    dfinal = dlogits @ params["head"].T
    dx, dg, db = _layer_norm_backward(dfinal, params["lnf.g"], cache["lnf_cache"])
    if grads is not None:
        grads["lnf.g"] += dg
        grads["lnf.b"] += db

    for i in reversed(range(cfg.layers)):
        lc = cache["layers"][i]
        # FF block, on the real rows only; dx of the last layer is already
        # at out_rows.
        tail = i == cfg.layers - 1
        dff_rows = dx if tail else dx.reshape(-1, cfg.width)[rows]
        if grads is not None:
            grads[f"L{i}.ff2b"] += dff_rows.sum(axis=0)
            grads[f"L{i}.ff2"] += lc["act"].T @ dff_rows
        dact = dff_rows @ params[f"L{i}.ff2"].T
        dpre = _gelu_backward(dact, lc["pre_act"], lc["tanh_u"])
        if grads is not None:
            grads[f"L{i}.ff1b"] += dpre.sum(axis=0)
            grads[f"L{i}.ff1"] += lc["ln2_rows"].T @ dpre
        dln2_out = dpre @ params[f"L{i}.ff1"].T
        if not tail:
            dln2_out = _scatter_rows(dln2_out, rows, (N, T, cfg.width))
        dx_attn_from_ln2, dg, db = _layer_norm_backward(
            dln2_out, params[f"L{i}.ln2.g"], lc["ln2_cache"]
        )
        if grads is not None:
            grads[f"L{i}.ln2.g"] += dg
            grads[f"L{i}.ln2.b"] += db
        dx_attn = dx + dx_attn_from_ln2
        if tail:
            dx_attn = _scatter_rows(dx_attn, out_rows, (N, T, cfg.width))

        # Attention output projection.
        dctx = _project_backward(
            dx_attn, lc["ctx"], params[f"L{i}.o"], adapter, f"L{i}.o",
            lc["masks"], lc["o_cache"], grads, adapter_grads,
        )
        dctx_h = dctx.reshape(N, T, H, dh).transpose(0, 2, 1, 3)
        dattn = dctx_h @ lc["vh"].transpose(0, 1, 3, 2)
        dvh = lc["attn"].transpose(0, 1, 3, 2) @ dctx_h
        attn = lc["attn"]
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= math.sqrt(dh)
        dqh = dscores @ lc["kh"]
        dkh = dscores.transpose(0, 1, 3, 2) @ lc["qh"]
        dq = dqh.transpose(0, 2, 1, 3).reshape(N, T, cfg.width)
        dk = dkh.transpose(0, 2, 1, 3).reshape(N, T, cfg.width)
        dv = dvh.transpose(0, 2, 1, 3).reshape(N, T, cfg.width)
        dln1 = _project_backward(
            dq, lc["ln1_out"], params[f"L{i}.q"], adapter, f"L{i}.q",
            lc["masks"], lc["q_cache"], grads, adapter_grads,
        )
        dln1 += _project_backward(
            dk, lc["ln1_out"], params[f"L{i}.k"], adapter, f"L{i}.k",
            lc["masks"], lc["k_cache"], grads, adapter_grads,
        )
        dln1 += _project_backward(
            dv, lc["ln1_out"], params[f"L{i}.v"], adapter, f"L{i}.v",
            lc["masks"], lc["v_cache"], grads, adapter_grads,
        )
        dx_in_from_ln1, dg, db = _layer_norm_backward(
            dln1, params[f"L{i}.ln1.g"], lc["ln1_cache"]
        )
        if grads is not None:
            grads[f"L{i}.ln1.g"] += dg
            grads[f"L{i}.ln1.b"] += db
        dx = dx_attn + dx_in_from_ln1

    ids = cache["ids"]
    if grads is not None:
        np.add.at(grads["embed"], ids, dx)
        grads["pos"][:T] += dx.sum(axis=0)
    if adapter is not None and cache["tag_hits"] is not None:
        for row, hits in enumerate(cache["tag_hits"]):
            if hits.any():
                adapter_grads[TAG_DELTAS][row] += dx[hits].sum(axis=0)


# -- loss assembly -----------------------------------------------------------


def _pack_batch(examples, eos_id: int):
    """Right-pad sequences to (N, T) ids; returns them with the flat indices
    of the real (non-pad) positions, the flat indices of the positions the
    loss reads, in order, and the id each of those predicts."""
    seqs = [
        list(ex.input_ids) + list(ex.target_ids) + [eos_id] for ex in examples
    ]
    T = max(len(s) for s in seqs)
    N = len(seqs)
    ids = np.zeros((N, T), dtype=np.int64)
    loss_rows, targets = [], []
    for n, (ex, seq) in enumerate(zip(examples, seqs)):
        L = len(seq)
        ids[n, :L] = seq
        li = len(ex.input_ids)
        # Position t predicts token t+1; speech predictions start at the
        # last input position.
        loss_rows.extend(range(n * T + li - 1, n * T + L - 1))
        targets.extend(seq[li:])
    lengths = np.array([len(seq) for seq in seqs])
    rows = np.flatnonzero(np.arange(T) < lengths[:, None])
    return ids, rows, np.array(loss_rows), np.array(targets)


def _loss_forward(params, cfg, examples, adapter, dropout_rng):
    if not examples:
        raise ValueError("empty batch")
    ids, rows, loss_rows, targets = _pack_batch(examples, cfg.eos_id)
    logits, cache = _forward_batch(params, cfg, ids, loss_rows, adapter,
                                   dropout_rng, rows)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(len(targets)), targets]
    loss = float((logsumexp - picked).sum()) / len(targets)
    return loss, (cache, targets, shifted, logsumexp)


def _loss_backward(cfg, bundle, params, adapter, grads, adapter_grads) -> None:
    """Adds the loss gradients in, as _backward_batch does."""
    cache, targets, shifted, logsumexp = bundle
    dlogits = np.exp(shifted - logsumexp[:, None])
    dlogits[np.arange(len(targets)), targets] -= 1.0
    dlogits /= len(targets)
    _backward_batch(dlogits, params, cfg, cache, adapter, grads, adapter_grads)


def loss_and_grads(model: ToyLM, examples, adapter: LoraAdapter | None = None,
                   dropout_seed: int | None = None):
    """(loss, base grads or None, adapter grads or None) in float64.

    With a dropout_seed and an adapter that has dropout_rate > 0, the
    adapter-path masks are drawn from that seed, so repeated calls are
    reproducible (this is what the finite-difference check relies on).
    """
    params = model.weights
    adapter64 = _adapter_params(adapter, np.float64)
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    loss, bundle = _loss_forward(params, model.config, examples, adapter64, rng)
    grads = adapter_grads = None
    if adapter is None:
        grads = {k: np.zeros_like(v) for k, v in params.items()}
    else:
        adapter_grads = {k: np.zeros_like(v) for k, v in adapter64[0].items()}
    _loss_backward(model.config, bundle, params, adapter64, grads, adapter_grads)
    return loss, grads, adapter_grads


def gradient_check(
    model: ToyLM,
    adapter: LoraAdapter,
    examples,
    n_samples: int = 50,
    step: float = 1e-4,
    seed: int = 0,
    dropout_seed: int | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Both routes run entirely in float64; the sampled coordinates span every
    adapter parameter tensor. With dropout active, pass a dropout_seed so
    both routes see identical masks.
    """
    _, _, agrads = loss_and_grads(model, examples, adapter, dropout_seed)
    adapter64 = _adapter_params(adapter, np.float64)
    aparams = adapter64[0]

    def run_loss():
        rng = (None if dropout_seed is None
               else np.random.default_rng(dropout_seed))
        return _loss_forward(model.weights, model.config, examples, adapter64,
                             rng)[0]

    names = sorted(aparams)
    sizes = np.array([aparams[n].size for n in names])
    rng = np.random.default_rng(seed)
    flat_picks = rng.choice(int(sizes.sum()), size=n_samples, replace=False)
    bounds = np.cumsum(sizes)
    worst = 0.0
    for pick in flat_picks:
        which = int(np.searchsorted(bounds, pick, side="right"))
        offset = int(pick - (bounds[which - 1] if which else 0))
        name = names[which]
        flat = aparams[name].reshape(-1)
        original = flat[offset]
        flat[offset] = original + step
        hi = run_loss()
        flat[offset] = original - step
        lo = run_loss()
        flat[offset] = original
        fd = (hi - lo) / (2.0 * step)
        analytic = float(agrads[name].reshape(-1)[offset])
        denom = max(abs(analytic), abs(fd), 1e-8)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


# -- optimization ------------------------------------------------------------


def lr_at_step(step: int, cfg: TrainConfig) -> float:
    """1-based step; linear warmup to learning_rate, cosine to zero."""
    warmup = max(1, int(round(cfg.warmup_fraction * cfg.steps)))
    if step <= warmup:
        return cfg.learning_rate * step / warmup
    progress = (step - warmup) / (cfg.steps - warmup)
    return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8
_WEIGHT_DECAY = 0.01
_GRAD_CLIP = 1.0
_LOG_EVERY = 50
# Values per block of the AdamW update: a block's weights, gradient, both
# moments and scratch (1.25 MB at 32k float64 values) stay in the L2 cache
# through the chain of ops.
_ADAM_BLOCK = 32768


def _sample_batch(examples, rng, batch_size):
    idx = rng.integers(0, len(examples), size=batch_size)
    return [examples[int(i)] for i in idx]


def _views(flat: np.ndarray, like: dict) -> dict[str, np.ndarray]:
    """One view into flat per name of like, shaped as it is, laid end to end
    in like's order."""
    views, offset = {}, 0
    for name, array in like.items():
        views[name] = flat[offset : offset + array.size].reshape(array.shape)
        offset += array.size
    return views


def _train(model: ToyLM, adapter: LoraAdapter | None, examples,
           cfg: TrainConfig):
    """AdamW (Loshchilov & Hutter) with global-norm clipping on the base
    weights (no adapter) or on the adapter, the base frozen; the adapter's
    dropout masks come from the batch generator. The clip norm sums each
    name's squares whole, in name order. The update then runs block by
    block, each block at most _ADAM_BLOCK values and decayed whole or not
    at all, through the same elementwise ops the whole vector would take,
    so the bits do not depend on the blocking. Returns (the trained float64
    views by name, the curve).
    """
    if not examples:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    if adapter is None:
        initial = model.weights
    else:
        initial, scale, rate = _adapter_params(adapter, np.float64)
    flat = np.concatenate([a.ravel() for a in initial.values()])
    decay = np.concatenate([np.full(a.size, name.split(".")[-1] in _DECAYED)
                            for name, a in initial.items()])
    grad = np.empty_like(flat)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    trained, grads = _views(flat, initial), _views(grad, initial)
    work = np.empty(max(_ADAM_BLOCK, max(g.size for g in grads.values())))
    squares = [(g, work[: g.size].reshape(g.shape)) for g in grads.values()]
    # Cut every _ADAM_BLOCK values and wherever decay changes.
    cuts = sorted({*range(0, flat.size, _ADAM_BLOCK), flat.size,
                   *(np.flatnonzero(np.diff(decay)) + 1).tolist()})
    blocks = [
        (flat[a:b], grad[a:b], m[a:b], v[a:b], work[: b - a],
         bool(decay[a]))
        for a, b in zip(cuts, cuts[1:])
    ]
    if adapter is None:
        params, adapter64 = trained, None
        base_grads, adapter_grads = grads, None
    else:
        params, adapter64 = model.weights, (trained, scale, rate)
        base_grads, adapter_grads = None, grads
    curve = []
    for step in range(1, cfg.steps + 1):
        batch = _sample_batch(examples, rng, cfg.batch_size)
        loss, bundle = _loss_forward(
            params, model.config, batch, adapter64, rng
        )
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"loss {loss} at step {step}")
        grad.fill(0.0)
        _loss_backward(
            model.config, bundle, params, adapter64, base_grads, adapter_grads
        )
        norm = math.sqrt(sum(float(np.multiply(g, g, out=square).sum())
                             for g, square in squares))
        clip = _GRAD_CLIP / norm if norm > _GRAD_CLIP else None
        lr = lr_at_step(step, cfg)
        bc1, bc2 = 1.0 - _BETA1**step, 1.0 - _BETA2**step
        # w -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * w), the wd
        # term in decayed blocks only; g is spent once mb and vb hold it.
        for w, g, mb, vb, tmp, decayed in blocks:
            if clip is not None:
                g *= clip
            mb *= _BETA1
            np.multiply(g, 1.0 - _BETA1, out=tmp)
            mb += tmp
            vb *= _BETA2
            g *= g
            g *= 1.0 - _BETA2
            vb += g
            np.divide(vb, bc2, out=g)
            np.sqrt(g, out=g)
            g += _ADAM_EPS
            np.divide(mb, bc1, out=tmp)
            tmp /= g
            if decayed:
                np.multiply(w, _WEIGHT_DECAY, out=g)
                tmp += g
            tmp *= lr
            w -= tmp
        if step % _LOG_EVERY == 0 or step == cfg.steps:
            curve.append((step, loss))
    return trained, curve


def pretrain(model: ToyLM, examples, cfg: TrainConfig):
    """Train every base parameter; stands in for the pretrained checkpoint.
    The trained values are rounded through float32 into model.weights, in
    place."""
    trained, curve = _train(model, None, examples, cfg)
    for name, value in trained.items():
        model.weights[name][...] = value.astype(np.float32)
    return curve


def train_adapter(model: ToyLM, adapter: LoraAdapter, examples, cfg: TrainConfig):
    """Train only the adapter factors and tag deltas; base stays frozen.
    The trained values are rounded through float32 into the adapter's
    arrays, in place."""
    trained, curve = _train(model, adapter, examples, cfg)
    for name, array in adapter.tensors().items():
        array[...] = trained[name]
    return curve


# -- generation --------------------------------------------------------------


# Prompts per decode forward. A decode step keeps only its keys and values,
# so a wider batch costs little memory. On perfbench's desk eval with the
# float32 decode (2-vCPU Xeon, seeds 3, 5, 7 and 11, one 15 s run each, the
# three sizes run in rotating order per seed), 32/64/128 per forward gave
# 1140-1312/1251-1356/1319-1354 items/s at a peak RSS of 68-70/68-69/
# 68-71 MB; 128 was ahead of 64 on two seeds of four. At 64 one desk eval
# round takes 396 forwards (808 at 16); 128 saves 7 more.
_DECODE_BATCH = 64


def generate(
    model: ToyLM,
    prompts,
    max_new: int,
    adapter: LoraAdapter | None = None,
) -> list[list[int]]:
    """For each prompt, up to max_new greedy speech-token ids (end-of-speech
    excluded): at each step the argmax of the speech-range logits.

    A prompt of length L gets at most max_seq - L ids, so one longer than
    max_seq raises SequenceTooLong and one that fills the context gets none;
    a max_new below 0 raises ValueError.
    Prompts of equal length decode together, up to _DECODE_BATCH per
    forward: one forward over the whole prompts, then one new token per row
    and step against the cached keys and values; a row that emits
    end-of-speech leaves the batch. Each prompt gets the ids it would get
    decoded on its own. The forward runs in float32, on an exact cast of
    model.weights and on the adapter's float32 factors.
    """
    if max_new < 0:
        raise ValueError(f"max_new must be >= 0, got {max_new}")
    cfg = model.config
    prompts = [_checked_ids(p, cfg, f"prompt {index}")
               for index, p in enumerate(prompts)]
    # Every weight holds a float32 value, so the cast is exact: the decode
    # reads the weights the files hold, at the precision they hold them.
    weights = {name: w.astype(np.float32) for name, w in model.weights.items()}
    adapter32 = _adapter_params(adapter, np.float32)
    lo, hi = cfg.speech_offset, cfg.speech_offset + cfg.speech_count
    by_length: dict[int, list[int]] = {}
    for index, prompt in enumerate(prompts):
        by_length.setdefault(prompt.size, []).append(index)
    outs: list[list[int]] = [[] for _ in prompts]
    for length in sorted(by_length):
        group = by_length[length]
        budget = min(max_new, cfg.max_seq - length)
        for start in range(0, len(group), _DECODE_BATCH):
            live = group[start : start + _DECODE_BATCH]
            ids = np.stack([prompts[index] for index in live])
            past = None
            for _ in range(budget):
                last = np.arange(1, len(live) + 1) * ids.shape[1] - 1
                logits, past = _forward_batch(
                    weights, cfg, ids, last, adapter32, None, past=past
                )
                nxt = lo + np.argmax(logits[:, lo:hi], axis=1)
                going = nxt != cfg.eos_id
                live = [index for index, g in zip(live, going) if g]
                if not live:
                    break
                if len(live) < going.size:  # a row ended: drop its K/V rows
                    nxt = nxt[going]
                    past = [(kh[going], vh[going]) for kh, vh in past]
                for index, token in zip(live, nxt):
                    outs[index].append(int(token))
                ids = nxt[:, None]
    return outs
