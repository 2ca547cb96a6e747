"""Tests for the decoder-only LM: forward semantics, loss masking,
manual gradients vs finite differences, training loops, generation."""

import math
import tracemalloc

import numpy as np
import pytest

import uttertune.model
from uttertune.errors import CorruptFile, NonFiniteLoss, SequenceTooLong
from uttertune.lora import PROJECTIONS, init_adapter
from uttertune.model import (
    ToyLM,
    ToyLMConfig,
    TrainConfig,
    TrainingExample,
    _DECODE_BATCH,
    _GELU_BLOCK,
    _adapter_params,
    _backward_batch,
    _forward_batch,
    _gelu,
    _gelu_backward,
    _layer_norm,
    _layer_norm_backward,
    _loss_backward,
    _loss_forward,
    _pack_batch,
    _train,
    generate,
    gradient_check,
    loss_and_grads,
    lr_at_step,
    pretrain,
    train_adapter,
)

# Tiny id space: text 0..29, tags 30/31, speech 32..39 (39 = end of speech).
TINY = ToyLMConfig(
    vocab_size=40,
    speech_offset=32,
    speech_count=8,
    layers=2,
    width=16,
    heads=2,
    ff_width=32,
    max_seq=48,
    seed=11,
)
TAG_START, TAG_END = 30, 31


def make_examples(rng, n, with_tags=False):
    out = []
    for _ in range(n):
        li = int(rng.integers(2, 6))
        ti = int(rng.integers(2, 6))
        inp = [int(x) for x in rng.integers(0, 30, size=li)]
        if with_tags:
            inp = [inp[0], TAG_START] + inp[1:] + [TAG_END]
        tgt = tuple(int(x) for x in rng.integers(32, 39, size=ti))
        out.append(TrainingExample(tuple(inp), tgt))
    return out


@pytest.fixture(scope="module")
def tiny_model():
    return ToyLM.init(TINY)


def weight_bytes(model):
    return {k: v.tobytes() for k, v in model.weights.items()}


# -- config and construction -------------------------------------------------


def test_width_must_divide_heads():
    with pytest.raises(ValueError):
        ToyLMConfig(vocab_size=40, speech_offset=32, speech_count=8, heads=3)


@pytest.mark.parametrize("name", ["layers", "width", "heads", "ff_width",
                                  "max_seq"])
@pytest.mark.parametrize("value", [0, -1])
def test_shape_fields_below_one_are_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        ToyLMConfig(vocab_size=40, speech_offset=32, speech_count=8,
                    **{name: value})


def test_speech_range_must_fit_vocab():
    with pytest.raises(ValueError):
        ToyLMConfig(vocab_size=40, speech_offset=35, speech_count=8)


def test_warmup_fraction_bounds():
    with pytest.raises(ValueError):
        TrainConfig(warmup_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_fraction=1.0)


@pytest.mark.parametrize("field", ["steps", "batch_size"])
@pytest.mark.parametrize("value", [0, -2])
def test_train_config_counts_must_be_positive(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        TrainConfig(**{field: value})


def test_training_example_requires_input():
    with pytest.raises(ValueError):
        TrainingExample((), (32,))


def test_init_is_deterministic():
    a = ToyLM.init(TINY)
    b = ToyLM.init(TINY)
    assert weight_bytes(a) == weight_bytes(b)


def test_param_count_matches_hand_formula():
    model = ToyLM.init(TINY)
    d, ff, V = TINY.width, TINY.ff_width, TINY.vocab_size
    per_layer = 4 * d * d + d * ff + ff + ff * d + d + 4 * d
    expected = V * d + TINY.max_seq * d + TINY.layers * per_layer + 2 * d + d * V
    assert model.param_count() == expected


# -- forward semantics -------------------------------------------------------


def test_logits_shape(tiny_model):
    ids = [1, 2, 3, TAG_START, 7, TAG_END, 33]
    logits = tiny_model.forward(ids)
    assert logits.shape == (7, TINY.vocab_size)
    assert logits.dtype == np.float64


def test_causality_is_exact(tiny_model):
    rng = np.random.default_rng(0)
    ids = [int(x) for x in rng.integers(0, 30, size=12)]
    base = tiny_model.forward(ids)
    j = 7
    changed = list(ids)
    changed[j] = (changed[j] + 5) % 30
    after = tiny_model.forward(changed)
    assert np.array_equal(base[:j], after[:j])
    assert not np.array_equal(base[j:], after[j:])


def test_attention_rows_are_normalized(tiny_model):
    ids = np.array([[1, 2, 3, 4, 5, 6]], dtype=np.int64)
    _, cache = _forward_batch(
        tiny_model.weights, TINY, ids, np.arange(ids.size), None, None,
        rows=np.arange(ids.size),
    )
    for layer_cache in cache["layers"]:
        sums = layer_cache["attn"].sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_forward_rejects_overlong_sequence(tiny_model):
    with pytest.raises(SequenceTooLong):
        tiny_model.forward([0] * (TINY.max_seq + 1))


@pytest.mark.parametrize("bad, message", [
    ([-1, 3], "outside"),
    ([TINY.vocab_size, 3], "outside"),
    ([1.7, 3.2], "non-integer"),
    ([[1, 2]], "not a non-empty id sequence"),
    ([], "not a non-empty id sequence"),
], ids=["negative-id", "id-over-vocab", "float-ids", "2-d", "empty"])
def test_forward_rejects_bad_ids(tiny_model, bad, message):
    """The check generate runs per prompt: a negative id would read the
    embedding from its end and a float id would be truncated."""
    with pytest.raises(ValueError, match=f"^ids .*{message}"):
        tiny_model.forward(bad)


# -- loss --------------------------------------------------------------------


def test_uniform_logits_loss_is_log_vocab():
    model = ToyLM.init(TINY)
    model.weights["head"] = np.zeros_like(model.weights["head"])
    ex = TrainingExample((1, 2, 3), (33, 34))
    assert model.loss([ex]) == pytest.approx(math.log(TINY.vocab_size), rel=1e-12)


@pytest.mark.parametrize("how", ["in-place", "assignment"])
def test_changed_weights_reach_the_next_call(how):
    """A change to model.weights after a first forward shows in the next
    forward, loss and decode, with no other call."""
    model = ToyLM.init(TINY)
    ids = [1, 2, 3, 4]
    stuck = [[TINY.speech_offset] * 5]
    assert np.any(model.forward(ids))
    assert generate(model, [ids], max_new=5) != stuck
    if how == "in-place":
        model.weights["head"][...] = 0.0
    else:
        model.weights["head"] = np.zeros_like(model.weights["head"])
    assert not np.any(model.forward(ids))
    ex = TrainingExample((1, 2, 3), (33, 34))
    assert model.loss([ex]) == pytest.approx(math.log(TINY.vocab_size), rel=1e-12)
    # Zero logits: every step's argmax is the first speech id, never the
    # end of speech.
    assert generate(model, [ids], max_new=5) == stuck


def test_loss_matches_positionwise_oracle(tiny_model):
    """Recompute the masked cross-entropy from raw logits, per position."""
    ex = TrainingExample((4, 9, TAG_START, 2, TAG_END), (33, 35, 32))
    seq = list(ex.input_ids) + list(ex.target_ids) + [TINY.eos_id]
    logits = tiny_model.forward(seq)
    li = len(ex.input_ids)
    total = 0.0
    count = 0
    for t in range(li - 1, len(seq) - 1):
        row = logits[t]
        row = row - row.max()
        total += math.log(np.exp(row).sum()) - row[seq[t + 1]]
        count += 1
    assert tiny_model.loss([ex]) == pytest.approx(total / count, rel=1e-12)


def test_batch_loss_is_position_weighted_mean(tiny_model):
    rng = np.random.default_rng(3)
    a, b = make_examples(rng, 2)
    la = tiny_model.loss([a])
    lb = tiny_model.loss([b])
    na = len(a.target_ids) + 1
    nb = len(b.target_ids) + 1
    combined = (la * na + lb * nb) / (na + nb)
    assert tiny_model.loss([a, b]) == pytest.approx(combined, rel=1e-10)


def test_padding_does_not_leak_into_loss(tiny_model):
    short = TrainingExample((1, 2), (33,))
    long = TrainingExample((3, 4, 5, 6, 7, 8), (34, 35, 36, 37))
    alone = tiny_model.loss([short])
    ns, nl = 2, 5
    batched = tiny_model.loss([short, long])
    recovered = (batched * (ns + nl) - tiny_model.loss([long]) * nl) / ns
    assert alone == pytest.approx(recovered, rel=1e-9)


def test_padded_batch_grads_match_per_sequence_mean(tiny_model):
    """The feed-forward block skips pad rows; a padded batch must still give
    the count-weighted mean of the unpadded per-sequence loss and grads."""
    rng = np.random.default_rng(12)
    batch = make_examples(rng, 5, with_tags=True)
    assert len({len(ex.input_ids) + len(ex.target_ids) for ex in batch}) > 1
    trained = init_adapter(tiny_model.shape_spec(), r=1, alpha=8.0,
                           dropout_rate=0.0, seed=2)
    train_adapter(tiny_model, trained, make_examples(rng, 16, with_tags=True),
                  TrainConfig(steps=30, learning_rate=1e-2, batch_size=4))
    counts = [len(ex.target_ids) + 1 for ex in batch]
    total = sum(counts)
    for adapter in (None, trained):
        loss, grads, agrads = loss_and_grads(tiny_model, batch, adapter)
        got = grads if adapter is None else agrads
        want = {k: np.zeros_like(v) for k, v in got.items()}
        want_loss = 0.0
        for ex, n in zip(batch, counts):
            one_loss, one_grads, one_agrads = loss_and_grads(
                tiny_model, [ex], adapter
            )
            want_loss += one_loss * n / total
            for k, v in (one_grads if adapter is None else one_agrads).items():
                want[k] += v * (n / total)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for k, v in want.items():
            assert np.abs(got[k] - v).max() <= 1e-12 * np.abs(v).max(), k


def _full_tail_loss_and_grads(model, examples, adapter):
    """Loss and grads as computed before the loss rows: the last layer's
    feed-forward block, the final norm and the head at every real row, and
    a mask over those rows for the loss and dlogits."""
    params, adapter64 = model.weights, _adapter_params(adapter, np.float64)
    ids, rows, loss_rows, targets = _pack_batch(examples, model.config.eos_id)
    logits, cache = _forward_batch(params, model.config, ids, rows, adapter64,
                                   None, rows)
    at = np.searchsorted(rows, loss_rows)
    mask = np.zeros(len(rows))
    mask[at] = 1.0
    tgt = np.zeros(len(rows), dtype=np.int64)
    tgt[at] = targets
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1))
    (r,) = np.nonzero(mask)
    picked = shifted[r, tgt[r]]
    total = float((logsumexp[r] - picked).sum())
    count = len(r)
    probs = np.exp(shifted - logsumexp[..., None])
    dlogits = probs * mask[..., None]
    dlogits[r, tgt[r]] -= 1.0
    dlogits /= count
    trainable = params if adapter is None else adapter64[0]
    grads = {k: np.zeros_like(v) for k, v in trainable.items()}
    _backward_batch(dlogits, params, model.config, cache, adapter64,
                    grads if adapter is None else None,
                    None if adapter is None else grads)
    return total / count, grads


@pytest.mark.parametrize("with_adapter", [False, True],
                         ids=["base", "trained-adapter"])
def test_loss_row_tail_matches_full_tail(tiny_model, trained_adapter,
                                         with_adapter):
    """The tail at the loss rows only: the loss bit for bit, the grads
    within rounding (a weight gradient no longer sums exact-zero rows)."""
    adapter = trained_adapter if with_adapter else None
    batch = make_examples(np.random.default_rng(13), 6, with_tags=True)
    assert len({len(ex.input_ids) + len(ex.target_ids) for ex in batch}) > 1
    want_loss, want = _full_tail_loss_and_grads(tiny_model, batch, adapter)
    loss, grads, agrads = loss_and_grads(tiny_model, batch, adapter)
    got = grads if adapter is None else agrads
    assert repr(loss) == repr(want_loss)
    assert list(got) == list(want)
    for name, value in want.items():
        err = np.abs(got[name] - value).max()
        assert err <= 1e-12 * np.abs(value).max(), name
    ids = [1, TAG_START, 5, TAG_END, 9, 33, 34]
    logits = tiny_model.forward(ids, adapter)
    assert logits.shape == (len(ids), TINY.vocab_size)


@pytest.mark.parametrize("with_adapter", [False, True],
                         ids=["base", "trained-adapter"])
@pytest.mark.parametrize("pick", ["all-reversed", "shuffled-subset", "one"])
def test_out_rows_are_those_rows_of_the_per_sequence_forward(
        tiny_model, trained_adapter, with_adapter, pick):
    """Any order, any subset of a padded batch's real rows: the logits
    come back in out_rows' order, each within 1e-12 of ToyLM.forward's."""
    adapter = trained_adapter if with_adapter else None
    batch = make_examples(np.random.default_rng(14), 5, with_tags=True)
    ids, rows, _, _ = _pack_batch(batch, TINY.eos_id)
    assert len(rows) < ids.size  # some rows are padding
    rng = np.random.default_rng(15)
    out_rows = {
        "all-reversed": rows[::-1],
        "shuffled-subset": rng.permutation(rows)[: len(rows) // 3],
        "one": rows[-1:],
    }[pick]
    logits, _ = _forward_batch(tiny_model.weights, TINY, ids, out_rows,
                               _adapter_params(adapter, np.float64), None, rows)
    assert logits.shape == (len(out_rows), TINY.vocab_size)
    T = ids.shape[1]
    for row, got in zip(out_rows, logits):
        n, t = divmod(int(row), T)
        seq = list(batch[n].input_ids) + list(batch[n].target_ids) + [TINY.eos_id]
        want = tiny_model.forward(seq, adapter)[t]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_decode_return_value_is_taken_as_past_as_it_is(tiny_model,
                                                       trained_adapter):
    adapter64 = _adapter_params(trained_adapter, np.float64)
    params = tiny_model.weights
    seq = [1, TAG_START, 5, TAG_END, 9, 33, 34, 35]
    ids = np.array([seq])
    _, past = _forward_batch(params, TINY, ids[:, :5], np.array([4]),
                             adapter64, None)
    logits, _ = _forward_batch(params, TINY, ids[:, 5:], np.arange(3),
                               adapter64, None, past=past)
    want = tiny_model.forward(seq, trained_adapter)[5:]
    assert np.abs(logits - want).max() <= 1e-12 * np.abs(want).max()


# -- adapter path ------------------------------------------------------------


def test_fresh_adapter_is_bitwise_transparent(tiny_model):
    adapter = init_adapter(tiny_model.shape_spec(), r=2, seed=7)
    ids = [1, TAG_START, 5, TAG_END, 9, 33]
    assert np.array_equal(
        tiny_model.forward(ids), tiny_model.forward(ids, adapter=adapter)
    )
    ex = TrainingExample((1, TAG_START, 5, TAG_END), (33, 34))
    assert tiny_model.loss([ex]) == tiny_model.loss([ex], adapter=adapter)


def test_adapter_with_nonzero_c_changes_logits(tiny_model):
    adapter = init_adapter(tiny_model.shape_spec(), r=2, seed=7)
    rng = np.random.default_rng(1)
    for layer in adapter.layers:
        layer.C = rng.normal(0, 0.05, layer.C.shape).astype(np.float32)
    ids = [1, 2, 3]
    assert not np.array_equal(
        tiny_model.forward(ids), tiny_model.forward(ids, adapter=adapter)
    )


def test_tag_delta_gradient_flows_only_through_tags(tiny_model):
    adapter = init_adapter(tiny_model.shape_spec(), r=2, seed=7)
    with_tags = TrainingExample((1, TAG_START, 5, TAG_END), (33,))
    without = TrainingExample((1, 2, 5, 9), (33,))
    _, _, agrads = loss_and_grads(tiny_model, [with_tags], adapter=adapter)
    assert np.abs(agrads["tag_deltas"]).sum() > 0
    _, _, agrads = loss_and_grads(tiny_model, [without], adapter=adapter)
    assert np.abs(agrads["tag_deltas"]).sum() == 0


def _randomized_adapter(model, dropout_rate):
    adapter = init_adapter(
        model.shape_spec(), r=2, alpha=8.0, dropout_rate=dropout_rate, seed=3
    )
    rng = np.random.default_rng(42)
    for layer in adapter.layers:
        layer.C = rng.normal(0, 0.05, layer.C.shape).astype(np.float32)
    adapter.tag_deltas = rng.normal(0, 0.05, adapter.tag_deltas.shape).astype(
        np.float32
    )
    return adapter


def test_gradient_check_without_dropout(tiny_model):
    adapter = _randomized_adapter(tiny_model, dropout_rate=0.0)
    rng = np.random.default_rng(9)
    batch = make_examples(rng, 3, with_tags=True)
    worst = gradient_check(tiny_model, adapter, batch, n_samples=50, seed=0)
    assert worst < 1e-4


def test_gradient_check_with_dropout(tiny_model):
    adapter = _randomized_adapter(tiny_model, dropout_rate=0.2)
    rng = np.random.default_rng(10)
    batch = make_examples(rng, 3, with_tags=True)
    worst = gradient_check(
        tiny_model, adapter, batch, n_samples=50, seed=1, dropout_seed=123
    )
    assert worst < 1e-4


# -- learning-rate schedule --------------------------------------------------


def test_lr_schedule_shape():
    cfg = TrainConfig(steps=1000, learning_rate=1e-4, warmup_fraction=0.10)
    warmup = 100
    assert lr_at_step(warmup, cfg) == cfg.learning_rate
    assert lr_at_step(50, cfg) == pytest.approx(cfg.learning_rate * 0.5)
    assert lr_at_step(cfg.steps, cfg) == 0.0
    values = [lr_at_step(s, cfg) for s in range(1, cfg.steps + 1)]
    assert all(b >= a for a, b in zip(values[:warmup], values[1:warmup]))
    assert all(b <= a for a, b in zip(values[warmup:], values[warmup + 1 :]))
    assert max(values) == cfg.learning_rate


# -- training loops ----------------------------------------------------------


def test_pretrain_learns_and_freezes_unused_rows(monkeypatch):
    monkeypatch.setattr(uttertune.model, "_LOG_EVERY", 20)
    model = ToyLM.init(TINY)
    unused_id = 25
    row_before = model.weights["embed"][unused_id].copy()
    rng = np.random.default_rng(5)
    # Ids 0..19 only, so id 25 never receives a gradient.
    examples = []
    for _ in range(30):
        inp = tuple(int(x) for x in rng.integers(0, 20, size=4))
        tgt = tuple(int(x) for x in rng.integers(32, 39, size=3))
        examples.append(TrainingExample(inp, tgt))
    cfg = TrainConfig(steps=120, learning_rate=1e-3, batch_size=8, seed=0)
    curve = pretrain(model, examples, cfg)
    assert curve[-1][1] < curve[0][1]
    assert model.weights["embed"][unused_id].tobytes() == row_before.tobytes()
    assert model.weights["embed"][3].tobytes() != row_before.tobytes()


def test_overfits_small_set():
    model = ToyLM.init(TINY)
    rng = np.random.default_rng(5)
    examples = make_examples(rng, 50)
    cfg = TrainConfig(steps=2000, learning_rate=1e-3, batch_size=8, seed=0)
    curve = pretrain(model, examples, cfg)
    assert curve[-1][1] < 0.1


def test_pretrain_is_deterministic():
    rng = np.random.default_rng(6)
    examples = make_examples(rng, 20)
    cfg = TrainConfig(steps=60, learning_rate=1e-3, batch_size=4, seed=2)
    runs = []
    for _ in range(2):
        model = ToyLM.init(TINY)
        curve = pretrain(model, examples, cfg)
        runs.append((curve, weight_bytes(model)))
    assert runs[0] == runs[1]


def test_adapter_training_leaves_base_untouched(tiny_model, monkeypatch):
    monkeypatch.setattr(uttertune.model, "_LOG_EVERY", 20)
    rng = np.random.default_rng(7)
    examples = make_examples(rng, 20, with_tags=True)
    adapter = init_adapter(tiny_model.shape_spec(), r=2, alpha=8.0,
                           dropout_rate=0.1, seed=1)
    before = weight_bytes(tiny_model)
    c_before = adapter.layers[0].C.tobytes()
    cfg = TrainConfig(steps=80, learning_rate=1e-3, batch_size=4, seed=3)
    curve = train_adapter(tiny_model, adapter, examples, cfg)
    assert weight_bytes(tiny_model) == before
    assert adapter.layers[0].C.tobytes() != c_before
    assert np.abs(adapter.tag_deltas).sum() > 0
    assert curve[-1][1] < curve[0][1]


def test_adapter_training_is_deterministic(tiny_model):
    rng = np.random.default_rng(8)
    examples = make_examples(rng, 16, with_tags=True)
    cfg = TrainConfig(steps=40, learning_rate=1e-3, batch_size=4, seed=4)
    results = []
    for _ in range(2):
        adapter = init_adapter(tiny_model.shape_spec(), r=2, dropout_rate=0.1,
                               seed=5)
        curve = train_adapter(tiny_model, adapter, examples, cfg)
        results.append(
            (curve, adapter.layers[0].B.tobytes(), adapter.layers[0].C.tobytes(),
             adapter.tag_deltas.tobytes())
        )
    assert results[0] == results[1]


def test_non_finite_loss_is_reported():
    model = ToyLM.init(TINY)
    model.weights["embed"] = np.full_like(model.weights["embed"], np.nan)
    examples = [TrainingExample((1, 2), (33,))]
    cfg = TrainConfig(steps=5)
    with pytest.raises(NonFiniteLoss):
        pretrain(model, examples, cfg)


# -- the flat-buffer loop against the per-tensor optimizer -------------------


class _PerTensorAdamW:
    """AdamW with one moment pair per tensor, as the training loops ran it
    before the flat-buffer loop: the reference the loop must match."""

    def __init__(self, shapes, weight_decay, decay_filter):
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.t = 0
        self.wd = weight_decay
        self.decay_filter = decay_filter
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8

    def step(self, params, grads, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.wd > 0.0 and self.decay_filter(name):
                update = update + self.wd * params[name]
            params[name] -= lr * update


def _per_tensor_clip(grads, max_norm) -> bool:
    """Global-norm clipping tensor by tensor; True when it clipped."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
        return True
    return False


def _per_tensor_train(model, adapter, examples, cfg):
    """The per-tensor loop of pretrain (adapter None) and train_adapter,
    with the same generator use and model's optimizer constants; returns
    (trained float64 values by name, curve, steps clipped)."""
    rng = np.random.default_rng(cfg.seed)
    if adapter is None:
        params = {k: v.astype(np.float64) for k, v in model.weights.items()}
        adapter64 = dropout_rng = None
        trainable = params

        def decayed(name):
            return (name == "head" or name.endswith((".ff1", ".ff2"))
                    or name.split(".")[-1] in PROJECTIONS)
    else:
        params = model.weights
        adapter64 = _adapter_params(adapter, np.float64)
        trainable, _scale, rate = adapter64
        dropout_rng = rng if rate > 0.0 else None

        def decayed(name):
            return name != "tag_deltas"
    opt = _PerTensorAdamW({k: v.shape for k, v in trainable.items()},
                          uttertune.model._WEIGHT_DECAY, decayed)
    curve, clipped = [], 0
    for step in range(1, cfg.steps + 1):
        idx = rng.integers(0, len(examples), size=cfg.batch_size)
        batch = [examples[int(i)] for i in idx]
        loss, bundle = _loss_forward(params, model.config, batch, adapter64,
                                     dropout_rng)
        grads = {k: np.zeros_like(v) for k, v in trainable.items()}
        if adapter is None:
            _loss_backward(model.config, bundle, params, None, grads, None)
        else:
            _loss_backward(model.config, bundle, params, adapter64, None, grads)
        clipped += _per_tensor_clip(grads, uttertune.model._GRAD_CLIP)
        opt.step(trainable, grads, lr_at_step(step, cfg))
        if step % uttertune.model._LOG_EVERY == 0 or step == cfg.steps:
            curve.append((step, loss))
    return trainable, curve, clipped


def _assert_bitwise_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def _patch_optimizer(patch, grad_clip, weight_decay):
    for name, value in [("_GRAD_CLIP", grad_clip), ("_LOG_EVERY", 7),
                        ("_WEIGHT_DECAY", weight_decay)]:
        patch.setattr(uttertune.model, name, value)


def _check_pretrain_loop(patch, grad_clip, weight_decay):
    _patch_optimizer(patch, grad_clip, weight_decay)
    model = ToyLM.init(TINY)
    examples = make_examples(np.random.default_rng(9), 24)
    cfg = TrainConfig(steps=30, learning_rate=1e-2, batch_size=4, seed=1)
    want, want_curve, clipped = _per_tensor_train(model, None, examples, cfg)
    assert (0 < clipped < cfg.steps) if grad_clip < 2.0 else clipped == 0
    got, curve = _train(model, None, examples, cfg)
    assert curve == want_curve
    _assert_bitwise_equal(got, want)


@pytest.mark.parametrize("grad_clip", [1.2, 1e6], ids=["clipping", "no-clip"])
@pytest.mark.parametrize("weight_decay", [0.05])
def test_pretrain_loop_matches_per_tensor_optimizer(monkeypatch, grad_clip,
                                                    weight_decay):
    _check_pretrain_loop(monkeypatch, grad_clip, weight_decay)


def _check_adapter_loop(patch, tiny_model, dropout_rate=0.1):
    _patch_optimizer(patch, grad_clip=0.15, weight_decay=0.01)
    adapter = init_adapter(tiny_model.shape_spec(), r=2, alpha=8.0,
                           dropout_rate=dropout_rate, seed=3)
    examples = make_examples(np.random.default_rng(10), 24, with_tags=True)
    cfg = TrainConfig(steps=30, learning_rate=1e-2, batch_size=4, seed=2)
    want, want_curve, clipped = _per_tensor_train(tiny_model, adapter,
                                                  examples, cfg)
    assert 0 < clipped < cfg.steps
    got, curve = _train(tiny_model, adapter, examples, cfg)
    assert curve == want_curve
    _assert_bitwise_equal(got, want)
    assert np.any(want["tag_deltas"]) and np.any(want["L0.q.C"])


def test_adapter_loop_matches_per_tensor_optimizer(tiny_model, monkeypatch):
    _check_adapter_loop(monkeypatch, tiny_model)


def test_adapter_loop_without_dropout_draws_no_masks(tiny_model, monkeypatch):
    """_train hands the forward its batch generator whatever the rate; at
    rate 0 the forward draws nothing from it, so the batches are those of
    the reference, which passes no generator then."""
    _check_adapter_loop(monkeypatch, tiny_model, dropout_rate=0.0)


@pytest.mark.parametrize("block", [7, 1000])
def test_loops_match_per_tensor_optimizer_in_small_blocks(tiny_model,
                                                          monkeypatch, block):
    """At the default block the tiny model's ~6k values are cut only at
    decay edges; blocks of 7 and 1,000 values also straddle the views."""
    monkeypatch.setattr(uttertune.model, "_ADAM_BLOCK", block)
    for grad_clip in (1.2, 1e6):
        _check_pretrain_loop(monkeypatch, grad_clip, 0.05)
    _check_adapter_loop(monkeypatch, tiny_model)


# -- persistence -------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = ToyLM.init(TINY)
    path = tmp_path / "model.utt"
    model.save(path)
    loaded = ToyLM.load(path)
    assert loaded.config == model.config
    assert weight_bytes(loaded) == weight_bytes(model)
    assert loaded.fingerprint() == model.fingerprint()


def test_checkpoint_detects_corruption(tmp_path):
    model = ToyLM.init(TINY)
    path = tmp_path / "model.utt"
    model.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFile):
        ToyLM.load(path)


def test_fingerprint_tracks_weights():
    model = ToyLM.init(TINY)
    fp = model.fingerprint()
    examples = [TrainingExample((1, 2), (33, 34))]
    pretrain(model, examples, TrainConfig(steps=5))
    assert model.fingerprint() != fp


# -- generation --------------------------------------------------------------


def test_greedy_generation_is_deterministic_and_in_range(tiny_model):
    prompt = [1, 2, 3, 4]
    a = generate(tiny_model, [prompt], max_new=10)[0]
    b = generate(tiny_model, [prompt], max_new=10)[0]
    assert a == b
    assert len(a) <= 10
    lo, hi = TINY.speech_offset, TINY.speech_offset + TINY.speech_count
    assert all(lo <= t < hi - 1 for t in a)


def test_generation_stops_at_end_of_speech():
    model = ToyLM.init(TINY)
    for name in model.weights:
        model.weights[name] = np.zeros_like(model.weights[name])
    model.weights["lnf.b"] = np.ones_like(model.weights["lnf.b"])
    head = np.zeros_like(model.weights["head"])
    head[:, TINY.eos_id] = 1.0
    model.weights["head"] = head
    assert generate(model, [[1, 2]], max_new=10) == [[]]


def test_generation_rejects_overflow(tiny_model):
    """Only a prompt longer than the context is rejected; a prompt that fits
    decodes at most into the positions it leaves free."""
    with pytest.raises(SequenceTooLong):
        generate(tiny_model, [[1], [0] * (TINY.max_seq + 1)], max_new=1)
    got = generate(tiny_model, [[0] * 40, [0] * TINY.max_seq], max_new=20)
    assert len(got[0]) <= TINY.max_seq - 40
    assert got[1] == []


@pytest.mark.parametrize(
    "bad", [[], [1, TINY.vocab_size, 2], [3, -1]],
    ids=["empty", "id-over-vocab", "negative-id"],
)
def test_generation_rejects_bad_prompt_by_index(tiny_model, bad):
    with pytest.raises(ValueError, match=r"^prompt 1 "):
        generate(tiny_model, [[1, 2], bad, [3]], max_new=3)


def test_generation_rejects_float_prompt(tiny_model):
    with pytest.raises(ValueError, match=r"^prompt 0 holds non-integer ids"):
        generate(tiny_model, [[1.7, 3.2]], max_new=2)


def test_generation_rejects_negative_max_new(tiny_model):
    with pytest.raises(ValueError, match=r"^max_new must be >= 0, got -1$"):
        generate(tiny_model, [[1, 2]], max_new=-1)
    assert generate(tiny_model, [[1, 2]], max_new=0) == [[]]


def _uncached_decode(model, prompt, max_new, adapter=None):
    """Reference decode: the full forward over the growing prefix per token."""
    lo = model.config.speech_offset
    hi = lo + model.config.speech_count
    ids = list(prompt)
    out = []
    for _ in range(max_new):
        speech = model.forward(ids, adapter=adapter)[-1, lo:hi]
        nxt = lo + int(np.argmax(speech))
        if nxt == model.config.eos_id:
            break
        out.append(nxt)
        ids.append(nxt)
    return out


@pytest.fixture(scope="module")
def trained_adapter(tiny_model):
    rng = np.random.default_rng(5)
    adapter = init_adapter(tiny_model.shape_spec(), r=2, alpha=8.0,
                           dropout_rate=0.0, seed=6)
    train_adapter(tiny_model, adapter, make_examples(rng, 16, with_tags=True),
                  TrainConfig(steps=30, learning_rate=1e-2, batch_size=4))
    assert any(np.abs(layer.C).max() > 0 for layer in adapter.layers)
    return adapter


def _never_ends(model):
    """A copy of model whose end-of-speech logit is always -1000."""
    weights = {k: v.copy() for k, v in model.weights.items()}
    weights["lnf.g"][0] = 0.0
    weights["lnf.b"][0] = 10.0
    weights["head"][:, model.config.eos_id] = 0.0
    weights["head"][0, model.config.eos_id] = -100.0
    return ToyLM(model.config, weights)


@pytest.mark.parametrize("with_adapter", [False, True],
                         ids=["base", "trained-adapter"])
def test_batched_decode_matches_uncached_oracle(tiny_model, trained_adapter,
                                                with_adapter):
    adapter = trained_adapter if with_adapter else None
    rng = np.random.default_rng(21)
    prompts = [[int(t) for t in rng.integers(0, 32, size=n)]
               for n in (2, 5, 3, 5, 7, 2, 4)]
    # One length group larger than the batch cap, so it splits.
    prompts += [[int(t) for t in rng.integers(0, 32, size=3)]
                for _ in range(_DECODE_BATCH + 3)]
    got = generate(tiny_model, prompts, max_new=12, adapter=adapter)
    want = [_uncached_decode(tiny_model, p, 12, adapter) for p in prompts]
    assert got == want
    assert len({len(o) for o in want}) > 2  # rows leave the batch at EOS


@pytest.mark.parametrize("with_adapter", [False, True],
                         ids=["base", "trained-adapter"])
def test_batched_decode_runs_to_max_seq(tiny_model, trained_adapter,
                                        with_adapter):
    adapter = trained_adapter if with_adapter else None
    model = _never_ends(tiny_model)
    prompts = [[1, TAG_START, 5, TAG_END] + [7] * 36, [2] * 40, [9] * 41,
               [3] * TINY.max_seq]
    budgets = [TINY.max_seq - len(p) for p in prompts]
    got = generate(model, prompts, max_new=20, adapter=adapter)
    want = [_uncached_decode(model, p, b, adapter)
            for p, b in zip(prompts, budgets)]
    assert got == want
    assert [len(o) for o in got] == budgets == [8, 8, 7, 0]


# (with_adapter, dtype, relative tolerance): float64 is the training and
# ToyLM.forward precision, float32 the one generate decodes in.
_PRECISIONS = pytest.mark.parametrize(
    "with_adapter, dtype, tol",
    [(False, np.float64, 1e-12), (True, np.float64, 1e-12),
     (False, np.float32, 1e-5), (True, np.float32, 1e-5)],
    ids=["base", "trained-adapter", "base-float32", "trained-adapter-float32"],
)


def _at_precision(model, adapter, dtype):
    """model's weights and adapter's params, cast to dtype."""
    weights = {name: w.astype(dtype) for name, w in model.weights.items()}
    return weights, _adapter_params(adapter, dtype)


@_PRECISIONS
def test_forward_with_past_matches_full_forward(tiny_model, trained_adapter,
                                                with_adapter, dtype, tol):
    params, adapter_params = _at_precision(
        tiny_model, trained_adapter if with_adapter else None, dtype)
    rng = np.random.default_rng(8)
    ids = rng.integers(0, TINY.vocab_size, size=(3, 11))
    ids[:, 2], ids[:, 6] = TAG_START, TAG_END
    full = _training_layout_logits(params, ids, adapter_params)
    assert full.dtype == dtype
    # Prefill 4 positions, then a chunk of 3, then one position at a time.
    past = None
    for lo, hi in [(0, 4), (4, 7), (7, 8), (8, 9), (9, 10), (10, 11)]:
        chunk = ids[:, lo:hi]
        logits, past = _forward_batch(params, TINY, chunk,
                                      np.arange(chunk.size), adapter_params,
                                      None, past=past)
        want = full[:, lo:hi].reshape(logits.shape)
        assert logits.dtype == dtype
        assert np.abs(logits - want).max() <= tol * np.abs(want).max()
        assert past[0][0].shape[2] == hi


@_PRECISIONS
def test_decode_call_matches_full_forward_at_last_position(
        tiny_model, trained_adapter, with_adapter, dtype, tol):
    """rows=None, out_rows at each row's last position: those logits within
    rounding of the full forward, and per layer the keys and values alone,
    which the next call takes as its past as they are."""
    params, adapter_params = _at_precision(
        tiny_model, trained_adapter if with_adapter else None, dtype)
    rng = np.random.default_rng(9)
    ids = rng.integers(0, TINY.vocab_size, size=(3, 11))
    ids[:, 2], ids[:, 6] = TAG_START, TAG_END
    full = _training_layout_logits(params, ids, adapter_params)
    # Prefill 4 positions, then a chunk of 3, then one position at a time.
    past = None
    for lo, hi in [(0, 4), (4, 7), (7, 8), (8, 9), (9, 10), (10, 11)]:
        last = np.arange(1, len(ids) + 1) * (hi - lo) - 1
        logits, past = _forward_batch(params, TINY, ids[:, lo:hi], last,
                                      adapter_params, None, past=past)
        want = full[:, hi - 1]
        assert logits.shape == want.shape
        assert logits.dtype == dtype
        assert np.abs(logits - want).max() <= tol * np.abs(want).max()
        assert len(past) == TINY.layers
        assert all(len(kv) == 2 for kv in past)
        assert past[0][0].shape == (3, TINY.heads, hi, TINY.width // TINY.heads)
        assert all(k.dtype == v.dtype == dtype for k, v in past)


@pytest.mark.parametrize("with_adapter", [False, True],
                         ids=["base", "trained-adapter"])
def test_generate_decodes_in_float32(tiny_model, trained_adapter, with_adapter,
                                     monkeypatch):
    """generate hands the forward a float32 cast of the weights and the
    adapter's float32 params, and gets float32 logits and keys and values
    back; the model's own weights stay float64."""
    adapter = trained_adapter if with_adapter else None
    seen = []

    def spy(params, cfg, ids, out_rows, adapter_params, dropout_rng,
            rows=None, past=None):
        logits, cache = _forward_batch(params, cfg, ids, out_rows,
                                       adapter_params, dropout_rng, rows, past)
        arrays = list(params.values())
        if adapter_params is not None:
            arrays += adapter_params[0].values()
        seen.append(({a.dtype for a in arrays}, logits.dtype,
                     {a.dtype for kv in cache for a in kv}))
        return logits, cache

    monkeypatch.setattr(uttertune.model, "_forward_batch", spy)
    generate(tiny_model, [[1, TAG_START, 5, TAG_END], [2, 3]], max_new=4,
             adapter=adapter)
    assert seen
    assert all(s == ({np.dtype(np.float32)}, np.float32,
                     {np.dtype(np.float32)}) for s in seen)
    assert {w.dtype for w in tiny_model.weights.values()} == {
        np.dtype(np.float64)}


def _training_layout_logits(params, ids, adapter_params):
    """(N, T, V) logits of the training layout: every position real and
    asked for."""
    every = np.arange(ids.size)
    logits, _ = _forward_batch(params, TINY, ids, every, adapter_params, None,
                               rows=every)
    return logits.reshape(ids.shape + (-1,))


def _mean_form_layer_norm(x, g, b):
    """_layer_norm with numpy's mean, as it was written before."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _mean_form_layer_norm_backward(dy, g, cache):
    xhat, inv = cache
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


@pytest.mark.parametrize("shape", [(3, 7, 16), (5, 1, 64), (2, 9, 17)])
def test_layer_norm_is_bitwise_the_mean_form(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) * 3.0 + 0.5
    g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    dy = rng.normal(size=shape)
    y, cache = _layer_norm(x, g, b)
    want_y, want_cache = _mean_form_layer_norm(x, g, b)
    assert np.array_equal(y, want_y)
    assert all(np.array_equal(a, w) for a, w in zip(cache, want_cache))
    dx, _dg, _db = _layer_norm_backward(dy, g, cache)
    assert np.array_equal(dx, _mean_form_layer_norm_backward(dy, g, cache))


def test_gelu_matches_closed_tanh_form():
    x = np.linspace(-6.0, 6.0, 2001)
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
    y, tanh_u = _gelu(x)
    np.testing.assert_allclose(y, 0.5 * x * (1.0 + t),
                               rtol=1e-12, atol=1e-15)
    closed_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (
        1.0 + 3.0 * 0.044715 * x * x
    )
    np.testing.assert_allclose(_gelu_backward(np.ones_like(x), x, tanh_u),
                               closed_grad, rtol=1e-12, atol=1e-15)


def _whole_array_gelu(x):
    """_gelu over the whole array at once, as it ran before row blocks."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, t


def _whole_array_gelu_backward(dy, x, t):
    g = x * (3.0 * 0.044715)
    g *= x
    g += 1.0
    s = t * t
    np.subtract(1.0, s, out=s)
    s *= x
    s *= math.sqrt(2.0 / math.pi)
    s *= g
    np.add(t, 1.0, out=g)
    s += g
    s *= 0.5
    s *= dy
    return s


@pytest.mark.parametrize("width", [1024, 37])
def test_gelu_blocks_are_bitwise_the_whole_array_form(width):
    block = _GELU_BLOCK // width  # rows per block
    rng = np.random.default_rng(width)
    for n_rows in (1, block - 1, block, block + 1, 2 * block + 3):
        x = rng.normal(scale=3.0, size=(n_rows, width))
        dy = rng.normal(size=(n_rows, width))
        y, t = _gelu(x)
        want_y, want_t = _whole_array_gelu(x)
        assert y.tobytes() == want_y.tobytes(), n_rows
        assert t.tobytes() == want_t.tobytes(), n_rows
        assert (_gelu_backward(dy, x, t).tobytes()
                == _whole_array_gelu_backward(dy, x, t).tobytes()), n_rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("width", [1024, 37])
def test_gelu_in_place_is_bitwise_the_keeping_form(width, dtype):
    """Without keep, _gelu writes GELU(x) over x and keeps no tanh: the
    only array it makes is one block of scratch, and the bits are the
    keeping form's."""
    block = _GELU_BLOCK // width  # rows per block
    rng = np.random.default_rng(width)
    for n_rows in (1, block - 1, block, block + 1, 2 * block + 3):
        x = rng.normal(scale=3.0, size=(n_rows, width)).astype(dtype)
        want, _ = _gelu(x)
        tracemalloc.start()
        try:
            y, t = _gelu(x, keep=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t is None and y is x, n_rows
        assert y.tobytes() == want.tobytes(), n_rows
        scratch = min(n_rows, block) * width * x.itemsize
        assert peak < scratch + 4096, (n_rows, peak, scratch)


def test_gelu_keeps_its_input_only_where_a_backward_follows(
        tiny_model, trained_adapter, monkeypatch):
    """Training's forward keeps the feed-forward pre-activation and tanh
    for the backward; ToyLM.forward and decoding run GELU in place."""
    seen = []

    def spy(x, keep=True):
        seen.append(keep)
        return _gelu(x, keep)

    monkeypatch.setattr(uttertune.model, "_gelu", spy)
    ids = np.array([[1, TAG_START, 5, TAG_END, 2, 3]])
    every = np.arange(ids.size)
    _, cache = _forward_batch(tiny_model.weights, TINY, ids, every,
                              _adapter_params(trained_adapter, np.float64),
                              None, rows=every)
    assert seen == [True] * TINY.layers
    assert all(lc["tanh_u"].shape == lc["pre_act"].shape
               for lc in cache["layers"])
    seen.clear()
    tiny_model.forward(ids[0], adapter=trained_adapter)
    generate(tiny_model, [ids[0, :4], ids[0, :2]], max_new=3,
             adapter=trained_adapter)
    assert seen and not any(seen)


def test_gelu_grad_matches_central_differences():
    x = np.linspace(-6.0, 6.0, 2001)
    h = 1e-5
    fd = (_gelu(x + h)[0] - _gelu(x - h)[0]) / (2.0 * h)
    np.testing.assert_allclose(_gelu_backward(np.ones_like(x), x, _gelu(x)[1]),
                               fd, rtol=1e-7, atol=1e-9)
