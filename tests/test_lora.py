"""Adapter init, effective weights, budget accounting, persistence."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from uttertune.errors import CorruptFile, InvalidRank
from uttertune.lora import (
    _ADAPTER_KEYS,
    _ADAPTER_MAGIC,
    PROJECTIONS,
    BaseShapeSpec,
    LoraAdapter,
    init_adapter,
    load_adapter,
    merge,
    save_adapter,
    trainable_param_count,
)
from uttertune.model import (
    ToyLM,
    ToyLMConfig,
    TrainConfig,
    TrainingExample,
    _adapter_params,
    train_adapter,
)
from uttertune.tensorio import load_tensors, save_tensors

SPEC = BaseShapeSpec(n_layers=2, width=64, base_param_count=250_000)


def adapters_equal(a: LoraAdapter, b: LoraAdapter) -> bool:
    """Bitwise equality of all factors, deltas, and config."""
    if (
        a.rank != b.rank
        or a.alpha != b.alpha
        or a.dropout_rate != b.dropout_rate
        or a.scaling != b.scaling
        or a.seed != b.seed
        or a.base_spec != b.base_spec
    ):
        return False
    if not np.array_equal(
        a.tag_deltas.view(np.uint32), b.tag_deltas.view(np.uint32)
    ):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.target != lb.target:
            return False
        if not np.array_equal(la.B.view(np.uint32), lb.B.view(np.uint32)):
            return False
        if not np.array_equal(la.C.view(np.uint32), lb.C.view(np.uint32)):
            return False
    return True


class TestInit:
    def test_paper_defaults_accepted(self):
        a = init_adapter(SPEC, seed=0)
        assert a.rank == 16 and a.alpha == 64.0 and a.dropout_rate == 0.05

    def test_c_zero_b_random(self):
        a = init_adapter(SPEC, r=4, seed=1)
        for layer in a.layers:
            assert not np.any(layer.C)
            assert np.any(layer.B)
            assert abs(float(layer.B.std()) - 0.02) < 0.01

    def test_tag_deltas_zero(self):
        a = init_adapter(SPEC, seed=2)
        assert not np.any(a.tag_deltas)
        assert a.tag_deltas.shape == (2, 64)

    def test_same_seed_identical(self):
        a = init_adapter(SPEC, r=8, seed=5)
        b = init_adapter(SPEC, r=8, seed=5)
        assert adapters_equal(a, b)

    def test_different_seed_differs(self):
        a = init_adapter(SPEC, r=8, seed=5)
        b = init_adapter(SPEC, r=8, seed=6)
        assert not adapters_equal(a, b)

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidRank):
            init_adapter(SPEC, r=0)

    def test_rank_above_width_rejected(self):
        with pytest.raises(InvalidRank):
            init_adapter(SPEC, r=65)

    def test_rank_far_above_width_rejected_before_the_draw(self):
        """The draw would take 64 x 10**12 values per factor."""
        with pytest.raises(InvalidRank, match=r"^rank 1000000000000 outside"):
            init_adapter(SPEC, r=10**12)

    @pytest.mark.parametrize("rank", [0, 65])
    def test_adapter_rank_outside_width_rejected(self, rank):
        """A loaded adapter is held to init_adapter's bounds: its layers
        and factors agree with the rank, the width does not."""
        a = init_adapter(SPEC, r=4, seed=0)
        layers = [dataclasses.replace(layer, rank=rank,
                                      B=np.zeros((64, rank), np.float32),
                                      C=np.zeros((rank, 64), np.float32))
                  for layer in a.layers]
        with pytest.raises(InvalidRank,
                           match=rf"^rank {rank} outside \[1, 64\]"):
            dataclasses.replace(a, rank=rank, layers=layers)

    def test_covers_all_projections(self):
        a = init_adapter(SPEC, r=2, seed=0)
        assert [l.target for l in a.layers] == [
            f"L{i}.{p}" for i in range(2) for p in ("q", "k", "v", "o")
        ]

    @pytest.mark.parametrize("name, value", [
        ("rank", 5), ("alpha", 32.0), ("dropout_rate", 0.0),
    ])
    def test_layer_contradicting_adapter_rejected(self, name, value):
        a = init_adapter(SPEC, r=4, alpha=64.0, dropout_rate=0.05, seed=0)
        layer = a.layers[5]
        changes = {name: value}
        if name == "rank":
            changes["B"] = np.zeros((64, value), np.float32)
            changes["C"] = np.zeros((value, 64), np.float32)
        layers = list(a.layers)
        layers[5] = dataclasses.replace(layer, **changes)
        with pytest.raises(ValueError, match=rf"^L1\.k: {name} {value!r} "
                                             rf"!= the adapter's "):
            dataclasses.replace(a, layers=layers)


def merged_q(W, B, C, alpha, scaling="literal"):
    """merge's L0.q for an adapter that puts B, C on every projection."""
    d, r = B.shape
    spec = BaseShapeSpec(n_layers=1, width=d, base_param_count=1000)
    adapter = init_adapter(spec, r=r, alpha=alpha, scaling=scaling)
    for layer in adapter.layers:
        layer.B, layer.C = B, C
    weights = {f"L0.{p}": W for p in PROJECTIONS}
    weights["embed"] = np.zeros((4, d), np.float32)
    return merge(adapter, weights, tag_token_ids=(0, 1))["L0.q"]


class TestEffectiveWeight:
    def test_zero_b_gives_w(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(6, 6))
        B = np.zeros((6, 3), np.float32)
        C = rng.normal(size=(3, 6)).astype(np.float32)
        assert np.array_equal(merged_q(W, B, C, 64.0), W)

    def test_ones_hand_case(self):
        B = np.ones((4, 2), np.float32)
        C = np.ones((2, 4), np.float32)
        out = merged_q(np.zeros((4, 4)), B, C, 1.0)
        assert np.array_equal(out, np.full((4, 4), 2.0))

    def test_alpha_zero_gives_w(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(5, 5))
        B = rng.normal(size=(5, 2)).astype(np.float32)
        C = rng.normal(size=(2, 5)).astype(np.float32)
        assert np.array_equal(merged_q(W, B, C, 0.0), W)

    def test_normalized_scaling_divides_by_rank(self):
        rng = np.random.default_rng(2)
        W = np.zeros((4, 4))
        B = rng.normal(size=(4, 2)).astype(np.float32)
        C = rng.normal(size=(2, 4)).astype(np.float32)
        lit = merged_q(W, B, C, 8.0, scaling="literal")
        norm = merged_q(W, B, C, 8.0, scaling="normalized")
        assert np.allclose(lit, 2.0 * norm)


class TestParamBudget:
    def test_hand_counted_lora_params(self):
        spec = BaseShapeSpec(n_layers=1, width=64, base_param_count=1_000_000)
        a = init_adapter(spec, r=4, seed=0)
        count, ratio = trainable_param_count(a)
        lora_only = count - a.tag_deltas.size
        assert lora_only == 4 * 4 * (64 + 64) == 2048
        assert count == 2048 + 128
        assert ratio == count / 1_000_000


class TestMerge:
    def _setup(self):
        spec = BaseShapeSpec(n_layers=1, width=8, base_param_count=1000)
        adapter = init_adapter(spec, r=2, alpha=4.0, seed=3)
        rng = np.random.default_rng(7)
        # Give C nonzero values so the merge does something.
        for layer in adapter.layers:
            layer.C = rng.normal(0, 0.1, size=layer.C.shape).astype(np.float32)
        adapter.tag_deltas = rng.normal(0, 0.1, size=(2, 8)).astype(np.float32)
        weights = {
            f"L0.{p}": rng.normal(size=(8, 8)).astype(np.float32)
            for p in ("q", "k", "v", "o")
        }
        weights["embed"] = rng.normal(size=(10, 8)).astype(np.float32)
        return adapter, weights

    def test_merge_changes_targets_only(self):
        adapter, weights = self._setup()
        merged = merge(adapter, weights, tag_token_ids=(4, 5))
        for p in ("q", "k", "v", "o"):
            assert not np.array_equal(merged[f"L0.{p}"], weights[f"L0.{p}"])
        # Non-tag embedding rows untouched.
        untouched = [i for i in range(10) if i not in (4, 5)]
        assert np.array_equal(merged["embed"][untouched], weights["embed"][untouched])
        assert not np.array_equal(merged["embed"][4], weights["embed"][4])

    def test_merge_does_not_mutate_inputs(self):
        adapter, weights = self._setup()
        before = {k: v.copy() for k, v in weights.items()}
        merge(adapter, weights, tag_token_ids=(4, 5))
        for name in weights:
            assert np.array_equal(weights[name], before[name])


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        a = init_adapter(SPEC, r=3, alpha=6.0, dropout_rate=0.1, seed=9)
        rng = np.random.default_rng(0)
        for layer in a.layers:
            layer.C = rng.normal(size=layer.C.shape).astype(np.float32)
        a.tag_deltas = rng.normal(size=a.tag_deltas.shape).astype(np.float32)
        p = tmp_path / "adapter.bin"
        save_adapter(a, p)
        b = load_adapter(p)
        assert adapters_equal(a, b)

    def test_save_deterministic(self, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_adapter(init_adapter(SPEC, r=2, seed=4), pa)
        save_adapter(init_adapter(SPEC, r=2, seed=4), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "adapter.bin"
        save_adapter(init_adapter(SPEC, r=2, seed=4), p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 50])
        with pytest.raises(CorruptFile):
            load_adapter(p)

    def test_tensor_the_adapter_does_not_read_rejected(self, tmp_path):
        """A file holding one more tensor than its adapter, here a factor of
        a layer the base does not have, is refused, not loaded without it."""
        p = tmp_path / "adapter.bin"
        save_adapter(init_adapter(SPEC, r=2, seed=4), p)
        header, tensors = load_tensors(p, _ADAPTER_MAGIC, _ADAPTER_KEYS)
        tensors["L7.q.B"] = tensors["L0.q.B"]
        save_tensors(p, _ADAPTER_MAGIC, header, tensors)
        with pytest.raises(CorruptFile, match=rf"^{re.escape(str(p))}: "
                           r"tensor 'L7.q.B' is not one the adapter reads$"):
            load_adapter(p)

    def test_missing_tensor_rejected(self, tmp_path):
        p = tmp_path / "adapter.bin"
        save_adapter(init_adapter(SPEC, r=2, seed=4), p)
        header, tensors = load_tensors(p, _ADAPTER_MAGIC, _ADAPTER_KEYS)
        del tensors["L1.k.C"]
        save_tensors(p, _ADAPTER_MAGIC, header, tensors)
        with pytest.raises(CorruptFile, match=rf"^{re.escape(str(p))}: "
                           r"missing tensor 'L1.k.C'$"):
            load_adapter(p)

    @pytest.mark.parametrize("key, field", [
        ("base_layers", "n_layers"), ("base_width", "width"),
        ("base_params", "base_param_count"),
    ])
    @pytest.mark.parametrize("value", [0, -5])
    def test_base_shape_below_one_rejected(self, tmp_path, key, field, value):
        p = tmp_path / "adapter.bin"
        save_adapter(init_adapter(SPEC, r=2, seed=4), p)
        header, tensors = load_tensors(p, _ADAPTER_MAGIC, _ADAPTER_KEYS)
        header[key] = value
        save_tensors(p, _ADAPTER_MAGIC, header, tensors)
        with pytest.raises(CorruptFile, match=rf"^{re.escape(str(p))}: bad "
                           rf"header value: {field} must be >= 1, got {value}$"):
            load_adapter(p)

    def test_scaling_mode_round_trips(self, tmp_path):
        a = init_adapter(SPEC, r=2, seed=4, scaling="normalized")
        p = tmp_path / "adapter.bin"
        save_adapter(a, p)
        assert load_adapter(p).scaling == "normalized"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _payload_sha256(path) -> str:
    blob = path.read_bytes()[:-32]
    return hashlib.sha256(blob[blob.index(b"\nend\n") + 5:]).hexdigest()


class TestPinnedBytes:
    """save_adapter's bytes for a fresh adapter and for one trained with
    dropout, pinned by SHA-256: the file layout, the init draw, the tensor
    names and the training arithmetic all show in them. The payload hashes
    cover the bytes between the end line and the checksum, the tensors
    alone, so that a change to the table part cannot move them."""

    FRESH = "6442fcb4d9e00065f0cca38edc455b330ff64f504a14483beac86b12523147e9"
    TRAINED = "1b35047bb4882f1918de26173b49454e1e176c75be2fbe7fbd6acfc8cdd87801"
    FRESH_PAYLOAD = (
        "52f5bc7e1525437d7d21d0975546e70317e32849284ee5c5b688d218bc0c2fdc")
    TRAINED_PAYLOAD = (
        "b03fcbaba80d35445544063c385db11b79971eb733e5021ee8b7cf3ceabfb5eb")

    @staticmethod
    def _trained() -> LoraAdapter:
        model = ToyLM.init(ToyLMConfig(
            vocab_size=40, speech_offset=32, speech_count=8, layers=2,
            width=16, heads=2, ff_width=32, max_seq=48, seed=11,
        ))
        # Ids 30 and 31 are the tag tokens, so the tag deltas train too.
        examples = [TrainingExample((n % 30, 30, 7 * n % 30, 31),
                                    (32 + n % 7, 32 + 3 * n % 7))
                    for n in range(8)]
        adapter = init_adapter(model.shape_spec(), r=2, alpha=8.0,
                               dropout_rate=0.1, seed=5)
        train_adapter(model, adapter, examples,
                      TrainConfig(steps=20, learning_rate=1e-2, batch_size=4,
                                  seed=3))
        return adapter

    def test_fresh_adapter(self, tmp_path):
        p = tmp_path / "fresh.ut"
        save_adapter(init_adapter(SPEC, r=3, alpha=6.0, dropout_rate=0.1,
                                  seed=9), p)
        assert p.read_bytes().startswith(
            b"uttertune-adapter v1\nrank\t3\nalpha\t6.0\ndropout\t0.1\n"
            b"scaling\tliteral\nseed\t9\nbase_layers\t2\nbase_width\t64\n"
            b"base_params\t250000\nbase_fingerprint\t\nrow\tL0.q.B\t64 3\n")
        assert _sha256(p) == self.FRESH
        assert _payload_sha256(p) == self.FRESH_PAYLOAD

    def test_trained_adapter_and_its_load_save_round_trip(self, tmp_path):
        first, again = tmp_path / "trained.ut", tmp_path / "again.ut"
        save_adapter(self._trained(), first)
        save_adapter(load_adapter(first), again)
        assert _sha256(first) == _sha256(again) == self.TRAINED
        assert _payload_sha256(first) == self.TRAINED_PAYLOAD

    def test_one_naming_for_file_and_forward(self, tmp_path):
        adapter = self._trained()
        p = tmp_path / "adapter.ut"
        save_adapter(adapter, p)
        tensors = adapter.tensors()
        names = list(tensors)
        assert names == list(load_tensors(p, _ADAPTER_MAGIC, _ADAPTER_KEYS)[1])
        assert names[:3] == ["L0.q.B", "L0.q.C", "L0.k.B"]
        assert names[-1] == "tag_deltas"
        assert tensors["L1.o.C"] is adapter.layers[-1].C
        for dtype in (np.float32, np.float64):
            assert list(_adapter_params(adapter, dtype)[0]) == names
        # float32 arrays are handed to the decode as they are.
        params32 = _adapter_params(adapter, np.float32)[0]
        assert all(params32[n] is tensors[n] for n in names)
