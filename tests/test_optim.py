"""AdamW stepping, the one-cycle schedule, and checkpoint serialization."""

import struct
from pathlib import Path

import numpy as np
import pytest

import graphflow.tensor as tt
from graphflow.checkpoint import load_checkpoint, save_checkpoint
from graphflow.errors import ContractError, FormatError
from graphflow.optim import AdamW, one_cycle_lr
from graphflow.tensor import Tensor, mul, tsum


@pytest.fixture
def f64():
    with tt.precision(64):
        yield


def quad_params(values):
    return {f"p{i}": Tensor(np.asarray(v, dtype=np.float64),
                            requires_grad=True, dtype=np.float64)
            for i, v in enumerate(values)}


class TestAdamW:
    def test_first_step_moves_by_learning_rate_against_the_gradient(self, f64):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        tsum(mul(p, p)).backward()
        opt.step()
        # bias-corrected first step is lr * sign(grad) regardless of scale
        assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-9)

    def test_weight_decay_is_decoupled_from_the_gradient(self, f64):
        p = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=0.5, weight_decay=0.1)
        p.grad = np.zeros(1)
        opt.step()
        # zero gradient: only the decay term lr * wd * w acts
        assert np.allclose(p.data, [2.0 - 0.5 * 0.1 * 2.0], atol=1e-12)

    def test_parameters_without_gradients_are_left_alone(self, f64):
        p = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=0.5, weight_decay=0.1)
        opt.step()
        assert np.array_equal(p.data, [3.0])

    def test_repeated_steps_descend_a_quadratic(self, f64):
        p = Tensor(np.array([5.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=0.05, weight_decay=0.0)
        for _ in range(400):
            opt.zero_grad()
            loss = tsum(mul(p, p))
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 0.05

    def test_step_accepts_a_schedule_override(self, f64):
        p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=1.0, weight_decay=0.0)
        p.grad = np.ones(1)
        opt.step(lr=0.0)
        assert np.array_equal(p.data, [1.0])

    def test_zero_grad_clears_every_buffer(self, f64):
        params = quad_params([1.0, 2.0])
        opt = AdamW(params, lr=0.1)
        for p in params.values():
            p.grad = np.ones(())
        opt.zero_grad()
        assert all(p.grad is None for p in params.values())

    def test_state_entries_round_trip_bitwise(self, f64):
        params = quad_params([[1.0, 2.0], [3.0]])
        opt = AdamW(params, lr=0.1)
        for p in params.values():
            p.grad = np.random.default_rng(0).normal(size=p.data.shape)
        opt.step()
        opt.step()
        entries = opt.state_entries()
        assert entries["meta.adam_t"] == np.float32(2.0)

        fresh = AdamW(quad_params([[0.0, 0.0], [0.0]]), lr=0.1)
        fresh.load_state_entries(entries)
        assert fresh.t == 2
        for name in ("p0", "p1"):
            assert np.array_equal(fresh.m[name], opt.m[name])
            assert np.array_equal(fresh.v[name], opt.v[name])

    def test_loading_misshapen_state_is_rejected(self, f64):
        opt = AdamW(quad_params([1.0]), lr=0.1)
        with pytest.raises(ContractError):
            opt.load_state_entries({"opt.m.p0": np.zeros(5, np.float32)})

    @pytest.mark.parametrize("counter", [
        np.asarray(3.0, np.float32), np.zeros(0, np.float32),
        np.asarray([np.nan], np.float32), np.asarray([-5.0], np.float32),
    ], ids=["rank0", "empty", "nan", "negative"])
    def test_malformed_step_counter_is_rejected(self, f64, counter):
        opt = AdamW(quad_params([1.0]), lr=0.1)
        entries = opt.state_entries()
        entries["meta.adam_t"] = counter
        with pytest.raises(ContractError, match="meta.adam_t"):
            opt.load_state_entries(entries)


class TestOneCycle:
    def test_warmup_rises_linearly_to_the_peak(self):
        total, peak = 100, 1.0
        lrs = [one_cycle_lr(s, total, peak, warmup_frac=0.1) for s in range(10)]
        assert np.allclose(lrs, [(s + 1) / 10 for s in range(10)], atol=1e-12)

    def test_peak_is_reached_at_the_end_of_warmup(self):
        assert one_cycle_lr(9, 100, 2.0, warmup_frac=0.1) == 2.0

    def test_anneal_ends_near_zero_but_stays_positive(self):
        last = one_cycle_lr(99, 100, 1.0, warmup_frac=0.1)
        assert 0.0 < last < 0.05

    def test_profile_is_unimodal(self):
        lrs = [one_cycle_lr(s, 200, 3.0) for s in range(200)]
        top = int(np.argmax(lrs))
        assert all(lrs[i] <= lrs[i + 1] + 1e-12 for i in range(top))
        assert all(lrs[i] >= lrs[i + 1] - 1e-12 for i in range(top, 199))

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(ContractError):
            one_cycle_lr(0, 0, 1.0)
        with pytest.raises(ContractError):
            one_cycle_lr(5, 5, 1.0)


class TestCheckpointContainer:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {
            "a.w": rng.normal(size=(4, 3)).astype(np.float32),
            "a.b": rng.normal(size=(4,)).astype(np.float32),
            "meta.adam_t": np.array([7.0], dtype=np.float32),
        }
        path = tmp_path / "model.agfw"
        save_checkpoint(path, entries)
        back = load_checkpoint(path)
        assert list(back) == list(entries)
        for k in entries:
            assert np.array_equal(back[k], entries[k])
            assert back[k].dtype == np.float32

    def test_failed_write_leaves_the_previous_file_intact(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "model.agfw"
        save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)})
        before = path.read_bytes()

        def half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError):
            save_checkpoint(path, {"w": np.ones(6, dtype=np.float32)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.agfw"]

    def test_rewriting_identical_state_gives_identical_bytes(self, tmp_path):
        entries = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        p1, p2 = tmp_path / "a.agfw", tmp_path / "b.agfw"
        save_checkpoint(p1, entries)
        save_checkpoint(p2, {"w": entries["w"].copy()})
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_spells_the_container_name(self, tmp_path):
        path = tmp_path / "c.agfw"
        save_checkpoint(path, {"x": np.zeros(1, np.float32)})
        assert path.read_bytes()[:4] == b"AGFW"

    def test_scalar_rank_zero_entries_survive(self, tmp_path):
        path = tmp_path / "d.agfw"
        save_checkpoint(path, {"alpha": np.asarray(0.25, dtype=np.float32)})
        back = load_checkpoint(path)
        assert back["alpha"].shape == ()
        assert back["alpha"] == np.float32(0.25)

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "e.agfw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte 0"):
            load_checkpoint(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "f.agfw"
        good = tmp_path / "g.agfw"
        save_checkpoint(good, {"x": np.zeros(1, np.float32)})
        blob = bytearray(good.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        good = tmp_path / "h.agfw"
        save_checkpoint(good, {"x": np.arange(8, dtype=np.float32)})
        path = tmp_path / "i.agfw"
        path.write_bytes(good.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_extents_whose_product_overflows_int64_are_rejected(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64; the header promises
        # 2**66 bytes of values and supplies none
        path = tmp_path / "m.agfw"
        path.write_bytes(b"AGFW" + struct.pack("<III", 1, 1, 1) + b"x"
                         + struct.pack("<5I", 4, *(65536,) * 4))
        with pytest.raises(FormatError, match="values truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        good = tmp_path / "j.agfw"
        save_checkpoint(good, {"x": np.zeros(2, np.float32)})
        path = tmp_path / "k.agfw"
        path.write_bytes(good.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_insertion_order_is_preserved(self, tmp_path):
        names = [f"n{i}" for i in (3, 1, 4, 1, 5)]
        entries = {}
        for i, n in enumerate(names):
            entries[n] = np.full(2, float(i), dtype=np.float32)
        path = tmp_path / "l.agfw"
        save_checkpoint(path, entries)
        assert list(load_checkpoint(path)) == list(entries)
