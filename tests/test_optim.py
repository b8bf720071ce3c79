"""AdamW stepping, the one-cycle schedule, and checkpoint serialization."""

import io
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphflow.optim as optim
import graphflow.tensor as tt
from graphflow.checkpoint import load_checkpoint, save_checkpoint
from graphflow.errors import ContractError, FormatError, NumericError
from graphflow.layers import tap_major
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

    def test_state_entries_are_live_views_of_the_moments(self, f64):
        params = quad_params([[1.0, 2.0], [3.0]])
        opt = AdamW(params, lr=0.1)
        entries = opt.state_entries()
        for name in params:
            assert np.shares_memory(entries[f"opt.m.{name}"], opt._m)
            assert np.shares_memory(entries[f"opt.v.{name}"], opt._v)

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


class ReferenceAdamW:
    """The per-parameter update, one parameter and temporary at a time."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update


# conv-weight shapes, a vector, a gate scalar, and one weight larger
# than the patched group size below
FLAT_SHAPES = [(6, 5, 3, 3), (6,), (), (40, 9, 3, 3), (4, 6, 1, 1), (7,)]


def shaped_params(shapes, dtype, seed=0):
    """Parameters drawn C-ordered; p0 is then stored tap-major, as
    Conv2d stores its weight, and the others stay C-ordered."""
    rng = np.random.default_rng(seed)
    params = {f"p{i}": Tensor(rng.normal(size=s).astype(dtype),
                              requires_grad=True, dtype=dtype)
              for i, s in enumerate(shapes)}
    params["p0"].data = tap_major(params["p0"].data)
    return params


def step_gradients(shapes, dtype, step):
    """Gradients for one step; rank-4 ones arrive tap-major, as conv2d
    hands them over, and p4 has none on odd steps."""
    rng = np.random.default_rng(100 + step)
    grads = {}
    for i, s in enumerate(shapes):
        if i == 4 and step % 2:
            grads[f"p{i}"] = None
        elif len(s) == 4:
            o, c, k, _ = s
            grads[f"p{i}"] = (rng.normal(size=(o, k, k, c)).astype(dtype)
                              .transpose(0, 3, 1, 2))
        else:
            grads[f"p{i}"] = rng.normal(size=s).astype(dtype)
    return grads


class TestFlatAdamW:
    @pytest.fixture(autouse=True)
    def small_groups(self, monkeypatch):
        # several groups, one parameter alone in an oversized group
        monkeypatch.setattr(optim, "GROUP_ELEMENTS", 600)

    @staticmethod
    def run_steps(opt, params, steps):
        for step in steps:
            for name, g in step_gradients(FLAT_SHAPES, params["p0"].dtype,
                                          step).items():
                params[name].grad = g
            opt.step()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_five_steps_match_the_per_parameter_update_bitwise(self, dtype):
        ref_params = shaped_params(FLAT_SHAPES, dtype)
        flat_params = shaped_params(FLAT_SHAPES, dtype)
        ref = ReferenceAdamW(ref_params, lr=3e-3, weight_decay=1e-2)
        opt = AdamW(flat_params, lr=3e-3, weight_decay=1e-2)
        assert len(opt._groups) > 2
        self.run_steps(ref, ref_params, range(5))
        self.run_steps(opt, flat_params, range(5))
        assert opt.t == ref.t == 5
        for name in ref_params:
            assert flat_params[name].data.dtype == dtype
            assert np.array_equal(flat_params[name].data, ref_params[name].data)
            assert np.array_equal(opt.m[name], ref.m[name])
            assert np.array_equal(opt.v[name], ref.v[name])

    def test_parameters_are_views_of_the_optimizer_buffer(self):
        """Each view keeps its parameter's memory order: p0 stays
        tap-major, the others C-ordered."""
        params = shaped_params(FLAT_SHAPES, np.float32)
        before = {n: p.data.copy() for n, p in params.items()}
        strides = {n: p.data.strides for n, p in params.items()}
        assert not params["p0"].data.flags.c_contiguous
        opt = AdamW(params, lr=1e-3)
        for name, p in params.items():
            assert np.shares_memory(p.data, opt._flat)
            assert p.data.strides == strides[name]
            assert np.array_equal(p.data, before[name])

    def test_checkpoint_resume_mid_run_stays_bitwise(self, tmp_path):
        params = shaped_params(FLAT_SHAPES, np.float32)
        opt = AdamW(params, lr=3e-3, weight_decay=1e-2)
        self.run_steps(opt, params, range(2))
        path = tmp_path / "mid.agfw"
        entries = {n: p.data.copy() for n, p in params.items()}
        entries.update(opt.state_entries())
        save_checkpoint(path, entries)
        self.run_steps(opt, params, range(2, 5))

        resumed = shaped_params(FLAT_SHAPES, np.float32, seed=9)
        ropt = AdamW(resumed, lr=3e-3, weight_decay=1e-2)
        back = load_checkpoint(path)
        for name, p in resumed.items():
            p.data[...] = back[name]            # as FlowModel.load_state does
        ropt.load_state_entries(back)
        self.run_steps(ropt, resumed, range(2, 5))
        for name in params:
            assert np.array_equal(resumed[name].data, params[name].data)
            assert np.array_equal(ropt.m[name], opt.m[name])
            assert np.array_equal(ropt.v[name], opt.v[name])
            assert np.shares_memory(resumed[name].data, ropt._flat)

    def test_rebinding_to_other_extents_is_rejected(self):
        params = shaped_params(FLAT_SHAPES, np.float32)
        opt = AdamW(params, lr=1e-3)
        params["p1"].data = np.zeros(5, np.float32)
        with pytest.raises(ContractError, match="rebound"):
            opt.step()

    @staticmethod
    def snapshot(opt, params):
        """Every weight, both moment buffers, the step counter and the rate."""
        return ([p.data.copy() for p in params.values()]
                + [opt._m.copy(), opt._v.copy(), np.array([opt.t, opt.lr])])

    def assert_untouched(self, opt, params, before):
        after = self.snapshot(opt, params)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_rebinding_to_the_same_extents_is_rejected_before_any_update(self):
        params = shaped_params(FLAT_SHAPES, np.float32)
        opt = AdamW(params, lr=1e-3, weight_decay=1e-2)
        self.run_steps(opt, params, range(2))
        views = {n: p.data for n, p in params.items()}
        before = self.snapshot(opt, params)
        params["p3"].data = views["p3"].copy()
        with pytest.raises(ContractError, match=r"parameter p3 was rebound"):
            self.run_steps(opt, params, [2])
        params["p3"].data = views["p3"]
        self.assert_untouched(opt, params, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_is_rejected_before_any_update(self, bad):
        params = shaped_params(FLAT_SHAPES, np.float32)
        opt = AdamW(params, lr=1e-3, weight_decay=1e-2)
        self.run_steps(opt, params, range(2))
        before = self.snapshot(opt, params)
        for name, g in step_gradients(FLAT_SHAPES, np.float32, 2).items():
            params[name].grad = g
        params["p5"].grad[3] = bad
        with pytest.raises(NumericError,
                           match=r"^gradient of p5 became non-finite at step 2$"):
            opt.step(lr=5e-2)
        self.assert_untouched(opt, params, before)

    def test_gradient_whose_squares_overflow_is_still_finite(self):
        """An entry of 1e30 is finite, but its square is not in float32, so
        its second moment would become inf and the update would leave that
        weight frozen from then on. The step is refused before any update,
        with its own message: the gradient is not reported non-finite."""
        params = shaped_params(FLAT_SHAPES, np.float32)
        opt = AdamW(params, lr=3e-3, weight_decay=1e-2)
        self.run_steps(opt, params, range(2))
        before = self.snapshot(opt, params)
        for name, g in step_gradients(FLAT_SHAPES, np.float32, 2).items():
            params[name].grad = g
        params["p3"].grad[0, 1] = 1e30
        with pytest.raises(NumericError,
                           match=r"^gradient of p3 has an entry whose square "
                                 r"overflows float32 at step 2$"):
            opt.step()
        self.assert_untouched(opt, params, before)

    def test_sum_of_squares_that_overflows_alone_still_updates(self):
        """Entries of 1e19 square to 1e38, inside float32's range, but the
        check's sum of squares over them overflows; the gradient is finite
        and the update runs, bitwise as the per-parameter one."""
        ref_params = shaped_params(FLAT_SHAPES, np.float32)
        flat_params = shaped_params(FLAT_SHAPES, np.float32)
        ref = ReferenceAdamW(ref_params, lr=3e-3, weight_decay=1e-2)
        opt = AdamW(flat_params, lr=3e-3, weight_decay=1e-2)
        for params, o in ((ref_params, ref), (flat_params, opt)):
            self.run_steps(o, params, range(2))
            for name, g in step_gradients(FLAT_SHAPES, np.float32, 2).items():
                params[name].grad = g
            params["p5"].grad[:] = -1e19
            o.step()
        for name in ref_params:
            assert np.array_equal(flat_params[name].data, ref_params[name].data)
            assert np.array_equal(opt.m[name], ref.m[name])
            assert np.array_equal(opt.v[name], ref.v[name])

    def test_mixed_dtypes_are_rejected(self):
        params = {"a": Tensor(np.zeros(2), dtype=np.float32),
                  "b": Tensor(np.zeros(2), dtype=np.float64)}
        with pytest.raises(ContractError, match="dtypes"):
            AdamW(params)


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

        class SecondWriteFails(io.FileIO):
            """The header lands on disk, then the device fills up."""
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return super().write(data)

        monkeypatch.setattr(Path, "open",
                            lambda self, mode: SecondWriteFails(self, mode))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, {"w": np.ones(6, dtype=np.float32)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.agfw"]

    def test_save_streams_without_a_whole_file_buffer(self, tmp_path):
        mib = 1 << 20
        entries = {f"e{i}": np.full(mib // 4, i, dtype=np.float32)
                   for i in range(8)}
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "big.agfw", entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * mib
        assert (tmp_path / "big.agfw").stat().st_size > 8 * mib

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

    def test_duplicate_entry_names_are_rejected(self, tmp_path):
        good = tmp_path / "n.agfw"
        save_checkpoint(good, {"a.w": np.zeros(2, np.float32),
                               "b.w": np.ones(2, np.float32)})
        blob = bytearray(good.read_bytes())
        # header 12 + entry 0: name length 4, "a.w" 3, rank 4, extent 4,
        # values 8; entry 1's name starts at byte 39
        assert blob[39:42] == b"b.w"
        blob[39] = ord("a")                  # one byte: "b.w" -> "a.w"
        path = tmp_path / "o.agfw"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"'a\.w' at byte 39"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_rejected_by_name(self, tmp_path, bad):
        values = np.ones(4, np.float32)
        values[2] = bad
        path = tmp_path / "nf.agfw"
        save_checkpoint(path, {"a.w": np.zeros(2, np.float32),
                               "head.conv2.w": values})
        with pytest.raises(FormatError,
                           match=r"entry 'head\.conv2\.w' holds NaN or inf"):
            load_checkpoint(path)

    def test_entries_are_writable_and_independent(self, tmp_path):
        entries = {"a": np.arange(3, dtype=np.float32),
                   "bb.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "c": np.asarray(7.0, dtype=np.float32)}
        path = tmp_path / "w.agfw"
        save_checkpoint(path, entries)
        before = path.read_bytes()
        back = load_checkpoint(path)
        for name, arr in back.items():
            assert arr.flags.writeable
            arr[...] = -1.0
            for other, orig in entries.items():
                if other != name:
                    assert np.array_equal(back[other], orig)
            arr[...] = entries[name]
        assert path.read_bytes() == before

    def test_insertion_order_is_preserved(self, tmp_path):
        names = [f"n{i}" for i in (3, 1, 4, 1, 5)]
        entries = {}
        for i, n in enumerate(names):
            entries[n] = np.full(2, float(i), dtype=np.float32)
        path = tmp_path / "l.agfw"
        save_checkpoint(path, entries)
        assert list(load_checkpoint(path)) == list(entries)
