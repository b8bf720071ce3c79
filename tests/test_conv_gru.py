"""The fused ConvGRU cell against the composed ops it replaces, bit for bit."""

import numpy as np
import pytest

import graphflow.model as model_mod
from graphflow import tensor as tt
from graphflow.config import ModelConfig
from graphflow.data import FlowField
from graphflow.errors import ContractError, DimensionError
from graphflow.layers import tap_major
from graphflow.model import FlowModel, sequence_loss
from graphflow.tensor import (Tensor, add, concat, conv2d, conv_gru, mul,
                              scale, sigmoid, tanh, tsum)

GATES = ("wz", "bz", "wr", "br", "wq", "bq")


def composed_gru(hidden, x, wz, bz, wr, br, wq, bq):
    """The cell as separate engine ops, the wiring ``conv_gru`` replaced."""
    hx = concat([hidden, x])
    z = sigmoid(conv2d(hx, wz, bz))
    r = sigmoid(conv2d(hx, wr, br))
    q = tanh(conv2d(concat([mul(r, hidden), x]), wq, bq))
    one_minus_z = add(scale(z, -1.0), Tensor(1.0, dtype=z.dtype))
    return add(mul(one_minus_z, hidden), mul(z, q))


def cell_inputs(rng, c, ci, h, w, dtype, *, tap_major_weights=True,
                hidden_grad=True, x_grad=True):
    both = c + ci

    def tensor(shape, grad, std=1.0):
        return Tensor(rng.normal(scale=std, size=shape), requires_grad=grad,
                      dtype=dtype)

    args = {"hidden": tensor((c, h, w), hidden_grad),
            "x": tensor((ci, h, w), x_grad)}
    for gate in "zrq":
        wt = tensor((c, both, 3, 3), True, std=0.3)
        if tap_major_weights:
            wt.data = tap_major(wt.data)
        args[f"w{gate}"] = wt
        args[f"b{gate}"] = tensor((c,), True, std=0.3)
    return args


def run_cell(cell, args, readout):
    """The cell's output and every input's gradient of a fixed readout."""
    for t in args.values():
        t.grad = None
    out = cell(**args)
    tsum(mul(out, readout)).backward()
    return out.data, {name: t.grad for name, t in args.items()}


def assert_bitwise(fused, composed):
    (out_f, grads_f), (out_c, grads_c) = fused, composed
    assert out_f.dtype == out_c.dtype
    assert np.array_equal(out_f, out_c)
    assert grads_f.keys() == grads_c.keys()
    for name in grads_c:
        if grads_c[name] is None:
            assert grads_f[name] is None, name
        else:
            assert grads_f[name].shape == grads_c[name].shape, name
            assert np.array_equal(grads_f[name], grads_c[name]), name


class TestBitwiseAgainstComposedOps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,ci,h,w", [(3, 5, 1, 1), (3, 5, 1, 5),
                                          (4, 6, 4, 4), (16, 32, 8, 8)])
    @pytest.mark.parametrize("tap_major_weights", [True, False])
    def test_forward_and_all_eight_gradients(self, dtype, c, ci, h, w,
                                             tap_major_weights):
        rng = np.random.default_rng(c * 100 + h * 10 + w)
        args = cell_inputs(rng, c, ci, h, w, dtype,
                           tap_major_weights=tap_major_weights)
        readout = Tensor(rng.normal(size=(c, h, w)), dtype=dtype)
        composed = run_cell(composed_gru, args, readout)
        fused = run_cell(conv_gru, args, readout)
        assert all(g is not None for g in fused[1].values())
        assert_bitwise(fused, composed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden_grad,x_grad",
                             [(False, True), (True, False), (False, False)])
    def test_inputs_that_need_no_gradient(self, dtype, hidden_grad, x_grad):
        rng = np.random.default_rng(5)
        args = cell_inputs(rng, 4, 6, 4, 4, dtype, hidden_grad=hidden_grad,
                           x_grad=x_grad)
        readout = Tensor(rng.normal(size=(4, 4, 4)), dtype=dtype)
        fused = run_cell(conv_gru, args, readout)
        assert (fused[1]["hidden"] is None) == (not hidden_grad)
        assert (fused[1]["x"] is None) == (not x_grad)
        assert_bitwise(fused, run_cell(composed_gru, args, readout))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chained_cells_whose_states_are_also_read_elsewhere(self, dtype):
        """Each state feeds the next cell and a readout of its own, as the
        flow head reads it, so its gradient sums several consumers."""
        rng = np.random.default_rng(9)
        args = cell_inputs(rng, 4, 8, 5, 3, dtype)
        xs = [Tensor(rng.normal(size=(8, 5, 3)), requires_grad=True,
                     dtype=dtype) for _ in range(3)]
        readouts = [Tensor(rng.normal(size=(4, 5, 3)), dtype=dtype)
                    for _ in range(3)]
        leaves = {"h0": args["hidden"], **{g: args[g] for g in GATES},
                  **{f"x{i}": x for i, x in enumerate(xs)}}

        def grads(cell):
            for t in leaves.values():
                t.grad = None
            hidden, total = args["hidden"], None
            for x, readout in zip(xs, readouts):
                hidden = cell(hidden, x, *(args[g] for g in GATES))
                term = tsum(mul(tanh(hidden), readout))
                total = term if total is None else add(total, term)
            total.backward()
            return hidden.data, {n: t.grad for n, t in leaves.items()}

        assert_bitwise(grads(conv_gru), grads(composed_gru))

    @pytest.mark.parametrize("precision", [32, 64])
    def test_whole_model_predictions_and_gradients(self, monkeypatch,
                                                   precision):
        """agr at 32x32, c = 8, K = 4, three iterations, weights jittered
        off their init so no gate sits at its fresh value."""
        cfg = ModelConfig(feature_channels=8, context_channels=8, nodes=4,
                          refine_iters=3, lookup_radius=2, graph="agr",
                          seed=3)
        rng = np.random.default_rng(17)
        i1, i2 = rng.uniform(size=(2, 3, 32, 32))
        gt = FlowField(flow=rng.normal(size=(2, 32, 32)).astype(np.float32))
        with tt.precision(precision):
            model = FlowModel(cfg)
            for p in model.params.values():
                p.data += rng.normal(scale=0.05, size=p.shape).astype(p.dtype)
            model.graph.alpha.data[...] = 0.4
            model.graph.beta.data[...] = -0.3

            def run():
                for p in model.params.values():
                    p.grad = None
                preds = model.forward(i1, i2)
                sequence_loss(preds, gt).backward()
                return ([p.data for p in preds],
                        {n: p.grad for n, p in model.params.items()})

            fused_preds, fused = run()
            monkeypatch.setattr(model_mod, "conv_gru", composed_gru)
            composed_preds, composed = run()
        for a, b in zip(fused_preds, composed_preds):
            assert np.array_equal(a, b)
        for name, g in composed.items():
            assert np.array_equal(fused[name], g), name


class TestColumnBuilds:
    def test_one_full_build_then_a_rewrite_of_the_hidden_rows(self,
                                                              monkeypatch):
        builds, calls = [], []
        im2col, shift = tt._im2col, tt._shift_taps

        def building(x, k, stride):
            builds.append((x.shape, k, stride))
            return im2col(x, k, stride)

        def recording(taps, src, w, stride):
            calls.append((taps.shape, src.shape, stride))
            shift(taps, src, w, stride)

        monkeypatch.setattr(tt, "_im2col", building)
        monkeypatch.setattr(tt, "_shift_taps", recording)
        rng = np.random.default_rng(1)
        args = cell_inputs(rng, 16, 32, 8, 8, np.float32)
        with tt.no_grad():
            conv_gru(**args)
        assert builds == [((48, 8, 8), 3, 1)]
        assert calls == [((3, 3, 48, 8, 8), (48, 64), 1),
                         ((3, 3, 16, 8, 8), (16, 64), 1)]


class TestShapes:
    def test_state_and_input_on_different_grids_are_rejected(self):
        rng = np.random.default_rng(2)
        args = cell_inputs(rng, 2, 3, 4, 4, np.float64)
        args["x"] = Tensor(np.zeros((3, 4, 5)), dtype=np.float64)
        with pytest.raises(DimensionError, match="one grid"):
            conv_gru(**args)

    @pytest.mark.parametrize("gate,shape", [("wr", (3, 5, 3, 3)),
                                            ("wq", (2, 5, 5, 5)),
                                            ("bz", (3,))])
    def test_gates_of_other_extents_are_rejected(self, gate, shape):
        rng = np.random.default_rng(2)
        args = cell_inputs(rng, 2, 3, 4, 4, np.float64)
        args[gate] = Tensor(np.zeros(shape), dtype=np.float64)
        with pytest.raises(DimensionError):
            conv_gru(**args)

    def test_mixed_dtypes_are_rejected(self):
        rng = np.random.default_rng(2)
        args = cell_inputs(rng, 2, 3, 4, 4, np.float64)
        args["bq"] = Tensor(np.zeros(2), dtype=np.float32)
        with pytest.raises(ContractError, match="dtype"):
            conv_gru(**args)
