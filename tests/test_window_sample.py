"""The all-level window lookup against the per-level ops it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflow.model as model_mod
from graphflow import tensor as tt
from graphflow.config import ModelConfig
from graphflow.data import FlowField
from graphflow.errors import ContractError, DimensionError
from graphflow.model import (FlowModel, _pixel_grid, build_corr_pyramid,
                             lookup, sequence_loss)
from graphflow.tensor import (Tensor, add, concat, mul, reshape, scale, tsum,
                              window_sample)


def level_window_sample(vol, centers, radius):
    """One level's windows from a zero-padded copy of that level: the
    per-level op that the all-level ``window_sample`` replaced."""
    n, h, w = vol.shape
    k = 2 * radius + 2
    hp, wp = h + 2 * k, w + 2 * k
    cx, cy = centers.data
    x0, y0 = np.floor(cx), np.floor(cy)
    fx, fy = cx - x0, cy - y0
    xs = np.clip(x0.astype(np.int64) - radius, -k, w) + k
    ys = np.clip(y0.astype(np.int64) - radius, -k, h) + k
    steps = np.arange(k)
    lin = ((steps[:, None] * wp + steps)[:, :, None]
           + ((np.arange(n) * hp + ys) * wp + xs))
    padded = np.zeros((n, hp, wp), dtype=vol.data.dtype)
    padded[:, k:k + h, k:k + w] = vol.data
    win = padded.reshape(-1)[lin]
    tx = win[:, 1:] - win[:, :-1]
    tx *= fx
    tx += win[:, :-1]
    out = tx[1:] - tx[:-1]
    out *= fy
    out += tx[:-1]

    def backward(g):
        g = g.reshape(k - 1, k - 1, n)
        if vol.requires_grad:
            gf = g * fy
            gtx = np.empty((k, k - 1, n), dtype=g.dtype)
            np.subtract(g, gf, out=gtx[:-1])
            gtx[-1] = gf[-1]
            gtx[1:-1] += gf[:-1]
            gf = gtx * fx
            gwin = np.empty_like(win)
            np.subtract(gtx, gf, out=gwin[:, :-1])
            gwin[:, -1] = gf[:, -1]
            gwin[:, 1:-1] += gf[:, :-1]
            gpad = np.zeros(n * hp * wp, dtype=vol.data.dtype)
            gpad[lin] = gwin
            vol._accum(gpad.reshape(n, hp, wp)[:, k:k + h, k:k + w])
        if centers.requires_grad:
            ddx = win[:, 1:] - win[:, :-1]
            tx = ddx * fx
            tx += win[:, :-1]
            dfx = ddx[1:] - ddx[:-1]
            dfx *= fy
            dfx += ddx[:-1]
            gc = np.stack([np.einsum("ijn,ijn->n", g, dfx),
                           np.einsum("ijn,ijn->n", g, tx[1:] - tx[:-1])])
            centers._accum(gc.astype(centers.data.dtype, copy=False))

    return Tensor._from_op(out.reshape(-1, n), (vol, centers), backward)


def composed_window_sample(levels, centers, radius):
    """Level l read at ``scale(centers, 2^-l)``, the levels concatenated."""
    return concat([level_window_sample(vol, scale(centers, 1.0 / 2 ** lvl),
                                       radius)
                   for lvl, vol in enumerate(levels)])


def composed_lookup(pyr, flow, radius):
    """``model.lookup`` as it was wired from per-level ops."""
    h, w = pyr.grid
    n = h * w
    s = (2 * radius + 1) ** 2
    grid = Tensor(_pixel_grid(h, w, flow.dtype), dtype=flow.dtype)
    centers = add(grid, reshape(flow, (2, n)))
    return concat([reshape(level_window_sample(vol, scale(centers, 1.0 / 2 ** lvl),
                                               radius), (s, h, w))
                   for lvl, vol in enumerate(pyr.levels)])


def run(sample, levels, centers, radius, readout):
    """The windows and every input's gradient of a fixed readout."""
    for t in (*levels, centers):
        t.grad = None
    out = sample(levels, centers, radius)
    tsum(mul(out, readout)).backward()
    return out.data, [t.grad for t in (*levels, centers)]


def assert_bitwise(got, want):
    """Byte for byte: ``array_equal`` would take -0.0 for 0.0."""
    (out_g, grads_g), (out_w, grads_w) = got, want
    assert out_g.dtype == out_w.dtype and out_g.shape == out_w.shape
    assert out_g.tobytes() == out_w.tobytes()
    for gg, gw in zip(grads_g, grads_w):
        assert (gg is None) == (gw is None)
        if gw is not None:
            assert gg.dtype == gw.dtype and gg.shape == gw.shape
            assert gg.tobytes() == gw.tobytes()


def pyramid_inputs(rng, n_levels, h, w, dtype, placement):
    """Levels of ceil-halved extents and centres of one placement."""
    shapes = [(h, w)]
    for _ in range(n_levels - 1):
        shapes.append(((shapes[-1][0] + 1) // 2, (shapes[-1][1] + 1) // 2))
    n = h * w
    levels = [Tensor(rng.normal(size=(n, *hw)), requires_grad=True, dtype=dtype)
              for hw in shapes]
    ext = np.array([[w], [h]], dtype=np.float64)
    if placement == "inside":
        c = rng.uniform(0.0, 1.0, size=(2, n)) * (ext - 1)
    elif placement == "straddling":
        c = rng.choice([-1.0, 1.0], size=(2, n)) * rng.uniform(0, 3, size=(2, n))
        c += rng.integers(0, 2, size=(2, n)) * (ext - 1)
    elif placement == "far":
        # about +-1e6, so the clamped origins sit at the clamp bounds
        c = rng.choice([-1.0, 1.0], size=(2, n)) * rng.uniform(1e6, 2e6,
                                                              size=(2, n))
    elif placement == "tiny":
        # subnormal centres, some of them zero: scaling a subnormal by
        # 2^-l rounds, and any -0.0 must keep its sign
        tick = float(np.finfo(dtype).smallest_subnormal)
        c = rng.integers(-64, 65, size=(2, n)) * tick
    else:
        # far enough that even the coarsest level's windows miss the map
        side = rng.choice([-1.0, 1.0], size=(2, n))
        far = rng.uniform(5, 20, size=(2, n)) * 2 ** (n_levels - 1)
        c = np.where(side > 0, ext, 0.0) + side * far
    centers = Tensor(c, requires_grad=True, dtype=dtype)
    return levels, centers


class TestBitwiseAgainstPerLevelOps:
    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(1, 9), w=st.integers(1, 7),
           n_levels=st.integers(1, 4), radius=st.integers(0, 3),
           placement=st.sampled_from(["inside", "straddling", "off", "far",
                                      "tiny"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_forward_and_every_gradient(self, h, w, n_levels, radius,
                                        placement, dtype, seed):
        rng = np.random.default_rng(seed)
        levels, centers = pyramid_inputs(rng, n_levels, h, w, dtype, placement)
        side = 2 * radius + 1
        readout = Tensor(rng.normal(size=(n_levels * side * side, h * w)),
                         dtype=dtype)
        fused = run(window_sample, levels, centers, radius, readout)
        composed = run(composed_window_sample, levels, centers, radius, readout)
        assert_bitwise(fused, composed)
        if placement in ("off", "far"):
            assert not fused[0].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_that_need_no_gradient(self, dtype):
        rng = np.random.default_rng(4)
        levels, centers = pyramid_inputs(rng, 3, 5, 6, dtype, "straddling")
        levels[1].requires_grad = False
        readout = Tensor(rng.normal(size=(3 * 9, 30)), dtype=dtype)
        fused = run(window_sample, levels, centers, 1, readout)
        assert fused[1][1] is None
        assert_bitwise(fused, run(composed_window_sample, levels, centers, 1,
                                  readout))
        centers.requires_grad = False
        fused = run(window_sample, levels, centers, 1, readout)
        assert fused[1][-1] is None
        assert_bitwise(fused, run(composed_window_sample, levels, centers, 1,
                                  readout))


class TestTape:
    def test_a_lookup_is_one_window_node_over_every_level(self, monkeypatch):
        def no_pad(*args):
            raise AssertionError("the lookup padded a level")

        monkeypatch.setattr(tt, "_pad", no_pad)
        rng = np.random.default_rng(6)
        f1, f2 = (Tensor(rng.normal(size=(4, 8, 8)), requires_grad=True)
                  for _ in range(2))
        flow = Tensor(rng.normal(size=(2, 8, 8)), requires_grad=True)
        pyr = build_corr_pyramid(f1, f2)
        out = lookup(pyr, flow, 2)
        (node,) = out._parents                      # the closing reshape
        *levels, centers = node._parents
        assert len(levels) == 4
        assert all(a is b for a, b in zip(levels, pyr.levels))
        assert centers._parents[1]._parents == (flow,)
        tsum(out).backward()
        assert flow.grad is not None and f1.grad is not None


class TestShapes:
    def test_levels_and_centres_must_agree(self):
        def t64(shape):
            return Tensor(np.zeros(shape), dtype=np.float64)

        vol, centers = t64((3, 4, 4)), t64((2, 3))
        with pytest.raises(ContractError):
            window_sample([], centers, 1)
        with pytest.raises(DimensionError):
            window_sample([vol, t64((2, 2, 2))], centers, 1)
        with pytest.raises(DimensionError):
            window_sample([vol, t64((3, 2))], centers, 1)
        with pytest.raises(ContractError, match="dtype"):
            window_sample([vol, Tensor(np.zeros((3, 2, 2)))], centers, 1)


class TestWholeModel:
    @pytest.mark.parametrize("precision,fnet_tol", [(32, 1e-6), (64, 1e-14)])
    @pytest.mark.parametrize("mode", ["base", "sgr", "agr"])
    def test_predictions_loss_and_gradients(self, monkeypatch, mode,
                                            precision, fnet_tol):
        """32x32 with c = 16, weights jittered off their init. One lookup
        node hands the feature pyramid its per-iteration terms in another
        order than per-level ops did, relative to the pooled terms, so
        only the ``fnet`` gradients may differ, within rounding."""
        cfg = ModelConfig(feature_channels=16, context_channels=16, nodes=8,
                          refine_iters=3, lookup_radius=2, graph=mode, seed=3)
        rng = np.random.default_rng(19)
        i1, i2 = rng.uniform(size=(2, 3, 32, 32))
        gt = FlowField(flow=rng.normal(size=(2, 32, 32)).astype(np.float32))
        with tt.precision(precision):
            model = FlowModel(cfg)
            for p in model.params.values():
                p.data += rng.normal(scale=0.05, size=p.shape).astype(p.dtype)
            if mode != "base":
                model.graph.alpha.data[...] = 0.4
                model.graph.beta.data[...] = -0.3

            def step():
                for p in model.params.values():
                    p.grad = None
                preds = model.forward(i1, i2)
                loss = sequence_loss(preds, gt)
                loss.backward()
                return ([p.data for p in preds], loss.data,
                        {n: p.grad for n, p in model.params.items()})

            preds, loss, grads = step()
            monkeypatch.setattr(model_mod, "lookup", composed_lookup)
            ref_preds, ref_loss, ref_grads = step()
        for a, b in zip(preds, ref_preds):
            assert np.array_equal(a, b)
        assert np.array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            if name.startswith("fnet."):
                bound = fnet_tol * np.abs(ref).max()
                assert np.abs(grads[name] - ref).max() <= bound, name
            else:
                assert np.array_equal(grads[name], ref), name
