"""Matching substrate: encoders, correlation, GRU loop, loss, accounting."""

import hashlib

import numpy as np
import pytest

import graphflow.tensor as tt
from graphflow.checkpoint import save_checkpoint
from graphflow.config import ModelConfig
from graphflow.counting import conv_flops, count_flops, count_params
from graphflow.data import FlowField
from graphflow.errors import ConfigError, ContractError, DimensionError
from graphflow.gradcheck import gradcheck
from graphflow.layers import Conv2d
from graphflow.model import (ConvGRU, FlowModel, MotionEncoder,
                             build_corr_pyramid, lookup, sequence_loss,
                             upsample_flow)
from graphflow.tensor import Tensor, mul, tsum

from oracles import naive_corr_pyramid, naive_lookup, naive_upsample


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad,
                  dtype=np.float64)


def micro_cfg(**kw):
    base = dict(feature_channels=4, context_channels=4, nodes=3,
                refine_iters=2, lookup_radius=1, downsample=4, seed=3)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def f64():
    with tt.precision(64):
        yield


class TestEncoders:
    def test_output_extents_follow_downsample(self, f64):
        model = FlowModel(micro_cfg())
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(3, 16, 24))
        f1, f2 = model.encode_features(img, img)
        assert f1.shape == (4, 4, 6)
        assert model.encode_context(img).shape == (4, 4, 6)

    def test_identical_images_share_features_bitwise(self, f64):
        model = FlowModel(micro_cfg())
        img = np.random.default_rng(1).uniform(size=(3, 16, 16))
        f1, f2 = model.encode_features(img, img)
        assert np.array_equal(f1.data, f2.data)

    def test_context_ignores_the_second_image(self, f64):
        model = FlowModel(micro_cfg())
        rng = np.random.default_rng(2)
        i1 = rng.uniform(size=(3, 16, 16))
        fc_a = model.encode_context(i1).data
        fc_b = model.encode_context(i1).data
        assert np.array_equal(fc_a, fc_b)
        # forward with different second images leaves the context stream alone
        preds_a = model.forward(i1, rng.uniform(size=(3, 16, 16)))
        preds_b = model.forward(i1, rng.uniform(size=(3, 16, 16)))
        assert preds_a[0].shape == preds_b[0].shape

    def test_indivisible_extents_are_a_config_error(self, f64):
        model = FlowModel(micro_cfg())
        with pytest.raises(ConfigError):
            model.encode_context(np.zeros((3, 18, 16)))


class TestCorrelation:
    def test_self_match_scores_inverse_sqrt_dim(self, f64):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(4, 3, 3))
        f = f / np.sqrt((f * f).sum(axis=0, keepdims=True))
        pyr = build_corr_pyramid(t64(f), t64(f))
        lvl0 = pyr.levels[0].data
        for p in range(9):
            assert np.isclose(lvl0[p, p // 3, p % 3], 1.0 / 2.0, atol=1e-12)

    def test_orthogonal_columns_have_zero_cross_cost(self, f64):
        f1 = np.zeros((4, 1, 2))
        f2 = np.zeros((4, 1, 2))
        f1[0, 0, 0] = 1.0
        f1[1, 0, 1] = 1.0
        f2[2, 0, 0] = 1.0
        f2[3, 0, 1] = 1.0
        pyr = build_corr_pyramid(t64(f1), t64(f2))
        assert np.array_equal(pyr.levels[0].data, np.zeros((2, 1, 2)))

    def test_pyramid_matches_loop_oracle_exactly_on_integer_features(self, f64):
        rng = np.random.default_rng(4)
        f1 = rng.integers(-3, 4, size=(4, 6, 5)).astype(np.float64)
        f2 = rng.integers(-3, 4, size=(4, 6, 5)).astype(np.float64)
        pyr = build_corr_pyramid(t64(f1), t64(f2))
        ref = naive_corr_pyramid(f1, f2, 4)
        assert len(pyr.levels) == 4
        for got, want in zip(pyr.levels, ref):
            assert got.shape == want.shape
            assert np.array_equal(got.data, want)

    def test_target_extents_halve_with_ceil(self, f64):
        rng = np.random.default_rng(5)
        f = t64(rng.normal(size=(2, 5, 7)))
        pyr = build_corr_pyramid(f, f)
        assert [lvl.shape[1:] for lvl in pyr.levels] == \
            [(5, 7), (3, 4), (2, 2), (1, 1)]


class TestLookup:
    def test_zero_flow_center_reads_self_cost(self, f64):
        rng = np.random.default_rng(6)
        f = rng.integers(-3, 4, size=(4, 4, 4)).astype(np.float64)
        pyr = build_corr_pyramid(t64(f), t64(f))
        out = lookup(pyr, t64(np.zeros((2, 4, 4))), radius=0)
        assert out.shape == (4, 4, 4)
        lvl0 = pyr.levels[0].data
        for p in range(16):
            assert out.data[0, p // 4, p % 4] == lvl0[p, p // 4, p % 4]

    def test_channel_count_is_four_windows(self, f64):
        rng = np.random.default_rng(7)
        f = t64(rng.normal(size=(4, 8, 8)))
        pyr = build_corr_pyramid(f, f)
        out = lookup(pyr, t64(np.zeros((2, 8, 8))), radius=4)
        assert out.shape == (4 * 81, 8, 8)

    def test_matches_gather_oracle_exactly_on_integer_flow(self, f64):
        rng = np.random.default_rng(8)
        f1 = rng.integers(-3, 4, size=(4, 6, 6)).astype(np.float64)
        f2 = rng.integers(-3, 4, size=(4, 6, 6)).astype(np.float64)
        pyr = build_corr_pyramid(t64(f1), t64(f2))
        flow = rng.integers(-2, 3, size=(2, 6, 6)).astype(np.float64)
        out = lookup(pyr, t64(flow), radius=1)
        ref = naive_lookup([l.data for l in pyr.levels], flow, 1)
        assert np.array_equal(out.data, ref)

    def test_matches_gather_oracle_on_fractional_flow(self, f64):
        rng = np.random.default_rng(9)
        f1 = rng.normal(size=(3, 5, 5))
        f2 = rng.normal(size=(3, 5, 5))
        pyr = build_corr_pyramid(t64(f1), t64(f2))
        flow = rng.uniform(-2.0, 2.0, size=(2, 5, 5))
        out = lookup(pyr, t64(flow), radius=2)
        ref = naive_lookup([l.data for l in pyr.levels], flow, 2)
        assert np.allclose(out.data, ref, atol=1e-5)

    @staticmethod
    def _integer_pyramid(rng, h, w):
        """Integer features with c = 4: every cost and pooled cost is exact."""
        f1 = rng.integers(-3, 4, size=(4, h, w)).astype(np.float64)
        f2 = rng.integers(-3, 4, size=(4, h, w)).astype(np.float64)
        return build_corr_pyramid(t64(f1), t64(f2))

    @pytest.mark.parametrize("border", ["left", "right", "top", "bottom"])
    def test_windows_straddling_a_border_match_the_oracle_bitwise(self, f64,
                                                                  border):
        rng = np.random.default_rng(13)
        h, w = 6, 7
        pyr = self._integer_pyramid(rng, h, w)
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        near = rng.integers(-8, 9, size=(h, w)) / 4.0
        flow = rng.integers(-8, 9, size=(2, h, w)) / 4.0
        axis, edge, pos = {"left": (0, 0, xs), "right": (0, w - 1, xs),
                           "top": (1, 0, ys), "bottom": (1, h - 1, ys)}[border]
        flow[axis] = edge + near - pos       # every centre within 2 px of the edge
        out = lookup(pyr, t64(flow), radius=2)
        ref = naive_lookup([l.data for l in pyr.levels], flow, 2)
        assert np.array_equal(out.data, ref)

    @pytest.mark.parametrize("axis,sign", [(0, -1), (0, 1), (1, -1), (1, 1)])
    def test_windows_wholly_off_the_map_read_zero_at_every_level(self, f64,
                                                                 axis, sign):
        rng = np.random.default_rng(14)
        pyr = self._integer_pyramid(rng, 6, 6)
        flow = rng.integers(-8, 9, size=(2, 6, 6)) / 4.0
        flow[axis] = sign * rng.integers(144, 161, size=(6, 6)) / 4.0
        out = lookup(pyr, t64(flow), radius=1)
        ref = naive_lookup([l.data for l in pyr.levels], flow, 1)
        assert not out.data.any()
        assert np.array_equal(out.data, ref)

    def test_radius_zero_matches_the_oracle_bitwise(self, f64):
        rng = np.random.default_rng(15)
        pyr = self._integer_pyramid(rng, 5, 6)
        flow = rng.integers(-12, 13, size=(2, 5, 6)) / 4.0
        out = lookup(pyr, t64(flow), radius=0)
        assert out.shape == (4, 5, 6)
        ref = naive_lookup([l.data for l in pyr.levels], flow, 0)
        assert np.array_equal(out.data, ref)

    def test_finite_difference_check_in_features_and_flow(self, f64):
        rng = np.random.default_rng(16)
        f1 = t64(rng.normal(size=(3, 5, 5)), grad=True)
        f2 = t64(rng.normal(size=(3, 5, 5)), grad=True)
        # p + flow(p) sits 0.2 to 0.8 px past an integer, so no centre
        # is on a bilinear kink at any level
        flow = t64(rng.integers(-3, 4, size=(2, 5, 5))
                   + rng.uniform(0.2, 0.8, size=(2, 5, 5)), grad=True)
        wsum = t64(rng.normal(size=(4 * 9, 5, 5)))
        rep = gradcheck(
            lambda: tsum(mul(lookup(build_corr_pyramid(f1, f2), flow, 1), wsum)),
            {"f1": f1, "f2": f2, "flow": flow})
        assert rep.max_rel_err < 1e-6


class TestMotionEncoderAndGru:
    def test_motion_encoder_output_channels(self, f64):
        rng = np.random.default_rng(10)
        enc = MotionEncoder(rng, {}, "mot", corr_ch=36, cout=6)
        out = enc(t64(np.random.default_rng(0).normal(size=(36, 4, 4))),
                  t64(np.zeros((2, 4, 4))))
        assert out.shape == (6, 4, 4)

    def test_zero_inputs_give_bias_driven_deterministic_output(self, f64):
        rng = np.random.default_rng(11)
        enc = MotionEncoder(rng, {}, "mot", corr_ch=36, cout=6)
        a = enc(t64(np.zeros((36, 4, 4))), t64(np.zeros((2, 4, 4))))
        b = enc(t64(np.zeros((36, 4, 4))), t64(np.zeros((2, 4, 4))))
        assert np.array_equal(a.data, b.data)

    def test_motion_encoder_finite_difference_check(self, f64):
        rng = np.random.default_rng(12)
        params = {}
        enc = MotionEncoder(rng, params, "mot", corr_ch=8, cout=4)
        corr = t64(rng.normal(size=(8, 3, 3)))
        flow = t64(rng.normal(size=(2, 3, 3)))
        wsum = t64(rng.normal(size=(4, 3, 3)))
        rep = gradcheck(lambda: tsum(mul(enc(corr, flow), wsum)), params)
        assert rep.max_rel_err < 1e-4

    def test_gru_preserves_state_shape_and_bounds(self, f64):
        rng = np.random.default_rng(13)
        gru = ConvGRU(rng, {}, "gru", hidden=5, input_ch=8)
        h = gru.initial_state(t64(rng.normal(size=(5, 4, 4))))
        assert np.all(np.abs(h.data) <= 1.0)
        h2 = gru(h, t64(rng.normal(size=(8, 4, 4))))
        assert h2.shape == (5, 4, 4)

    def test_saturated_update_gate_freezes_the_state(self, f64):
        rng = np.random.default_rng(14)
        gru = ConvGRU(rng, {}, "gru", hidden=5, input_ch=8)
        gru.convz.w.data = np.zeros_like(gru.convz.w.data)
        gru.convz.b.data = np.full_like(gru.convz.b.data, -60.0)
        h = gru.initial_state(t64(rng.normal(size=(5, 4, 4))))
        h2 = gru(h, t64(rng.normal(size=(8, 4, 4))))
        assert np.array_equal(h2.data, h.data)


class TestFlowHeadAndUpsample:
    def test_constant_field_upsamples_to_scaled_constant(self, f64):
        flow = t64(np.stack([np.full((4, 4), 1.0), np.full((4, 4), 2.0)]))
        up = upsample_flow(flow, 4)
        assert up.shape == (2, 16, 16)
        assert np.array_equal(up.data[0], np.full((16, 16), 4.0))
        assert np.array_equal(up.data[1], np.full((16, 16), 8.0))

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("h,w", [(1, 4), (4, 1), (3, 5)])
    def test_matches_naive_bilinear_oracle(self, f64, h, w, d):
        rng = np.random.default_rng(15)
        flow = rng.normal(size=(2, h, w))
        up = upsample_flow(t64(flow), d)
        assert up.shape == (2, h * d, w * d)
        assert np.allclose(up.data, naive_upsample(flow, d), atol=1e-12)


class TestForward:
    def test_returns_one_prediction_per_iteration_at_image_extents(self, f64):
        model = FlowModel(micro_cfg())
        rng = np.random.default_rng(16)
        preds = model.forward(rng.uniform(size=(3, 8, 8)),
                              rng.uniform(size=(3, 8, 8)))
        assert len(preds) == 2
        assert all(p.shape == (2, 8, 8) for p in preds)

    def test_two_fresh_models_with_one_seed_agree_bitwise(self, f64):
        rng = np.random.default_rng(17)
        i1, i2 = rng.uniform(size=(3, 8, 8)), rng.uniform(size=(3, 8, 8))
        a = FlowModel(micro_cfg()).forward(i1, i2)
        b = FlowModel(micro_cfg()).forward(i1, i2)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.data, pb.data)

    def test_predict_returns_final_field_without_graph(self, f64):
        model = FlowModel(micro_cfg())
        rng = np.random.default_rng(18)
        out = model.predict(rng.uniform(size=(3, 8, 8)),
                            rng.uniform(size=(3, 8, 8)))
        assert isinstance(out, FlowField)
        assert out.flow.shape == (2, 8, 8)

    @pytest.mark.parametrize("mode", ["base", "sgr", "agr"])
    def test_every_graph_mode_runs_end_to_end(self, f64, mode):
        model = FlowModel(micro_cfg(graph=mode))
        rng = np.random.default_rng(19)
        preds = model.forward(rng.uniform(size=(3, 8, 8)),
                              rng.uniform(size=(3, 8, 8)))
        assert np.all(np.isfinite(preds[-1].data))


class TestSequenceLoss:
    def test_perfect_predictions_score_zero(self, f64):
        gt = FlowField(flow=np.ones((2, 4, 4), dtype=np.float32))
        preds = [t64(np.ones((2, 4, 4))) for _ in range(3)]
        assert sequence_loss(preds, gt).item() == 0.0

    def test_all_ones_error_single_prediction_scores_two(self, f64):
        gt = FlowField(flow=np.zeros((2, 4, 4), dtype=np.float32))
        loss = sequence_loss([t64(np.ones((2, 4, 4)))], gt)
        assert loss.item() == 2.0

    def test_weights_decay_geometrically_toward_early_iterations(self, f64):
        gt = FlowField(flow=np.zeros((2, 2, 2), dtype=np.float32))
        preds = [t64(np.ones((2, 2, 2))), t64(np.zeros((2, 2, 2)))]
        # first of two predictions carries weight gamma
        assert np.isclose(sequence_loss(preds, gt, gamma=0.8).item(), 1.6,
                          atol=1e-12)

    def test_invalid_pixels_are_excluded(self, f64):
        valid = np.zeros((2, 2), dtype=bool)
        valid[0, 0] = True
        gt = FlowField(flow=np.zeros((2, 2, 2), dtype=np.float32), valid=valid)
        pred = np.zeros((2, 2, 2))
        pred[:, 1, 1] = 100.0   # masked out
        pred[0, 0, 0] = 3.0
        assert np.isclose(sequence_loss([t64(pred)], gt).item(), 3.0, atol=1e-12)

    def test_empty_sequence_is_rejected(self, f64):
        with pytest.raises(ContractError):
            sequence_loss([], FlowField(flow=np.zeros((2, 2, 2))))

    def test_matches_direct_computation_on_random_fields(self, f64):
        rng = np.random.default_rng(20)
        gt_arr = rng.normal(size=(2, 4, 4)).astype(np.float32)
        valid = rng.uniform(size=(4, 4)) > 0.3
        gt = FlowField(flow=gt_arr, valid=valid)
        preds = [rng.normal(size=(2, 4, 4)) for _ in range(3)]
        want = 0.0
        for i, p in enumerate(preds):
            err = np.abs(p - gt_arr.astype(np.float64)).sum(axis=0)
            want += 0.8 ** (2 - i) * err[valid].mean()
        got = sequence_loss([t64(p) for p in preds], gt).item()
        assert np.isclose(got, want, atol=1e-9)

    def test_gradient_reaches_predictions(self, f64):
        gt = FlowField(flow=np.zeros((2, 3, 3), dtype=np.float32))
        pred = t64(np.random.default_rng(21).normal(size=(2, 3, 3)), grad=True)
        sequence_loss([pred], gt).backward()
        assert np.array_equal(pred.grad, np.sign(pred.data) / 9.0)


class TestCheckpointRoundTrip:
    def test_state_round_trips_through_load(self, f64):
        model = FlowModel(micro_cfg())
        state = model.state()
        other = FlowModel(micro_cfg(seed=99))
        other.load_state({k: v.astype(np.float32) for k, v in state.items()})
        for k in state:
            assert np.allclose(other.params[k].data, state[k], atol=1e-7)

    def test_unknown_entry_is_rejected(self, f64):
        model = FlowModel(micro_cfg())
        state = model.state()
        state["bogus.w"] = np.zeros(3)
        with pytest.raises(ContractError):
            model.load_state(state)

    def test_extent_mismatch_names_the_parameter(self, f64):
        model = FlowModel(micro_cfg())
        other = FlowModel(micro_cfg(nodes=5))
        state = other.state()
        with pytest.raises(DimensionError, match="graph."):
            model.load_state(state)

    def test_missing_parameter_is_rejected(self, f64):
        model = FlowModel(micro_cfg())
        state = model.state()
        state.pop("head.conv2.w")
        with pytest.raises(ContractError, match="head.conv2.w"):
            model.load_state(state)


class TestRegistration:
    """A fresh model's checkpoint bytes fix every parameter name, the
    registration order and the RNG draw order at once."""

    @pytest.mark.parametrize("mode,digest", [
        ("base", "59b7b6e669dce080c795a83445e259f289cb51e6f4979cd51f529c4f6d51b518"),
        ("sgr", "bb1df35bf96a0afbe190f25748bddf90eee1e938618c05d2fd3f06e018125578"),
        ("agr", "983c8d00a438dc77f6782b59b833a1a93505a0b425ca2188611e0e207398ebaa"),
    ])
    def test_fresh_model_checkpoint_bytes_are_pinned(self, tmp_path, mode,
                                                     digest):
        cfg = ModelConfig(feature_channels=16, context_channels=16, nodes=8,
                          refine_iters=3, graph=mode, seed=3)
        path = tmp_path / "fresh.agfw"
        save_checkpoint(path, FlowModel(cfg).state())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCounting:
    def test_single_conv_closed_forms(self):
        conv = Conv2d(np.random.default_rng(0), {}, "conv", 2, 4, 3)
        assert conv.w.data.size + conv.b.data.size == 76
        assert conv_flops(2, 4, 3, 8, 8) == 9216

    def test_component_sums_match_registry_total(self, f64):
        model = FlowModel(micro_cfg())
        counts = count_params(model)
        assert counts["total"] == model.param_count()
        assert set(counts) == {"feature_encoder", "context_encoder",
                               "motion_encoder", "graph", "update",
                               "flow_head", "total"}

    def test_graph_capacity_ordering_across_modes(self, f64):
        sizes = {}
        for mode in ("base", "sgr", "agr"):
            model = FlowModel(micro_cfg(graph=mode, context_channels=8, nodes=4))
            sizes[mode] = count_params(model)["graph"]
        assert sizes["base"] < sizes["sgr"] < sizes["agr"]

    def test_flops_scale_with_refinement_iterations(self, f64):
        short = count_flops(micro_cfg(refine_iters=2), 16, 16)
        long = count_flops(micro_cfg(refine_iters=4), 16, 16)
        assert long["flow_head"] == 2 * short["flow_head"]
        assert long["feature_encoder"] == short["feature_encoder"]
        with pytest.raises(DimensionError):
            count_flops(micro_cfg(), 18, 16)


class TestFullModelGradients:
    def test_micro_model_end_to_end_finite_difference_check(self, f64):
        """Whole-network gradcheck at micro dims.

        Gates are opened and parameters jittered first; at init the
        node path carries no gradient and zero biases sit on relu
        corners, making the comparison vacuous or one-sided.
        """
        model = FlowModel(micro_cfg())
        rng = np.random.default_rng(22)
        for p in model.params.values():
            p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
        model.graph.alpha.data = np.asarray(0.4)
        model.graph.beta.data = np.asarray(-0.3)
        i1 = rng.uniform(size=(3, 8, 8))
        i2 = rng.uniform(size=(3, 8, 8))
        gt = FlowField(flow=rng.normal(size=(2, 8, 8)).astype(np.float32))
        sample = {
            "fnet.stem.w": model.params["fnet.stem.w"],
            "fnet.out.b": model.params["fnet.out.b"],
            "cnet.down.w": model.params["cnet.down.w"],
            "mot.fuse.w": model.params["mot.fuse.w"],
            "graph.theta.w": model.params["graph.theta.w"],
            "graph.adapter.w": model.params["graph.adapter.w"],
            "graph.alpha": model.params["graph.alpha"],
            "graph.beta": model.params["graph.beta"],
            "gru.convz.w": model.params["gru.convz.w"],
            "head.conv2.w": model.params["head.conv2.w"],
        }

        def fn():
            return sequence_loss(model.forward(i1, i2), gt)

        rep = gradcheck(fn, sample)
        assert rep.max_rel_err < 1e-3
