"""Graph reasoning stage: assignments, adjacency, adapter, fusion, identity."""

import numpy as np
import pytest

import graphflow.tensor as tt
from graphflow.errors import ConfigError, ContractError, DimensionError
from graphflow.gradcheck import gradcheck
from graphflow.graph import (GraphBlock, adapter_param_count,
                             analytic_param_count, attentive_fuse,
                             build_adjacency, gcn_step, graph_adapter,
                             predict_adapter_kernel, readout, reason,
                             residual_merge)
from graphflow.tensor import Tensor, tsum, mul

from oracles import naive_adjacency, naive_gcn_step, naive_nodes, naive_readout


@pytest.fixture
def f64():
    with tt.precision(64):
        yield


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad,
                  dtype=np.float64)


def make_block(mode="agr", c=6, k=4, seed=0, **kw):
    return GraphBlock(c, k, mode=mode, rng=np.random.default_rng(seed), **kw)


class TestEmbedNodes:
    def test_assignment_rows_are_convex(self, f64):
        blk = make_block()
        rng = np.random.default_rng(1)
        vs = blk.embed_context(t64(rng.normal(size=(6, 5, 5)) * 3))
        assert vs.proj.shape == (25, 4)
        assert np.allclose(vs.proj.data.sum(axis=1), 1.0, atol=1e-6)
        assert vs.proj.data.min() >= 0.0

    def test_nodes_have_unit_or_zero_norm(self, f64):
        blk = make_block()
        rng = np.random.default_rng(2)
        vs = blk.embed_context(t64(rng.normal(size=(6, 5, 5))))
        norms = np.sqrt((vs.nodes.data ** 2).sum(axis=0))
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_constant_map_collapses_every_node_to_its_direction(self, f64):
        blk = make_block()
        u = np.asarray([3.0, 0.0, 4.0, 0.0, 0.0, 0.0])
        f = t64(np.broadcast_to(u[:, None, None], (6, 5, 5)).copy())
        vs = blk.embed_context(f)
        expect = (u / 5.0)[:, None].repeat(4, axis=1)
        assert np.allclose(vs.nodes.data, expect, atol=1e-9)

    def test_matches_loop_oracle_given_the_same_assignment(self, f64):
        blk = make_block()
        rng = np.random.default_rng(3)
        f = rng.normal(size=(6, 4, 4))
        vs = blk.embed_context(t64(f))
        ref = naive_nodes(f.reshape(6, 16), vs.proj.data)
        assert np.allclose(vs.nodes.data, ref, atol=1e-12)


class TestAdjacency:
    def test_plain_adjacency_is_bitwise_symmetric(self, f64):
        rng = np.random.default_rng(4)
        v = tt.l2_normalize(t64(rng.normal(size=(6, 5))))
        a = build_adjacency(v)
        assert np.array_equal(a.data, a.data.T)

    def test_diagonal_is_one_for_unit_nodes(self, f64):
        rng = np.random.default_rng(5)
        v = tt.l2_normalize(t64(rng.normal(size=(6, 5))))
        a = build_adjacency(v).data
        assert np.allclose(np.diag(a), 1.0, atol=1e-12)
        assert np.all(a <= 1.0 + 1e-12) and np.all(a >= -1.0 - 1e-12)

    def test_zero_node_column_gives_zero_diagonal(self, f64):
        v = t64(np.zeros((6, 3)))
        a = build_adjacency(v).data
        assert np.array_equal(a, np.zeros((3, 3)))

    def test_matches_loop_oracle(self, f64):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(5, 4))
        a = build_adjacency(t64(v)).data
        assert np.allclose(a, naive_adjacency(v), atol=1e-12)


class TestGcn:
    def test_zero_adjacency_gives_zero_nodes(self, f64):
        v = t64(np.random.default_rng(7).normal(size=(4, 3)))
        w = t64(np.eye(4))
        out = gcn_step(v, t64(np.zeros((3, 3))), w)
        assert np.array_equal(out.data, np.zeros((4, 3)))

    def test_identity_adjacency_and_weight_give_relu_of_nodes(self, f64):
        v = t64(np.random.default_rng(8).normal(size=(4, 3)))
        out = gcn_step(v, t64(np.eye(3)), t64(np.eye(4)))
        assert np.array_equal(out.data, np.maximum(v.data, 0.0))

    def test_matches_loop_oracle_exactly_on_integer_grids(self, f64):
        rng = np.random.default_rng(9)
        v = rng.integers(-3, 4, size=(4, 5)).astype(np.float64)
        a = rng.integers(-2, 3, size=(5, 5)).astype(np.float64)
        w = rng.integers(-2, 3, size=(4, 4)).astype(np.float64)
        out = gcn_step(t64(v), t64(a), t64(w))
        assert np.array_equal(out.data, naive_gcn_step(v, a, w))

    def test_reason_composes_steps(self, f64):
        rng = np.random.default_rng(10)
        v = t64(rng.normal(size=(4, 3)))
        a = t64(rng.normal(size=(3, 3)))
        w = t64(rng.normal(size=(4, 4)))
        two = reason(v, a, w, 2)
        assert np.array_equal(two.data, gcn_step(gcn_step(v, a, w), a, w).data)
        with pytest.raises(ContractError):
            reason(v, a, w, 0)

    def test_shape_validation(self, f64):
        with pytest.raises(DimensionError):
            gcn_step(t64(np.zeros((4, 3))), t64(np.zeros((2, 2))),
                     t64(np.zeros((4, 4))))
        with pytest.raises(DimensionError):
            gcn_step(t64(np.zeros((4, 3))), t64(np.zeros((3, 3))),
                     t64(np.zeros((3, 4))))


class TestAdapter:
    def test_kernel_rows_are_stochastic(self, f64):
        blk = make_block()
        rng = np.random.default_rng(11)
        v = t64(rng.normal(size=(6, 4)))
        kern = predict_adapter_kernel(v, blk.theta_w, blk.theta_b)
        assert kern.shape == (4, 4)
        assert np.allclose(kern.data.sum(axis=1), 1.0, atol=1e-6)
        assert kern.data.min() > 0.0

    def test_adapted_adjacency_is_psd_and_symmetric(self, f64):
        blk = make_block()
        rng = np.random.default_rng(12)
        v = t64(rng.normal(size=(6, 4)))
        kern = predict_adapter_kernel(v, blk.theta_w, blk.theta_b)
        adj = graph_adapter(v, kern, blk.adapter_w, blk.adapter_b)
        m = adj.data
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-6

    def test_kernel_shape_is_validated(self, f64):
        blk = make_block()
        with pytest.raises(DimensionError):
            graph_adapter(t64(np.zeros((6, 4))), t64(np.zeros((3, 3))),
                          blk.adapter_w, blk.adapter_b)


class TestReadout:
    def test_one_hot_assignment_copies_node_columns(self, f64):
        rng = np.random.default_rng(13)
        nodes = rng.normal(size=(5, 3))
        proj = np.zeros((4, 3))
        proj[[0, 1, 2, 3], [2, 0, 1, 2]] = 1.0
        out = readout(t64(nodes), t64(proj), (5, 2, 2))
        for p, j in enumerate([2, 0, 1, 2]):
            assert np.array_equal(out.data[:, p // 2, p % 2], nodes[:, j])

    def test_matches_loop_oracle(self, f64):
        rng = np.random.default_rng(14)
        nodes = rng.normal(size=(5, 4))
        proj = rng.uniform(size=(12, 4))
        out = readout(t64(nodes), t64(proj), (5, 3, 4))
        assert np.allclose(out.data, naive_readout(nodes, proj, (3, 4)),
                           atol=1e-12)

    def test_composition_with_embed_fixes_constant_maps(self, f64):
        blk = make_block()
        u = np.asarray([1.0, -2.0, 2.0, 0.5, 0.0, -1.0])
        f = t64(np.broadcast_to(u[:, None, None], (6, 5, 5)).copy())
        vs = blk.embed_context(f)
        out = readout(vs.nodes, vs.proj, vs.source_shape)
        expect = u / np.sqrt((u * u).sum())
        assert np.allclose(out.data, expect[:, None, None], atol=1e-6)


class TestResidualAndFusion:
    def test_zero_gate_is_bitwise_identity(self, f64):
        rng = np.random.default_rng(15)
        f = t64(rng.normal(size=(6, 4, 4)))
        read = t64(rng.normal(size=(6, 4, 4)))
        out = residual_merge(f, read, t64(np.zeros(())))
        assert np.array_equal(out.data, f.data)

    def test_nonzero_gate_adds_scaled_readout(self, f64):
        rng = np.random.default_rng(16)
        f = t64(rng.normal(size=(6, 4, 4)))
        read = t64(rng.normal(size=(6, 4, 4)))
        out = residual_merge(f, read, t64(np.asarray(0.25)))
        assert np.allclose(out.data, f.data + 0.25 * read.data, atol=1e-12)

    def test_fusion_concatenates_gated_context_with_motion(self, f64):
        blk = make_block(c=8, k=3)
        rng = np.random.default_rng(17)
        fc = t64(rng.normal(size=(8, 4, 4)))
        fm = t64(rng.normal(size=(8, 4, 4)))
        out = attentive_fuse(fc, fm, blk.ca_fc1, blk.ca_fc2)
        assert out.shape == (16, 4, 4)
        # motion half passes through untouched
        assert np.array_equal(out.data[8:], fm.data)
        # context half is scaled per channel by a gate in (1, 2)
        ratio = out.data[:8] / fc.data
        per_channel = ratio.reshape(8, -1)
        assert np.allclose(per_channel, per_channel[:, :1], atol=1e-9)
        assert np.all(per_channel[:, 0] > 1.0) and np.all(per_channel[:, 0] < 2.0)


class TestGraphBlock:
    @pytest.mark.parametrize("mode", ["base", "sgr", "agr"])
    def test_registry_matches_analytic_count(self, f64, mode):
        for c, k in [(6, 4), (64, 16), (128, 128)]:
            blk = GraphBlock(c, k, mode=mode, rng=np.random.default_rng(0))
            assert blk.param_count() == analytic_param_count(c, k, mode)

    def test_adapter_delta_is_kernel_head_plus_first_layer(self, f64):
        for c, k in [(6, 4), (128, 128)]:
            delta = (analytic_param_count(c, k, "agr")
                     - analytic_param_count(c, k, "sgr"))
            assert delta == adapter_param_count(c, k)

    def test_mode_ordering_of_capacity(self, f64):
        counts = [analytic_param_count(64, 16, m) for m in ("base", "sgr", "agr")]
        assert counts[0] < counts[1] < counts[2]

    @pytest.mark.parametrize("mode", ["sgr", "agr"])
    def test_fresh_block_is_identity_up_to_fusion(self, f64, mode):
        blk = make_block(mode=mode)
        rng = np.random.default_rng(18)
        fc = t64(rng.normal(size=(6, 5, 5)))
        fm = t64(rng.normal(size=(6, 5, 5)))
        out = blk.forward(fc, fm)
        direct = attentive_fuse(fc, fm, blk.ca_fc1, blk.ca_fc2)
        assert np.array_equal(out.data, direct.data)

    def test_base_mode_shares_one_readout_across_streams(self, f64):
        blk = make_block(mode="base")
        rng = np.random.default_rng(19)
        fc = t64(rng.normal(size=(6, 5, 5)))
        fm = t64(rng.normal(size=(6, 5, 5)))
        out = blk.forward(fc, fm)
        assert out.shape == (12, 5, 5)
        # both halves carry the same additive readout
        assert np.allclose(out.data[:6] - fc.data, out.data[6:] - fm.data,
                           atol=1e-12)

    def test_context_cache_reuse_is_bit_identical(self, f64):
        blk = make_block()
        rng = np.random.default_rng(20)
        fc = t64(rng.normal(size=(6, 5, 5)))
        fm = t64(rng.normal(size=(6, 5, 5)))
        cache = blk.context_stage(fc)
        assert np.array_equal(blk.forward(fc, fm, cache).data,
                              blk.forward(fc, fm).data)

    def test_gradients_reach_gates_at_identity_init(self, f64):
        blk = make_block()
        rng = np.random.default_rng(21)
        fc = t64(rng.normal(size=(6, 5, 5)))
        fm = t64(rng.normal(size=(6, 5, 5)))
        w = t64(rng.normal(size=(12, 5, 5)))
        tsum(mul(blk.forward(fc, fm), w)).backward()
        assert blk.alpha.grad is not None and abs(blk.alpha.grad) > 0
        assert blk.beta.grad is not None and abs(blk.beta.grad) > 0

    def test_gradients_reach_every_parameter_once_gates_open(self, f64):
        # wide enough that the attention bottleneck has live relu units
        blk = make_block(c=8, k=4)
        blk.alpha.data = np.asarray(0.3)
        blk.beta.data = np.asarray(-0.2)
        rng = np.random.default_rng(22)
        fc = t64(rng.normal(size=(8, 5, 5)))
        fm = t64(rng.normal(size=(8, 5, 5)))
        w = t64(rng.normal(size=(16, 5, 5)))
        tsum(mul(blk.forward(fc, fm), w)).backward()
        for name, p in blk.params.items():
            assert p.grad is not None and np.abs(p.grad).max() > 0, name

    def test_rejects_unknown_mode_and_bad_steps(self, f64):
        with pytest.raises(ConfigError):
            GraphBlock(6, 4, mode="dense")
        with pytest.raises(ConfigError):
            GraphBlock(6, 4, context_steps=0)

    def test_stream_shape_validation(self, f64):
        blk = make_block()
        with pytest.raises(DimensionError):
            blk.forward(t64(np.zeros((5, 4, 4))), t64(np.zeros((6, 4, 4))))
        with pytest.raises(DimensionError):
            blk.forward(t64(np.zeros((6, 4, 4))), t64(np.zeros((6, 5, 4))))


class TestGraphBlockGradients:
    @pytest.mark.parametrize("mode", ["base", "sgr", "agr"])
    def test_end_to_end_finite_difference_check(self, f64, mode):
        """Every block parameter, gates included, against central differences.

        Gates are moved off zero first so the node pathway carries
        signal; at exact init its parameters have legitimately zero
        gradient and the check would be vacuous there. Base mode has no
        gates: its shared graph feeds both streams ungated.
        """
        blk = GraphBlock(4, 3, mode=mode, rng=np.random.default_rng(23))
        if mode != "base":
            blk.alpha.data = np.asarray(0.5)
            blk.beta.data = np.asarray(-0.3)
        rng = np.random.default_rng(24)
        fc = t64(rng.normal(size=(4, 3, 3)))
        fm = t64(rng.normal(size=(4, 3, 3)))
        w = t64(rng.normal(size=(8, 3, 3)))
        rep = gradcheck(lambda: tsum(mul(blk.forward(fc, fm), w)), blk.params)
        assert rep.max_rel_err < 1e-4
