"""Analytic parameter and flop accounting against the live registries."""

import numpy as np
import pytest

import graphflow.graph as graph_mod
import graphflow.layers as layers_mod
import graphflow.model as model_mod
import graphflow.tensor as tt
from graphflow.config import ModelConfig
from graphflow.counting import (conv_flops, count_flops, count_params,
                                matmul_flops)
from graphflow.graph import GraphBlock, adapter_param_count, \
    analytic_param_count
from graphflow.layers import Conv2d
from graphflow.model import FlowModel


@pytest.fixture
def f64():
    with tt.precision(64):
        yield


class TestClosedForms:
    def test_small_conv_parameter_count(self):
        # 3x3 kernel, 2 in, 4 out: 4*(2*9) weights + 4 biases
        params = {}
        Conv2d(np.random.default_rng(0), params, "conv", 2, 4, 3)
        assert list(params) == ["conv.w", "conv.b"]
        assert sum(p.data.size for p in params.values()) == 76

    def test_small_conv_flop_count(self):
        # same conv on an 8x8 map with padding 1: two flops per mac
        assert conv_flops(2, 4, 3, 8, 8) == 9216

    def test_matmul_flops_are_two_per_mac(self):
        assert matmul_flops(3, 4, 5) == 2 * 3 * 4 * 5


class TestParamAccounting:
    @pytest.mark.parametrize("c,k", [(6, 4), (8, 5), (64, 16)])
    @pytest.mark.parametrize("mode", ["base", "sgr", "agr"])
    def test_analytic_formula_tracks_the_registry(self, f64, c, k, mode):
        rng = np.random.default_rng(0)
        block = GraphBlock(channels=c, node_count=k, mode=mode, rng=rng)
        live = sum(p.data.size for p in block.params.values())
        assert analytic_param_count(c, k, mode) == live

    def test_adapter_delta_is_exactly_the_agr_extra(self):
        for c, k in [(8, 4), (64, 16), (128, 128)]:
            assert analytic_param_count(c, k, "agr") - \
                analytic_param_count(c, k, "sgr") == adapter_param_count(c, k)

    def test_mode_deltas_at_reference_dims(self):
        # c = C = 128, K = 128: the documented capacity ladder
        assert analytic_param_count(128, 128, "base") == 32960
        assert analytic_param_count(128, 128, "sgr") == 74274
        assert analytic_param_count(128, 128, "agr") == 107298
        delta = analytic_param_count(128, 128, "agr") - \
            analytic_param_count(128, 128, "base")
        assert delta == 74338
        assert 50_000 <= delta <= 300_000

    def test_count_is_monotone_in_node_count(self):
        for mode in ("base", "sgr", "agr"):
            counts = [analytic_param_count(64, k, mode)
                      for k in (32, 64, 128, 256)]
            assert counts == sorted(counts)
            assert len(set(counts)) == len(counts)


class TestFlopAccounting:
    def test_total_is_the_sum_of_components(self, f64):
        cfg = ModelConfig(feature_channels=8, context_channels=8, nodes=4,
                          refine_iters=3, lookup_radius=2)
        flops = count_flops(cfg, 32, 32)
        assert flops["total"] == sum(v for k, v in flops.items()
                                     if k != "total")
        assert all(v > 0 for v in flops.values())

    def test_correlation_cost_is_one_feature_gemm(self):
        cfg = ModelConfig(feature_channels=8, downsample=4)
        flops = count_flops(cfg, 16, 16)
        # 16 grid cells each matched against all 16: 2 * 16 * 8 * 16
        assert flops["correlation"] == 2 * 16 * 8 * 16

    def test_iteration_blocks_scale_linearly_with_depth(self):
        one = count_flops(ModelConfig(refine_iters=1), 32, 32)
        three = count_flops(ModelConfig(refine_iters=3), 32, 32)
        for name in ("motion_encoder", "flow_head"):
            assert three[name] == 3 * one[name]
        assert three["feature_encoder"] == one["feature_encoder"]
        assert three["correlation"] == one["correlation"]

    @pytest.mark.parametrize("size,c,k", [(64, 64, 16), (32, 16, 8)])
    @pytest.mark.parametrize("mode", ["base", "sgr", "agr"])
    def test_total_matches_the_executed_work(self, monkeypatch, size, c, k,
                                             mode):
        """Every conv and matmul of one forward pass, counted as 2*MACs
        at the call, adds up to count_flops exactly. A ConvGRU cell
        counts its three gate convs, and each graph-stage node the
        products and 1x1 convs it runs."""
        executed = []

        def counted_conv2d(x, w, b, **kw):
            out = tt.conv2d(x, w, b, **kw)
            cout, cin, kk, _ = w.shape
            _, ho, wo = out.shape
            executed.append(conv_flops(cin, cout, kk, ho, wo))
            return out

        def counted_matmul(a, b):
            executed.append(matmul_flops(a.shape[0], a.shape[1], b.shape[1]))
            return tt.matmul(a, b)

        def counted_conv_gru(hidden, x, *gates):
            out = tt.conv_gru(hidden, x, *gates)
            for w in gates[::2]:                      # the z, r and q convs
                cout, cin, kk, _ = w.shape
                executed.append(conv_flops(cin, cout, kk, *out.shape[1:]))
            return out

        def count_graph_node(name, gemms):
            """Each graph function is one node: count its GEMMs, (m, p, q)
            per product, from the shapes of the call's arguments (a 1x1
            conv's GEMM is (C_out, C_in, pixels))."""
            fn = getattr(graph_mod, name)

            def counted(*args):
                executed.extend(matmul_flops(*mpq) for mpq in gemms(*args))
                return fn(*args)

            monkeypatch.setattr(graph_mod, name, counted)

        def embed_gemms(f, conv1, conv2):
            c, h, w = f.shape
            mid, k = conv1.w.shape[0], conv2.w.shape[0]
            return [(mid, c, h * w), (k, mid, h * w), (c, h * w, k)]

        def fuse_gemms(fc, fm, ca_fc1, ca_fc2):
            c, mid = fc.shape[0], ca_fc1.w.shape[0]
            return [(mid, c, 1), (c, mid, 1)]

        count_graph_node("embed_nodes", embed_gemms)
        count_graph_node("build_adjacency", lambda v: [v.shape[::-1] + v.shape[1:]])
        count_graph_node("gcn_step", lambda v, a, w: [
            (v.shape[1], v.shape[1], v.shape[0]), (v.shape[1],) + w.shape])
        count_graph_node("predict_adapter_kernel", lambda v, tw, tb: [
            tw.shape + v.shape[1:]])
        count_graph_node("graph_adapter", lambda v, kern, w1, b1: [
            w1.shape + v.shape[1:], v.shape + kern.shape[1:],
            v.shape[::-1] + v.shape[1:]])
        count_graph_node("readout", lambda nodes, proj, shape: [
            nodes.shape + proj.shape[:1]])
        count_graph_node("attentive_fuse", fuse_gemms)
        monkeypatch.setattr(layers_mod, "conv2d", counted_conv2d)
        monkeypatch.setattr(model_mod, "conv_gru", counted_conv_gru)
        monkeypatch.setattr(model_mod, "matmul", counted_matmul)
        cfg = ModelConfig(feature_channels=c, context_channels=c, nodes=k,
                          refine_iters=3, graph=mode)
        img = np.random.default_rng(0).uniform(size=(3, size, size))
        with tt.no_grad():
            FlowModel(cfg).forward(img, img)
        assert sum(executed) == count_flops(cfg, size, size)["total"]

    def test_registry_and_flops_agree_on_component_names(self, f64):
        cfg = ModelConfig(feature_channels=8, context_channels=8, nodes=4,
                          refine_iters=2, lookup_radius=2)
        params = count_params(FlowModel(cfg))
        flops = count_flops(cfg, 16, 16)
        assert set(params) - {"total"} == \
            set(flops) - {"total", "correlation"}
