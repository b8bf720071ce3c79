"""Each graph-stage function, one tape node, against the composed engine
ops it replaces, bit for bit.

The ``composed_*`` functions are the stage's wiring as separate engine
ops. Values must be bitwise equal. Every input's gradient must be
bitwise equal too: each input reaches a node through one path, or
through two whose sum the node adds in the order the composed walk
would, and from a fresh leaf that order gives the same bits.
"""

import numpy as np
import pytest

from graphflow import tensor as tt
from graphflow.errors import ContractError, DimensionError
from graphflow.graph import (NodeSet, attentive_fuse, build_adjacency,
                             embed_nodes, gcn_step, graph_adapter,
                             predict_adapter_kernel, readout, residual_merge)
from graphflow.layers import Conv2d
from graphflow.tensor import (Tensor, add, concat, l2_normalize, matmul, mul,
                              relu, reshape, scale, sigmoid, softmax,
                              transpose, tsum)

DTYPES = [np.float32, np.float64]


def composed_embed_nodes(f, conv1, conv2):
    c, h, w = f.shape
    logits = conv2(conv1(f, relu=True))
    k = logits.shape[0]
    proj = softmax(transpose(reshape(logits, (k, h * w))))
    flat = reshape(f, (c, h * w))
    nodes = l2_normalize(matmul(flat, proj))
    return NodeSet(nodes=nodes, proj=proj, source_shape=(c, h, w))


def composed_build_adjacency(v):
    return matmul(transpose(v), v)


def composed_gcn_step(nodes, adj, weight):
    mixed = matmul(adj, transpose(nodes))
    return relu(transpose(matmul(mixed, weight)))


def composed_predict_adapter_kernel(ctx_nodes, theta_w, theta_b):
    k = ctx_nodes.shape[1]
    return softmax(add(matmul(theta_w, ctx_nodes), reshape(theta_b, (k, 1))))


def composed_graph_adapter(v, kernel, w1, b1):
    c = v.shape[0]
    hidden = relu(add(matmul(w1, v), reshape(b1, (c, 1))))
    adapted = matmul(hidden, kernel)
    return matmul(transpose(adapted), adapted)


def composed_readout(nodes, proj, source_shape):
    return reshape(matmul(nodes, transpose(proj)), source_shape)


def composed_residual_merge(f, read, gate):
    return add(f, mul(read, gate))


def composed_attentive_fuse(fc, fm, ca_fc1, ca_fc2):
    _, h, w = fm.shape
    gap = scale(tsum(fm, axis=(1, 2), keepdims=True), 1.0 / (h * w))
    gate = sigmoid(ca_fc2(ca_fc1(gap, relu=True)))
    scaled = mul(add(gate, Tensor(1.0, dtype=gate.dtype)), fc)
    return concat([scaled, fm])


def run(fn, leaves):
    """Outputs and every leaf's gradient of a fixed random readout."""
    for t in leaves.values():
        t.grad = None
    outs = fn()
    if isinstance(outs, NodeSet):
        outs = (outs.nodes, outs.proj)
    elif isinstance(outs, Tensor):
        outs = (outs,)
    rng = np.random.default_rng(99)
    loss = None
    for out in outs:
        r = Tensor(rng.normal(size=out.shape), dtype=out.dtype)
        term = tsum(mul(out, r))
        loss = term if loss is None else add(loss, term)
    loss.backward()
    return [o.data for o in outs], {n: t.grad for n, t in leaves.items()}


def assert_bitwise(fused, composed, leaves):
    (outs_f, grads_f), (outs_c, grads_c) = (run(fused, leaves),
                                            run(composed, leaves))
    for of, oc in zip(outs_f, outs_c, strict=True):
        assert of.dtype == oc.dtype and of.shape == oc.shape
        assert np.array_equal(of, oc)
    for name, t in leaves.items():
        gf, gc = grads_f[name], grads_c[name]
        assert gc is not None and gf is not None, name
        assert gf.dtype == t.dtype and gf.shape == t.shape, name
        assert np.array_equal(gf, gc), name


def leaf(rng, shape, dtype, std=1.0):
    return Tensor(rng.normal(scale=std, size=shape), requires_grad=True,
                  dtype=dtype)


def conv1x1(rng, name, cin, cout, dtype, bias=None):
    """A registered 1x1 Conv2d with a random (or the given) bias."""
    params = {}
    with tt.precision(64 if dtype == np.float64 else 32):
        conv = Conv2d(rng, params, name, cin, cout, 1)
    b = rng.normal(scale=0.5, size=cout) if bias is None else bias
    conv.b.data = np.asarray(b, dtype=dtype)
    return conv, params


class TestEmbedNodes:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "k1", "grid1x1", "zero_map",
                                      "one_hot"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(1)
        c, mid, k, h, w = 6, 3, 4, 3, 5
        if case == "k1":
            k = 1
        if case == "grid1x1":
            h = w = 1
        f = leaf(rng, (c, h, w), dtype)
        bias1 = None
        if case == "zero_map":
            # every node column is zero (the L2 floor), and the hidden
            # pre-activations are the bias: exactly 0, positive, negative
            f.data[...] = 0
            bias1 = [0.0, 0.5, -0.5]
        conv1, p1 = conv1x1(rng, "c1", c, mid, dtype, bias1)
        bias2 = [1000.0, 0.0, 0.0, 0.0] if case == "one_hot" else None
        conv2, p2 = conv1x1(rng, "c2", mid, k, dtype, bias2)
        leaves = {"f": f, **p1, **p2}
        out = embed_nodes(f, conv1, conv2)
        if case == "one_hot":
            assert np.array_equal(out.proj.data[:, 0], np.ones(h * w))
            assert not out.nodes.data[:, 1:].any()
        assert_bitwise(lambda: embed_nodes(f, conv1, conv2),
                       lambda: composed_embed_nodes(f, conv1, conv2), leaves)

    def test_tapes_two_nodes(self):
        rng = np.random.default_rng(2)
        f = leaf(rng, (6, 3, 3), np.float32)
        conv1, _ = conv1x1(rng, "c1", 6, 3, np.float32)
        conv2, _ = conv1x1(rng, "c2", 3, 4, np.float32)
        vs = embed_nodes(f, conv1, conv2)
        assert vs.nodes._parents == (f, vs.proj)
        assert vs.proj._parents == (f, conv1.w, conv1.b, conv2.w, conv2.b)


class TestBuildAdjacency:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "k1", "zero_column"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(3)
        v = leaf(rng, (6, 1 if case == "k1" else 4), dtype)
        if case == "zero_column":
            v.data[:, 2] = 0
        assert_bitwise(lambda: build_adjacency(v),
                       lambda: composed_build_adjacency(v), {"v": v})


class TestGcnStep:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "k1", "kink"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(4)
        c, k = 6, 1 if case == "k1" else 4
        nodes, adj, weight = (leaf(rng, (c, k), dtype), leaf(rng, (k, k), dtype),
                              leaf(rng, (c, c), dtype))
        if case == "kink":
            # a zero adjacency row makes that node's pre-activations 0
            adj.data[1] = 0
        out = gcn_step(nodes, adj, weight).data
        assert (out > 0).any() and (out == 0).any()
        assert_bitwise(lambda: gcn_step(nodes, adj, weight),
                       lambda: composed_gcn_step(nodes, adj, weight),
                       {"nodes": nodes, "adj": adj, "weight": weight})


class TestPredictAdapterKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "k1", "zero_column"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(5)
        c, k = 6, 1 if case == "k1" else 4
        ctx, tw, tb = (leaf(rng, (c, k), dtype), leaf(rng, (k, c), dtype),
                       leaf(rng, (k,), dtype))
        if case == "zero_column":
            ctx.data[:, 0] = 0
        assert_bitwise(lambda: predict_adapter_kernel(ctx, tw, tb),
                       lambda: composed_predict_adapter_kernel(ctx, tw, tb),
                       {"ctx": ctx, "theta_w": tw, "theta_b": tb})

    def test_bias_gradient_is_rounding_of_zero(self):
        """The row softmax cancels a per-row bias: its gradient is only
        rounding, far below the weight's."""
        rng = np.random.default_rng(6)
        ctx, tw, tb = (leaf(rng, (6, 4), np.float64), leaf(rng, (4, 6), np.float64),
                       leaf(rng, (4,), np.float64))
        _, grads = run(lambda: predict_adapter_kernel(ctx, tw, tb),
                       {"theta_w": tw, "theta_b": tb})
        assert np.abs(grads["theta_b"]).max() < 1e-12 * np.abs(grads["theta_w"]).max()


class TestGraphAdapter:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "k1", "kink"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(7)
        c, k = 6, 1 if case == "k1" else 4
        v, kern, w1, b1 = (leaf(rng, (c, k), dtype), leaf(rng, (k, k), dtype),
                           leaf(rng, (c, c), dtype), leaf(rng, (c,), dtype))
        if case == "kink":
            # a zero node column leaves the bias: 0, positive, negative
            v.data[:, 0] = 0
            b1.data[:3] = [0.0, 0.5, -0.5]
        assert_bitwise(lambda: graph_adapter(v, kern, w1, b1),
                       lambda: composed_graph_adapter(v, kern, w1, b1),
                       {"v": v, "kernel": kern, "w1": w1, "b1": b1})


class TestReadout:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "k1", "grid1x1", "one_hot"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(8)
        c, k, h, w = 5, 4, 3, 4
        if case == "k1":
            k = 1
        if case == "grid1x1":
            h = w = 1
        nodes, proj = leaf(rng, (c, k), dtype), leaf(rng, (h * w, k), dtype)
        if case == "one_hot":
            proj.data[...] = np.eye(k, dtype=dtype)[rng.integers(k, size=h * w)]
        assert_bitwise(lambda: readout(nodes, proj, (c, h, w)),
                       lambda: composed_readout(nodes, proj, (c, h, w)),
                       {"nodes": nodes, "proj": proj})


class TestResidualMerge:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("gate_value,hw", [(0.0, 3), (0.37, 3), (-1.5, 1)])
    def test_bitwise(self, dtype, gate_value, hw):
        rng = np.random.default_rng(9)
        f, read = leaf(rng, (4, hw, hw), dtype), leaf(rng, (4, hw, hw), dtype)
        gate = Tensor(gate_value, requires_grad=True, dtype=dtype)
        assert_bitwise(lambda: residual_merge(f, read, gate),
                       lambda: composed_residual_merge(f, read, gate),
                       {"f": f, "read": read, "gate": gate})


class TestAttentiveFuse:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["random", "grid1x1", "row", "kink"])
    def test_bitwise(self, dtype, case):
        rng = np.random.default_rng(10)
        c, mid = 12, 3
        h, w = {"grid1x1": (1, 1), "row": (1, 7)}.get(case, (4, 5))
        fc, fm = leaf(rng, (c, h, w), dtype), leaf(rng, (c, h, w), dtype)
        bias1 = None
        if case == "kink":
            # a zero motion map pools to 0, so the bottleneck's
            # pre-activations are its bias: exactly 0, positive, negative
            fm.data[...] = 0
            bias1 = [0.0, 0.3, -0.3]
        fc1, p1 = conv1x1(rng, "fc1", c, mid, dtype, bias1)
        fc2, p2 = conv1x1(rng, "fc2", mid, c, dtype)
        assert_bitwise(lambda: attentive_fuse(fc, fm, fc1, fc2),
                       lambda: composed_attentive_fuse(fc, fm, fc1, fc2),
                       {"fc": fc, "fm": fm, **p1, **p2})


class TestValidation:
    def test_mixed_dtypes_are_rejected(self):
        rng = np.random.default_rng(11)
        v32 = leaf(rng, (6, 4), np.float32)
        with pytest.raises(ContractError):
            gcn_step(v32, leaf(rng, (4, 4), np.float64),
                     leaf(rng, (6, 6), np.float32))

    def test_only_1x1_stride_1_convs_embed(self):
        rng = np.random.default_rng(12)
        f = leaf(rng, (6, 3, 3), np.float32)
        conv3, _ = conv1x1(rng, "c2", 3, 4, np.float32)
        params = {}
        wide = Conv2d(rng, params, "c1", 6, 3, 3)
        with pytest.raises(DimensionError):
            embed_nodes(f, wide, conv3)
