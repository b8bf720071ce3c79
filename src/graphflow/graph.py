"""Graph-space reasoning over context and motion features.

A feature map is projected onto a small set of graph nodes by a learned
per-pixel assignment (rows on the simplex), convolved over a fully
connected similarity graph, and read back to pixel space through the
same assignment. Three configurations exist:

* ``base``  - a single node set shared by context and motion features,
  reasoned over its own similarity graph.
* ``sgr``   - separate context and motion graphs, each with its own
  projection and propagation weights, merged by channel attention.
* ``agr``   - like ``sgr``, but the motion adjacency is produced by a
  per-scene adapter whose second-layer weights are predicted from the
  reasoned context nodes, so the motion graph structure follows scene
  content.

Gated residuals (``alpha``, ``beta``) start at zero: a fresh block is
an exact identity on both feature streams, and the graph path fades in
during training.

The stage runs on matrices of a few dozen nodes, where an engine op
costs its Python dispatch more than its arithmetic. So each function
below is one tape node with a hand-written backward (``embed_nodes`` is
two: the assignment, then the pooling), and an agr ``forward`` tapes 7
nodes and ``context_stage`` 8. A node makes the numpy calls of the
engine ops it replaces (``matmul``, ``transpose``, ``reshape``, ``add``,
``mul``, ``relu``, ``softmax``, ``l2_normalize``, ``sigmoid``, ``tsum``,
``scale``, ``concat``, and ``conv2d`` for the 1x1 convs, whose backward
is ``tensor._conv_grads``) in their order, so its values are bitwise
theirs. Its backward sums the two gradients of an operand read twice
in the order the composed walk would, so from fresh leaves its
gradients are bitwise theirs too. Each closure keeps only arrays the
composed ops kept:

* assignment: the input map, the ReLU'd hidden map and ``proj``;
* pooling: the (C, K) sums, their column norms and floored norms;
* ``gcn_step``: A V^T; ``graph_adapter``: the ReLU'd hidden layer and
  the adapted nodes; ``predict_adapter_kernel``: the kernel;
* ``attentive_fuse``: the pooled vector, the ReLU'd bottleneck, the
  sigmoid gate and the gate plus one;
* ``build_adjacency``, ``readout``, ``residual_merge``: their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GRAPH_MODES
from .errors import ConfigError, ContractError, DimensionError
from .layers import Conv2d, he_std, linear_pair, parameter
from .tensor import (Tensor, _affine, _check_same_dtype,
                     _conv_grads, _l2_normalize, _l2_normalize_grad, _sigmoid,
                     _sigmoid_grad, _softmax, _softmax_grad, _unbroadcast,
                     add, concat)

CA_REDUCTION = 4        # channel-attention bottleneck: C -> C // 4 -> C


@dataclass
class NodeSet:
    """Node features (C, K) with the pixel assignment (N, K) that built them."""

    nodes: Tensor
    proj: Tensor
    source_shape: tuple[int, int, int]


def _check_1x1(op: str, conv: Conv2d, cin: int) -> int:
    """Validate a 1x1 stride-1 conv reading ``cin`` channels; return its
    output channels."""
    ws = conv.w.data.shape
    if len(ws) != 4 or ws[1:] != (cin, 1, 1) or conv.b.shape != ws[:1] \
            or conv.stride != 1:
        raise DimensionError(
            f"{op} needs 1x1 stride-1 convs reading {cin} channels, got "
            f"weight {ws}, bias {conv.b.shape}, stride {conv.stride}")
    return ws[0]


def _conv1x1(conv: Conv2d, x2d: np.ndarray, relu: bool) -> tuple:
    """``conv2d``'s forward of a 1x1 conv on a flat (C_in, N) map: the
    (C_out, N) output, ReLU'd in place with ``relu``, and the (C_out,
    C_in) weight matrix its backward reads, a view of the weight."""
    wm = conv.w.data.reshape(conv.w.data.shape[:2])
    out = _affine(wm, x2d, conv.b.data)
    if relu:
        np.maximum(out, 0, out=out)
    return out, wm


def _assignment(f: Tensor, conv1: Conv2d, conv2: Conv2d) -> Tensor:
    """softmax(transpose(reshape(conv2(conv1(f, relu=True))))): (N, K)."""
    c, h, w = f.shape
    _check_same_dtype(f, conv1.w, conv1.b, conv2.w, conv2.b)
    mid = _check_1x1("embed_nodes", conv1, c)
    k = _check_1x1("embed_nodes", conv2, mid)
    x2d = f.data.reshape(c, h * w)
    hid, wm1 = _conv1x1(conv1, x2d, relu=True)             # (mid, N)
    logits, wm2 = _conv1x1(conv2, hid, relu=False)         # (K, N)
    proj = _softmax(logits.T)

    def backward(g):
        gl = _softmax_grad(g, proj).T.reshape(k, h, w)
        need_hid = (f.requires_grad or conv1.w.requires_grad
                    or conv1.b.requires_grad)
        dh = _conv_grads(gl, hid, wm2, conv2.w, conv2.b, need_hid)
        if dh is None:
            return
        gh = dh.reshape(mid, h, w) * (hid.reshape(mid, h, w) > 0)
        dx = _conv_grads(gh, x2d, wm1, conv1.w, conv1.b, f.requires_grad)
        if dx is not None:
            f._accum(dx.reshape(f.shape))

    return Tensor._from_op(proj, (f, conv1.w, conv1.b, conv2.w, conv2.b),
                           backward)


def _pool_nodes(f: Tensor, proj: Tensor) -> Tensor:
    """l2_normalize(matmul(reshape(f, (C, N)), proj)): (C, K)."""
    c, h, w = f.shape
    flat = f.data.reshape(c, h * w)
    sums = flat @ proj.data
    nodes, norm, denom = _l2_normalize(sums)

    def backward(g):
        ds = _l2_normalize_grad(g, sums, norm, denom)
        if f.requires_grad:
            f._accum((ds @ proj.data.T).reshape(f.shape))
        if proj.requires_grad:
            proj._accum(flat.T @ ds)

    return Tensor._from_op(nodes, (f, proj), backward)


def embed_nodes(f: Tensor, conv1: Conv2d, conv2: Conv2d) -> NodeSet:
    """Project a (c, h, w) map onto K nodes.

    The two 1x1 convs produce per-pixel node logits; a softmax over the
    node axis turns each pixel row into a convex assignment. Node
    features are the assignment-weighted pixel sums, L2-normalized per
    node so adjacency entries stay in [-1, 1].
    """
    if f.data.ndim != 3:
        raise DimensionError(f"embed_nodes expects (c,h,w), got {f.shape}")
    proj = _assignment(f, conv1, conv2)
    return NodeSet(nodes=_pool_nodes(f, proj), proj=proj, source_shape=f.shape)


def _gram(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a^T a for an output gradient g: a g, then plus
    (g a^T)^T, the order in which matmul and transpose would add them."""
    return a @ g + (g @ a.T).T


def build_adjacency(v: Tensor) -> Tensor:
    """Inner-product similarity graph V^T V (K, K) of unit-normalized nodes."""
    if v.data.ndim != 2:
        raise DimensionError(f"adjacency needs (C,K) nodes, got {v.shape}")

    def backward(g):
        v._accum(_gram(v.data, g))

    return Tensor._from_op(v.data.T @ v.data, (v,), backward)


def gcn_step(nodes: Tensor, adj: Tensor, weight: Tensor) -> Tensor:
    """One propagation step: relu((A V^T W)^T)."""
    c, k = nodes.shape
    if adj.shape != (k, k):
        raise DimensionError(f"adjacency {adj.shape} does not match {k} nodes")
    if weight.shape != (c, c):
        raise DimensionError(f"propagation weight {weight.shape} must be ({c},{c})")
    _check_same_dtype(nodes, adj, weight)
    mixed = adj.data @ nodes.data.T                 # (K, C)
    out = np.maximum((mixed @ weight.data).T, 0)    # (C, K)

    def backward(g):
        dpre = (g * (out > 0)).T
        if weight.requires_grad:
            weight._accum(mixed.T @ dpre)
        if not (adj.requires_grad or nodes.requires_grad):
            return
        dmixed = dpre @ weight.data.T
        if adj.requires_grad:
            adj._accum(dmixed @ nodes.data)
        if nodes.requires_grad:
            nodes._accum((adj.data.T @ dmixed).T)

    return Tensor._from_op(out, (nodes, adj, weight), backward)


def reason(nodes: Tensor, adj: Tensor, weight: Tensor, steps: int) -> Tensor:
    """Iterate ``gcn_step`` a fixed positive number of times."""
    if steps < 1:
        raise ContractError(f"reasoning steps must be >= 1, got {steps}")
    out = nodes
    for _ in range(steps):
        out = gcn_step(out, adj, weight)
    return out


def predict_adapter_kernel(ctx_nodes: Tensor, theta_w: Tensor,
                           theta_b: Tensor) -> Tensor:
    """Map reasoned context nodes to a row-stochastic (K, K) mixing kernel.

    The kernel is softmax(theta_w V + theta_b) over rows. ``theta_b``
    adds one constant to every logit of a row, which the row softmax
    cancels: it cannot move the kernel, and its true gradient is zero,
    so what the backward computes for it is rounding error.
    """
    c, k = ctx_nodes.shape
    if theta_w.shape != (k, c):
        raise DimensionError(f"kernel head {theta_w.shape} must be ({k},{c})")
    if theta_b.shape != (k,):
        raise DimensionError(f"kernel head bias {theta_b.shape} must be ({k},)")
    _check_same_dtype(ctx_nodes, theta_w, theta_b)
    kernel = _softmax(theta_w.data @ ctx_nodes.data + theta_b.data.reshape(k, 1))

    def backward(g):
        dl = _softmax_grad(g, kernel)
        if theta_b.requires_grad:
            theta_b._accum(_unbroadcast(dl, (k, 1)).reshape(k))
        if theta_w.requires_grad:
            theta_w._accum(dl @ ctx_nodes.data.T)
        if ctx_nodes.requires_grad:
            ctx_nodes._accum(theta_w.data.T @ dl)

    return Tensor._from_op(kernel, (ctx_nodes, theta_w, theta_b), backward)


def graph_adapter(v: Tensor, kernel: Tensor, w1: Tensor, b1: Tensor) -> Tensor:
    """Adapted motion adjacency (K, K).

    A two-layer map is applied to the motion nodes: a learned
    channel-wise layer with ReLU, then the predicted kernel as the
    second layer's weights. The Gram matrix of the result is the
    adjacency, so it is symmetric positive semidefinite by
    construction.
    """
    c, k = v.shape
    if kernel.shape != (k, k):
        raise DimensionError(f"kernel {kernel.shape} must be ({k},{k})")
    if w1.shape != (c, c) or b1.shape != (c,):
        raise DimensionError(
            f"adapter layer {w1.shape}, {b1.shape} must be ({c},{c}), ({c},)")
    _check_same_dtype(v, kernel, w1, b1)
    hidden = w1.data @ v.data + b1.data.reshape(c, 1)
    np.maximum(hidden, 0, out=hidden)
    adapted = hidden @ kernel.data                      # (C, K)

    def backward(g):
        dad = _gram(adapted, g)
        if kernel.requires_grad:
            kernel._accum(hidden.T @ dad)
        if not (v.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        dpre = (dad @ kernel.data.T) * (hidden > 0)
        if b1.requires_grad:
            b1._accum(_unbroadcast(dpre, (c, 1)).reshape(c))
        if w1.requires_grad:
            w1._accum(dpre @ v.data.T)
        if v.requires_grad:
            v._accum(w1.data.T @ dpre)

    return Tensor._from_op(adapted.T @ adapted, (v, kernel, w1, b1),
                           backward)


def readout(nodes: Tensor, proj: Tensor, source_shape: tuple) -> Tensor:
    """Send reasoned node features back to pixel space via the assignment."""
    c, h, w = source_shape
    if nodes.shape[0] != c:
        raise DimensionError(
            f"readout channels {nodes.shape[0]} do not match source {source_shape}")
    if proj.shape[1] != nodes.shape[1] or proj.shape[0] != h * w:
        raise DimensionError(
            f"assignment {proj.shape} does not fit nodes {nodes.shape} "
            f"on a {h}x{w} grid")
    _check_same_dtype(nodes, proj)

    def backward(g):
        gm = g.reshape(c, h * w)
        if nodes.requires_grad:
            nodes._accum(gm @ proj.data)
        if proj.requires_grad:
            proj._accum((nodes.data.T @ gm).T)

    out = (nodes.data @ proj.data.T).reshape(c, h, w)
    return Tensor._from_op(out, (nodes, proj), backward)


def residual_merge(f: Tensor, read: Tensor, gate: Tensor) -> Tensor:
    """f + gate * read; with gate exactly zero this is bitwise f."""
    if f.shape != read.shape:
        raise DimensionError(f"residual shapes differ: {f.shape} vs {read.shape}")
    _check_same_dtype(f, read, gate)
    try:
        out = f.data + read.data * gate.data
    except ValueError:
        raise DimensionError(
            f"gate {gate.shape} does not broadcast over {f.shape}") from None

    def backward(g):
        if f.requires_grad:
            f._accum(_unbroadcast(g, f.shape))
        if read.requires_grad:
            read._accum(_unbroadcast(g * gate.data, read.shape))
        if gate.requires_grad:
            gate._accum(_unbroadcast(g * read.data, gate.shape))

    return Tensor._from_op(out, (f, read, gate), backward)


def attentive_fuse(fc: Tensor, fm: Tensor, ca_fc1: Conv2d, ca_fc2: Conv2d) -> Tensor:
    """Channel-attentive fusion of the two streams.

    The motion stream is squeezed to per-channel statistics, run
    through a bottleneck, and the resulting sigmoid gate (offset by
    one) rescales the context stream before concatenation.
    """
    if fc.shape != fm.shape:
        raise DimensionError(f"fusion inputs differ: {fc.shape} vs {fm.shape}")
    if fm.data.ndim != 3:
        raise DimensionError(f"fusion inputs must be (C,h,w), got {fm.shape}")
    c, h, w = fm.shape
    convs = (ca_fc1.w, ca_fc1.b, ca_fc2.w, ca_fc2.b)
    _check_same_dtype(fc, fm, *convs)
    mid = _check_1x1("attentive_fuse", ca_fc1, c)
    _check_1x1("attentive_fuse", ca_fc2, mid)
    inv = 1.0 / (h * w)
    gap = fm.data.sum(axis=(1, 2), keepdims=True) * inv         # (C, 1, 1)
    hid, wm1 = _conv1x1(ca_fc1, gap.reshape(c, 1), relu=True)   # (mid, 1)
    pre, wm2 = _conv1x1(ca_fc2, hid, relu=False)
    gate = _sigmoid(pre.reshape(c, 1, 1))
    gate1 = gate + 1.0
    out = np.concatenate([gate1 * fc.data, fm.data])

    def backward(g):
        gs, gm = g[:c], g[c:]
        if fc.requires_grad:
            fc._accum(gs * gate1)
        if fm.requires_grad or any(p.requires_grad for p in convs):
            dpre = _sigmoid_grad((gs * fc.data).sum(axis=(1, 2), keepdims=True),
                                 gate)
            need_hid = (fm.requires_grad or ca_fc1.w.requires_grad
                        or ca_fc1.b.requires_grad)
            dh = _conv_grads(dpre, hid, wm2, ca_fc2.w, ca_fc2.b, need_hid)
            if dh is not None:
                gh = dh.reshape(mid, 1, 1) * (hid.reshape(mid, 1, 1) > 0)
                dgap = _conv_grads(gh, gap.reshape(c, 1), wm1, ca_fc1.w,
                                   ca_fc1.b, fm.requires_grad)
                if dgap is not None:
                    gm = gm + dgap.reshape(c, 1, 1) * inv
        if fm.requires_grad:
            fm._accum(gm)

    return Tensor._from_op(out, (fc, fm) + convs, backward)


def analytic_param_count(channels: int, node_count: int, mode: str) -> int:
    """Closed-form parameter count of a GraphBlock; kept in lockstep
    with the registry by a test."""
    c, k = channels, node_count
    mid = max(c // 2, 1)
    proj = (mid * c + mid) + (k * mid + k)
    if mode == "base":
        return proj + c * c
    mid_r = max(c // CA_REDUCTION, 1)
    ca = (mid_r * c + mid_r) + (c * mid_r + c)
    sgr = 2 * proj + 2 * c * c + 2 + ca
    if mode == "sgr":
        return sgr
    if mode == "agr":
        return sgr + adapter_param_count(c, k)
    raise ConfigError(f"unknown graph mode {mode!r}")


def adapter_param_count(channels: int, node_count: int) -> int:
    """Parameters added by the kernel head plus the adapter's first layer."""
    return (node_count * channels + node_count) + (channels * channels + channels)


class GraphBlock:
    """Parameters and wiring for one reasoning stage.

    The context half of the computation depends only on the context
    features, so callers can run :meth:`context_stage` once and reuse
    its result across refinement iterations via :meth:`forward`.
    """

    def __init__(self, channels: int, node_count: int, *, context_steps: int = 2,
                 motion_steps: int = 1, mode: str = "agr",
                 rng: np.random.Generator | None = None):
        if mode not in GRAPH_MODES:
            raise ConfigError(f"graph mode must be one of {GRAPH_MODES}, got {mode!r}")
        if channels < 1 or node_count < 1:
            raise ConfigError(
                f"channels and node count must be positive, got {channels}/{node_count}")
        if context_steps < 1 or motion_steps < 1:
            raise ConfigError("reasoning step counts must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.node_count = node_count
        self.context_steps = context_steps
        self.motion_steps = motion_steps
        self.mode = mode
        params: dict[str, Tensor] = {}
        self.params = params
        mid = max(channels // 2, 1)

        def proj_head(prefix):
            return (Conv2d(rng, params, f"{prefix}.conv1", channels, mid, 1),
                    Conv2d(rng, params, f"{prefix}.conv2", mid, node_count, 1,
                           gain="linear"))

        def gcn_weight(name):
            return parameter(params, name, rng.normal(
                0.0, he_std(channels), size=(channels, channels)))

        if mode == "base":
            self.proj = proj_head("graph.proj")
            self.gcn_w = gcn_weight("graph.gcn.w")
            return

        self.ctx_proj = proj_head("graph.ctx_proj")
        self.mot_proj = proj_head("graph.mot_proj")
        self.ctx_gcn_w = gcn_weight("graph.ctx_gcn.w")
        self.mot_gcn_w = gcn_weight("graph.mot_gcn.w")
        self.alpha = parameter(params, "graph.alpha", np.zeros(()))
        self.beta = parameter(params, "graph.beta", np.zeros(()))
        mid_r = max(channels // CA_REDUCTION, 1)
        self.ca_fc1 = Conv2d(rng, params, "graph.ca.fc1", channels, mid_r, 1)
        self.ca_fc2 = Conv2d(rng, params, "graph.ca.fc2", mid_r, channels, 1,
                             gain="linear")
        if mode == "agr":
            self.theta_w, self.theta_b = linear_pair(
                rng, params, "graph.theta", node_count, channels, gain="linear")
            self.adapter_w, self.adapter_b = linear_pair(
                rng, params, "graph.adapter", channels, channels)

    # -- stages --------------------------------------------------------------

    def embed_context(self, f: Tensor) -> NodeSet:
        head = self.proj if self.mode == "base" else self.ctx_proj
        return embed_nodes(f, *head)

    def embed_motion(self, f: Tensor) -> NodeSet:
        head = self.proj if self.mode == "base" else self.mot_proj
        return embed_nodes(f, *head)

    def _check_stream(self, f: Tensor, name: str) -> None:
        if f.data.ndim != 3 or f.shape[0] != self.channels:
            raise DimensionError(
                f"{name} stream must be ({self.channels},h,w), got {f.shape}")

    def context_stage(self, f_c: Tensor) -> dict:
        """Reason over the context graph once per image pair.

        Returns the enhanced context map plus, in ``agr`` mode, the
        predicted motion-graph kernel.
        """
        self._check_stream(f_c, "context")
        if self.mode == "base":
            return {}
        vc = self.embed_context(f_c)
        enhanced = reason(vc.nodes, build_adjacency(vc.nodes), self.ctx_gcn_w,
                          self.context_steps)
        fc_hat = residual_merge(
            f_c, readout(enhanced, vc.proj, vc.source_shape), self.alpha)
        cache = {"fc_hat": fc_hat}
        if self.mode == "agr":
            cache["kernel"] = predict_adapter_kernel(enhanced, self.theta_w,
                                                     self.theta_b)
        return cache

    def forward(self, f_c: Tensor, f_m: Tensor, cache: dict | None = None) -> Tensor:
        """Fuse context and motion streams into a (2C, h, w) map."""
        self._check_stream(f_c, "context")
        self._check_stream(f_m, "motion")
        if f_c.shape != f_m.shape:
            raise DimensionError(
                f"stream shapes differ: {f_c.shape} vs {f_m.shape}")
        if self.mode == "base":
            vs = self.embed_context(add(f_c, f_m))
            enhanced = reason(vs.nodes, build_adjacency(vs.nodes), self.gcn_w,
                              self.context_steps)
            fhat = readout(enhanced, vs.proj, vs.source_shape)
            return concat([add(f_c, fhat), add(f_m, fhat)])

        if cache is None:
            cache = self.context_stage(f_c)
        vm = self.embed_motion(f_m)
        if self.mode == "agr":
            adj = graph_adapter(vm.nodes, cache["kernel"], self.adapter_w,
                                self.adapter_b)
        else:
            adj = build_adjacency(vm.nodes)
        enhanced = reason(vm.nodes, adj, self.mot_gcn_w, self.motion_steps)
        fm_hat = residual_merge(
            f_m, readout(enhanced, vm.proj, vm.source_shape), self.beta)
        return attentive_fuse(cache["fc_hat"], fm_hat, self.ca_fc1, self.ca_fc2)

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())
