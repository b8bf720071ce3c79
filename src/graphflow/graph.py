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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GRAPH_MODES
from .errors import ConfigError, ContractError, DimensionError
from .layers import Conv2d, he_std, linear_pair, parameter
from .tensor import (Tensor, add, concat, l2_normalize, matmul, mul, relu,
                     reshape, scale, sigmoid, softmax, transpose, tsum)

CA_REDUCTION = 4        # channel-attention bottleneck: C -> C // 4 -> C


@dataclass
class NodeSet:
    """Node features (C, K) with the pixel assignment (N, K) that built them."""

    nodes: Tensor
    proj: Tensor
    source_shape: tuple[int, int, int]


def embed_nodes(f: Tensor, conv1: Conv2d, conv2: Conv2d) -> NodeSet:
    """Project a (c, h, w) map onto K nodes.

    The two 1x1 convs produce per-pixel node logits; a softmax over the
    node axis turns each pixel row into a convex assignment. Node
    features are the assignment-weighted pixel sums, L2-normalized per
    node so adjacency entries stay in [-1, 1].
    """
    if f.data.ndim != 3:
        raise DimensionError(f"embed_nodes expects (c,h,w), got {f.shape}")
    c, h, w = f.shape
    logits = conv2(conv1(f, relu=True))                # (K, h, w)
    k = logits.shape[0]
    proj = softmax(transpose(reshape(logits, (k, h * w))))   # (N, K)
    flat = reshape(f, (c, h * w))
    nodes = l2_normalize(matmul(flat, proj))
    return NodeSet(nodes=nodes, proj=proj, source_shape=(c, h, w))


def build_adjacency(v: Tensor) -> Tensor:
    """Inner-product similarity graph V^T V (K, K) of unit-normalized nodes."""
    if v.data.ndim != 2:
        raise DimensionError(f"adjacency needs (C,K) nodes, got {v.shape}")
    return matmul(transpose(v), v)


def gcn_step(nodes: Tensor, adj: Tensor, weight: Tensor) -> Tensor:
    """One propagation step: relu((A V^T W)^T)."""
    c, k = nodes.shape
    if adj.shape != (k, k):
        raise DimensionError(f"adjacency {adj.shape} does not match {k} nodes")
    if weight.shape != (c, c):
        raise DimensionError(f"propagation weight {weight.shape} must be ({c},{c})")
    mixed = matmul(adj, transpose(nodes))              # (K, C)
    return relu(transpose(matmul(mixed, weight)))      # (C, K)


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
    """Map reasoned context nodes to a row-stochastic (K, K) mixing kernel."""
    c, k = ctx_nodes.shape
    if theta_w.shape != (k, c):
        raise DimensionError(f"kernel head {theta_w.shape} must be ({k},{c})")
    logits = add(matmul(theta_w, ctx_nodes), reshape(theta_b, (k, 1)))
    return softmax(logits)


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
    hidden = relu(add(matmul(w1, v), reshape(b1, (c, 1))))
    adapted = matmul(hidden, kernel)                   # (C, K)
    return matmul(transpose(adapted), adapted)


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
    return reshape(matmul(nodes, transpose(proj)), (c, h, w))


def residual_merge(f: Tensor, read: Tensor, gate: Tensor) -> Tensor:
    """f + gate * read; with gate exactly zero this is bitwise f."""
    if f.shape != read.shape:
        raise DimensionError(f"residual shapes differ: {f.shape} vs {read.shape}")
    return add(f, mul(read, gate))


def attentive_fuse(fc: Tensor, fm: Tensor, ca_fc1: Conv2d, ca_fc2: Conv2d) -> Tensor:
    """Channel-attentive fusion of the two streams.

    The motion stream is squeezed to per-channel statistics, run
    through a bottleneck, and the resulting sigmoid gate (offset by
    one) rescales the context stream before concatenation.
    """
    if fc.shape != fm.shape:
        raise DimensionError(f"fusion inputs differ: {fc.shape} vs {fm.shape}")
    _, h, w = fm.shape
    gap = scale(tsum(fm, axis=(1, 2), keepdims=True), 1.0 / (h * w))  # (C, 1, 1)
    gate = sigmoid(ca_fc2(ca_fc1(gap, relu=True)))     # (C, 1, 1)
    scaled = mul(add(gate, Tensor(1.0, dtype=gate.dtype)), fc)
    return concat([scaled, fm])


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
