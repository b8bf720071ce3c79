"""Recurrent matching network hosting the graph reasoning stage.

Wiring per refinement iteration: correlation lookup around the current
flow estimate, motion encoding, graph reasoning and fusion of the two
feature streams, a ConvGRU state update, and a flow delta. The context
half of the graph stage depends only on the first frame, so it runs
once per pair and is reused across iterations.

No gradient detaching anywhere: the loss differentiates through every
iteration, including the flow estimates feeding later lookups, which
keeps finite-difference checks of the whole network honest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .data import FlowField
from .errors import ConfigError, ContractError, DimensionError
from .graph import GraphBlock
from .layers import Conv2d, NoDraw
from .tensor import (Tensor, absolute, add, avg_pool2x2, concat, conv_gru,
                     matmul, mul, no_grad, relu, reshape, scale, tanh,
                     transpose, tsum, window_sample)

PYRAMID_LEVELS = 4
GAMMA = 0.8          # sequence-loss decay toward earlier iterations
_CONFIG_HINT = "; the checkpoint was likely written under another --config"


@dataclass
class CorrelationPyramid:
    """Per-pixel matching costs against the target at 4 pooled scales."""

    levels: list        # level l: Tensor (N, ceil(h/2^l), ceil(w/2^l))
    grid: tuple[int, int]


class ResBlock:
    def __init__(self, rng, params, prefix, ch):
        self.conv1 = Conv2d(rng, params, f"{prefix}.conv1", ch, ch, 3)
        self.conv2 = Conv2d(rng, params, f"{prefix}.conv2", ch, ch, 3)

    def __call__(self, x):
        return relu(add(x, self.conv2(self.conv1(x, relu=True))))


class Encoder:
    """Conv stem plus two residual blocks per scale, two stride-2 scales."""

    def __init__(self, rng, params, prefix, cout):
        mid = max(cout // 2, 2)
        self.stem = Conv2d(rng, params, f"{prefix}.stem", 3, mid, 3, stride=2)
        self.blocks1 = [ResBlock(rng, params, f"{prefix}.layer1.block{i}", mid)
                        for i in range(2)]
        self.down = Conv2d(rng, params, f"{prefix}.down", mid, cout, 3, stride=2)
        self.blocks2 = [ResBlock(rng, params, f"{prefix}.layer2.block{i}", cout)
                        for i in range(2)]
        self.out = Conv2d(rng, params, f"{prefix}.out", cout, cout, 1,
                          gain="linear")

    def __call__(self, x):
        h = self.stem(x, relu=True)
        for blk in self.blocks1:
            h = blk(h)
        h = self.down(h, relu=True)
        for blk in self.blocks2:
            h = blk(h)
        return self.out(h)


class MotionEncoder:
    """Four convs: two on correlation features, one on flow, one after concat."""

    def __init__(self, rng, params, prefix, corr_ch, cout):
        half = max(cout // 2, 1)
        self.corr1 = Conv2d(rng, params, f"{prefix}.corr1", corr_ch, cout, 1)
        self.corr2 = Conv2d(rng, params, f"{prefix}.corr2", cout, cout, 3)
        self.flow1 = Conv2d(rng, params, f"{prefix}.flow1", 2, half, 3)
        self.fuse = Conv2d(rng, params, f"{prefix}.fuse", cout + half, cout, 3,
                           gain="linear")

    def __call__(self, corr_feats, flow):
        a = self.corr2(self.corr1(corr_feats, relu=True), relu=True)
        b = self.flow1(flow, relu=True)
        return self.fuse(concat([a, b]))


class ConvGRU:
    """Gated state update; input is the fused (2C) feature map.

    The cell is one ``conv_gru`` op: the z and r gates share one column
    build of [hidden; x], and the candidate q rewrites only its hidden
    rows. The three gate convs keep their own parameters.
    """

    def __init__(self, rng, params, prefix, hidden, input_ch):
        both = hidden + input_ch
        self.init_conv = Conv2d(rng, params, f"{prefix}.init", hidden, hidden, 3,
                                gain="linear")
        self.convz = Conv2d(rng, params, f"{prefix}.convz", both, hidden, 3,
                            gain="linear")
        self.convr = Conv2d(rng, params, f"{prefix}.convr", both, hidden, 3,
                            gain="linear")
        self.convq = Conv2d(rng, params, f"{prefix}.convq", both, hidden, 3,
                            gain="linear")

    def initial_state(self, context):
        return tanh(self.init_conv(context))

    def __call__(self, hidden, x):
        return conv_gru(hidden, x, self.convz.w, self.convz.b, self.convr.w,
                        self.convr.b, self.convq.w, self.convq.b)


class FlowHead:
    def __init__(self, rng, params, prefix, hidden):
        self.conv1 = Conv2d(rng, params, f"{prefix}.conv1", hidden, hidden, 3)
        self.conv2 = Conv2d(rng, params, f"{prefix}.conv2", hidden, 2, 3,
                            gain="linear")

    def __call__(self, hidden):
        return self.conv2(self.conv1(hidden, relu=True))


# -- correlation -------------------------------------------------------------


def build_corr_pyramid(f1: Tensor, f2: Tensor) -> CorrelationPyramid:
    """All-pairs dot products scaled by 1/sqrt(c_f), then 3 poolings."""
    if f1.shape != f2.shape:
        raise DimensionError(f"feature shapes differ: {f1.shape} vs {f2.shape}")
    c, h, w = f1.shape
    n = h * w
    a = transpose(reshape(f1, (c, n)))                 # (N, c)
    b = reshape(f2, (c, n))                            # (c, N)
    vol = scale(matmul(a, b), 1.0 / float(np.sqrt(c)))
    levels = [reshape(vol, (n, h, w))]
    for _ in range(PYRAMID_LEVELS - 1):
        levels.append(avg_pool2x2(levels[-1]))
    return CorrelationPyramid(levels=levels, grid=(h, w))


def lookup(pyr: CorrelationPyramid, flow: Tensor, radius: int) -> Tensor:
    """Cost windows around (p + flow(p)) / 2^l at every level, one op.

    Channel order is level-major, then window rows top to bottom, so
    channel l*(2r+1)^2 + (dy+r)*(2r+1) + (dx+r) reads offset (dx, dy)
    at level l. ``window_sample`` reads all levels in one gather from
    an unpadded flat copy of the pyramid.
    """
    h, w = pyr.grid
    n = h * w
    if flow.shape != (2, h, w):
        raise DimensionError(f"flow {flow.shape} does not match grid {(2, h, w)}")
    grid = Tensor(_pixel_grid(h, w, flow.dtype), dtype=flow.dtype)
    centers = add(grid, reshape(flow, (2, n)))
    sampled = window_sample(pyr.levels, centers, radius)
    return reshape(sampled, (sampled.shape[0], h, w))


# The constants below are built once per shape and dtype and shared
# read-only by every call.


@functools.lru_cache(maxsize=64)
def _pixel_grid(h: int, w: int, dtype: np.dtype) -> np.ndarray:
    """(2, h*w) pixel coordinates, x then y, row-major over the grid."""
    ys, xs = np.meshgrid(np.arange(h, dtype=dtype), np.arange(w, dtype=dtype),
                         indexing="ij")
    grid = np.stack([xs.reshape(-1), ys.reshape(-1)])
    grid.setflags(write=False)
    return grid


def _interp_matrix(n: int, d: int) -> np.ndarray:
    """(n*d, n) linear interpolation weights, two per row.

    Output o reads position clip((o + 0.5)/d - 0.5, 0, n - 1), so the
    border rows copy the edge value instead of blending in zeros.
    """
    pos = np.clip((np.arange(n * d) + 0.5) / d - 0.5, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    rows = np.arange(n * d)
    r = np.zeros((n * d, n))
    r[rows, i0] = 1.0 - frac
    r[rows, np.minimum(i0 + 1, n - 1)] += frac
    return r


@functools.lru_cache(maxsize=64)
def _upsample_matrices(h: int, w: int, d: int,
                       dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """kron(I_2, R_h) and d * R_w^T, built in float64, then cast."""
    rows = np.asarray(np.kron(np.eye(2), _interp_matrix(h, d)), dtype=dtype)
    cols = np.asarray(d * _interp_matrix(w, d).T, dtype=dtype)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def upsample_flow(flow: Tensor, d: int) -> Tensor:
    """Bilinear upsample by d with displacement values scaled by d.

    Bilinear resampling is separable: each channel becomes
    R_h F (d R_w)^T, two matrix products with fixed interpolation
    matrices. Sample positions are clamped to the border, so a
    constant field stays constant.
    """
    if flow.data.ndim != 3 or flow.shape[0] != 2:
        raise DimensionError(f"flow must be (2,h,w), got {flow.shape}")
    _, h, w = flow.shape
    rows, cols = (Tensor(m, dtype=flow.dtype)
                  for m in _upsample_matrices(h, w, d, flow.dtype))
    up = matmul(rows, matmul(reshape(flow, (2 * h, w)), cols))
    return reshape(up, (2, h * d, w * d))


# -- loss --------------------------------------------------------------------


def sequence_loss(preds: list[Tensor], gt: FlowField) -> Tensor:
    """Exponentially weighted L1 over the prediction sequence.

    Sum_i GAMMA^(T-1-i) * mean over valid pixels of |du| + |dv|; later
    iterations weigh more.
    """
    if not preds:
        raise ContractError("sequence_loss needs at least one prediction")
    garr = gt.flow
    valid = gt.valid_mask()
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ContractError("no valid pixels in the ground truth")
    dtype = preds[0].dtype
    neg_gt = Tensor(-garr, dtype=dtype)
    mask = Tensor(np.broadcast_to(valid, garr.shape), dtype=dtype)
    t = len(preds)
    total = None
    for i, pred in enumerate(preds):
        if pred.shape != garr.shape:
            raise DimensionError(
                f"prediction {i} shape {pred.shape} != ground truth {garr.shape}")
        diff = absolute(add(pred, neg_gt))
        term = scale(tsum(mul(diff, mask)), GAMMA ** (t - 1 - i) / n_valid)
        total = term if total is None else add(total, term)
    return total


# -- the full network --------------------------------------------------------


class FlowModel:
    """End-to-end network; parameters live in one ordered registry.

    ``FlowModel(cfg)`` draws every initial weight from ``cfg.seed``.
    ``FlowModel(cfg, entries)`` builds the same layers on zero
    placeholders, drawing nothing, and fills them from checkpoint
    ``entries`` through :meth:`load_state` and its checks, so each
    weight is copied once, into an aligned array of its own.
    """

    def __init__(self, cfg: ModelConfig,
                 entries: dict[str, np.ndarray] | None = None):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed) if entries is None else NoDraw()
        side = 2 * cfg.lookup_radius + 1
        corr_ch = PYRAMID_LEVELS * side * side
        self.params: dict[str, Tensor] = {}
        self.fnet = Encoder(rng, self.params, "fnet", cfg.feature_channels)
        self.cnet = Encoder(rng, self.params, "cnet", cfg.context_channels)
        self.motion = MotionEncoder(rng, self.params, "mot", corr_ch,
                                    cfg.context_channels)
        self.graph = GraphBlock(cfg.context_channels, cfg.nodes,
                                context_steps=cfg.context_iters,
                                motion_steps=cfg.motion_iters,
                                mode=cfg.graph, rng=rng)
        self.params.update(self.graph.params)
        self.gru = ConvGRU(rng, self.params, "gru", cfg.context_channels,
                           2 * cfg.context_channels)
        self.head = FlowHead(rng, self.params, "head", cfg.context_channels)
        if entries is not None:
            self.load_state(entries)

    # -- plumbing ------------------------------------------------------------

    def _prep_image(self, img, name) -> Tensor:
        arr = np.asarray(img)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise DimensionError(f"{name} must be (3,H,W), got {arr.shape}")
        d = self.cfg.downsample
        if arr.shape[1] % d or arr.shape[2] % d:
            raise ConfigError(
                f"{name} extents {arr.shape[1]}x{arr.shape[2]} are not "
                f"divisible by downsample={d}")
        dtype = next(iter(self.params.values())).dtype
        scaled = np.asarray(arr, dtype=dtype) * 2.0 - 1.0   # [0,1] -> [-1,1]
        return Tensor(scaled, dtype=dtype)

    def encode_features(self, i1, i2):
        x1 = self._prep_image(i1, "first image")
        x2 = self._prep_image(i2, "second image")
        return self.fnet(x1), self.fnet(x2)

    def encode_context(self, i1):
        return self.cnet(self._prep_image(i1, "first image"))

    def forward(self, i1, i2) -> list:
        """All refinement iterations' upsampled flow predictions."""
        cfg = self.cfg
        f1, f2 = self.encode_features(i1, i2)
        fc = self.encode_context(i1)
        pyr = build_corr_pyramid(f1, f2)
        hidden = self.gru.initial_state(fc)
        cache = self.graph.context_stage(fc)
        h, w = pyr.grid
        flow = Tensor(np.zeros((2, h, w)), dtype=f1.dtype)
        preds = []
        for _ in range(cfg.refine_iters):
            corr_feats = lookup(pyr, flow, cfg.lookup_radius)
            fm = self.motion(corr_feats, flow)
            fo = self.graph.forward(fc, fm, cache)
            hidden = self.gru(hidden, fo)
            flow = add(flow, self.head(hidden))
            preds.append(upsample_flow(flow, cfg.downsample))
        return preds

    def predict(self, i1, i2) -> FlowField:
        """Final full-resolution flow, gradient-free."""
        with no_grad():
            preds = self.forward(i1, i2)
        return FlowField(flow=preds[-1].data.astype(np.float32))

    # -- state ---------------------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        """Each parameter's own array, live: serialize before the next update."""
        return {name: p.data for name, p in self.params.items()}

    def load_state(self, entries: dict[str, np.ndarray]) -> None:
        """Write weights in place; 'opt.' / 'meta.' entries are ignored.

        In place, so an optimizer that owns the storage keeps it. Unknown
        parameter names or mismatched extents indicate a checkpoint
        written for a different configuration.
        """
        for name in entries:
            if name not in self.params and not name.startswith(("opt.", "meta.")):
                raise ContractError(
                    f"checkpoint entry {name!r} does not exist in this model"
                    f"{_CONFIG_HINT}")
        for name, p in self.params.items():
            if name not in entries:
                raise ContractError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(entries[name])
            if arr.shape != p.data.shape:
                raise DimensionError(
                    f"parameter {name!r}: checkpoint extents {arr.shape} "
                    f"do not match model extents {p.data.shape}{_CONFIG_HINT}")
            p.data[...] = arr
