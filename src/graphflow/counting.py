"""Analytic parameter and FLOP accounting per network component.

FLOPs follow the 2*MACs convention for convolutions and matrix
products; cheap elementwise work is ignored. Counts are closed-form
from the configuration, and a test pins them against the actual
parameter registry so the two can never drift apart.
"""

from __future__ import annotations

from .config import ModelConfig
from .errors import DimensionError
from .graph import CA_REDUCTION
from .model import PYRAMID_LEVELS, FlowModel

COMPONENTS = ("feature_encoder", "context_encoder", "motion_encoder",
              "graph", "update", "flow_head")
_PREFIX_TO_COMPONENT = {
    "fnet": "feature_encoder",
    "cnet": "context_encoder",
    "mot": "motion_encoder",
    "graph": "graph",
    "gru": "update",
    "head": "flow_head",
}


def conv_flops(cin: int, cout: int, k: int, ho: int, wo: int) -> int:
    """2 * MACs of one convolution at the given output extents."""
    return 2 * cin * cout * k * k * ho * wo


def matmul_flops(m: int, p: int, q: int) -> int:
    return 2 * m * p * q


def count_params(model: FlowModel) -> dict[str, int]:
    """Exact per-component sizes from the live registry."""
    out = {name: 0 for name in COMPONENTS}
    for name, p in model.params.items():
        prefix = name.split(".", 1)[0]
        out[_PREFIX_TO_COMPONENT[prefix]] += p.data.size
    out["total"] = sum(out[c] for c in COMPONENTS)
    return out


def _encoder_flops(cout: int, h: int, w: int) -> int:
    mid = max(cout // 2, 2)
    h2, w2 = h // 2, w // 2
    h4, w4 = h // 4, w // 4
    total = conv_flops(3, mid, 3, h2, w2)
    total += 4 * conv_flops(mid, mid, 3, h2, w2)       # 2 blocks, 2 convs each
    total += conv_flops(mid, cout, 3, h4, w4)
    total += 4 * conv_flops(cout, cout, 3, h4, w4)
    total += conv_flops(cout, cout, 1, h4, w4)
    return total


def _reasoning_flops(c: int, k: int, n: int, steps: int) -> int:
    """Node embedding of ``n`` pixels onto ``k`` nodes of ``c`` channels,
    ``steps`` GCN passes over them, and the readout back to pixels."""
    mid = max(c // 2, 1)
    embed = (conv_flops(c, mid, 1, 1, n) + conv_flops(mid, k, 1, 1, n)
             + matmul_flops(c, n, k))
    gcn = matmul_flops(k, k, c) + matmul_flops(k, c, c)
    return embed + steps * gcn + matmul_flops(c, k, n)


def _graph_flops(cfg: ModelConfig, n: int) -> int:
    """One fusion call, made once per refinement iteration.

    In base mode that is the whole shared graph, adjacency included. In
    sgr and agr it is the motion graph plus channel attention, with the
    motion adjacency (sgr) or the adapter (agr); their context graph is
    built once per pair and counted by ``_context_stage_flops``.
    """
    c, k = cfg.context_channels, cfg.nodes
    adjacency = matmul_flops(k, c, k)
    if cfg.graph == "base":
        return _reasoning_flops(c, k, n, cfg.context_iters) + adjacency
    mid_r = max(c // CA_REDUCTION, 1)
    ca = conv_flops(c, mid_r, 1, 1, 1) + conv_flops(mid_r, c, 1, 1, 1)
    motion_side = _reasoning_flops(c, k, n, cfg.motion_iters) + ca
    if cfg.graph == "sgr":
        return motion_side + adjacency
    adapter = (matmul_flops(c, c, k)          # first layer on motion nodes
               + matmul_flops(c, k, k)        # kernel application
               + matmul_flops(k, c, k))       # gram matrix
    return motion_side + adapter


def _context_stage_flops(cfg: ModelConfig, n: int) -> int:
    """The once-per-pair context graph of sgr and agr, with agr's
    kernel prediction."""
    if cfg.graph == "base":
        return 0
    c, k = cfg.context_channels, cfg.nodes
    total = (_reasoning_flops(c, k, n, cfg.context_iters)
             + matmul_flops(k, c, k))                 # adjacency
    if cfg.graph == "agr":
        total += matmul_flops(k, c, k)                # kernel prediction
    return total


def count_flops(cfg: ModelConfig, height: int, width: int) -> dict[str, int]:
    """Analytic totals for one forward pass at the given image extents."""
    d = cfg.downsample
    if height % d or width % d:
        raise DimensionError(
            f"extents {height}x{width} are not divisible by downsample={d}")
    h, w = height // d, width // d
    n = h * w
    c = cfg.context_channels
    side = 2 * cfg.lookup_radius + 1
    corr_ch = PYRAMID_LEVELS * side * side
    t = cfg.refine_iters

    feature = 2 * _encoder_flops(cfg.feature_channels, height, width)
    context = _encoder_flops(c, height, width)
    corr = matmul_flops(n, cfg.feature_channels, n)
    half = max(c // 2, 1)
    motion = t * (conv_flops(corr_ch, c, 1, h, w) + conv_flops(c, c, 3, h, w)
                  + conv_flops(2, half, 3, h, w)
                  + conv_flops(c + half, c, 3, h, w))
    graph = _context_stage_flops(cfg, n) + t * _graph_flops(cfg, n)
    gru = conv_flops(c, c, 3, h, w) + t * 3 * conv_flops(3 * c, c, 3, h, w)
    # upsample_flow: (2h, w) x (w, wd), then (2hd, 2h) x (2h, wd)
    upsample = matmul_flops(2 * h, w, w * d) + matmul_flops(2 * h * d, 2 * h, w * d)
    headf = t * (conv_flops(c, c, 3, h, w) + conv_flops(c, 2, 3, h, w) + upsample)
    out = {
        "feature_encoder": feature,
        "context_encoder": context,
        "correlation": corr,
        "motion_encoder": motion,
        "graph": graph,
        "update": gru,
        "flow_head": headf,
    }
    out["total"] = sum(out.values())
    return out
