"""Sixty-four-bit finite-difference audits behind the gradcheck command.

Every differentiable operation gets its own check against central
differences, then the reasoning block and a micro configuration of the
whole network are checked end to end. Inputs for kinked functions
(relu, absolute, interpolation) are kept away from their corners so
the numeric derivative is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .config import ModelConfig
from .data import FlowField
from .gradcheck import gradcheck
from .graph import GraphBlock
from .layers import tap_major
from .model import FlowModel, sequence_loss
from .tensor import (Tensor, absolute, add, avg_pool2x2, concat, conv2d,
                     conv_gru, l2_normalize, matmul, mul, relu, reshape, scale,
                     sigmoid, softmax, tanh, transpose, tsum, window_sample)

OP_TOL = 1e-4
MODEL_TOL = 1e-3


@dataclass
class CheckRow:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _param(rng, shape, margin=0.0):
    """Grad-enabled float64 tensor, optionally bounded away from zero."""
    data = rng.normal(size=shape)
    if margin:
        data = np.sign(data) * (np.abs(data) + margin)
    return Tensor(data, requires_grad=True, dtype=np.float64)


def _weights(rng, shape):
    """Fixed random readout so every element's gradient is distinct."""
    return Tensor(rng.normal(size=shape), dtype=np.float64)


def _fractional(rng, shape, lo, hi):
    """Coordinates with fractional parts in [0.2, 0.8], inside [lo, hi]."""
    base = rng.integers(int(lo), int(hi), size=shape).astype(np.float64)
    return base + rng.uniform(0.2, 0.8, size=shape)


def _op_cases(rng):
    cases = []

    def case(name, params, fn):
        cases.append((name, params, fn))

    a = _param(rng, (2, 3))
    b = _param(rng, (2, 1))            # broadcast: its gradient sums a row
    w = _weights(rng, (2, 3))
    case("add", {"a": a, "b": b}, lambda: tsum(mul(add(a, b), w)))

    a2, b2 = _param(rng, (2, 3)), _param(rng, (2, 3))
    case("mul", {"a": a2, "b": b2}, lambda: tsum(mul(mul(a2, b2), w)))

    s = _param(rng, (3, 4))
    sw = _weights(rng, (3, 4))
    case("scale", {"x": s}, lambda: tsum(mul(scale(s, 1.7), sw)))

    r = _param(rng, (3, 4), margin=0.2)
    case("relu", {"x": r}, lambda: tsum(mul(relu(r), sw)))

    g = _param(rng, (3, 4))
    case("sigmoid", {"x": g}, lambda: tsum(mul(sigmoid(g), sw)))

    th = _param(rng, (3, 4))
    case("tanh", {"x": th}, lambda: tsum(mul(tanh(th), sw)))

    ab = _param(rng, (3, 4), margin=0.2)
    case("absolute", {"x": ab}, lambda: tsum(mul(absolute(ab), sw)))

    su = _param(rng, (4, 5))
    case("sum", {"x": su}, lambda: scale(tsum(su), 0.7))

    rs = _param(rng, (2, 6))
    rw = _weights(rng, (3, 4))
    case("reshape", {"x": rs}, lambda: tsum(mul(reshape(rs, (3, 4)), rw)))

    tr = _param(rng, (3, 4))
    tw = _weights(rng, (4, 3))
    case("transpose", {"x": tr}, lambda: tsum(mul(transpose(tr), tw)))

    c1, c2 = _param(rng, (2, 3)), _param(rng, (4, 3))
    cw = _weights(rng, (6, 3))
    case("concat", {"a": c1, "b": c2},
         lambda: tsum(mul(concat([c1, c2]), cw)))

    ma, mb = _param(rng, (3, 4)), _param(rng, (4, 2))
    mw = _weights(rng, (3, 2))
    case("matmul", {"a": ma, "b": mb}, lambda: tsum(mul(matmul(ma, mb), mw)))

    sm = _param(rng, (4, 5))
    smw = _weights(rng, (4, 5))
    case("softmax", {"x": sm}, lambda: tsum(mul(softmax(sm), smw)))

    ln = _param(rng, (3, 4), margin=0.3)
    lnw = _weights(rng, (3, 4))
    case("l2_normalize", {"x": ln}, lambda: tsum(mul(l2_normalize(ln), lnw)))

    # a stride-1 conv feeds a stride-2 one, so both backward paths run,
    # each with its ReLU epilogue, and with weights stored tap-major as
    # Conv2d stores them; at these draws every pre-activation lies at
    # least 0.08 from the kink (a test pins that)
    cx = _param(rng, (2, 5, 5))
    ck1 = _param(rng, (2, 2, 3, 3))
    ck = _param(rng, (3, 2, 3, 3))
    ck1.data, ck.data = tap_major(ck1.data), tap_major(ck.data)
    cb = _param(rng, (3,))
    cvw = _weights(rng, (3, 3, 3))
    zero_b = Tensor(np.zeros(2), dtype=np.float64)    # draws no random numbers
    case("conv2d", {"x": cx, "w1": ck1, "w": ck, "b": cb},
         lambda: tsum(mul(conv2d(conv2d(cx, ck1, zero_b, relu=True), ck, cb,
                                 stride=2, relu=True), cvw)))

    px = _param(rng, (2, 5, 5))
    pw = _weights(rng, (2, 3, 3))
    case("avg_pool2x2", {"x": px}, lambda: tsum(mul(avg_pool2x2(px), pw)))

    # three ceil-halved levels, read at centres / 2^l
    wvs = {f"level{lvl}": _param(rng, (3, e, e))
           for lvl, e in enumerate((5, 3, 2))}
    wc = Tensor(_fractional(rng, (2, 3), -1, 5), requires_grad=True,
                dtype=np.float64)
    ww = _weights(rng, (3 * 9, 3))
    case("window_sample", {**wvs, "centers": wc},
         lambda: tsum(mul(window_sample(list(wvs.values()), wc, 1), ww)))

    # a cell of 2 state and 3 input channels with tap-major gate weights,
    # scaled so the gates do not saturate
    gh, gx = _param(rng, (2, 3, 4)), _param(rng, (3, 3, 4))
    gates = {}
    for gate in "zrq":
        gw = _param(rng, (2, 5, 3, 3))
        gw.data = tap_major(0.3 * gw.data)
        gates[f"w{gate}"], gates[f"b{gate}"] = gw, _param(rng, (2,))
    gruw = _weights(rng, (2, 3, 4))
    case("conv_gru", {"hidden": gh, "x": gx, **gates},
         lambda: tsum(mul(conv_gru(gh, gx, *gates.values()), gruw)))

    return cases


def check_operations() -> list[CheckRow]:
    rng = np.random.default_rng(101)
    rows = []
    with tt.precision(64):
        for name, params, fn in _op_cases(rng):
            report = gradcheck(fn, params)
            rows.append(CheckRow(f"op.{name}", report.max_rel_err, OP_TOL))
    return rows


def check_reasoning_block() -> CheckRow:
    """End-to-end block check at c=C=4, K=3 on a 3x3 grid, gates open."""
    with tt.precision(64):
        rng = np.random.default_rng(202)
        block = GraphBlock(channels=4, node_count=3, mode="agr", rng=rng)
        block.alpha.data = np.asarray(0.5)
        block.beta.data = np.asarray(-0.3)
        f_c = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True,
                     dtype=np.float64)
        f_m = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True,
                     dtype=np.float64)
        wsum = Tensor(rng.normal(size=(8, 3, 3)), dtype=np.float64)
        params = {"in.f_c": f_c, "in.f_m": f_m, **block.params}
        report = gradcheck(lambda: tsum(mul(block.forward(f_c, f_m), wsum)),
                           params)
    return CheckRow("block.agr", report.max_rel_err, OP_TOL)


def check_full_model() -> CheckRow:
    """Whole-network check on 8x8 frames with two refinement passes.

    Parameters are jittered off their initial values first: zero-filled
    biases would otherwise park relu units exactly on their corner
    (the flow branch sees an all-zero flow at the first pass), where a
    central difference measures the subgradient convention instead of
    the implemented rule. The jitter is added in place, so the conv
    weights stay tap-major, as they train.
    """
    with tt.precision(64):
        cfg = ModelConfig(feature_channels=4, context_channels=4, nodes=3,
                          refine_iters=2, lookup_radius=1, downsample=4,
                          seed=7)
        model = FlowModel(cfg)
        rng = np.random.default_rng(303)
        for p in model.params.values():
            p.data += rng.normal(scale=0.05, size=p.data.shape)
        model.graph.alpha.data = np.asarray(0.4)
        model.graph.beta.data = np.asarray(-0.3)
        i1 = rng.uniform(size=(3, 8, 8))
        i2 = rng.uniform(size=(3, 8, 8))
        gt = FlowField(flow=rng.normal(size=(2, 8, 8)).astype(np.float32))
        report = gradcheck(
            lambda: sequence_loss(model.forward(i1, i2), gt), model.params)
    return CheckRow("model.micro", report.max_rel_err, MODEL_TOL)


def run_gradient_suite() -> list[CheckRow]:
    return [*check_operations(), check_reasoning_block(), check_full_model()]
