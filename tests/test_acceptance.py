"""Acceptance gate: one test per shipping criterion.

Each criterion lives in its own ``test_criterion_NN`` function so a
``pytest -v`` run prints exactly one pass or fail line for it. The
tolerances are pinned locally instead of imported from the package;
loosening a bound in the code must not silently loosen the gate.

Two tests dominate the runtime: the gradient audit (about a minute)
and the small-scale training run (several minutes). Both carry the
``slow`` marker, so ``pytest -m "not slow"`` gives a fast edit loop;
both are part of the contract, and the tier-1 command still runs them.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import graphflow.tensor as tt
from graphflow.checks import run_gradient_suite
from graphflow.cli import main
from graphflow.config import ModelConfig, RunConfig
from graphflow.counting import count_params
from graphflow.data import (DatasetSpec, FlowField, epe, f1_all, gen_dataset,
                            read_flo, write_flo)
from graphflow.graph import (GraphBlock, adapter_param_count,
                             analytic_param_count, attentive_fuse,
                             build_adjacency, embed_nodes, gcn_step,
                             graph_adapter, readout)
from graphflow.model import FlowModel, build_corr_pyramid, lookup
from graphflow.tensor import Tensor
from graphflow.train import run_evaluation, run_training
from oracles import (naive_conv2d, naive_corr_pyramid, naive_epe,
                     naive_f1_all, naive_gcn_step, naive_lookup, naive_nodes,
                     naive_readout, naive_softmax)

OP_GRAD_TOL = 1e-4          # ops and the reasoning block, relative error
MODEL_GRAD_TOL = 1e-3       # end-to-end micro model, relative error
GRAD_BUDGET_S = 120.0
PROJ_ROW_TOL = 1e-6         # softmax row-sum drift
PSD_FLOOR = -1e-6           # eigvalsh noise floor for adapted graphs
METRIC_ORACLE_TOL = 1e-6
OVERFIT_RATIO = 0.10        # final loss versus first logged loss
OVERFIT_EPE = 1.0           # train-set end-point error after overfitting


@pytest.mark.slow
def test_criterion_01_gradient_audit_under_two_minutes():
    t0 = time.perf_counter()
    rows = run_gradient_suite()
    elapsed = time.perf_counter() - t0
    names = [r.name for r in rows]
    assert any(n.startswith("op.") for n in names)
    assert "block.agr" in names and "model.micro" in names
    for row in rows:
        bound = MODEL_GRAD_TOL if row.name.startswith("model.") else OP_GRAD_TOL
        assert row.max_rel_err < bound, \
            f"{row.name}: {row.max_rel_err:.3e} >= {bound:g}"
    assert elapsed < GRAD_BUDGET_S, f"audit took {elapsed:.1f}s"


def test_criterion_02_fresh_gates_are_bitwise_identity():
    """At zero-valued gates the reasoning stage must not leave a trace.

    The enhanced context must be byte-for-byte the raw context, and the
    fused output must equal running the attention fusion directly on
    the untouched streams, which can only happen if the motion residual
    vanished exactly as well.
    """
    for bits in (32, 64):
        with tt.precision(bits):
            for mode in ("sgr", "agr"):
                rng = np.random.default_rng(17)
                block = GraphBlock(8, 5, mode=mode, rng=rng)
                f_c = Tensor(rng.normal(size=(8, 6, 6)))
                f_m = Tensor(rng.normal(size=(8, 6, 6)))
                cache = block.context_stage(f_c)
                assert np.array_equal(cache["fc_hat"].data, f_c.data), \
                    f"context stream modified ({mode}, {bits} bits)"
                got = block.forward(f_c, f_m, cache)
                want = attentive_fuse(f_c, f_m, block.ca_fc1, block.ca_fc2)
                assert np.array_equal(got.data, want.data), \
                    f"fusion not a pass-through ({mode}, {bits} bits)"


def test_criterion_03_graph_invariants_hold_over_100_seeds():
    # 64-bit so the eigensolver floor measures the construction, not
    # accumulated single-precision rounding in the Gram products
    worst_row = 0.0
    worst_eig = np.inf
    with tt.precision(64):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            block = GraphBlock(8, 5, mode="agr", rng=rng)
            f_c = Tensor(rng.normal(size=(8, 4, 4)))
            f_m = Tensor(rng.normal(size=(8, 4, 4)))
            vc = block.embed_context(f_c)
            rows = vc.proj.data.sum(axis=1)
            worst_row = max(worst_row, float(np.abs(rows - 1.0).max()))
            adj = build_adjacency(vc.nodes).data
            assert np.array_equal(adj, adj.T), f"seed {seed}: asymmetric graph"
            cache = block.context_stage(f_c)
            krows = cache["kernel"].data.sum(axis=1)
            worst_row = max(worst_row, float(np.abs(krows - 1.0).max()))
            vm = block.embed_motion(f_m)
            adapted = graph_adapter(vm.nodes, cache["kernel"], block.adapter_w,
                                    block.adapter_b).data
            worst_eig = min(worst_eig,
                            float(np.linalg.eigvalsh(adapted).min()))
    assert worst_row <= PROJ_ROW_TOL, f"row sums drift by {worst_row:.2e}"
    assert worst_eig >= PSD_FLOOR, f"adapted graph eigenvalue {worst_eig:.2e}"


def test_criterion_04_engine_matches_loop_oracles_to_the_bit():
    """Vectorized paths against the loop oracles, compared bitwise.

    Every case is built so each floating-point reduction has at most
    one inexact term: integer features keep correlation and graph
    products exact, quarter-integer flow keeps bilinear weights dyadic,
    a single occupied pixel keeps the embedding sums one-term, and a
    one-hot assignment does the same for the readout. With those inputs
    a blocked, fused, or reordered sum cannot hide behind a tolerance.
    """
    with tt.precision(64):
        rng = np.random.default_rng(11)

        # correlation pyramid, c = 4 so the 1/sqrt(c) scale is a power of two
        f1 = rng.integers(-3, 4, size=(4, 16, 16)).astype(np.float64)
        f2 = rng.integers(-3, 4, size=(4, 16, 16)).astype(np.float64)
        pyr = build_corr_pyramid(Tensor(f1), Tensor(f2))
        for got, want in zip(pyr.levels,
                             naive_corr_pyramid(f1, f2, len(pyr.levels))):
            assert np.array_equal(got.data, want)

        flow = rng.integers(-8, 9, size=(2, 16, 16)) / 4.0
        got_lk = lookup(pyr, Tensor(flow), 2)
        assert np.array_equal(got_lk.data,
                              naive_lookup([l.data for l in pyr.levels],
                                           flow, 2))

        # node embedding through integer heads and one occupied pixel
        block = GraphBlock(4, 8, mode="agr", rng=rng)
        conv1, conv2 = block.ctx_proj
        for conv in (conv1, conv2):
            conv.w.data = rng.integers(-2, 3, size=conv.w.shape).astype(float)
            conv.b.data = rng.integers(-1, 2, size=conv.b.shape).astype(float)
        feat = np.zeros((4, 16, 16))
        feat[:, 7, 3] = (2.0, -1.0, 3.0, 1.0)
        ns = embed_nodes(Tensor(feat), conv1, conv2)
        a1 = np.maximum(naive_conv2d(feat, conv1.w.data, conv1.b.data,
                                     stride=1, padding=0), 0.0)
        a2 = naive_conv2d(a1, conv2.w.data, conv2.b.data, stride=1, padding=0)
        want_proj = naive_softmax(a2.reshape(8, 256).T, axis=1)
        assert np.array_equal(ns.proj.data, want_proj)
        assert np.array_equal(ns.nodes.data,
                              naive_nodes(feat.reshape(4, 256), want_proj))

        # one propagation step on integer node features
        nodes = rng.integers(-3, 4, size=(6, 8)).astype(np.float64)
        adj = rng.integers(-2, 3, size=(8, 8)).astype(np.float64)
        wg = rng.integers(-2, 3, size=(6, 6)).astype(np.float64)
        got_g = gcn_step(Tensor(nodes), Tensor(adj), Tensor(wg))
        assert np.array_equal(got_g.data, naive_gcn_step(nodes, adj, wg))

        # readout through a one-hot assignment selects single entries
        rnodes = rng.integers(-5, 6, size=(5, 8)).astype(np.float64)
        proj = np.zeros((256, 8))
        proj[np.arange(256), rng.integers(0, 8, size=256)] = 1.0
        got_r = readout(Tensor(rnodes), Tensor(proj), (5, 16, 16))
        assert np.array_equal(got_r.data,
                              naive_readout(rnodes, proj, (16, 16)))

    # metrics over Pythagorean error fields; sums divide evenly
    gt = np.zeros((2, 4, 4))
    pred = np.zeros((2, 4, 4))
    legs = ((0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (5.0, 12.0))
    for p in range(16):
        pred[:, p // 4, p % 4] = legs[p % 4]
    valid = np.ones((4, 4), dtype=bool)
    assert epe(pred, FlowField(gt)) == naive_epe(pred, gt, valid) == 7.0
    assert f1_all(pred, FlowField(gt)) == naive_f1_all(pred, gt, valid) == 75.0
    mask = valid.copy()
    mask[:, :2] = False
    fgt = FlowField(gt, valid=mask)
    assert epe(pred, fgt) == naive_epe(pred, gt, mask) == 11.5
    assert f1_all(pred, fgt) == naive_f1_all(pred, gt, mask) == 100.0


@pytest.mark.slow
def test_criterion_05_small_scale_training_overfits(tmp_path):
    """2000 steps over 8 rendered pairs; takes several minutes."""
    manifest = gen_dataset(
        DatasetSpec(height=64, width=64, texture="smoothed-noise",
                    motion="affine", mag_min=0.5, mag_max=2.0,
                    seed=11, pairs=8),
        tmp_path / "data")
    cfg = RunConfig(feature_channels=64, context_channels=64, nodes=16,
                    refine_iters=6, lookup_radius=4, downsample=4,
                    graph="agr", seed=3, data=str(manifest),
                    out=str(tmp_path / "run"), steps=2000, peak_lr=4e-4,
                    weight_decay=1e-5, log_interval=100,
                    checkpoint_interval=1000)
    res = run_training(cfg)
    ratio = res.last_loss / res.first_loss
    assert ratio <= OVERFIT_RATIO, \
        f"loss {res.first_loss:.4f} -> {res.last_loss:.4f}, ratio {ratio:.4f}"
    ev = run_evaluation(cfg, res.checkpoint)
    assert ev.epe <= OVERFIT_EPE, f"train-set epe {ev.epe:.4f}"


def test_criterion_06_capacity_accounting_is_exact():
    for c, k in ((8, 4), (128, 128)):
        counts = {}
        for mode in ("base", "sgr", "agr"):
            block = GraphBlock(c, k, mode=mode)
            assert block.param_count() == analytic_param_count(c, k, mode)
            counts[mode] = block.param_count()
        assert counts["base"] < counts["sgr"] < counts["agr"]
        assert counts["agr"] - counts["sgr"] == adapter_param_count(c, k)
    big = {m: analytic_param_count(128, 128, m)
           for m in ("base", "sgr", "agr")}
    assert big == {"base": 32960, "sgr": 74274, "agr": 107298}
    delta = big["agr"] - big["base"]
    assert delta == 74338 and 50_000 <= delta <= 300_000
    # whole-model totals preserve the ordering and the adapter delta
    totals = {}
    for mode in ("base", "sgr", "agr"):
        cfg = ModelConfig(feature_channels=8, context_channels=8, nodes=4,
                          refine_iters=2, lookup_radius=2, graph=mode)
        totals[mode] = count_params(FlowModel(cfg))["total"]
    assert totals["base"] < totals["sgr"] < totals["agr"]
    assert totals["agr"] - totals["sgr"] == adapter_param_count(8, 4)


def test_criterion_07_node_count_sweep():
    sweep = (32, 64, 128, 256)
    for mode in ("base", "sgr", "agr"):
        counts = [analytic_param_count(32, k, mode) for k in sweep]
        assert counts == sorted(set(counts)), f"{mode} counts not increasing"
    with tt.precision(64):
        for k in sweep:
            for mode in ("base", "sgr", "agr"):
                assert GraphBlock(32, k, mode=mode).param_count() == \
                    analytic_param_count(32, k, mode)
            for seed in range(10):
                rng = np.random.default_rng(7000 + 13 * k + seed)
                block = GraphBlock(32, k, mode="agr", rng=rng)
                f_c = Tensor(rng.normal(size=(32, 8, 8)))
                f_m = Tensor(rng.normal(size=(32, 8, 8)))
                vc = block.embed_context(f_c)
                assert np.abs(vc.proj.data.sum(axis=1) - 1.0).max() \
                    <= PROJ_ROW_TOL
                plain = build_adjacency(vc.nodes).data
                assert np.array_equal(plain, plain.T)
                cache = block.context_stage(f_c)
                krows = cache["kernel"].data.sum(axis=1)
                assert np.abs(krows - 1.0).max() <= PROJ_ROW_TOL
                vm = block.embed_motion(f_m)
                assert np.abs(vm.proj.data.sum(axis=1) - 1.0).max() \
                    <= PROJ_ROW_TOL
                adapted = graph_adapter(vm.nodes, cache["kernel"],
                                        block.adapter_w, block.adapter_b).data
                eig_min = float(np.linalg.eigvalsh(adapted).min())
                assert eig_min >= PSD_FLOOR, f"K={k} seed {seed}: {eig_min:.2e}"
                out = block.forward(f_c, f_m, cache)
                assert out.shape == (64, 8, 8)
                assert np.isfinite(out.data).all()


def test_criterion_08_error_metrics():
    gt = np.zeros((2, 5, 5))
    pred = np.zeros((2, 5, 5))
    pred[0] = 3.0
    pred[1] = 4.0
    assert epe(pred, FlowField(gt)) == 5.0
    assert f1_all(pred, FlowField(gt)) == 100.0
    rng = np.random.default_rng(29)
    for _ in range(5):
        p = rng.normal(scale=3.0, size=(2, 7, 9))
        g = rng.normal(scale=3.0, size=(2, 7, 9))
        valid = rng.random((7, 9)) < 0.7
        valid[3, 4] = True
        ff = FlowField(g, valid=valid)
        assert abs(epe(p, ff) - naive_epe(p, g, valid)) < METRIC_ORACLE_TOL
        assert abs(f1_all(p, ff) - naive_f1_all(p, g, valid)) \
            < METRIC_ORACLE_TOL


def test_criterion_09_flow_files_survive_100_round_trips(tmp_path):
    rng = np.random.default_rng(41)
    for trial in range(100):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        flow = rng.normal(scale=5.0, size=(2, h, w)).astype(np.float32)
        mask = (rng.random((h, w)) < 0.8) if trial % 2 else None
        if mask is not None and not mask.any():
            mask[0, 0] = True
        first = tmp_path / f"t{trial}.flo"
        again = tmp_path / f"t{trial}b.flo"
        write_flo(first, FlowField(flow, valid=mask))
        back = read_flo(first)
        write_flo(again, back)
        assert first.read_bytes() == again.read_bytes(), f"trial {trial}"
        m = back.valid_mask()
        if mask is not None:
            assert np.array_equal(m, mask)
        assert np.array_equal(back.flow[:, m], flow[:, m])

    # a mangled magic number must abort the process with the data code
    good = tmp_path / "good.flo"
    write_flo(good, FlowField(np.zeros((2, 3, 3), dtype=np.float32)))
    blob = bytearray(good.read_bytes())
    blob[:4] = b"\x00\x00\x00\x00"
    bad = tmp_path / "bad.flo"
    bad.write_bytes(bytes(blob))
    proc = subprocess.run(
        [sys.executable, "-m", "graphflow", "viz", str(bad),
         str(tmp_path / "bad.ppm")],
        capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr


def test_criterion_10_training_is_reproducible_to_the_byte(tmp_path):
    manifest = gen_dataset(DatasetSpec(height=16, width=16, pairs=2, seed=4),
                           tmp_path / "data")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "feature_channels = 8\ncontext_channels = 8\nnodes = 4\n"
        "refine_iters = 2\nlookup_radius = 2\ndownsample = 4\n"
        "graph = agr\nseed = 5\nsteps = 6\nlog_interval = 2\n"
        "checkpoint_interval = 3\npeak_lr = 2e-4\n"
        f"data = {manifest}\n")
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "model.agfw").read_bytes() == (b / "model.agfw").read_bytes()
    assert (a / "train.tsv").read_bytes() == (b / "train.tsv").read_bytes()
    # resuming from the midpoint checkpoint lands on the same bytes
    resume_cfg = tmp_path / "resume.cfg"
    resume_cfg.write_text(cfg.read_text() +
                          f"resume = {a / 'step_000003.agfw'}\n")
    assert main(["train", "--config", str(resume_cfg),
                 "--out", str(tmp_path / "c")]) == 0
    assert (a / "model.agfw").read_bytes() == \
        (tmp_path / "c" / "model.agfw").read_bytes()
