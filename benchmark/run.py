"""End-to-end benchmark of graphflow's training and evaluation loops.

Run from the repository root:

    python3 benchmark/run.py --workload train-64 --seed 1 --seconds 38 --trace 0

Each workload drives ``train.run_training`` or ``train.run_evaluation``
in closed loop (one client; each step starts when the previous one
ends) over a dataset rendered from ``--seed``, in rounds of whole runs,
until ``--seconds`` are spent. Step boundaries come from the loops' own
``progress`` callback (``log_interval = 1``), so the program is timed
from outside and runs unmodified. ``--trace 1`` splits the time into an
untraced half and a half traced with spans around each layer's public
functions (see spans.py), and reports per-layer metrics.

Lines before the last are a human-readable report: the environment,
every output gate, and every metric with its unit. The last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every gate passed; 2 means
the benchmark could not start (bad arguments, no graphflow sources).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_SEED = 3            # criterion 5's model seed
PAIRS = 8
TRAIN_STEPS = 16          # two passes over the pairs; step 0 is warm-up
GRAD_REL_STEP = 1e-3      # finite-difference step, as a share of the loss
GRAD_AGREEMENT_MIN = 0.95
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# Model shape per workload; all use 6 refinement iterations, radius 4
# and the agr graph stage, over 8 affine pairs (criterion 5's family).
WORKLOADS = {
    "train-64": dict(kind="train", size=64, channels=64, nodes=16),
    "eval-64": dict(kind="eval", size=64, channels=64, nodes=16),
    "train-32-narrow": dict(kind="train", size=32, channels=16, nodes=8),
}


class ReferenceKernel:
    """A fixed numpy workload timed right after every step.

    It does the three kinds of work a step does: a conv-sized GEMM, a
    lookup-sized gather and elementwise math. The machine's speed moves
    step time and reference time alike, so their ratio follows the
    program and not the machine.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(64, 576)).astype(np.float32)
        self.b = rng.normal(size=(576, 256)).astype(np.float32)
        self.vol = rng.normal(size=256 * 16 * 16).astype(np.float32)
        self.idx = rng.integers(0, self.vol.size, size=256 * 81)
        self.x = rng.normal(size=(64, 256)).astype(np.float32)
        self.np = np

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(4):
            self.a @ self.b
            self.vol[self.idx]
            self.np.tanh(self.x) * self.x + 1.0
        return perf_counter() - start


@dataclass
class Round:
    """One call into run_training or run_evaluation.

    The progress callback marks the end of each step, runs the reference
    kernel and resumes the loop; the next step is timed from there.
    """

    entry: float
    marks: list = field(default_factory=list)     # step ends
    resumes: list = field(default_factory=list)   # after the reference kernel
    refs: list = field(default_factory=list)      # reference kernel seconds
    exit: float = 0.0
    first_trace_id: int = 0
    digest: str = ""
    losses: list = field(default_factory=list)
    error: str | None = None

    @property
    def setup_s(self) -> float:
        return self.marks[0] - self.entry

    def step_durations(self) -> dict[int, float]:
        """Seconds per timed step (every step after the warm-up), by trace id."""
        return {self.first_trace_id + j: self.marks[j] - self.resumes[j - 1]
                for j in range(1, len(self.marks))}

    def step_ratios(self) -> list[float]:
        """Each timed step over the reference kernel timed right after it."""
        return [(self.marks[j] - self.resumes[j - 1]) / self.refs[j]
                for j in range(1, len(self.marks))]

    @property
    def wall_s(self) -> float:
        return self.exit - self.entry - sum(self.refs)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        from graphflow.checkpoint import save_checkpoint
        from graphflow.config import RunConfig
        from graphflow.data import DatasetSpec, gen_dataset
        from graphflow.model import FlowModel
        from graphflow.tensor import precision

        spec = WORKLOADS[name]
        self.kind = spec["kind"]
        self.size = spec["size"]
        self.manifest = gen_dataset(
            DatasetSpec(height=spec["size"], width=spec["size"],
                        texture="smoothed-noise", motion="affine",
                        mag_min=0.5, mag_max=2.0, seed=seed, pairs=PAIRS),
            work / "data")
        self.out = work / "run"
        self.cfg = RunConfig(
            feature_channels=spec["channels"], context_channels=spec["channels"],
            nodes=spec["nodes"], refine_iters=6, lookup_radius=4, downsample=4,
            graph="agr", seed=MODEL_SEED, threads=1, data=str(self.manifest),
            out=str(self.out), steps=TRAIN_STEPS, peak_lr=4e-4,
            weight_decay=1e-5, log_interval=1, checkpoint_interval=10 ** 6)
        self.weights = work / "fresh.agfw"
        self.reference = ReferenceKernel()
        if self.kind == "eval":
            with precision(self.cfg.precision):
                save_checkpoint(self.weights, FlowModel(self.cfg.model()).state())

    def run_round(self, recorder) -> Round:
        from graphflow import train

        gc.collect()
        if recorder is not None:
            recorder.trace_id += 1
        rnd = Round(entry=0.0, first_trace_id=recorder.trace_id if recorder else 0)

        def progress(_line):
            rnd.marks.append(perf_counter())
            if recorder is not None:
                if recorder.open_spans():
                    raise RuntimeError("a span is open across a step boundary")
                recorder.trace_id += 1
            rnd.refs.append(self.reference())
            rnd.resumes.append(perf_counter())

        rnd.entry = perf_counter()
        try:
            if self.kind == "train":
                result = train.run_training(self.cfg, progress=progress)
                rnd.exit = perf_counter()
                rnd.losses = [row[1] for row in result.log_rows]
                rnd.digest = _digest(self.out / "train.tsv",
                                     self.out / "model.agfw")
            else:
                train.run_evaluation(self.cfg, self.weights, progress=progress)
                rnd.exit = perf_counter()
                rnd.digest = _digest(self.out / "eval.tsv")
        except Exception:   # a failing step must be counted, not crash the run
            rnd.exit = perf_counter()
            rnd.error = traceback.format_exc()
            print(rnd.error, file=sys.stderr)
        return rnd

    def run_phase(self, budget_s: float, recorder=None):
        """Whole rounds while at least half of the next one fits the budget.

        At least two rounds run, so the outputs of two rounds can be compared.
        """
        rounds = []
        start = perf_counter()
        while True:
            rounds.append(self.run_round(recorder))
            if rounds[-1].error:
                break
            elapsed = perf_counter() - start
            if (len(rounds) >= 2
                    and elapsed * (len(rounds) + 0.5) / len(rounds) > budget_s):
                break
        return rounds

    def grad_agreement(self) -> float:
        """Central finite difference of the loss along its own gradient,
        over the analytic directional derivative, folded into (0, 1].

        1.0 means the backward pass agrees with the forward pass. A wrong
        gradient rule moves the ratio away from 1 on every seed.
        """
        import numpy as np

        from graphflow.model import FlowModel, sequence_loss
        from graphflow.tensor import no_grad, precision
        from graphflow.train import load_pairs

        _, frame1, frame2, gt = load_pairs(self.manifest)[0]
        with precision(self.cfg.precision):
            model = FlowModel(self.cfg.model())
            loss = sequence_loss(model.forward(frame2, frame1), gt)
            loss.backward()
            base = {n: p.data for n, p in model.params.items()}
            grad = {n: p.grad for n, p in model.params.items()}
            g2 = sum(float(np.sum(g.astype(np.float64) ** 2))
                     for g in grad.values())
            eps = GRAD_REL_STEP * float(loss.data) / g2

            def loss_at(sign):
                for n, p in model.params.items():
                    p.data = (base[n] + sign * eps * grad[n]).astype(base[n].dtype)
                with no_grad():
                    return float(sequence_loss(model.forward(frame2, frame1),
                                               gt).data)

            ratio = (loss_at(1) - loss_at(-1)) / (2 * eps * g2)
        if not math.isfinite(ratio) or ratio <= 0:
            return 0.0
        return min(ratio, 1.0 / ratio)

    def eval_rows_consistent(self) -> bool:
        """eval.tsv has one row per pair, and its 'all' row is their
        pixel-weighted mean (to the 4 printed decimals)."""
        lines = (self.out / "eval.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        if len(rows) != PAIRS + 1 or rows[-1][0] != "all":
            return False
        pixels = [int(r[3]) for r in rows[:-1]]
        for col in (1, 2):
            vals = [float(r[col]) for r in rows[:-1]]
            if not all(math.isfinite(v) for v in vals):
                return False
            mean = sum(v * n for v, n in zip(vals, pixels)) / sum(pixels)
            if abs(mean - float(rows[-1][col])) > 2e-4 * max(1.0, abs(mean)):
                return False
        return int(rows[-1][3]) == sum(pixels)


# -- reporting ---------------------------------------------------------------


def loss_ratio(losses: list) -> float:
    """Mean loss of the second pass over the pairs over that of the first."""
    first, last = losses[:PAIRS], losses[PAIRS:2 * PAIRS]
    return (sum(last) / len(last)) / (sum(first) / len(first))


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(rounds: list) -> dict:
    """The end-to-end figures of one phase.

    ``pairs_per_s`` counts every pair over the rounds' whole wall time,
    set-up and saving included. The ``step_ref`` figures are step times
    in units of the reference kernel: on a shared machine whose speed
    drifts by a fifth over tens of seconds they stay steady where the
    millisecond figures do not.
    """
    ok = [r for r in rounds if not r.error]
    steps = [d for r in ok for d in r.step_durations().values()]
    ratios = [q for r in ok for q in r.step_ratios()]
    return {
        "pairs_per_s": sum(len(r.marks) for r in ok) / sum(r.wall_s for r in ok),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * percentile(steps, 90),
        "step_ref_p50": statistics.median(ratios),
        "step_ref_p90": percentile(ratios, 90),
        "reference_ms_p50": 1e3 * statistics.median(
            t for r in ok for t in r.refs),
        "setup_s": statistics.median(r.setup_s for r in ok),
        "samples": len(steps),
        "rounds": len(ok),
    }


def environment(seed: int) -> dict:
    import numpy as np

    env = {"numpy": np.__version__,
           "python": platform.python_version(),
           "nproc": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)),
           "blas_thread_caps": {v: os.environ.get(v, "") for v in BLAS_VARS},
           "data_seed": seed,
           "model_seed": MODEL_SEED}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads_in_effect"] = _openblas_threads(np)
    try:
        ceiling = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=ceiling,
                             capture_output=True, text=True, timeout=10)
        env["git_revision"] = rev.stdout.strip() if rev.returncode == 0 \
            else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        env["git_revision"] = "unknown (git unavailable)"
    return env


def _openblas_threads(np) -> str:
    """Ask the OpenBLAS bundled with numpy for its thread count."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from graphflow.counting import count_flops
    from spans import SpanRecorder

    work = ROOT / ".benchwork" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"benchmark {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    for key, value in environment(seed).items():
        print(f"env {key} {value}")

    wl = Workload(name, seed, work)
    budget = seconds / 2 if trace else seconds
    plain = wl.run_phase(budget)
    rss = peak_rss_mb()
    traced, recorder = [], None
    if trace and not plain[-1].error:
        recorder = SpanRecorder()
        with recorder.installed():
            traced = wl.run_phase(budget, recorder)
        recorder.write(ROOT / ".benchwork" / f"{name}.spans.jsonl")
    rounds = plain + traced
    try:
        agreement = wl.grad_agreement()
    except Exception:   # a broken backward fails the gate, not the report
        traceback.print_exc()
        agreement = 0.0

    gates = {}
    completed = [r for r in rounds if not r.error]
    gates["rounds_complete"] = len(completed) == len(rounds)
    gates["outputs_identical"] = (bool(completed)
                                  and len({r.digest for r in completed}) == 1)
    if wl.kind == "train":
        gates["losses_finite"] = bool(completed) and all(
            math.isfinite(v) for r in completed for v in r.losses)
        ratio = loss_ratio(completed[0].losses) if completed else math.nan
        gates["loss_decreases"] = ratio < 1.0
    else:
        gates["eval_rows_consistent"] = bool(completed) and wl.eval_rows_consistent()
        if recorder is not None:
            gates["no_backward_span"] = not any(
                s[0] == "tensor.backward" for s in recorder.spans)
    gates["grad_agreement"] = agreement >= GRAD_AGREEMENT_MIN
    for gate, passed in gates.items():
        print(f"gate {gate} {'pass' if passed else 'FAIL'}")

    steps_attempted = sum(len(r.marks) + bool(r.error) for r in rounds)
    failed = sum(bool(r.error) for r in rounds) + sum(not g for g in gates.values())
    attempted = steps_attempted + len(gates)
    correct = failed == 0

    # The JSON result carries the steady end-to-end figures; the
    # millisecond and throughput figures follow the machine's drift, so
    # they are printed for reading but not compared between commits.
    report = {}
    e2e_names = ["step_ref_p50", "step_ref_p90", "setup_s", "peak_rss_mb",
                 "grad_agreement"]
    if completed and not plain[-1].error:
        e2e = end_to_end(plain)
        print(f"samples {e2e['samples']} timed steps over {e2e['rounds']} rounds"
              f" (untraced)")
        report.update({
            "step_ref_p50": (e2e["step_ref_p50"], "ref"),
            "step_ref_p90": (e2e["step_ref_p90"], "ref"),
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (rss, "MB"),
            "grad_agreement": (agreement, "ratio"),
            "pairs_per_s": (e2e["pairs_per_s"], "pairs/s"),
            "step_ms_p50": (e2e["step_ms_p50"], "ms"),
            "step_ms_p90": (e2e["step_ms_p90"], "ms"),
            "reference_ms_p50": (e2e["reference_ms_p50"], "ms"),
        })
    report["fail_ratio"] = (failed / attempted, "failed/attempted")
    if wl.kind == "train" and completed:
        report["loss_ratio"] = (ratio, "last/first")

    layer_names = []
    if recorder is not None and traced and not traced[-1].error:
        steps = {}
        for r in traced:
            steps.update(r.step_durations())
        layers = recorder.summarize(steps, len(traced))
        t_e2e = end_to_end(traced)
        layers["trace_overhead_pct"] = 100.0 * (
            t_e2e["step_ref_p50"] / report["step_ref_p50"][0] - 1.0)
        flops = count_flops(wl.cfg.model(), wl.size, wl.size)["total"]
        layers["counting.total.gflop"] = flops / 1e9
        print(f"samples {t_e2e['samples']} timed steps over {t_e2e['rounds']}"
              f" rounds (traced)")
        print(f"work tensor.conv2d.gflop {layers['tensor.conv2d.gflop']:.4f} "
              f"per step vs counting total {flops / 1e9:.4f} per forward pass "
              f"(ratio {layers['tensor.conv2d.gflop'] * 1e9 / flops:.3f})")
        for key, value in layers.items():
            report[key] = (value, layer_unit(key))
        layer_names = list(layers)
    for key, (value, unit) in report.items():
        print(f"metric {key} {value!r} {unit}")

    names = layer_names if trace else e2e_names
    metrics = {k: {"value": report[k][0], "unit": report[k][1]}
               for k in names if k in report}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


def layer_unit(key: str) -> str:
    for suffix, unit in ((".ms", "ms"), (".calls", "count"), (".gflops", "GFLOP/s"),
                         (".gflop", "GFLOP"), ("_pct", "%")):
        if key.endswith(suffix):
            return unit
    raise KeyError(key)


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread, as the CLI pins it; must precede the numpy import.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import graphflow  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import graphflow from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
