"""In-memory span recorder wrapped around graphflow's public functions.

Nothing inside the package changes: :meth:`SpanRecorder.installed`
swaps each traced attribute for a wrapper that records a span, and
puts the original back on exit. A span is ``(name, start, end, parent,
trace_id, work)``: times from ``perf_counter``, ``parent`` the index of
the enclosing span or -1, ``trace_id`` the step it ran in, and ``work``
the floating-point operations of a conv call (0 elsewhere).
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute owner, attribute, span name). The owner is a class
# name or None for a module-level function. Functions are patched where
# the caller looks them up: run_training and run_evaluation resolve
# their helpers in graphflow.train, and Conv2d resolves conv2d in
# graphflow.layers.
TRACED = (
    ("graphflow.train", None, "load_pairs", "train.load_pairs"),
    ("graphflow.train", None, "load_checkpoint", "checkpoint.load"),
    ("graphflow.train", None, "save_checkpoint", "checkpoint.save"),
    ("graphflow.train", None, "sequence_loss", "model.sequence_loss"),
    ("graphflow.train", None, "epe", "data.metrics"),
    ("graphflow.train", None, "f1_all", "data.metrics"),
    ("graphflow.model", "FlowModel", "encode_features", "model.encode_features"),
    ("graphflow.model", "FlowModel", "encode_context", "model.encode_context"),
    ("graphflow.model", None, "build_corr_pyramid", "model.build_corr_pyramid"),
    ("graphflow.model", None, "lookup", "model.lookup"),
    ("graphflow.model", "MotionEncoder", "__call__", "model.motion"),
    ("graphflow.model", "ConvGRU", "initial_state", "model.gru"),
    ("graphflow.model", "ConvGRU", "__call__", "model.gru"),
    ("graphflow.model", "FlowHead", "__call__", "model.head"),
    ("graphflow.model", None, "upsample_flow", "model.upsample_flow"),
    ("graphflow.graph", "GraphBlock", "context_stage", "graph.context_stage"),
    ("graphflow.graph", "GraphBlock", "forward", "graph.forward"),
    ("graphflow.layers", None, "conv2d", "tensor.conv2d"),
    ("graphflow.tensor", "Tensor", "backward", "tensor.backward"),
    ("graphflow.optim", "AdamW", "step", "optim.step"),
)

# Spans that run once per round, outside the timed steps.
ROUND_SPANS = ("train.load_pairs", "checkpoint.load", "checkpoint.save")
STEP_SPANS = tuple(sorted({name for *_, name in TRACED} - set(ROUND_SPANS)))


def _conv_flops(args, out) -> int:
    """2 * MACs of one conv2d call, from its weight and output shapes."""
    _, cin, k, _ = args[1].shape
    return 2 * cin * k * k * out.data.size


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self.trace_id = 0
        self._stack: list[int] = []

    def open_spans(self) -> int:
        return len(self._stack)

    def _wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                flops = work(args, out) if work and out is not None else 0
                spans[idx] = (name, start, end, parent, self.trace_id, flops)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        import importlib
        saved = []
        try:
            for module_name, owner_name, attr, name in TRACED:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                work = _conv_flops if name == "tensor.conv2d" else None
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "trace_id", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summarize(self, timed_steps: dict[int, float], rounds: int) -> dict:
        """Per-layer self time, calls and work.

        ``timed_steps`` maps each timed step's trace id to its duration
        in seconds. Step layers are reported as means per timed step,
        the round layers of ROUND_SPANS as means per round.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        round_s = defaultdict(float)
        top_s = defaultdict(float)
        for i, (name, start, end, parent, tid, flops) in enumerate(self.spans):
            if name in ROUND_SPANS:
                round_s[name] += end - start - child[i]
            if tid not in timed_steps:
                continue
            self_s[name] += end - start - child[i]
            calls[name] += 1
            work[name] += flops
            if parent < 0:
                top_s[tid] += end - start
        n = max(len(timed_steps), 1)
        step_total = sum(timed_steps.values())
        unattributed = sum(dur - top_s[tid] for tid, dur in timed_steps.items())
        out = {f"{name}.ms": 1e3 * self_s[name] / n for name in STEP_SPANS}
        for name in ROUND_SPANS:
            out[f"{name}.ms"] = 1e3 * round_s[name] / max(rounds, 1)
        for name in ("tensor.conv2d", "model.lookup"):
            out[f"{name}.calls"] = calls[name] / n
        conv_flops = work["tensor.conv2d"]
        out["tensor.conv2d.gflop"] = conv_flops / n / 1e9
        conv_s = self_s["tensor.conv2d"]
        out["tensor.conv2d.gflops"] = conv_flops / conv_s / 1e9 if conv_s else 0.0
        out["unattributed.ms"] = 1e3 * unattributed / n
        out["unattributed_pct"] = (100.0 * unattributed / step_total
                                   if step_total else 0.0)
        return out
