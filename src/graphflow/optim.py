"""AdamW with decoupled weight decay and a one-cycle learning rate."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class AdamW:
    """Standard Adam moments plus weight decay applied directly to weights.

    Moment buffers are keyed by parameter name so they can be embedded
    in checkpoints and restored bit-exactly for resumed runs.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 4e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if not params:
            raise ContractError("optimizer needs at least one parameter")
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        if lr is not None:
            self.lr = lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    # -- checkpoint embedding ------------------------------------------------

    def state_entries(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name].copy()
            out[f"opt.v.{name}"] = self.v[name].copy()
        out["meta.adam_t"] = np.asarray([float(self.t)], dtype=np.float32)
        return out

    def load_state_entries(self, entries: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            for buf, key in ((self.m, f"opt.m.{name}"), (self.v, f"opt.v.{name}")):
                if key not in entries:
                    raise ContractError(f"checkpoint lacks optimizer entry {key!r}")
                arr = np.asarray(entries[key])
                if arr.shape != p.data.shape:
                    raise ContractError(
                        f"optimizer entry {key!r} extents {arr.shape} do not "
                        f"match parameter {p.data.shape}")
                buf[name] = arr.astype(p.data.dtype)
        if "meta.adam_t" not in entries:
            raise ContractError("checkpoint lacks the optimizer step counter")
        t = np.asarray(entries["meta.adam_t"])
        if t.shape != (1,) or not (t[0] >= 0 and float(t[0]).is_integer()):
            raise ContractError(
                f"checkpoint entry 'meta.adam_t' must hold one integral step "
                f"count >= 0, got {t.tolist()!r} (shape {t.shape})")
        self.t = int(t[0])


def one_cycle_lr(step: int, total_steps: int, peak_lr: float,
                 warmup_frac: float = 0.05) -> float:
    """Linear ramp to the peak, then linear anneal toward zero.

    ``step`` counts completed steps, so the first update uses a small
    positive rate rather than zero.
    """
    if total_steps < 1:
        raise ContractError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step < total_steps:
        raise ContractError(
            f"step {step} outside the schedule [0, {total_steps})")
    warmup = max(int(round(total_steps * warmup_frac)), 1)
    if step < warmup:
        return peak_lr * (step + 1) / warmup
    span = max(total_steps - warmup, 1)
    frac = (step - warmup) / span
    return peak_lr * max(1.0 - frac, 1.0 / span)
