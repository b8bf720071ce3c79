"""AdamW with decoupled weight decay and a one-cycle learning rate.

The optimizer owns its parameters' storage. At construction every
parameter's values move into one flat buffer, and each ``p.data``
becomes a view into it, in the parameter's own memory order (a conv
weight stays tap-major), that later writes must fill in place. A resume
builds the model from its checkpoint first, so the loaded weights are
what move in, and ``load_state_entries`` then fills the moments, flat
buffers of the same layout. A step first checks every parameter and
raises before anything moves: ``ContractError`` for one rebound off its
view, ``NumericError`` for a non-finite gradient or one with an entry
whose square overflows, which would make its second moment infinite
and freeze that weight (the training loop's gradient check: one BLAS
sum of squares per gradient, and elementwise passes only when that sum
is not finite). It then
reads each gradient once into scratch laid out in each parameter's
memory order and runs the update over spans of consecutive parameters,
so the ufunc sequence is the per-parameter one, element for element,
and bitwise equal to it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Tensor

# Consecutive parameters are updated together in spans of at most this
# many elements (a larger parameter is a span of its own), so the
# update's passes stay in cache and its scratch stays small.
GROUP_ELEMENTS = 1 << 16

BETA1, BETA2 = 0.9, 0.999       # moment decay rates
EPS = 1e-8                      # denominator floor


def _memory_order(a: np.ndarray) -> tuple[tuple, tuple]:
    """(storage extents, axes) such that a C-ordered buffer of the storage
    extents, transposed by ``axes``, has ``a``'s extents and memory order."""
    order = sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))
    return (tuple(a.shape[i] for i in order),
            tuple(order.index(i) for i in range(a.ndim)))


class AdamW:
    """Standard Adam moments plus weight decay applied directly to weights.

    ``m`` and ``v`` map each parameter name to its view of the moment
    buffers, so they can be embedded in checkpoints and restored
    bit-exactly for resumed runs.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 4e-4,
                 weight_decay: float = 0.0):
        if not params:
            raise ContractError("optimizer needs at least one parameter")
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) != 1:
            raise ContractError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        total = sum(p.data.size for p in self.params.values())
        self._flat = np.empty(total, dtype=dtypes.pop())
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # slots: (name, parameter, its view of the flat buffer, offset,
        # storage extents, axes), the last two its memory order
        self._groups: list[list[tuple]] = [[]]
        group_size = 0
        off = 0
        for name, p in self.params.items():
            size = p.data.size
            storage, axes = _memory_order(p.data)
            view, self.m[name], self.v[name] = (
                buf[off:off + size].reshape(storage).transpose(axes)
                for buf in (self._flat, self._m, self._v))
            view[...] = p.data
            p.data = view
            if group_size and group_size + size > GROUP_ELEMENTS:
                self._groups.append([])
                group_size = 0
            self._groups[-1].append((name, p, view, off, storage, axes))
            group_size += size
            off += size
        self._span = max(sum(slot[2].size for slot in group)
                         for group in self._groups)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        """One update of every parameter that holds a gradient."""
        # a finite gradient's sum of squares can overflow, so a sum that
        # is not finite is settled elementwise
        with np.errstate(over="ignore"):
            for group in self._groups:
                for name, p, view, *_ in group:
                    if p.data is not view:
                        raise ContractError(
                            f"parameter {name} was rebound off the optimizer's "
                            f"buffer; write into p.data in place instead")
                    if p.grad is None:
                        continue
                    flat = np.ravel(p.grad, order="K")
                    if np.isfinite(np.dot(flat, flat)):
                        continue
                    if not np.isfinite(flat).all():
                        raise NumericError(f"gradient of {name} became "
                                           f"non-finite at step {self.t}")
                    # an entry whose square overflows makes its v inf,
                    # and the update then leaves that weight frozen
                    if not np.isfinite(flat * flat).all():
                        raise NumericError(
                            f"gradient of {name} has an entry whose square "
                            f"overflows {flat.dtype} at step {self.t}")
        if lr is not None:
            self.lr = lr
        self.t += 1
        # allocated per step, after backward has freed the tape, so the
        # scratch never adds to peak memory
        scratch = np.empty((2, self._span), dtype=self._flat.dtype)
        for group in self._groups:
            run: list[tuple] = []
            for slot in group:
                if slot[1].grad is None:
                    self._update(run, scratch)
                    run = []
                else:
                    run.append(slot)
            self._update(run, scratch)

    def _update(self, run: list, scratch: np.ndarray) -> None:
        """AdamW over the span of consecutive parameters in ``run``."""
        if not run:
            return
        lo = run[0][3]
        hi = run[-1][3] + run[-1][2].size
        g, t = scratch[0, :hi - lo], scratch[1, :hi - lo]
        for _, p, view, off, storage, axes in run:
            np.copyto(g[off - lo:off - lo + view.size].reshape(storage)
                      .transpose(axes), p.grad)
        b1, b2 = BETA1, BETA2
        m, v, w = self._m[lo:hi], self._v[lo:hi], self._flat[lo:hi]
        m *= b1
        np.multiply(g, 1.0 - b1, out=t)
        m += t
        v *= b2
        np.multiply(g, g, out=g)
        g *= 1.0 - b2
        v += g
        # update = (m / bias1) / (sqrt(v / bias2) + eps), built in g
        np.divide(v, 1.0 - b2 ** self.t, out=t)
        np.sqrt(t, out=t)
        t += EPS
        np.divide(m, 1.0 - b1 ** self.t, out=g)
        g /= t
        if self.weight_decay:
            np.multiply(w, self.weight_decay, out=t)
            g += t
        g *= self.lr
        w -= g

    # -- checkpoint embedding ------------------------------------------------

    def state_entries(self) -> dict[str, np.ndarray]:
        """Live views of the moment buffers: serialize before the next step."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
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
                buf[name][...] = arr
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
