"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps an ``ndarray`` plus an optional gradient. Operations
build a DAG of closures; ``Tensor.backward()`` walks it once in reverse
topological order and accumulates ``grad`` on every node that requires
it. The engine is deliberately small: only the operations the flow
model needs exist, and each one validates its shapes eagerly so errors
surface at the call site rather than deep inside a backward pass.

Every op takes Tensors only; nothing coerces arrays or Python
scalars. A constant operand is a Tensor the caller builds, such as
``Tensor(1.0, dtype=x.dtype)``, and a fixed multiplier goes through
``scale``.

The gradient contract: no gradient is ever written in place, so an op
hands its arrays over without copying them. Leaf gradients are
read-only and may share memory with one another (``add`` gives both
parents the same array). ``backward()`` consumes the graph as it
walks it: after it returns, interior nodes hold no gradient and no
closure, so the tape's buffers are freed, and a graph supports one
``backward()``.

New tensors are float32 unless the ``precision`` context manager
switches the width to 64 bit. Mixed-precision arithmetic is rejected:
silently upcasting float32 parameters against float64 constants is a
bug far more often than a feature.

``add`` and ``mul`` broadcast by numpy's rule: ranks are aligned on the
right and any unit extent stretches to match. The backward pass sums
the gradient over every stretched axis, leading or trailing.

``conv2d`` builds its im2col columns with one strided slice copy per
kernel tap, and copies the map into a padded buffer only when the
padding is nonzero. At stride 1 the tape keeps no columns: both
gradients come from one im2col of the output gradient. Strided convs
keep their columns and scatter the column gradient back tap by tap.

The correlation lookup's op, ``window_sample``, gathers one integer
window per pixel and pyramid level from a zero-padded copy of the
level, then blends it once with that pixel's four bilinear weights.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

_DTYPES = {32: np.float32, 64: np.float64}
_default_dtype = np.float32
_grad_enabled = True


@contextlib.contextmanager
def precision(bits: int):
    """Temporarily switch the default float width."""
    if bits not in _DTYPES:
        raise ContractError(f"precision must be 32 or 64, got {bits}")
    global _default_dtype
    prev = _default_dtype
    _default_dtype = _DTYPES[bits]
    try:
        yield
    finally:
        _default_dtype = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph construction; forward values only."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    """Common shape of two operands under numpy broadcasting."""
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise DimensionError(f"cannot broadcast shapes {sa} and {sb}") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    aligned = (1,) * lead + shape
    axes = tuple(i for i in range(g.ndim) if aligned[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- gradient machinery --------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        # never in place: g may be shared with another node or be a view
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``grad``.

        Only scalar roots are accepted. The walk consumes the graph: each
        node's closure and parents are dropped once it has run, and so is
        the gradient of every interior node but the root.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar root, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward() on a tensor that requires no grad")
        if self._backward is None:
            raise ContractError(
                "backward() needs an op result: this root is a leaf, or its "
                "graph was consumed by an earlier backward()")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents))]
        seen.add(id(self))
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                order.append(node)
                stack.pop()
            elif id(nxt) not in seen and nxt.requires_grad:
                seen.add(id(nxt))
                stack.append((nxt, iter(nxt._parents)))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents = None, ()
                if node is not self:
                    node.grad = None


def _check_same_dtype(*ts: Tensor) -> None:
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise ContractError(f"dtype mismatch: {d0} vs {t.data.dtype}")


# -- elementwise and structural ops ------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out_data = x.data * s

    def backward(g):
        x._accum(g * s)

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g):
        x._accum(g * (x.data > 0))

    return Tensor._from_op(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    # split on sign so exp never overflows
    e = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out_data = out_data.astype(d.dtype, copy=False)

    def backward(g):
        x._accum(g * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        x._accum(g * (1.0 - out_data * out_data))

    return Tensor._from_op(out_data, (x,), backward)


def absolute(x: Tensor) -> Tensor:
    out_data = np.abs(x.data)

    def backward(g):
        x._accum(g * np.sign(x.data))

    return Tensor._from_op(out_data, (x,), backward)


def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(a % ndim for a in axis)
    if len(set(axes)) != len(axes):
        raise ContractError(f"duplicate axes in {axis}")
    for a in axes:
        if not 0 <= a < ndim:
            raise DimensionError(f"axis {a} out of range for rank {ndim}")
    return axes


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    out_data = x.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        gg = g
        if not keepdims:
            for a in sorted(axes):
                gg = np.expand_dims(gg, a)
        x._accum(np.broadcast_to(gg, x.shape))

    return Tensor._from_op(out_data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = x.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}: {e}") from None

    def backward(g):
        x._accum(g.reshape(x.shape))

    return Tensor._from_op(out_data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    """Reverse the axes; the gradient is reversed back."""
    out_data = np.transpose(x.data)

    def backward(g):
        x._accum(np.transpose(g))

    return Tensor._from_op(out_data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ContractError("concat of an empty sequence")
    _check_same_dtype(*ts)
    ndim = ts[0].data.ndim
    axis = axis % ndim
    for t in ts[1:]:
        if t.data.ndim != ndim:
            raise DimensionError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        for a in range(ndim):
            if a != axis and t.shape[a] != ts[0].shape[a]:
                raise DimensionError(
                    f"concat extent mismatch on axis {a}: {ts[0].shape} vs {t.shape}"
                )
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def backward(g):
        start = 0
        for t, size in zip(ts, sizes):
            if t.requires_grad:
                idx = [slice(None)] * ndim
                idx[axis] = slice(start, start + size)
                t._accum(g[tuple(idx)])
            start += size

    return Tensor._from_op(out_data, tuple(ts), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul needs rank-2 operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._from_op(out_data, (a, b), backward)


def softmax(x: Tensor, axis: int) -> Tensor:
    axis = axis % x.data.ndim
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accum(out_data * (g - dot))

    return Tensor._from_op(out_data, (x,), backward)


def l2_normalize(x: Tensor, axis: int = 0, eps: float = 1e-12) -> Tensor:
    """x / max(||x||_2, eps) along one axis."""
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    axis = axis % x.data.ndim
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    out_data = x.data / denom

    def backward(g):
        dot = (g * x.data).sum(axis=axis, keepdims=True)
        live = (norm > eps)
        safe = np.where(live, norm, 1.0)
        x._accum(g / denom - np.where(live, x.data * dot / (safe * denom * denom), 0.0))

    return Tensor._from_op(out_data, (x,), backward)


# -- convolution and pooling -------------------------------------------------


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """Copy of a (C, H, W) map inside a zeroed (C, H+2p, W+2p) buffer."""
    c, h, w = a.shape
    out = np.zeros((c, h + 2 * p, w + 2 * p), dtype=a.dtype)
    out[:, p:p + h, p:p + w] = a
    return out


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Columns (C*k*k, ho*wo) of a padded (C, H, W) map.

    Row (c, ki, kj) holds xp[c, ki + stride*y, kj + stride*x] for every
    output pixel (y, x). Each tap is one strided slice copy; a 1x1
    stride-1 conv reads the map itself through a reshape.
    """
    c = xp.shape[0]
    if k == 1 and stride == 1:
        return xp.reshape(c, ho * wo)
    cols = np.empty((c, k, k, ho, wo), dtype=xp.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = xp[:, ki:ki + stride * ho:stride,
                                 kj:kj + stride * wo:stride]
    return cols.reshape(c * k * k, ho * wo)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of one (C_in, H, W) map with (C_out, C_in, k, k).

    Output extents use floor semantics: (H + 2p - k)//stride + 1. The
    forward runs as im2col plus one GEMM; the map is copied into a
    zeroed padded buffer only when padding > 0. At stride 1 the tape
    keeps no columns: the output gradient, padded by k - 1 - p (cropped
    when that is negative), goes through the same im2col, and its GEMMs
    with the flipped kernel and with the input map give the input
    gradient (a transposed conv) and the flipped weight gradient. At
    stride > 1 the columns are kept for the weight gradient, and the
    input gradient re-scatters the column gradient with k*k strided
    slice additions: a transposed conv there would multiply by the
    zeros of a gradient dilated by the stride, stride**2 times the FLOPs.
    """
    _check_same_dtype(x, w)
    if x.data.ndim != 3:
        raise DimensionError(f"conv2d input must be (C,H,W), got {x.shape}")
    if w.data.ndim != 4:
        raise DimensionError(f"conv2d weight must be (O,I,k,k), got {w.shape}")
    cout, cin, kh, kw = w.shape
    if kh != kw:
        raise DimensionError(f"conv2d kernel must be square, got {kh}x{kw}")
    if kh % 2 != 1:
        raise DimensionError(f"conv2d kernel extent must be odd, got {kh}")
    if cin != x.shape[0]:
        raise DimensionError(
            f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    if stride < 1 or padding < 0:
        raise ContractError(f"bad stride/padding: {stride}/{padding}")
    if bias is not None:
        _check_same_dtype(x, bias)
        if bias.shape != (cout,):
            raise DimensionError(f"conv2d bias must be ({cout},), got {bias.shape}")

    _, h, wd = x.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise DimensionError(
            f"conv2d output would be empty for input {x.shape}, "
            f"kernel {kh}, stride {stride}, padding {padding}"
        )

    xp = _pad(x.data, padding) if padding else x.data
    cols = _im2col(xp, kh, stride, ho, wo)
    wm = w.data.reshape(cout, cin * kh * kw)
    out = wm @ cols
    if stride == 1:
        del cols                       # backward works from the gradient's im2col
    if bias is not None:
        out += bias.data[:, None]
    out_data = out.reshape(cout, ho, wo)
    parents = (x, w) if bias is None else (x, w, bias)

    def backward(g):
        gm = g.reshape(cout, ho * wo)
        if bias is not None and bias.requires_grad:
            bias._accum(gm.sum(axis=1))
        if stride == 1:
            q = kh - 1 - padding
            gp = _pad(g, q) if q > 0 else g[:, -q:ho + q, -q:wo + q]
            gcols = _im2col(gp, kh, 1, h, wd)
            if w.requires_grad:
                dw = (gcols @ x.data.reshape(cin, h * wd).T).reshape(cout, kh, kw, cin)
                w._accum(dw[:, ::-1, ::-1].transpose(0, 3, 1, 2))
            if x.requires_grad:
                wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
                x._accum((wf @ gcols).reshape(x.shape))
            return
        if w.requires_grad:
            w._accum((gm @ cols.T).reshape(w.shape))
        if x.requires_grad:
            dwin = (wm.T @ gm).reshape(cin, kh, kw, ho, wo)
            dxp = np.zeros((cin, hp, wp), dtype=g.dtype)
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, ki:ki + stride * ho:stride,
                        kj:kj + stride * wo:stride] += dwin[:, ki, kj]
            x._accum(dxp[:, padding:padding + h, padding:padding + wd])

    return Tensor._from_op(out_data, parents, backward)


def avg_pool2x2(x: Tensor) -> Tensor:
    """2x2 stride-2 average pooling with ceil extents.

    Edge windows that fall off the map average only the cells that
    exist, so a constant input stays constant at every level.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"avg_pool2x2 input must be (C,H,W), got {x.shape}")
    c, h, wd = x.shape
    ho, wo = (h + 1) // 2, (wd + 1) // 2
    hp, wp = 2 * ho, 2 * wo
    xp = x.data
    if (hp, wp) != (h, wd):
        xp = np.zeros((c, hp, wp), dtype=x.data.dtype)
        xp[:, :h, :wd] = x.data
    sums = xp[:, 0::2] + xp[:, 1::2]
    sums = sums[:, :, 0::2] + sums[:, :, 1::2]
    cy = np.full(ho, 2.0, dtype=x.data.dtype)
    cx = np.full(wo, 2.0, dtype=x.data.dtype)
    if h % 2:
        cy[-1] = 1.0
    if wd % 2:
        cx[-1] = 1.0
    counts = cy[:, None] * cx[None, :]
    out_data = sums / counts

    def backward(g):
        gd = g / counts
        dxp = np.zeros_like(xp)
        for oi in (0, 1):
            for oj in (0, 1):
                dxp[:, oi::2, oj::2] = gd
        x._accum(dxp[:, :h, :wd])

    return Tensor._from_op(out_data, (x,), backward)


# -- sampling ----------------------------------------------------------------


def window_sample(vol: Tensor, centers: Tensor, radius: int) -> Tensor:
    """Bilinear windows around per-slice centres: (N,H,W), (2,N) -> (S,N).

    Slice n is read at centers[:, n] + (dx, dy) for the S = (2r+1)^2
    integer offsets in [-r, r], dy outer; outside the map reads zero.
    The offsets share one fractional part, so each slice gathers one
    (2r+2)^2 window from a zero-padded copy and blends it once.
    """
    _check_same_dtype(vol, centers)
    if vol.data.ndim != 3:
        raise DimensionError(f"window_sample volume must be (N,H,W), got {vol.shape}")
    if centers.shape != (2, vol.shape[0]):
        raise DimensionError(f"centers must be (2,{vol.shape[0]}) for volume "
                             f"{vol.shape}, got {centers.shape}")
    if radius < 0:
        raise ContractError(f"window radius must be >= 0, got {radius}")
    n, h, w = vol.shape
    k = 2 * radius + 2                 # window extent, also the pad width
    hp, wp = h + 2 * k, w + 2 * k
    cx, cy = centers.data
    x0, y0 = np.floor(cx), np.floor(cy)
    fx, fy = cx - x0, cy - y0
    # window origin in padded coordinates; a window wholly off the map
    # is clamped into the padding, so it still reads zeros only
    xs = np.clip(x0.astype(np.int64) - radius, -k, w) + k
    ys = np.clip(y0.astype(np.int64) - radius, -k, h) + k
    steps = np.arange(k)[:, None]
    rows = np.arange(n) * hp + ys + steps                         # (k, N)
    lin = rows[:, None] * wp + (xs + steps)                       # (k, k, N)
    win = _pad(vol.data, k).reshape(-1)[lin]
    v00, v01 = win[:-1, :-1], win[:-1, 1:]
    v10, v11 = win[1:, :-1], win[1:, 1:]
    w00, w01 = (1.0 - fx) * (1.0 - fy), fx * (1.0 - fy)
    w10, w11 = (1.0 - fx) * fy, fx * fy
    out_data = (w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11).reshape(-1, n)

    def backward(g):
        g = g.reshape(k - 1, k - 1, n)
        if vol.requires_grad:
            gwin = np.zeros_like(win)
            gwin[:-1, :-1] += g * w00
            gwin[:-1, 1:] += g * w01
            gwin[1:, :-1] += g * w10
            gwin[1:, 1:] += g * w11
            # one window per slice, so the indexed write never collides
            gpad = np.zeros(n * hp * wp, dtype=vol.data.dtype)
            gpad[lin] = gwin
            vol._accum(gpad.reshape(n, hp, wp)[:, k:k + h, k:k + w])
        if centers.requires_grad:
            dout_dx = (1.0 - fy) * (v01 - v00) + fy * (v11 - v10)
            dout_dy = (1.0 - fx) * (v10 - v00) + fx * (v11 - v01)
            gc = np.stack([(g * dout_dx).reshape(-1, n).sum(axis=0),
                           (g * dout_dy).reshape(-1, n).sum(axis=0)])
            centers._accum(gc.astype(centers.data.dtype, copy=False))

    return Tensor._from_op(out_data, (vol, centers), backward)
