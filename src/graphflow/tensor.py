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

``conv2d`` is same-padded with a bias: the map is read as if padded
by k // 2, so the output extents are ceil(H / stride) by ceil(W /
stride). Its weights have (O, I, k, k) extents in any memory order, but
are fastest stored tap-major, with memory holding (O, k, k, I) as
``Conv2d`` keeps them: every GEMM then reads the weight, and writes its
gradient, in that order without a copy. The im2col columns are
tap-major too, and the tape keeps none. At stride 1 no padded copy is
made: each tap's columns are one copy of the unpadded map, read flat
and shifted by the tap's offset, and a few writes shared by all taps
zero what falls off the map. Both gradients come from columns of the
output gradient built the same way, with the taps reversed, so no
flipped kernel is built. Strided convs copy one strided slice of a
padded map per tap, rebuild their columns in the backward, and scatter
the column gradient back tap by tap.

``conv_gru`` is one ConvGRU cell as a single op. Its z and r gates
read one stride-1 column build of [hidden; x], and the candidate gate
reads the same buffer after only its hidden rows are rewritten with
r * hidden, so a cell builds its columns once and is one tape node. It
does the composed conv2d, sigmoid, tanh, mul and add arithmetic in
their order, and its values and gradients are bitwise theirs.

The correlation lookup's op, ``window_sample``, gathers one integer
window per pixel and pyramid level from a zero-padded copy of the
level. It blends the window separably, as a lerp along x and then one
along y, and drops the intermediate; its backward is the adjoint of
the two lerps and recomputes the x-lerp for the centre gradient.
"""

from __future__ import annotations

import contextlib
import functools
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


def _elementwise(op, a: Tensor, b: Tensor) -> np.ndarray:
    """``op`` over two operands of one dtype under numpy broadcasting."""
    _check_same_dtype(a, b)
    try:
        return op(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"cannot broadcast shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = _elementwise(np.add, a, b)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = _elementwise(np.multiply, a, b)

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


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # split on sign so exp never overflows
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(d.dtype, copy=False)


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

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


def tsum(x: Tensor, axis: tuple | None = None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis``, a tuple of non-negative axes, or over every axis."""
    axes = tuple(range(x.data.ndim)) if axis is None else axis
    out_data = x.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        x._accum(np.broadcast_to(g, x.shape))

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


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Stack along the leading axis; the other extents must agree."""
    ts = list(tensors)
    if not ts:
        raise ContractError("concat of an empty sequence")
    _check_same_dtype(*ts)
    for t in ts[1:]:
        if t.shape[1:] != ts[0].shape[1:]:
            raise DimensionError(
                f"concat extents differ past the leading axis: "
                f"{ts[0].shape} vs {t.shape}")
    out_data = np.concatenate([t.data for t in ts])

    def backward(g):
        start = 0
        for t in ts:
            if t.requires_grad:
                t._accum(g[start:start + t.shape[0]])
            start += t.shape[0]

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


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        x._accum(out_data * (g - dot))

    return Tensor._from_op(out_data, (x,), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """x / max(||x||_2, 1e-12) for each column."""
    norm = np.sqrt((x.data * x.data).sum(axis=0, keepdims=True))
    denom = np.maximum(norm, 1e-12)
    out_data = x.data / denom

    def backward(g):
        dot = (g * x.data).sum(axis=0, keepdims=True)
        live = (norm > 1e-12)
        safe = np.where(live, norm, 1.0)
        x._accum(g / denom - np.where(live, x.data * dot / (safe * denom * denom), 0.0))

    return Tensor._from_op(out_data, (x,), backward)


# -- convolution and pooling -------------------------------------------------


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """Copy of a (C, H, W) map inside a zeroed (C, H+2p, W+2p) buffer;
    ``a`` itself when p is 0."""
    if p == 0:
        return a
    c, h, w = a.shape
    out = np.zeros((c, h + 2 * p, w + 2 * p), dtype=a.dtype)
    out[:, p:p + h, p:p + w] = a
    return out


@functools.lru_cache(maxsize=64)
def _shift_plan(k: int, h: int, w: int) -> tuple[tuple, tuple]:
    """``_shift_taps``' copies and zero writes for one (k, h, w).

    A copy (t, run, src_run) moves one contiguous run of the flat map
    into tap t = ki*k + kj, shifted by s = dy*w + dx with (dy, dx) =
    (ki, kj) - k // 2; a tap shifted past the whole map has none. Every
    entry a run reads wrongly or leaves unwritten lies off the map, and
    the 2(k-1) zero writes, indices into the (k, k, C, h, w) taps, cover
    all of those: the rows that fall off and the columns that wrap
    round, each write covering every tap with that offset. The plan is
    cached per shape: on the 8x8 maps of a small model, working it out
    per call made each column build about 1.6 times as slow.
    """
    p, n = k // 2, h * w
    copies = []
    for ki in range(k):
        for kj in range(k):
            s = (ki - p) * w + (kj - p)
            lo, hi = max(0, -s), min(n, n - s)
            if lo < hi:
                copies.append((ki * k + kj, slice(lo, hi), slice(lo + s, hi + s)))
    every = slice(None)
    zeros = []
    for d in range(1, p + 1):
        zeros += [(p - d, every, every, slice(None, d)),
                  (p + d, every, every, slice(max(h - d, 0), None)),
                  (every, p - d, every, every, slice(None, d)),
                  (every, p + d, every, every, slice(max(w - d, 0), None))]
    return tuple(copies), tuple(zeros)


def _shift_taps(taps: np.ndarray, src: np.ndarray, h: int, w: int) -> None:
    """Fill ``taps``, a (k, k, C, h*w) view, with shifted copies of the
    flat (C, h*w) map ``src``: taps[ki, kj, c, y*w + x] becomes
    src[c, (y+dy)*w + x+dx] with (dy, dx) = (ki, kj) - k // 2, and 0
    where (y+dy, x+dx) falls off the map. Each tap is one copy of a
    contiguous run, and 2(k-1) writes after the copies zero the rest
    (``_shift_plan``).
    """
    k = taps.shape[0]
    copies, zeros = _shift_plan(k, h, w)
    flat = taps.reshape(k * k, -1, h * w)    # views: only tap axes merge,
    for t, run, src_run in copies:
        flat[t, :, run] = src[:, src_run]
    grid = taps.reshape(k, k, -1, h, w)      # and only the last axis splits
    for index in zeros:
        grid[index] = 0


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Tap-major columns (k*k*C, ho*wo) of a (C, H, W) map, same-padded
    by p = k // 2.

    Row (ki, kj, c) holds the padded map at [c, ki + stride*y,
    kj + stride*x] for every output pixel (y, x). At stride 1 the taps
    are flat shifts of the unpadded map (``_shift_taps``), and a 1x1
    conv reads the map itself through a reshape. A strided conv copies
    each tap as one strided slice of a padded copy.
    """
    c, h, w = x.shape
    if stride == 1:
        if k == 1:
            return x.reshape(c, h * w)
        cols = np.empty((k, k, c, h * w), dtype=x.dtype)
        _shift_taps(cols, x.reshape(c, h * w), h, w)
        return cols.reshape(k * k * c, h * w)
    xp = _pad(x, k // 2)
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    cols = np.empty((k, k, c, ho, wo), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[ki, kj] = xp[:, ki:ki + stride * ho:stride,
                              kj:kj + stride * wo:stride]
    return cols.reshape(k * k * c, ho * wo)


def _grad_cols(g: np.ndarray, k: int) -> np.ndarray:
    """Channel-major columns (O*k*k, h*w) of a stride-1 conv's (O, h, w)
    output gradient, same-padded by p = k // 2, with the taps reversed.

    Row (o, ki, kj) holds the padded gradient at [o, k-1-ki + y,
    k-1-kj + x] for every input pixel (y, x): the stride-1 conv's
    transpose is a correlation with the flipped kernel, and reversing
    the taps here flips it instead. The taps are flat shifts of the
    unpadded gradient, written through a (k, k, O, h*w) transposed view
    of the buffer with both tap axes reversed: the view's tap (ki, kj)
    is the buffer's (k-1-ki, k-1-kj).
    """
    c, h, w = g.shape
    if k == 1:
        return g.reshape(c, h * w)
    cols = np.empty((c, k, k, h * w), dtype=g.dtype)
    _shift_taps(cols.transpose(1, 2, 0, 3)[::-1, ::-1], g.reshape(c, h * w),
                h, w)
    return cols.reshape(c * k * k, h * w)


def _check_conv(op: str, x_shape: tuple, w: Tensor, b: Tensor) -> int:
    """Validate a (C_out, C_in, k, k) weight of odd square k against a
    (C_in, H, W) input and its (C_out,) bias; return k."""
    if w.data.ndim != 4:
        raise DimensionError(f"{op} weight must be (O,I,k,k), got {w.shape}")
    cout, cin, kh, kw = w.shape
    if kh != kw:
        raise DimensionError(f"{op} kernel must be square, got {kh}x{kw}")
    if kh % 2 != 1:
        raise DimensionError(f"{op} kernel extent must be odd, got {kh}")
    if cin != x_shape[0]:
        raise DimensionError(
            f"{op} channel mismatch: input {x_shape} vs weight {w.shape}")
    if b.shape != (cout,):
        raise DimensionError(f"{op} bias must be ({cout},), got {b.shape}")
    return kh


def _weight_matrix(w: Tensor) -> np.ndarray:
    """The (C_out, k*k*C_in) tap-major matrix of a conv weight: a free
    view of a tap-major weight, a copy of any other."""
    return w.data.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _affine(wm: np.ndarray, cols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """wm @ cols plus the bias of each output row."""
    out = wm @ cols
    out += b[:, None]
    return out


def _conv_grads(g: np.ndarray, xm: np.ndarray, wm: np.ndarray, w: Tensor,
                b: Tensor, need_dx: bool) -> np.ndarray | None:
    """A stride-1 conv's backward from its (C_out, h, w) output gradient.

    Accumulates the bias and weight gradients, the latter from the
    (C_in, h*w) input map ``xm``, and returns the (C_in, h*w) input
    gradient when ``need_dx``: the gradient's columns (``_grad_cols``)
    in one GEMM with ``xm`` and one with the weight matrix ``wm`` read
    as (C_out*k*k, C_in), transposed.
    """
    cout, cin, k, _ = w.shape
    if b.requires_grad:
        b._accum(g.reshape(cout, -1).sum(axis=1))
    gcols = _grad_cols(g, k)
    if w.requires_grad:
        dw = gcols @ xm.T
        w._accum(dw.reshape(cout, k, k, cin).transpose(0, 3, 1, 2))
    return wm.reshape(-1, cin).T @ gcols if need_dx else None


def conv2d(x: Tensor, w: Tensor, b: Tensor, *, stride: int = 1) -> Tensor:
    """Same-padded 2-D cross-correlation of one (C_in, H, W) map with
    (C_out, C_in, k, k) weights, plus a (C_out,) bias.

    The map is read as if padded by p = k // 2 on every side, so the
    output is ceil(H / stride) by ceil(W / stride). The forward runs as
    tap-major im2col plus one GEMM with the weight read as
    (C_out, k*k*C_in): a free view of a tap-major weight, a copy of any
    other. The tape keeps no columns at any stride. At stride 1 neither
    the map nor the output gradient is padded: each is spread into
    columns by flat shifts (``_shift_taps``), the gradient with its taps
    reversed. The gradient's columns, in a GEMM with the weight read as
    (C_out*k*k, C_in), transposed, give the input gradient (a transposed
    conv), and in a GEMM with the input map the weight gradient
    (``_conv_grads``). At stride > 1 the weight gradient rebuilds the
    forward columns, and the input gradient re-scatters the column
    gradient with k*k strided slice additions: a transposed conv there
    would multiply by the zeros of a gradient dilated by the stride,
    stride**2 times the FLOPs. Either way the weight gradient comes out
    tap-major, the order a tap-major weight holds.
    """
    _check_same_dtype(x, w, b)
    if x.data.ndim != 3:
        raise DimensionError(f"conv2d input must be (C,H,W), got {x.shape}")
    k = _check_conv("conv2d", x.shape, w, b)
    if stride < 1:
        raise ContractError(f"conv2d stride must be >= 1, got {stride}")

    cout, cin, _, _ = w.shape
    _, h, wd = x.shape
    p = k // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    wm = _weight_matrix(w)
    out_data = _affine(wm, _im2col(x.data, k, stride), b.data).reshape(
        cout, ho, wo)

    def backward(g):
        if stride == 1:
            dx = _conv_grads(g, x.data.reshape(cin, h * wd), wm, w, b,
                             x.requires_grad)
            if dx is not None:
                x._accum(dx.reshape(x.shape))
            return
        gm = g.reshape(cout, ho * wo)
        if b.requires_grad:
            b._accum(gm.sum(axis=1))
        if w.requires_grad:
            cols = _im2col(x.data, k, stride)
            dw = gm @ cols.T
            w._accum(dw.reshape(cout, k, k, cin).transpose(0, 3, 1, 2))
        if x.requires_grad:
            dwin = (wm.T @ gm).reshape(k, k, cin, ho, wo)
            dxp = np.zeros((cin, h + 2 * p, wd + 2 * p), dtype=g.dtype)
            for ki in range(k):
                for kj in range(k):
                    dxp[:, ki:ki + stride * ho:stride,
                        kj:kj + stride * wo:stride] += dwin[ki, kj]
            x._accum(dxp[:, p:p + h, p:p + wd])

    return Tensor._from_op(out_data, (x, w, b), backward)


def conv_gru(hidden: Tensor, x: Tensor, wz: Tensor, bz: Tensor, wr: Tensor,
             br: Tensor, wq: Tensor, bq: Tensor) -> Tensor:
    """One ConvGRU cell over a (c, H, W) state and a (C_x, H, W) input.

    With hx = [hidden; x] stacked on the channel axis and every conv
    stride-1 and same-padded as in ``conv2d``, with (c, c + C_x, k, k)
    weights:

        z = sigmoid(conv(hx; wz, bz))     r = sigmoid(conv(hx; wr, br))
        q = tanh(conv([r * hidden; x]; wq, bq))
        out = (1 - z) * hidden + z * q

    The tap-major columns of hx are built once, and the z and r GEMMs
    both read them. The q GEMM reads the same buffer after only its
    hidden rows are rewritten with the shifts of r * hidden, so a cell
    builds one (c + C_x)-channel column buffer plus a c-channel rewrite
    instead of three full ones, and is one tape node. The tape keeps no
    columns. The backward is each gate's stride-1 conv backward
    (``_conv_grads``), and the z and r input gradients are summed
    before they split into hidden and x. Forward and backward do the
    arithmetic of the composed conv2d, sigmoid, tanh, mul and add ops in
    their order, and the hidden gradient adds its three terms in the
    order the composed graph's backward walk would, so the cell and its
    gradients are bitwise theirs.
    """
    _check_same_dtype(hidden, x, wz, bz, wr, br, wq, bq)
    if hidden.data.ndim != 3 or x.data.ndim != 3 \
            or hidden.shape[1:] != x.shape[1:]:
        raise DimensionError(
            f"conv_gru needs a (c,H,W) state and a (C,H,W) input on one "
            f"grid, got {hidden.shape} and {x.shape}")
    c, h, wd = hidden.shape
    both = c + x.shape[0]
    k = _check_conv("conv_gru", (both, h, wd), wz, bz)
    for w, b in ((wz, bz), (wr, br), (wq, bq)):
        if w.shape != (c, both, k, k) or b.shape != (c,):
            raise DimensionError(
                f"conv_gru gates need ({c}, {both}, {k}, {k}) weights and "
                f"({c},) biases, got {w.shape} and {b.shape}")

    n = h * wd
    hx = np.concatenate([hidden.data, x.data]).reshape(both, n)
    cols = np.empty((k, k, both, n), dtype=hx.dtype)
    _shift_taps(cols, hx, h, wd)
    cm = cols.reshape(k * k * both, n)
    wmz, wmr, wmq = _weight_matrix(wz), _weight_matrix(wr), _weight_matrix(wq)
    z = _sigmoid(_affine(wmz, cm, bz.data)).reshape(c, h, wd)
    r = _sigmoid(_affine(wmr, cm, br.data)).reshape(c, h, wd)
    rh = r * hidden.data
    _shift_taps(cols[:, :, :c], rh.reshape(c, n), h, wd)
    q = np.tanh(_affine(wmq, cm, bq.data)).reshape(c, h, wd)
    out_data = (1.0 - z) * hidden.data + z * q

    def backward(g):
        hd = hidden.data
        need_in = hidden.requires_grad or x.requires_grad
        gz = g * q + (g * hd) * -1.0        # via z * q, then via 1 - z
        qin = np.concatenate([rh, x.data]).reshape(both, n)
        dqin = _conv_grads((g * z) * (1.0 - q * q), qin, wmq, wq, bq, True)
        grh = dqin[:c].reshape(c, h, wd)
        dhx = _conv_grads(grh * hd * r * (1.0 - r), hx, wmr, wr, br, need_in)
        dhx_z = _conv_grads(gz * z * (1.0 - z), hx, wmz, wz, bz, need_in)
        if not need_in:
            return
        dhx = dhx + dhx_z
        if hidden.requires_grad:
            # via r * hidden, then (1 - z) * hidden, then the z and r convs
            hidden._accum((grh * r + g * (1.0 - z))
                          + dhx[:c].reshape(c, h, wd))
        if x.requires_grad:
            x._accum((dqin[c:] + dhx[c:]).reshape(x.shape))

    return Tensor._from_op(out_data, (hidden, x, wz, bz, wr, br, wq, bq),
                           backward)


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
    The offsets share one fractional part (fx, fy), so each slice
    gathers one (2r+2)^2 window from a zero-padded copy and blends it
    separably: a lerp by fx along x, then a lerp by fy along y. The
    backward runs the adjoint of the two lerps, and recomputes the
    x-lerp from the window for the centre gradient.
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
    steps = np.arange(k)
    lin = ((steps[:, None] * wp + steps)[:, :, None]             # (k, k, N)
           + ((np.arange(n) * hp + ys) * wp + xs))
    win = _pad(vol.data, k).reshape(-1)[lin]
    tx = win[:, 1:] - win[:, :-1]
    tx *= fx
    tx += win[:, :-1]                  # lerp along x: (k, k-1, N)
    out = tx[1:] - tx[:-1]
    out *= fy
    out += tx[:-1]                     # lerp along y: (k-1, k-1, N)
    out_data = out.reshape(-1, n)

    def backward(g):
        g = g.reshape(k - 1, k - 1, n)
        if vol.requires_grad:
            # adjoint of each lerp a + f (b - a): a gets g - f g, b gets f g
            gf = g * fy
            gtx = np.empty((k, k - 1, n), dtype=g.dtype)
            np.subtract(g, gf, out=gtx[:-1])
            gtx[-1] = gf[-1]
            gtx[1:-1] += gf[:-1]
            gf = gtx * fx
            gwin = np.empty_like(win)
            np.subtract(gtx, gf, out=gwin[:, :-1])
            gwin[:, -1] = gf[:, -1]
            gwin[:, 1:-1] += gf[:, :-1]
            # one window per slice, so the indexed write never collides
            gpad = np.zeros(n * hp * wp, dtype=vol.data.dtype)
            gpad[lin] = gwin
            vol._accum(gpad.reshape(n, hp, wp)[:, k:k + h, k:k + w])
        if centers.requires_grad:
            ddx = win[:, 1:] - win[:, :-1]
            tx = ddx * fx
            tx += win[:, :-1]
            # d out / d fx is the y-lerp of ddx; d out / d fy is the
            # difference of the x-lerps
            dfx = ddx[1:] - ddx[:-1]
            dfx *= fy
            dfx += ddx[:-1]
            gc = np.stack([np.einsum("ijn,ijn->n", g, dfx),
                           np.einsum("ijn,ijn->n", g, tx[1:] - tx[:-1])])
            centers._accum(gc.astype(centers.data.dtype, copy=False))

    return Tensor._from_op(out_data, (vol, centers), backward)
