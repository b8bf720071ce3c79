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
tap-major too, and the tape keeps none. No padded map is made at any
stride: the map is copied once, flat, between two zero margins, and one
strided copy from that buffer fills every tap with the map shifted by
the tap's offset and read at the stride; rows that fall off the map
read the margins, and a few writes shared by all taps zero the columns
that wrap round. At stride 1 both gradients come from columns of the
output gradient built the same way, with the taps reversed, so no
flipped kernel is built. Strided convs rebuild their columns in the
backward, and scatter the column gradient back tap by tap.

``conv_gru`` is one ConvGRU cell as a single op. Its z and r gates
read one stride-1 column build of [hidden; x], and the candidate gate
reads the same buffer after only its hidden rows are rewritten with
the shifts of r * hidden, so a cell builds its columns once and is one
tape node. It does the composed conv2d, sigmoid, tanh, mul and add
arithmetic in their order, and its values and gradients are bitwise
theirs. The tape keeps neither the columns nor [hidden; x], which the
backward stacks again.

With ``relu=True`` a conv applies its ReLU in place on the GEMM
output and masks its output gradient by out > 0, so a conv and the
ReLU that reads it are one tape node, bitwise the two composed ops.

The math of ``softmax``, ``l2_normalize`` and ``sigmoid`` lives in
private array kernels (``_softmax`` and ``_softmax_grad``, and so on),
which the graph stage's single-node functions call too, so each
formula is written once. The model calls the three ops only through
those nodes; the ops stay for the gradient audit and as the tests'
composed references.

The correlation lookup's op, ``window_sample``, reads every pyramid
level in one tape node. It copies the levels into one flat buffer
that ends in a single zero slot, and gathers one integer window per
pixel and level through one index in which every off-map tap points
at that slot, so no level is padded. The parts of that index that
depend only on the pyramid's shape and the radius (level starts,
clamp bounds, slice starts, and row and column offset tables) are
built once per shape and kept read-only, as the conv's shift plans
are. It blends the windows separably, as a lerp along x and then one
along y, and keeps for the centre gradient the differences the two
lerps took, not the windows. Its backward is the adjoint of the two
lerps, scattered into an unpadded flat gradient whose contiguous
slices are the levels' gradients.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Iterable, NamedTuple, Sequence

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
    # exp of -|d| never overflows; the numerator is 1 for d >= 0 (where
    # e <= 1) and e below, with no branch on the sign
    e = np.exp(-np.abs(d))
    out = np.maximum(e, d >= 0) / (1.0 + e)
    return out.astype(d.dtype, copy=False)


def _sigmoid_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sigmoid's input gradient from its output ``out``."""
    return g * out * (1.0 - out)


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def backward(g):
        x._accum(_sigmoid_grad(g, out_data))

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
    kept = tuple(1 if i in axes else e for i, e in enumerate(x.shape))

    def backward(g):
        x._accum(np.broadcast_to(g.reshape(kept), x.shape))

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


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of an array over its last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The last-axis softmax's input gradient from its output ``out``."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out_data = _softmax(x.data)

    def backward(g):
        x._accum(_softmax_grad(g, out_data))

    return Tensor._from_op(out_data, (x,), backward)


def _l2_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x / max(||x||_2, 1e-12) per column, with the norm and that floored
    denominator, which the gradient reads."""
    norm = np.sqrt((x * x).sum(axis=0, keepdims=True))
    denom = np.maximum(norm, 1e-12)
    return x / denom, norm, denom


def _l2_normalize_grad(g: np.ndarray, x: np.ndarray, norm: np.ndarray,
                       denom: np.ndarray) -> np.ndarray:
    """The column L2 normalisation's input gradient; a column at the
    floor passes g / 1e-12 and nothing else."""
    dot = (g * x).sum(axis=0, keepdims=True)
    live = (norm > 1e-12)
    safe = np.where(live, norm, 1.0)
    return g / denom - np.where(live, x * dot / (safe * denom * denom), 0.0)


def l2_normalize(x: Tensor) -> Tensor:
    """x / max(||x||_2, 1e-12) for each column."""
    out_data, norm, denom = _l2_normalize(x.data)

    def backward(g):
        x._accum(_l2_normalize_grad(g, x.data, norm, denom))

    return Tensor._from_op(out_data, (x,), backward)


# -- convolution and pooling -------------------------------------------------


@functools.lru_cache(maxsize=64)
def _shift_plan(k: int, w: int, stride: int) -> tuple[int, tuple]:
    """``_shift_taps``' margin and zero writes for one (k, w, stride).

    Tap (ki, kj) of output pixel (y, x) reads the map at (s*y + dy,
    s*x + dx) with (dy, dx) = (ki, kj) - k // 2 and s the stride, so its
    flat offset is off the pixel's by at most m = p*w + p, the margin of
    zeros kept on each side of the flat map: a row that falls off the
    map reads that margin. What a tap reads wrongly is only the columns
    s*x + dx that wrap round into the row above or below, and the 2p
    zero writes, indices into the (k, k, C, ho, wo) taps, cover those,
    each write covering every tap with that column offset. The plan is
    cached per (k, w, stride): building it takes about 1 us, a cached
    lookup under 0.1 us, and a small model's training step builds about
    140 column buffers.
    """
    p = k // 2
    every = slice(None)
    zeros = []
    for d in range(1, p + 1):
        # dx = -d wraps for s*x < d, dx = d for s*x >= w - d
        zeros += [(every, p - d, every, every, slice(None, -(-d // stride))),
                  (every, p + d, every, every,
                   slice(max(-(-(w - d) // stride), 0), None))]
    return p * w + p, tuple(zeros)


def _shift_taps(taps: np.ndarray, src: np.ndarray, w: int,
                stride: int) -> None:
    """Fill ``taps``, a (k, k, C, ho, wo) view, with the taps of the flat
    (C, h*w) map ``src`` read at ``stride``: taps[ki, kj, c, y, x]
    becomes src[c, (s*y+dy)*w + s*x+dx] with (dy, dx) = (ki, kj) - k // 2
    and s the stride, and 0 where (s*y+dy, s*x+dx) falls off the map.

    ``src`` is copied once into a buffer with a zero margin on each side
    of every flat channel (``_shift_plan``). One strided view of that
    buffer holds every tap, its tap axes stepping by a row and by a
    column and its output axes by s rows and s columns, so all k*k taps
    are one copy, and only the 2p writes of the columns that wrap round
    follow it.
    """
    k = taps.shape[0]
    c, n = src.shape
    m, zeros = _shift_plan(k, w, stride)
    flat = np.zeros((c, n + 2 * m), dtype=src.dtype)
    flat[:, m:m + n] = src
    step = flat.itemsize
    # a view made straight over the fresh buffer; as_strided costs about
    # 2.5 us more per call
    taps[...] = np.ndarray(taps.shape, dtype=flat.dtype, buffer=flat,
                           strides=(w * step, step, flat.strides[0],
                                    stride * w * step, stride * step))
    for index in zeros:
        taps[index] = 0


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Tap-major columns (k*k*C, ho*wo) of a (C, H, W) map, same-padded
    by p = k // 2.

    Row (ki, kj, c) holds the padded map at [c, ki + stride*y,
    kj + stride*x] for every output pixel (y, x). The taps are shifts of
    the unpadded map read at the stride (``_shift_taps``); a stride-1
    1x1 conv reads the map itself through a reshape.
    """
    c, h, w = x.shape
    if k == 1 and stride == 1:
        return x.reshape(c, h * w)
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    cols = np.empty((k, k, c, ho, wo), dtype=x.dtype)
    _shift_taps(cols, x.reshape(c, h * w), w, stride)
    return cols.reshape(k * k * c, ho * wo)


def _grad_cols(g: np.ndarray, k: int) -> np.ndarray:
    """Channel-major columns (O*k*k, h*w) of a stride-1 conv's (O, h, w)
    output gradient, same-padded by p = k // 2, with the taps reversed.

    Row (o, ki, kj) holds the padded gradient at [o, k-1-ki + y,
    k-1-kj + x] for every input pixel (y, x): the stride-1 conv's
    transpose is a correlation with the flipped kernel, and reversing
    the taps here flips it instead. The taps are shifts of the unpadded
    gradient (``_shift_taps``), written through a (k, k, O, h, w)
    transposed view of the buffer with both tap axes reversed: the
    view's tap (ki, kj) is the buffer's (k-1-ki, k-1-kj).
    """
    c, h, w = g.shape
    if k == 1:
        return g.reshape(c, h * w)
    cols = np.empty((c, k, k, h, w), dtype=g.dtype)
    _shift_taps(cols.transpose(1, 2, 0, 3, 4)[::-1, ::-1],
                g.reshape(c, h * w), w, 1)
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


def conv2d(x: Tensor, w: Tensor, b: Tensor, *, stride: int = 1,
           relu: bool = False) -> Tensor:
    """Same-padded 2-D cross-correlation of one (C_in, H, W) map with
    (C_out, C_in, k, k) weights, plus a (C_out,) bias; with ``relu``,
    the ReLU of that.

    ``relu=True`` is the composed relu(conv2d(...)) in one tape node:
    the output is clamped in place, and the backward masks the output
    gradient by out > 0, which holds exactly where the pre-activation
    is positive, before the conv backward. Values and gradients are
    bitwise the composed ops'.

    The map is read as if padded by p = k // 2 on every side, so the
    output is ceil(H / stride) by ceil(W / stride). The forward runs as
    tap-major im2col plus one GEMM with the weight read as
    (C_out, k*k*C_in): a free view of a tap-major weight, a copy of any
    other. The tape keeps no columns at any stride. Neither the map nor
    the output gradient is padded: each is spread into columns by flat
    shifts read at the stride (``_shift_taps``), the gradient, at stride
    1, with its taps reversed. The gradient's columns, in a GEMM with
    the weight read as (C_out*k*k, C_in), transposed, give the input
    gradient (a transposed conv), and in a GEMM with the input map the
    weight gradient (``_conv_grads``). At stride > 1 the weight gradient
    rebuilds the forward columns, and the input gradient re-scatters the
    column gradient with k*k strided slice additions: a transposed conv
    there would multiply by the zeros of a gradient dilated by the
    stride, stride**2 times the FLOPs. Either way the weight gradient
    comes out tap-major, the order a tap-major weight holds.
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
    if relu:
        np.maximum(out_data, 0, out=out_data)

    def backward(g):
        if relu:
            g = g * (out_data > 0)
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

    The tap-major columns of hx are built once (``_im2col``), and the z
    and r GEMMs both read them. The q GEMM reads the same buffer after
    only its hidden rows are rewritten with the shifts of r * hidden
    (``_shift_taps`` through a (k, k, c, H, W) view of it), so a cell
    builds one (c + C_x)-channel column buffer plus a c-channel rewrite
    instead of three full ones, and is one tape node. The tape keeps no
    columns and not hx: the backward stacks hx again, as it stacks
    [r * hidden; x], for the weight gradients. The backward is each
    gate's stride-1 conv backward (``_conv_grads``), and the z and r
    input gradients are summed before they split into hidden and x.
    Forward and backward do the arithmetic of the composed conv2d,
    sigmoid, tanh, mul and add ops in their order, and the hidden
    gradient adds its three terms in the order the composed graph's
    backward walk would, so the cell and its gradients are bitwise
    theirs.
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
    cm = _im2col(np.concatenate([hidden.data, x.data]), k, 1)
    wmz, wmr, wmq = _weight_matrix(wz), _weight_matrix(wr), _weight_matrix(wq)
    z = _sigmoid(_affine(wmz, cm, bz.data)).reshape(c, h, wd)
    r = _sigmoid(_affine(wmr, cm, br.data)).reshape(c, h, wd)
    rh = r * hidden.data
    _shift_taps(cm.reshape(k, k, both, h, wd)[:, :, :c], rh.reshape(c, n),
                wd, 1)
    q = np.tanh(_affine(wmq, cm, bq.data)).reshape(c, h, wd)
    out_data = (1.0 - z) * hidden.data + z * q

    def backward(g):
        hd = hidden.data
        need_in = hidden.requires_grad or x.requires_grad
        gz = g * q + (g * hd) * -1.0        # via z * q, then via 1 - z
        qin = np.concatenate([rh, x.data]).reshape(both, n)
        dqin = _conv_grads((g * z) * (1.0 - q * q), qin, wmq, wq, bq, True)
        grh = dqin[:c].reshape(c, h, wd)
        hx = np.concatenate([hd, x.data]).reshape(both, n)
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


class _WindowPlan(NamedTuple):
    starts: np.ndarray     # (L+1,) each level's flat start, then the slot
    slot: int              # the one zero slot, after every level
    scales: np.ndarray     # (L, 1) the 2^-l that scales centres to level l
    lo: int                # clamp bounds of the window origin:
    hi: np.ndarray         # (2, L, 1) per axis (x, then y) and level
    table: np.ndarray      # window coordinate -> offset on the map, or slot
    ramp: np.ndarray       # (2, L, k, 1) origin -> table index, per step
    base: np.ndarray       # (L, N) each slice's flat start


@functools.lru_cache(maxsize=64)
def _window_plan(extents: tuple, n: int, radius: int,
                 dtype: np.dtype) -> _WindowPlan:
    """Everything ``window_sample`` indexes and scales by, for (h, w)
    level ``extents``, n slices, one radius and the centres' dtype;
    read-only.

    A window of k = 2r+2 taps along one axis starts at its origin
    o - r, where o is the floored centre clamped to [r - k, e + r], so
    its coordinates lie in [-k, e + k) on a level of extent e. The
    table holds one segment per axis and level, covering exactly those
    coordinates: a column's entry is the column, a row's is the row
    times the level's width, and an entry off the map is the slot.
    ``ramp`` maps a clamped origin, plus a step, to its table index, and
    ``scales`` holds the powers of two in the centres' dtype, so a
    product with them is numpy's ``ldexp``, bit for bit. Cached per
    shape, the plan leaves a call about 11 numpy calls to scale, floor
    and clamp the centres and build its index; building it per call
    took about 30, and made the whole forward about 1.35 times as slow
    on the 8x8 maps of a small model.
    """
    k = 2 * radius + 2
    nl = len(extents)
    ext = np.array(extents, dtype=np.int64)          # (L, 2): h, w
    starts = np.concatenate([[0], np.cumsum(n * ext[:, 0] * ext[:, 1])])
    slot = int(starts[-1])
    segments = []
    ramp = np.empty((2, nl, k, 1), dtype=np.int64)
    at = 0
    for axis in range(2):
        for lvl, (h, w) in enumerate(extents):
            e, stride = (w, 1) if axis == 0 else (h, w)
            coord = np.arange(-k, e + k)
            segments.append(np.where((coord >= 0) & (coord < e),
                                     coord * stride, slot))
            ramp[axis, lvl, :, 0] = at + k - radius + np.arange(k)
            at += e + 2 * k
    plan = _WindowPlan(
        starts=starts, slot=slot,
        scales=(0.5 ** np.arange(nl)[:, None]).astype(dtype),
        lo=radius - k, hi=ext[:, ::-1].T[:, :, None] + radius,
        table=np.concatenate(segments), ramp=ramp,
        base=starts[:-1, None] + np.arange(n) * (ext[:, :1] * ext[:, 1:]))
    for arr in (plan.starts, plan.scales, plan.hi, plan.table, plan.ramp,
                plan.base):
        arr.setflags(write=False)
    return plan


def window_sample(levels: Sequence[Tensor], centers: Tensor,
                  radius: int) -> Tensor:
    """Bilinear windows at every level: L x (N,h_l,w_l), (2,N) -> (L*S,N).

    Slice n of level l is read at centers[:, n] / 2^l + (dx, dy) for the
    S = (2r+1)^2 integer offsets in [-r, r], dy outer; outside the map
    reads zero. Rows are level-major, so row l*S + s is offset s at
    level l. The offsets share one fractional part (fx, fy) per level,
    so each slice gathers one (2r+2)^2 window per level and blends it
    separably: a lerp by fx along x, then a lerp by fy along y.

    All levels are read from one flat copy of the pyramid ending in a
    single zero slot, through one index in which every off-map tap
    points at that slot, so no level is padded. Everything the index
    depends on but the centres comes from a plan cached per (extents,
    N, r, dtype) (``_window_plan``): a call scales the centres by its
    powers of two, floors and clamps them, looks up each window row's
    and column's flat offset in one table ``take``, adds the slice
    starts, and sums rows and columns.

    The forward keeps each difference it takes in its own buffer: the
    windows' x-differences ``ddx`` (L, k, k-1, N) and the x-lerp's
    y-differences ``dfy`` (L, k-1, k-1, N). The tape holds those, the
    fractions and the int64 gather index, but not the windows or the
    x-lerp. The backward runs the adjoint of the two lerps and scatters
    into an unpadded flat gradient. The centre gradient reads the
    y-lerp of ``ddx`` (d out / d fx) and ``dfy`` (d out / d fy), each
    in one batched einsum with the output gradient; one multiply scales
    the stacked per-level terms by 2^-l, and they are summed coarsest
    level first.
    """
    levels = list(levels)
    if not levels:
        raise ContractError("window_sample needs at least one level")
    _check_same_dtype(*levels, centers)
    n = levels[0].shape[0]
    for vol in levels:
        if vol.data.ndim != 3 or vol.shape[0] != n:
            raise DimensionError(f"window_sample levels must be (N,h,w) with "
                                 f"one N, got {vol.shape} after {levels[0].shape}")
    if centers.shape != (2, n):
        raise DimensionError(f"centers must be (2,{n}) for levels of {n} "
                             f"slices, got {centers.shape}")
    if radius < 0:
        raise ContractError(f"window radius must be >= 0, got {radius}")
    nl = len(levels)
    k = 2 * radius + 2                 # window extent
    plan = _window_plan(tuple(v.shape[1:] for v in levels), n, radius,
                        centers.data.dtype)
    starts, slot, scales = plan.starts, plan.slot, plan.scales
    flat = np.empty(slot + 1, dtype=centers.data.dtype)
    for vol, a, b in zip(levels, starts, starts[1:]):
        flat[a:b] = vol.data.reshape(-1)
    flat[slot] = 0.0
    # level l reads centers * 2^-l: (2, L, N), x then y
    c = centers.data[:, None] * scales
    c0 = np.floor(c)
    frac = c - c0
    fx, fy = frac[0][:, None, None], frac[1][:, None, None]
    # the floored centre, clamped so a window wholly off the map starts
    # just past its edge and still reads the zero slot only
    origin = c0.astype(np.int64)
    np.maximum(origin, plan.lo, out=origin)
    np.minimum(origin, plan.hi, out=origin)
    # each window coordinate's row or column offset, or the slot
    offs = plan.table.take(origin[:, :, None] + plan.ramp)        # (2, L, k, N)
    row = offs[1] + plan.base[:, None]
    # an off-map row or column alone lifts the sum past the slot
    lin = row[:, :, None] + offs[0][:, None]                       # (L, k, k, N)
    np.minimum(lin, slot, out=lin)
    win = flat.take(lin)
    del flat, offs, row
    ddx = win[:, :, 1:] - win[:, :, :-1]   # x-differences: (L, k, k-1, N)
    tx = ddx * fx
    tx += win[:, :, :-1]                   # lerp along x
    del win
    dfy = tx[:, 1:] - tx[:, :-1]           # y-differences: (L, k-1, k-1, N)
    out = dfy * fy
    out += tx[:, :-1]                      # lerp along y
    out_data = out.reshape(-1, n)

    def backward(g):
        g = g.reshape(nl, k - 1, k - 1, n)
        if any(vol.requires_grad for vol in levels):
            # adjoint of each lerp a + f (b - a): a gets g - f g, b gets f g
            gf = g * fy
            gtx = np.empty((nl, k, k - 1, n), dtype=g.dtype)
            np.subtract(g, gf, out=gtx[:, :-1])
            gtx[:, -1] = gf[:, -1]
            gtx[:, 1:-1] += gf[:, :-1]
            gf = gtx * fx
            gwin = np.empty((nl, k, k, n), dtype=g.dtype)
            np.subtract(gtx, gf, out=gwin[:, :, :-1])
            gwin[:, :, -1] = gf[:, :, -1]
            gwin[:, :, 1:-1] += gf[:, :, :-1]
            # on the map the taps never collide; every off-map tap lands
            # in the slot, which no level reads
            gflat = np.zeros(slot + 1, dtype=g.dtype)
            gflat[lin] = gwin
            for vol, a, b in zip(levels, starts, starts[1:]):
                if vol.requires_grad:
                    vol._accum(gflat[a:b].reshape(vol.shape))
        if centers.requires_grad:
            # d out / d fx is the y-lerp of ddx; d out / d fy is dfy
            dfx = ddx[:, 1:] - ddx[:, :-1]
            dfx *= fy
            dfx += ddx[:, :-1]
            terms = np.stack([np.einsum("lijn,lijn->ln", g, dfx),
                              np.einsum("lijn,lijn->ln", g, dfy)])
            terms *= scales                # level l reads centers * 2^-l
            # sum from the coarsest level down, the order in which
            # per-level ops would accumulate
            gc = terms[:, -1]
            for lvl in range(nl - 2, -1, -1):
                gc = gc + terms[:, lvl]
            centers._accum(gc)

    return Tensor._from_op(out_data, (*levels, centers), backward)
