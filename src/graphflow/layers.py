"""Parameter containers shared by the matching network and the graph stage.

Registration rule: every layer takes the owner's ``params`` dict and a
name, and inserts each trainable tensor under its full dotted name
(``name.w``, ``name.b``) the moment it draws it. A name is written
once, where its layer is built, and registration order is
construction order, which is also the RNG draw order, so checkpoint
bytes follow from the order of the constructor calls alone. Every draw
goes through ``rng.normal``, so a ``NoDraw`` in the generator's place
builds the same structure without drawing.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, conv2d


def he_std(fan_in: int, gain: str = "relu") -> float:
    """Kaiming-style init scale; 'linear' halves the variance."""
    base = 2.0 if gain == "relu" else 1.0
    return float(np.sqrt(base / fan_in))


def parameter(params: dict, name: str, data: np.ndarray) -> Tensor:
    """A new trainable tensor, registered in ``params`` under ``name``."""
    params[name] = Tensor(data, requires_grad=True)
    return params[name]


class NoDraw:
    """Stands in for the generator of a model whose weights will all be
    loaded: each draw is zeros of the requested extents.

    Zeros, never ``np.empty``: a placeholder is cast to the run's dtype
    before it is overwritten, and garbage bits can overflow in the cast.
    """

    @staticmethod
    def normal(loc: float, scale: float, size: tuple) -> np.ndarray:
        return np.zeros(size)


def tap_major(w: np.ndarray) -> np.ndarray:
    """The same (O, I, k, k) values with memory holding (O, k, k, I)."""
    return np.ascontiguousarray(w.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class Conv2d:
    """A same-padded conv layer owning ``name.w`` and a zero ``name.b``.

    The weight keeps its (cout, cin, k, k) extents but is stored
    tap-major, the order in which ``conv2d`` reads it and writes its
    gradient; the draws, and so the values, are those of a C-ordered
    init. Biases start at zero so freshly built gates and heads produce
    reproducible, data-independent values.
    """

    def __init__(self, rng: np.random.Generator, params: dict, name: str,
                 cin: int, cout: int, k: int, *, stride: int = 1,
                 gain: str = "relu"):
        std = he_std(cin * k * k, gain)
        self.w = parameter(params, f"{name}.w", tap_major(
            rng.normal(0.0, std, size=(cout, cin, k, k))))
        self.b = parameter(params, f"{name}.b", np.zeros(cout))
        self.stride = stride

    def __call__(self, x: Tensor, *, relu: bool = False) -> Tensor:
        """The conv of ``x``; with ``relu``, its ReLU in the same op."""
        return conv2d(x, self.w, self.b, stride=self.stride, relu=relu)


def linear_pair(rng: np.random.Generator, params: dict, name: str,
                out_dim: int, in_dim: int,
                gain: str = "relu") -> tuple[Tensor, Tensor]:
    """Weight ``name.w`` (out, in) and zero bias ``name.b`` (out,)."""
    w = parameter(params, f"{name}.w",
                  rng.normal(0.0, he_std(in_dim, gain), size=(out_dim, in_dim)))
    b = parameter(params, f"{name}.b", np.zeros(out_dim))
    return w, b
