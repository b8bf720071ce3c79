"""Finite-difference verification of analytic gradients.

The harness evaluates a scalar-valued function twice per parameter
entry (central differences) and compares against the gradients a single
``backward()`` produced. Relative error uses max(1, |a|, |n|) in the
denominator so tiny gradients near zero do not blow the ratio up.

Checks are meant to run at 64-bit precision; the step of 1e-6 balances
truncation against round-off there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError
from .tensor import Tensor, no_grad

STEP = 1e-6


@dataclass
class GradReport:
    """Worst relative error per parameter for one checked function."""

    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        if not self.per_param:
            raise ContractError("empty report: no parameters were checked")
        return max(self.per_param.values())


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def gradcheck(fn: Callable[[], Tensor], params: Mapping[str, Tensor]) -> GradReport:
    """Compare backward() gradients of ``fn`` against central differences.

    ``fn`` must rebuild its graph on every call and return a scalar
    tensor that depends (directly or not) on every entry of ``params``.
    Parameter data is perturbed in place and always restored.
    """
    for name, p in params.items():
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise ContractError(f"parameter {name!r} is not a grad-enabled tensor")

    for p in params.values():
        p.grad = None
    loss = fn()
    if loss.data.size != 1:
        raise ContractError(f"checked function must be scalar, got {loss.shape}")
    loss.backward()
    analytic = {}
    for name, p in params.items():
        analytic[name] = (np.zeros_like(p.data) if p.grad is None else p.grad.copy())

    report = GradReport()
    with no_grad():
        for name, p in params.items():
            worst = 0.0
            # index p.data itself: a reshape of a weight that is not
            # C-ordered would perturb a copy
            for i in np.ndindex(p.shape):
                orig = p.data[i]
                p.data[i] = orig + STEP
                f_plus = fn().item()
                p.data[i] = orig - STEP
                f_minus = fn().item()
                p.data[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * STEP)
                worst = max(worst, rel_err(float(analytic[name][i]), numeric))
            report.per_param[name] = worst
    return report
