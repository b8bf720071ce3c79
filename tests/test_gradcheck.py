"""Finite-difference harness: verify it against hand-computable gradients."""

import inspect

import numpy as np
import pytest

import graphflow.tensor as tt
from graphflow.checks import _op_cases
from graphflow.errors import ContractError
from graphflow.gradcheck import gradcheck, rel_err
from graphflow.tensor import (Tensor, conv2d, matmul, mul, relu, reshape,
                              softmax, tsum)


def p64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


class TestHarness:
    def test_quadratic_with_known_gradient_passes(self):
        x = p64([1.0, -2.0, 0.5])
        rep = gradcheck(lambda: mul(tsum(mul(x, x)), Tensor(0.5, dtype=np.float64)),
                        {"x": x})
        assert rep.max_rel_err < 1e-9
        assert rep.bits == 64
        assert rep.step == 1e-6

    def test_report_lists_every_checked_parameter(self):
        a, b = p64(np.ones((2, 2))), p64(np.ones((2, 2)))
        rep = gradcheck(lambda: tsum(matmul(a, b)), {"a": a, "b": b})
        assert set(rep.per_param) == {"a", "b"}

    def test_empty_parameter_set_yields_empty_report(self):
        rep = gradcheck(lambda: tsum(Tensor([1.0], requires_grad=True)), {})
        assert rep.per_param == {}
        with pytest.raises(ContractError):
            rep.max_rel_err

    def test_detects_a_wrong_backward_rule(self):
        x = p64([1.0, 2.0])

        def doubled_with_broken_backward(t):
            def backward(g):
                t._accum(3.0 * g)  # forward scales by 2; mismatch on purpose
            return Tensor._from_op(t.data * 2.0, (t,), backward)

        rep = gradcheck(lambda: tsum(doubled_with_broken_backward(x)), {"x": x})
        assert rep.per_param["x"] > 0.3

    def test_perturbations_are_restored(self):
        x = p64([1.0, 2.0, 3.0])
        before = x.data.copy()
        gradcheck(lambda: tsum(mul(x, x)), {"x": x})
        assert np.array_equal(x.data, before)

    def test_non_scalar_function_is_rejected(self):
        x = p64([1.0, 2.0])
        with pytest.raises(ContractError):
            gradcheck(lambda: mul(x, x), {"x": x})

    def test_composite_chain_meets_operator_tolerance(self):
        rng = np.random.default_rng(30)
        x = p64(rng.normal(size=(2, 6, 6)) * 0.5)
        w1 = p64(rng.normal(size=(3, 2, 3, 3)) * 0.4)
        b1 = p64(rng.normal(size=3) * 0.1)
        w2 = p64(rng.normal(size=(4, 3)) * 0.4)

        def fn():
            h = relu(conv2d(x, w1, b1, stride=2, padding=1))
            flat = reshape(h, (3, 9))
            att = softmax(matmul(w2, flat), axis=1)
            return tsum(mul(att, att))

        rep = gradcheck(fn, {"x": x, "w1": w1, "b1": b1, "w2": w2})
        assert rep.max_rel_err < 1e-4

    def test_relative_error_uses_unit_floor(self):
        assert rel_err(0.0, 0.0) == 0.0
        assert rel_err(1e-9, 0.0) == 1e-9
        assert rel_err(200.0, 100.0) == 0.5


class TestAuditCoverage:
    def test_every_public_op_has_exactly_one_audit_row(self):
        """Adding or removing an op without its gradient-audit case fails
        here at once, not inside the full audit run."""
        not_ops = {"precision", "no_grad"}
        renamed = {"tsum": "sum", "tmean": "mean"}
        public = {renamed.get(name, name)
                  for name, fn in inspect.getmembers(tt, inspect.isfunction)
                  if fn.__module__ == tt.__name__
                  and not name.startswith("_") and name not in not_ops}
        names = [name for name, _, _ in _op_cases(np.random.default_rng(0))]
        assert len(names) == len(set(names))
        assert set(names) == public
