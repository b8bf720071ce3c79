"""The traced benchmark's hooks still fit the package.

``benchmark/spans.py`` patches package attributes by name and counts
each conv's FLOPs from its weight's (O, I, k, k) extents. Those extents
hold whatever the memory order: ``Conv2d`` stores its weight tap-major,
(O, k, k, I) in memory, behind the same (O, I, k, k) shape. A rename
or a change of the weight's extents would break the traced benchmark
without failing any package test, so these checks pin both couplings.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from graphflow.counting import conv_flops
from graphflow.layers import Conv2d
from graphflow.tensor import Tensor

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_a_callable_of_its_owner(spans):
    """``SpanRecorder.installed`` reads ``owner.__dict__[attr]``."""
    for module_name, owner_name, attr, _ in spans.TRACED:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), f"{module_name}.{owner_name}.{attr}"


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_work_matches_the_analytic_count(spans, stride):
    rng = np.random.default_rng(stride)
    cin, cout, k, h, w = 3, 5, 3, 9, 7
    conv = Conv2d(rng, {}, "probe", cin, cout, k, stride=stride)
    x = Tensor(rng.uniform(size=(cin, h, w)))
    recorder = spans.SpanRecorder()
    with recorder.installed():
        out = conv(x)
    (name, *_, work), = recorder.spans
    assert name == "tensor.conv2d"
    _, ho, wo = out.shape
    assert (ho, wo) == ((h - 1) // stride + 1, (w - 1) // stride + 1)
    assert work == conv_flops(cin, cout, k, ho, wo)
    assert spans._conv_flops((x, conv.w, conv.b), out) == work
