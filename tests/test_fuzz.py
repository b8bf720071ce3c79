"""Readers under truncated and mutated bytes: a FormatError or ConfigError,
or a clean read, and never any other exception.

Each target starts from a valid payload. Hypothesis cuts it short,
overwrites a few bytes, or splices in a short run of arbitrary bytes.
The runs are derandomized and keep no example database, so the suite
is reproducible and leaves no files behind.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphflow.checkpoint import load_checkpoint, save_checkpoint
from graphflow.config import parse_kv_text
from graphflow.data import (FlowField, read_flo, read_manifest, read_ppm,
                            write_flo, write_manifest, write_ppm)
from graphflow.errors import ConfigError, FormatError

FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def damaged(draw, good: bytes) -> bytes:
    """``good`` truncated, with bytes overwritten, or with a run spliced in."""
    blob = bytearray(good)
    kind = draw(st.sampled_from(["truncate", "overwrite", "splice"]))
    if kind == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if kind == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob)
    at = draw(st.integers(0, len(blob)))
    cut = draw(st.integers(0, 4))
    return bytes(blob[:at]) + draw(st.binary(max_size=8)) + bytes(blob[at + cut:])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid payload per reader, plus a scratch file to damage."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    flow = rng.normal(size=(2, 3, 4)).astype(np.float32)
    write_flo(root / "a.flo", FlowField(flow=flow))
    write_ppm(root / "a.ppm", rng.integers(0, 256, size=(3, 2, 3), dtype=np.uint8))
    save_checkpoint(root / "a.agfw", {"a.w": np.ones((2, 3), np.float32),
                                      "b": np.zeros((), np.float32),
                                      "meta.adam_t": np.array([2.0], np.float32)})
    write_manifest(root / "m.tsv", [("p0", "a.ppm", "a.ppm", "a.flo"),
                                    ("p1", "a.ppm", "a.ppm", "a.flo")])
    blobs = {ext: (root / name).read_bytes()
             for ext, name in (("flo", "a.flo"), ("ppm", "a.ppm"),
                               ("agfw", "a.agfw"), ("tsv", "m.tsv"))}
    return root / "damaged", blobs


def fuzz_reader(valid, ext, reader, data):
    path, blobs = valid
    path.write_bytes(data.draw(damaged(blobs[ext])))
    try:
        reader(path)
    except FormatError:
        pass


@FUZZ
@given(data=st.data())
def test_read_flo(valid, data):
    fuzz_reader(valid, "flo", read_flo, data)


@FUZZ
@given(data=st.data())
def test_read_ppm(valid, data):
    fuzz_reader(valid, "ppm", read_ppm, data)


@FUZZ
@given(data=st.data())
def test_load_checkpoint(valid, data):
    fuzz_reader(valid, "agfw", load_checkpoint, data)


@FUZZ
@given(data=st.data())
def test_read_manifest(valid, data):
    fuzz_reader(valid, "tsv", read_manifest, data)


CONFIG = "feature_channels = 8\n# a comment\ngraph = agr  # trailing\n\nsteps = 6\n"


@FUZZ
@given(st.one_of(damaged(CONFIG.encode()), st.binary(max_size=64)))
def test_parse_kv_text(blob):
    try:
        parse_kv_text(blob.decode("utf-8", errors="replace"), source="fuzz")
    except ConfigError:
        pass
