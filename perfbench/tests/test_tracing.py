"""Tests of the span store: self times, counts and restored names."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Patches, Tracer  # noqa: E402


def test_self_times_add_up_to_the_operation():
    tracer = Tracer()
    with tracer.operation(0):
        with tracer.span("analysis.analyze"):
            with tracer.span("sdp.solve"):
                with tracer.span("sdp.verify"):
                    pass
            with tracer.span("hierarchy.assemble"):
                pass
    record = tracer.per_op()[0]
    assert all(value >= 0.0 for value in tracer.self_times())
    assert sum(record["self_s"].values()) == pytest.approx(record["wall"], abs=1e-12)
    assert record["s"]["analysis.analyze"] <= record["wall"]


def test_wrappers_record_only_inside_operations_and_restore():
    module = types.SimpleNamespace(solve=lambda a: np.linalg.eigvalsh(a)[0])
    original, eigvalsh = module.solve, np.linalg.eigvalsh
    tracer = Tracer()
    patches = Patches()
    patches.replace(module, "solve", lambda fn: tracer._spanned("sdp.extract", fn))
    patches.replace(np.linalg, "eigvalsh", tracer._eigen)
    try:
        module.solve(np.eye(3))
        assert tracer.spans == []
        with tracer.operation(0):
            module.solve(np.eye(4))
            np.linalg.eigvalsh(np.eye(5))  # outside any sdp.* span: not counted
    finally:
        patches.restore()
    assert module.solve is original
    assert np.linalg.eigvalsh is eigvalsh
    assert [span[0] for span in tracer.spans] == ["op", "sdp.extract"]
    counts = tracer.counts[0]
    assert counts["sdp.extract.calls"] == 1
    assert counts["sdp.eigh_calls"] == 1
    assert counts["sdp.eigh_n3"] == 4**3
