"""The names the benchmark's tracer patches must exist.

perfbench/tracing.py replaces module attributes by name for a traced run, so
deleting or renaming one of them breaks the traced benchmark without any
other test noticing.  The tracer imports only the standard library, so it is
loaded here from its file.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from momentcert import SolverConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACED = _tracing()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in _TRACED.SPANNED + _TRACED.COUNTED],
    ids=lambda value: value,
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_benchmark_warm_up_config_constructs():
    # The benchmark's warm-up passes restarts, so the keyword must stay.
    assert SolverConfig(max_iters=5, restarts=1).restarts == 1
