"""The benchmark's calls into the library must keep working.

perfbench/tracing.py replaces module attributes by name for a traced run, so
deleting or renaming one of them breaks the traced benchmark without any
other test noticing.  perfbench/run.py builds scenarios, requests and
reports through the public API and gates every result.  Both files import
only the standard library at load time, so they are loaded here from their
files; neither needs scipy for what is called here.
"""

import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

from momentcert import SolverConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _harness():
    """perfbench/run.py, loaded with its directory on the path.

    Loading it sets the BLAS thread variables, so the environment is put
    back afterwards.
    """
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)


_TRACED = _load("perfbench_tracing", PERFBENCH / "tracing.py")


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


# The first block of each benchmark stream, which holds every kind of op.
FIRST_BLOCK = {"certify-322": 12, "certify-332": 3, "robustness-322": 1}


@pytest.fixture(scope="module")
def harness():
    run = _harness()
    run._warm_up()
    return run


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(FIRST_BLOCK))
def test_benchmark_ops_pass_their_gate(harness, workload, traced):
    for op in harness.workloads.generate(workload, 1, FIRST_BLOCK[workload]):
        tracer = harness.Tracer() if traced else None
        records, _ = harness.measure([op], 0.0, tracer, time.perf_counter())
        assert [record["problems"] for record in records] == [[]], op.kind
