"""Tests of the benchmark's input generators and of its traced counts.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from momentcert import (  # noqa: E402
    INCONCLUSIVE,
    NONLOCAL,
    QuantumState,
    Scenario,
    build_structure,
    correlator_table,
    ingest_table,
    standard_suite,
)

CERTIFY = ("certify-322", "certify-332")
SEEDS = (0, 1, 7)


def _separable(workload, seed, count=48):
    return [op for op in workloads.generate(workload, seed, count) if op.kind == "separable"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for seed in SEEDS:
        first = workloads.generate(workload, seed, 36)
        second = workloads.generate(workload, seed, 36)
        assert first == second
        assert [op.table_json for op in first] == [op.table_json for op in second]
    if workload in CERTIFY:
        assert workloads.generate(workload, 0, 36) != workloads.generate(workload, 1, 36)


@pytest.mark.parametrize("workload", CERTIFY)
def test_separable_tables_are_ingested_whole(workload):
    tables = _separable(workload, 3)
    assert tables
    for op in tables:
        scenario = Scenario(op.parties, op.settings)
        table = ingest_table(json.loads(op.table_json))
        assert table.scenario == scenario
        assert set(table.keys()) == set(build_structure(scenario, 2).observables)


@pytest.mark.parametrize("workload", CERTIFY)
def test_separable_values_match_the_simulator(workload):
    """Bloch-vector correlators equal the program's own on the mixed state."""
    for op in _separable(workload, 5)[:4]:
        rho = np.zeros((2**op.parties, 2**op.parties), dtype=complex)
        for weight, blochs in op.mixture:
            product = np.array([[1.0]], dtype=complex)
            for x, y, z in blochs:
                qubit = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
                product = np.kron(product, qubit)
            rho += weight * product
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        structure = build_structure(Scenario(op.parties, op.settings), 2)
        expected = correlator_table(QuantumState(op.parties, rho), standard_suite(op.suite), structure)
        got = ingest_table(json.loads(op.table_json))
        for key in structure.observables:
            assert got.value(key) == pytest.approx(expected.value(key), abs=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_answers_match_construction(workload):
    low, high = workloads.VISIBILITY_RANGE
    for seed in SEEDS:
        for op in workloads.generate(workload, seed, 36):
            if op.kind == "robustness":
                assert op.expect is None and op.state in ("w", "ghz")
            elif op.kind == "separable":
                assert op.expect == INCONCLUSIVE and op.state is None
                assert 1 <= len(op.mixture) <= workloads.MAX_MIXTURE
                assert sum(w for w, _ in op.mixture) == pytest.approx(1.0)
                for _, blochs in op.mixture:
                    assert len(blochs) == op.parties
                    for vector in blochs:
                        assert np.linalg.norm(vector) == pytest.approx(1.0)
            elif op.kind == "basis":
                assert op.expect == INCONCLUSIVE and op.visibility == 1.0
                assert op.state.startswith("basis:") and len(op.state) == 6 + op.parties
            elif op.kind == "ghz-2body":
                assert op.expect == INCONCLUSIVE and op.max_bodies == 2 and op.state == "ghz"
            else:
                assert op.kind in ("w", "ghz", "graph-linear", "graph-loop")
                assert op.expect == NONLOCAL and op.state == op.kind and op.max_bodies is None
                assert low <= op.visibility <= high
            if workload == "certify-332":
                assert (op.settings, op.suite) == (3, "graph")


def test_certify_322_is_half_certificates():
    ops = workloads.generate("certify-322", 2, 120)
    assert sum(op.expect == NONLOCAL for op in ops) == 60


def _traced_counts(seed):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify-322", "--seed", str(seed),
         "--seconds", "0.001", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: result["metrics"][name]["value"]
        for name in (
            "sdp.iterations",
            "sdp.eigh_calls",
            "sdp.verify.calls",
            "hierarchy.build_structure.calls",
            "analysis.robustness.evaluations",
            "algebra.word_products",
        )
    }


def test_traced_counts_repeat_for_a_seed():
    assert _traced_counts(4) == _traced_counts(4)
