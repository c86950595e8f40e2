"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from momentcert import (
    INCONCLUSIVE,
    NONLOCAL,
    AnalysisRequest,
    MeasuredSource,
    PinPolicy,
    Scenario,
    SimulatedSource,
    SolverConfig,
    add_white_noise,
    analyze,
    assemble,
    correlator_table,
    expectation,
    family_for_request,
    ingest_table,
    key_name,
    make_state,
    maximize_lambda_min,
    moment_kind,
    robustness,
    standard_suite,
    table_document,
    verify_certificate,
    word_product,
)
from momentcert.quantum import PAULI_X, PAULI_Z

from helpers import (
    born_probabilities,
    classical_completion,
    entry_at,
    grid_max_lambda_min,
    parity_expectation,
    random_family,
)

S322 = Scenario(3, 2)
S332 = Scenario(3, 3)


@contextmanager
def criterion(number, description, budget_s):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {description}: FAIL")
        raise
    elapsed = perf_counter() - start
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
    print(f"ACCEPTANCE {number:02d} {description}: PASS ({elapsed:.2f}s < {budget_s}s)")


def _simulated(state, suite, policy=None, visibility=1.0, config=None, scenario=S322):
    return AnalysisRequest(
        source=SimulatedSource(state, suite, visibility),
        scenario=scenario,
        level=2,
        policy=policy if policy is not None else PinPolicy.all(),
        config=config if config is not None else SolverConfig(),
    )


def test_criterion_01_golden_structure_222(structure_222):
    with criterion(1, "(2,2,2) level-2 golden structure", 1.0):
        st = structure_222
        assert st.dim == 11
        assert len(st.observables) == 8
        assert len(st.freevars) == 7
        a0 = ((1, 0),)
        b0 = ((2, 0),)
        a0b0 = ((1, 0), (2, 0))
        a0b1 = ((1, 0), (2, 1))
        a1b0 = ((1, 1), (2, 0))
        # The six variable-to-observable promotions forced by commutation.
        assert entry_at(st, 2, 5) == a0       # A1 . A0A1      -> <A0>
        assert entry_at(st, 4, 10) == b0      # B1 . B0B1      -> <B0>
        assert entry_at(st, 5, 8) == a0b0     # A0A1 . A1B0    -> <A0B0>
        assert entry_at(st, 7, 10) == a0b0    # A0B1 . B0B1    -> <A0B0>
        assert entry_at(st, 5, 9) == a0b1     # A0A1 . A1B1    -> <A0B1>
        assert entry_at(st, 9, 10) == a1b0    # A1B1 . B0B1    -> <A1B0>
        # The three four-letter entries merge into a single variable.
        merged = {entry_at(st, 5, 10), entry_at(st, 6, 9), entry_at(st, 7, 8)}
        assert len(merged) == 1
        assert moment_kind(merged.pop()) == "freevar"


def test_criterion_02_structure_322(structure_322):
    with criterion(2, "(3,2,2) level-2 structure", 1.0):
        st = structure_322
        assert st.dim == 22
        for i in range(22):
            assert entry_at(st, i, i) == ()
        assert len(st.observables) == 26
        # 1-based entry (4, 12): word A0B0C1, i.e. sigma_x sigma_x sigma_z
        # under the w suite.
        assert entry_at(st, 3, 11) == ((1, 0), (2, 0), (3, 1))
        assert key_name(word_product(st.words[3], st.words[11])) == "A0B0C1"
        suite = standard_suite("w")
        assert np.allclose(suite.operator(0), PAULI_X)
        assert np.allclose(suite.operator(1), PAULI_Z)


def test_criterion_03_w_detection(structure_322):
    with criterion(3, "W-state certified infeasibility", 60.0):
        table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
        family = assemble(structure_322, table, PinPolicy.all())
        outcome = maximize_lambda_min(family, SolverConfig())
        assert outcome.status == "CERTIFIED_INFEASIBLE"
        assert outcome.certificate is not None
        assert verify_certificate(family, outcome.certificate, 1e-7)
        assert outcome.certificate.value < -1e-3


def test_criterion_04_ghz_contrast():
    with criterion(4, "GHZ full-body vs two-body pins", 120.0):
        full = analyze(_simulated("ghz", "ghz", PinPolicy.all()))
        assert full.verdict == NONLOCAL
        partial = analyze(_simulated("ghz", "ghz", PinPolicy.max_bodies(2)))
        assert partial.verdict == INCONCLUSIVE


@pytest.mark.parametrize("kind", ["graph-linear", "graph-loop"])
def test_criterion_05_graph_states(kind, structure_332):
    with criterion(5, f"{kind} certified infeasibility", 300.0):
        request = _simulated(kind, "graph", scenario=S332)
        report = analyze(request)
        assert report.verdict == NONLOCAL
        assert report.outcome.status == "CERTIFIED_INFEASIBLE"
        assert report.certificate is not None
        assert verify_certificate(family_for_request(request), report.certificate)


def test_criterion_06_separable_soundness(structure_322, structure_332):
    with criterion(6, "separable states stay INCONCLUSIVE/FEASIBLE", 10.0):
        config = SolverConfig(max_iters=1500)
        cases = [
            ("w", structure_322), ("ghz", structure_322), ("graph", structure_332),
        ]
        product = make_state("basis:000", 3)
        mixed = add_white_noise(product, 0.0)
        for suite_kind, structure in cases:
            suite = standard_suite(suite_kind)
            for state in (product, mixed):
                table = correlator_table(state, suite, structure)
                family = assemble(structure, table, PinPolicy.all())
                outcome = maximize_lambda_min(family, config)
                assert outcome.status == "FEASIBLE"
                witness = np.linalg.eigvalsh(family.gamma(outcome.v_star))[0]
                assert witness >= -1e-8
                # Independent oracle: the explicit local-mixture completion
                # must itself be feasible.
                oracle_v = classical_completion(family, state, suite, structure.scenario)
                oracle_lam = np.linalg.eigvalsh(family.gamma(oracle_v))[0]
                assert oracle_lam >= -1e-8


def test_criterion_07_correlator_oracle_equivalence(structure_322):
    with criterion(7, "expectation matches Born-rule enumeration", 5.0):
        for state_kind, suite_kind in (("w", "w"), ("ghz", "ghz")):
            state = make_state(state_kind, 3)
            suite = standard_suite(suite_kind)
            for key in structure_322.observables:
                assignment = {p: suite.operator(s) for p, s in key}
                direct = expectation(state, assignment)
                enumerated = parity_expectation(born_probabilities(state, assignment))
                assert abs(direct - enumerated) <= 1e-9
        w = make_state("w", 3)
        ghz = make_state("ghz", 3)
        z = {1: PAULI_Z}
        zzz = {1: PAULI_Z, 2: PAULI_Z, 3: PAULI_Z}
        xxx = {1: PAULI_X, 2: PAULI_X, 3: PAULI_X}
        assert abs(expectation(w, z) - 1.0 / 3.0) <= 1e-9
        assert abs(expectation(w, zzz) - (-1.0)) <= 1e-9
        assert abs(expectation(ghz, xxx) - 1.0) <= 1e-9


def test_criterion_08_solver_validation():
    with criterion(8, "solver matches grid oracle on random families", 120.0):
        rng = np.random.default_rng(20240817)
        for case in range(20):
            dim = int(rng.integers(3, 13))
            nvars = int(rng.integers(0, 4))
            family = random_family(rng, dim, nvars)
            outcome = maximize_lambda_min(family, SolverConfig())
            oracle = grid_max_lambda_min(family)
            assert abs(outcome.lambda_star - oracle) <= 1e-3
            if outcome.certificate is not None:
                assert verify_certificate(family, outcome.certificate, 1e-7)
                assert outcome.lambda_star <= outcome.certificate.value + 1e-6


def test_criterion_09_noise_robustness(structure_322):
    with criterion(9, "white-noise robustness bisection for W", 600.0):
        state = make_state("w", 3)
        suite = standard_suite("w")
        base = correlator_table(state, suite, structure_322)
        for p in (0.2, 0.6, 0.95):
            noisy = correlator_table(add_white_noise(state, p), suite, structure_322)
            for key in base.keys():
                assert abs(noisy.value(key) - p * base.value(key)) <= 1e-10

        result = robustness("w", "w", S322, tolerance=1e-2)
        lo, hi = result.bracket
        assert hi - lo <= 1e-2
        assert 0.0 < result.p_star < 1.0
        # Endpoint verdicts and a fresh re-solve of the final bracket.
        evaluated = dict(result.evaluations)
        assert evaluated[1.0] == NONLOCAL
        assert evaluated[0.0] == INCONCLUSIVE
        assert analyze(_simulated("w", "w", visibility=hi)).verdict == NONLOCAL
        assert analyze(_simulated("w", "w", visibility=lo)).verdict == INCONCLUSIVE


def test_criterion_10_round_trip(structure_322):
    with criterion(10, "serialize/ingest/re-analyze round trip", 60.0):
        direct = analyze(_simulated("w", "w"))
        table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
        document = json.loads(json.dumps(table_document(table)))
        reingested = ingest_table(document)
        from_table = analyze(
            AnalysisRequest(
                source=MeasuredSource(reingested),
                scenario=S322,
                level=2,
                policy=PinPolicy.all(),
                config=SolverConfig(),
            )
        )
        assert from_table.verdict == direct.verdict == NONLOCAL
        assert abs(from_table.lambda_star - direct.lambda_star) <= 1e-9
        assert json.dumps(from_table.body_document(), sort_keys=True) == json.dumps(
            direct.body_document(), sort_keys=True
        )
