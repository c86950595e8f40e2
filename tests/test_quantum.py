import numpy as np
import pytest

from momentcert import (
    MeasurementSuite,
    MissingMoment,
    Scenario,
    add_white_noise,
    build_structure,
    correlator_from_probabilities,
    correlator_table,
    expectation,
    fidelity,
    graph_state,
    make_state,
    standard_suite,
)
from momentcert.quantum import (
    PAULI_DIAG,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QuantumState,
)

from helpers import born_probabilities

X, Y, Z = PAULI_X, PAULI_Y, PAULI_Z


def _state_checks(state):
    assert np.abs(state.rho - state.rho.conj().T).max() <= 1e-12
    assert abs(np.trace(state.rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(state.rho).min() >= -1e-10


def test_ghz_state_matrix():
    state = make_state("ghz", 3)
    ket = np.zeros(8)
    ket[0] = ket[7] = 1 / np.sqrt(2)
    assert np.allclose(state.rho, np.outer(ket, ket))
    _state_checks(state)


def test_w_state_matrix():
    state = make_state("w", 3)
    ket = np.zeros(8)
    ket[1] = ket[2] = ket[4] = 1 / np.sqrt(3)
    assert np.allclose(state.rho, np.outer(ket, ket))
    _state_checks(state)


def test_graph_states_differ_by_third_cz():
    linear = make_state("graph-linear", 3)
    loop = make_state("graph-loop", 3)
    # Applying the 1-3 controlled-Z to the linear graph state gives the loop.
    cz13 = np.eye(8, dtype=complex)
    for index in range(8):
        if (index >> 2) & 1 and index & 1:
            cz13[index, index] = -1.0
    assert np.allclose(cz13 @ linear.rho @ cz13.conj().T, loop.rho)
    _state_checks(linear)
    _state_checks(loop)
    assert fidelity(linear, loop) != pytest.approx(1.0)


def test_graph_state_stabilizers():
    # X1 Z2 stabilizes the path graph state; X1 Z2 Z3 stabilizes the loop.
    linear = make_state("graph-linear", 3)
    loop = make_state("graph-loop", 3)
    assert expectation(linear, {1: X, 2: Z}) == pytest.approx(1.0)
    assert expectation(linear, {1: Z, 2: X, 3: Z}) == pytest.approx(1.0)
    assert expectation(loop, {1: X, 2: Z, 3: Z}) == pytest.approx(1.0)


def test_basis_state_and_bad_kinds():
    state = make_state("basis:010", 3)
    assert state.rho[2, 2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_state("basis:01", 3)
    with pytest.raises(ValueError):
        make_state("graph-linear", 4)
    with pytest.raises(ValueError):
        make_state("squeezed", 3)
    with pytest.raises(ValueError):
        make_state("w", 1)


def test_named_states_are_shared_and_read_only():
    state = make_state("w", 3)
    assert make_state("w", 3) is state
    with pytest.raises(ValueError, match="read-only"):
        state.rho[0, 0] = 1.0


def test_graph_state_constructor_validates_edges():
    with pytest.raises(ValueError):
        graph_state(3, [(1, 4)])
    with pytest.raises(ValueError):
        graph_state(3, [(2, 2)])


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([[1.0, 0.5j], [0.5j, 0.0]]))
    with pytest.raises(ValueError):
        QuantumState(1, np.array([[0.7, 0.0], [0.0, 0.7]]))
    with pytest.raises(ValueError):
        QuantumState(1, np.array([[1.5, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize("kind,settings", [("w", 2), ("ghz", 2), ("graph", 3)])
def test_standard_suites(kind, settings):
    suite = standard_suite(kind)
    assert suite.settings == settings
    for setting in range(settings):
        op = suite.operator(1, setting)
        assert np.abs(op @ op - np.eye(2)).max() <= 1e-12
        assert np.abs(op - op.conj().T).max() <= 1e-12


def test_suite_contents():
    w = standard_suite("w")
    assert np.allclose(w.operator(1, 0), X)
    assert np.allclose(w.operator(2, 1), Z)
    ghz = standard_suite("ghz")
    assert np.allclose(ghz.operator(1, 1), PAULI_DIAG)
    for bad in ("chsh", "wsuite"):
        with pytest.raises(ValueError):
            standard_suite(bad)


def test_expectation_anchors():
    ghz = make_state("ghz", 3)
    w = make_state("w", 3)
    assert expectation(ghz, {1: X, 2: X, 3: X}) == pytest.approx(1.0, abs=1e-12)
    assert expectation(w, {1: Z, 2: Z, 3: Z}) == pytest.approx(-1.0, abs=1e-12)
    assert expectation(w, {1: Z}) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert expectation(make_state("basis:000", 3), {1: Z}) == pytest.approx(1.0)


def test_expectation_rejects_bad_assignments():
    state = make_state("ghz", 3)
    with pytest.raises(ValueError):
        expectation(state, {})
    with pytest.raises(ValueError):
        expectation(state, {4: Z})
    non_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        expectation(state, {1: non_hermitian})


def test_expectation_linear_in_observable():
    state = make_state("graph-loop", 3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = m + m.conj().T
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = m + m.conj().T
        lhs = expectation(state, {2: a + b})
        rhs = expectation(state, {2: a}) + expectation(state, {2: b})
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_correlator_table_w(structure_322):
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    assert len(table) == 26
    assert table.value(((1, 1),)) == pytest.approx(1.0 / 3.0)
    assert table.value(((1, 1), (2, 1), (3, 1))) == pytest.approx(-1.0)


def test_correlator_table_mixed_state_vanishes(structure_322):
    mixed = add_white_noise(make_state("ghz", 3), 0.0)
    table = correlator_table(mixed, standard_suite("ghz"), structure_322)
    for key in table.keys():
        assert table.value(key) == pytest.approx(0.0, abs=1e-12)


def test_correlator_table_ghz_xxx(structure_322):
    table = correlator_table(make_state("ghz", 3), standard_suite("ghz"), structure_322)
    assert table.value(((1, 0), (2, 0), (3, 0))) == pytest.approx(1.0)


def test_correlator_table_requires_enough_settings(structure_332):
    with pytest.raises(ValueError):
        correlator_table(make_state("w", 3), standard_suite("w"), structure_332)


def _random_state(rng, n):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return QuantumState(n, rho / np.trace(rho).real)


def _random_suite(rng, settings):
    # n . (X, Y, Z) for random unit vectors n: Hermitian involutions with
    # complex entries.
    directions = rng.normal(size=(settings, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return MeasurementSuite("random", tuple(x * X + y * Y + z * Z for x, y, z in directions))


@pytest.mark.parametrize("parties, settings", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_correlator_table_matches_expectation(parties, settings):
    rng = np.random.default_rng(parties * 10 + settings)
    structure = build_structure(Scenario(parties, settings), 2)
    state = _random_state(rng, parties)
    suite = _random_suite(rng, settings)
    table = correlator_table(state, suite, structure)
    assert set(table.keys()) == set(structure.observables)
    for key in structure.observables:
        oracle = expectation(state, {p: suite.operator(p, s) for p, s in key})
        assert abs(table.value(key) - oracle) <= 1e-14


def test_correlator_table_rejects_nonreal_values(structure_322):
    # A non-Hermitian "observable" slips past a hand-made suite object.
    state = make_state("w", 3)
    suite = standard_suite("w")
    bad = object.__new__(MeasurementSuite)
    object.__setattr__(bad, "name", "bad")
    object.__setattr__(bad, "operators", (suite.operators[0], 1j * suite.operators[1]))
    with pytest.raises(ValueError, match="nonreal"):
        correlator_table(state, bad, structure_322)


def test_table_lookup_errors(structure_322):
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    with pytest.raises(MissingMoment):
        table.value(((1, 0), (1, 1)))


def test_correlator_from_probabilities_examples():
    assert correlator_from_probabilities({"00": 1.0}) == pytest.approx(1.0)
    uniform = {bits: 0.25 for bits in ("00", "01", "10", "11")}
    assert correlator_from_probabilities(uniform) == pytest.approx(0.0)
    assert correlator_from_probabilities({"00": 0.5, "11": 0.5}) == pytest.approx(1.0)


def test_correlator_from_probabilities_rejects_malformed():
    with pytest.raises(ValueError):
        correlator_from_probabilities({"00": 0.9, "11": 0.2})
    with pytest.raises(ValueError):
        correlator_from_probabilities({"00": 1.2, "11": -0.2})
    with pytest.raises(ValueError):
        correlator_from_probabilities({"0": 0.5, "11": 0.5})
    with pytest.raises(ValueError):
        correlator_from_probabilities({"0x": 1.0})
    with pytest.raises(ValueError):
        correlator_from_probabilities({})


def test_expectation_agrees_with_born_rule(structure_322):
    # Trace evaluation must match the probability route through the parity
    # formula on every observable of the (3,2,2) structure.
    suite = standard_suite("w")
    for kind in ("w", "ghz", "graph-loop"):
        state = make_state(kind, 3)
        for key in structure_322.observables:
            assignment = {p: suite.operator(p, s) for p, s in key}
            direct = expectation(state, assignment)
            via_born = correlator_from_probabilities(born_probabilities(state, assignment))
            assert direct == pytest.approx(via_born, abs=1e-9)


def test_white_noise_endpoints_and_scaling():
    state = make_state("ghz", 3)
    assert np.allclose(add_white_noise(state, 1.0).rho, state.rho)
    assert np.allclose(add_white_noise(state, 0.0).rho, np.eye(8) / 8)
    with pytest.raises(ValueError):
        add_white_noise(state, 1.2)
    for p in (0.3, 0.77):
        noisy = add_white_noise(state, p)
        for assignment in ({1: X, 2: X, 3: X}, {2: Z}, {1: PAULI_DIAG, 3: X}):
            assert expectation(noisy, assignment) == pytest.approx(
                p * expectation(state, assignment), abs=1e-10
            )


def test_fidelity_basics():
    w = make_state("w", 3)
    ghz = make_state("ghz", 3)
    zero = make_state("basis:000", 3)
    one = make_state("basis:111", 3)
    assert fidelity(w, w) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    # For pure states the fidelity reduces to the squared overlap.
    overlap = abs(np.vdot(_ket(ghz), _ket(w))) ** 2
    assert fidelity(ghz, w) == pytest.approx(overlap, abs=1e-9)
    assert abs(fidelity(w, ghz) - fidelity(ghz, w)) <= 1e-9


def test_fidelity_mixed_and_mismatch():
    state = make_state("ghz", 3)
    noisy = add_white_noise(state, 0.9)
    value = fidelity(state, noisy)
    assert 0.9 < value < 1.0
    with pytest.raises(ValueError):
        fidelity(state, make_state("basis:00", 2))


def _ket(state):
    w, v = np.linalg.eigh(state.rho)
    return v[:, -1]
