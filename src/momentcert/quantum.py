"""Dense few-qubit states, measurement suites, and correlator evaluation.

Everything here works with explicit 2^n x 2^n complex density matrices; the
systems of interest have n = 3, so there is no need for sparse or stabilizer
machinery.  Party 1 is the leftmost tensor factor throughout.

:func:`correlator_table` forms no Kronecker product: one ``einsum``
contracts the suite's stack (I, O_0, ..., O_{m-1}) into every party of the
density matrix, viewed as a (2,) * 2n tensor, which yields every correlator
at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .algebra import MomentKey, Scenario, checked_real, key_name, validate_moment_key
from .errors import MissingMoment, RangeError

# Tolerated overshoot when validating moment values against [-1, 1]; the
# one such tolerance, shared with analysis.
VALUE_TOL = 1e-9
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
IMAG_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
# The tilted observable (Z + X)/sqrt(2), a unit-norm Hermitian involution.
PAULI_DIAG = (PAULI_Z + PAULI_X) / np.sqrt(2.0)


@dataclass(frozen=True)
class QuantumState:
    """A validated n-qubit density operator."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        dim = 2**self.n
        if self.rho.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} density matrix, got {self.rho.shape}")
        if np.abs(self.rho - self.rho.conj().T).max() > HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.rho) - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(self.rho)} != 1")
        if np.linalg.eigvalsh(self.rho).min() < -PSD_TOL:
            raise ValueError("density matrix is not positive semidefinite")


def _state_from_ket(ket: np.ndarray) -> QuantumState:
    n = int(np.log2(ket.size))
    ket = ket / np.linalg.norm(ket)
    return QuantumState(n, np.outer(ket, ket.conj()))


def basis_ket(bits: str) -> np.ndarray:
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"basis label must be a nonempty bitstring, got {bits!r}")
    ket = np.zeros(2 ** len(bits), dtype=complex)
    ket[int(bits, 2)] = 1.0
    return ket


def w_ket(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("W state needs at least 2 qubits")
    ket = np.zeros(2**n, dtype=complex)
    for q in range(n):
        ket[1 << q] = 1.0
    return ket / np.sqrt(n)


def ghz_ket(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = 1.0 / np.sqrt(2.0)
    ket[-1] = 1.0 / np.sqrt(2.0)
    return ket


def graph_state(n: int, edges: Iterable[tuple[int, int]]) -> QuantumState:
    """|+>^n followed by a controlled-Z on each edge (parties 1-based)."""
    ket = np.full(2**n, 1.0 / np.sqrt(2.0**n), dtype=complex)
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ValueError(f"bad edge {(a, b)!r} for {n} qubits")
        # Party 1 is the leftmost factor, i.e. the most significant bit.
        bit_a = n - a
        bit_b = n - b
        for index in range(2**n):
            if (index >> bit_a) & 1 and (index >> bit_b) & 1:
                ket[index] = -ket[index]
    return _state_from_ket(ket)


LINEAR_EDGES = ((1, 2), (2, 3))
LOOP_EDGES = ((1, 2), (2, 3), (1, 3))


@lru_cache(maxsize=16)
def make_state(kind: str, n: int = 3) -> QuantumState:
    """Build a named state: w, ghz, graph-linear, graph-loop, or basis:<bits>.

    Built and validated once per (kind, n); the cached state's ``rho`` is
    read-only, since every caller shares it.
    """
    state = _named_state(kind.lower(), n)
    state.rho.flags.writeable = False
    return state


def _named_state(kind: str, n: int) -> QuantumState:
    if kind == "w":
        return _state_from_ket(w_ket(n))
    if kind == "ghz":
        return _state_from_ket(ghz_ket(n))
    if kind == "graph-linear":
        if n != 3:
            raise ValueError("graph-linear is defined here for n = 3")
        return graph_state(3, LINEAR_EDGES)
    if kind == "graph-loop":
        if n != 3:
            raise ValueError("graph-loop is defined here for n = 3")
        return graph_state(3, LOOP_EDGES)
    if kind.startswith("basis:"):
        bits = kind.split(":", 1)[1]
        if len(bits) != n:
            raise ValueError(f"basis label {bits!r} does not match n = {n}")
        return _state_from_ket(basis_ket(bits))
    raise ValueError(f"unknown state kind {kind!r}")


@dataclass(frozen=True)
class MeasurementSuite:
    """Per-setting single-qubit observables, shared by all parties.

    Each operator must be a 2x2 Hermitian involution (spectrum in {+1, -1}).
    """

    name: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        for op in self.operators:
            if op.shape != (2, 2):
                raise ValueError("suite operators must be 2x2")
            if np.abs(op - op.conj().T).max() > HERM_TOL:
                raise ValueError("suite operator is not Hermitian")
            if np.abs(op @ op - IDENTITY_2).max() > HERM_TOL:
                raise ValueError("suite operator does not square to the identity")

    @property
    def settings(self) -> int:
        return len(self.operators)

    def operator(self, setting: int) -> np.ndarray:
        if not 0 <= setting < self.settings:
            raise ValueError(f"setting {setting} outside suite {self.name!r}")
        return self.operators[setting]


def standard_suite(kind: str) -> MeasurementSuite:
    """The three measurement suites used for W, GHZ and graph states.

    w:     X, Z
    ghz:   X, (Z + X)/sqrt(2)
    graph: X, Z, (Z + X)/sqrt(2)
    """
    kind = kind.lower()
    if kind == "w":
        return MeasurementSuite("w", (PAULI_X, PAULI_Z))
    if kind == "ghz":
        return MeasurementSuite("ghz", (PAULI_X, PAULI_DIAG))
    if kind == "graph":
        return MeasurementSuite("graph", (PAULI_X, PAULI_Z, PAULI_DIAG))
    raise ValueError(f"unknown suite kind {kind!r}")


def expectation(state: QuantumState, assignment: Mapping[int, np.ndarray]) -> float:
    """Tr(O rho) for O the tensor extension of per-party observables.

    ``assignment`` maps 1-based party indices to 2x2 Hermitian operators;
    unassigned parties carry the identity.
    """
    if not assignment:
        raise ValueError("assignment must cover at least one party")
    for party, op in assignment.items():
        if not 1 <= party <= state.n:
            raise ValueError(f"party {party} outside 1..{state.n}")
        if op.shape != (2, 2):
            raise ValueError("assignment operators must be 2x2")
        if np.abs(op - op.conj().T).max() > HERM_TOL:
            raise ValueError(f"assignment operator for party {party} is not Hermitian")
    full = np.array([[1.0]], dtype=complex)
    for party in range(1, state.n + 1):
        full = np.kron(full, assignment.get(party, IDENTITY_2))
    value = np.trace(full @ state.rho)
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"nonreal expectation {value!r}")
    return float(value.real)


def checked_moment(value, where) -> float:
    """The one range check of moment values; returns ``value`` as a float.

    Raises RangeError naming ``where`` (a JSON path or a moment key) unless
    the value is finite and in [-1, 1] up to VALUE_TOL.
    """
    try:
        number = float(value)
    except OverflowError:
        number = np.inf
    if not abs(number) <= 1.0 + VALUE_TOL:
        where = where if isinstance(where, str) else f"moment {key_name(where)}"
        raise RangeError(f"{where} = {value!r} outside [-1, 1]")
    return number


def checked_sigma(value, where: str) -> float:
    """``value`` as a nonnegative float; ValueError naming ``where`` otherwise."""
    sigma = checked_real(value, where)
    if sigma < 0.0:
        raise ValueError(f"{where} must be nonnegative, got {sigma}")
    return sigma


@lru_cache(maxsize=4096)
def _checked_key(scenario: Scenario, key: MomentKey) -> None:
    """:func:`validate_moment_key`, run once per (scenario, key); failures are not cached."""
    validate_moment_key(scenario, key)


@dataclass(frozen=True)
class CorrelatorTable:
    """Measured or simulated values for observable moments.

    ``entries`` maps a moment key to ``(value, sigma)`` where sigma is an
    optional nonnegative uncertainty.  The checked entries are stored as a
    read-only copy of plain floats; a bool is not a number, as in a table
    document.
    """

    scenario: Scenario
    entries: Mapping[MomentKey, tuple[float, float | None]]

    def __post_init__(self):
        entries = {}
        for key, (value, sigma) in self.entries.items():
            _checked_key(self.scenario, key)
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ValueError(f"moment {key_name(key)} must be a number, got {value!r}")
            if sigma is not None:
                sigma = checked_sigma(sigma, f"sigma for {key_name(key)}")
            entries[key] = (checked_moment(value, key), sigma)
        object.__setattr__(self, "entries", MappingProxyType(entries))

    @classmethod
    def from_values(cls, scenario: Scenario, values: Mapping[MomentKey, float]) -> "CorrelatorTable":
        return cls(scenario, {key: (v, None) for key, v in values.items()})

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self):
        return self.entries.keys()

    def value(self, key: MomentKey) -> float:
        if key not in self.entries:
            raise MissingMoment(key)
        return self.entries[key][0]

    def sigma(self, key: MomentKey) -> float | None:
        if key not in self.entries:
            raise MissingMoment(key)
        return self.entries[key][1]


def correlator_table(state: QuantumState, suite: MeasurementSuite, structure) -> CorrelatorTable:
    """Evaluate every observable moment of ``structure`` on ``state``.

    T[s_1, ..., s_N] = Tr((ops[s_1] x ... x ops[s_N]) rho) for the stack
    ops = (I, O_0, ..., O_{m-1}) that every party shares; a key's moment is
    T at s_p = setting + 1 for its parties and 0 for the others, so T is
    read at the structure's ``observable_settings + 1``.
    """
    scenario = structure.scenario
    n = state.n
    if scenario.parties != n:
        raise ValueError(f"state has {n} qubits, scenario wants {scenario.parties}")
    if suite.settings < scenario.settings:
        raise ValueError(
            f"suite {suite.name!r} has {suite.settings} settings, scenario wants {scenario.settings}"
        )
    # rho[j_1..j_N, i_1..i_N] ops[s_1, i_1, j_1] ... ops[s_N, i_N, j_N]
    operands = [state.rho.reshape((2,) * (2 * n)), [*range(n, 2 * n), *range(n)]]
    stack = np.stack([IDENTITY_2] + [suite.operator(s) for s in range(scenario.settings)])
    for p in range(n):
        operands += [stack, [2 * n + p, p, n + p]]
    table = np.einsum(*operands, list(range(2 * n, 3 * n)))
    if np.abs(table.imag).max() > IMAG_TOL:
        raise ValueError(f"nonreal expectation, |imaginary part| {np.abs(table.imag).max()!r}")
    values = table.real[tuple(structure.observable_settings + 1)].tolist()
    return CorrelatorTable.from_values(scenario, dict(zip(structure.observables, values)))


def checked_visibility(value) -> float:
    """``value`` as a float in [0, 1]; ValueError otherwise, for a bool or NaN too."""
    visibility = checked_real(value, "visibility")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return visibility


def add_white_noise(state: QuantumState, visibility: float) -> QuantumState:
    """Convex mixture visibility * rho + (1 - visibility) * I / 2^n."""
    visibility = checked_visibility(visibility)
    dim = 2**state.n
    mixed = visibility * state.rho + (1.0 - visibility) * np.eye(dim, dtype=complex) / dim
    return QuantumState(state.n, mixed)
