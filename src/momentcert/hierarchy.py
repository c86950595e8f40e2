"""Symbolic moment-matrix structures and numeric affine PSD families.

:func:`build_structure` compiles a scenario and hierarchy level into the
symbolic matrix: entry (i, j) records what the canonical product of basis
words i and j refers to (unit, observable moment, or free variable).  All
variable identifications implied by commutation and idempotence happen
structurally, because identical canonical words share one reference.

:func:`assemble` then substitutes measured values for the pinned observable
moments and emits the affine family Gamma(v) = gamma0 + sum_k v_k G_k whose
positive-semidefinite completion the solver searches for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from sys import intern

import numpy as np

from .algebra import (
    MomentKey,
    MomentRef,
    OperatorWord,
    Scenario,
    classify,
    generate_basis,
    key_name,
    word_product,
)
from .errors import MissingMoment, RangeError

# Tolerated overshoot when validating moment values against [-1, 1]; the
# one such tolerance, shared with quantum and analysis.
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class MomentMatrixStructure:
    """Symbolic moment matrix for one scenario and hierarchy level.

    ``entries`` stores the upper triangle only (0-based ``(i, j)`` with
    ``i <= j``); the matrix is symmetric by construction.  ``observables``
    and ``freevars`` list the distinct keys and variable ids in order of
    first appearance in a row-major scan of the upper triangle.
    """

    scenario: Scenario
    level: int
    words: tuple[OperatorWord, ...]
    entries: dict[tuple[int, int], MomentRef]
    observables: tuple[MomentKey, ...]
    freevars: tuple[tuple, ...]

    @property
    def dim(self) -> int:
        return len(self.words)

    def ref_at(self, i: int, j: int) -> MomentRef:
        """Entry reference with symmetric access (0-based indices)."""
        if i > j:
            i, j = j, i
        return self.entries[(i, j)]

    def word_at(self, i: int, j: int) -> OperatorWord:
        """The canonical word generating entry (i, j)."""
        return word_product(self.words[i], self.words[j])

    def observable_positions(self) -> dict[MomentKey, list[tuple[int, int]]]:
        positions: dict[MomentKey, list[tuple[int, int]]] = {k: [] for k in self.observables}
        for (i, j), ref in self.entries.items():
            if ref.is_observable:
                positions[ref.key].append((i, j))
        return positions

    def freevar_positions(self) -> dict[str, list[tuple[int, int]]]:
        positions: dict[tuple, list[tuple[int, int]]] = {v: [] for v in self.freevars}
        for (i, j), ref in self.entries.items():
            if ref.is_freevar:
                positions[ref.var].append((i, j))
        return positions


def build_structure(scenario: Scenario, level: int) -> MomentMatrixStructure:
    """Compile the symbolic moment matrix for ``scenario`` at ``level``."""
    words = tuple(generate_basis(scenario, level))
    entries: dict[tuple[int, int], MomentRef] = {}
    observables: list[MomentKey] = []
    freevars: list[tuple] = []
    seen_obs: set[MomentKey] = set()
    seen_var: set[tuple] = set()
    for i in range(len(words)):
        for j in range(i, len(words)):
            ref = classify(word_product(words[i], words[j]))
            entries[(i, j)] = ref
            if ref.is_observable and ref.key not in seen_obs:
                seen_obs.add(ref.key)
                observables.append(ref.key)
            elif ref.is_freevar and ref.var not in seen_var:
                seen_var.add(ref.var)
                freevars.append(ref.var)
    return MomentMatrixStructure(
        scenario=scenario,
        level=level,
        words=words,
        entries=entries,
        observables=tuple(observables),
        freevars=tuple(freevars),
    )


@dataclass(frozen=True)
class PinPolicy:
    """Which observable moments are fixed to data when assembling.

    ``all`` pins every observable key; ``max_bodies`` pins exactly the keys
    involving at most ``k`` parties (a full-body pin is needed for states
    whose correlations live in the highest-order correlator); ``explicit``
    pins a given key set, which must be a subset of the structure's
    observables.
    """

    kind: str
    bodies: int | None = None
    keys: frozenset | None = None

    def __post_init__(self):
        if self.kind not in ("all", "max_bodies", "explicit"):
            raise ValueError(f"unknown pin policy kind {self.kind!r}")
        if self.kind == "max_bodies" and (self.bodies is None or self.bodies < 0):
            raise ValueError("max_bodies policy needs a nonnegative body count")
        if self.kind == "explicit" and self.keys is None:
            raise ValueError("explicit policy needs a key set")

    @classmethod
    def all(cls) -> "PinPolicy":
        return cls("all")

    @classmethod
    def max_bodies(cls, k: int) -> "PinPolicy":
        return cls("max_bodies", bodies=k)

    @classmethod
    def explicit(cls, keys) -> "PinPolicy":
        return cls("explicit", keys=frozenset(keys))

    def selects(self, key: MomentKey) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "max_bodies":
            return len(key) <= self.bodies
        return key in self.keys

    def describe(self) -> dict:
        if self.kind == "max_bodies":
            return {"kind": "max_bodies", "bodies": self.bodies}
        if self.kind == "explicit":
            return {
                "kind": "explicit",
                "keys": sorted(key_name(k) for k in self.keys),
            }
        return {"kind": "all"}


# Variable labels in an assembled family: ("observable", key) for unpinned
# observables, ("freevar", var_id) for inherently unobservable moments.
VariableLabel = tuple[str, object]


@dataclass(frozen=True)
class AffineMatrixFamily:
    """Numeric affine family Gamma(v) = gamma0 + sum_k v_k G_k.

    ``gamma0`` carries the unit diagonal and the pinned data; each ``basis``
    matrix is a symmetric 0/1 pattern marking the entry positions of one
    free variable.  Supports are pairwise disjoint and never touch the
    diagonal, so together with the pinned positions they partition the
    off-diagonal entry set.  ``bounds`` is a (K, 2) array of per-variable
    intervals, [-1, 1] by default: every canonical word is a product of
    commuting involutions, so its moment in any realization lies there.
    """

    gamma0: np.ndarray
    basis: tuple[np.ndarray, ...]
    bounds: np.ndarray
    variables: tuple[VariableLabel, ...]
    pinned: tuple[tuple[MomentKey, float], ...]

    @property
    def dim(self) -> int:
        return self.gamma0.shape[0]

    @property
    def num_variables(self) -> int:
        return len(self.basis)

    def gamma(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_variables,):
            raise ValueError(
                f"expected {self.num_variables} variable values, got shape {v.shape}"
            )
        out = self.gamma0.copy()
        for value, pattern in zip(v, self.basis):
            out += value * pattern
        return out

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper-triangle positions of every variable, grouped by variable.

        ``(rows, cols, vidx)``: position p is entry (rows[p], cols[p]) of
        variable vidx[p].  Derived once per family by :func:`support_arrays`.
        """
        return support_arrays(self.basis)

    def variable_names(self) -> list[str]:
        # Interned, so every report of a scenario shares one copy of each name.
        return [intern(key_name(payload)) for _, payload in self.variables]


def support_arrays(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, vidx)`` of the 0/1 patterns' upper-triangle entries.

    Positions are listed variable by variable, each in row-major order.
    """
    upper = np.triu_indices(basis[0].shape[0] if basis else 0, 1)
    hits = [np.flatnonzero(pattern[upper]) for pattern in basis]
    at = np.concatenate(hits) if hits else np.zeros(0, dtype=int)
    sizes = np.array([h.size for h in hits], dtype=int)
    arrays = (upper[0][at], upper[1][at], np.repeat(np.arange(len(hits)), sizes))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _checked_value(key: MomentKey, value: float) -> float:
    if not np.isfinite(value) or abs(value) > 1.0 + VALUE_TOL:
        raise RangeError(f"moment {key_name(key)} = {value!r} outside [-1, 1]")
    return float(np.clip(value, -1.0, 1.0))


def assemble(
    structure: MomentMatrixStructure,
    table,
    policy: PinPolicy | None = None,
    interval_sigmas: float | None = None,
) -> AffineMatrixFamily:
    """Substitute pinned data into the structure and emit the affine family.

    Parameters
    ----------
    structure : MomentMatrixStructure
    table : CorrelatorTable
        Must supply a value for every key the policy selects.
    policy : PinPolicy
        Defaults to pinning every observable moment.
    interval_sigmas : float, optional
        When given, a pinned key whose table entry carries an uncertainty
        sigma is not fixed but turned into a bounded variable on
        ``value +- interval_sigmas * sigma`` (clipped to [-1, 1]).  Keys
        without a sigma stay point-pinned.
    """
    if policy is None:
        policy = PinPolicy.all()
    if policy.kind == "explicit":
        stray = policy.keys - set(structure.observables)
        if stray:
            names = sorted(key_name(k) for k in stray)
            raise ValueError(f"explicit pin keys not in structure: {names}")

    dim = structure.dim
    gamma0 = np.eye(dim)
    obs_positions = structure.observable_positions()
    var_positions = structure.freevar_positions()

    pinned: list[tuple[MomentKey, float]] = []
    variables: list[VariableLabel] = []
    patterns: list[np.ndarray] = []
    bounds: list[tuple[float, float]] = []

    def add_variable(label: VariableLabel, positions, lo: float, hi: float) -> None:
        pattern = np.zeros((dim, dim))
        for i, j in positions:
            pattern[i, j] = 1.0
            pattern[j, i] = 1.0
        variables.append(label)
        patterns.append(pattern)
        bounds.append((lo, hi))

    for key in structure.observables:
        positions = obs_positions[key]
        if not policy.selects(key):
            add_variable(("observable", key), positions, -1.0, 1.0)
            continue
        if key not in table:
            raise MissingMoment(key)
        value = _checked_value(key, table.value(key))
        sigma = table.sigma(key)
        if interval_sigmas is not None and sigma is not None and sigma > 0.0:
            half = interval_sigmas * sigma
            lo = max(-1.0, value - half)
            hi = min(1.0, value + half)
            add_variable(("observable", key), positions, lo, hi)
            continue
        pinned.append((key, value))
        for i, j in positions:
            gamma0[i, j] = value
            gamma0[j, i] = value

    for var in structure.freevars:
        add_variable(("freevar", var), var_positions[var], -1.0, 1.0)

    bounds_arr = np.array(bounds, dtype=float).reshape(len(patterns), 2)
    return AffineMatrixFamily(
        gamma0=gamma0,
        basis=tuple(patterns),
        bounds=bounds_arr,
        variables=tuple(variables),
        pinned=tuple(pinned),
    )


def _ref_document(ref: MomentRef) -> dict:
    if ref.is_unit:
        return {"kind": "unit"}
    if ref.is_observable:
        return {"kind": "observable", "key": key_name(ref.key)}
    return {"kind": "freevar", "var": key_name(ref.var)}


def structure_report(structure: MomentMatrixStructure) -> dict:
    """JSON-ready description of a structure.

    Row and column indices are reported 1-based to match the conventional
    printed-matrix numbering.
    """
    entries = []
    for (i, j), ref in sorted(structure.entries.items()):
        entries.append({"row": i + 1, "col": j + 1, **_ref_document(ref)})
    return {
        "schema_version": 1,
        "kind": "structure",
        "scenario": {
            "parties": structure.scenario.parties,
            "settings": structure.scenario.settings,
            "outcomes": structure.scenario.outcomes,
        },
        "level": structure.level,
        "dim": structure.dim,
        "words": [w.name for w in structure.words],
        "entries": entries,
        "observables": [
            {
                "name": key_name(key),
                "parties": [party for party, _ in key],
                "settings": [setting for _, setting in key],
            }
            for key in structure.observables
        ],
        "freevars": [key_name(var) for var in structure.freevars],
        "counts": {
            "observables": len(structure.observables),
            "freevars": len(structure.freevars),
        },
    }
