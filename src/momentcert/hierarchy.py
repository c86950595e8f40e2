"""Symbolic moment-matrix structures and numeric affine PSD families.

:func:`build_structure` compiles a scenario and hierarchy level into the
symbolic matrix: entry (i, j) records what the canonical product of basis
words i and j refers to (unit, observable moment, or free variable).  All
variable identifications implied by commutation and idempotence happen
structurally, because identical canonical words share one reference.

:func:`assemble` then substitutes measured values for the pinned observable
moments and emits the affine family Gamma(v) = gamma0 + sum_k v_k G_k whose
positive-semidefinite completion the solver searches for.

Both steps compile once.  A structure is built once per scenario and level,
and the index maps of a family (which entries each pinned key fills, and the
support of each variable) once per structure and choice of pinned keys.
Assembling a table is then a scatter of its values into gamma0; no dense
0/1 pattern is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .algebra import (
    MomentKey,
    MomentRef,
    OperatorWord,
    Scenario,
    classify,
    generate_basis,
    key_document,
    key_name,
    scenario_document,
    word_product,
)


@dataclass(frozen=True, eq=False)
class MomentMatrixStructure:
    """Symbolic moment matrix for one scenario and hierarchy level.

    ``entries`` stores the upper triangle only (0-based ``(i, j)`` with
    ``i <= j``), read-only because structures are shared; the matrix is
    symmetric by construction.  ``observables`` and ``freevars`` list the
    distinct keys and variable ids in order of first appearance in a
    row-major scan of the upper triangle.  Structures hash by identity.
    """

    scenario: Scenario
    level: int
    words: tuple[OperatorWord, ...]
    entries: Mapping[tuple[int, int], MomentRef]
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


@lru_cache(maxsize=8)
def build_structure(scenario: Scenario, level: int) -> MomentMatrixStructure:
    """Compile the symbolic moment matrix for ``scenario`` at ``level``, once."""
    words = tuple(generate_basis(scenario, level))
    entries = {
        (i, j): classify(word_product(words[i], words[j]))
        for i in range(len(words))
        for j in range(i, len(words))
    }
    return MomentMatrixStructure(
        scenario=scenario,
        level=level,
        words=words,
        entries=MappingProxyType(entries),
        observables=tuple(dict.fromkeys(r.key for r in entries.values() if r.is_observable)),
        freevars=tuple(dict.fromkeys(r.var for r in entries.values() if r.is_freevar)),
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

    ``gamma0`` carries the unit diagonal and the pinned data.  ``support``
    is ``(rows, cols, vidx)``: G_k is 1 at (rows[p], cols[p]) and its mirror
    for every p with vidx[p] = k, positions grouped by variable, each group
    in row-major order (see :func:`support_arrays`).  Supports are pairwise
    disjoint and never touch the diagonal, so together with the pinned
    positions they partition the off-diagonal entry set.  ``bounds`` is a
    (K, 2) array of per-variable intervals, [-1, 1] by default: every
    canonical word is a product of commuting involutions, so its moment in
    any realization lies there.
    """

    gamma0: np.ndarray
    support: tuple[np.ndarray, np.ndarray, np.ndarray]
    bounds: np.ndarray
    variables: tuple[VariableLabel, ...]
    pinned_keys: tuple[MomentKey, ...] = ()
    pinned_values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def dim(self) -> int:
        return self.gamma0.shape[0]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def pinned(self) -> tuple[tuple[MomentKey, float], ...]:
        return tuple(zip(self.pinned_keys, self.pinned_values.tolist()))

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        """The dense patterns G_k, formed from ``support`` on each access."""
        rows, cols, vidx = self.support
        patterns = np.zeros((self.num_variables, self.dim, self.dim))
        patterns[vidx, rows, cols] = patterns[vidx, cols, rows] = 1.0
        patterns.flags.writeable = False
        return tuple(patterns)

    def combine(self, v: np.ndarray) -> np.ndarray:
        """sum_k v_k G_k."""
        rows, cols, vidx = self.support
        out = np.zeros((self.dim, self.dim))
        out[rows, cols] = out[cols, rows] = v[vidx]
        return out

    def gamma(self, v: np.ndarray) -> np.ndarray:
        """Gamma(v) = gamma0 + sum_k v_k G_k."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_variables,):
            raise ValueError(
                f"expected {self.num_variables} variable values, got shape {v.shape}"
            )
        return self.gamma0 + self.combine(v)

    def inner(self, z: np.ndarray) -> np.ndarray:
        """<G_k, Z> for every k."""
        rows, cols, vidx = self.support
        weights = z[rows, cols] + z[cols, rows]
        return np.bincount(vidx, weights=weights, minlength=self.num_variables)

    def variable_names(self) -> tuple[str, ...]:
        # Shared by the families of one layout, which share their labels.
        return _names(self.variables)


@lru_cache(maxsize=32)
def _names(variables: tuple[VariableLabel, ...]) -> tuple[str, ...]:
    return tuple(key_name(payload) for _, payload in variables)


def _index_arrays(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(rows, cols, g)`` of groups of ``(i, j)`` positions, in order."""
    pairs = np.array([ij for group in groups for ij in group], dtype=np.intp).reshape(-1, 2).T.copy()
    owner = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    pairs.flags.writeable = owner.flags.writeable = False
    return pairs[0], pairs[1], owner


def support_arrays(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``support`` of a hand-built family's 0/1 patterns."""
    return _index_arrays([np.argwhere(np.triu(pattern, 1)) for pattern in basis])


@lru_cache(maxsize=32)
def _layout(structure: MomentMatrixStructure, pinned: tuple[bool, ...]):
    """Index maps of ``structure`` when ``pinned`` flags its pinned observables.

    Returns the pinned keys, the variable labels (unpinned observables, then
    free variables), the pinned positions owned by key index, and the support.
    """
    observables = structure.observable_positions()
    freevars = structure.freevar_positions()
    keys = list(zip(structure.observables, pinned))
    pinned_keys = tuple(key for key, is_pinned in keys if is_pinned)
    variables = tuple(("observable", key) for key, is_pinned in keys if not is_pinned)
    groups = [observables[key] for _, key in variables] + list(freevars.values())
    variables += tuple(("freevar", var) for var in freevars)
    pins = _index_arrays([observables[key] for key in pinned_keys])
    return pinned_keys, variables, pins, _index_arrays(groups)


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
        Must supply a value for every key the policy selects.  The table
        validated its values; here they are only clipped to [-1, 1].
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

    chosen = [policy.selects(key) for key in structure.observables]
    selected = [key for key, is_chosen in zip(structure.observables, chosen) if is_chosen]
    values = np.clip(np.array([table.value(key) for key in selected], dtype=float), -1.0, 1.0)
    # Bounds of the widened keys, looked up by payload (no key is a free variable id).
    widened = {}
    if interval_sigmas is not None:
        for key, value in zip(selected, values.tolist()):
            sigma = table.sigma(key)
            if sigma is not None and sigma > 0.0:
                half = interval_sigmas * sigma
                widened[key] = (max(-1.0, value - half), min(1.0, value + half))
    pinned = [is_chosen and key not in widened for key, is_chosen in zip(structure.observables, chosen)]
    pinned_keys, variables, (rows, cols, owner), support = _layout(structure, tuple(pinned))
    pinned_values = values[np.array([key not in widened for key in selected], dtype=bool)]
    gamma0 = np.eye(structure.dim)
    gamma0[rows, cols] = gamma0[cols, rows] = pinned_values[owner]
    bounds = [widened.get(payload, (-1.0, 1.0)) for _, payload in variables]
    return AffineMatrixFamily(
        gamma0=gamma0,
        support=support,
        bounds=np.array(bounds, dtype=float).reshape(-1, 2),
        variables=variables,
        pinned_keys=pinned_keys,
        pinned_values=pinned_values,
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
        "scenario": scenario_document(structure.scenario),
        "level": structure.level,
        "dim": structure.dim,
        "words": [w.name for w in structure.words],
        "entries": entries,
        "observables": [
            {"name": key_name(key), **key_document(key)} for key in structure.observables
        ],
        "freevars": [key_name(var) for var in structure.freevars],
        "counts": {
            "observables": len(structure.observables),
            "freevars": len(structure.freevars),
        },
    }
