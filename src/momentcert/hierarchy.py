"""Symbolic moment-matrix structures and numeric affine PSD families.

:func:`build_structure` compiles a scenario and hierarchy level into the
symbolic matrix: its basis words, each a sorted letter tuple, and its index
maps.  Entry (i, j) is the canonical product of words i and j, the unit on
the diagonal; each product above the diagonal is formed once, and the
structure's support keeps only which distinct moment each position holds,
with :func:`~momentcert.algebra.moment_kind` telling an observable moment
from a free variable.  All variable identifications implied by commutation
and idempotence happen structurally, because identical canonical words have
identical letters.  :func:`structure_report` reads the entries back from
the support.

:func:`assemble` then substitutes measured values for the pinned observable
moments and emits the affine family Gamma(v) = gamma0 + sum_k v_k G_k whose
positive-semidefinite completion the solver searches for.  Constructing a
malformed family raises ValueError, so every reader gets a well-formed one.

Only the structure is compiled, once per scenario and level, and it holds
every index map.  A choice of pinned keys is a mask over its moments, so
the family of any pin set is two masked slices of the structure's support
and a scatter of the table's values into gamma0; no dense 0/1 pattern is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

import numpy as np

from .algebra import (
    Moment,
    MomentKey,
    Scenario,
    checked_integer,
    generate_basis,
    key_document,
    key_name,
    moment_kind,
    scenario_document,
    word_product,
)


@dataclass(frozen=True, eq=False)
class MomentMatrixStructure:
    """Symbolic moment matrix for one scenario and hierarchy level: words and index maps.

    ``words`` is the basis of :func:`~momentcert.algebra.generate_basis`,
    each word its sorted letter tuple; entry (i, j) is the canonical product
    of words i and j, and the unit on the diagonal.  ``observables`` and
    ``freevars`` list the distinct products above the diagonal of each
    :func:`~momentcert.algebra.moment_kind` in order of first appearance in
    a row-major scan.  ``support`` is the one map from positions to moments:
    ``(rows, cols, moment)`` lists every position above the diagonal once,
    grouped by ``moment`` (into ``observables + freevars``), row-major in
    each group; the matrix is symmetric by construction.
    ``observable_settings[p, k]`` is party p + 1's setting in key k, or -1.
    Both are read-only ``intp`` arrays, because structures are shared, and
    structures hash by identity.
    """

    scenario: Scenario
    level: int
    words: tuple[Moment, ...]
    observables: tuple[MomentKey, ...]
    freevars: tuple[Moment, ...]
    support: tuple[np.ndarray, np.ndarray, np.ndarray]
    observable_settings: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.words)


@lru_cache(maxsize=8, typed=True)
def build_structure(scenario: Scenario, level: int) -> MomentMatrixStructure:
    """Compile the symbolic moment matrix and its index maps for ``scenario`` at ``level``, once."""
    words = tuple(generate_basis(scenario, level))
    # The diagonal is the unit, and off it no product is: the basis words are
    # distinct.  Each product above it is formed once, in row-major order.
    first = {}
    seen = [first.setdefault(word_product(u, w), len(first))
            for i, u in enumerate(words) for w in words[i + 1:]]
    observables = tuple(m for m in first if moment_kind(m) == "observable")
    freevars = tuple(m for m in first if moment_kind(m) == "freevar")
    number = {m: k for k, m in enumerate(observables + freevars)}
    moment = np.array([number[m] for m in first], dtype=np.intp)[seen]
    order = np.argsort(moment, kind="stable")
    support = np.stack((*np.triu_indices(len(words), 1), moment))[:, order]
    settings = np.array([[dict(key).get(party, -1) for key in observables]
                         for party in range(1, scenario.parties + 1)], dtype=np.intp)
    support.flags.writeable = settings.flags.writeable = False
    return MomentMatrixStructure(
        scenario=scenario,
        level=int(level),  # checked by generate_basis
        words=words,
        observables=observables,
        freevars=freevars,
        support=tuple(support),
        observable_settings=settings,
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
        if self.kind == "max_bodies":
            object.__setattr__(self, "bodies", checked_integer(self.bodies, "max_bodies body count", 0))
        if self.kind == "explicit":
            if self.keys is None:
                raise ValueError("explicit policy needs a key set")
            object.__setattr__(self, "keys", frozenset(self.keys))

    @classmethod
    def all(cls) -> "PinPolicy":
        return cls("all")

    @classmethod
    def max_bodies(cls, k: int) -> "PinPolicy":
        return cls("max_bodies", bodies=k)

    @classmethod
    def explicit(cls, keys) -> "PinPolicy":
        return cls("explicit", keys=keys)

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


@dataclass(frozen=True)
class AffineMatrixFamily:
    """Numeric affine family Gamma(v) = gamma0 + sum_k v_k G_k.

    ``gamma0`` carries the unit diagonal and the pinned data.  ``support``
    is ``(rows, cols, vidx)``: G_k is 1 at (rows[p], cols[p]) and its mirror
    for every p with vidx[p] = k.  ``variables`` names each variable by its
    letter tuple: the unpinned observables, then the free variables.  They
    carry no bounds: where Gamma(v) is positive semidefinite, its unit
    diagonal already keeps every |v_k| <= 1, the range of a moment of
    commuting involutions.

    Construction raises ValueError for a malformed family: gamma0 not a
    square 2-D array of real numbers, empty, not finite or not exactly
    symmetric; a support not three 1-D integer arrays of one length; a
    support position outside the matrix, on its diagonal or repeated in
    either orientation; a variable outside range(num_variables) or with no
    position; gamma0 nonzero on a support.  So ``combine`` and ``inner``
    are adjoint: <combine(v), Z> = v . inner(Z) for symmetric Z.  The support is stored
    grouped by variable in a stable order, as given if already grouped.
    gamma0 and the support are stored read-only, each writable array as a
    copy, so no later write to the caller's arrays undoes these checks.
    Both maps run on ``flat_support``: rows r n + c and c n + r of flat positions.
    """

    gamma0: np.ndarray
    support: tuple[np.ndarray, np.ndarray, np.ndarray]
    variables: tuple[Moment, ...]
    pinned_keys: tuple[MomentKey, ...] = ()
    pinned_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flat_support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma0 = np.asarray(self.gamma0)
        rows, cols, vidx = (np.asarray(a) for a in self.support)
        if gamma0.ndim != 2 or gamma0.shape[0] != gamma0.shape[1] or gamma0.dtype.kind not in "iuf":
            raise ValueError("gamma0 must be a square 2-D array of real numbers")
        if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in (rows, cols, vidx)) or not (
            rows.size == cols.size == vidx.size
        ):
            raise ValueError("support must be three 1-D integer arrays of one length")
        # bincount takes no uint64; a value beyond intp wraps negative, out of range.
        rows, cols, vidx = (a.astype(np.intp, copy=False) for a in (rows, cols, vidx))
        n, nvars = len(gamma0), self.num_variables
        if not (np.isfinite(gamma0).all() and np.array_equal(gamma0, gamma0.T)):
            raise ValueError("gamma0 must be finite and symmetric")
        if n == 0:
            raise ValueError("degenerate family of dimension 0")
        inside = (0 <= rows) & (rows < n) & (0 <= cols) & (cols < n)
        if not (inside & (rows != cols)).all():
            raise ValueError("support has a position outside the matrix or on its diagonal")
        if not ((0 <= vidx) & (vidx < nvars)).all():
            raise ValueError("support names a variable outside range(num_variables)")
        # Counted, not np.unique, which imports numpy.ma (about 1.7 MB).
        if np.bincount(np.minimum(rows, cols) * n + np.maximum(rows, cols)).max(initial=0) > 1:
            raise ValueError("support repeats a position")
        if not np.bincount(vidx, minlength=nvars).all():
            raise ValueError("family has a variable with empty support")
        if gamma0[rows, cols].any():
            raise ValueError("gamma0 overlaps a variable support")
        if (vidx[1:] < vidx[:-1]).any():
            order = np.argsort(vidx, kind="stable")
            rows, cols, vidx = rows[order], cols[order], vidx[order]
        arrays = [a.copy() if a.flags.writeable else a for a in (gamma0, rows, cols, vidx)]
        arrays.append(np.stack((rows * n + cols, cols * n + rows)))
        for array in arrays:
            array.flags.writeable = False
        object.__setattr__(self, "gamma0", arrays[0])
        object.__setattr__(self, "support", tuple(arrays[1:4]))
        object.__setattr__(self, "flat_support", arrays[4])

    @property
    def dim(self) -> int:
        return self.gamma0.shape[0]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def combine(self, v: np.ndarray) -> np.ndarray:
        """sum_k v_k G_k."""
        out = np.zeros((self.dim, self.dim))
        # put repeats the values over the second row of positions.
        out.put(self.flat_support, v.take(self.support[2]))
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
        weights = np.add(*z.take(self.flat_support))
        return np.bincount(self.support[2], weights=weights, minlength=self.num_variables)


def assemble(
    structure: MomentMatrixStructure,
    table,
    policy: PinPolicy | None = None,
) -> AffineMatrixFamily:
    """Substitute pinned data into the structure and emit the affine family.

    ``table`` must supply a value for every key that ``policy`` (default:
    every observable) selects.  Its values are read as it stores them,
    already checked into [-1, 1], and its sigmas are not read.  The pinned
    positions and the family's support, already grouped, are the slices of
    the structure's support that the policy's mask over its moments selects.
    Pinning every observable shares the structure's key and variable tuples.
    """
    if policy is None:
        policy = PinPolicy.all()
    if policy.kind == "explicit":
        stray = policy.keys - set(structure.observables)
        if stray:
            names = sorted(key_name(k) for k in stray)
            raise ValueError(f"explicit pin keys not in structure: {names}")

    moments = structure.observables + structure.freevars
    pinned = np.zeros(len(moments), dtype=bool)
    pinned[: len(structure.observables)] = [policy.selects(key) for key in structure.observables]
    shared = pinned.sum() == len(structure.observables)
    pinned_keys = structure.observables if shared else tuple(compress(moments, pinned))
    variables = structure.freevars if shared else tuple(compress(moments, ~pinned))
    number = np.where(pinned, np.cumsum(pinned), np.cumsum(~pinned)) - 1
    rows, cols, moment = structure.support
    at = pinned[moment]
    pinned_values = np.array([table.value(key) for key in pinned_keys], dtype=float)
    gamma0 = np.eye(structure.dim)
    gamma0[rows[at], cols[at]] = gamma0[cols[at], rows[at]] = pinned_values[number[moment[at]]]
    return AffineMatrixFamily(
        gamma0=gamma0,
        support=(rows[~at], cols[~at], number[moment[~at]]),
        variables=variables,
        pinned_keys=pinned_keys,
        pinned_values=pinned_values,
    )


def _entry_document(letters: Moment) -> dict:
    kind = moment_kind(letters)
    if kind == "unit":
        return {"kind": kind}
    return {"kind": kind, ("key" if kind == "observable" else "var"): key_name(letters)}


def structure_report(structure: MomentMatrixStructure) -> dict:
    """JSON-ready description of a structure.

    Row and column indices are reported 1-based to match the conventional
    printed-matrix numbering.
    """
    moments = structure.observables + structure.freevars
    rows, cols, moment = (a.tolist() for a in structure.support)
    cells = [(i, i, ()) for i in range(structure.dim)]
    cells += [(i, j, moments[m]) for i, j, m in zip(rows, cols, moment)]
    entries = [{"row": i + 1, "col": j + 1, **_entry_document(letters)} for i, j, letters in sorted(cells)]
    return {
        "schema_version": 1,
        "kind": "structure",
        "scenario": scenario_document(structure.scenario),
        "level": structure.level,
        "dim": structure.dim,
        "words": [key_name(w) or "I" for w in structure.words],
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
