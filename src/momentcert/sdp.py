"""Feasibility solver for affine families of real symmetric matrices.

The question "is there a v with Gamma(v) = gamma0 + sum_k v_k G_k >= 0" is
answered by maximizing lambda_min(Gamma(v)), the semidefinite program

    max t   subject to   gamma0 + sum_k v_k G_k - t I >= 0,

whose dual is

    min <gamma0, Z>   subject to   Tr Z = 1,  <G_k, Z> = 0,  Z >= 0.

Both are solved together by a primal-dual interior-point method with the HKM
search direction (Helmberg, Rendl, Vanderbei & Wolkowicz 1996) and
Mehrotra's predictor-corrector steps, started from the strictly feasible
pair Z = I/n, v = the centre of the variable box.  The solve stops when the
relative duality gap reaches GAP_TOL.  On boundary-feasible data, such as
product states with optimum exactly 0, the Newton system degenerates first;
the solve then stops at the last iterate (the stall exit): when the Schur
complement is no longer positive definite, or when a step shrinks below
MIN_STEP.  The Schur complement of each Newton step is assembled from
low-rank products: a variable with s entry positions makes X G_k S^-1 a
product of rank 2s, and variables of one support size are taken in blocks
whose transient memory stays bounded.  The complement itself holds
(K + 1)^2 floats for K variables; its Cholesky factorization is only the
positive-definiteness test, and the predictor and corrector directions come
from direct solves with it.  The maps sum_k v_k G_k and <G_k, Z> are the
family's own (:meth:`AffineMatrixFamily.combine` and ``.inner``); the solver
adds only the program around them.

The first solve ignores the variable box.  Its maximizer is clipped to the
box and lambda_star = lambda_min(Gamma(v_star)) recomputed, so lambda_star is
always an attained value.  When the clipping loses value, the maximizer has
left the box (possible only when the optimum is negative, or with interval
pins), and a second solve adds the box as linear constraints
lo_k <= v_k <= hi_k; variables with a zero-width box are enforced by the
clipping alone.  At convergence lambda_star is therefore the optimum over
the box, and the certificate value <gamma0, Z> from the first solve is an
upper bound on it, equal to it when the box does not bind.

Infeasibility is never reported on optimizer convergence alone.  A dual
certificate is a symmetric Z >= 0 with Tr Z = 1 and <G_k, Z> = 0 for every
variable direction; for any v whatsoever,

    lambda_min(Gamma(v)) <= <Gamma(v), Z> = <gamma0, Z>,

so <gamma0, Z> < 0 proves that no completion is positive semidefinite.  The
certificate is checked by :func:`verify_certificate` using nothing but an
eigendecomposition and inner products, independently of the solver.

The same interior-point method also solves a second program.  Two families
that share their variables and differ in gamma0 mix into
gamma0(p) = gamma0(low) + p Delta, with Delta = gamma0(high) - gamma0(low);
:func:`maximize_visibility` finds the largest p for which

    gamma0(low) + p Delta + sum_k v_k G_k + margin I >= 0

for some unbounded v, in one solve.  Its objective matrix is -Delta in
place of I, and its start p = 0, v = 0.  Past that p the optimum of the
unboxed lambda program lies below -margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import AffineMatrixFamily

FEASIBLE = "FEASIBLE"
CERTIFIED_INFEASIBLE = "CERTIFIED_INFEASIBLE"
UNDECIDED = "UNDECIDED"

# A point counts as a feasibility witness when lambda_min is above this.
WITNESS_TOL = 1e-8
# The interior-point solve stops once the relative duality gap is this small.
GAP_TOL = 1e-9
# ... provided the residual of the linear constraints on Z is this small.
# With A_0 = I the start Z = I/n satisfies them and the steps keep them up
# to rounding; otherwise the steps have to reach them first.
FEAS_TOL = 1e-6
# Stall exit: a step shorter than this ends the solve.
MIN_STEP = 1e-8
# Fraction of the distance to the cone boundary that each step covers.
STEP_FRACTION = 0.98
# Entries per array in a block of the Schur assembly; its transient memory
# is a few times this many floats, whatever the family's size.
SCHUR_BLOCK = 1 << 16


@dataclass(frozen=True)
class SolverConfig:
    """Settings of :func:`maximize_lambda_min` and :func:`maximize_visibility`.

    ``max_iters`` caps the number of Newton steps; the solve normally stops
    well before on its gap or stall exit.  ``margin`` is the decision
    threshold separating a certified negative value from numerical noise;
    it must stay well above ``tol_cert``, the tolerance at which
    certificates are verified.  ``restarts`` belonged to an earlier
    first-order solver; it is still accepted and validated but ignored.
    """

    max_iters: int = 5000
    tol_cert: float = 1e-7
    margin: float = 1e-3
    restarts: int = 4

    def __post_init__(self):
        for name in ("max_iters", "tol_cert", "margin", "restarts"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.tol_cert <= 0.0:
            raise ValueError("tol_cert must be positive")
        if self.margin <= self.tol_cert:
            raise ValueError("margin must exceed tol_cert")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class DualCertificate:
    """An infeasibility certificate: value = <gamma0, Z>."""

    matrix: np.ndarray
    value: float


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    lambda_star: float
    v_star: np.ndarray
    certificate: DualCertificate | None
    iterations: int


def min_eigen(matrix) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and np.abs(m - m.T).max() > 1e-10:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(m)
    return float(w[0]), v[:, 0]


class _FamilyOps:
    """The semidefinite program solved over one affine family,

        max y_0   subject to   S = C - y_0 A_0 + sum_k v_k G_k >= 0,

    with its objective matrix A_0, constant matrix C, variable box and the
    blocks of its Schur assembly.  The defaults A_0 = I and C = gamma0 give
    the lambda_min program, with y_0 = t.  The maps sum_k v_k G_k and
    <G_k, Z> are the family's own.
    """

    def __init__(
        self,
        family: AffineMatrixFamily,
        a0: np.ndarray | None = None,
        c: np.ndarray | None = None,
    ):
        self.family = family
        self.dim = family.dim
        self.a0 = np.eye(self.dim) if a0 is None else np.asarray(a0, dtype=float)
        self.c = np.asarray(family.gamma0 if c is None else c, dtype=float)
        self.nvars = family.num_variables
        rows, cols, vidx = family.support
        counts = np.bincount(vidx, minlength=self.nvars)
        # Positions are grouped by variable; starts[k] is where k's group begins.
        self.starts = np.cumsum(counts) - counts
        if self.nvars and (counts == 0).any():
            raise ValueError("family has a variable with empty support")
        if rows.size and any(np.abs(m[rows, cols]).max() > 0.0 for m in (self.c, self.a0)):
            raise ValueError("gamma0 or the objective overlaps a variable support")
        bounds = np.asarray(family.bounds, dtype=float).reshape(self.nvars, 2)
        self.lo = bounds[:, 0]
        self.hi = bounds[:, 1]
        if not (np.isfinite(bounds).all() and (self.lo <= self.hi).all()):
            raise ValueError("family bounds must be finite intervals")
        # Variables whose box has an interior; a zero-width box is enforced
        # by clipping alone.
        self.boxed = np.flatnonzero(self.hi > self.lo)
        # Blocks (ks, a, b) for the Schur assembly: the variables ks share
        # one support size s, and row j of the (len(ks), 2s) arrays a and b
        # lists (r..., c...) and (c..., r...) over the positions of ks[j].
        # Each block is small enough that its arrays of dim^2, 2s dim or E
        # entries per variable (E = number of variable positions) hold at
        # most SCHUR_BLOCK entries.
        self.blocks = []
        for size in sorted(set(counts.tolist())):
            ks = np.flatnonzero(counts == size)
            per_variable = max(self.dim, 2 * size) * self.dim
            width = max(1, SCHUR_BLOCK // max(per_variable, rows.size))
            at = self.starts[ks, None] + np.arange(size)
            r, c = rows[at], cols[at]
            a, b = np.hstack((r, c)), np.hstack((c, r))
            for j in range(0, ks.size, width):
                self.blocks.append((ks[j:j + width], a[j:j + width], b[j:j + width]))

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """Matrix-block part of the HKM Schur complement M_ij = Tr(A_i X A_j S^-1).

        The matrix parts of the constraints are A_0 and A_k = -G_k, so
        M_0k = -<G_k, X A_0 S^-1> and M_kl = Tr(G_k X G_l S^-1) =
        <G_k, X G_l S^-1> for k, l >= 1.  With the positions (r_p, c_p) of
        variable l and X symmetric, X G_l S^-1 = X[a, :]' S^-1[b, :] for
        a = (r..., c...) and b = (c..., r...), a product of rank 2|l|; the
        products are formed a block of variables at a time, which bounds the
        transient memory.
        """
        m = np.empty((self.nvars + 1, self.nvars + 1))
        m[0, 0] = np.sum((self.a0 @ x @ self.a0) * s_inv)
        if self.nvars:
            cross = -self.family.inner(x @ self.a0 @ s_inv)
            m[0, 1:] = cross
            m[1:, 0] = cross
            r, c, _ = self.family.support
            for ks, a, b in self.blocks:
                y = np.matmul(x[a].transpose(0, 2, 1), s_inv[b])
                m[1 + ks, 1:] = np.add.reduceat(y[:, r, c] + y[:, c, r], self.starts, axis=1)
        return m

    def constraints(self, z: np.ndarray) -> np.ndarray:
        """(<A_0, Z>, ..., <A_K, Z>) = (Tr A_0 Z, -<G_k, Z>)."""
        return np.concatenate(([np.trace(self.a0 @ z)], -self.family.inner(z)))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i = y_0 A_0 - sum_k y_k G_k."""
        return y[0] * self.a0 - self.family.combine(y[1:])


def _inverse_cholesky(matrix: np.ndarray) -> np.ndarray:
    """L^-1 for matrix = L L'; raises LinAlgError unless positive definite."""
    return np.linalg.inv(np.linalg.cholesky(matrix))


def _max_step(l_inv: np.ndarray, d: np.ndarray, w: np.ndarray, dw: np.ndarray) -> float:
    """Largest alpha with L L' + alpha d >= 0 and w + alpha dw >= 0.

    Capped at 1 / STEP_FRACTION.
    """
    lowest = min(
        float(np.linalg.eigvalsh(l_inv @ d @ l_inv.T)[0]),
        float(np.min(dw / w, initial=0.0)),
    )
    return 1.0 / STEP_FRACTION if lowest >= -STEP_FRACTION else -1.0 / lowest


def _interior_point(ops: _FamilyOps, y: np.ndarray, box: np.ndarray, max_iters: int):
    """Mehrotra predictor-corrector HKM steps on the primal-dual pair.

    Maximizes y_0 subject to S = C - y_0 A_0 + sum_k v_k G_k >= 0 (the
    program ``ops`` carries) from the start y = (y_0, v), where S must be
    positive definite, together with min <C, Z> subject to <A_0, Z> = 1,
    <G_k, Z> = 0 and Z >= 0 from Z = I/n.  The variables k in ``box`` also
    get the linear constraints v_k >= lo_k and v_k <= hi_k.  The iterate is
    (X, u, y, S, w): X the matrix Z, u >= 0 the multipliers of the box rows
    and w >= 0 the box slacks v - lo and hi - v.  Every iterate keeps S
    positive definite, so each y_0 is attained.  Returns the last X, y and
    the number of steps.
    """
    n = ops.dim
    eye = np.eye(n)
    # Box row j reads sign_j v_idx_j <= c_box_j.
    idx = np.concatenate((box, box))
    sign = np.repeat([-1.0, 1.0], box.size)
    c_box = sign * np.concatenate((ops.lo[box], ops.hi[box]))
    diagonal = np.arange(1, ops.nvars + 1)

    def constraints(z, u):
        out = ops.constraints(z)
        out[1:] += np.bincount(idx, weights=sign * u, minlength=ops.nvars)
        return out

    b = np.zeros(ops.nvars + 1)
    b[0] = 1.0
    s = ops.c - ops.adjoint(y)
    w = c_box - sign * y[1:][idx]
    # With A_0 = I, X = I/n has <A_0, X> = 1 and <G_k, X> = 0, so any u
    # with equal pairs is primal feasible; this one is centred, with
    # u_j w_j = <X, S> / n.  Other A_0 start primal infeasible.
    x = eye / n
    u = float(np.sum(x * s)) / n / w
    pairs = n + idx.size
    steps = 0
    while steps < max_iters:
        r_primal = b - constraints(x, u)
        primal = float(np.sum(ops.c * x) + c_box @ u)
        scale = 1.0 + abs(primal) + abs(y[0])
        if primal - y[0] <= GAP_TOL * scale and np.abs(r_primal).max() <= FEAS_TOL:
            break
        try:
            lx_inv = _inverse_cholesky(x)
            ls_inv = _inverse_cholesky(s)
            s_inv = ls_inv.T @ ls_inv
            m = ops.schur(x, s_inv)
            m[diagonal, diagonal] += np.bincount(idx, weights=u / w, minlength=ops.nvars)
            # Only the positive-definiteness test: its failure is the stall exit.
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            break
        mu = float(np.sum(x * s) + u @ w) / pairs
        r_dual = ops.c - ops.adjoint(y) - s
        r_box = c_box - sign * y[1:][idx] - w
        base = constraints(x @ r_dual @ s_inv, u * r_box / w) + r_primal

        def direction(target, target_box):
            # Solves dX S + X dS = target S and du w + u dw = target_box w
            # together with the linear residuals; HKM then symmetrizes dX.
            rhs = base - constraints(target, target_box)
            dy = np.linalg.solve(m, rhs)
            ds = r_dual - ops.adjoint(dy)
            dw = r_box - sign * dy[1:][idx]
            dx = target - x @ ds @ s_inv
            return 0.5 * (dx + dx.T), target_box - u * dw / w, dy, ds, dw

        dx, du, dy, ds, dw = direction(-x, -u)
        alpha_p = min(1.0, _max_step(lx_inv, dx, u, du))
        alpha_d = min(1.0, _max_step(ls_inv, ds, w, dw))
        mu_aff = float(
            np.sum((x + alpha_p * dx) * (s + alpha_d * ds))
            + (u + alpha_p * du) @ (w + alpha_d * dw)
        ) / pairs
        sigma = min(1.0, (mu_aff / mu) ** 3)
        # Corrector: centring plus Mehrotra's second-order term dX dS.
        dx, du, dy, ds, dw = direction(
            sigma * mu * s_inv - x - dx @ ds @ s_inv, (sigma * mu - du * dw) / w - u
        )
        alpha_p = min(1.0, STEP_FRACTION * _max_step(lx_inv, dx, u, du))
        alpha_d = min(1.0, STEP_FRACTION * _max_step(ls_inv, ds, w, dw))
        x, u = x + alpha_p * dx, u + alpha_p * du
        y, s, w = y + alpha_d * dy, s + alpha_d * ds, w + alpha_d * dw
        steps += 1
        if min(alpha_p, alpha_d) < MIN_STEP:
            break
    return x, y, steps


def maximize_lambda_min(
    family: AffineMatrixFamily, config: SolverConfig | None = None
) -> SolveOutcome:
    """Maximize lambda_min over the family and decide feasibility.

    Returns FEASIBLE with a witness when lambda_star clears the witness
    tolerance, CERTIFIED_INFEASIBLE when a verified dual certificate with
    value below -margin is extracted, and UNDECIDED otherwise.
    """
    cfg = config if config is not None else SolverConfig()
    if family.dim == 0:
        raise ValueError("degenerate family of dimension 0")
    ops = _FamilyOps(family)
    # Start at the centre of the box, with t one below lambda_min there.
    y = np.concatenate(([0.0], 0.5 * (ops.lo + ops.hi)))
    y[0] = float(np.linalg.eigvalsh(family.gamma(y[1:]))[0]) - 1.0
    z, y_end, iterations = _interior_point(ops, y, np.zeros(0, dtype=int), cfg.max_iters)
    v = y_end[1:]
    unboxed = float(np.linalg.eigvalsh(family.gamma(v))[0])
    v_star = np.clip(v, ops.lo, ops.hi)
    if np.array_equal(v_star, v):
        lambda_star = unboxed
    else:
        lambda_star = float(np.linalg.eigvalsh(family.gamma(v_star))[0])
    if lambda_star < unboxed - GAP_TOL * (1.0 + abs(unboxed)):
        # The maximizer left the box, so solve again inside it.  The
        # certificate still comes from the first solve, whose Z is the best
        # one of the verified form.
        _, y_end, more = _interior_point(ops, y, ops.boxed, cfg.max_iters)
        v = y_end[1:]
        iterations += more
        v_star = np.clip(v, ops.lo, ops.hi)
        lambda_star = float(np.linalg.eigvalsh(family.gamma(v_star))[0])

    certificate = None
    if lambda_star >= -WITNESS_TOL:
        status = FEASIBLE
    else:
        certificate = extract_certificate(family, z, cfg.tol_cert)
        if certificate is not None and certificate.value < -cfg.margin:
            status = CERTIFIED_INFEASIBLE
        else:
            status = UNDECIDED
    return SolveOutcome(
        status=status,
        lambda_star=lambda_star,
        v_star=v_star,
        certificate=certificate,
        iterations=iterations,
    )


@dataclass(frozen=True)
class VisibilityOutcome:
    """The largest visibility p_star found feasible, and the steps taken."""

    p_star: float
    iterations: int


def maximize_visibility(
    low: AffineMatrixFamily, high: AffineMatrixFamily, config: SolverConfig | None = None
) -> VisibilityOutcome:
    """Largest p at which the mixed family still clears -margin.

    ``low`` and ``high`` must share their variables and differ only in
    gamma0; at visibility p the family's gamma0 is
    gamma0(low) + p Delta with Delta = gamma0(high) - gamma0(low).  Solves

        max p   subject to   gamma0(low) + p Delta + sum_k v_k G_k + margin I >= 0

    with v unbounded, so p_star is where the optimum of the unboxed lambda
    program crosses -margin.  The solve starts at p = 0, v = 0, where
    gamma0(low) + margin I must be positive definite.  Every iterate is
    feasible, so p_star never exceeds the exact threshold.
    """
    cfg = config if config is not None else SolverConfig()
    if low.dim != high.dim or low.variables != high.variables:
        raise ValueError("families must share their dimension and variables")
    constant = low.gamma0 + cfg.margin * np.eye(low.dim)
    if float(np.linalg.eigvalsh(constant)[0]) <= 0.0:
        raise ValueError("gamma0(low) + margin I is not positive definite")
    ops = _FamilyOps(low, a0=low.gamma0 - high.gamma0, c=constant)
    _, y, iterations = _interior_point(
        ops, np.zeros(ops.nvars + 1), np.zeros(0, dtype=int), cfg.max_iters
    )
    return VisibilityOutcome(p_star=float(y[0]), iterations=iterations)


def _repair(family: AffineMatrixFamily, z: np.ndarray) -> np.ndarray:
    """Shift the affine projection Z_a of Z onto the PSD cone.

    Z_a is the orthogonal projection of Z onto {Tr Z = 1, <G_k, Z> = 0}.
    The G_k have disjoint off-diagonal supports and zero diagonal, so
    together with I they form an orthogonal set and one pass is exact.
    Returns (Z_a + delta I) / (1 + n delta) with delta = max(0, -lambda_min(Z_a));
    I is orthogonal to every G_k, so the result stays affine.
    """
    n = family.dim
    z = 0.5 * (z + z.T)
    rows, cols, vidx = family.support
    # <G_k, G_k> is twice the size of k's support.
    sizes = np.bincount(vidx, minlength=family.num_variables)[vidx]
    coeff = family.inner(z)[vidx] / (2.0 * sizes)
    z[rows, cols] -= coeff
    z[cols, rows] -= coeff
    z = z + (1.0 - np.trace(z)) / n * np.eye(n)
    delta = max(0.0, -float(np.linalg.eigvalsh(z)[0]))
    return (z + delta * np.eye(n)) / (1.0 + n * delta)


def extract_certificate(
    family: AffineMatrixFamily, z: np.ndarray, tol: float = SolverConfig.tol_cert
) -> DualCertificate | None:
    """Turn an approximate dual solution Z into a verified certificate.

    Z is repaired onto {Tr Z = 1, <G_k, Z> = 0, Z >= 0} and the result is
    checked by :func:`verify_certificate`.  Failure to verify yields None,
    never an unchecked certificate.
    """
    repaired = _repair(family, np.asarray(z, dtype=float))
    candidate = DualCertificate(matrix=repaired, value=float(np.sum(family.gamma0 * repaired)))
    return candidate if verify_certificate(family, candidate, tol) else None


def verify_certificate(
    family: AffineMatrixFamily, certificate: DualCertificate, tol: float = SolverConfig.tol_cert
) -> bool:
    """Check every certificate invariant against the family.

    Uses only an eigendecomposition and inner products; in particular it
    does not trust the stored value, which is recomputed and compared.
    A non-finite ``tol`` raises ValueError: every comparison against NaN is
    false, so it would accept anything.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    z = np.asarray(certificate.matrix, dtype=float)
    if z.shape != (family.dim, family.dim):
        return False
    if np.abs(z - z.T).max() > tol:
        return False
    z_sym = 0.5 * (z + z.T)
    if np.linalg.eigvalsh(z_sym)[0] < -tol:
        return False
    if abs(np.trace(z_sym) - 1.0) > tol:
        return False
    rows, cols, vidx = family.support
    inner = np.bincount(vidx, weights=2.0 * z_sym[rows, cols], minlength=family.num_variables)
    if np.abs(inner).max(initial=0.0) > tol:
        return False
    if abs(float(np.sum(family.gamma0 * z_sym)) - certificate.value) > tol:
        return False
    return True
