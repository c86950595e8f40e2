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
complement is no longer positive definite or is singular to its solve, or
when a step shrinks below MIN_STEP.  The Schur complement of each Newton
step is assembled from low-rank products: a variable with s entry
positions makes X G_k S^-1 a product of rank 2s, and variables of one
support size are taken in blocks whose transient memory stays bounded.
The complement itself holds (K + 1)^2 floats for K variables; its Cholesky
factorization is only the positive-definiteness test, and the predictor
and corrector directions come from direct solves with it.  The maps
sum_k v_k G_k and <G_k, Z> are the family's own
(:meth:`AffineMatrixFamily.combine` and ``.inner``); the solver adds only
the program around them.

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
certificate is the first solve's last dual iterate Z, valued as it stands
and neither projected nor shifted: Z starts at I/n, which has Tr Z = 1 and
<G_k, Z> = 0, each Newton step carries the residual of those constraints,
so they hold up to rounding, HKM symmetrizes each step, so Z stays exactly
symmetric, and every iterate is strictly inside the cone.  Soundness does
not rest on that argument: the certificate is checked by
:func:`verify_certificate` using nothing but an eigendecomposition and
inner products, independently of the solver.

Under white noise the family at visibility p is (1 - p) I + p gamma0 with
the same G_k.  The trace, eigenvalues and <G_k, Z> of a certificate do not
depend on p, so one verified at p = 1 verifies at every p, with value
(1 - p) Tr Z + p <gamma0, Z>, affine in p.  That is how
:func:`~momentcert.analysis.robustness` gets the critical visibility from
one solve.
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
# The start Z = I/n satisfies them and the steps keep them up to rounding.
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
    """Settings of :func:`maximize_lambda_min`.

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


class _FamilyOps:
    """The semidefinite program solved over one affine family,

        max t   subject to   S = gamma0 - t I + sum_k v_k G_k >= 0,

    with its variable box and the blocks of its Schur assembly.  The maps
    sum_k v_k G_k and <G_k, Z> are the family's own.
    """

    def __init__(self, family: AffineMatrixFamily):
        self.family = family
        self.dim = family.dim
        self.nvars = family.num_variables
        rows, cols, vidx = family.support
        counts = np.bincount(vidx, minlength=self.nvars)
        # Positions are grouped by variable; starts[k] is where k's group begins.
        self.starts = np.cumsum(counts) - counts
        if self.nvars and (counts == 0).any():
            raise ValueError("family has a variable with empty support")
        if rows.size and np.abs(family.gamma0[rows, cols]).max() > 0.0:
            raise ValueError("gamma0 overlaps a variable support")
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

        The matrix parts of the constraints are A_0 = I and A_k = -G_k, so
        M_0k = -<G_k, X S^-1> and M_kl = Tr(G_k X G_l S^-1) =
        <G_k, X G_l S^-1> for k, l >= 1.  With the positions (r_p, c_p) of
        variable l and X symmetric, X G_l S^-1 = X[a, :]' S^-1[b, :] for
        a = (r..., c...) and b = (c..., r...), a product of rank 2|l|; the
        products are formed a block of variables at a time, which bounds the
        transient memory.
        """
        m = np.empty((self.nvars + 1, self.nvars + 1))
        m[0, 0] = np.sum(x * s_inv)
        if self.nvars:
            cross = -self.family.inner(x @ s_inv)
            m[0, 1:] = cross
            m[1:, 0] = cross
            r, c, _ = self.family.support
            for ks, a, b in self.blocks:
                y = np.matmul(x[a].transpose(0, 2, 1), s_inv[b])
                m[1 + ks, 1:] = np.add.reduceat(y[:, r, c] + y[:, c, r], self.starts, axis=1)
        return m

    def constraints(self, z: np.ndarray) -> np.ndarray:
        """(<A_0, Z>, ..., <A_K, Z>) = (Tr Z, -<G_k, Z>)."""
        return np.concatenate(([np.trace(z)], -self.family.inner(z)))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i = y_0 I - sum_k y_k G_k."""
        return y[0] * np.eye(self.dim) - self.family.combine(y[1:])


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

    Maximizes t subject to S = gamma0 - t I + sum_k v_k G_k >= 0 (the
    program ``ops`` carries) from the start y = (t, v), where S must be
    positive definite, together with min <gamma0, Z> subject to Tr Z = 1,
    <G_k, Z> = 0 and Z >= 0 from Z = I/n.  The variables k in ``box`` also
    get the linear constraints v_k >= lo_k and v_k <= hi_k.  The iterate is
    (X, u, y, S, w): X the matrix Z, u >= 0 the multipliers of the box rows
    and w >= 0 the box slacks v - lo and hi - v.  Every iterate keeps S
    positive definite, so each t is attained.  Returns the last X, y and
    the number of steps.
    """
    n = ops.dim
    gamma0 = ops.family.gamma0
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
    s = gamma0 - ops.adjoint(y)
    w = c_box - sign * y[1:][idx]
    # X = I/n has Tr X = 1 and <G_k, X> = 0, so any u with equal pairs is
    # primal feasible; this one is centred, with u_j w_j = <X, S> / n.
    x = np.eye(n) / n
    u = float(np.sum(x * s)) / n / w
    pairs = n + idx.size

    def direction(target, target_box):
        # Solves dX S + X dS = target S and du w + u dw = target_box w
        # together with the linear residuals of the current step; HKM then
        # symmetrizes dX.
        rhs = base - constraints(target, target_box)
        dy = np.linalg.solve(m, rhs)
        ds = r_dual - ops.adjoint(dy)
        dw = r_box - sign * dy[1:][idx]
        dx = target - x @ ds @ s_inv
        return 0.5 * (dx + dx.T), target_box - u * dw / w, dy, ds, dw

    steps = 0
    while steps < max_iters:
        r_primal = b - constraints(x, u)
        primal = float(np.sum(gamma0 * x) + c_box @ u)
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
            mu = float(np.sum(x * s) + u @ w) / pairs
            r_dual = gamma0 - ops.adjoint(y) - s
            r_box = c_box - sign * y[1:][idx] - w
            base = constraints(x @ r_dual @ s_inv, u * r_box / w) + r_primal
            # M can pass the Cholesky test yet be exactly singular to the LU
            # of the solve; that too ends the solve at the last iterate.  The
            # corrector solves with the same M, so it cannot raise.
            dx, du, dy, ds, dw = direction(-x, -u)
        except np.linalg.LinAlgError:
            break
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


def extract_certificate(
    family: AffineMatrixFamily, z: np.ndarray, tol: float = SolverConfig.tol_cert
) -> DualCertificate | None:
    """Value the dual iterate Z and return it as a certificate if verified.

    Z is taken as it stands, with value <gamma0, Z>: neither projected onto
    {Tr Z = 1, <G_k, Z> = 0} nor shifted onto the PSD cone.  The result is
    returned only if :func:`verify_certificate` accepts it, so a Z off the
    verified form, or not finite, yields None, never an unchecked
    certificate.
    """
    z = np.asarray(z, dtype=float)
    # A non-finite Z may value to NaN (inf times a zero of gamma0); the
    # verifier rejects it either way.
    with np.errstate(invalid="ignore"):
        candidate = DualCertificate(matrix=z, value=float(np.sum(family.gamma0 * z)))
    return candidate if verify_certificate(family, candidate, tol) else None


def verify_certificate(
    family: AffineMatrixFamily, certificate: DualCertificate, tol: float = SolverConfig.tol_cert
) -> bool:
    """Check every certificate invariant against the family.

    Uses only an eigendecomposition and inner products; in particular it
    does not trust the stored value, which is recomputed and compared.
    A non-finite ``tol`` raises ValueError: every comparison against NaN is
    false, so it would accept anything.  For the same reason a certificate
    whose matrix or value is not finite is rejected.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    z = np.asarray(certificate.matrix, dtype=float)
    if z.shape != (family.dim, family.dim):
        return False
    if not (np.isfinite(z).all() and math.isfinite(certificate.value)):
        return False
    if np.abs(z - z.T).max() > tol:
        return False
    z_sym = 0.5 * (z + z.T)
    if np.linalg.eigvalsh(z_sym)[0] < -tol:
        return False
    if abs(np.trace(z_sym) - 1.0) > tol:
        return False
    if np.abs(family.inner(z_sym)).max(initial=0.0) > tol:
        return False
    if abs(float(np.sum(family.gamma0 * z_sym)) - certificate.value) > tol:
        return False
    return True


def certificate_floor(
    family: AffineMatrixFamily, v: np.ndarray, tol: float = SolverConfig.tol_cert
) -> float:
    """A lower bound on the value of every certificate verified on the family at ``tol``.

    With lambda = lambda_min(Gamma(v)), the checks of
    :func:`verify_certificate` on a certificate Z (lambda_min(Z) >= -tol,
    |Tr Z - 1| <= tol, |<G_k, Z>| <= tol, |<gamma0, Z> - value| <= tol)
    and <Gamma(v) - lambda I, Z> >= -tol Tr(Gamma(v) - lambda I) give

        value >= lambda - tol (|lambda| + Tr Gamma(v) - n lambda + |v|_1 + 1).

    So a floor at or above -margin proves that no verified certificate
    reaches below -margin, whatever the solver would find.  For a PSD
    Gamma(v), whose unit diagonal keeps every |v_k| <= 1, the floor is at
    least -(n + K + 1) tol.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    gamma = family.gamma(v)
    lam = float(np.linalg.eigvalsh(gamma)[0])
    slack = abs(lam) + float(np.trace(gamma)) - family.dim * lam + float(np.abs(v).sum()) + 1.0
    return lam - tol * slack
