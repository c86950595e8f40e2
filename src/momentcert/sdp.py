"""Feasibility solver for affine families of real symmetric matrices.

The question "is there a v with Gamma(v) = gamma0 + sum_k v_k G_k >= 0" is
answered by maximizing lambda_min(Gamma(v)), the semidefinite program

    max t   subject to   gamma0 + sum_k v_k G_k - t I >= 0,

whose dual is

    min <gamma0, Z>   subject to   Tr Z = 1,  <G_k, Z> = 0,  Z >= 0.

Both are solved together by a primal-dual interior-point method with the HKM
search direction (Helmberg, Rendl, Vanderbei & Wolkowicz 1996) and
Mehrotra's predictor-corrector steps, started from the strictly feasible
pair Z = I/n, v = 0.  Each step takes S = Gamma(v) - t I from its (t, v),
so only the primal residual is carried.  Each step solves one more Newton
system on the same factorization, a second corrector that takes Mehrotra's
second-order term from the first corrector's direction in place of the
predictor's (Carpenter, Lustig, Mulvey & Shanno 1993); the step keeps it
when it moves at least as far as the predictor could, and Mehrotra's
corrector otherwise.  The solve stops when the relative duality gap
reaches GAP_TOL.  On boundary-feasible data, such as
product states with optimum exactly 0, the Newton system degenerates first;
the solve then stops at the last iterate (the stall exit): when the Schur
complement is no longer positive definite, or when a step shrinks below
MIN_STEP.  The Schur complement of each Newton step is assembled from
low-rank products: a variable with s entry positions makes X G_k S^-1 a
product of rank 2s, and variables of one support size are taken in blocks
of bounded size.  Only its lower triangle is assembled, the one part its
Cholesky factor reads.  The complement, (K + 1)^2 floats for K variables,
and the arrays of its largest block are one workspace that each solve
allocates once and every Newton step overwrites, so a step allocates none
of them; an entry above the diagonal may hold an earlier step's value.
The complement is factored once per step, at every size: its Cholesky
factor is the positive-definiteness test, and the predictor and corrector
directions come from the inverse of that factor, built over blocks of its
rows in the factor's own array, as the inverse factors of X and S are.
The maps sum_k v_k G_k and <G_k, Z> are the family's own
(:meth:`AffineMatrixFamily.combine` and ``.inner``); the solver adds only
the program around them.

This one program is the whole question.  It has no bounds on v: a
positive semidefinite Gamma(v) has unit diagonal, so every |v_k| <= 1
already, and a bound would only change the program where it is infeasible.
One solve gives both reported numbers: lambda_star =
lambda_min(Gamma(v_star)) at its last maximizer v_star, an attained value,
and the certificate value <gamma0, Z> at its last dual iterate, an upper
bound on lambda_star.  At convergence they differ by at most the duality
gap.  On infeasible data v_star may
leave [-1, 1], by at most -lambda_star: Gamma(v_star) - lambda_star I >= 0
has diagonal 1 - lambda_star.

Infeasibility is never reported on optimizer convergence alone.  A dual
certificate is a symmetric Z >= 0 with Tr Z = 1 and <G_k, Z> = 0 for every
variable direction; for any v whatsoever,

    lambda_min(Gamma(v)) <= <Gamma(v), Z> = <gamma0, Z>,

so <gamma0, Z> < 0 proves that no completion is positive semidefinite.  The
certificate is the solve's last dual iterate Z, valued as it stands
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

from .algebra import checked_integer, checked_real
from .hierarchy import AffineMatrixFamily

FEASIBLE = "FEASIBLE"
CERTIFIED_INFEASIBLE = "CERTIFIED_INFEASIBLE"
UNDECIDED = "UNDECIDED"

# A point counts as a feasibility witness when lambda_min is at least -WITNESS_TOL.
WITNESS_TOL = 1e-8
# The interior-point solve stops once the relative duality gap is this small.
GAP_TOL = 1e-9
# Stall exit: a step shorter than this ends the solve.
MIN_STEP = 1e-8
# Fraction of the distance to the cone boundary that each step covers.
STEP_FRACTION = 0.98
# Entries per array in a block of the Schur assembly.  Each solve allocates
# one workspace of a few such arrays, whatever the family's size, and
# reuses it at every Newton step; a block fills only the prefix of them
# that its rows' lower-triangle columns need.
SCHUR_BLOCK = 1 << 16
# Rows per block of every Cholesky factor the solver inverts (X, S and the
# Schur complement); each diagonal block is inverted once per factor.
SOLVE_BLOCK = 32


@dataclass(frozen=True)
class SolverConfig:
    """Settings of :func:`maximize_lambda_min`.

    ``max_iters`` caps the number of Newton steps; the solve normally stops
    well before on its gap or stall exit.  ``margin`` is the decision
    threshold separating a certified negative value from numerical noise;
    it must stay well above ``tol_cert``, the tolerance at which
    certificates are verified.  ``restarts`` belonged to an earlier
    first-order solver; it must be a positive integer but is ignored.
    """

    max_iters: int = 5000
    tol_cert: float = 1e-7
    margin: float = 1e-3
    restarts: int = 4

    def __post_init__(self):
        for name in ("max_iters", "restarts"):
            object.__setattr__(self, name, checked_integer(getattr(self, name), name))
        for name in ("tol_cert", "margin"):
            object.__setattr__(self, name, checked_real(getattr(self, name), name))
        if self.tol_cert <= 0.0:
            raise ValueError("tol_cert must be positive")
        if self.margin <= self.tol_cert:
            raise ValueError("margin must exceed tol_cert")


@dataclass(frozen=True)
class DualCertificate:
    """An infeasibility certificate: value = <gamma0, Z>."""

    matrix: np.ndarray
    value: float


@dataclass(frozen=True)
class SolveOutcome:
    """The result of :func:`maximize_lambda_min` on one family.

    ``lambda_star`` is lambda_min(Gamma(v_star)), the primal value of the
    solve, and the certificate value <gamma0, Z> is the dual value of the
    same program, so lambda_star <= certificate.value whenever a
    certificate is held; their difference is the solver's gap.  ``exit``
    names what ended the solve: ``"gap"`` (the duality gap reached
    GAP_TOL), ``"newton_stall"`` (the Schur complement was not positive
    definite), ``"step_stall"`` (a step shorter than MIN_STEP) or
    ``"max_iters"``.  ``second_corrector_steps`` counts the steps that kept
    the second corrector; the others fell back to Mehrotra's.
    """

    status: str
    lambda_star: float
    v_star: np.ndarray
    certificate: DualCertificate | None
    iterations: int
    exit: str
    second_corrector_steps: int


class _FamilyOps:
    """The semidefinite program solved over one affine family,

        max t   subject to   S = gamma0 - t I + sum_k v_k G_k >= 0,

    with the blocks of its Schur assembly over the family's grouped support.
    """

    def __init__(self, family: AffineMatrixFamily):
        self.family = family
        rows, cols, vidx = family.support
        # Variable k's group of positions is starts[k]:ends[k].
        counts = np.bincount(vidx, minlength=family.num_variables)
        self.ends = np.cumsum(counts)
        self.starts = self.ends - counts
        # Blocks (m_rows, a, b) for the Schur assembly: the variables ks
        # share one support size s and fill rows m_rows = 1 + ks of M, and
        # row j of the (len(ks), 2s) arrays a and b lists (r..., c...) and
        # (c..., r...) over the positions of ks[j].
        # Each block is small enough that its arrays of dim^2, 2s dim or E
        # entries per variable (E = number of variable positions) hold at
        # most SCHUR_BLOCK entries.
        self.blocks = []
        for size in sorted(set(counts.tolist())):
            ks = np.flatnonzero(counts == size)
            per_variable = max(family.dim, 2 * size) * family.dim
            width = max(1, SCHUR_BLOCK // max(per_variable, rows.size))
            at = self.starts[ks, None] + np.arange(size)
            r, c = rows[at], cols[at]
            a, b = np.hstack((r, c)), np.hstack((c, r))
            for j in range(0, ks.size, width):
                self.blocks.append((1 + ks[j:j + width], a[j:j + width], b[j:j + width]))
        n, nvars = family.dim, family.num_variables
        self.rc, self.cr = family.flat_support
        # The workspace of schur(), allocated once per solve: M, and one flat
        # buffer for each array a block forms, sized for the largest; each
        # block uses a prefix of it.  constraints() fills one vector too.
        widest = max((m_rows.size for m_rows, _, _ in self.blocks), default=0)
        self.m = np.empty((nvars + 1, nvars + 1))
        self.values = np.empty(nvars + 1)
        self.operands = np.empty((2, max((a.size for _, a, _ in self.blocks), default=0) * n))
        self.product = np.empty(widest * n * n)
        self.gathered = np.empty((2, widest * rows.size))
        self.sums = np.empty(widest * nvars)

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """Lower triangle of the HKM Schur complement M_ij = Tr(A_i X A_j S^-1).

        The matrix parts of the constraints are A_0 = I and A_k = -G_k, so
        M_0k = -<G_k, X S^-1> and M_kl = Tr(G_k X G_l S^-1) =
        <G_k, X G_l S^-1> for k, l >= 1.  With the positions (r_p, c_p) of
        variable l and X symmetric, X G_l S^-1 = X[a, :]' S^-1[b, :] for
        a = (r..., c...) and b = (c..., r...), a product of rank 2|l|; the
        products are formed a block of variables at a time, in the workspace
        this object allocated.  M is symmetric, and its Cholesky factor
        reads only the lower triangle, so a block of rows sums only the
        columns up to its last row's diagonal: those variables' positions
        are a prefix of the grouped support.  The returned M is that
        workspace too: its lower triangle holds M, an entry above it may be
        stale, and it is valid only until the next call, so a caller that
        keeps it copies it.
        """
        n, nvars = self.family.dim, self.family.num_variables
        m = self.m
        m[0, 0] = np.vdot(x, s_inv)
        if nvars:
            m[1:, 0] = -self.family.inner(x @ s_inv)
            for m_rows, a, b in self.blocks:
                w, last = m_rows.size, m_rows[-1]
                e = self.ends[last - 1]
                xa, sb = self.operands[:, :a.size * n].reshape(2, w, -1, n)
                y = self.product[:w * n * n].reshape(w, n * n)
                g, h = self.gathered[:, :w * e].reshape(2, w, e)
                sums = self.sums[:w * last].reshape(w, last)
                # mode="clip" takes straight into ``out``: "raise" would
                # first gather into a temporary.  The indices are in range.
                x.take(a, axis=0, out=xa, mode="clip")
                s_inv.take(b, axis=0, out=sb, mode="clip")
                np.matmul(xa.transpose(0, 2, 1), sb, out=y.reshape(w, n, n))
                y.take(self.rc[:e], axis=1, out=g, mode="clip")
                y.take(self.cr[:e], axis=1, out=h, mode="clip")
                np.add(g, h, out=g)
                m[m_rows, 1:last + 1] = np.add.reduceat(g, self.starts[:last], axis=1, out=sums)
        return m

    def constraints(self, z: np.ndarray) -> np.ndarray:
        """(<A_0, Z>, ..., <A_K, Z>) = (Tr Z, -<G_k, Z>), valid until the next call."""
        self.values[0] = np.trace(z)
        np.negative(self.family.inner(z), out=self.values[1:])
        return self.values

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i = y_0 I - sum_k y_k G_k; no G_k touches the diagonal."""
        out = self.family.combine(-y[1:])
        np.fill_diagonal(out, y[0])
        return out


def _inverse_cholesky(matrix: np.ndarray) -> np.ndarray:
    """L^-1 for matrix = L L'; raises LinAlgError unless positive definite.

    The inverse is written over the factor, one block row of SOLVE_BLOCK
    rows at a time.  Write L's rows down to a block as [[A, 0], [B, D]],
    with A's rows already inverted in place; the block's rows of L^-1 are
    then (-D^-1 B A^-1, D^-1).  So the factor's array is the only (n, n)
    one, and up to SOLVE_BLOCK rows the result is np.linalg.inv of it.
    The factor reads only the lower triangle of ``matrix``.
    """
    inverse = np.linalg.cholesky(matrix)
    first = slice(0, SOLVE_BLOCK)
    inverse[first, first] = np.linalg.inv(inverse[first, first])
    for i in range(SOLVE_BLOCK, inverse.shape[0], SOLVE_BLOCK):
        rows = slice(i, i + SOLVE_BLOCK)
        left = inverse[rows, :i] @ inverse[:i, :i]
        inverse[rows, rows] = np.linalg.inv(inverse[rows, rows])
        inverse[rows, :i] = -inverse[rows, rows] @ left
    return inverse


def _max_step(l_inv: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with L L' + alpha d >= 0, capped at 1 / STEP_FRACTION."""
    lowest = float(np.linalg.eigvalsh(l_inv @ d @ l_inv.T)[0])
    return 1.0 / STEP_FRACTION if lowest >= -STEP_FRACTION else -1.0 / lowest


def _interior_point(ops: _FamilyOps, y: np.ndarray, max_iters: int):
    """Mehrotra predictor-corrector HKM steps on the primal-dual pair.

    Maximizes t subject to S = gamma0 - t I + sum_k v_k G_k >= 0 (the
    program ``ops`` carries) from the start y = (t, v), where S must be
    positive definite, together with min <gamma0, Z> subject to Tr Z = 1,
    <G_k, Z> = 0 and Z >= 0 from Z = I/n.  The iterate is (X, y, S), X the
    matrix Z; each step takes S = gamma0 - A*(y) from y and dS = -A*(dy), so
    it carries only the primal residual b - A(X).  Every iterate keeps S
    positive definite, so each t is attained.  Each step solves its Schur
    complement M through the inverse of M's one Cholesky factor
    (:func:`_inverse_cholesky`), taken at once: M is the workspace of
    ``ops``, overwritten at the next step, and only its lower triangle is
    current, the one part the factor reads; only the inverse factor is kept.
    A failed factorization is the only Newton-system stall.  Three
    directions share that factor: the affine predictor, Mehrotra's corrector
    with the predictor's dX dS S^-1, and a second corrector with the first
    corrector's.  The second corrector is taken when the shorter of its two
    step lengths is at least the shorter of the predictor's; otherwise the
    step is Mehrotra's.  Returns the last X, y, the number of steps, how
    many kept the second corrector, and the exit that ended the solve (see
    :class:`SolveOutcome`).
    """
    n = ops.family.dim
    gamma0 = ops.family.gamma0
    b = np.zeros(ops.family.num_variables + 1)
    b[0] = 1.0
    x = np.eye(n) / n

    def direction(target, rhs):
        # Solves dX S + X dS = target S with A(dX) = rhs and dS = -A*(dy);
        # HKM then symmetrizes dX.  The predictor's target -X makes rhs = b.
        dy = lm_inv.T @ (lm_inv @ rhs)
        ds = ops.adjoint(-dy)
        dx = target - x @ ds @ s_inv
        return 0.5 * (dx + dx.T), dy, ds

    def step_lengths(dx, ds):
        # STEP_FRACTION of the way to the cone's boundary, at most a full step.
        return (min(1.0, STEP_FRACTION * _max_step(lx_inv, dx)),
                min(1.0, STEP_FRACTION * _max_step(ls_inv, ds)))

    steps, kept, exit = 0, 0, "max_iters"
    while steps < max_iters:
        primal = float(np.vdot(gamma0, x))
        if primal - y[0] <= GAP_TOL * (1.0 + abs(primal) + abs(y[0])):
            exit = "gap"
            break
        s = gamma0 - ops.adjoint(y)
        try:
            lx_inv = _inverse_cholesky(x)
            ls_inv = _inverse_cholesky(s)
            s_inv = ls_inv.T @ ls_inv
            # A failed factorization of M is the stall exit.  The
            # correctors solve with the predictor's inverse, so they cannot raise.
            lm_inv = _inverse_cholesky(ops.schur(x, s_inv))
        except np.linalg.LinAlgError:
            exit = "newton_stall"
            break
        mu = float(np.vdot(x, s)) / n
        r_primal = b - ops.constraints(x)
        dx, dy, ds = direction(-x, b)
        alpha_p = min(1.0, _max_step(lx_inv, dx))
        alpha_d = min(1.0, _max_step(ls_inv, ds))
        mu_aff = float(np.vdot(x + alpha_p * dx, s + alpha_d * ds)) / n
        sigma = min(1.0, (mu_aff / mu) ** 3)
        # Corrector: centring plus Mehrotra's second-order term dX dS.
        centre = sigma * mu * s_inv - x
        target = centre - dx @ ds @ s_inv
        dx1, dy1, ds1 = direction(target, r_primal - ops.constraints(target))
        # Second corrector: the same with the corrector's own dX dS, kept
        # when it steps at least as far as the predictor could.
        reach = min(alpha_p, alpha_d)
        target = centre - dx1 @ ds1 @ s_inv
        dx, dy, ds = direction(target, r_primal - ops.constraints(target))
        alpha_p, alpha_d = step_lengths(dx, ds)
        if min(alpha_p, alpha_d) < reach:
            dx, dy, ds = dx1, dy1, ds1
            alpha_p, alpha_d = step_lengths(dx, ds)
        else:
            kept += 1
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        steps += 1
        if min(alpha_p, alpha_d) < MIN_STEP:
            exit = "step_stall"
            break
    return x, y, steps, kept, exit


def maximize_lambda_min(
    family: AffineMatrixFamily, config: SolverConfig | None = None
) -> SolveOutcome:
    """Maximize lambda_min over the family and decide feasibility.

    One solve from v = 0 gives the maximizer v_star, reported as it stands,
    lambda_star = lambda_min(Gamma(v_star)) and the dual iterate Z.  Returns
    FEASIBLE with the witness v_star when lambda_star clears the witness
    tolerance, CERTIFIED_INFEASIBLE when Z is a verified dual certificate
    with value below -margin, and UNDECIDED otherwise.
    """
    cfg = config if config is not None else SolverConfig()
    ops = _FamilyOps(family)
    # Start at v = 0, with t one below lambda_min there.
    y = np.zeros(family.num_variables + 1)
    y[0] = float(np.linalg.eigvalsh(family.gamma(y[1:]))[0]) - 1.0
    z, y_end, iterations, kept, exit = _interior_point(ops, y, cfg.max_iters)
    v_star = y_end[1:]
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
        exit=exit,
        second_corrector_steps=kept,
    )


def extract_certificate(
    family: AffineMatrixFamily, z: np.ndarray, tol: float = SolverConfig.tol_cert
) -> DualCertificate | None:
    """Value the dual iterate Z and return it as a certificate if verified.

    Z is taken as it stands, with value <gamma0, Z>: neither projected onto
    {Tr Z = 1, <G_k, Z> = 0} nor shifted onto the PSD cone.  The result is
    returned only if :func:`verify_certificate` accepts it, so a Z off the
    verified form, of the wrong shape or not finite, yields None, never an
    unchecked certificate.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != family.gamma0.shape:
        return None
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
    The checks bound lambda_min(Gamma(v)) at every v through
    <Gamma(v), Z> = <gamma0, Z> + v . inner(Z), which every
    :class:`AffineMatrixFamily` guarantees at construction.  A non-finite
    ``tol`` raises ValueError, since it would pass or fail every check, and
    a certificate whose matrix or value is not finite is rejected.
    """
    tol = checked_real(tol, "tol")
    z = np.asarray(certificate.matrix, dtype=float)
    if z.shape != family.gamma0.shape or not (np.isfinite(z).all() and math.isfinite(certificate.value)):
        return False
    z_sym = 0.5 * (z + z.T)
    return bool(
        np.abs(z - z.T).max() <= tol
        and np.linalg.eigvalsh(z_sym)[0] >= -tol
        and abs(np.trace(z_sym) - 1.0) <= tol
        and np.abs(family.inner(z_sym)).max(initial=0.0) <= tol
        and abs(float(np.sum(family.gamma0 * z_sym)) - certificate.value) <= tol
    )


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
    tol = checked_real(tol, "tol")
    gamma = family.gamma(v)
    lam = float(np.linalg.eigvalsh(gamma)[0])
    slack = abs(lam) + float(np.trace(gamma)) - family.dim * lam + float(np.abs(v).sum()) + 1.0
    return lam - tol * slack
