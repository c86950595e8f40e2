import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import (
    CERTIFIED_INFEASIBLE,
    FEASIBLE,
    AnalysisRequest,
    DualCertificate,
    PinPolicy,
    Scenario,
    SimulatedSource,
    SolverConfig,
    assemble,
    build_structure,
    correlator_table,
    extract_certificate,
    family_for_request,
    make_state,
    maximize_lambda_min,
    standard_suite,
    verify_certificate,
)
from momentcert import sdp
from momentcert.hierarchy import AffineMatrixFamily
from momentcert.analysis import white_noise_family
from momentcert.sdp import certificate_floor

from helpers import (
    dense_patterns,
    dual_of_the_verified_form,
    grid_max_lambda_min,
    moment_positions,
    random_family,
    support_arrays,
)

FAST = SolverConfig(max_iters=800)


def _family(gamma0, patterns):
    patterns = tuple(np.asarray(p, dtype=float) for p in patterns)
    variables = tuple(((1, i),) for i in range(len(patterns)))
    return AffineMatrixFamily(
        gamma0=np.asarray(gamma0, dtype=float),
        support=support_arrays(patterns),
        variables=variables,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(margin=1e-8, tol_cert=1e-7)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    for tol_cert in (0.0, -1e-7):
        with pytest.raises(ValueError, match="tol_cert must be positive"):
            SolverConfig(tol_cert=tol_cert)
    # An integer beyond float range is a ValueError, not an OverflowError.
    for name in ("tol_cert", "margin"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: 10**400})


NON_INTEGERS = [True, False, 1.5, 800.0, "800", None]
NON_REALS = [True, False, "1e-3", None, 1e-3j]
# A typed value of each setting and the plain value it must be stored as.
TYPED = {
    "max_iters": (np.int64(800), 800),
    "restarts": (np.int64(800), 800),
    "tol_cert": (np.float32(2**-30), 2**-30),
    "margin": (np.int64(1), 1.0),
}


@pytest.mark.parametrize(
    "name, bad",
    [pytest.param("max_iters", bad, id=repr(bad)) for bad in NON_INTEGERS]
    + [pytest.param("restarts", bad, id=f"restarts={bad!r}") for bad in NON_INTEGERS]
    + [
        pytest.param(name, bad, id=f"{name}={bad!r}")
        for name in ("tol_cert", "margin")
        for bad in NON_REALS
    ],
)
def test_config_rejects_non_integer_max_iters(name, bad):
    # True would pass as 1 and cap the solve at one Newton step.  restarts,
    # which the solver ignores, is typed the same way, and the real-valued
    # settings take no bool either: margin=True would read as 1.0.
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: bad})
    typed, plain = TYPED[name]
    value = getattr(SolverConfig(**{name: typed}), name)
    assert value == plain and type(value) is type(plain)


def test_two_by_two_feasible():
    # Gamma(v) = [[1, v], [v, 1]]: lambda_min = 1 - |v|, maximized at v = 0.
    family = _family(np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    out = maximize_lambda_min(family, FAST)
    assert out.status == FEASIBLE
    assert out.lambda_star == pytest.approx(1.0, abs=1e-6)
    assert out.v_star[0] == pytest.approx(0.0, abs=1e-6)
    assert out.certificate is None


def test_no_variable_infeasible():
    family = _family(np.diag([1.0, -1.0]), [])
    out = maximize_lambda_min(family, FAST)
    assert out.status == CERTIFIED_INFEASIBLE
    assert out.lambda_star == pytest.approx(-1.0)
    assert out.certificate is not None
    assert out.certificate.value == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(out.certificate.matrix, np.diag([0.0, 1.0]), atol=1e-8)
    assert verify_certificate(family, out.certificate)


def test_degenerate_family_rejected():
    with pytest.raises(ValueError, match="dimension 0"):
        _family(np.zeros((0, 0)), [])
    off_diagonal = np.array([[0.0, 1.0], [1.0, 0.0]])
    malformed = [
        (np.eye(2), [off_diagonal, np.zeros((2, 2))], "empty support"),
        (np.eye(2) + 0.5 * off_diagonal, [off_diagonal], "overlaps a variable support"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), [], "finite and symmetric"),
        (np.diag([1.0, np.inf]), [off_diagonal], "finite and symmetric"),
        # eigvalsh reads only the lower triangle, which is the identity here;
        # the symmetric part has lambda_min 0.75, not 1.
        (np.triu(np.full((3, 3), 0.5)) + 0.5 * np.eye(3), [], "finite and symmetric"),
    ]
    for gamma0, patterns, message in malformed:
        with pytest.raises(ValueError, match=message):
            _family(gamma0, patterns)


@pytest.mark.parametrize(
    "support, nvars, message",
    [
        (([0], [3], [0]), 1, "outside the matrix"),
        (([-1], [0], [0]), 1, "outside the matrix"),
        (([1], [1], [0]), 1, "on its diagonal"),
        (([0, 0], [1, 1], [0, 1]), 2, "repeats a position"),
        (([0, 1], [1, 0], [0, 1]), 2, "repeats a position"),
        (([0, 0, 1], [1, 1, 2], [0, 0, 1]), 2, "repeats a position"),
        (([0, 0, 1], [1, 2, 2], [0, 1, 2]), 2, "outside range"),
        (([0, 1], [1, 2], [-1, 0]), 2, "outside range"),
    ],
    ids=["row-past-end", "negative-row", "diagonal", "shared", "mirrored",
         "repeated-in-one-variable", "variable-past-end", "negative-variable"],
)
def test_malformed_support_rejected(support, nvars, message):
    # combine writes one value per position while inner sums every entry
    # naming it, so the family's two maps are adjoint only when each
    # off-diagonal position inside the matrix belongs to one variable once.
    with pytest.raises(ValueError, match=message):
        AffineMatrixFamily(
            gamma0=np.eye(3),
            support=tuple(np.array(a, dtype=np.intp) for a in support),
            variables=tuple(((1, k),) for k in range(nvars)),
        )


_SUPPORT = (np.array([0, 1]), np.array([1, 2]), np.array([0, 1]))


@pytest.mark.parametrize(
    "gamma0, support, message",
    [
        (np.ones(3), _SUPPORT, "gamma0"),
        (np.zeros((2, 2, 2)), _SUPPORT, "gamma0"),
        (np.zeros((3, 2)), _SUPPORT, "gamma0"),
        (np.eye(3) + 0.1j * (np.eye(3, k=2) + np.eye(3, k=-2)), _SUPPORT, "gamma0"),
        (np.full((3, 3), "1"), _SUPPORT, "gamma0"),
        (np.eye(3).astype(object), _SUPPORT, "gamma0"),
        (np.eye(3, dtype=bool), _SUPPORT, "gamma0"),
        (np.eye(3), (np.array([0.0, 1.0]), *_SUPPORT[1:]), "support"),
        (np.eye(3), (*_SUPPORT[:2], np.array([0, 1]).astype(object)), "support"),
        (np.eye(3), (np.array([[0, 1]]), *_SUPPORT[1:]), "support"),
        (np.eye(3), (np.array([0, 1, 0]), *_SUPPORT[1:]), "support"),
    ],
    ids=["1-d", "3-d", "not-square", "complex", "string", "object", "bool",
         "float-support", "object-support", "2-d-support", "unequal-lengths"],
)
def test_malformed_arrays_rejected(gamma0, support, message):
    # Every entry must be a real number the solver and verifier read as
    # given: a complex gamma0 would lose its imaginary part to both.
    with pytest.raises(ValueError, match=message):
        AffineMatrixFamily(gamma0=gamma0, support=support, variables=(((1, 0),), ((1, 1),)))


def test_unsigned_support_is_stored_as_intp():
    support = tuple(a.astype(np.uint64) for a in _SUPPORT)
    family = AffineMatrixFamily(gamma0=np.eye(3), support=support, variables=(((1, 0),), ((1, 1),)))
    for stored, given in zip(family.support, _SUPPORT):
        assert stored.dtype == np.intp
        assert np.array_equal(stored, given)
    assert np.array_equal(family.inner(np.ones((3, 3))), [2.0, 2.0])


def test_a_repeated_position_cannot_carry_a_false_certificate():
    # Variables 0 and 1 share the position (0, 2).  combine writes one value
    # there, and some completion of that kind is positive definite.  inner
    # sums the position once per variable, so Z = u u' with
    # u = (a, -a, a, b) has <G_k, Z> = 0 for both, unit trace and value
    # 1 - 2 / sqrt(3) = -0.155: a false proof of infeasibility.  The family
    # is rejected at construction, before any verifier can see that Z.
    gamma0 = np.eye(4)
    for (i, j), value in {(0, 3): -0.9, (1, 3): 0.5, (2, 3): -0.6}.items():
        gamma0[i, j] = gamma0[j, i] = value
    rows, cols, vidx = np.array([0, 0, 0, 1]), np.array([1, 2, 2, 2]), np.array([0, 0, 1, 1])
    completion = gamma0.copy()
    for (i, j), value in {(0, 1): -0.74, (0, 2): 0.32, (1, 2): 0.32}.items():
        completion[i, j] = completion[j, i] = value
    assert np.linalg.eigvalsh(completion)[0] > 0.04
    u = np.array([1.0, -1.0, 1.0, np.sqrt(3.0)]) / np.sqrt(6.0)
    z = np.outer(u, u)
    assert np.abs(np.bincount(vidx, weights=z[rows, cols] + z[cols, rows])).max() <= 1e-15
    assert np.trace(z) == pytest.approx(1.0, abs=1e-15)
    assert np.sum(gamma0 * z) == pytest.approx(1.0 - 2.0 / np.sqrt(3.0), abs=1e-15)
    with pytest.raises(ValueError, match="repeats a position"):
        AffineMatrixFamily(gamma0=gamma0, support=(rows, cols, vidx), variables=(((1, 0),), ((1, 1),)))


def test_a_family_cannot_be_changed_after_its_checks():
    # The family above padded by a unit row, with variable 1 at (1, 2) and
    # (0, 4): no position repeats, so it constructs.  Moving (0, 4) to the
    # shared (0, 2) afterwards, through the caller's array, must not reach
    # the family, or the false Z above, padded by a zero, would verify.
    gamma0 = np.eye(5)
    for (i, j), value in {(0, 3): -0.9, (1, 3): 0.5, (2, 3): -0.6}.items():
        gamma0[i, j] = gamma0[j, i] = value
    rows, cols, vidx = np.array([0, 0, 1, 0]), np.array([1, 2, 2, 4]), np.array([0, 0, 1, 1])
    family = AffineMatrixFamily(gamma0=gamma0, support=(rows, cols, vidx), variables=(((1, 0),), ((1, 1),)))
    cols[3] = 2
    gamma0[4, 4] = 0.0
    assert np.array_equal(family.support[1], [1, 2, 2, 4])
    assert family.gamma0[4, 4] == 1.0
    for array in (family.gamma0, *family.support):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    u = np.array([1.0, -1.0, 1.0, np.sqrt(3.0), 0.0]) / np.sqrt(6.0)
    z = np.outer(u, u)
    false_proof = DualCertificate(matrix=z, value=float(np.sum(family.gamma0 * z)))
    assert false_proof.value == pytest.approx(1.0 - 2.0 / np.sqrt(3.0), abs=1e-15)
    assert not verify_certificate(family, false_proof)


@functools.cache
def _benchmark_family(name):
    if name == "w-322":
        return _state_family(build_structure(Scenario(3, 2), 2), "w", "w")
    return _state_family(build_structure(Scenario(3, 3), 2), "graph-linear", "graph")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    case=st.sampled_from(["random", "repeated", "diagonal", "w-322", "graph-linear-332"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_maps_are_adjoint_or_rejected(case, seed):
    # The certificate proof rests on <combine(v), Z> = v . inner(Z) and
    # gamma(v) - gamma0 = combine(v).  A support in any order keeps them; a
    # repeated or diagonal position breaks the first, so such a family must
    # not construct.
    rng = np.random.default_rng(seed)
    if case in ("w-322", "graph-linear-332"):
        family = _benchmark_family(case)
    else:
        family = random_family(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)))
    n, nvars = family.dim, family.num_variables
    rows, cols, vidx = family.support
    order = rng.permutation(rows.size)
    rows, cols, vidx = rows[order], cols[order], vidx[order]
    if case == "repeated":
        p = int(rng.integers(rows.size))
        i, j = (rows[p], cols[p]) if rng.random() < 0.5 else (cols[p], rows[p])
    elif case == "diagonal":
        i = j = int(rng.integers(n))
    if case in ("repeated", "diagonal"):
        k = int(rng.integers(nvars))
        rows, cols, vidx = np.append(rows, i), np.append(cols, j), np.append(vidx, k)
    try:
        family = AffineMatrixFamily(gamma0=family.gamma0, support=(rows, cols, vidx), variables=family.variables)
    except ValueError:
        assert case in ("repeated", "diagonal")
        return
    v = rng.uniform(-1.0, 1.0, nvars)
    a = rng.normal(size=(n, n))
    z = a + a.T
    combined = family.combine(v)
    scale = np.sum(np.abs(combined) * np.abs(z))
    assert abs(np.sum(combined * z) - v @ family.inner(z)) <= 1e-12 * scale
    gamma = family.gamma(v)
    assert np.abs(gamma - family.gamma0 - combined).max() <= 1e-12 * np.abs(gamma).max()


def test_extraction_skipped_when_feasible():
    family = _family(np.eye(3), [])
    out = maximize_lambda_min(family, FAST)
    assert out.status == FEASIBLE
    assert out.certificate is None


def test_extract_certificate_trivial():
    family = _family(np.diag([1.0, -1.0]), [])
    u = np.linalg.eigh(family.gamma0)[1][:, 0]
    cert = extract_certificate(family, np.outer(u, u), 1e-7)
    assert cert is not None
    assert cert.value == pytest.approx(-1.0, abs=1e-9)
    assert verify_certificate(family, cert)


def test_extract_certificate_rejects_what_it_no_longer_repairs():
    # Z_a has unit trace but eigenvalues -0.1 and 1.1, so it is off the
    # cone; the second Z is PSD but has <G, Z> = 0.1, off the affine set.
    # Extraction values Z as it stands, so neither is a certificate.
    family = _family(np.array([[1.0, 2.0], [2.0, 1.0]]), [])
    z_a = np.array([[0.5, -0.6], [-0.6, 0.5]])
    assert extract_certificate(family, z_a, 1e-9) is None
    pattern = _pattern(3, 0, 1)
    family = _family(np.diag([1.0, -1.0, -1.0]), [pattern])
    z = np.diag([0.2, 0.3, 0.5]) + 0.05 * pattern
    assert np.linalg.eigvalsh(z)[0] > 0.0
    assert extract_certificate(family, z, 1e-9) is None


@pytest.mark.parametrize("shape", [(3, 3), (5,), (22, 21)], ids=str)
def test_extract_certificate_rejects_a_wrong_shape(structure_322, shape):
    # A Z that gamma0 cannot be paired with is off the verified form.
    family = _state_family(structure_322, "w", "w")
    assert extract_certificate(family, np.full(shape, 1.0 / 22)) is None


def _assert_unrepaired_form(family, certificate):
    # The solver's last dual iterate is exactly symmetric and on the affine
    # set to 1e-9, at least 100 times inside the default tol_cert.
    z = certificate.matrix
    assert np.array_equal(z, z.T)
    assert abs(np.trace(z) - 1.0) <= 1e-9
    assert np.abs(family.inner(z)).max(initial=0.0) <= 1e-9


def test_verify_rejects_bad_certificates():
    pattern = np.zeros((3, 3))
    pattern[0, 1] = pattern[1, 0] = 1.0
    family = _family(np.eye(3), [pattern])

    # Unit-trace PSD matrix that fails the orthogonality condition.
    z = np.eye(3) / 3 + 0.1 * pattern
    z /= np.trace(z)
    value = float(np.sum(family.gamma0 * z))
    assert not verify_certificate(family, DualCertificate(z, value))

    # Valid-looking matrix but a lying value field.
    z = np.diag([0.0, 0.0, 1.0])
    assert not verify_certificate(family, DualCertificate(z, -5.0))

    # Trace deviation beyond tolerance.
    z = np.diag([0.0, 0.0, 1.0 + 1e-5])
    value = float(np.sum(family.gamma0 * z))
    assert not verify_certificate(family, DualCertificate(z, value))

    # Negative eigenvalue beyond tolerance.
    z = np.diag([-1e-5, 0.0, 1.0 + 1e-5])
    value = float(np.sum(family.gamma0 * z))
    assert not verify_certificate(family, DualCertificate(z, value))

    # Asymmetry beyond tolerance.
    z = np.diag([0.0, 0.0, 1.0])
    z[0, 1] = 1e-5
    value = float(np.sum(family.gamma0 * z))
    assert not verify_certificate(family, DualCertificate(z, value))

    # Wrong shape.
    assert not verify_certificate(family, DualCertificate(np.eye(2) / 2, 1.0))


def test_verify_rejects_perturbed_orthogonality():
    family = _family(np.diag([1.0, 1.0, -1.0]), [_pattern(3, 0, 1)])
    out = maximize_lambda_min(family, FAST)
    assert out.status == CERTIFIED_INFEASIBLE
    cert = out.certificate
    assert verify_certificate(family, cert, tol=1e-7)
    bumped = cert.matrix + 10e-7 * dense_patterns(family)[0] / 2.0
    assert not verify_certificate(family, DualCertificate(bumped, cert.value), tol=1e-7)


def _pattern(dim, i, j):
    p = np.zeros((dim, dim))
    p[i, j] = p[j, i] = 1.0
    return p


def test_concavity_of_lambda_min():
    rng = np.random.default_rng(13)
    for _ in range(20):
        family = random_family(rng, int(rng.integers(3, 9)), int(rng.integers(1, 4)))
        k = family.num_variables
        v1 = rng.uniform(-1, 1, k)
        v2 = rng.uniform(-1, 1, k)
        theta = float(rng.uniform(0.1, 0.9))
        f = lambda v: float(np.linalg.eigvalsh(family.gamma(v))[0])
        mixed = f(theta * v1 + (1 - theta) * v2)
        assert mixed >= theta * f(v1) + (1 - theta) * f(v2) - 1e-9


def test_best_value_at_least_documented_starts():
    # Best-so-far tracking must cover both deterministic starting points.
    rng = np.random.default_rng(17)
    for _ in range(5):
        family = random_family(rng, 8, 3)
        out = maximize_lambda_min(family, FAST)
        start_zero = float(np.linalg.eigvalsh(family.gamma(np.zeros(3)))[0])
        assert out.lambda_star >= start_zero - 1e-12


def test_solver_against_grid_oracle():
    rng = np.random.default_rng(29)
    for case in range(6):
        family = random_family(rng, int(rng.integers(3, 10)), int(rng.integers(0, 4)))
        out = maximize_lambda_min(family, SolverConfig())
        oracle = grid_max_lambda_min(family)
        assert abs(out.lambda_star - oracle) <= 1e-3
        if out.certificate is not None:
            assert verify_certificate(family, out.certificate)
            # Weak duality: the grid's attained values stay below the
            # certificate value, up to the tolerance it was verified at.
            assert oracle <= out.certificate.value + SolverConfig().tol_cert
            _assert_unrepaired_form(family, out.certificate)
            assert out.lambda_star <= out.certificate.value + 1e-6


def _dense_schur(family, x, w):
    # M_ij = Tr(A_i X A_j S^-1) with A_0 = I and A_k = -G_k, taken densely.
    mats = [np.eye(family.dim)] + [-g for g in dense_patterns(family)]
    return np.array([[np.trace(ai @ x @ aj @ w) for aj in mats] for ai in mats])


def _assert_schur_matches_dense_formula(ops, x, w):
    # schur() assembles the lower triangle, all that M's Cholesky factor reads.
    dense = _dense_schur(ops.family, x, w)
    assert np.abs(np.tril(ops.schur(x, w)) - np.tril(dense)).max() <= 1e-12 * np.abs(dense).max()


def test_schur_blocks_match_dense_formula(monkeypatch):
    # M assembled in several row blocks, against the same sums taken densely.
    monkeypatch.setattr(sdp, "SCHUR_BLOCK", 40)
    rng = np.random.default_rng(5)
    family = random_family(rng, 9, 12)
    ops = sdp._FamilyOps(family)
    assert len(ops.blocks) > 1
    a = rng.normal(size=(9, 9))
    b = rng.normal(size=(9, 9))
    _assert_schur_matches_dense_formula(ops, a @ a.T, b @ b.T)


def _assert_schur_reuses_its_workspace(ops, rng):
    # Every call writes M's lower triangle into the same workspace: after a
    # call at other points, no entry of it may be left over and no block
    # may read another's part of a buffer.
    n = ops.family.dim
    points = []
    for _ in range(2):
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        points.append((a @ a.T, b @ b.T))
    first = np.tril(ops.schur(*points[0]))
    for x, w in points + points[:1]:
        _assert_schur_matches_dense_formula(ops, x, w)
    assert np.array_equal(np.tril(ops.schur(*points[0])), first)


def test_schur_workspace_is_reused_across_blocks_of_several_widths(monkeypatch):
    # Blocks of 3, 2 and 1 variables of support sizes 1 to 3: each fills a
    # different prefix of the buffers, sized for the largest.
    monkeypatch.setattr(sdp, "SCHUR_BLOCK", 250)
    rng = np.random.default_rng(12)
    ops = sdp._FamilyOps(random_family(rng, 9, 14))
    assert {m_rows.size for m_rows, _, _ in ops.blocks} == {1, 2, 3}
    assert {a.shape[1] for _, a, _ in ops.blocks} == {2, 4, 6}
    _assert_schur_reuses_its_workspace(ops, rng)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 100, 250, 1000, sdp.SCHUR_BLOCK]))
def test_schur_workspace_is_reused_on_random_families(seed, block):
    rng = np.random.default_rng(seed)
    family = random_family(rng, int(rng.integers(2, 10)), int(rng.integers(0, 16)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdp, "SCHUR_BLOCK", block)
        ops = sdp._FamilyOps(family)
    _assert_schur_reuses_its_workspace(ops, rng)


def test_a_warm_schur_call_allocates_less_than_one_block_product():
    # The workspace is allocated with the solve's _FamilyOps, so a Newton
    # step's assembly allocates no block product, gathered entries or M.
    family = _benchmark_family("graph-linear-332")
    ops = sdp._FamilyOps(family)
    n = family.dim
    rng = np.random.default_rng(3)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    x, w = a @ a.T, b @ b.T
    ops.schur(x, w)
    tracemalloc.start()
    try:
        ops.schur(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widest = max(m_rows.size for m_rows, _, _ in ops.blocks)
    assert peak < widest * n * n * 8


def test_schur_rows_of_the_visibility_form_match_dense_formula(monkeypatch):
    # The family at visibility p, (1 - p) I + p gamma0, keeps the G_k of the
    # family at 1, so its Schur rows are theirs.  Support sizes 1 to 3 give
    # blocks of several shapes, and the small SCHUR_BLOCK splits each shape.
    monkeypatch.setattr(sdp, "SCHUR_BLOCK", 100)
    rng = np.random.default_rng(8)
    high = random_family(rng, 10, 14)
    low = white_noise_family(high, 0.3)
    ops = sdp._FamilyOps(low)
    shapes = [a.shape[1] for _, a, _ in ops.blocks]
    assert set(shapes) == {2, 4, 6}
    assert len(shapes) > len(set(shapes))
    a = rng.normal(size=(10, 10))
    b = rng.normal(size=(10, 10))
    x, w = a @ a.T, b @ b.T
    dense = _dense_schur(high, x, w)
    assert np.abs(np.tril(ops.schur(x, w)) - np.tril(dense)).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(np.tril(ops.schur(x, w)), np.tril(sdp._FamilyOps(high).schur(x, w)))


def _spd(rng, n, condition):
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    m = (q * np.logspace(0.0, -np.log10(condition), n)) @ q.T
    return 0.5 * (m + m.T)


@pytest.mark.parametrize(
    "n, condition",
    [(1, 1e2), (31, 1e2), (32, 1e2), (33, 1e2), (96, 1e12), (193, 1e2)],
)
def test_cholesky_solver_agrees_with_a_direct_solve(n, condition):
    # Sizes on both sides of the SOLVE_BLOCK = 32 block boundaries.  A
    # Newton step solves M x = r as L^-T (L^-1 r) with the inverse factor;
    # that solve is backward stable like the LU of np.linalg.solve: its
    # relative residual |M x - r| / (|M| |x|) stays at rounding level at
    # every condition number, and on well-conditioned M the two solutions
    # agree.
    rng = np.random.default_rng(n)
    m = _spd(rng, n, condition)
    rhs = rng.normal(size=n)
    l_inv = sdp._inverse_cholesky(m)
    x, reference = l_inv.T @ (l_inv @ rhs), np.linalg.solve(m, rhs)
    assert np.linalg.norm(m @ x - rhs) <= 1e-14 * np.linalg.norm(m, 2) * np.linalg.norm(x)
    if condition < 1e3:
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
    assert np.array_equal(sdp._inverse_cholesky(m), l_inv)


@pytest.mark.parametrize("n", [20, 50, 100])
def test_schur_solver_rejects_an_indefinite_matrix(n):
    # Within one SOLVE_BLOCK and across blocks the failed factorization
    # raises, and that is the solve's stall exit.
    m = _spd(np.random.default_rng(n), n, 1e2)
    m[n // 2, n // 2] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        sdp._inverse_cholesky(m)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 96, 193])
def test_inverse_cholesky_inverts_the_factor_in_its_own_array(n):
    # Up to SOLVE_BLOCK rows the block loop runs once and is the inverse of
    # the whole factor, bit for bit.  Beyond, each block row is built from
    # the rows above it: nothing above the diagonal blocks is written, so
    # it stays exactly 0, and the result inverts the factor.  At the 193
    # rows of a (3,3,2) level-2 Schur complement, a warm call allocates the
    # factor and a block row's products, not a second (n, n) array as an
    # inverse of the whole factor would.
    m = _spd(np.random.default_rng(n), n, 1e2)
    factor = np.linalg.cholesky(m)
    inverse = sdp._inverse_cholesky(m)
    if n <= sdp.SOLVE_BLOCK:
        assert np.array_equal(inverse, np.linalg.inv(factor))
        return
    blocks = np.arange(n) // sdp.SOLVE_BLOCK
    assert not inverse[blocks[:, None] < blocks[None, :]].any()
    assert np.abs(inverse @ factor - np.eye(n)).max() <= 1e-12
    if n < 193:
        return
    tracemalloc.start()
    try:
        sdp._inverse_cholesky(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


@pytest.mark.parametrize("n", [22, 46, 193])
def test_inverse_cholesky_reads_only_the_lower_triangle(n):
    # The Schur assembly leaves M's strict upper triangle stale: a NaN
    # there must not reach the inverse factor.  22, 46 and 193 rows are the
    # (3,2,2) and (3,3,2) level-2 sizes of X and of M.
    m = _spd(np.random.default_rng(n), n, 1e2)
    stale = m.copy()
    stale[np.triu_indices(n, 1)] = np.nan
    assert np.array_equal(sdp._inverse_cholesky(stale), sdp._inverse_cholesky(m))


@pytest.mark.parametrize("name", ["w-322", "graph-linear-332"])
def test_a_solve_never_reads_above_the_schur_diagonal(monkeypatch, name):
    # With M's workspace all NaN before the first step, every entry a
    # Newton step reads must have been written by its own assembly, so the
    # solve is bit for bit the unpatched one.
    family = _benchmark_family(name)
    reference = maximize_lambda_min(family)

    class Poisoned(sdp._FamilyOps):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.m.fill(np.nan)

    monkeypatch.setattr(sdp, "_FamilyOps", Poisoned)
    out = maximize_lambda_min(family)
    assert out.status == reference.status == CERTIFIED_INFEASIBLE
    assert (out.lambda_star, out.iterations) == (reference.lambda_star, reference.iterations)
    assert out.v_star.tobytes() == reference.v_star.tobytes()
    assert out.certificate.matrix.tobytes() == reference.certificate.matrix.tobytes()
    assert out.certificate.value == reference.certificate.value


@pytest.mark.parametrize(
    "state, suite, scenario, rows",
    [
        ("w", "w", Scenario(3, 2), 31),
        ("w", "w", Scenario(4, 2), 83),
        ("graph-linear", "graph", Scenario(3, 3), 193),
    ],
    ids=["w-322", "w-422", "graph-linear-332"],
)
def test_newton_systems_never_call_the_direct_solve(monkeypatch, state, suite, scenario, rows):
    # At every size the Schur complement is solved through the Cholesky
    # factor that tests it, never by np.linalg.solve.
    structure = build_structure(scenario, 2)
    table = correlator_table(make_state(state, scenario.parties), standard_suite(suite), structure)
    family = assemble(structure, table)
    assert family.num_variables + 1 == rows
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert maximize_lambda_min(family).status == CERTIFIED_INFEASIBLE
    assert calls == []


def test_support_is_never_scanned_from_patterns(structure_322):
    # assemble emits the support as a slice of the structure's index maps,
    # in the order of the structure's positions; a family has no dense
    # patterns to scan, and
    # the solve, the certificate extraction and the verifier work on the
    # support alone.
    family = _state_family(structure_322, "w", "w")
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    assert verify_certificate(family, out.certificate)
    rows, cols, vidx = family.support
    positions = moment_positions(structure_322, structure_322.freevars)
    reference = [positions[var] for var in family.variables]
    assert np.array_equal(rows, [i for group in reference for i, _ in group])
    assert np.array_equal(cols, [j for group in reference for _, j in group])
    assert np.array_equal(vidx, [k for k, group in enumerate(reference) for _ in group])


def test_one_family_ops_per_solve(monkeypatch, structure_322):
    # The solve builds its program once; certificate extraction works on
    # the family's own maps and builds none.
    built = []

    class Counted(sdp._FamilyOps):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sdp, "_FamilyOps", Counted)
    family = _state_family(structure_322, "w", "w")
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    assert len(built) == 1
    built.clear()
    assert extract_certificate(family, out.certificate.matrix) is not None
    assert built == []


def test_certificate_bounds_lambda_min_everywhere():
    # The point of the certificate: <gamma0, Z> upper-bounds lambda_min at
    # every v, inside [-1, 1] and beyond, so sampling can never beat a
    # verified value.
    rng = np.random.default_rng(43)
    family = random_family(rng, 10, 3)
    out = maximize_lambda_min(family, SolverConfig())
    if out.status != CERTIFIED_INFEASIBLE:
        pytest.skip("sampled family happened to be feasible")
    bound = out.certificate.value
    for _ in range(200):
        v = rng.uniform(-2.0, 2.0, family.num_variables)
        assert np.linalg.eigvalsh(family.gamma(v))[0] <= bound + 1e-9


def test_witness_validity_on_feasible_outcomes():
    rng = np.random.default_rng(31)
    seen_feasible = False
    for case in range(8):
        family = random_family(rng, int(rng.integers(3, 8)), int(rng.integers(1, 4)))
        out = maximize_lambda_min(family, FAST)
        if out.status == FEASIBLE:
            seen_feasible = True
            assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] >= -1e-8
    assert seen_feasible


def test_determinism():
    rng = np.random.default_rng(37)
    family = random_family(rng, 9, 3)
    config = SolverConfig(max_iters=600)
    first = maximize_lambda_min(family, config)
    second = maximize_lambda_min(family, config)
    assert first.lambda_star == second.lambda_star
    assert np.array_equal(first.v_star, second.v_star)
    assert first.status == second.status


def _state_family(structure, state, suite):
    table = correlator_table(make_state(state, 3), standard_suite(suite), structure)
    return assemble(structure, table, PinPolicy.all())


@pytest.mark.parametrize(
    "structure_name, state, suite, optimum",
    [
        ("structure_322", "w", "w", -0.17809),
        ("structure_322", "ghz", "ghz", -0.09446),
        ("structure_332", "graph-linear", "graph", -0.19729),
    ],
)
def test_lambda_star_is_the_optimum(request, structure_name, state, suite, optimum):
    family = _state_family(request.getfixturevalue(structure_name), state, suite)
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    assert abs(out.lambda_star - optimum) <= 1e-5
    # lambda_star is attained, and the certificate value is the dual value
    # of the same program, above it by no more than the solver's gap.
    assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] == pytest.approx(out.lambda_star, abs=1e-12)
    assert 0.0 <= out.certificate.value - out.lambda_star <= 1e-8


@pytest.mark.parametrize(
    "state, suite, scenario",
    [("w", "w", Scenario(3, 2)), ("graph-linear", "graph", Scenario(3, 3))],
)
def test_level_three_certificates_are_the_unrepaired_dual(state, suite, scenario):
    # Graph-linear on (3,3,2) at level 3 (dim 130, 402 variables) is the
    # largest documented size, where the residuals of Z are largest.
    request = AnalysisRequest(source=SimulatedSource(state, suite), scenario=scenario, level=3)
    family = family_for_request(request)
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    assert verify_certificate(family, out.certificate)
    _assert_unrepaired_form(family, out.certificate)


def test_lambda_star_is_the_optimum_where_a_box_would_bind(monkeypatch):
    # This family's maximizer has |v_k| > 1, where a [-1, 1] box on v would
    # bind.  One solve still gives lambda_star and the certificate value as
    # the primal and dual values of one program.
    family = random_family(np.random.default_rng(12), 6, 2)
    solves = []
    solve = sdp._interior_point

    def recorded(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(sdp, "_interior_point", recorded)
    out = maximize_lambda_min(family)
    assert len(solves) == 1
    assert np.abs(out.v_star).max() > 1.1
    assert out.status == CERTIFIED_INFEASIBLE
    assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] == pytest.approx(out.lambda_star, abs=1e-12)
    assert 0.0 <= out.certificate.value - out.lambda_star <= 1e-8
    # The grid search, attained at every point, finds nothing better.
    assert grid_max_lambda_min(family) <= out.lambda_star + 1e-12


def test_solve_does_not_depend_on_the_order_of_the_support(structure_322):
    # W with its support positions permuted is the same family: Gamma(v) is
    # identical for every v, so the solve must certify it just the same.
    family = _state_family(structure_322, "w", "w")
    rows, cols, vidx = family.support
    order = np.random.default_rng(0).permutation(rows.size)
    shuffled = dataclasses.replace(family, support=(rows[order], cols[order], vidx[order]))
    v = np.random.default_rng(1).uniform(-1.0, 1.0, family.num_variables)
    assert np.array_equal(shuffled.gamma(v), family.gamma(v))
    grouped, out = maximize_lambda_min(family), maximize_lambda_min(shuffled)
    assert out.status == grouped.status == CERTIFIED_INFEASIBLE
    assert out.iterations == grouped.iterations
    assert out.lambda_star == pytest.approx(grouped.lambda_star, abs=1e-12)
    assert verify_certificate(shuffled, out.certificate)


@pytest.mark.parametrize(
    "structure_name, suite", [("structure_332", "graph"), ("structure_322", "w")]
)
def test_basis_states_are_feasible(request, structure_name, suite):
    # Product eigenstates put the optimum exactly at 0, on the cone boundary.
    # On the graph suite the Newton system degenerates before the gap
    # closes, so those solves end on the stall exit.
    structure = request.getfixturevalue(structure_name)
    for bits in itertools.product("01", repeat=3):
        family = _state_family(structure, "basis:" + "".join(bits), suite)
        out = maximize_lambda_min(family)
        assert out.status == FEASIBLE
        assert out.exit == ("newton_stall" if suite == "graph" else "gap")
        assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] >= -1e-8


@pytest.mark.parametrize("state, steps, step_lengths", [("w", 7, 30), ("ghz", 8, 32)])
def test_steps_keep_the_second_corrector_or_fall_back(
    monkeypatch, structure_322, state, steps, step_lengths
):
    # W and GHZ at p = 1 end on the gap exit.  A step takes two step
    # lengths for the predictor and two for the second corrector, and two
    # more when it falls back to Mehrotra's corrector: 4 calls per step kept
    # and 6 per step that falls back.  So W takes both branches, keeping
    # the second corrector on 6 of its 7 steps, and GHZ keeps it at every
    # step; the solve's own count of kept steps must say the same.
    calls = []
    max_step = sdp._max_step

    def counted(*args):
        calls.append(args)
        return max_step(*args)

    monkeypatch.setattr(sdp, "_max_step", counted)
    out = maximize_lambda_min(_state_family(structure_322, state, state))
    assert out.status == CERTIFIED_INFEASIBLE
    assert (out.exit, out.iterations, len(calls)) == ("gap", steps, step_lengths)
    assert out.second_corrector_steps == (6 * steps - step_lengths) // 2 == {"w": 6, "ghz": 8}[state]


@pytest.mark.parametrize(
    "structure_name, state, suite",
    [
        ("structure_322", "w", "w"),
        ("structure_322", "ghz", "ghz"),
        ("structure_332", "graph-linear", "graph"),
        ("structure_332", "graph-loop", "graph"),
    ],
)
def test_certificates_keep_the_dual_constraints(request, structure_name, state, suite):
    # Each Newton step carries only the residual of Tr Z = 1 and
    # <G_k, Z> = 0 (S is taken from y), so the certificate must still meet
    # them to rounding, far inside the verifier's 1e-7.
    family = _state_family(request.getfixturevalue(structure_name), state, suite)
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    z = out.certificate.matrix
    assert abs(np.trace(z) - 1.0) <= 1e-10
    assert np.abs(family.inner(z)).max() <= 1e-10


@pytest.mark.parametrize(
    "structure_name, state, suite",
    [("structure_322", "w", "w"), ("structure_332", "graph-loop", "graph")],
)
def test_the_primal_residual_pulls_z_back_onto_its_constraints(
    monkeypatch, request, structure_name, state, suite
):
    # The first constraints() call scales the starting Z in place, off
    # Tr Z = 1.  The correctors carry the residual b - A(Z), so the solve
    # must still end on the constraints to rounding.
    scaled = []
    constraints = sdp._FamilyOps.constraints

    def scaling(self, z):
        if not scaled:
            z *= 1.0 + 1e-3
            scaled.append(True)
        return constraints(self, z)

    ends = []
    interior_point = sdp._interior_point

    def recorded(*args):
        ends.append(interior_point(*args))
        return ends[-1]

    monkeypatch.setattr(sdp._FamilyOps, "constraints", scaling)
    monkeypatch.setattr(sdp, "_interior_point", recorded)
    family = _state_family(request.getfixturevalue(structure_name), state, suite)
    maximize_lambda_min(family)
    z = ends[0][0]
    assert scaled and ends[0][4] == "gap"
    assert abs(np.trace(z) - 1.0) <= 1e-10
    assert np.abs(family.inner(z)).max() <= 1e-10


def test_a_capped_solve_reports_the_max_iters_exit(structure_322):
    out = maximize_lambda_min(_state_family(structure_322, "w", "w"), SolverConfig(max_iters=2))
    assert (out.exit, out.iterations) == ("max_iters", 2)


def test_config_rejects_non_finite_values():
    for name in ("tol_cert", "margin", "max_iters", "restarts"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})


def test_verify_rejects_non_finite_tolerance(structure_322):
    # Every comparison against NaN is false, so a NaN tolerance would wave
    # through this junk certificate.
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    family = assemble(structure_322, table)
    junk = DualCertificate(matrix=-np.ones((22, 22)), value=-123.0)
    assert not verify_certificate(family, junk, 1e-7)
    for bad in (float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="tol"):
            verify_certificate(family, junk, bad)


def test_verify_rejects_non_finite_certificates(structure_322):
    # W's genuine certificate, with a NaN put in its value or its matrix.
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    family = assemble(structure_322, table)
    genuine = maximize_lambda_min(family).certificate
    assert verify_certificate(family, genuine)
    assert not verify_certificate(family, DualCertificate(genuine.matrix, float("nan")))
    for bad in (float("nan"), float("inf")):
        matrix = genuine.matrix.copy()
        matrix[0, 0] = bad
        assert not verify_certificate(family, DualCertificate(matrix, genuine.value))


def test_extract_certificate_rejects_non_finite_duals():
    # Off the diagonal, inf meets a zero of gamma0 and values to NaN.
    family = _family(np.diag([1.0, -1.0]), [])
    for bad in (float("nan"), float("inf")):
        assert extract_certificate(family, np.array([[0.0, 0.0], [0.0, bad]])) is None
        assert extract_certificate(family, np.array([[0.5, bad], [bad, 0.5]])) is None


def _family_at(state, visibility, suite=None, scenario=Scenario(3, 2)):
    source = SimulatedSource(state, suite or state, visibility)
    return family_for_request(AnalysisRequest(source=source, scenario=scenario))


@pytest.mark.parametrize(
    "state, suite, scenario",
    [
        ("w", "w", Scenario(3, 2)),
        ("ghz", "ghz", Scenario(3, 2)),
        ("graph-linear", "graph", Scenario(3, 3)),
        ("graph-loop", "graph", Scenario(3, 3)),
    ],
)
def test_p_one_certificate_certifies_above_p_star(state, suite, scenario):
    # The certificate of the solve at visibility 1, of value c there, has
    # value 1 - p (1 - c) on the family simulated at visibility p: below
    # -margin past p_star = (1 + margin) / (1 - c), at any tolerance.
    margin = SolverConfig().margin
    certificate = maximize_lambda_min(_family_at(state, 1.0, suite, scenario)).certificate
    z = certificate.matrix
    p_star = (1.0 + margin) / (1.0 - certificate.value)
    for tolerance in (0.25, 1e-2, 1e-4, 1e-6, 1e-8):
        at_hi = _family_at(state, min(1.0, p_star + 0.5 * tolerance), suite, scenario)
        revalued = DualCertificate(z, float(np.sum(at_hi.gamma0 * z)))
        assert verify_certificate(at_hi, revalued) and revalued.value < -margin


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    nvars=st.integers(0, 6),
    scale=st.sampled_from([0.1, 1.0, 10.0, 1e3]),
    tol=st.sampled_from([1e-9, 1e-7, 1e-4, 1e-2, 0.3]),
)
def test_certificate_floor_bounds_every_verified_certificate(seed, dim, nvars, scale, tol):
    rng = np.random.default_rng(seed)
    family = random_family(rng, dim, nvars)
    k = family.num_variables
    # v is drawn far outside the [-1, 1] box as well as inside it.
    v = scale * rng.uniform(-1.0, 1.0, k)
    floor = certificate_floor(family, v, tol)
    lam = float(np.linalg.eigvalsh(family.gamma(v))[0])
    rows, cols, vidx = family.support
    # <G_k, G_k> is twice the size of k's support.
    step = 0.99 * tol * np.sign(v)[vidx] / (2.0 * np.bincount(vidx, minlength=k)[vidx])
    a = rng.normal(size=(dim, dim))
    for z in (a @ a.T, 0.5 * (a + a.T)):
        certificate = extract_certificate(family, dual_of_the_verified_form(family, z), tol)
        assert certificate is not None
        assert certificate.value >= floor
        # Spend the slack verification allows against the floor: each
        # <G_k, Z> moves by 0.99 tol along v_k, Tr Z by 0.99 tol against
        # lambda, and the stored value 0.99 tol below <gamma0, Z>.
        z = certificate.matrix.copy()
        z[rows, cols] += step
        z[cols, rows] += step
        z *= 1.0 - 0.99 * tol * np.sign(lam)
        stretched = DualCertificate(z, float(np.sum(family.gamma0 * z)) - 0.99 * tol)
        if verify_certificate(family, stretched, tol):
            assert stretched.value >= floor
    # Rescaled to the unit diagonal, a shifted Gamma(v) is a positive
    # definite point of a family of the same shape, where the floor is the
    # margin rule's.
    shift = max(0.0, -float(np.linalg.eigvalsh(family.gamma(v))[0])) + tol
    scaled = AffineMatrixFamily(
        gamma0=(family.gamma0 + shift * np.eye(dim)) / (1.0 + shift),
        support=family.support,
        variables=family.variables,
    )
    bound = -(dim + k + 1) * tol
    assert certificate_floor(scaled, v / (1.0 + shift), tol) >= bound


def test_certificate_floor_rejects_non_finite_tolerance():
    family = _family(np.eye(2), [])
    for bad in (float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="tol"):
            certificate_floor(family, np.zeros(0), bad)


def _check_outcome_contract(family, config):
    # analyze takes the verdict from the status alone, so the solver must
    # hold only certificates the verifier accepts at tol_cert, and be
    # CERTIFIED_INFEASIBLE exactly when one lies below -margin.
    outcome = maximize_lambda_min(family, config)
    certificate = outcome.certificate
    if certificate is not None:
        assert verify_certificate(family, certificate, config.tol_cert)
    certified = certificate is not None and certificate.value < -config.margin
    assert (outcome.status == CERTIFIED_INFEASIBLE) == certified
    # One program: lambda_star is attained at v_star, a certified value is
    # above it by no more than the solver's gap, and the unit diagonal of
    # Gamma(v_star) - lambda_star I >= 0 keeps |v_k| <= 1 - lambda_star, so
    # a bound on v would add nothing where the data are feasible.
    assert np.linalg.eigvalsh(family.gamma(outcome.v_star))[0] == pytest.approx(
        outcome.lambda_star, abs=1e-12
    )
    if certified:
        assert 0.0 <= certificate.value - outcome.lambda_star <= 1e-8
    largest = float(np.abs(outcome.v_star).max(initial=0.0))
    assert largest <= 1.0 - outcome.lambda_star + 1e-9
    if outcome.status == FEASIBLE:
        assert largest <= 1.0 + sdp.WITNESS_TOL
    return outcome


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    nvars=st.integers(0, 6),
    tol_cert=st.sampled_from([1e-9, 1e-7, 1e-5]),
    margin=st.sampled_from([1e-3, 0.05, 0.3]),
)
def test_solve_status_is_the_verified_certificate_verdict(seed, dim, nvars, tol_cert, margin):
    family = random_family(np.random.default_rng(seed), dim, nvars)
    _check_outcome_contract(family, SolverConfig(tol_cert=tol_cert, margin=margin))


@pytest.mark.parametrize("visibility", [0.9, 1.0])
@pytest.mark.parametrize(
    "state, suite, scenario",
    [
        ("w", "w", Scenario(3, 2)),
        ("ghz", "ghz", Scenario(3, 2)),
        ("graph-linear", "graph", Scenario(3, 3)),
        ("graph-loop", "graph", Scenario(3, 3)),
    ],
)
def test_state_solves_keep_the_verdict_contract(state, suite, scenario, visibility):
    # At 0.9 GHZ, whose critical visibility is about 0.915, is FEASIBLE.
    outcome = _check_outcome_contract(
        _family_at(state, visibility, suite, scenario), SolverConfig()
    )
    if visibility == 1.0:
        assert outcome.status == CERTIFIED_INFEASIBLE
