import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import (
    CERTIFIED_INFEASIBLE,
    FEASIBLE,
    AnalysisRequest,
    CorrelatorTable,
    DualCertificate,
    PinPolicy,
    Scenario,
    SimulatedSource,
    SolverConfig,
    assemble,
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
    random_family,
    support_arrays,
)

FAST = SolverConfig(max_iters=800)


def _family(gamma0, patterns, bounds=None):
    patterns = tuple(np.asarray(p, dtype=float) for p in patterns)
    k = len(patterns)
    if bounds is None:
        bounds = np.tile([-1.0, 1.0], (k, 1))
    variables = tuple(((1, i),) for i in range(k))
    return AffineMatrixFamily(
        gamma0=np.asarray(gamma0, dtype=float),
        support=support_arrays(patterns),
        bounds=np.asarray(bounds, dtype=float).reshape(k, 2),
        variables=variables,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(margin=1e-8, tol_cert=1e-7)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)


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
    family = _family(np.zeros((0, 0)), [])
    with pytest.raises(ValueError):
        maximize_lambda_min(family, FAST)
    off_diagonal = np.array([[0.0, 1.0], [1.0, 0.0]])
    malformed = [
        (_family(np.eye(2), [off_diagonal, np.zeros((2, 2))]), "empty support"),
        (_family(np.eye(2) + 0.5 * off_diagonal, [off_diagonal]), "overlaps a variable support"),
        (_family(np.eye(2), [off_diagonal], bounds=[0.5, -0.5]), "finite intervals"),
    ]
    for family, message in malformed:
        with pytest.raises(ValueError, match=message):
            maximize_lambda_min(family, FAST)


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
            _assert_unrepaired_form(family, out.certificate)
            assert out.lambda_star <= out.certificate.value + 1e-6


def test_lambda_star_is_the_boxed_optimum_when_the_clip_binds():
    # Without the [-1, 1] box this family's maximizer has |v_k| > 1, so
    # clipping it to the box would lose about 0.02; lambda_star must still
    # be the optimum over the box.
    family = random_family(np.random.default_rng(12), 6, 2)
    wide = _family(family.gamma0, dense_patterns(family), np.tile([-10.0, 10.0], (2, 1)))
    unboxed = maximize_lambda_min(wide).v_star
    assert np.abs(unboxed).max() > 1.1
    clipped = np.linalg.eigvalsh(family.gamma(np.clip(unboxed, -1.0, 1.0)))[0]
    out = maximize_lambda_min(family)
    assert out.lambda_star >= clipped + 1e-2
    assert abs(out.lambda_star - grid_max_lambda_min(family)) <= 1e-6
    assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] == pytest.approx(out.lambda_star, abs=1e-12)
    assert out.status == CERTIFIED_INFEASIBLE
    assert out.lambda_star <= out.certificate.value


def test_schur_blocks_match_dense_formula(monkeypatch):
    # M_ij = Tr(A_i X A_j S^-1) with A_0 = I and A_k = -G_k, assembled in
    # several row blocks, against the same sums taken densely.
    monkeypatch.setattr(sdp, "SCHUR_BLOCK", 40)
    rng = np.random.default_rng(5)
    family = random_family(rng, 9, 12)
    ops = sdp._FamilyOps(family)
    assert len(ops.blocks) > 1
    a = rng.normal(size=(9, 9))
    b = rng.normal(size=(9, 9))
    x, w = a @ a.T, b @ b.T
    mats = [np.eye(9)] + [-g for g in dense_patterns(family)]
    dense = np.array([[np.trace(ai @ x @ aj @ w) for aj in mats] for ai in mats])
    assert np.abs(ops.schur(x, w) - dense).max() <= 1e-12 * np.abs(dense).max()


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
    mats = [np.eye(10)] + [-g for g in dense_patterns(high)]
    dense = np.array([[np.trace(ai @ x @ aj @ w) for aj in mats] for ai in mats])
    assert np.abs(ops.schur(x, w) - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(ops.schur(x, w), sdp._FamilyOps(high).schur(x, w))


def test_support_is_never_scanned_from_patterns(structure_322):
    # assemble emits the support from compiled index maps, in the order of
    # the structure's positions; a family has no dense patterns to scan, and
    # the solve, the certificate extraction and the verifier work on the
    # support alone.
    family = _state_family(structure_322, "w", "w")
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    assert verify_certificate(family, out.certificate)
    rows, cols, vidx = family.support
    positions = structure_322.positions(structure_322.freevars)
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
    # The point of the certificate: <gamma0, Z> upper-bounds lambda_min over
    # the whole box, so sampling can never beat a verified value.
    rng = np.random.default_rng(43)
    family = random_family(rng, 10, 3)
    out = maximize_lambda_min(family, SolverConfig())
    if out.status != CERTIFIED_INFEASIBLE:
        pytest.skip("sampled family happened to be feasible")
    bound = out.certificate.value
    for _ in range(200):
        v = rng.uniform(family.bounds[:, 0], family.bounds[:, 1])
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
    # lambda_star is attained and the certificate bounds it from above.
    assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] == pytest.approx(out.lambda_star, abs=1e-12)
    assert out.lambda_star <= out.certificate.value
    assert out.certificate.value - out.lambda_star <= 1e-6


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


def test_interval_pins_give_the_boxed_optimum(structure_322):
    # Every pin widened to value +- 1e-6: the box contains the point-pinned
    # family, so its optimum is at least W's -0.1780942, and only just.
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    widened = CorrelatorTable(table.scenario, {k: (table.value(k), 1e-6) for k in table.keys()})
    family = assemble(structure_322, widened, PinPolicy.all(), interval_sigmas=1.0)
    out = maximize_lambda_min(family)
    assert -0.1780942 - 1e-9 <= out.lambda_star <= -0.17809 + 1e-5
    assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] == pytest.approx(out.lambda_star, abs=1e-12)
    assert np.all((family.bounds[:, 0] <= out.v_star) & (out.v_star <= family.bounds[:, 1]))


def test_zero_interval_sigmas_pin_every_point(structure_322):
    # k = 0 widens no pin: W with sigma 0.01 on every key gives the
    # point-pinned family and is certified as before.
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    noisy = CorrelatorTable(table.scenario, {k: (table.value(k), 0.01) for k in table.keys()})
    point = assemble(structure_322, table, PinPolicy.all())
    family = assemble(structure_322, noisy, PinPolicy.all(), interval_sigmas=0.0)
    assert family.gamma0.tobytes() == point.gamma0.tobytes()
    assert family.variables == point.variables
    assert family.pinned_keys == point.pinned_keys
    assert family.bounds.tobytes() == point.bounds.tobytes()
    out = maximize_lambda_min(family)
    assert out.status == CERTIFIED_INFEASIBLE
    assert verify_certificate(family, out.certificate)


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
        assert np.linalg.eigvalsh(family.gamma(out.v_star))[0] >= -1e-8


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
    for bad in (float("nan"), float("inf")):
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
        bounds=family.bounds,
        variables=family.variables,
    )
    bound = -(dim + k + 1) * tol
    assert certificate_floor(scaled, v / (1.0 + shift), tol) >= bound


def test_certificate_floor_rejects_non_finite_tolerance():
    family = _family(np.eye(2), [])
    for bad in (float("nan"), float("inf")):
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
