import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import (
    INCONCLUSIVE,
    NONLOCAL,
    AnalysisRequest,
    CorrelatorTable,
    DualCertificate,
    DuplicateMoment,
    MeasuredSource,
    NoBracket,
    PinPolicy,
    PipelineError,
    RangeError,
    Scenario,
    SchemaError,
    SimulatedSource,
    SolverConfig,
    UnsoundConfig,
    analyze,
    certificate_from_document,
    correlator_table,
    family_for_request,
    ingest_table,
    make_state,
    maximize_lambda_min,
    robustness,
    standard_suite,
    table_document,
    verify_certificate,
)
from momentcert import analysis, hierarchy
from momentcert.algebra import key_name
from momentcert.sdp import WITNESS_TOL, certificate_floor

from helpers import bisect_visibility

FAST = SolverConfig(max_iters=800)
S322 = Scenario(3, 2)
DATA = Path(__file__).parent / "data"


def _request(state, suite, policy=None, visibility=1.0, config=FAST, scenario=S322):
    return AnalysisRequest(
        source=SimulatedSource(state, suite, visibility),
        scenario=scenario,
        level=2,
        policy=policy if policy is not None else PinPolicy.all(),
        config=config,
    )


def test_w_state_detected():
    request = _request("w", "w")
    report = analyze(request)
    assert report.verdict == NONLOCAL
    assert report.outcome.status == "CERTIFIED_INFEASIBLE"
    assert report.certificate is not None
    assert verify_certificate(family_for_request(request), report.certificate)
    assert report.certificate.value < -1e-3
    assert len(report.pinned_keys) == 26


def test_ghz_needs_full_body_pins():
    nonlocal_report = analyze(_request("ghz", "ghz"))
    assert nonlocal_report.verdict == NONLOCAL
    partial = analyze(_request("ghz", "ghz", policy=PinPolicy.max_bodies(2)))
    assert partial.verdict == INCONCLUSIVE


def test_product_state_is_inconclusive_with_witness():
    report = analyze(_request("basis:000", "w"))
    assert report.verdict == INCONCLUSIVE
    assert report.outcome.status == "FEASIBLE"
    body = json.loads(json.dumps(report.document()))["body"]
    assert certificate_from_document(body) is None


def test_determinism_excluding_wall_time():
    first = analyze(_request("w", "w", config=SolverConfig(max_iters=400)))
    second = analyze(_request("w", "w", config=SolverConfig(max_iters=400)))
    assert first.wall_time_s != 0.0
    assert json.dumps(first.body_document(), sort_keys=True) == json.dumps(
        second.body_document(), sort_keys=True
    )


def test_visibility_scales_tables(structure_322):
    state = make_state("w", 3)
    suite = standard_suite("w")
    base = correlator_table(state, suite, structure_322)
    for p in (0.25, 0.8):
        from momentcert import add_white_noise

        noisy = correlator_table(add_white_noise(state, p), suite, structure_322)
        for key in base.keys():
            assert noisy.value(key) == pytest.approx(p * base.value(key), abs=1e-10)


def test_pipeline_equivalence_simulated_vs_ingested(structure_322):
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    direct = analyze(_request("w", "w"))
    ingested = ingest_table(table_document(table))
    from_table = analyze(
        AnalysisRequest(
            source=MeasuredSource(ingested),
            scenario=S322,
            level=2,
            policy=PinPolicy.all(),
            config=FAST,
        )
    )
    assert direct.verdict == from_table.verdict
    assert direct.lambda_star == pytest.approx(from_table.lambda_star, abs=1e-9)
    assert json.dumps(direct.body_document(), sort_keys=True) == json.dumps(
        from_table.body_document(), sort_keys=True
    )


def test_nonlocal_report_certificate_rechecks_from_serialization():
    request = _request("ghz", "ghz")
    report = analyze(request)
    assert report.verdict == NONLOCAL
    body = json.loads(json.dumps(report.document()))["body"]
    certificate = certificate_from_document(body)
    family = family_for_request(request)
    assert verify_certificate(family, certificate, request.config.tol_cert)


def test_tampered_nan_value_fails_the_recheck():
    # json.loads reads NaN, and a NaN value passes every "differs by more
    # than tol" comparison, so the re-check must reject it outright.
    request = _request("w", "w")
    body = analyze(request).body_document()
    body["certificate"]["value"] = float("nan")
    certificate = certificate_from_document(json.loads(json.dumps(body)))
    family = family_for_request(request)
    assert not verify_certificate(family, certificate, request.config.tol_cert)


def test_noisy_measured_table_still_certifies(structure_322):
    # Perturbed values standing in for experimental data with finite errors.
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    rng = np.random.default_rng(41)
    noisy = {
        key: float(np.clip(table.value(key) + rng.normal(0.0, 0.01), -1.0, 1.0))
        for key in table.keys()
    }
    from momentcert import CorrelatorTable

    request = AnalysisRequest(
        source=MeasuredSource(CorrelatorTable.from_values(S322, noisy)),
        scenario=S322,
        policy=PinPolicy.all(),
        config=FAST,
    )
    report = analyze(request)
    assert report.verdict == NONLOCAL
    assert report.certificate.value < -1e-3


def test_measured_source_must_cover_policy(structure_322):
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    partial = {key: table.value(key) for key in list(table.keys())[:10]}
    from momentcert import CorrelatorTable

    short_table = CorrelatorTable.from_values(S322, partial)
    request = AnalysisRequest(
        source=MeasuredSource(short_table), scenario=S322, policy=PinPolicy.all(), config=FAST
    )
    # A certificate re-check builds the same family, so it fails the same way.
    for build in (analyze, family_for_request):
        with pytest.raises(PipelineError) as info:
            build(request)
        assert info.value.stage == "assembly"
        # The message names the first missing key as every document does.
        missing = key_name(structure_322.observables[10])
        assert str(info.value) == f"[assembly] no value supplied for pinned moment {missing}"


def test_numpy_numbers_are_recorded_as_plain_numbers():
    # Every number a document records is a plain int or float, so numpy
    # inputs give the documents of their plain values.
    def documents(scenario, level, config, bodies):
        request = AnalysisRequest(
            SimulatedSource("w", "w"), scenario, level, PinPolicy.max_bodies(bodies), config
        )
        report = analyze(request).document()
        del report["meta"]["wall_time_s"]
        structure = hierarchy.structure_report(hierarchy.build_structure(scenario, level))
        return json.dumps(report), json.dumps(structure)

    margin = np.float32(1e-3)
    typed = documents(
        Scenario(np.int64(3), np.int64(2)),
        np.int64(2),
        SolverConfig(max_iters=np.int64(50), margin=margin),
        np.int64(2),
    )
    plain = documents(Scenario(3, 2), 2, SolverConfig(max_iters=50, margin=float(margin)), 2)
    assert typed == plain
    config = SolverConfig(tol_cert=np.float32(1e-7), margin=margin)
    assert type(config.tol_cert) is float and type(config.margin) is float
    visibility = np.float32(0.9)
    reports = [
        analyze(AnalysisRequest(SimulatedSource("w", "w", p), Scenario(3, 2))).document()
        for p in (visibility, float(visibility))
    ]
    for report in reports:
        del report["meta"]["wall_time_s"]
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    assert type(robustness("w", "w", Scenario(3, 2), tolerance=np.float32(1e-2)).tolerance) is float
    tables = [
        CorrelatorTable(S322, {((1, 0),): (value, sigma)})
        for value, sigma in ((np.float32(0.5), np.float32(0.25)), (0.5, 0.25))
    ]
    assert json.dumps(table_document(tables[0])) == json.dumps(table_document(tables[1]))


def test_a_table_keeps_a_checked_copy_of_its_entries():
    # A later write to the caller's dict, or to the table's, would otherwise
    # reach assembly unchecked: 5.0 at A0B0C0, clipped to 1.0, certifies
    # NONLOCAL.
    separable = ingest_table(json.loads((DATA / "separable_table_322.json").read_text()))
    entries = dict(separable.entries)
    table = CorrelatorTable(S322, entries)
    key = ((1, 0), (2, 0), (3, 0))
    before = table.value(key)
    entries[key] = (5.0, None)
    with pytest.raises(TypeError):
        table.entries[key] = (5.0, None)
    assert table.value(key) == before
    assert analyze(AnalysisRequest(MeasuredSource(table), S322)).verdict == INCONCLUSIVE
    # A bool is not a number, as in a table document.
    for value, sigma in ((True, None), (0.5, True), ("0.5", None)):
        with pytest.raises(ValueError, match="A0"):
            CorrelatorTable(S322, {((1, 0),): (value, sigma)})


def test_an_explicit_policy_takes_a_list_of_keys():
    keys = [((1, 0),), ((1, 0), (2, 0))]
    from_list = PinPolicy("explicit", keys=keys)
    assert from_list == PinPolicy.explicit(keys)
    bodies = [
        analyze(_request("basis:000", "w", policy)).body_document()
        for policy in (from_list, PinPolicy.explicit(keys))
    ]
    assert bodies[0] == bodies[1]


def test_pipeline_error_stages(structure_322):
    level_zero = AnalysisRequest(
        source=SimulatedSource("w", "w"), scenario=S322, level=0, config=FAST
    )
    three_settings = AnalysisRequest(
        source=SimulatedSource("w", "w"), scenario=Scenario(3, 3), config=FAST
    )
    # A (3,2) table analyzed as (3,3) is rejected before any solve.
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure_322)
    mismatched_table = AnalysisRequest(
        source=MeasuredSource(table), scenario=Scenario(3, 3), config=FAST
    )
    cases = (
        (level_zero, "structure"), (three_settings, "assembly"), (mismatched_table, "assembly")
    )
    for build in (analyze, family_for_request):
        for request, stage in cases:
            with pytest.raises(PipelineError) as info:
                build(request)
            assert info.value.stage == stage


def test_simulated_source_validates_visibility():
    for bad in (1.5, True, float("nan"), "0.5", 10**400):
        with pytest.raises(ValueError, match="visibility"):
            SimulatedSource("w", "w", bad)


def test_robustness_requires_bracket():
    with pytest.raises(NoBracket):
        robustness("basis:000", "w", S322, config=FAST)


def test_robustness_small_run():
    result = robustness("w", "w", S322, tolerance=0.25, config=FAST)
    lo, hi = result.bracket
    assert hi - lo <= 0.25
    assert 0.0 < result.p_star < 1.0
    assert result.evaluations[0] == (1.0, NONLOCAL)
    assert result.evaluations[1] == (0.0, INCONCLUSIVE)


def test_robustness_rejects_non_finite_tolerance():
    # NaN fails every comparison, so a plain positivity check lets it through.
    for bad in (float("nan"), float("inf"), 0.0, True, 10**400):
        with pytest.raises(ValueError, match="tolerance"):
            robustness("w", "w", S322, tolerance=bad)


@pytest.mark.parametrize("state", ["w", "ghz"])
def test_robustness_matches_bisection(state):
    result = robustness(state, state, S322, tolerance=1e-2)
    # The two endpoint verdicts, then the ones at hi and lo around p*.
    assert [v for _, v in result.evaluations] == [NONLOCAL, INCONCLUSIVE, NONLOCAL, INCONCLUSIVE]
    lo, hi = bisect_visibility(state, state, S322, tolerance=1e-3)
    assert lo <= result.p_star <= hi
    assert result.bracket[0] <= lo and hi <= result.bracket[1]
    if state == "w":
        assert abs(result.p_star - 0.84968) <= 1e-5
    at_threshold = maximize_lambda_min(
        family_for_request(_request(state, state, visibility=result.p_star))
    )
    assert abs(at_threshold.lambda_star + SolverConfig().margin) <= 1e-6


def _record_robustness(monkeypatch):
    """Visibilities of the families robustness builds, and of those it solves.

    A solved family is the white-noise mix (1 - p) I + p gamma0 of the one
    built at visibility 1, mapped back to p by its gamma0: p is the ratio of
    the two families' pinned correlators, up to rounding.
    """
    built, solved = [], []
    build, solve = analysis.family_for_request, analysis.maximize_lambda_min

    def recorded_build(request):
        family = build(request)
        built.append((request.source.visibility, family))
        return family

    def recorded_solve(family, config):
        (_, high), = built
        i = np.argmax(np.abs(high.pinned_values))
        p = float(family.pinned_values[i] / high.pinned_values[i])
        eye = np.eye(high.dim)
        assert np.abs(family.gamma0 - ((1 - p) * eye + p * high.gamma0)).max() <= 1e-15
        solved.append(p)
        return solve(family, config)

    monkeypatch.setattr(analysis, "family_for_request", recorded_build)
    monkeypatch.setattr(analysis, "maximize_lambda_min", recorded_solve)
    return built, solved


@pytest.mark.parametrize(
    "tolerance, expected",
    # Solved visibilities as a function of the bracket (lo, hi): 1 alone,
    # since its certificate proves hi and the floor proves lo, or lo = 0.
    # At 1e-6 the floor at lo is below -margin, so lo is solved too.
    [
        (1e-2, lambda lo, hi: [1.0]),
        (0.9, lambda lo, hi: [1.0]),  # hi = 1
        (1.8, lambda lo, hi: [1.0]),  # bracket [0, 1]
        (1e-6, lambda lo, hi: [1.0, lo]),
    ],
)
def test_robustness_runs_one_solve_and_no_analysis(monkeypatch, tolerance, expected):
    _, solved = _record_robustness(monkeypatch)

    def no_analysis(request):
        raise AssertionError("robustness runs no analysis")

    monkeypatch.setattr(analysis, "analyze", no_analysis)
    result = robustness("w", "w", S322, tolerance=tolerance)
    assert solved == pytest.approx(expected(*result.bracket), rel=0, abs=1e-15)
    assert result.evaluations[:2] == ((1.0, NONLOCAL), (0.0, INCONCLUSIVE))
    if tolerance == 1.8:
        assert result.bracket == (0.0, 1.0)
    if tolerance == 1e-6:
        assert result.bracket == pytest.approx((0.8496769108, 0.8496779108), abs=1e-9)


@pytest.mark.parametrize(
    "tolerance, expected",
    # Built visibilities as a function of the bracket (lo, hi): 1 alone, as
    # every other visibility's family is its white-noise mix, solved or not.
    [
        (1e-2, lambda lo, hi: [1.0]),
        (0.9, lambda lo, hi: [1.0]),  # hi = 1
        (1e-6, lambda lo, hi: [1.0]),  # lo is solved
    ],
)
def test_robustness_builds_each_visibility_once(monkeypatch, tolerance, expected):
    built, _ = _record_robustness(monkeypatch)
    result = robustness("w", "w", S322, tolerance=tolerance)
    assert [p for p, _ in built] == expected(*result.bracket)
    if tolerance == 0.9:
        assert result.bracket[1] == 1.0


@pytest.mark.parametrize(
    "state, suite, scenario",
    [
        ("w", "w", S322),
        ("ghz", "ghz", S322),
        ("graph-linear", "graph", Scenario(3, 3)),
        ("graph-loop", "graph", Scenario(3, 3)),
    ],
)
def test_robustness_endpoint_proofs_match_analyses(state, suite, scenario):
    config = SolverConfig()
    result = robustness(state, suite, scenario, tolerance=1e-2)
    lo, hi = result.bracket

    def request_at(p):
        return _request(state, suite, visibility=p, config=config, scenario=scenario)

    def family_at(p):
        return family_for_request(request_at(p))

    fresh = {p: analyze(request_at(p)) for p in (1.0, 0.0, hi, lo)}
    assert result.evaluations == tuple((p, fresh[p].verdict) for p in (1.0, 0.0, hi, lo))
    # The certificate found at hi carries to p = 1, with a lower value there.
    at_hi = fresh[hi].certificate
    high = family_at(1.0)
    z = at_hi.matrix
    at_one = DualCertificate(matrix=z, value=float(np.sum(high.gamma0 * z)))
    assert verify_certificate(high, at_one, config.tol_cert)
    assert at_one.value < at_hi.value < -config.margin
    # The floor that proved the verdict at lo, below any certificate found there.
    v_star = maximize_lambda_min(high, config).v_star
    floor = certificate_floor(family_at(lo), lo * v_star, config.tol_cert)
    assert floor >= -config.margin
    if fresh[lo].certificate is not None:
        assert fresh[lo].certificate.value >= floor


def test_robustness_without_p_dependence_raises_after_one_solve(monkeypatch):
    # Under the w suite every one-body correlator of GHZ is 0 at every
    # visibility, so the family at 1 is I and its solve is FEASIBLE.
    solved = []
    solve = analysis.maximize_lambda_min

    def counted_solve(family, config):
        solved.append(np.array_equal(family.gamma0, np.eye(family.dim)))
        return solve(family, config)

    monkeypatch.setattr(analysis, "maximize_lambda_min", counted_solve)
    with pytest.raises(NoBracket, match="verdict at visibility 1 is INCONCLUSIVE, not NONLOCAL"):
        robustness("ghz", "w", S322, policy=PinPolicy.max_bodies(1))
    assert solved == [True]


@pytest.mark.parametrize(
    "state, suite, scenario, tolerance",
    # The cases of the robustness documents under tests/data.
    [
        ("w", "w", S322, 1e-2),
        ("ghz", "ghz", S322, 1e-2),
        ("w", "w", S322, 1e-6),
        ("w", "w", Scenario(4, 2), 1e-2),
        ("graph-loop", "graph", Scenario(3, 3), 1e-2),
    ],
)
def test_p_star_is_where_the_p_one_certificate_crosses_the_margin(
    state, suite, scenario, tolerance
):
    config = SolverConfig()
    result = robustness(state, suite, scenario, tolerance=tolerance, config=config)
    certificate = analyze(_request(state, suite, config=config, scenario=scenario)).certificate
    assert result.p_star == (1.0 + config.margin) / (1.0 - certificate.value)


# Scenarios whose explicit pin sets of one or two keys include some on which
# the Newton system turns singular.
PIN_SET_CASES = [("w", "w", S322), ("ghz", "ghz", S322), ("graph-linear", "graph", Scenario(3, 3))]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(PIN_SET_CASES), data=st.data())
def test_every_explicit_pin_set_gets_a_verdict(case, data):
    state, suite, scenario = case
    observables = hierarchy.build_structure(scenario, 2).observables
    keys = data.draw(st.sets(st.sampled_from(observables), min_size=1, max_size=3))
    report = analyze(_request(state, suite, PinPolicy.explicit(keys), scenario=scenario))
    if report.outcome.status == "FEASIBLE":
        assert report.lambda_star >= -WITNESS_TOL


# States, suites and scenarios robustness runs on, each suite with enough settings.
ROBUSTNESS_CASES = [
    ("w", "w", S322),
    ("ghz", "ghz", S322),
    ("graph-linear", "graph", S322),
    ("graph-loop", "graph", S322),
    ("basis:010", "w", S322),
    ("graph-linear", "graph", Scenario(3, 3)),
    ("graph-loop", "graph", Scenario(3, 3)),
    ("ghz", "graph", Scenario(3, 3)),
    ("w", "w", Scenario(4, 2)),
]
ROBUSTNESS_POLICIES = [PinPolicy.all(), PinPolicy.max_bodies(2)]


@pytest.mark.parametrize("policy", ROBUSTNESS_POLICIES, ids=["all", "max-bodies-2"])
@pytest.mark.parametrize("state, suite, scenario", ROBUSTNESS_CASES)
def test_family_at_visibility_zero_is_the_identity(state, suite, scenario, policy):
    # The simulated family at p = 0 is exactly the mix robustness uses there,
    # which keeps p* bit for bit what the simulated families gave.
    request = _request(state, suite, policy, visibility=0.0, scenario=scenario)
    family = family_for_request(request)
    assert np.array_equal(family.gamma0, np.eye(family.dim))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    case=st.sampled_from(ROBUSTNESS_CASES),
    policy=st.sampled_from(ROBUSTNESS_POLICIES),
    p=st.floats(0.0, 1.0),
)
def test_white_noise_family_matches_the_simulated_family(case, policy, p):
    state, suite, scenario = case
    high = family_for_request(_request(state, suite, policy, scenario=scenario))
    mixed = analysis.white_noise_family(high, p)
    simulated = family_for_request(_request(state, suite, policy, visibility=p, scenario=scenario))
    assert all(a is b for a, b in zip(mixed.support, high.support))
    for a, b in zip(mixed.support, simulated.support):
        assert np.array_equal(a, b) and not a.flags.writeable and not b.flags.writeable
    assert mixed.variables == simulated.variables
    assert mixed.pinned_keys == simulated.pinned_keys
    assert np.abs(mixed.gamma0 - simulated.gamma0).max() <= 1e-15
    assert np.abs(mixed.pinned_values - simulated.pinned_values).max(initial=0.0) <= 1e-15
    # Exact at the ends: the family itself at p = 1, the identity at p = 0.
    assert np.array_equal(analysis.white_noise_family(high, 1.0).gamma0, high.gamma0)
    assert np.array_equal(analysis.white_noise_family(high, 0.0).gamma0, np.eye(high.dim))


def _w_document(structure):
    table = correlator_table(make_state("w", 3), standard_suite("w"), structure)
    return table_document(table)


def test_ingest_accepts_w_table(structure_322):
    document = _w_document(structure_322)
    table = ingest_table(document)
    assert len(table) == 26
    assert table.scenario == S322


def test_ingest_range_error(structure_322):
    document = _w_document(structure_322)
    document["moments"][0]["value"] = 1.2
    with pytest.raises(RangeError):
        ingest_table(document)


def test_ingest_duplicate_moment(structure_322):
    document = _w_document(structure_322)
    document["moments"].append(dict(document["moments"][0]))
    with pytest.raises(DuplicateMoment):
        ingest_table(document)


def test_ingest_schema_diagnostics(structure_322):
    with pytest.raises(SchemaError, match="schema_version"):
        ingest_table({"scenario": {}, "moments": []})
    document = _w_document(structure_322)
    document["moments"][3]["settings"] = [0]
    with pytest.raises(SchemaError, match=r"moments\[3\]"):
        ingest_table(document)
    for parties, settings, message in (
        ([2, 1], [0, 0], "strictly increasing"),
        ([1, 1], [0, 1], "strictly increasing"),
        ([1, 4], [0, 0], "outside scenario"),
        ([1, 2], [0, 2], "outside scenario"),
    ):
        document = _w_document(structure_322)
        document["moments"][0].update(parties=parties, settings=settings)
        with pytest.raises(SchemaError, match=rf"moments\[0\]: .*{message}"):
            ingest_table(document)
    document = _w_document(structure_322)
    document["scenario"]["parties"] = 0
    with pytest.raises(SchemaError, match=r"^scenario: parties"):
        ingest_table(document)
    document = _w_document(structure_322)
    document["scenario"]["outcomes"] = 3
    with pytest.raises(SchemaError, match=r"scenario\.outcomes"):
        ingest_table(document)


def test_ingest_sigma_parsing(structure_322):
    document = _w_document(structure_322)
    document["moments"][0]["sigma"] = 0.05
    table = ingest_table(document)
    key = tuple(zip(document["moments"][0]["parties"], document["moments"][0]["settings"]))
    assert table.sigma(key) == pytest.approx(0.05)
    document["moments"][0]["sigma"] = -0.1
    with pytest.raises(SchemaError, match="sigma"):
        ingest_table(document)


def test_table_document_roundtrip(structure_322):
    table = correlator_table(make_state("ghz", 3), standard_suite("ghz"), structure_322)
    document = json.loads(json.dumps(table_document(table)))
    back = ingest_table(document)
    assert set(back.keys()) == set(table.keys())
    for key in table.keys():
        assert back.value(key) == table.value(key)
    # Uncertainties survive the round trip; a key without one stays without.
    sigmas = {key: 0.01 * n for n, key in enumerate(sorted(table.keys())) if n % 2}
    entries = {key: (table.value(key), sigmas.get(key)) for key in table.keys()}
    with_sigmas = CorrelatorTable(table.scenario, entries)
    back = ingest_table(json.loads(json.dumps(table_document(with_sigmas))))
    assert {key: back.sigma(key) for key in back.keys()} == {
        key: sigmas.get(key) for key in table.keys()
    }
    assert table_document(back) == table_document(with_sigmas)


def test_ingest_rejects_non_finite_numbers(structure_322):
    document = _w_document(structure_322)
    document["moments"][0]["sigma"] = 1
    ingest_table(document)
    # json.loads accepts Infinity and NaN, and integers of any size.
    for text in ("Infinity", "NaN", "1" + "0" * 400):
        document["moments"][0]["sigma"] = json.loads(text)
        with pytest.raises(SchemaError, match=r"moments\[0\]\.sigma"):
            ingest_table(document)
    del document["moments"][0]["sigma"]
    for text in ("NaN", "-Infinity", "1" + "0" * 400):
        document["moments"][0]["value"] = json.loads(text)
        with pytest.raises(RangeError, match=r"moments\[0\]\.value"):
            ingest_table(document)


def test_ingest_schema_version_must_be_the_integer_one(structure_322):
    document = _w_document(structure_322)
    for version in (True, 1.0, "1"):
        document["schema_version"] = version
        with pytest.raises(SchemaError, match="schema_version"):
            ingest_table(document)


def test_witness_names_are_shared_between_reports():
    # Reports keep the compiled layout's key and variable tuples, not copies.
    first = analyze(_request("w", "w"))
    second = analyze(_request("w", "w"))
    assert first.variables and first.pinned_keys
    assert first.variables is second.variables
    assert first.pinned_keys is second.pinned_keys
    body = first.body_document()
    assert [entry["variable"] for entry in body["witness"]] == [
        key_name(letters) for letters in first.variables
    ]
    assert [entry["value"] for entry in body["pinned"]] == first.pinned_values.tolist()


def test_ingested_report_body_matches_golden():
    # A separable (3,2,2) table and the body it gave while reports still
    # stored (key, value) and (name, value) tuples; the body must not change.
    # Its solver values (lambda_star, witness) were taken with numpy 2.4 and
    # OpenBLAS on x86-64.
    table = ingest_table(json.loads((DATA / "separable_table_322.json").read_text()))
    report = analyze(AnalysisRequest(source=MeasuredSource(table), scenario=S322))
    body = json.dumps(report.body_document(), indent=2, sort_keys=True) + "\n"
    assert body == (DATA / "separable_body_322.json").read_text()


def test_second_analysis_compiles_nothing(monkeypatch):
    analyze(_request("ghz", "ghz"))
    calls = []
    original = hierarchy.word_product

    def counted(left, right):
        calls.append(1)
        return original(left, right)

    monkeypatch.setattr(hierarchy, "word_product", counted)
    assert analyze(_request("ghz", "ghz")).verdict == NONLOCAL
    assert robustness("w", "w", S322, tolerance=0.25, config=FAST).evaluations
    assert calls == []


def test_margin_must_make_acceptance_a_proof():
    # W on (3,2,2): n = 22 and K = 30, so the margin must exceed 53 tol_cert.
    bound = 53 * 1e-5
    for build in (analyze, family_for_request):
        with pytest.raises(UnsoundConfig, match="tol_cert"):
            build(_request("w", "w", config=SolverConfig(tol_cert=1e-5, margin=bound)))
    above = SolverConfig(tol_cert=1e-5, margin=math.nextafter(bound, 1.0))
    assert analyze(_request("w", "w", config=above)).verdict == NONLOCAL
    # The default config holds at level-3 graph-linear: (130 + 402 + 1) * 1e-7
    # = 5.3e-5 < 1e-3.  One Newton step is enough to get past the check.
    request = AnalysisRequest(
        source=SimulatedSource("graph-linear", "graph"),
        scenario=Scenario(3, 3),
        level=3,
        config=SolverConfig(max_iters=1),
    )
    assert analyze(request).outcome.iterations == 1
