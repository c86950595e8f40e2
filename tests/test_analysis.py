import json
import math
from pathlib import Path

import numpy as np
import pytest

from momentcert import (
    INCONCLUSIVE,
    NONLOCAL,
    AnalysisRequest,
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

from helpers import bisect_visibility

FAST = SolverConfig(max_iters=800, restarts=2)
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
    report = analyze(_request("w", "w"))
    assert report.verdict == NONLOCAL
    assert report.status == "CERTIFIED_INFEASIBLE"
    assert report.certificate is not None
    assert report.certificate_verified
    assert report.certificate.value < -1e-3
    assert len(report.pinned) == 26


def test_ghz_needs_full_body_pins():
    nonlocal_report = analyze(_request("ghz", "ghz"))
    assert nonlocal_report.verdict == NONLOCAL
    partial = analyze(_request("ghz", "ghz", policy=PinPolicy.max_bodies(2)))
    assert partial.verdict == INCONCLUSIVE


def test_product_state_is_inconclusive_with_witness():
    report = analyze(_request("basis:000", "w"))
    assert report.verdict == INCONCLUSIVE
    assert report.status == "FEASIBLE"


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


def test_pipeline_error_stages():
    level_zero = AnalysisRequest(
        source=SimulatedSource("w", "w"), scenario=S322, level=0, config=FAST
    )
    three_settings = AnalysisRequest(
        source=SimulatedSource("w", "w"), scenario=Scenario(3, 3), config=FAST
    )
    for build in (analyze, family_for_request):
        for request, stage in ((level_zero, "structure"), (three_settings, "assembly")):
            with pytest.raises(PipelineError) as info:
                build(request)
            assert info.value.stage == stage


def test_simulated_source_validates_visibility():
    with pytest.raises(ValueError):
        SimulatedSource("w", "w", 1.5)


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
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="tolerance"):
            robustness("w", "w", S322, tolerance=bad)


@pytest.mark.parametrize("state", ["w", "ghz"])
def test_robustness_matches_bisection(state):
    result = robustness(state, state, S322, tolerance=1e-2)
    # Two endpoint verdicts, then two confirmations around p*.
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


@pytest.mark.parametrize(
    "tolerance, expected",
    # Analysed visibilities as a function of the bracket (lo, hi): only the
    # two confirmations, with none at lo = 0, where the verdict is proved.
    [
        (1e-2, lambda lo, hi: [hi, lo]),
        (0.9, lambda lo, hi: [1.0, lo]),  # hi = 1
        (1.8, lambda lo, hi: [1.0]),  # bracket [0, 1]
    ],
)
def test_robustness_runs_one_parametric_solve_and_two_analyses(monkeypatch, tolerance, expected):
    analysed, parametric = [], []
    run_analysis, run_parametric = analysis.analyze, analysis.maximize_visibility

    def counted_analysis(request):
        analysed.append(request.source.visibility)
        return run_analysis(request)

    def counted_parametric(*args):
        parametric.append(1)
        return run_parametric(*args)

    monkeypatch.setattr(analysis, "analyze", counted_analysis)
    monkeypatch.setattr(analysis, "maximize_visibility", counted_parametric)
    result = robustness("w", "w", S322, tolerance=tolerance)
    assert analysed == expected(*result.bracket)
    assert parametric == [1]
    assert result.evaluations[:2] == ((1.0, NONLOCAL), (0.0, INCONCLUSIVE))
    if tolerance == 1.8:
        assert result.bracket == (0.0, 1.0)


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
    result = robustness(state, suite, scenario, tolerance=1e-2)
    fresh = {
        p: analyze(_request(state, suite, visibility=p, config=SolverConfig(), scenario=scenario))
        for p in (1.0, 0.0, result.bracket[1])
    }
    assert result.evaluations[:2] == ((1.0, fresh[1.0].verdict), (0.0, fresh[0.0].verdict))
    # The certificate found at hi carries to p = 1, with a lower value there.
    at_hi = fresh[result.bracket[1]].certificate
    high = family_for_request(_request(state, suite, config=SolverConfig(), scenario=scenario))
    z = at_hi.matrix
    at_one = DualCertificate(matrix=z, value=float(np.sum(high.gamma0 * z)))
    assert verify_certificate(high, at_one, SolverConfig().tol_cert)
    assert at_one.value < at_hi.value < -SolverConfig().margin


def test_robustness_without_p_dependence_raises_before_any_solve(monkeypatch):
    # Under the w suite every one-body correlator of GHZ is 0 at every visibility.
    def no_solve(*args, **kwargs):
        raise AssertionError("no solve expected")

    monkeypatch.setattr(analysis, "maximize_lambda_min", no_solve)
    monkeypatch.setattr(analysis, "maximize_visibility", no_solve)
    with pytest.raises(NoBracket, match="verdict at visibility 1 is INCONCLUSIVE, not NONLOCAL"):
        robustness("ghz", "w", S322, policy=PinPolicy.max_bodies(1))


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
    document = _w_document(structure_322)
    document["moments"][0]["parties"] = [2, 1]
    with pytest.raises(SchemaError, match=r"moments\[0\]"):
        ingest_table(document)
    document = _w_document(structure_322)
    document["scenario"]["outcomes"] = 3
    with pytest.raises(SchemaError, match="scenario"):
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
    # Reports keep the compiled layout's key and name tuples, not copies.
    first = analyze(_request("w", "w"))
    second = analyze(_request("w", "w"))
    assert first.witness and all(
        a is b for (a, _), (b, _) in zip(first.witness, second.witness)
    )
    assert first.variable_names is second.variable_names
    assert first.pinned_keys is second.pinned_keys
    assert [name for name, _ in first.witness] == list(first.variable_names)
    assert first.pinned == tuple(zip(first.pinned_keys, first.pinned_values.tolist()))


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
    assert analyze(request).iterations == 1
