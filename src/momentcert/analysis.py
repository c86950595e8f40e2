"""End-to-end pipelines: state or data in, certified verdict out.

Analyses, robustness runs and certificate re-checks all build their family
through :func:`family_for_request`, so they share one path and its errors.

The verdict vocabulary is deliberately asymmetric.  A verified infeasibility
certificate proves the observed correlations cannot come from local
measurements on a separable state, hence NONLOCAL.  A feasible completion
proves nothing about locality at a finite hierarchy level, so everything
else is INCONCLUSIVE.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    MomentKey,
    Scenario,
    key_document,
    key_name,
    scenario_document,
    validate_moment_key,
)
from .errors import (
    DuplicateMoment,
    NoBracket,
    PipelineError,
    SchemaError,
    UnsoundConfig,
)
from .hierarchy import (
    AffineMatrixFamily,
    MomentMatrixStructure,
    PinPolicy,
    assemble,
    build_structure,
)
from .quantum import (
    CorrelatorTable,
    add_white_noise,
    checked_moment,
    correlator_table,
    make_state,
    standard_suite,
)
from .sdp import (
    CERTIFIED_INFEASIBLE,
    DualCertificate,
    SolverConfig,
    SolveOutcome,
    certificate_floor,
    extract_certificate,
    maximize_lambda_min,
    maximize_visibility,
    verify_certificate,
)

NONLOCAL = "NONLOCAL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SimulatedSource:
    """Correlators computed from a named state under a standard suite."""

    state: str
    suite: str
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


@dataclass(frozen=True)
class MeasuredSource:
    """Correlators taken from an ingested table."""

    table: CorrelatorTable


@dataclass(frozen=True)
class AnalysisRequest:
    source: SimulatedSource | MeasuredSource
    scenario: Scenario
    level: int = 2
    policy: PinPolicy = field(default_factory=PinPolicy.all)
    config: SolverConfig = field(default_factory=SolverConfig)


@dataclass
class VerdictReport:
    """One analysis; ``pinned`` and ``witness`` pair the shared keys and names with values."""

    verdict: str
    status: str
    lambda_star: float
    iterations: int
    scenario: Scenario
    level: int
    policy: PinPolicy
    pinned_keys: tuple[MomentKey, ...]
    pinned_values: np.ndarray
    variable_names: tuple[str, ...]
    v_star: np.ndarray
    certificate: DualCertificate | None
    config: SolverConfig
    source_description: dict
    wall_time_s: float

    @property
    def pinned(self) -> tuple[tuple[MomentKey, float], ...]:
        return tuple(zip(self.pinned_keys, self.pinned_values.tolist()))

    @property
    def witness(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.variable_names, self.v_star.tolist()))

    def body_document(self) -> dict:
        """The scientific content of the report, free of run metadata."""
        certificate = None
        if self.certificate is not None:
            certificate = {
                "value": self.certificate.value,
                "verified": True,  # the solver holds only verified certificates
                "matrix": np.asarray(self.certificate.matrix, dtype=float).tolist(),
            }
        return {
            "verdict": self.verdict,
            "status": self.status,
            "lambda_star": self.lambda_star,
            "iterations": self.iterations,
            "scenario": scenario_document(self.scenario),
            "level": self.level,
            "policy": self.policy.describe(),
            "pinned": [
                {**key_document(key), "name": key_name(key), "value": value}
                for key, value in self.pinned
            ],
            "witness": [{"variable": name, "value": value} for name, value in self.witness],
            "certificate": certificate,
        }

    def document(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "verdict_report",
            "body": self.body_document(),
            "meta": {
                "source": self.source_description,
                "config": {
                    "max_iters": self.config.max_iters,
                    "tol_cert": self.config.tol_cert,
                    "margin": self.config.margin,
                },
                "wall_time_s": self.wall_time_s,
            },
        }


def _source_description(source) -> dict:
    if isinstance(source, SimulatedSource):
        return {
            "kind": "simulated",
            "state": source.state,
            "suite": source.suite,
            "visibility": source.visibility,
        }
    return {"kind": "measured", "moments": len(source.table)}


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc


def request_table(request: AnalysisRequest, structure: MomentMatrixStructure) -> CorrelatorTable:
    """Obtain the correlator table for a request, simulating if needed."""
    if isinstance(request.source, MeasuredSource):
        table = request.source.table
        if table.scenario != request.scenario:
            raise ValueError(
                f"table scenario {table.scenario!r} does not match request {request.scenario!r}"
            )
        return table
    source = request.source
    state = add_white_noise(make_state(source.state, request.scenario.parties), source.visibility)
    return correlator_table(state, standard_suite(source.suite), structure)


def family_for_request(request: AnalysisRequest) -> AffineMatrixFamily:
    """The request's family, once its margin is known to make a verdict a proof.

    Raises PipelineError naming the failed stage (``structure`` or
    ``assembly``), and UnsoundConfig unless margin > (n + K + 1) tol_cert.
    """
    structure = _stage("structure", build_structure, request.scenario, request.level)
    table = _stage("assembly", request_table, request, structure)
    family = _stage("assembly", assemble, structure, table, request.policy)
    # At a PSD Gamma(v) every verified certificate has value at least
    # certificate_floor >= -(n + K + 1) tol, so value < -margin proves
    # infeasibility only if this holds.
    bound = (family.dim + family.num_variables + 1) * request.config.tol_cert
    if request.config.margin <= bound:
        raise UnsoundConfig(f"margin must exceed (n + K + 1) * tol_cert = {bound}")
    return family


def analyze(request: AnalysisRequest) -> VerdictReport:
    """Build, assemble and solve; the solve status is the verdict.

    NONLOCAL iff CERTIFIED_INFEASIBLE, which the solver reports only for a
    certificate that :func:`~momentcert.sdp.verify_certificate` accepted on
    this family at ``tol_cert`` and whose value lies below -margin.
    """
    started = time.perf_counter()
    family = family_for_request(request)
    outcome: SolveOutcome = _stage("solve", maximize_lambda_min, family, request.config)
    return VerdictReport(
        verdict=NONLOCAL if outcome.status == CERTIFIED_INFEASIBLE else INCONCLUSIVE,
        status=outcome.status,
        lambda_star=outcome.lambda_star,
        iterations=outcome.iterations,
        scenario=request.scenario,
        level=request.level,
        policy=request.policy,
        pinned_keys=family.pinned_keys,
        pinned_values=family.pinned_values,
        variable_names=family.variable_names(),
        v_star=outcome.v_star,
        certificate=outcome.certificate,
        config=request.config,
        source_description=_source_description(request.source),
        wall_time_s=time.perf_counter() - started,
    )


def white_noise_family(family: AffineMatrixFamily, p: float) -> AffineMatrixFamily:
    """A simulated ``family`` at visibility 1 taken to visibility p: (1 - p) I + p gamma0.

    White noise scales every pinned correlator by p, since those of I / 2^n
    are 0.  Bit for bit ``family`` at p = 1 and I at p = 0.
    """
    eye = np.eye(family.dim)
    gamma0 = eye + p * (family.gamma0 - eye)
    return replace(family, gamma0=gamma0, pinned_values=p * family.pinned_values)


@dataclass
class RobustnessResult:
    """The critical visibility, its confirmed bracket, and the verdicts behind it.

    ``evaluations`` lists (visibility, verdict) pairs in the order 1, 0, hi,
    lo, each visibility once, decided on white-noise mixes of one family.
    The verdicts at 0 and lo are proved by :func:`~momentcert.sdp.certificate_floor`,
    the verdict at hi by the parametric solve's own dual matrix, and the
    verdict at 1 by the certificate that proved hi.  Only when a proof does
    not hold (lo at tolerances so fine that its floor falls below -margin,
    hi should the dual matrix fail to verify there) is that visibility's
    family solved, and the solve's status is its verdict.
    """

    p_star: float
    bracket: tuple[float, float]
    tolerance: float
    evaluations: tuple[tuple[float, str], ...]


def robustness(
    state: str,
    suite: str,
    scenario: Scenario,
    level: int = 2,
    policy: PinPolicy | None = None,
    tolerance: float = 1e-2,
    config: SolverConfig | None = None,
) -> RobustnessResult:
    """Critical white-noise visibility from one family and one parametric SDP.

    Only the family at p = 1 is built; the one at visibility p is its
    :func:`white_noise_family`, (1 - p) I + p gamma0, exactly I at p = 0.
    :func:`~momentcert.sdp.maximize_visibility` gives p_star, the largest p
    at which some completion v_star keeps lambda_min above -margin.  At or
    below p_star every certificate value is at least -margin, so the verdict
    is INCONCLUSIVE; above it the unboxed optimum, and with it the
    certificate value, lies below -margin.  The bracket is
    lo = max(0, p_star - tolerance / 2) and hi = min(1, p_star + tolerance / 2).
    Every verdict is proved rather than solved for:

    - NONLOCAL at hi.  The parametric solve's last dual matrix X, scaled to
      z = X / Tr X, has value (p_star - p) / Tr X - margin at visibility p,
      below -margin above p_star.  :func:`~momentcert.sdp.extract_certificate`
      makes it a certificate verified on the hi family; its value must lie
      below -margin, the standard :func:`analyze` applies.  Should it not,
      the hi family is solved instead and must be CERTIFIED_INFEASIBLE.
    - INCONCLUSIVE at 0 and at lo.  Every certificate verified on a family
      has value at least :func:`~momentcert.sdp.certificate_floor` at any
      completion v, so a floor at or above -margin rules NONLOCAL out.  At
      0 the family is I and v = 0.  At lo, v = (lo / p_star) v_star gives
      Gamma(v) = (1 - t) I + t (S - margin I) with t = lo / p_star and
      S >= 0 the matrix of the parametric solve at p_star, so
      lambda_min(Gamma(v)) >= 1 - t (1 + margin).  When the floor at lo
      still falls below -margin, as it can at tolerances so fine that t is
      almost 1, the lo family is solved instead and must not be
      CERTIFIED_INFEASIBLE.
    - NONLOCAL at 1.  A certificate's value <gamma0(p), Z> is affine in p,
      1 at p = 0 and below -margin at hi, so lower still at 1.  The hi
      certificate is verified on the p = 1 family and its value there must
      lie below -margin too.

    NoBracket is raised instead of returning an unconfirmed threshold: when
    a proof and its fallback solve both fail, and before any solve when the
    correlators do not depend on p.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    policy = policy if policy is not None else PinPolicy.all()
    config = config if config is not None else SolverConfig()

    def inconclusive_proved(family: AffineMatrixFamily, v: np.ndarray) -> bool:
        return certificate_floor(family, v, config.tol_cert) >= -config.margin

    def certified(family: AffineMatrixFamily) -> DualCertificate | None:
        outcome = _stage("solve", maximize_lambda_min, family, config)
        return outcome.certificate if outcome.status == CERTIFIED_INFEASIBLE else None

    source = SimulatedSource(state, suite)
    high = family_for_request(AnalysisRequest(source, scenario, level, policy, config))
    if not inconclusive_proved(white_noise_family(high, 0.0), np.zeros(high.num_variables)):
        raise NoBracket(f"the verdict at visibility 0 is not provably {INCONCLUSIVE}")
    not_nonlocal_at_one = NoBracket(f"verdict at visibility 1 is {INCONCLUSIVE}, not {NONLOCAL}")
    if np.array_equal(high.gamma0, np.eye(high.dim)):
        raise not_nonlocal_at_one
    critical = maximize_visibility(high, config)
    p_star = critical.p_star
    if p_star >= 1.0:
        raise not_nonlocal_at_one
    if not 0.0 <= p_star:
        raise NoBracket(f"critical visibility {p_star} lies outside [0, 1]")
    lo = max(0.0, p_star - 0.5 * tolerance)
    hi = min(1.0, p_star + 0.5 * tolerance)
    while hi - lo > tolerance:  # rounding can widen the bracket by an ulp
        hi = math.nextafter(hi, lo)
    unconfirmed = NoBracket(f"verdicts at [{lo}, {hi}] do not confirm p* = {p_star}")
    at_hi = white_noise_family(high, hi)
    proof = extract_certificate(at_hi, critical.z, config.tol_cert)
    if proof is None or proof.value >= -config.margin:
        proof = certified(at_hi)
        if proof is None:
            raise unconfirmed
    z = proof.matrix
    at_one = DualCertificate(matrix=z, value=float(np.sum(high.gamma0 * z)))
    if not (verify_certificate(high, at_one, config.tol_cert) and at_one.value < -config.margin):
        raise NoBracket(f"the certificate at visibility {hi} does not certify visibility 1")
    if lo > 0.0:
        at_lo = white_noise_family(high, lo)
        proved = inconclusive_proved(at_lo, (lo / p_star) * critical.v_star)
        if not proved and certified(at_lo) is not None:
            raise unconfirmed
    # A dict drops the repeated visibility when hi = 1 or lo = 0.
    evaluations = {1.0: NONLOCAL, 0.0: INCONCLUSIVE, hi: NONLOCAL, lo: INCONCLUSIVE}
    return RobustnessResult(
        p_star=p_star,
        bracket=(lo, hi),
        tolerance=tolerance,
        evaluations=tuple(evaluations.items()),
    )


def table_document(table: CorrelatorTable) -> dict:
    """Serialize a correlator table to the frozen JSON schema."""
    moments = []
    for key in sorted(table.keys()):
        entry = {**key_document(key), "value": table.value(key)}
        sigma = table.sigma(key)
        if sigma is not None:
            entry["sigma"] = sigma
        moments.append(entry)
    return {
        "schema_version": 1,
        "scenario": scenario_document(table.scenario),
        "moments": moments,
    }


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _expect_int(document, path: str) -> int:
    _expect(isinstance(document, int) and not isinstance(document, bool), path, "expected an integer")
    return document


def _is_number(document) -> bool:
    return isinstance(document, (int, float)) and not isinstance(document, bool)


def _is_finite(number) -> bool:
    """Whether a JSON number is a finite float; NaN, Infinity and huge integers are not."""
    try:
        return math.isfinite(float(number))
    except OverflowError:
        return False


def _read_moment_key(item, scenario: Scenario, path: str) -> MomentKey:
    """The moment key of a document entry's ``parties``/``settings`` lists.

    The inverse of :func:`~momentcert.algebra.key_document`, checked against
    ``scenario``; raises SchemaError naming the entry's ``path``.
    """
    _expect(isinstance(item, dict), path, "expected an object")
    parties = item.get("parties")
    settings = item.get("settings")
    _expect(isinstance(parties, list) and parties, f"{path}.parties", "expected a nonempty list")
    _expect(isinstance(settings, list), f"{path}.settings", "expected a list")
    _expect(
        len(parties) == len(settings),
        f"{path}.settings",
        "parties and settings must have equal length",
    )
    key = tuple(
        (_expect_int(party, f"{path}.parties"), _expect_int(setting, f"{path}.settings"))
        for party, setting in zip(parties, settings)
    )
    try:
        validate_moment_key(scenario, key)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return key


def explicit_pins(document, scenario: Scenario) -> PinPolicy:
    """The policy of an explicit pin document: a JSON list of moment keys."""
    _expect(isinstance(document, list), "$", "expected a JSON list")
    return PinPolicy.explicit(
        _read_moment_key(item, scenario, f"$[{index}]") for index, item in enumerate(document)
    )


def ingest_table(document) -> CorrelatorTable:
    """Validate a table document and build the CorrelatorTable.

    Raises SchemaError with the offending field path, RangeError for values
    outside [-1, 1], and DuplicateMoment for repeated keys.
    """
    _expect(isinstance(document, dict), "$", "expected a JSON object")
    version = _expect_int(document.get("schema_version"), "schema_version")
    _expect(version == 1, "schema_version", "expected 1")
    scenario_doc = document.get("scenario")
    _expect(isinstance(scenario_doc, dict), "scenario", "expected an object")
    parties = _expect_int(scenario_doc.get("parties"), "scenario.parties")
    settings = _expect_int(scenario_doc.get("settings"), "scenario.settings")
    outcomes = _expect_int(scenario_doc.get("outcomes", 2), "scenario.outcomes")
    try:
        scenario = Scenario(parties, settings, outcomes)
    except ValueError as exc:
        raise SchemaError(f"scenario: {exc}") from exc

    moments = document.get("moments")
    _expect(isinstance(moments, list), "moments", "expected a list")
    entries: dict[MomentKey, tuple[float, float | None]] = {}
    for index, item in enumerate(moments):
        path = f"moments[{index}]"
        key = _read_moment_key(item, scenario, path)
        value = item.get("value")
        _expect(_is_number(value), f"{path}.value", "expected a number")
        value = checked_moment(value, f"{path}.value")
        sigma = item.get("sigma")
        if sigma is not None:
            _expect(
                _is_number(sigma) and _is_finite(sigma) and sigma >= 0.0,
                f"{path}.sigma",
                "expected a finite nonnegative number",
            )
        if key in entries:
            raise DuplicateMoment(f"{path}: duplicate moment {key_name(key)}")
        entries[key] = (value, None if sigma is None else float(sigma))
    return CorrelatorTable(scenario, entries)


def certificate_from_document(document: dict) -> DualCertificate | None:
    """Rebuild the certificate recorded in a verdict-report body."""
    cert_doc = document.get("certificate")
    if cert_doc is None:
        return None
    matrix = np.asarray(cert_doc["matrix"], dtype=float)
    return DualCertificate(matrix=matrix, value=float(cert_doc["value"]))

