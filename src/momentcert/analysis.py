"""End-to-end pipelines: state or data in, certified verdict out.

Analyses, robustness runs and certificate re-checks all build their family
through :func:`family_for_request`, so they share one path and its errors.
Each rule has one owner: a CorrelatorTable holds its values in [-1, 1], each
solve checks its margin, and a robustness bracket fixes its verdicts.

The verdict vocabulary is deliberately asymmetric.  A verified infeasibility
certificate proves the observed correlations cannot come from local
measurements on a separable state, hence NONLOCAL.  A feasible completion
proves nothing about locality at a finite hierarchy level, so everything
else is INCONCLUSIVE.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algebra import (
    Moment,
    MomentKey,
    Scenario,
    checked_real,
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
    checked_sigma,
    checked_visibility,
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
    maximize_lambda_min,
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
        object.__setattr__(self, "visibility", checked_visibility(self.visibility))


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
    """One analysis: its request, the solve's outcome and the family's layout.

    ``pinned_keys`` and ``variables`` are the family's shared tuples, not copies.
    """

    request: AnalysisRequest
    pinned_keys: tuple[MomentKey, ...]
    pinned_values: np.ndarray
    variables: tuple[Moment, ...]
    outcome: SolveOutcome
    wall_time_s: float

    @property
    def verdict(self) -> str:
        return NONLOCAL if self.outcome.status == CERTIFIED_INFEASIBLE else INCONCLUSIVE

    @property
    def certificate(self) -> DualCertificate | None:
        return self.outcome.certificate

    @property
    def lambda_star(self) -> float:
        return self.outcome.lambda_star

    def body_document(self) -> dict:
        """The scientific content of the report, free of run metadata."""
        outcome = self.outcome
        certificate = None
        if outcome.certificate is not None:
            certificate = {
                "value": outcome.certificate.value,
                "verified": True,  # the solver holds only verified certificates
                "matrix": np.asarray(outcome.certificate.matrix, dtype=float).tolist(),
            }
        return {
            "verdict": self.verdict,
            "status": outcome.status,
            "lambda_star": outcome.lambda_star,
            "iterations": outcome.iterations,
            "scenario": scenario_document(self.request.scenario),
            "level": int(self.request.level),  # checked at the structure stage
            "policy": self.request.policy.describe(),
            "pinned": [
                {**key_document(key), "name": key_name(key), "value": value}
                for key, value in zip(self.pinned_keys, self.pinned_values.tolist())
            ],
            "witness": [
                {"variable": key_name(letters), "value": value}
                for letters, value in zip(self.variables, outcome.v_star.tolist())
            ],
            "certificate": certificate,
        }

    def document(self) -> dict:
        source, config = self.request.source, self.request.config
        if isinstance(source, SimulatedSource):
            described = {"kind": "simulated", **asdict(source)}
        else:
            described = {"kind": "measured", "moments": len(source.table)}
        return {
            "schema_version": 1,
            "kind": "verdict_report",
            "body": self.body_document(),
            "meta": {
                "source": described,
                "config": {
                    "max_iters": config.max_iters,
                    "tol_cert": config.tol_cert,
                    "margin": config.margin,
                },
                "wall_time_s": self.wall_time_s,
            },
        }


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (PipelineError, UnsoundConfig):
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
    """The request's family: its structure, its table and their assembly.

    Raises PipelineError naming the failed stage (``structure`` or
    ``assembly``).  The config is not read: whether its margin makes a
    verdict a proof is the solve's check.
    """
    structure = _stage("structure", build_structure, request.scenario, request.level)
    table = _stage("assembly", request_table, request, structure)
    return _stage("assembly", assemble, structure, table, request.policy)


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
        request,
        family.pinned_keys,
        family.pinned_values,
        family.variables,
        outcome,
        time.perf_counter() - started,
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
    """The critical visibility and its confirmed bracket (lo, hi).

    A result exists only once its verdicts are proved on white-noise mixes
    of one family, so the bracket fixes them: NONLOCAL at 1 by the solve
    of that family and at hi by its certificate, INCONCLUSIVE at 0 by the
    identity family and at lo by :func:`~momentcert.sdp.certificate_floor`
    at its scaled completion.  Only when the floor at lo falls below
    -margin, at tolerances so fine that lo is almost p_star, is the lo
    family solved, and the solve's status is its verdict.
    """

    p_star: float
    bracket: tuple[float, float]
    tolerance: float

    @property
    def evaluations(self) -> tuple[tuple[float, str], ...]:
        """(visibility, verdict) for 1, 0, hi, lo; the dict drops a repeat at hi = 1 or lo = 0."""
        lo, hi = self.bracket
        return tuple({1.0: NONLOCAL, 0.0: INCONCLUSIVE, hi: NONLOCAL, lo: INCONCLUSIVE}.items())


def robustness(
    state: str,
    suite: str,
    scenario: Scenario,
    level: int = 2,
    policy: PinPolicy | None = None,
    tolerance: float = 1e-2,
    config: SolverConfig | None = None,
) -> RobustnessResult:
    """Critical white-noise visibility from one analysis at visibility 1.

    Only the family at p = 1 is built and solved, as :func:`analyze` would;
    unless it is NONLOCAL, NoBracket is raised.  The family at visibility p
    is its :func:`white_noise_family`, (1 - p) I + p gamma0, with the same
    variable directions.  So the solve's verified certificate Z, of value
    c at p = 1, verifies on every mix with value 1 - p (1 - c), and
    p_star = (1 + margin) / (1 - c) is where that value crosses -margin.
    The bracket is lo = max(0, p_star - tolerance / 2) and
    hi = min(1, p_star + tolerance / 2), and its verdicts are proved:

    - NONLOCAL at hi.  Z, re-valued on the hi family, must pass
      :func:`~momentcert.sdp.verify_certificate` there with a value below
      -margin, the standard :func:`analyze` applies.
    - INCONCLUSIVE at 0.  The family there is I, on which a verified
      certificate has value within tol_cert of its trace, so at least
      1 - 2 tol_cert.
    - INCONCLUSIVE at lo.  Every certificate verified on a family has value
      at least :func:`~momentcert.sdp.certificate_floor` at any completion
      v, so a floor at or above -margin rules NONLOCAL out.  With v_star
      the solve's completion, v = lo v_star gives
      Gamma(v) = (1 - lo) I + lo Gamma_1(v_star), so
      lambda_min(Gamma(v)) >= 1 - lo (1 - lambda_star).  When the floor
      still falls below -margin, as it can at tolerances so fine that lo is
      almost p_star, the lo family is solved instead and must not be
      CERTIFIED_INFEASIBLE.

    NoBracket is raised instead of returning an unconfirmed threshold.
    """
    tolerance = checked_real(tolerance, "tolerance")
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    policy = policy if policy is not None else PinPolicy.all()
    config = config if config is not None else SolverConfig()
    source = SimulatedSource(state, suite)
    high = family_for_request(AnalysisRequest(source, scenario, level, policy, config))
    outcome: SolveOutcome = _stage("solve", maximize_lambda_min, high, config)
    if outcome.status != CERTIFIED_INFEASIBLE:
        raise NoBracket(f"verdict at visibility 1 is {INCONCLUSIVE}, not {NONLOCAL}")
    z = outcome.certificate.matrix
    p_star = (1.0 + config.margin) / (1.0 - outcome.certificate.value)
    lo = max(0.0, p_star - 0.5 * tolerance)
    hi = min(1.0, p_star + 0.5 * tolerance)
    while hi - lo > tolerance:  # rounding can widen the bracket by an ulp
        hi = math.nextafter(hi, lo)
    unconfirmed = NoBracket(f"verdicts at [{lo}, {hi}] do not confirm p* = {p_star}")
    at_hi = white_noise_family(high, hi)
    proof = DualCertificate(matrix=z, value=float(np.sum(at_hi.gamma0 * z)))
    if not (verify_certificate(at_hi, proof, config.tol_cert) and proof.value < -config.margin):
        raise unconfirmed
    if lo > 0.0:
        at_lo = white_noise_family(high, lo)
        if certificate_floor(at_lo, lo * outcome.v_star, config.tol_cert) < -config.margin:
            if _stage("solve", maximize_lambda_min, at_lo, config).status == CERTIFIED_INFEASIBLE:
                raise unconfirmed
    return RobustnessResult(p_star=p_star, bracket=(lo, hi), tolerance=tolerance)


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
    """The policy of an explicit pin document: a JSON list of distinct moment keys."""
    _expect(isinstance(document, list), "$", "expected a JSON list")
    keys = set()
    for index, item in enumerate(document):
        key = _read_moment_key(item, scenario, f"$[{index}]")
        if key in keys:
            raise DuplicateMoment(f"$[{index}]: duplicate moment {key_name(key)}")
        keys.add(key)
    return PinPolicy.explicit(keys)


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
    _expect(outcomes == 2, "scenario.outcomes", "expected 2 (dichotomic measurements)")
    try:
        scenario = Scenario(parties, settings)
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
            try:
                sigma = checked_sigma(sigma, "sigma")
            except ValueError as exc:
                raise SchemaError(f"{path}.sigma: {exc}") from exc
        if key in entries:
            raise DuplicateMoment(f"{path}: duplicate moment {key_name(key)}")
        entries[key] = (value, sigma)
    return CorrelatorTable(scenario, entries)


def certificate_from_document(document: dict) -> DualCertificate | None:
    """Rebuild the certificate recorded in a verdict-report body."""
    cert_doc = document.get("certificate")
    if cert_doc is None:
        return None
    matrix = np.asarray(cert_doc["matrix"], dtype=float)
    return DualCertificate(matrix=matrix, value=float(cert_doc["value"]))

