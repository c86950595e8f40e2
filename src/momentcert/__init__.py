"""Certification of non-local correlations from local-measurement statistics.

The toolkit compiles a commuting-measurement moment-matrix hierarchy into a
semidefinite feasibility problem: observed correlators are pinned into an
affine family of symmetric matrices, and a verified dual certificate of
infeasibility proves the correlations cannot arise from local measurements
on a separable state.
"""

from .algebra import (
    MomentKey,
    Scenario,
    generate_basis,
    key_name,
    moment_kind,
    word_product,
)
from .analysis import (
    INCONCLUSIVE,
    NONLOCAL,
    AnalysisRequest,
    MeasuredSource,
    RobustnessResult,
    SimulatedSource,
    VerdictReport,
    analyze,
    certificate_from_document,
    family_for_request,
    ingest_table,
    robustness,
    table_document,
)
from .errors import (
    DuplicateMoment,
    MissingMoment,
    NoBracket,
    PipelineError,
    RangeError,
    SchemaError,
    UnsoundConfig,
)
from .hierarchy import (
    AffineMatrixFamily,
    MomentMatrixStructure,
    PinPolicy,
    assemble,
    build_structure,
    structure_report,
)
from .quantum import (
    CorrelatorTable,
    MeasurementSuite,
    QuantumState,
    add_white_noise,
    correlator_table,
    expectation,
    graph_state,
    make_state,
    standard_suite,
)
from .sdp import (
    CERTIFIED_INFEASIBLE,
    FEASIBLE,
    UNDECIDED,
    DualCertificate,
    SolveOutcome,
    SolverConfig,
    extract_certificate,
    maximize_lambda_min,
    verify_certificate,
)

__version__ = "0.1.0"
