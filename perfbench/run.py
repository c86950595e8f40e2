"""Benchmark of momentcert: closed-loop certification and robustness runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-322 --seed 1 --seconds 30 --trace 0

One client in one process issues operations back to back: the next starts
only after the previous returns, until ``--seconds`` have passed.  The seed
generates the inputs (see ``workloads.py``); the program only receives
them.  After the timed loop an independent gate re-checks every output, and
every failed check counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; ``--trace 1`` runs the same stream with spans and
counts at the layer boundaries (``tracing.py``) and reports the per-layer
metrics.  Lines before it give the run's environment and further
diagnostics; the full result, spans included, is written under
``perfbench/out/``.

Workloads:

certify-322     (3,2,2) level 2: W and GHZ at visibility in [0.95, 1], random
                separable tables ingested from JSON, basis states, GHZ with
                two-body pins.  dim 22; half the requests need a certificate.
certify-332     (3,3,2) level 2: linear and loop graph states and separable
                tables on the graph suite.  dim 46, 192 variables, so work
                that scales with the variable count dominates.
robustness-322  one robustness() bisection for W or GHZ at tolerance 1e-2;
                about 9 analyses of one structure and state per operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracing import SOLVER_STATUSES, Patches, ReportRecorder, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS runs on one thread: iteration and eigendecomposition counts then
# repeat exactly, and the run competes less for the machine's cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of all
HARD_CAP_S = 150.0  # no operation starts that would likely end after this
STREAM_LENGTH = {"certify-322": 240, "certify-332": 60, "robustness-322": 20}
# Exact level-2 visibility at which W's optimum crosses -margin, from an
# interior-point solve whose primal and dual agree to 1e-9.  A sound
# NONLOCAL verdict for W never occurs below it.
W_EXACT_THRESHOLD = 0.84968
THRESHOLD_SLACK = 1e-4
SELF_SUM_TOL = 1e-6


def setup(workload: str, seed: int):
    """Import the program, generate the inputs and warm the solver once."""
    started = time.perf_counter()
    if not (SRC / "momentcert" / "__init__.py").is_file():
        raise FileNotFoundError(f"no momentcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import momentcert.cli  # noqa: F401  (the import a CLI user pays for)

    import_s = time.perf_counter() - started
    if Path(momentcert.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"momentcert imported from {momentcert.cli.__file__}, not {SRC}")
    ops = workloads.generate(workload, seed, STREAM_LENGTH[workload])
    _warm_up()
    return ops, import_s, time.perf_counter() - started


def _warm_up():
    from momentcert import AnalysisRequest, Scenario, SimulatedSource, SolverConfig, analyze

    analyze(AnalysisRequest(SimulatedSource("basis:00", "w"), Scenario(2, 1), level=1,
                            config=SolverConfig(max_iters=5, restarts=1)))


def probe_setups(args) -> list[dict]:
    """Set up again in fresh processes; each prints its own timings."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(op, tracer):
    """One operation: what a CLI user's command does, minus printing."""
    from momentcert import analysis
    from momentcert.algebra import Scenario
    from momentcert.hierarchy import PinPolicy

    scenario = Scenario(op.parties, op.settings)
    if op.kind == "robustness":
        with _maybe_span(tracer, "analysis.robustness"):
            result = analysis.robustness(op.state, op.suite, scenario,
                                         tolerance=workloads.ROBUSTNESS_TOLERANCE)
        if tracer is not None:
            tracer.count("analysis.robustness.evaluations", len(result.evaluations))
        return result
    if op.table_json is not None:
        with _maybe_span(tracer, "analysis.ingest"):
            table = analysis.ingest_table(json.loads(op.table_json))
        if tracer is not None:
            tracer.count("analysis.ingest.bytes", len(op.table_json.encode()))
        source = analysis.MeasuredSource(table)
    else:
        source = analysis.SimulatedSource(op.state, op.suite, op.visibility)
    policy = PinPolicy.max_bodies(op.max_bodies) if op.max_bodies else PinPolicy.all()
    request = analysis.AnalysisRequest(source=source, scenario=scenario, level=2, policy=policy)
    return analysis.analyze(request)


def _maybe_span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def gate(op, result, pairs) -> list[str]:
    """Independent checks of one operation's outputs; returns the failures."""
    from momentcert.analysis import certificate_from_document, family_for_request
    from momentcert.sdp import verify_certificate

    problems = []
    for request, report in pairs:
        if report.verdict != "NONLOCAL":
            continue
        certificate = certificate_from_document(report.body_document())
        if certificate is None:
            problems.append("NONLOCAL report without a certificate")
            continue
        family = family_for_request(request)
        if not verify_certificate(family, certificate, request.config.tol_cert):
            problems.append("NONLOCAL certificate fails the independent re-check")
        elif certificate.value >= -request.config.margin:
            problems.append(f"NONLOCAL certificate value {certificate.value} above -margin")
    if op.kind == "robustness":
        lo, hi = result.bracket
        if not (0.0 <= lo < hi <= 1.0 and hi - lo <= workloads.ROBUSTNESS_TOLERANCE):
            problems.append(f"bad bracket {result.bracket}")
        for p, verdict in result.evaluations:
            if (p >= hi) != (verdict == "NONLOCAL"):
                problems.append(f"verdict {verdict} at visibility {p} contradicts {result.bracket}")
        if op.state == "w" and hi < W_EXACT_THRESHOLD - THRESHOLD_SLACK:
            problems.append(f"W certified NONLOCAL at {hi}, below the exact threshold")
    elif result.verdict != op.expect:
        what = "soundness failure: " if op.kind == "separable" else ""
        problems.append(f"{what}{op.kind} gave {result.verdict}, expected {op.expect}")
    return problems


def measure(ops, seconds: float, tracer, started: float):
    """The closed loop.  Returns per-op durations, results and failures."""
    from momentcert import analysis

    patches = Patches()
    recorder = ReportRecorder()
    recorder.install(patches, analysis)
    if tracer is not None:
        tracer.install(patches)
    records = []
    try:
        loop_start = time.perf_counter()
        last = 0.0
        while not records or time.perf_counter() - loop_start < seconds:
            if time.perf_counter() + last - started > HARD_CAP_S:
                break
            index = len(records)
            op = ops[index % len(ops)]
            recorder.active = True
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.operation(index):
                        result = run_op(op, tracer)
                else:
                    result = run_op(op, None)
                error = None
            except Exception:
                result, error = None, traceback.format_exc()
            last = time.perf_counter() - t0
            recorder.active = False
            records.append({"op": op, "seconds": last, "result": result, "error": error,
                            "pairs": recorder.take()})
        loop_s = time.perf_counter() - loop_start
    finally:
        patches.restore()
    for rec in records:
        if rec["error"] is None:
            rec["problems"] = gate(rec["op"], rec["result"], rec["pairs"])
        else:
            rec["problems"] = ["raised: " + rec["error"].strip().splitlines()[-1]]
            print(rec["error"], file=sys.stderr)
    return records, loop_s


def untraced_reference(op) -> float:
    """Wall time of one untraced run of ``op``, for the tracing overhead."""
    t0 = time.perf_counter()
    run_op(op, None)
    return time.perf_counter() - t0


def _gaps(records) -> list[float]:
    return [
        report.certificate.value - report.lambda_star
        for rec in records
        for _, report in rec["pairs"]
        if report.verdict == "NONLOCAL"
    ]


def end_to_end(records, loop_s, setup_samples) -> tuple[dict, dict]:
    """The gated metrics and the printed-only diagnostics."""
    durations = [rec["seconds"] for rec in records]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup_samples), "s"),
        "ops_per_s": (len(records) / loop_s, "1/s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "op_s.n": len(durations),
        "setup_s.n": len(setup_samples),
        "failed_frac": sum(1 for r in records if r["problems"]) / len(records),
    }
    gaps = _gaps(records)
    if gaps and records[0]["op"].kind != "robustness":
        extra["gap.p50"] = statistics.median(gaps)
        extra["gap.max"] = max(gaps)
        extra["gap.n"] = len(gaps)
    brackets = [r["result"].bracket[1] - r["result"].bracket[0]
                for r in records if r["op"].kind == "robustness" and r["error"] is None]
    if brackets:
        extra["p_star_bracket.max"] = max(brackets)
        extra["p_star"] = {r["op"].state: r["result"].p_star for r in records if r["error"] is None}
    return metrics, extra


# Per-layer metrics summed over the traced operations and divided by their
# number: name -> (unit, source, key), where the source is a counter
# ("count"), a span's inclusive seconds ("s") or its self seconds ("self_s").
PER_OP = {
    "algebra.word_products": ("count", "count", "algebra.word_products"),
    "hierarchy.build_structure.s": ("s", "s", "hierarchy.build_structure"),
    "hierarchy.build_structure.calls": ("count", "count", "hierarchy.build_structure.calls"),
    "hierarchy.assemble.s": ("s", "s", "hierarchy.assemble"),
    "quantum.table.s": ("s", "s", "quantum.table"),
    "quantum.expectations": ("count", "count", "quantum.expectations"),
    "analysis.ingest.s": ("s", "s", "analysis.ingest"),
    "analysis.ingest.bytes": ("bytes", "count", "analysis.ingest.bytes"),
    "analysis.analyze.self_s": ("s", "self_s", "analysis.analyze"),
    "analysis.robustness.evaluations": ("count", "count", "analysis.robustness.evaluations"),
    "analysis.robustness.self_s": ("s", "self_s", "analysis.robustness"),
    "sdp.solve.self_s": ("s", "self_s", "sdp.solve"),
    "sdp.iterations": ("count", "count", "sdp.iterations"),
    "sdp.eigh_calls": ("count", "count", "sdp.eigh_calls"),
    "sdp.eigh_n3": ("n3_computed", "count", "sdp.eigh_n3"),
    "sdp.extract.s": ("s", "s", "sdp.extract"),
    "sdp.extract.calls": ("count", "count", "sdp.extract.calls"),
    "sdp.verify.s": ("s", "s", "sdp.verify"),
    "sdp.verify.calls": ("count", "count", "sdp.verify.calls"),
    **{f"sdp.status.{s}": ("count", "count", f"sdp.status.{s}") for s in SOLVER_STATUSES},
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{name: unit for name, (unit, _, _) in PER_OP.items()},
    "sdp.decided_frac": "ratio",
    "sdp.gap.p50": "lambda",
    "sdp.gap.max": "lambda",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(tracer, records, setup_samples, reference_s) -> tuple[dict, dict]:
    """Per-operation layer metrics from the spans and counts."""
    ops = tracer.per_op()
    n = len(records)
    totals = {"s": Counter(), "self_s": Counter(), "count": Counter()}
    for index in range(n):
        totals["s"].update(ops[index]["s"])
        totals["self_s"].update(ops[index]["self_s"])
        totals["count"].update(tracer.counts[index])
    values = {name: totals[source][key] / n for name, (_, source, key) in PER_OP.items()}
    counts = totals["count"]
    solves = sum(counts["sdp.status." + s] for s in SOLVER_STATUSES)
    decided = counts["sdp.status.FEASIBLE"] + counts["sdp.status.CERTIFIED_INFEASIBLE"]
    gaps = tracer.gaps
    overhead = ops[0]["wall"] - reference_s
    values.update({
        "cli.import_s": statistics.median(s["import_s"] for s in setup_samples),
        "sdp.decided_frac": decided / solves if solves else 0.0,
        "sdp.gap.p50": statistics.median(gaps) if gaps else 0.0,
        "sdp.gap.max": max(gaps) if gaps else 0.0,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / reference_s,
    })
    walls = [ops[i]["wall"] for i in range(n)]
    extra = {
        "ops.n": n,
        "trace.self_sum_err_max_s": max(
            abs(sum(ops[i]["self_s"].values()) - walls[i]) for i in range(n)
        ),
        "trace.self_min_s": min(tracer.self_times()),
        "trace.reference_s": reference_s,
        "trace.op_wall_s.p50": statistics.median(walls),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STREAM_LENGTH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "momentcert" / "__init__.py").is_file():
        print(f"error: momentcert sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, import_s, setup_s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    samples = [] if args.trace else probe_setups(args)
    ops, import_s, setup_s = setup(args.workload, args.seed)
    samples.append({"setup_s": setup_s, "import_s": import_s})
    env = environment(args.seed)
    env["workload"] = args.workload
    env["trace"] = args.trace
    env["seconds"] = args.seconds
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        reference_s = untraced_reference(ops[0])
        tracer = Tracer()
        records, loop_s = measure(ops, args.seconds, tracer, started)
        metrics, extra = per_layer(tracer, records, samples, reference_s)
        if extra["trace.self_sum_err_max_s"] > SELF_SUM_TOL or extra["trace.self_min_s"] < -SELF_SUM_TOL:
            records[0]["problems"].append("span self times do not add up to the op wall time")
    else:
        tracer = None
        records, loop_s = measure(ops, args.seconds, None, started)
        metrics, extra = end_to_end(records, loop_s, samples)

    failed = [rec for rec in records if rec["problems"]]
    for rec in failed:
        print(f"FAILED {rec['op'].kind}: {'; '.join(rec['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{name} = {value}")

    OUT.mkdir(exist_ok=True)
    detail = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "ops": [
            {"kind": rec["op"].kind, "state": rec["op"].state, "visibility": rec["op"].visibility,
             "seconds": rec["seconds"], "problems": rec["problems"],
             "counts": dict(tracer.counts[i]) if tracer is not None else None}
            for i, rec in enumerate(records)
        ],
        "spans": tracer.document() if tracer is not None else None,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1, default=str))

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
