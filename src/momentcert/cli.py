"""Command-line front end.

Subcommands: structure, analyze, ingest, robustness, states.  Human-readable
summaries go to stdout; machine reports are written as JSON to --out.  Exit
codes: 0 for success / INCONCLUSIVE, 2 for a certified NONLOCAL verdict,
1 for any error.

All file formats are JSON with a top-level "schema_version": 1.  Parties are
1-based and settings 0-based everywhere.  The correlator-table schema:

    {"schema_version": 1,
     "scenario": {"parties": 3, "settings": 2, "outcomes": 2},
     "moments": [{"parties": [1, 3], "settings": [0, 1],
                  "value": 0.25, "sigma": 0.01}, ...]}

sigma is optional; it is validated and written back by ingest, but no
analysis reads it.  With --from-table the scenario is the table's own, and
--parties/--settings are not read.  An explicit pin file is a JSON list of
the same parties/settings objects (without value), read with the table's
key checks against the scenario of the analysis.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, hierarchy, quantum
from .algebra import Scenario, scenario_document
from .errors import NoBracket, PipelineError
from .sdp import SolverConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONLOCAL = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}\n{self.format_usage()}")


# Defaults applied after parsing, so that a flag a command does not read is
# told apart from one left at its default.
_LATE_DEFAULTS = {"parties": 3, "settings": 2, "level": 2, "noise": 1.0}


def _add_scenario_flags(parser):
    parser.add_argument("--parties", type=int, help="number of parties (default 3)")
    parser.add_argument("--settings", type=int, help="measurement settings per party (default 2)")
    parser.add_argument("--level", type=int, help="hierarchy level (default 2)")


def _add_solver_flags(parser):
    parser.add_argument(
        "--max-iters", type=int, default=SolverConfig.max_iters,
        help=f"cap on interior-point steps (default {SolverConfig.max_iters};"
        " a (3,2,2) or (3,3,2) solve takes 6-23)",
    )
    parser.add_argument(
        "--margin", type=float, default=SolverConfig.margin,
        help=f"NONLOCAL needs a certificate value below -margin (default {SolverConfig.margin:g})",
    )


def _solver_config(args) -> SolverConfig:
    return SolverConfig(max_iters=args.max_iters, margin=args.margin)


def _add_source_flags(parser, noise=True):
    parser.add_argument(
        "--state",
        help="w | ghz | graph-linear | graph-loop | basis:<bits>",
    )
    parser.add_argument("--suite", help="w | ghz | graph")
    if noise:  # robustness spans every visibility itself
        parser.add_argument("--noise", type=float, help="visibility p in [0, 1] (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_structure = sub.add_parser("structure", help="compile and report a moment-matrix structure")
    _add_scenario_flags(p_structure)
    p_structure.add_argument("--out", help="write the structure document to this path")

    p_analyze = sub.add_parser("analyze", help="run the full verdict pipeline")
    _add_scenario_flags(p_analyze)
    _add_source_flags(p_analyze)
    p_analyze.add_argument("--from-table", help="analyze an ingested table instead of simulating")
    p_analyze.add_argument("--pin", default="all", help="all | max-bodies:<k> | explicit:<file>")
    _add_solver_flags(p_analyze)
    p_analyze.add_argument("--out", help="write the verdict report to this path")

    p_ingest = sub.add_parser("ingest", help="validate a correlator-table document")
    p_ingest.add_argument("table", help="path of the table JSON document")
    p_ingest.add_argument("--out", help="rewrite the normalized table to this path")

    p_rob = sub.add_parser(
        "robustness", help="compute and confirm the critical white-noise visibility"
    )
    _add_scenario_flags(p_rob)
    _add_source_flags(p_rob, noise=False)
    p_rob.add_argument("--pin", default="all")
    p_rob.add_argument(
        "--tol", type=float, default=1e-2,
        help="width of the confirming bracket around p* (default 1e-2)",
    )
    _add_solver_flags(p_rob)
    p_rob.add_argument("--out", help="write the robustness report to this path")

    p_states = sub.add_parser("states", help="inspect a named state or dump its correlator table")
    _add_scenario_flags(p_states)
    _add_source_flags(p_states)
    p_states.add_argument("--dump", action="store_true", help="emit the correlator table document")
    p_states.add_argument("--out", help="write the dump to this path instead of stdout")

    return parser


def _parse_pin(text: str, scenario: Scenario) -> hierarchy.PinPolicy:
    if text == "all":
        return hierarchy.PinPolicy.all()
    if text.startswith("max-bodies:"):
        try:
            bodies = int(text.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad --pin value {text!r}")
        return hierarchy.PinPolicy.max_bodies(bodies)
    if text.startswith("explicit:"):
        return analysis.explicit_pins(_load_json(text.split(":", 1)[1]), scenario)
    raise CliError(f"bad --pin value {text!r}")


def _write_json(path: str | None, document: dict) -> None:
    text = json.dumps(document, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_structure(args) -> int:
    scenario = Scenario(args.parties, args.settings)
    structure = hierarchy.build_structure(scenario, args.level)
    report = hierarchy.structure_report(structure)
    print(
        f"scenario ({scenario.parties},{scenario.settings},2)"
        f" level {args.level}: dim {structure.dim},"
        f" {len(structure.observables)} observable moments,"
        f" {len(structure.freevars)} free variables"
    )
    if args.out:
        _write_json(args.out, report)
        print(f"structure document written to {args.out}")
    return EXIT_OK


def _analysis_request(args) -> analysis.AnalysisRequest:
    config = _solver_config(args)
    if args.from_table:
        table = analysis.ingest_table(_load_json(args.from_table))
        source, scenario = analysis.MeasuredSource(table), table.scenario
    else:
        if not args.state or not args.suite:
            raise CliError("--state and --suite are required unless --from-table is given")
        source = analysis.SimulatedSource(args.state, args.suite, args.noise)
        scenario = Scenario(args.parties, args.settings)
    policy = _parse_pin(args.pin, scenario)
    return analysis.AnalysisRequest(
        source=source, scenario=scenario, level=args.level, policy=policy, config=config
    )


def _print_report(report: analysis.VerdictReport) -> None:
    scenario = report.request.scenario
    print(
        f"scenario ({scenario.parties},{scenario.settings},2)"
        f" level {report.request.level}, pinned {len(report.pinned_keys)} moments,"
        f" {len(report.variables)} variables"
    )
    print(f"status: {report.outcome.status}   lambda*: {report.lambda_star:.6g}")
    if report.certificate is not None:
        print(f"certificate value: {report.certificate.value:.6g} (verified)")
    print(f"verdict: {report.verdict}")


def _cmd_analyze(args) -> int:
    request = _analysis_request(args)
    report = analysis.analyze(request)
    _print_report(report)
    if args.out:
        _write_json(args.out, report.document())
        print(f"report written to {args.out}")
    return EXIT_NONLOCAL if report.verdict == analysis.NONLOCAL else EXIT_OK


def _cmd_ingest(args) -> int:
    table = analysis.ingest_table(_load_json(args.table))
    print(
        f"table accepted: scenario ({table.scenario.parties},{table.scenario.settings},2),"
        f" {len(table)} moments"
    )
    if args.out:
        _write_json(args.out, analysis.table_document(table))
        print(f"normalized table written to {args.out}")
    return EXIT_OK


def _cmd_robustness(args) -> int:
    if not args.state or not args.suite:
        raise CliError("--state and --suite are required")
    scenario = Scenario(args.parties, args.settings)
    policy = _parse_pin(args.pin, scenario)
    result = analysis.robustness(
        args.state,
        args.suite,
        scenario,
        level=args.level,
        policy=policy,
        tolerance=args.tol,
        config=_solver_config(args),
    )
    lo, hi = result.bracket
    print(f"critical visibility p* = {result.p_star:.6g} (bracket [{lo:.6g}, {hi:.6g}])")
    if args.out:
        _write_json(
            args.out,
            {
                "schema_version": 1,
                "kind": "robustness",
                "state": args.state,
                "suite": args.suite,
                "scenario": scenario_document(scenario),
                "level": args.level,
                "policy": policy.describe(),
                "p_star": result.p_star,
                "bracket": [lo, hi],
                "tolerance": result.tolerance,
                "evaluations": [{"visibility": p, "verdict": v} for p, v in result.evaluations],
            },
        )
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_states(args) -> int:
    if not args.state:
        raise CliError("--state is required")
    if args.dump:
        if not args.suite:
            raise CliError("--dump needs --suite")
        scenario = Scenario(args.parties, args.settings)
        source = analysis.SimulatedSource(args.state, args.suite, args.noise)
        request = analysis.AnalysisRequest(source, scenario, args.level)
        structure = hierarchy.build_structure(scenario, args.level)
        _write_json(args.out, analysis.table_document(analysis.request_table(request, structure)))
        if args.out:
            print(f"correlator table written to {args.out}")
        return EXIT_OK
    state = quantum.add_white_noise(quantum.make_state(args.state, args.parties), args.noise)
    purity = float(np.trace(state.rho @ state.rho).real)
    print(f"state {args.state}: {state.n} qubits, visibility {args.noise}, purity {purity:.6g}")
    return EXIT_OK


_COMMANDS = {
    "structure": _cmd_structure,
    "analyze": _cmd_analyze,
    "ingest": _cmd_ingest,
    "robustness": _cmd_robustness,
    "states": _cmd_states,
}


def _reject_unread_flags(args) -> None:
    """A usage error for a flag that the chosen mode of a command never reads."""
    if args.command == "analyze" and args.from_table:
        unread, mode = ("state", "suite", "noise", "parties", "settings"), "with --from-table"
    elif args.command == "states" and not args.dump:
        unread, mode = ("suite", "settings", "level", "out"), "without --dump"
    else:
        return
    for name in unread:
        if getattr(args, name) is not None:
            raise CliError(f"momentcert {args.command}: --{name} is not read {mode}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _reject_unread_flags(args)
        for name, default in _LATE_DEFAULTS.items():
            if getattr(args, name, default) is None:
                setattr(args, name, default)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError, KeyError, NoBracket, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
