import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentcert
from momentcert.cli import main

FAST_FLAGS = ["--max-iters", "800"]
DATA = Path(__file__).parent / "data"


def run(args):
    return main(args)


def test_structure_command(tmp_path, capsys):
    out = tmp_path / "structure.json"
    code = run(["structure", "--parties", "3", "--settings", "2", "--level", "2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "dim 22" in printed
    document = json.loads(out.read_text())
    assert document["dim"] == 22
    assert document["counts"]["observables"] == 26


def test_structure_document_matches_golden(tmp_path, capsys):
    # The whole (3,2,2) level-2 document, byte for byte: its word names, every
    # entry, the observables and the free variables.
    out = tmp_path / "structure.json"
    code = run(["structure", "--parties", "3", "--settings", "2", "--level", "2", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "structure_322.json").read_bytes()


def test_analyze_nonlocal_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["analyze", "--state", "w", "--suite", "w", "--pin", "all", "--out", str(out)]
        + FAST_FLAGS
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["body"]["verdict"] == "NONLOCAL"
    assert report["body"]["certificate"]["verified"] is True


def test_analyze_inconclusive_exit_code():
    code = run(["analyze", "--state", "basis:000", "--suite", "w"] + FAST_FLAGS)
    assert code == 0


def test_dump_ingest_analyze_roundtrip(tmp_path):
    table_path = tmp_path / "table.json"
    assert run(
        ["states", "--state", "w", "--suite", "w", "--dump", "--out", str(table_path)]
    ) == 0
    normalized = tmp_path / "normalized.json"
    assert run(["ingest", str(table_path), "--out", str(normalized)]) == 0
    assert normalized.read_bytes() == table_path.read_bytes()

    direct = tmp_path / "direct.json"
    tabled = tmp_path / "tabled.json"
    assert run(
        ["analyze", "--state", "w", "--suite", "w", "--out", str(direct)] + FAST_FLAGS
    ) == 2
    assert run(
        ["analyze", "--from-table", str(table_path), "--out", str(tabled)] + FAST_FLAGS
    ) == 2
    direct_body = json.loads(direct.read_text())["body"]
    tabled_body = json.loads(tabled.read_text())["body"]
    assert json.dumps(direct_body, sort_keys=True) == json.dumps(tabled_body, sort_keys=True)


def test_states_summary(capsys):
    assert run(["states", "--state", "ghz", "--noise", "0.5"]) == 0
    printed = capsys.readouterr().out
    assert "purity" in printed


def test_usage_errors_exit_one(capsys):
    assert run(["analyze", "--pin", "all"]) == 1
    assert run(["analyze", "--state", "w", "--suite", "w", "--pin", "bogus"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["analyze", "--state", "w", "--suite", "w", "--unknown-flag"]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err


def test_ingest_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 2}')
    assert run(["ingest", str(bad)]) == 1
    assert run(["ingest", str(tmp_path / "missing.json")]) == 1


def test_max_bodies_pin(tmp_path):
    out = tmp_path / "ghz2.json"
    code = run(
        ["analyze", "--state", "ghz", "--suite", "ghz", "--pin", "max-bodies:2", "--out", str(out)]
        + FAST_FLAGS
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["body"]["verdict"] == "INCONCLUSIVE"
    assert len(report["body"]["pinned"]) == 18


def test_explicit_pin_file(tmp_path):
    pin_path = tmp_path / "pins.json"
    pin_path.write_text(json.dumps([
        {"parties": [1], "settings": [0]},
        {"parties": [1, 2], "settings": [0, 0]},
    ]))
    out = tmp_path / "report.json"
    code = run(
        ["analyze", "--state", "basis:000", "--suite", "w", "--pin", f"explicit:{pin_path}",
         "--out", str(out)]
        + FAST_FLAGS
    )
    assert code == 0
    policy = json.loads(out.read_text())["body"]["policy"]
    assert policy == {"kind": "explicit", "keys": ["A0", "A0B0"]}


TABLE = "<dumped W table>"


def _analysis(state, suite, settings, expected):
    argv = ["analyze", "--state", state, "--suite", suite, "--settings", settings] + FAST_FLAGS
    return pytest.param(argv, expected, None, id=f"{state}-{suite}-{settings}-{expected}")


def _unread(flag, *argv):
    # A flag the command's mode never reads is a usage error naming it.
    return pytest.param(list(argv), 1, f"{flag} is not read", id=f"unread-{argv[0]}{flag}")


def _usage(message, ident, *argv):
    # A missing or malformed flag is a usage error that says what is wrong.
    return pytest.param(list(argv), 1, message, id=ident)


@pytest.mark.parametrize("argv,expected,message", [
    _analysis("w", "w", "2", 2),
    _analysis("ghz", "ghz", "2", 2),
    _analysis("graph-linear", "graph", "3", 2),
    _analysis("graph-loop", "graph", "3", 2),
    _analysis("basis:000", "w", "2", 0),
    _analysis("basis:000", "ghz", "2", 0),
    _analysis("basis:000", "graph", "3", 0),
    _unread("--suite", "states", "--state", "w", "--suite", "nonsense"),
    _unread("--settings", "states", "--state", "w", "--settings", "9"),
    _unread("--level", "states", "--state", "w", "--level", "7"),
    _unread("--out", "states", "--state", "w", "--out", "summary.json"),
    _unread("--suite", "analyze", "--from-table", TABLE, "--suite", "nonsense"),
    _unread("--noise", "analyze", "--from-table", TABLE, "--noise", "0.1"),
    _unread("--state", "analyze", "--from-table", TABLE, "--state", "w"),
    _unread("--parties", "analyze", "--from-table", TABLE, "--parties", "3"),
    _unread("--settings", "analyze", "--from-table", TABLE, "--settings", "2"),
    _usage("--state and --suite are required", "robustness-no-suite", "robustness", "--state", "w"),
    _usage("--state is required", "states-no-state", "states"),
    _usage("--dump needs --suite", "dump-no-suite", "states", "--state", "w", "--dump"),
    _usage("bad --pin value 'max-bodies:x'", "pin-max-bodies-x",
           "analyze", "--state", "w", "--suite", "w", "--pin", "max-bodies:x"),
])
def test_exit_code_matrix(tmp_path, capsys, argv, expected, message):
    if TABLE in argv:
        table_path = str(tmp_path / "table.json")
        assert run(["states", "--state", "w", "--suite", "w", "--dump", "--out", table_path]) == 0
        argv = [table_path if arg == TABLE else arg for arg in argv]
    capsys.readouterr()
    assert run(argv) == expected
    if message is not None:
        assert message in capsys.readouterr().err


def test_analyze_from_table_reads_the_table_scenario(tmp_path):
    # A (3,3,2) table is analyzed in its own scenario, with no --settings,
    # and an explicit pin file is checked against that scenario: setting 2
    # exists in (3,3,2) but not in the default (3,2,2).
    table_path = tmp_path / "table332.json"
    assert run(["states", "--state", "graph-loop", "--suite", "graph", "--settings", "3",
                "--dump", "--out", str(table_path)]) == 0
    out = tmp_path / "report.json"
    assert run(["analyze", "--from-table", str(table_path), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["body"]["scenario"]["settings"] == 3
    pin_path = tmp_path / "pins.json"
    pin_path.write_text(json.dumps([{"parties": [1], "settings": [2]}]))
    assert run(["analyze", "--from-table", str(table_path), "--pin", f"explicit:{pin_path}",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["body"]["policy"] == {"kind": "explicit", "keys": ["A2"]}


def test_robustness_command(tmp_path, capsys):
    out = tmp_path / "rob.json"
    code = run(
        ["robustness", "--state", "w", "--suite", "w", "--tol", "0.5", "--out", str(out)]
        + FAST_FLAGS
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "p*" in printed
    report = json.loads(out.read_text())
    assert report["bracket"][1] - report["bracket"][0] <= 0.5


def _package_env(**variables):
    """The environment of a subprocess that imports this momentcert."""
    package_root = str(Path(momentcert.__file__).resolve().parents[1])
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "golden, state, suite, parties, settings, tolerance",
    [
        ("w", "w", "w", 3, 2, "1e-2"),
        ("ghz", "ghz", "ghz", 3, 2, "1e-2"),
        ("w", "w", "w", 3, 2, "1e-6"),
        ("w4", "w", "w", 4, 2, "1e-2"),
        ("graph-loop", "graph-loop", "graph", 3, 3, "1e-2"),
    ],
    ids=["w-1e-2", "ghz-1e-2", "w-1e-6", "w4-1e-2", "graph-loop-1e-2"],
)
def test_robustness_document_matches_golden(
    tmp_path, golden, state, suite, parties, settings, tolerance
):
    # p*, the bracket and the evaluations, byte for byte, as robustness
    # writes them from the certificate of its solve at visibility 1, with
    # numpy 2.4 and OpenBLAS on x86-64.  The command runs in a subprocess on
    # one BLAS thread: at dim 46 threaded products round differently.
    out = tmp_path / "robustness.json"
    argv = ["robustness", "--state", state, "--suite", suite, "--parties", str(parties),
            "--settings", str(settings), "--tol", tolerance, "--out", str(out)]
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    subprocess.run([sys.executable, "-m", "momentcert.cli", *argv],
                   env=_package_env(**one_thread), capture_output=True, check=True)
    assert out.read_bytes() == (DATA / f"robustness_{golden}_{tolerance}.json").read_bytes()


@pytest.mark.parametrize(
    "state, suite, settings, key",
    # One-key pin sets on which the Newton system turns exactly singular.
    [
        ("w", "w", 2, {"parties": [1, 2, 3], "settings": [0, 0, 1]}),
        ("ghz", "ghz", 2, {"parties": [1, 2, 3], "settings": [0, 0, 0]}),
        ("graph-linear", "graph", 3, {"parties": [1, 2], "settings": [0, 2]}),
    ],
    ids=["w-A0B0C1", "ghz-A0B0C0", "graph-linear-A0B2"],
)
def test_singular_newton_system_ends_in_a_verdict(tmp_path, state, suite, settings, key):
    pin_path = tmp_path / "pins.json"
    pin_path.write_text(json.dumps([key]))
    out = tmp_path / "report.json"
    argv = ["analyze", "--state", state, "--suite", suite, "--settings", str(settings),
            "--pin", f"explicit:{pin_path}", "--out", str(out)]
    assert run(argv) == 0
    body = json.loads(out.read_text())["body"]
    assert body["status"] == "FEASIBLE"
    assert body["lambda_star"] >= -1e-8


def test_analysis_agrees_across_blas_thread_counts(tmp_path):
    # Threaded products round differently at dim 46, so the floats of a
    # report may differ in the last digits; nothing else may.
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        argv = ["analyze", "--state", "graph-loop", "--suite", "graph", "--parties", "3",
                "--settings", "3", "--out", str(out)]
        env = _package_env(
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        )
        code = subprocess.run([sys.executable, "-m", "momentcert.cli", *argv],
                              env=env, capture_output=True).returncode
        assert code == 2
        bodies.append(json.loads(out.read_text())["body"])
    one, two = bodies
    assert [one[k] for k in ("verdict", "status", "iterations")] == [
        two[k] for k in ("verdict", "status", "iterations")
    ]
    assert abs(one["lambda_star"] - two["lambda_star"]) <= 1e-12


def test_robustness_command_rejects_nan_tolerance(capsys):
    code = run(["robustness", "--state", "w", "--suite", "w", "--tol", "nan"] + FAST_FLAGS)
    assert code == 1
    assert "tolerance" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy.optimize alone adds about half a second and 50 MB to start-up.
    code = "import sys, momentcert.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_analyze_loads_no_scipy(tmp_path):
    # The package solves with numpy alone; scipy is a dependency of the
    # benchmark harness only.  Graph-linear on (3,3,2) takes the solver's
    # Cholesky-solve path, where scipy.linalg.cho_solve would be the shortcut.
    code = (
        "import sys, momentcert.cli\n"
        f"code = momentcert.cli.main(['analyze', '--state', 'graph-linear', '--suite', 'graph',"
        f" '--parties', '3', '--settings', '3', '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "2 []"


def test_only_the_cli_prints():
    # The library reports through return values and exceptions; only the
    # command line writes to the terminal.
    modules = [path for path in Path(momentcert.__file__).parent.rglob("*.py") if path.name != "cli.py"]
    assert len(modules) > 1
    calls = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert calls == []


def test_removed_solver_flags_are_usage_errors(tmp_path, capsys):
    for flag in (["--seed", "3"], ["--restarts", "2"]):
        assert run(["analyze", "--state", "basis:000", "--suite", "w"] + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert run(["analyze", "--state", "basis:000", "--suite", "w", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["meta"]["config"]
    assert sorted(config) == ["margin", "max_iters", "tol_cert"]


def test_robustness_rejects_noise(capsys):
    # robustness spans every visibility itself, so a --noise would be ignored.
    assert run(["robustness", "--state", "w", "--suite", "w", "--noise", "0.3"]) == 1
    assert "unrecognized arguments: --noise 0.3" in capsys.readouterr().err


@pytest.mark.parametrize("entries,message", [
    # zip() would pair only A0 and pin a key nobody asked for.
    ([{"parties": [1, 2], "settings": [0]}], "$[0].settings: parties and settings must have equal length"),
    (["A0"], "$[0]: expected an object"),
    ([{"parties": 1, "settings": 0}], "$[0].parties: expected a nonempty list"),
    ([{"parties": [1, 1], "settings": [0, 1]}], "$[0]: moment key parties must be strictly increasing"),
    ([{"parties": [4], "settings": [0]}], "$[0]: letter (4, 0) outside scenario"),
    ([{"parties": [1], "settings": [2]}], "$[0]: letter (1, 2) outside scenario"),
    # Checked like the keys of a table, which may not repeat one either.
    ([{"parties": [1], "settings": [0]}, {"parties": [2], "settings": [1]},
      {"parties": [1], "settings": [0]}], "$[2]: duplicate moment A0"),
], ids=["unequal-lengths", "not-an-object", "scalars", "repeated-party", "party-outside",
        "setting-outside", "repeated-key"])
def test_bad_explicit_pin_file_is_an_error(tmp_path, capsys, entries, message):
    pin_path = tmp_path / "pins.json"
    pin_path.write_text(json.dumps(entries))
    code = run(
        ["analyze", "--state", "w", "--suite", "w", "--pin", f"explicit:{pin_path}"] + FAST_FLAGS
    )
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {message}" in err
    assert "Traceback" not in err
