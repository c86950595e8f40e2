import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentcert
from momentcert.cli import main

FAST_FLAGS = ["--max-iters", "800"]


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
    assert run(["ingest", str(table_path)]) == 0

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
    code = run(
        ["analyze", "--state", "basis:000", "--suite", "w", "--pin", f"explicit:{pin_path}"]
        + FAST_FLAGS
    )
    assert code == 0


@pytest.mark.parametrize("state,suite,settings,expected", [
    ("w", "w", "2", 2),
    ("ghz", "ghz", "2", 2),
    ("graph-linear", "graph", "3", 2),
    ("graph-loop", "graph", "3", 2),
    ("basis:000", "w", "2", 0),
    ("basis:000", "ghz", "2", 0),
    ("basis:000", "graph", "3", 0),
])
def test_exit_code_matrix(state, suite, settings, expected):
    code = run(
        ["analyze", "--state", state, "--suite", suite, "--settings", settings] + FAST_FLAGS
    )
    assert code == expected


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


def test_robustness_command_rejects_nan_tolerance(capsys):
    code = run(["robustness", "--state", "w", "--suite", "w", "--tol", "nan"] + FAST_FLAGS)
    assert code == 1
    assert "tolerance" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy.optimize alone adds about half a second and 50 MB to start-up.
    package_root = str(Path(momentcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, momentcert.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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
], ids=["unequal-lengths", "not-an-object", "scalars"])
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
