"""Exit statuses, report bytes, and input handling of the verification CLI."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fractions import Fraction

import symorder.cli as cli
from symorder.cli import CLIInputError, load_structure_constants, main
from symorder.lie import heisenberg_table, sl2_table

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "docs" / "golden"
# Subprocesses import the package from this checkout, installed or not.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

# filename -> (argv, expected exit status); the report bytes for each case are
# committed under docs/golden and re-checked here so any drift in the output
# format is caught.
GOLDEN_CASES = [
    ("verify-theorem-default.txt", ["verify-theorem", "--trials", "3"], 0),
    (
        "verify-theorem-heisenberg.json",
        ["verify-theorem", "--sc", "data/heisenberg.json", "--trials", "2",
         "--output", "json"],
        0,
    ),
    (
        "verify-theorem-control.txt",
        ["verify-theorem", "--family", "symmetric-control", "--k", "2",
         "--trials", "4"],
        1,
    ),
    ("cancellation-default.txt", ["cancellation", "--trials", "3"], 0),
    ("span-dim-default.txt", ["span-dim", "--trials", "2"], 0),
    ("verify-iota-sl2.txt", ["verify-iota", "--sc", "data/sl2.json", "--d", "3"], 0),
    ("bernoulli-default.txt", ["bernoulli"], 0),
    ("bernoulli-12.json", ["bernoulli", "--n-max", "12", "--output", "json"], 0),
]


def invoke(argv):
    """Run main() from the repository root, capturing stdout."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def write_goldens():
    """Regenerate docs/golden from GOLDEN_CASES (invoked manually)."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv, expected in GOLDEN_CASES:
        code, out, _err = invoke(argv)
        assert code == expected, (name, code)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")


@pytest.mark.parametrize("name,argv,expected", GOLDEN_CASES)
def test_reports_match_goldens(name, argv, expected):
    code, out, err = invoke(argv)
    assert code == expected
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert "elapsed:" in err and "elapsed:" not in out


def test_repeated_runs_are_byte_identical():
    for _name, argv, _expected in GOLDEN_CASES:
        first = invoke(argv)
        second = invoke(argv)
        assert first[0] == second[0]
        assert first[1] == second[1]


def test_entry_point_subprocess_determinism():
    argv = [sys.executable, "-m", "symorder.cli", "verify-theorem", "--trials", "2",
            "--output", "json"]
    runs = [
        subprocess.run(argv, cwd=ROOT, env=SRC_ENV, capture_output=True, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert b"elapsed" in runs[0].stderr
    json.loads(runs[0].stdout)


def test_golden_report_without_asserts():
    # python -O strips every assert; the report must not depend on them.
    run = subprocess.run(
        [sys.executable, "-O", "-m", "symorder.cli", "verify-theorem", "--trials", "3"],
        cwd=ROOT, env=SRC_ENV, capture_output=True, check=True,
    )
    assert run.stdout == (GOLDEN_DIR / "verify-theorem-default.txt").read_bytes()


def test_sc_table_loaded_once_per_invocation(monkeypatch):
    loads = []

    def counting_load(path):
        loads.append(path)
        return load_structure_constants(path)

    monkeypatch.setattr(cli, "load_structure_constants", counting_load)
    for name, argv, expected in GOLDEN_CASES:
        loads.clear()
        code, out, _err = invoke(argv)
        assert code == expected
        assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert len(loads) == ("--sc" in argv), name
    loads.clear()
    assert invoke(["cancellation", "--sc", "data/sl2.json", "--trials", "2"])[0] == 0
    assert loads == ["data/sl2.json"]


def test_json_report_schema():
    code, out, _ = invoke(["verify-theorem", "--trials", "2", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "config", "records", "summary"}
    assert report["command"] == "verify-theorem"
    config = report["config"]
    assert config["n"] == 2 and config["k"] == 3 and config["n_max"] == 2
    assert config["seed"] == "0" and config["sparsity"] == "1/2"
    assert config["family"] == "random"
    assert len(report["records"]) == 2
    for rec in report["records"]:
        assert isinstance(rec["seed"], str)
        assert all(isinstance(a, int) for a in rec["word"])
        assert rec["passed"] is True
        assert rec["residual_terms"] == 0 and rec["first_offending"] is None
    # odd trials force a repeated letter
    word = report["records"][1]["word"]
    assert word[0] == word[1]
    assert report["summary"] == {"checks": 2, "failures": 0, "result": "pass"}


def test_bernoulli_values_render_exactly():
    code, out, _ = invoke(["bernoulli", "--n-max", "4"])
    assert code == 0
    lines = out.splitlines()
    assert "B_0 = 1" in lines
    assert "B_1 = -1/2" in lines
    assert "B_2 = 1/6" in lines
    assert "B_3 = 0" in lines
    assert "B_4 = -1/30" in lines
    assert lines[-1] == "result: pass"


def test_control_family_reports_failure_details():
    code, out, _ = invoke(
        ["verify-theorem", "--family", "symmetric-control", "--k", "2",
         "--trials", "4", "--output", "json"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["result"] == "fail"
    assert report["summary"]["failures"] >= 1
    for rec in report["records"]:
        mixed = len(set(rec["word"])) > 1
        assert rec["passed"] == (not mixed)
        if mixed:
            assert rec["residual_terms"] > 0
            assert rec["first_offending"] is not None


def test_span_dim_record_fields():
    code, out, _ = invoke(["span-dim", "--trials", "2", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    for rec in report["records"]:
        assert rec["rank"] >= rec["symmetric_dim"]
        assert rec["passed"] is True
    assert "family" not in report["config"]


def test_verify_iota_pairs_cover_upper_triangle():
    code, out, _ = invoke(["verify-iota", "--sc", "data/sl2.json", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert [(r["i"], r["j"]) for r in report["records"]] == [(1, 2), (1, 3), (2, 3)]
    assert all(r["passed"] for r in report["records"])
    assert report["config"]["d"] == 4


def test_usage_errors_exit_two():
    bad_argvs = [
        [],
        ["no-such-command"],
        ["verify-theorem", "--sparsity", "abc"],
        ["verify-theorem", "--output", "xml"],
        ["verify-iota"],
    ]
    for argv in bad_argvs:
        code, out, _err = invoke(argv)
        assert code == 2, argv
        assert out == ""


def test_config_errors_exit_two():
    bad_argvs = [
        ["verify-theorem", "--trials", "0"],
        ["verify-theorem", "--seed", "-1"],
        ["verify-theorem", "--sparsity", "3/2"],
        ["verify-theorem", "--k", "3", "--d", "1"],
        ["verify-theorem", "--sc", "data/heisenberg.json", "--family",
         "symmetric-control"],
        ["verify-theorem", "--sc", "data/heisenberg.json", "--n", "5"],
        ["verify-theorem", "--family", "symmetric-control", "--n", "3"],
        ["verify-theorem", "--family", "symmetric-control", "--n-max", "2"],
        ["verify-theorem", "--n", "0"],
        ["cancellation", "--k", "0"],
        ["span-dim", "--k", "3", "--d", "1"],
        ["bernoulli", "--n-max", "-1"],
        ["verify-iota", "--sc", "data/sl2.json", "--d", "-1"],
        ["verify-iota", "--sc", "no/such/file.json"],
    ]
    for argv in bad_argvs:
        code, out, err = invoke(argv)
        assert code == 2, argv
        assert out == ""
        assert err.strip(), argv


def test_help_exits_zero():
    code, out, _ = invoke(["--help"])
    assert code == 0
    assert "verify-theorem" in out


def sc_file(tmp_path, payload) -> str:
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_completes_missing_mirrors(tmp_path):
    path = sc_file(
        tmp_path,
        {"n": 3, "entries": [
            {"k": 3, "i": 1, "j": 2, "num": 2},
            {"k": 2, "i": 3, "j": 1, "num": 1, "den": 2},
        ]},
    )
    sc = load_structure_constants(path)
    assert sc.get(3, 1, 2) == 2
    assert sc.get(3, 2, 1) == -2
    assert sc.get(2, 1, 3) == Fraction(-1, 2)
    assert sc.is_valid()


def test_load_accepts_explicit_consistent_mirrors():
    # the bundled sl2 file lists one orientation per bracket
    sc = load_structure_constants(str(ROOT / "data" / "sl2.json"))
    assert sc == sl2_table()
    sc = load_structure_constants(str(ROOT / "data" / "heisenberg.json"))
    assert sc == heisenberg_table()


def test_load_rejects_bad_files(tmp_path):
    cases = [
        {"n": 2, "entries": [
            {"k": 1, "i": 1, "j": 2, "num": 1},
            {"k": 1, "i": 1, "j": 2, "num": 1},
        ]},  # duplicate
        {"n": 2, "entries": [
            {"k": 1, "i": 1, "j": 2, "num": 1},
            {"k": 1, "i": 2, "j": 1, "num": 1},
        ]},  # inconsistent mirror
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "num": 1}]},  # diagonal
        {"n": 2, "entries": [{"k": 3, "i": 1, "j": 2, "num": 1}]},  # range
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 2}]},  # missing num
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 2, "num": 1, "den": 0}]},
        {"n": 0, "entries": []},
        {"entries": []},
        [1, 2, 3],
        # bracket failing the Jacobi identity after completion
        {"n": 3, "entries": [
            {"k": 3, "i": 1, "j": 2, "num": 1},
            {"k": 1, "i": 1, "j": 3, "num": 1},
        ]},
        # JSON values that are not plain integers are never coerced
        {"n": True, "entries": []},
        {"n": 3, "entries": [{"k": 3.9, "i": 1, "j": 2, "num": 1}]},
        {"n": 3, "entries": [{"k": 3, "i": True, "j": "2", "num": 1}]},
        {"n": 3, "entries": [{"k": 3, "i": 1, "j": 2, "num": 1, "den": "1"}]},
    ]
    for payload in cases:
        with pytest.raises(CLIInputError):
            load_structure_constants(sc_file(tmp_path, payload))


def test_load_rejects_unreadable_and_unparsable(tmp_path):
    with pytest.raises(CLIInputError):
        load_structure_constants(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(CLIInputError):
        load_structure_constants(str(bad))


def test_jacobi_rejection_exits_two(tmp_path):
    path = sc_file(
        tmp_path,
        {"n": 3, "entries": [
            {"k": 3, "i": 1, "j": 2, "num": 1},
            {"k": 1, "i": 1, "j": 3, "num": 1},
        ]},
    )
    code, out, err = invoke(["verify-iota", "--sc", path])
    assert code == 2
    assert out == ""
    assert "jacobi" in err.lower()


def test_non_integer_dimension_exits_two(tmp_path):
    path = sc_file(tmp_path, {"n": True, "entries": []})
    code, out, err = invoke(["verify-iota", "--sc", path])
    assert code == 2
    assert out == ""
    assert "'n' must be a positive integer" in err
