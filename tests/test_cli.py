"""Exit statuses, report bytes, and input handling of the verification CLI."""

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import comb, prod
from pathlib import Path

import pytest

from fractions import Fraction

import symorder.cli as cli
from symorder.cli import (
    BERNOULLI_N_MAX_LIMIT,
    IOTA_COST_LIMIT,
    IOTA_PAIRS_LIMIT,
    SPAN_COST_LIMIT,
    TRIALS_LIMIT,
    WORD_COST_LIMIT,
    WORD_LENGTH_LIMIT,
    CLIInputError,
    iota_cost,
    load_structure_constants,
    main,
    span_cost,
    word_cost,
)
from symorder.generators import build_generators, monomials_of_degree, random_family
from symorder.lie import (
    StructureConstants,
    _embedding_images,
    direct_sum,
    heisenberg_table,
    random_almost_abelian_table,
    random_two_step_table,
    sl2_table,
)
from symorder.rng import SplitMix64
from test_weyl import degrees

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
    (
        "cancellation-control.txt",
        ["cancellation", "--family", "symmetric-control", "--k", "3", "--trials", "4"],
        1,
    ),
    ("cancellation-heisenberg.txt", ["cancellation", "--sc", "data/heisenberg.json",
                                     "--trials", "2"], 0),
    # d = 12 runs the capped commutator: a wrongly dropped term leaves a residual
    ("verify-iota-sl2-d12.txt", ["verify-iota", "--sc", "data/sl2.json", "--d", "12"], 0),
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


def test_span_dim_long_word_passes():
    # one product level per letter: a recursion per letter would overflow
    # the interpreter's stack long before the cost gate objects
    argv = ["span-dim", "--n", "1", "--k", "1200", "--n-max", "1", "--trials", "1"]
    assert span_cost(1, 1200, 1, 2400) <= SPAN_COST_LIMIT
    code, out, _err = invoke(argv)
    assert code == 0
    assert out.endswith("result: pass\n")


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
        ["verify-theorem", "--k", "3", "--d", "1"],
        ["verify-theorem", "--d", "3"],
        ["verify-iota"],
    ]
    for argv in bad_argvs:
        code, out, _err = invoke(argv)
        assert code == 2, argv
        assert out == ""


def test_config_errors_exit_two(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a command started work on a refused configuration")

    for name in ("random_family", "build_generators", "derived_family",
                 "symmetric_control_family", "theorem_check", "cancellation_check",
                 "span_dimension", "homomorphism_defect", "bernoulli"):
        monkeypatch.setattr(cli, name, forbidden)
    bad_argvs = [
        ["verify-theorem", "--sc", "data/heisenberg.json", "--family",
         "symmetric-control"],
        ["verify-theorem", "--sc", "data/heisenberg.json", "--n", "5"],
        ["verify-theorem", "--family", "symmetric-control", "--n", "3"],
        ["verify-theorem", "--family", "symmetric-control", "--n-max", "2"],
        ["verify-iota", "--sc", "no/such/file.json"],
    ]
    for argv in bad_argvs:
        code, out, err = invoke(argv)
        assert code == 2, argv
        assert out == ""
        assert err.strip(), argv
    # each refusal of one flag names that flag; --sparsity is refused by its parser
    single = [(["bernoulli", "--n-max", value], "--n-max")
              for value in ("-1", str(BERNOULLI_N_MAX_LIMIT + 1))]
    single.append((["verify-iota", "--sc", "data/sl2.json", "--d", "-1"], "--d"))
    single.append((["span-dim", "--k", "3", "--d", "1"], "--d"))
    for command in ("verify-theorem", "cancellation", "span-dim"):
        single += [([command, "--seed", value], "--seed") for value in ("-1", str(2**64))]
        single.append(([command, "--trials", "0"], "--trials"))
        single += [([command, flag, "0"], flag) for flag in ("--n", "--k", "--n-max")]
        single += [([command, f"--sparsity={value}"], "--sparsity") for value in ("3/2", "-1/2")]
    for argv, flag in single:
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        named = "argument --sparsity: not a rational in [0, 1]" if flag == "--sparsity" else (
            f"error: {flag} must be ")
        assert named in err, (argv, err)


def test_sparsity_past_its_bounds_exits_two_before_any_work(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a trial command started work with an oversized --sparsity")

    for name in ("random_family", "build_generators", "theorem_check",
                 "cancellation_check", "span_dimension"):
        monkeypatch.setattr(cli, name, forbidden)
    oversized = [
        ["verify-theorem", "--trials", "1", "--sparsity", "1e-4300"],
        ["span-dim", "--trials", "1", "--sparsity", "1e-4300"],
        ["cancellation", "--trials", "1", "--output", "json", "--sparsity", "1e-4300"],
        ["verify-theorem", "--sparsity", "1e4400"],
        ["verify-theorem", "--sparsity", "1e-10000000"],
        ["verify-theorem", "--sparsity", f"1/{2**64 + 1}"],
        ["verify-theorem", "--sparsity", "1e-20"],
        ["verify-theorem", "--sparsity", "0." + "0" * 99 + "1"],
    ]
    for argv in oversized:
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert (code, out) == (2, "") and "--sparsity" in err, argv
        assert time.perf_counter() - start < 1, argv
    for text, value in ((f"1/{2**64}", Fraction(1, 2**64)), ("1e-19", Fraction(1, 10**19)),
                        (" 1/3 ", Fraction(1, 3)), ("25e-2", Fraction(1, 4))):
        args = cli.build_parser().parse_args(["verify-theorem", "--sparsity", text])
        assert args.sparsity == value, text


def _span_config(argv):
    return cli._resolve_config(cli.build_parser().parse_args(["span-dim", *argv]))


def test_span_cost_counts_products_and_generator_terms():
    rng = SplitMix64(0xC0)
    for _ in range(60):
        n, k, n_max = 1 + rng.below(3), 1 + rng.below(4), 1 + rng.below(3)
        d = k - 1 + rng.below(k + 2)
        top = min(n_max, d)
        products = sum(n**depth for depth in range(1, k + 1))
        terms = 1 + n * sum(len(monomials_of_degree(n, deg)) for deg in range(1, top + 1))
        assert span_cost(n, k, n_max, d) == products * terms, (n, k, n_max, d)
        # a dense family reaches no more terms per generator than the bound
        gens = build_generators(random_family(n, n_max, Fraction(1), rng.next_u64()), d)
        assert max(g.term_count() for g in gens.generators) <= terms


def test_span_cost_admits_goldens_and_the_heavy_tier():
    for argv in (["--trials", "2"], [], ["--n", "3", "--k", "4"],
                 ["--n", "3", "--k", "4", "--trials", "3"], ["--k", "3", "--d", "2"]):
        config = _span_config(argv)
        assert span_cost(config.n, config.k, config.n_max, config.d) <= SPAN_COST_LIMIT
    assert span_cost(3, 4, 2, 8) == 120 * 28


def test_span_dim_cost_gate_exits_two_before_any_work(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("span-dim started work past the cost gate")

    for name in ("random_family", "build_generators", "span_dimension"):
        monkeypatch.setattr(cli, name, forbidden)
    oversized = [
        ["--n", "3", "--k", "9"],
        ["--n", "2", "--k", "8"],
        ["--n", "3", "--k", "4", "--n-max", "3"],
        ["--n", "2", "--k", str(10**12)],
        ["--n", "1", "--k", str(10**12)],
        ["--n", str(10**30), "--k", "1"],
        ["--n", "2", "--k", "2", "--n-max", str(10**9), "--d", str(10**9)],
    ]
    rng = SplitMix64(0x6A7E)
    while len(oversized) < 40:
        n, k, n_max = 1 + rng.below(12), 1 + rng.below(30), 1 + rng.below(8)
        d = k - 1 + rng.below(3 * k)
        if span_cost(n, k, n_max, d) > SPAN_COST_LIMIT:
            oversized.append([f"--n={n}", f"--k={k}", f"--n-max={n_max}", f"--d={d}"])
    for argv in oversized:
        code, out, err = invoke(["span-dim", *argv])
        assert code == 2, argv
        assert out == ""
        assert "cost estimate" in err, argv


def _most_states(n: int, k: int) -> int:
    """The most sub-multisets of any k-letter word over n letters, by brute force."""
    return max(
        prod(c + 1 for c in counts)
        for counts in product(range(k + 1), repeat=n)
        if sum(counts) == k
    )


def test_word_cost_counts_states_and_generator_terms():
    rng = SplitMix64(0x3C0)
    for _ in range(60):
        n, k, n_max = 1 + rng.below(4), 1 + rng.below(6), 1 + rng.below(4)
        terms = 1 + n * sum(len(monomials_of_degree(n, deg)) for deg in range(1, n_max + 1))
        assert word_cost(n, k, n_max) == _most_states(n, k) * n * terms, (n, k, n_max)
        # a dense family reaches no more terms per generator than the bound
        gens = build_generators(random_family(n, n_max, Fraction(1), rng.next_u64()), n_max)
        assert max(g.term_count() for g in gens.generators) <= terms


def test_word_cost_admits_goldens_and_the_acceptance_grid():
    # criterion 1 runs every cell of this grid, criterion 3 a part of it
    for n, k, n_max in product(range(1, 5), range(1, 6), range(1, 5)):
        assert word_cost(n, k, n_max) <= WORD_COST_LIMIT, (n, k, n_max)
    assert word_cost(4, 5, 4) == 24 * 4 * 277
    for _name, argv, _expected in GOLDEN_CASES:
        if argv[0] in ("verify-theorem", "cancellation"):
            config = cli._resolve_config(cli.build_parser().parse_args(argv))
            assert word_cost(config.n, config.k, config.n_max) <= WORD_COST_LIMIT


def test_word_cost_gate_exits_two_before_any_work(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a word command started work past the cost gate")

    for name in ("random_family", "build_generators", "derived_family",
                 "symmetric_control_family", "theorem_check", "cancellation_check",
                 "bernoulli"):
        monkeypatch.setattr(cli, name, forbidden)
    oversized = [
        ["--n", "5", "--k", "5", "--n-max", "4"],
        ["--n", "40", "--k", "1", "--n-max", "1"],
        ["--n", "2", "--k", str(10**12)],
        ["--n", "1", "--k", str(10**12)],
        ["--n", str(10**30), "--k", "1"],
        ["--n", str(10**30), "--k", str(10**12), "--n-max", str(10**9)],
        ["--n", "2", "--k", "2", "--n-max", str(10**9)],
        ["--sc", "data/sl2.json", "--n-max", str(10**9)],
        ["--family", "symmetric-control", "--k", str(10**12)],
    ]
    rng = SplitMix64(0x90A7)
    while len(oversized) < 40:
        n, k, n_max = 1 + rng.below(40), 1 + rng.below(60), 1 + rng.below(12)
        if word_cost(n, k, n_max) > WORD_COST_LIMIT:
            oversized.append([f"--n={n}", f"--k={k}", f"--n-max={n_max}"])
    for command in ("verify-theorem", "cancellation"):
        for argv in oversized:
            code, out, err = invoke([command, *argv])
            assert code == 2, (command, argv)
            assert out == ""
            assert "cost estimate" in err, (command, argv)
    # cheap, but a word past the length cap of both word commands
    assert word_cost(1, WORD_LENGTH_LIMIT + 1, 1) <= WORD_COST_LIMIT
    for command in ("verify-theorem", "cancellation"):
        code, out, err = invoke([command, "--n", "1", "--k", str(WORD_LENGTH_LIMIT + 1),
                                 "--n-max", "1"])
        assert (code, out) == (2, "") and "--k must be" in err, command
    for n_max in (BERNOULLI_N_MAX_LIMIT + 1, 3000, 10**12):
        code, out, err = invoke(["bernoulli", "--n-max", str(n_max)])
        assert (code, out) == (2, "") and "--n-max" in err, n_max


def test_word_gate_admits_its_edges():
    config = cli._resolve_config(cli.build_parser().parse_args(
        ["verify-theorem", "--n", "1", "--k", str(WORD_LENGTH_LIMIT)]))
    assert config.k == WORD_LENGTH_LIMIT
    for command in ("verify-theorem", "cancellation"):
        code, out, _err = invoke([command, "--n", "1", "--k", str(WORD_LENGTH_LIMIT),
                                  "--trials", "1"])
        assert code == 0 and out.endswith("result: pass\n"), command
    # span-dim draws no word, so its k is held only by its cost gate
    assert _span_config(["--n", "1", "--k", str(WORD_LENGTH_LIMIT + 1)]).k == WORD_LENGTH_LIMIT + 1
    config = cli._resolve_config(cli.build_parser().parse_args(
        ["bernoulli", "--n-max", str(BERNOULLI_N_MAX_LIMIT)]))
    assert config.n_max == BERNOULLI_N_MAX_LIMIT


def _dense_almost_abelian(n: int) -> StructureConstants:
    """[X_n, X_i] = sum_{k < n} X_k for i < n: every action entry present."""
    entries = {}
    for i in range(1, n):
        for k in range(1, n):
            entries[(k, n, i)], entries[(k, i, n)] = 1, -1
    return StructureConstants(n, entries)


def _dense_two_step(n: int, n_central: int) -> StructureConstants:
    """Every bracket of the first n - n_central generators hits every central one."""
    r = n - n_central
    entries = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for k in range(r + 1, n + 1):
                entries[(k, i, j)], entries[(k, j, i)] = 1, -1
    return StructureConstants(n, entries)


def _longest_path(sc: StructureConstants) -> int | None:
    """Edges of the longest path k -> i over nonzero C^k_ij, None on a cycle,
    by depth-first search from every vertex."""
    edges: dict = {}
    for (k, i, _j), _v in sc.items():
        edges.setdefault(k, set()).add(i)

    def longest(v, seen):
        best = 0
        for w in edges.get(v, ()):
            if w in seen:
                return None
            sub = longest(w, seen | {w})
            if sub is None:
                return None
            best = max(best, 1 + sub)
        return best

    lengths = [longest(v, {v}) for v in edges]
    return None if None in lengths else max(lengths, default=0)


def test_iota_cost_bounds_the_commutator_term_pairs():
    rng = SplitMix64(0x107A)
    tables = [StructureConstants(2), heisenberg_table(), sl2_table(), _dense_almost_abelian(3),
              _dense_two_step(4, 1), direct_sum(sl2_table(), heisenberg_table())]
    for _ in range(6):
        tables.append(random_almost_abelian_table(2 + rng.below(3), rng.next_u64()))
        tables.append(random_two_step_table(3 + rng.below(3), 1 + rng.below(2), rng.next_u64()))
    for sc in tables:
        n = sc.n
        derivatives = len({j for (_k, _i, j), _v in sc.items()})
        path = _longest_path(sc)
        for d in range(6):
            top = d + 1 if path is None else min(d + 1, path + 1)
            terms = 1 + n * sum(comb(derivatives + deg - 1, deg) for deg in range(1, top + 1))
            assert iota_cost(sc, d) == n * (n - 1) * terms**2, (sc, d)
            # the images reach no more terms, and no higher d-degree, than the bound
            images = _embedding_images(sc, d + 1)
            assert max(g.term_count() for g in images) <= terms, (sc, d)
            assert max(degrees(g)[1] for g in images) <= top, (sc, d)
        if path is not None:
            # past the depth of the series the cutoff adds no work
            assert iota_cost(sc, path) == iota_cost(sc, 10**12), sc
    assert iota_cost(sl2_table(), 60) == 93735000600


def test_iota_cost_admits_goldens_and_the_bench_argvs():
    tables = {path: load_structure_constants(path) for path in
              ("data/abelian2.json", "data/heisenberg.json", "data/sl2.json")}
    tables["sl2+almost-abelian-2"] = direct_sum(sl2_table(), _dense_almost_abelian(2))
    for n in (3, 4):
        tables[f"almost-abelian-{n}"] = _dense_almost_abelian(n)
    tables["two-step-4-1"] = _dense_two_step(4, 1)
    tables["two-step-5-2"] = _dense_two_step(5, 2)
    # the benchmark cycles --d 4, 6, 8 over its tables, then adds sl2 --d 10
    for (name, sc), d in zip(tables.items(), [4, 6, 8] * 3):
        assert iota_cost(sc, d) <= IOTA_COST_LIMIT, (name, d)
    assert iota_cost(sl2_table(), 10) <= IOTA_COST_LIMIT
    code, out, _err = invoke(["verify-iota", "--sc", "data/sl2.json", "--d", "3"])
    assert code == 0 and out == (GOLDEN_DIR / "verify-iota-sl2.txt").read_text(encoding="utf-8")


def test_verify_iota_cost_gate_exits_two_before_any_work(monkeypatch, tmp_path):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("verify-iota started work past the cost gate")

    for name in ("homomorphism_defect", "derived_family", "build_generators"):
        monkeypatch.setattr(cli, name, forbidden)
    oversized = [("data/sl2.json", 60), ("data/sl2.json", 27), ("data/sl2.json", 10**30)]
    rng = SplitMix64(0x10CA7E)
    while len(oversized) < 40:
        pick = rng.below(3)
        if pick == 0:
            sc = sl2_table()
        elif pick == 1:
            sc = random_almost_abelian_table(2 + rng.below(4), rng.next_u64())
        else:
            sc = direct_sum(sl2_table(), random_two_step_table(3 + rng.below(3), 1, rng.next_u64()))
        d = rng.below(10**rng.below(7))
        if iota_cost(sc, d) > IOTA_COST_LIMIT:
            path = tmp_path / f"table{len(oversized)}.json"
            entries = [{"k": k, "i": i, "j": j, "num": v.numerator, "den": v.denominator}
                       for (k, i, j), v in sorted(sc.items())]
            path.write_text(json.dumps({"n": sc.n, "entries": entries}), encoding="utf-8")
            oversized.append((str(path), d))
    for path, d in oversized:
        code, out, err = invoke(["verify-iota", "--sc", path, "--d", str(d)])
        assert (code, out) == (2, ""), (path, d)
        assert "cost estimate" in err, (path, d)


def test_verify_iota_pair_gate(monkeypatch, tmp_path):
    # an empty table still costs a commutator and a record per basis pair
    for n in (100, 1000):
        (tmp_path / f"empty{n}.json").write_text(json.dumps({"n": n, "entries": []}),
                                                 encoding="utf-8")
    code, out, _err = invoke(["verify-iota", "--sc", str(tmp_path / "empty100.json"), "--d", "4"])
    passing = re.findall(r"^pair \(\d+,\d+\): pass$", out, re.MULTILINE)
    assert code == 0 and len(passing) == 4950 and "checks: 4950\n" in out

    def forbidden(*_args, **_kwargs):
        raise AssertionError("verify-iota started work past the pair gate")

    for name in ("homomorphism_defect", "derived_family", "build_generators"):
        monkeypatch.setattr(cli, name, forbidden)
    assert 141 * 140 // 2 <= IOTA_PAIRS_LIMIT < 142 * 141 // 2
    parsed = cli.build_parser().parse_args(
        ["verify-iota", "--sc", str(ROOT / "data" / "sl2.json"), "--d", "26"])
    assert cli._resolve_config(parsed).d == 26  # still admitted, and no work done
    code, out, err = invoke(["verify-iota", "--sc", str(tmp_path / "empty1000.json"), "--d", "4"])
    assert (code, out) == (2, "") and "cost estimate 499500 (basis pairs)" in err


def test_trials_limit_exits_two_before_any_work(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a trial command started work past --trials")

    for name in ("random_family", "build_generators", "derived_family",
                 "theorem_check", "cancellation_check", "span_dimension"):
        monkeypatch.setattr(cli, name, forbidden)
    for command in ("verify-theorem", "cancellation", "span-dim"):
        for trials in (TRIALS_LIMIT + 1, 10**12):
            code, out, err = invoke([command, "--trials", str(trials)])
            assert (code, out) == (2, "") and "--trials" in err, (command, trials)
        parsed = cli.build_parser().parse_args([command, "--trials", str(TRIALS_LIMIT)])
        assert cli._resolve_config(parsed).trials == TRIALS_LIMIT


def test_readme_examples_pass_every_gate():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [line.split("#")[0].split()[1:] for line in readme.splitlines()
                if line.startswith("symorder ")]
    assert len(examples) >= 5
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in examples:
            cli._resolve_config(cli.build_parser().parse_args(argv))
    finally:
        os.chdir(cwd)


def test_span_dim_draws_each_seed_at_its_trial(monkeypatch):
    draws = []

    class Counted(SplitMix64):
        def next_u64(self):
            draws.append(None)
            return super().next_u64()

    seen = []
    real_family = random_family

    def family(n, n_max, sparsity, seed):
        seen.append((len(draws), seed))
        return real_family(n, n_max, sparsity, seed)

    monkeypatch.setattr(cli, "SplitMix64", Counted)
    monkeypatch.setattr(cli, "random_family", family)
    monkeypatch.setattr(cli, "span_dimension", lambda gens, k: (3, 3))
    code, out, _err = invoke(["span-dim", "--trials", "4", "--seed", "7"])
    assert code == 0
    master = SplitMix64(7)
    assert seen == [(t + 1, master.next_u64()) for t in range(4)]
    for t, (_drawn, seed) in enumerate(seen):
        assert f"trial {t}: seed={seed} rank=3" in out


def test_span_dim_draws_only_the_orders_it_builds(monkeypatch):
    # generators are cut at d = 2k = 2, so a family drawn to --n-max 40 gives
    # the records of one drawn to 2, and no more draws than the orders <= 2
    # take: one bernoulli and at most three rational draws per slot
    real_draws, drawn = SplitMix64.draws, []

    def draws(self, count):
        values = real_draws(self, count)
        drawn.append(len(values))
        return values

    monkeypatch.setattr(SplitMix64, "draws", draws)
    n, trials = 4, 2
    slots = n * comb(n, 2) * sum(len(monomials_of_degree(n, order - 1)) for order in (1, 2))
    records = []
    for n_max in (2, 40):
        drawn.clear()
        code, out, _err = invoke(["span-dim", "--n", str(n), "--k", "1", "--n-max", str(n_max),
                                  "--trials", str(trials), "--output", "json"])
        assert code == 0
        assert 0 < sum(drawn) <= trials * 4 * slots, n_max
        records.append(json.loads(out)["records"])
    assert records[0] == records[1]


@pytest.mark.parametrize("n, k, d", [(2, 1, 0), (3, 1, 0), (2, 2, 1), (3, 1, 2), (2, 1, 5)])
def test_span_dim_records_match_families_drawn_to_n_max(n, k, d):
    # span-dim draws each family to order min(n_max, d), and to order 1 at
    # d = 0, where the generators keep x_i alone; its records are those of the
    # family drawn to every order up to n_max
    code, out, err = invoke(["span-dim", "--n", str(n), "--k", str(k), "--n-max", "3",
                             "--d", str(d), "--output", "json"])
    assert code == 0, err
    records = json.loads(out)["records"]
    assert len(records) == 3
    for record in records:
        fam = random_family(n, 3, Fraction(1, 2), int(record["seed"]))
        rank, symmetric_dim = cli.span_dimension(build_generators(fam, d), k)
        assert (record["rank"], record["symmetric_dim"]) == (rank, symmetric_dim)


@pytest.mark.parametrize("command", ["verify-theorem", "cancellation"])
def test_word_commands_draw_seed_then_word_then_row_and_order(command):
    # trial t draws its family seed, then k letters (the second set to the
    # first on odd trials), then for cancellation l and order
    shapes = ((2, 3, 1), (3, 4, 2), (4, 2, 3), (2, 1, 3), (1, 3, 2))
    for seed, (n, k, n_max) in product((0, 7, 2**64 - 1), shapes):
        code, out, _err = invoke([command, "--n", str(n), "--k", str(k), "--n-max", str(n_max),
                                  "--trials", "6", "--seed", str(seed), "--output", "json"])
        assert code == 0
        master = SplitMix64(seed)
        expected = []
        for t in range(6):
            rec = {"seed": str(master.next_u64()), "word": [1 + master.below(n) for _ in range(k)]}
            if t % 2 == 1 and k >= 2:
                rec["word"][1] = rec["word"][0]
            if command == "cancellation":
                rec["l"] = 1 + master.below(n)
                rec["order"] = 1 + master.below(n_max)
            expected.append(rec)
        records = json.loads(out)["records"]
        assert [{key: rec[key] for key in expected[0]} for rec in records] == expected, (seed, n, k)


def test_trial_records_render_by_one_rule(monkeypatch):
    # a record without residual fields fails with a bare verdict
    monkeypatch.setattr(cli, "span_dimension", lambda gens, k: (2, 3))
    code, out, _err = invoke(["span-dim", "--trials", "1"])
    assert code == 1
    assert f"trial 0: seed={SplitMix64(0).next_u64()} rank=2 symmetric_dim=3 fail\n" in out


def schema_config_fields() -> dict[str, list[str]]:
    """Each command's `config` fields, in order, from docs/report-schema.md."""
    text = (ROOT / "docs" / "report-schema.md").read_text(encoding="utf-8")
    table = text.split("### `config` fields by command")[1].split("\n\n")[1]
    rows = [row.split("|")[1:3] for row in table.splitlines()[2:]]
    return {name.strip(): re.findall(r"`([a-z_]+)`", cell) for name, cell in rows}


def test_schema_lists_each_echo_in_order():
    fields = schema_config_fields()
    assert set(fields) == set(cli._DEFAULTS)
    runs = [(["verify-iota", "--sc", "data/sl2.json"], fields["verify-iota"]),
            (["bernoulli"], fields["bernoulli"]),
            (["span-dim", "--trials", "1"], fields["span-dim"])]
    for command in ("verify-theorem", "cancellation"):
        runs.append(([command, "--trials", "1"], [f for f in fields[command] if f != "sc"]))
        runs.append(([command, "--trials", "1", "--sc", "data/heisenberg.json"], fields[command]))
    for argv, listed in runs:
        code, out, _err = invoke(argv + ["--output", "json"])
        assert code == 0
        assert list(json.loads(out)["config"]) == listed, argv


def test_help_exits_zero():
    code, out, _ = invoke(["--help"])
    assert code == 0
    for command in ("verify-theorem", "verify-iota", "cancellation", "span-dim", "bernoulli"):
        assert command in out
        code, help_text, _ = invoke([command, "--help"])
        assert code == 0
        # each default of cli._DEFAULTS is listed, a derived --d by its rule,
        # and each flag the epilog lists is one the subcommand parses
        shown = " ".join(help_text.split())
        for name, value in cli._DEFAULTS[command].items():
            rule = value.__doc__ if callable(value) else value
            assert f"--{name.replace('_', '-')} {rule}" in shown, (command, name)
        options, _, epilog = shown.partition("defaults: ")
        parsed = set(re.findall(r"--[a-z-]+", options))
        for flag in re.findall(r"--[a-z-]+", epilog):
            assert flag in parsed, (command, flag)
    assert "--d" not in invoke(["verify-theorem", "--help"])[1]
    assert "--d 2k" in " ".join(invoke(["span-dim", "--help"])[1].split())


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_trial_command_defaults():
    # A child parser's set_defaults would rewrite the shared parent flag for
    # every subcommand; each command must keep its own defaults.
    expected = {
        "verify-theorem": (2, 3, 2, 10, 2),
        "cancellation": (3, 4, 2, 10, cli.RunConfig.d),  # no cutoff resolved
        "span-dim": (2, 2, 2, 3, 4),
    }
    for command, pinned in expected.items():
        config = cli._resolve_config(cli.build_parser().parse_args([command]))
        assert (config.n, config.k, config.n_max, config.trials, config.d) == pinned, command
        assert (config.seed, config.sparsity, config.output) == (0, Fraction(1, 2), "text")
    bernoulli = cli._resolve_config(cli.build_parser().parse_args(["bernoulli"]))
    assert bernoulli.n_max == 8
    assert cli._resolve_config(cli.build_parser().parse_args(
        ["verify-iota", "--sc", str(ROOT / "data" / "sl2.json")])).d == 4


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
    assert sc.validate() == []


def test_load_validates_a_large_empty_table(tmp_path):
    # validate works from the stored entries; the dense n^5 / 6 sweep it
    # replaced would take over an hour at n = 64
    sc = load_structure_constants(sc_file(tmp_path, {"n": 64, "entries": []}))
    assert sc == StructureConstants(64) and sc.validate() == []


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
        # entries must be a list, and no field outside the format is ignored
        {"n": 2, "entries": 5},
        {"n": 2, "entries": None},
        {"n": 2, "entries": {}},
        {"n": 2},
        {"n": 2, "entires": []},
        {"n": 2, "entries": [], "comment": "x"},
        {"n": 3, "entries": [{"k": 3, "i": 1, "j": 2, "num": 1, "dem": 2}]},
        {"n": 3, "entries": [{"k": 3, "i": 1, "j": 2, "num": 1, "den": 1, "note": 0}]},
    ]
    for payload in cases:
        with pytest.raises(CLIInputError):
            load_structure_constants(sc_file(tmp_path, payload))


def test_malformed_entries_exit_two(tmp_path):
    for payload, message in [
        ({"n": 2, "entries": 5}, "'entries' list"),
        ({"n": 2, "entires": []}, "'entries' list"),
        ({"n": 3, "entries": [{"k": 3, "i": 1, "j": 2, "num": 1, "dem": 2}]}, "entry 0"),
    ]:
        code, out, err = invoke(["verify-iota", "--sc", sc_file(tmp_path, payload)])
        assert (code, out) == (2, ""), payload
        assert message in err, payload


# Raw table files that fail before their fields are read: non-UTF-8 bytes, an
# integer past the interpreter's 4300-digit conversion limit, nesting deeper
# than the recursion limit, and a key repeated at the top level or within an
# entry (json keeps the last value of a repeated key unless told otherwise).
UNPARSABLE_TABLES = [
    b"{not json",
    b'{"n": 2, "entries": [], "note": "\xff"}',
    b'{"n": 1' + b"0" * 5000 + b', "entries": []}',
    b"[" * 100000,
    b'{"n": 2, "entries": [], "n": 3}',
    b'{"n": 2, "entries": [{"k": 1, "i": 1, "j": 2, "num": 1, "num": 2}]}',
]


def test_load_rejects_unreadable_and_unparsable(tmp_path):
    with pytest.raises(CLIInputError):
        load_structure_constants(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    for raw in UNPARSABLE_TABLES:
        bad.write_bytes(raw)
        with pytest.raises(CLIInputError):
            load_structure_constants(str(bad))


def test_unparsable_tables_exit_two_before_any_work(monkeypatch, tmp_path):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a command started work on an unparsable table")

    for name in ("homomorphism_defect", "derived_family", "build_generators",
                 "theorem_check", "cancellation_check"):
        monkeypatch.setattr(cli, name, forbidden)
    bad = tmp_path / "bad.json"
    for raw in UNPARSABLE_TABLES:
        bad.write_bytes(raw)
        for command in ("verify-iota", "verify-theorem", "cancellation"):
            code, out, err = invoke([command, "--sc", str(bad)])
            assert (code, out) == (2, ""), (command, raw[:40])
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


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
