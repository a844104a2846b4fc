"""The benchmark's workloads: seeded inputs, one callable per case, checks.

A *case* is one unit of user-visible work: one `theorem_check` trial, one
`e_map` -> `pi_project` round trip, one `span_dimension` call, or one
in-process CLI invocation.  `make_cases(workload, seed, size)` draws every
input from the workload seed with the package's own SplitMix64 stream, so
the same seed always gives the same case list; the structure of the list
(which cells, how many cases per cell) is fixed per workload and size, so
every seed asks for about the same amount of work.

Each case is called through the package's module attributes
(`symorder.ordering.theorem_check`, ...), which is where the traced run
rebinds its span-recording wrappers.  `Case.run()` returns the verdict and
the raw output; `Case.canonical()` turns that output into the bytes whose
digest is compared against the recorded one, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import symorder.cli as cli
import symorder.generators as generators
import symorder.lie as lie
import symorder.ordering as ordering
from symorder.rng import SplitMix64
from symorder.weyl import WeylElement

# Dense families (every antisymmetric slot filled) make the cost of one case
# depend on its shape, not on how many slots the seed happened to fill; with
# the CLI default density 1/2 a two-variable family has only a handful of
# slots and single-case cost varies by up to 5x from seed to seed.
DENSE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass
class Case:
    """One unit of work.  `run` returns (verdict, output)."""

    label: str
    run: Callable[[], tuple[bool, Any]]
    canonical: Callable[[Any], bytes]


def _terms_bytes(*elements: WeylElement) -> bytes:
    return "\n".join(repr(e.sorted_terms()) for e in elements).encode()


# -- identity-grid ---------------------------------------------------------------


def _identity_grid(rng: SplitMix64, size: str) -> list[Case]:
    """The verify-theorem trial loop over n, k, n_max in {2,3,4} x {4,5,6} x {2,3,4}.

    Each case draws a family seed and a word like `symorder verify-theorem`
    does, builds generators at D = max(k - 1, n_max) and checks the identity.
    Odd cases force a repeated letter, as the CLI's odd trials do.
    """
    per_cell = 4 if size == "full" else 1
    cases = []
    index = 0
    for _rep in range(per_cell):
        for n in (2, 3, 4):
            for k in (4, 5, 6):
                for n_max in (2, 3, 4):
                    fam_seed = rng.next_u64()
                    word = tuple(1 + rng.below(n) for _ in range(k))
                    if index % 2 == 1:
                        word = (word[0], word[0]) + word[2:]
                    cases.append(_identity_case(n, k, n_max, fam_seed, word))
                    index += 1
    return cases


def _identity_case(n: int, k: int, n_max: int, fam_seed: int, word: tuple[int, ...]) -> Case:
    d = max(k - 1, n_max)

    def run() -> tuple[bool, Any]:
        fam = generators.random_family(n, n_max, HALF, fam_seed)
        gens = generators.build_generators(fam, d)
        result = ordering.theorem_check(gens, word)
        return result.passed and result.residual.is_zero(), (gens, result)

    def canonical(out: Any) -> bytes:
        gens, result = out
        return repr(word).encode() + _terms_bytes(result.residual, *gens.generators)

    return Case(f"n={n} k={k} n_max={n_max}", run, canonical)


# -- section ---------------------------------------------------------------------

# (n, n_max, degree of the top monomial, top-monomial shapes used)  Shapes are
# indices into the lex-sorted monomials of that degree; None means all of them.
# Single cases run from about 0.3 ms to 0.15 s on a 2-core x86 VM and a pass
# takes about 0.7 s there: short passes give each case more samples, which is
# what the fastest-of-passes latency needs on a noisy machine.
_SECTION_CELLS = [
    (2, 2, 1, None), (2, 2, 2, None), (2, 2, 3, None), (2, 2, 4, None), (2, 2, 5, (1,)),
    (2, 3, 1, None), (2, 3, 2, None), (2, 3, 3, None),
    (3, 2, 1, None), (3, 2, 2, None), (3, 2, 3, (8,)),
    (3, 3, 1, None), (3, 3, 2, (1,)),
]
_SECTION_TINY = [(2, 2, 2, (0,)), (2, 3, 3, (1,)), (3, 2, 2, (1,))]


def _section(rng: SplitMix64, size: str) -> list[Case]:
    """Round trips pi_project(e_map(p)) == p on random polynomials.

    The top monomial's shape comes from the cell; up to three further
    monomials are random sub-multisets of it, so the symmetrizations of the
    smaller words are looked up in the generator set's word cache.
    """
    cases = []
    for n, n_max, degree, picks in (_SECTION_CELLS if size == "full" else _SECTION_TINY):
        shapes = generators.monomials_of_degree(n, degree)
        for pick in (range(len(shapes)) if picks is None else picks):
            top = shapes[pick]
            terms = {(top, (0,) * n): rng.rational()}
            for _ in range(rng.below(4)):
                sub = tuple(rng.below(e + 1) for e in top)
                terms[(sub, (0,) * n)] = rng.rational()
            poly = WeylElement(n, terms)
            cases.append(_section_case(n, n_max, degree, rng.next_u64(), poly))
    return cases


def _section_case(n: int, n_max: int, degree: int, fam_seed: int, poly: WeylElement) -> Case:
    d = max(degree - 1, n_max)

    def run() -> tuple[bool, Any]:
        fam = generators.random_family(n, n_max, DENSE, fam_seed)
        gens = generators.build_generators(fam, d)
        image = ordering.e_map(poly, gens)
        back = ordering.pi_project(image)
        return back == poly, image

    return Case(f"n={n} n_max={n_max} deg={degree}", run, _terms_bytes)


# -- span-rank -------------------------------------------------------------------

# (n, k, n_max, cases)  D = 2k throughout, the span-dim default.  On a 2-core
# x86 VM a dense (3, 3) case takes about 2 s at n_max = 2, so the (3, 3) and
# (2, 5) cells use n_max = 1 (about 160 ms a case).  At n_max = 1 no product
# outgrows the window and `truncate` keeps every term; the (2, 4) cell at
# n_max = 2 (about 300 ms a case) is where truncation cuts work.  A pass
# takes about 1.7 s.
_SPAN_CELLS = [(3, 3, 1, 2), (2, 4, 1, 18), (2, 4, 2, 2), (2, 5, 1, 1)]
_SPAN_TINY = [(2, 2, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1)]


def _span_rank(rng: SplitMix64, size: str) -> list[Case]:
    """`span_dimension` on dense random families; each case checks the rank bound."""
    cases = []
    for n, k, n_max, count in (_SPAN_CELLS if size == "full" else _SPAN_TINY):
        for _ in range(count):
            cases.append(_span_case(n, k, n_max, rng.next_u64()))
    return cases


def _span_case(n: int, k: int, n_max: int, fam_seed: int) -> Case:
    bound = comb(n + k - 1, k)

    def run() -> tuple[bool, Any]:
        fam = generators.random_family(n, n_max, DENSE, fam_seed)
        gens = generators.build_generators(fam, 2 * k)
        rank, symmetric_dim = ordering.span_dimension(gens, k)
        return symmetric_dim == bound and rank >= bound, (rank, symmetric_dim)

    return Case(f"n={n} k={k} n_max={n_max}", run, lambda out: repr(out).encode())


# -- cli-tables ------------------------------------------------------------------

# The golden reports under docs/golden, with the argv and exit status that
# produce them: the list the CLI tests check, less `span-dim --trials 2`,
# whose call into exact_rank would make this a second workload for linalg.
GOLDEN_CASES = [
    ("verify-theorem-default.txt", ["verify-theorem", "--trials", "3"], 0),
    ("verify-theorem-heisenberg.json",
     ["verify-theorem", "--sc", "data/heisenberg.json", "--trials", "2", "--output", "json"], 0),
    ("verify-theorem-control.txt",
     ["verify-theorem", "--family", "symmetric-control", "--k", "2", "--trials", "4"], 1),
    ("cancellation-default.txt", ["cancellation", "--trials", "3"], 0),
    ("verify-iota-sl2.txt", ["verify-iota", "--sc", "data/sl2.json", "--d", "3"], 0),
    ("bernoulli-default.txt", ["bernoulli"], 0),
    ("bernoulli-12.json", ["bernoulli", "--n-max", "12", "--output", "json"], 0),
]
DATA_TABLES = ("data/abelian2.json", "data/heisenberg.json", "data/sl2.json")


def _table_json(sc: lie.StructureConstants) -> str:
    """A structure-constant file listing each (i < j) entry once.

    The loader completes the (j, i) mirrors by antisymmetry.
    """
    entries = [
        {"k": k, "i": i, "j": j, "num": v.numerator, "den": v.denominator}
        for (k, i, j), v in sorted(sc.items())
        if i < j
    ]
    return json.dumps({"n": sc.n, "entries": entries}, indent=1) + "\n"


def _dense_almost_abelian(n: int, rng: SplitMix64) -> lie.StructureConstants:
    """[X_n, X_i] = sum_k a_ki X_k for i, k < n, every a_ki drawn nonzero.

    The package's `random_almost_abelian_table` keeps each entry with
    probability 1/2, so the cost of one command on it swings with the draw;
    this table has the same shape with every entry present.  Valid for any
    action matrix: every double bracket falls into the commuting span.
    """
    entries = {}
    for i in range(1, n):
        for k in range(1, n):
            v = rng.rational()
            entries[(k, n, i)] = v
            entries[(k, i, n)] = -v
    return lie.StructureConstants(n, entries)


def _dense_two_step(n: int, n_central: int, rng: SplitMix64) -> lie.StructureConstants:
    """Brackets of the first n - n_central generators land in the central
    tail with every coefficient drawn nonzero (the dense form of
    `random_two_step_table`); valid because every bracket value is central.
    """
    r = n - n_central
    entries = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for k in range(r + 1, n + 1):
                v = rng.rational()
                entries[(k, i, j)] = v
                entries[(k, j, i)] = -v
    return lie.StructureConstants(n, entries)


def _generated_tables(rng: SplitMix64, size: str) -> list[tuple[str, lie.StructureConstants]]:
    if size == "tiny":
        return [("almost-abelian-3", _dense_almost_abelian(3, rng))]
    return [
        ("sl2+almost-abelian-2", lie.direct_sum(lie.sl2_table(), _dense_almost_abelian(2, rng))),
        ("almost-abelian-3", _dense_almost_abelian(3, rng)),
        ("almost-abelian-4", _dense_almost_abelian(4, rng)),
        ("two-step-4-1", _dense_two_step(4, 1, rng)),
        ("two-step-5-2", _dense_two_step(5, 2, rng)),
    ]


def _cli_tables(rng: SplitMix64, size: str, table_dir: Path) -> list[Case]:
    """In-process `symorder.cli.main` calls.

    Golden argvs are compared byte for byte with docs/golden; the table
    commands run on the shipped data files and on seeded generated tables
    written under `table_dir` (a path relative to the repository root, so
    the echoed `sc:` line does not depend on where the checkout lives).
    """
    cases = [
        _cli_case(argv, status, Path("docs/golden") / name)
        for name, argv, status in (GOLDEN_CASES if size == "full" else GOLDEN_CASES[:2])
    ]
    if size == "full":
        # Tiny invocations, where parsing and rendering are most of the work.
        for _ in range(4):
            seed = str(rng.next_u64())
            cases.append(_cli_case(["verify-theorem", "--trials", "1", "--seed", seed], 0))
            cases.append(_cli_case(
                ["cancellation", "--trials", "1", "--seed", seed, "--output", "json"], 0))
    table_dir.mkdir(parents=True, exist_ok=True)
    paths = list(DATA_TABLES if size == "full" else DATA_TABLES[:1])
    for name, sc in _generated_tables(rng, size):
        path = table_dir / f"{name}.json"
        path.write_text(_table_json(sc), encoding="utf-8")
        paths.append(path.as_posix())
    iota_orders = (4, 6, 8) if size == "full" else (2,)
    for pos, path in enumerate(paths):
        d = iota_orders[pos % len(iota_orders)]
        seed = str(rng.next_u64())
        cases.append(_cli_case(["verify-iota", "--sc", path, "--d", str(d)], 0))
        cases.append(_cli_case(
            ["verify-theorem", "--sc", path, "--trials", "2", "--seed", seed], 0))
        cases.append(_cli_case(
            ["cancellation", "--sc", path, "--trials", "2", "--seed", seed, "--output", "json"], 0))
    if size == "full":
        cases.append(_cli_case(["verify-iota", "--sc", "data/sl2.json", "--d", "10"], 0))
    return cases


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; returns (exit status, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue()


def _cli_case(argv: list[str], status: int, golden: Path | None = None) -> Case:
    expected = golden.read_text(encoding="utf-8") if golden is not None else None

    def run() -> tuple[bool, Any]:
        code, text = invoke(argv)
        ok = code == status and (expected is None or text == expected)
        return ok, (code, text)

    def canonical(out: Any) -> bytes:
        code, text = out
        return f"{code}\n".encode() + text.encode()

    return Case(" ".join(argv[:1] + argv[2:3]), run, canonical)


# -- entry point -----------------------------------------------------------------


def make_cases(workload: str, seed: int, size: str, scratch: Path) -> list[Case]:
    """The fixed case list of a workload, drawn from `seed`.

    `size` is "full" or "tiny".  `scratch` is a directory (relative to the
    repository root, which must be the working directory) where cli-tables
    writes its generated tables.
    """
    rng = SplitMix64(seed)
    if workload == "identity-grid":
        return _identity_grid(rng, size)
    if workload == "section":
        return _section(rng, size)
    if workload == "span-rank":
        return _span_rank(rng, size)
    if workload == "cli-tables":
        return _cli_tables(rng, size, scratch / "tables")
    raise ValueError(f"unknown workload {workload!r}")

