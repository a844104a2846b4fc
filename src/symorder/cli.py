"""Command-line verification harness.

Subcommands:

  verify-theorem   seeded random-family trials of the ordering identity
  verify-iota      embedding commutator residuals for a structure-constant file
  cancellation     seeded trials of the pairwise cancellation identity
  span-dim         rank of degree-k word products vs. the symmetric dimension
  bernoulli        table of Bernoulli numbers

Reports go to standard output as text (default) or JSON (``--output json``)
and are byte-identical across runs with the same arguments; the elapsed time
is printed to standard error only, so it never perturbs the report bytes.
Exit status: 0 all checks passed, 1 at least one check failed, 2 usage or
input error, including a run past its cost gate: span-dim whose `span_cost`
exceeds `SPAN_COST_LIMIT`, verify-theorem or cancellation whose `word_cost`
exceeds `WORD_COST_LIMIT` or whose word is longer than `WORD_LENGTH_LIMIT`,
verify-iota whose `iota_cost` exceeds `IOTA_COST_LIMIT` or whose table has
more than `IOTA_PAIRS_LIMIT` basis pairs, bernoulli past
`BERNOULLI_N_MAX_LIMIT`, any --trials past `TRIALS_LIMIT`, and a --sparsity
past 2^64 in numerator or denominator, or past `_FRACTION_TEXT_LIMIT` as text.

Flags that several subcommands take are declared once, in argparse parent
parsers, and every per-command default sits in one table, `_DEFAULTS`.

Structure-constant files are JSON documents

    {"n": 3, "entries": [{"k": 3, "i": 1, "j": 2, "num": 1, "den": 1}]}

listing C^k_{ij} values as exact fractions (``den`` defaults to 1).  Both
top-level fields are required and no other field is accepted, at either
level.  Every field must be a JSON integer; booleans, floats and strings are
rejected.  The (j, i) mirror of each entry may be omitted and is completed by
antisymmetry; giving both with inconsistent values, or a table failing
antisymmetry or the Jacobi identity after completion, is rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .generators import (
    CoefficientFamily,
    build_generators,
    random_family,
    symmetric_control_family,
)
from .lie import (
    InvalidStructureConstantsError,
    StructureConstants,
    bernoulli,
    derived_family,
    homomorphism_defect,
)
from .ordering import (
    cancellation_check,
    span_dimension,
    theorem_check,
)
from .rng import SplitMix64
from .weyl import WeylElement, format_term

_U64 = 1 << 64


class CLIInputError(Exception):
    """Bad configuration or input file; maps to exit status 2."""


# span-dim rejects (exit 2) any --n/--k/--n-max/--d whose `span_cost` exceeds
# this.  The heavy tier `span-dim --n 3 --k 4` costs 3360 and takes about 0.7 s
# a trial on a 2-core x86 VM; the cost grows as n^k, so one flag could ask
# for days.
SPAN_COST_LIMIT = 5000


def span_cost(n: int, k: int, n_max: int, d: int) -> int:
    """Cost estimate of one span-dim trial, exact up to `SPAN_COST_LIMIT`.

    It is the number of products the word tree forms, n + n^2 + ... + n^k,
    times the most terms one generator can have at cutoff d: x_i plus
    x_l d^mu for every l and every d-monomial mu with 1 <= |mu| <= D =
    min(n_max, d), that is 1 + n * (C(n + D, D) - 1).  The sum stops and the
    cutoff is capped where the estimate already passes the limit, so
    oversized flags are rejected without big-number work.
    """
    products = 0
    for depth in range(1, k + 1):
        products += n**depth
        if products > SPAN_COST_LIMIT:
            return products
    top = min(n_max, d, SPAN_COST_LIMIT)
    return products * _generator_terms(n, n, top)


def _generator_terms(n: int, axes: int, top: int) -> int:
    """The most terms one generator can have at d-cutoff top: x_i plus x_l d^mu
    for every l and every monomial mu in `axes` of the n derivatives with
    1 <= |mu| <= top."""
    return 1 + n * (comb(axes + top, top) - 1)


# verify-theorem and cancellation reject (exit 2) any --n/--k/--n-max whose
# `word_cost` exceeds this.  The acceptance grid's largest cell (n = 4, k = 5,
# n_max = 4) costs 26592; the slowest admitted trial measured, a dense
# `--n 11 --k 1 --n-max 3` (87868), takes about 0.5 s on a 2-core x86 VM.
WORD_COST_LIMIT = 100_000
# verify-theorem and cancellation also cap the word length.  For n = 1,
# `word_cost` alone admits 49,999 letters, which each record would echo, and
# the verify-theorem word cache would hold m! * x^m for every m <= k (~2 GB).
WORD_LENGTH_LIMIT = 200
# The longest --sparsity text, and the largest exponent, that `Fraction` reads.
_FRACTION_TEXT_LIMIT = 100
# bernoulli --n-max 1000 takes about 0.1 s on a 2-core x86 VM, and --n-max
# 500 about 0.015 s: the tangent numbers take O(n_max^2) integer operations
# on numbers of up to about n_max log2(n_max) bits, so the table still costs
# about n_max^3.  The limit also holds the report to about 400 kB.
BERNOULLI_N_MAX_LIMIT = 1000
# Every command with --trials rejects (exit 2) more than this: each trial is
# bounded by its cost gate, and the report grows by one record per trial.
# The goldens use at most 4 trials and the README examples at most 50.
TRIALS_LIMIT = 1000


def word_cost(n: int, k: int, n_max: int) -> int:
    """Cost estimate of one verify-theorem or cancellation trial, exact up to
    `WORD_COST_LIMIT`.

    It is the most multiset states a k-letter word over n letters has (its
    sub-multisets, most with the letters spread evenly) times the terms of
    all n generators of an order-n_max family, ``n * _generator_terms(n, n,
    n_max)``.  The generators are built at cutoff max(k - 1, n_max), so no
    order of the family is dropped.  The product stops, and the order is
    capped, where the estimate already passes the limit, so oversized flags
    are rejected without big-number work.
    """
    q, r = divmod(k, n)
    cost = n
    for letter in range(min(n, k)):
        cost *= q + 1 + (letter < r)
        if cost > WORD_COST_LIMIT:
            return cost
    # a generator has at least 1 + n^2 * n_max terms, so a larger order is
    # past the limit anyway
    return cost * _generator_terms(n, n, min(n_max, WORD_COST_LIMIT // n**2 + 1))


# verify-iota rejects (exit 2) any table and --d whose `iota_cost` exceeds
# this.  The golden and benchmark argvs cost at most 97949388 (a dense
# 4-dimensional almost-abelian table at --d 8); data/sl2.json is admitted up to
# --d 26 (0.1 s on a 2-core x86 VM), and --d 60 (1.4 s there) costs 93735000600.
IOTA_COST_LIMIT = 10**9
# verify-iota also rejects (exit 2) a table of more than this many basis pairs
# n(n - 1)/2, n <= 141: each pair costs a commutator, a residual and a report
# record even when the table is empty, which `iota_cost` does not count.  An
# empty table at n = 141 takes about 0.2 s, twice data/sl2.json at --d 26.
IOTA_PAIRS_LIMIT = 10_000


def iota_cost(sc: StructureConstants, d: int) -> int:
    """Cost estimate of one verify-iota run, exact up to `IOTA_COST_LIMIT`.

    `homomorphism_defect` forms the commutator of embedding images for each of
    the n(n - 1)/2 pairs from the term pairs of both orders, so the estimate is
    twice that many times the most term pairs one order can have, the square of
    ``_generator_terms(n, a, top)``.  It bounds more work than is done: the
    commutator is capped at d and never forms the term pairs that land only
    above it.  The images only use the a derivatives d^j for which some C^k_ij
    is nonzero, and their d-degree stops at top = min(d + 1, L + 1) where L is
    the longest path in the graph with an edge k -> i for every nonzero C^k_ij:
    the image series stops at the first vanishing power of the matrix M with
    M[k][i] = sum_j C^k_ij d^j, whose entry (k, i) is nonzero only on such an
    edge, so its L + 1-st power vanishes.  A cycle leaves top = d + 1, capped
    where the estimate already passes the limit, so oversized flags are rejected
    without big-number work.
    """
    edges: dict[int, set[int]] = {}
    derivatives = set()
    for (k, i, j), _v in sc.items():
        edges.setdefault(k, set()).add(i)
        derivatives.add(j)
    top, paths, starts = min(d + 1, IOTA_COST_LIMIT), 0, set(edges)
    while starts and paths < sc.n:
        paths += 1
        # the vertices that start a path of paths + 1 edges
        starts = {k for k in starts if edges[k] & starts}
    if not starts:
        top = min(top, paths + 1)
    pairs = sc.n * (sc.n - 1) // 2
    return 2 * pairs * _generator_terms(sc.n, len(derivatives), top) ** 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved arguments of one invocation; fully determines the report."""

    command: str
    n: int = 2
    k: int = 2
    n_max: int = 1
    d: int | None = None  # cancellation builds no generators, so resolves none
    trials: int = 1
    seed: int = 0
    sparsity: Fraction = Fraction(1, 2)
    sc_path: str | None = None
    sc: StructureConstants | None = None  # the table at sc_path, loaded once
    family: str | None = None  # span-dim takes no --family
    output: str = "text"


def _span_d(k: int, _n_max: int) -> int:
    """2k"""
    return 2 * k


# Each command's defaults for the flags that parse to None.  A callable `d` is
# derived from the resolved k and n_max; its docstring states the rule in --help.
_DEFAULTS: dict[str, dict] = {
    "verify-theorem": {"n": 2, "k": 3, "n_max": 2, "trials": 10, "family": "random"},
    "cancellation": {"n": 3, "k": 4, "n_max": 2, "trials": 10, "family": "random"},
    "span-dim": {"n": 2, "k": 2, "n_max": 2, "trials": 3, "d": _span_d},
    "verify-iota": {"d": 4},
    "bernoulli": {"n_max": 8},
}


def _fraction_arg(text: str) -> Fraction:
    """A rational with numerator and denominator at most 2^64; its text's length
    and exponent are held to `_FRACTION_TEXT_LIMIT` before `Fraction` reads it."""
    limit = _FRACTION_TEXT_LIMIT
    try:
        if len(text) > limit or abs(int(text.lower().partition("e")[2] or 0)) > limit:
            raise ValueError(text)
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) > _U64:
            raise ValueError(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a rational of at most {limit} characters, exponent within +-{limit}, "
            f"numerator and denominator at most 2^64: {text[:limit]!r}") from exc
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Children share their parent parsers' actions, so a child's `set_defaults`
    would change a default for every subcommand: per-command defaults parse
    to None and come from `_DEFAULTS`, which each child's help epilog lists.
    """
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format")
    cutoff = argparse.ArgumentParser(add_help=False)
    cutoff.add_argument("--d", type=int, help="truncation order")
    trial = argparse.ArgumentParser(add_help=False)
    trial.add_argument("--n", type=int, help="ambient dimension")
    trial.add_argument("--k", type=int, help="word length")
    trial.add_argument("--n-max", type=int, help="max family order")
    trial.add_argument("--trials", type=int, help="number of trials")
    trial.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    trial.add_argument("--sparsity", type=_fraction_arg, default=Fraction(1, 2),
                       help="density of random family entries, rational in [0, 1]")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--sc", help="structure-constant file; uses the derived family")
    source.add_argument("--family", choices=("random", "symmetric-control"),
                        help="family source")

    parser = argparse.ArgumentParser(
        prog="symorder",
        description="Exact verification suites for symmetric-ordering identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-theorem", parents=[trial, source, report],
                   help="check the symmetrized ordering identity")
    sub.add_parser("verify-iota", parents=[cutoff, report],
                   help="check the embedding sends brackets to commutators",
                   ).add_argument("--sc", required=True, help="structure-constant file")
    sub.add_parser("cancellation", parents=[trial, source, report],
                   help="check the pairwise cancellation identity")
    sub.add_parser("span-dim", parents=[trial, cutoff, report],
                   help="rank of degree-k word products")
    sub.add_parser("bernoulli", parents=[report], help="print Bernoulli numbers B_0..B_n_max",
                   ).add_argument("--n-max", type=int, help="largest index")
    for command, child in sub.choices.items():
        child.epilog = "defaults: " + ", ".join(
            f"--{name.replace('_', '-')} {value.__doc__ if callable(value) else value}"
            for name, value in _DEFAULTS[command].items())
    return parser


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """`json` object hook that refuses a key repeated within one object."""
    if len(out := dict(pairs)) < len(pairs):
        raise ValueError(f"repeated key among {[key for key, _value in pairs]}")
    return out


def load_structure_constants(path: str) -> StructureConstants:
    """Read a structure-constant file, complete mirrors, validate, or reject."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    # ValueError also covers bad UTF-8, repeated keys and over-long integers
    except (OSError, ValueError, RecursionError) as exc:
        raise CLIInputError(f"cannot read {path}: {exc}") from exc
    if type(data) is not dict or set(data) != {"n", "entries"} or type(data["entries"]) is not list:
        raise CLIInputError(f"{path}: expected an object with only 'n' and an 'entries' list")
    n = data["n"]
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    if type(n) is not int or n < 1:
        raise CLIInputError(f"{path}: 'n' must be a positive integer, got {n!r}")
    explicit: dict[tuple[int, int, int], Fraction] = {}
    for pos, rec in enumerate(data["entries"]):
        if not (isinstance(rec, dict) and set(rec) <= {"k", "i", "j", "num", "den"}):
            raise CLIInputError(f"{path}: entry {pos} must be an object of k, i, j, num[, den]")
        fields = {"den": 1, **rec}
        for name in ("k", "i", "j", "num", "den"):
            if type(got := fields.get(name)) is not int:
                raise CLIInputError(
                    f"{path}: entry {pos} field {name!r} must be an integer, got {got!r}"
                )
        if fields["den"] == 0:
            raise CLIInputError(f"{path}: entry {pos} has denominator 0")
        key = (fields["k"], fields["i"], fields["j"])
        value = Fraction(fields["num"], fields["den"])
        if key in explicit:
            raise CLIInputError(f"{path}: duplicate entry for C{list(key)}")
        explicit[key] = value
    # Only missing mirrors are filled in; an inconsistent mirror or a nonzero
    # diagonal entry is left for require_valid to report.
    completed = dict(explicit)
    for (k, i, j), v in explicit.items():
        completed.setdefault((k, j, i), -v)
    try:
        sc = StructureConstants(n, completed)  # IndexError: an index outside 1..n
        sc.require_valid()
    except (IndexError, InvalidStructureConstantsError) as exc:
        raise CLIInputError(f"{path}: {exc}") from exc
    return sc


def _gate(command: str, cost: int, limit: int, counted: str, flags: str) -> None:
    """Reject (exit 2) a run whose cost estimate exceeds its limit."""
    if cost > limit:
        raise CLIInputError(
            f"{command} cost estimate {cost} ({counted}) exceeds the limit {limit}; "
            f"lower {flags}"
        )


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    typed = {name: value for name, value in vars(args).items() if value is not None}
    flags = {**_DEFAULTS[command], **typed}
    if command == "bernoulli":
        n_max = flags["n_max"]
        if not 0 <= n_max <= BERNOULLI_N_MAX_LIMIT:
            raise CLIInputError(f"--n-max must be in [0, {BERNOULLI_N_MAX_LIMIT}], got {n_max}")
        return RunConfig(command=command, n_max=n_max, output=args.output)
    if command == "verify-iota":
        d = flags["d"]
        if d < 0:
            raise CLIInputError(f"--d must be >= 0, got {d}")
        sc = load_structure_constants(args.sc)
        _gate(command, sc.n * (sc.n - 1) // 2, IOTA_PAIRS_LIMIT, "basis pairs", "the table's n")
        _gate(command, iota_cost(sc, d), IOTA_COST_LIMIT,
              "commutator products times term pairs", "--d")
        return RunConfig(command=command, d=d, sc_path=args.sc, sc=sc, output=args.output)

    # verify-theorem, cancellation and span-dim: the trial commands.
    if not 0 <= args.seed < _U64:
        raise CLIInputError(f"--seed must be in [0, 2^64), got {args.seed}")
    if not 0 <= args.sparsity <= 1:
        raise CLIInputError(f"--sparsity must be in [0, 1], got {args.sparsity}")
    if not 1 <= flags["trials"] <= TRIALS_LIMIT:
        raise CLIInputError(f"--trials must be in [1, {TRIALS_LIMIT}], got {flags['trials']}")
    sc_path, sc, family = typed.get("sc"), None, flags.get("family")
    if sc_path is not None:
        if family == "symmetric-control":
            raise CLIInputError("--sc and --family symmetric-control are mutually exclusive")
        family, sc = "derived", load_structure_constants(sc_path)
        if typed.get("n", sc.n) != sc.n:
            raise CLIInputError(f"--n {typed['n']} does not match the file dimension {sc.n}")
        flags["n"] = sc.n
    elif family == "symmetric-control":
        if typed.get("n", 2) != 2:
            raise CLIInputError("--family symmetric-control requires n = 2")
        if typed.get("n_max", 1) != 1:
            raise CLIInputError("--family symmetric-control requires n_max = 1")
        flags.update(n=2, n_max=1)
    n, k, n_max = flags["n"], flags["k"], flags["n_max"]
    if n < 1 or k < 1 or n_max < 1:
        raise CLIInputError("--n, --k and --n-max must be >= 1")
    d = flags.get("d")  # cancellation builds no generators, so it resolves no d
    if command == "span-dim":
        d = d(k, n_max) if callable(d) else d
        if d < k - 1:
            raise CLIInputError(f"--d must be >= k - 1 = {k - 1} for an exact check, got {d}")
        _gate(command, span_cost(n, k, n_max, d), SPAN_COST_LIMIT,
              "word products times generator terms", "--n, --k, --n-max or --d")
    else:
        _gate(command, word_cost(n, k, n_max), WORD_COST_LIMIT,
              "multiset states times generator terms", "--n, --k or --n-max")
        if k > WORD_LENGTH_LIMIT:
            raise CLIInputError(f"--k must be <= {WORD_LENGTH_LIMIT}, got {k}")
        if command == "verify-theorem":
            # every cutoff >= k - 1 gives the untruncated residual; echoed as d
            d = max(k - 1, n_max)
    return RunConfig(
        command=command, n=n, k=k, n_max=n_max, d=d, trials=flags["trials"], seed=args.seed,
        sparsity=args.sparsity, sc_path=sc_path, sc=sc, family=family, output=args.output,
    )


# -- suite execution -----------------------------------------------------------


def _residual_record(head: dict, residual: WeylElement) -> dict:
    """The record fields in head, then the verdict on a residual that must vanish."""
    record = {**head, "passed": residual.is_zero(), "residual_terms": 0, "first_offending": None}
    if record["passed"]:
        return record
    (xexp, dexp), coeff = residual.sorted_terms()[0]
    record["residual_terms"] = residual.term_count()
    record["first_offending"] = format_term(xexp, dexp, coeff)
    return record


def _family_source(config: RunConfig) -> Callable[[int], CoefficientFamily]:
    if config.family == "derived":
        fam = derived_family(config.sc, config.n_max)
        return lambda _seed: fam
    if config.family == "symmetric-control":
        fam = symmetric_control_family()
        return lambda _seed: fam
    # random_family draws order by order and build_generators drops the orders
    # above d, so a family cut at d is drawn only up to d (and at least to
    # order 1, the least a family has: at d = 0 the generators keep x_i alone)
    orders = config.n_max if config.d is None else min(config.n_max, max(config.d, 1))
    return lambda seed: random_family(config.n, orders, config.sparsity, seed)


def _draw_word(master: SplitMix64, config: RunConfig, t: int) -> tuple[int, ...]:
    """Trial t's word; odd trials force a repeated letter, so that
    non-injective words are always exercised."""
    word = tuple(1 + master.below(config.n) for _ in range(config.k))
    if t % 2 == 1 and config.k >= 2:
        word = (word[0], word[0]) + word[2:]
    return word


def _theorem_trial(config: RunConfig, master: SplitMix64, t: int,
                   family: CoefficientFamily, head: dict) -> dict:
    word = _draw_word(master, config, t)
    residual = theorem_check(build_generators(family, config.d), word).residual
    return _residual_record({**head, "word": list(word)}, residual)


def _cancellation_trial(config: RunConfig, master: SplitMix64, t: int,
                        family: CoefficientFamily, head: dict) -> dict:
    word = _draw_word(master, config, t)
    l = 1 + master.below(config.n)
    order = 1 + master.below(config.n_max)
    residual = cancellation_check(family, word, l, order)
    return _residual_record({**head, "word": list(word), "l": l, "order": order}, residual)


def _span_trial(config: RunConfig, _master: SplitMix64, _t: int,
                family: CoefficientFamily, head: dict) -> dict:
    rank, symmetric_dim = span_dimension(build_generators(family, config.d), config.k)
    return {**head, "rank": rank, "symmetric_dim": symmetric_dim, "passed": rank >= symmetric_dim}


_TRIALS = {"verify-theorem": _theorem_trial, "cancellation": _cancellation_trial,
           "span-dim": _span_trial}


def _run_trials(config: RunConfig) -> tuple[dict, list[dict]]:
    """Echo and records of a trial command.  Trial t draws its family seed, and
    its trial function the rest, from one master stream; `random_family` draws
    from none, so the family is built first.  The echo skips unresolved fields."""
    source, trial = _family_source(config), _TRIALS[config.command]
    master = SplitMix64(config.seed)
    records = []
    for t in range(config.trials):
        fam_seed = master.next_u64()
        head = {"trial": t, "seed": str(fam_seed)}
        records.append(trial(config, master, t, source(fam_seed), head))
    echo = {"n": config.n, "k": config.k, "n_max": config.n_max, "d": config.d,
            "trials": config.trials, "seed": str(config.seed),
            "sparsity": f"{config.sparsity.numerator}/{config.sparsity.denominator}",
            "family": config.family, "sc": config.sc_path}
    return {key: value for key, value in echo.items() if value is not None}, records


def _run_verify_iota(config: RunConfig) -> tuple[dict, list[dict]]:
    sc = config.sc
    records = [
        _residual_record({"i": i, "j": j}, residual)
        for (i, j), residual in homomorphism_defect(sc, config.d).items()
    ]
    return {"sc": config.sc_path, "n": sc.n, "d": config.d}, records


def _run_bernoulli(config: RunConfig) -> tuple[dict, list[dict]]:
    records = [
        {"index": i, "value": f"{b.numerator}/{b.denominator}"}
        for i, b in enumerate(map(bernoulli, range(config.n_max + 1)))
    ]
    return {"n_max": config.n_max}, records


def _assemble(command: str, echo: dict, records: list[dict]) -> tuple[dict, int]:
    # bernoulli records carry no verdict and never count as failures
    failures = sum(not rec.get("passed", True) for rec in records)
    summary = {"checks": len(records), "failures": failures,
               "result": "pass" if failures == 0 else "fail"}
    report = {"command": command, "config": echo, "records": records, "summary": summary}
    return report, (0 if failures == 0 else 1)


_RUNNERS = {
    **dict.fromkeys(_TRIALS, _run_trials),
    "verify-iota": _run_verify_iota,
    "bernoulli": _run_bernoulli,
}


# -- rendering ------------------------------------------------------------------


_VERDICT_FIELDS = ("passed", "residual_terms", "first_offending")  # rendered last


def _record_line(command: str, rec: dict) -> str:
    if command == "bernoulli":
        num, den = rec["value"].split("/")
        shown = num if den == "1" else f"{num}/{den}"
        return f"B_{rec['index']} = {shown}"
    if command == "verify-iota":
        head = f"pair ({rec['i']},{rec['j']}):"
    else:
        head = f"trial {rec['trial']}:" + "".join(
            f" {key}=" + (",".join(map(str, value)) if isinstance(value, list) else str(value))
            for key, value in rec.items() if key != "trial" and key not in _VERDICT_FIELDS)
    if rec["passed"]:
        return f"{head} pass"
    if "residual_terms" not in rec:
        return f"{head} fail"
    return (
        f"{head} fail residual_terms={rec['residual_terms']} "
        f"first={rec['first_offending']}"
    )


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in report["config"].items():
        lines.append(f"{key}: {value}")
    for rec in report["records"]:
        lines.append(_record_line(report["command"], rec))
    summary = report["summary"]
    lines.append(f"checks: {summary['checks']}")
    lines.append(f"failures: {summary['failures']}")
    lines.append(f"result: {summary['result']}")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        config = _resolve_config(args)
        report, status = _assemble(config.command, *_RUNNERS[config.command](config))
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_text(report) if config.output == "text" else render_json(report)
    sys.stdout.write(text)
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
