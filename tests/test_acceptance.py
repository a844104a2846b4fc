"""Acceptance gate: the eight release criteria, one reported line each.

Every criterion prints exactly one ``criterion N (<label>): pass|fail`` line
(bypassing capture so the line is visible in normal runs) and then asserts.
All comparisons are exact — structural equality of rational sparse elements —
so there are no numeric tolerances anywhere in this module.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path
from time import perf_counter

from symorder.generators import (
    CoefficientFamily,
    build_generators,
    random_family,
    symmetric_control_family,
)
from symorder.lie import (
    bernoulli,
    derived_family,
    direct_sum,
    heisenberg_table,
    homomorphism_defect,
    random_almost_abelian_table,
    random_two_step_table,
    sl2_table,
)
from symorder.ordering import (
    cancellation_check,
    e_map,
    e_tilde,
    pi_project,
    theorem_check,
    word_counts,
    word_monomial,
)
from symorder.rng import SplitMix64
from symorder.weyl import (
    WeylElement,
    fock_apply,
    linear_combination,
    mul,
    truncate,
    weyl_d,
    weyl_scalar,
    weyl_x,
)
from test_lie import _reference_embedding_images
from test_ordering import oracle_cancellation_terms
from test_weyl import degrees

ROOT = Path(__file__).resolve().parent.parent


def announce(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {number} ({label}): {'pass' if ok else 'fail'}", flush=True)


# -- criterion 1: ordering identity over the full grid --------------------------


def test_criterion_1_ordering_identity_grid(capsys):
    rng = SplitMix64(101)
    failures = []
    checks = 0
    start = perf_counter()
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3, 4, 5):
            for n_max in (1, 2, 3, 4):
                for trial in range(100):
                    fam = random_family(n, n_max, Fraction(1, 2), rng.next_u64())
                    gens = build_generators(fam, max(k - 1, n_max))
                    word = tuple(1 + rng.below(n) for _ in range(k))
                    if trial % 2 == 1 and k >= 2:
                        # odd trials force a non-injective word
                        word = (word[0], word[0]) + word[2:]
                    result = theorem_check(gens, word)
                    checks += 1
                    if not (result.passed and result.residual.is_zero()):
                        failures.append((n, k, n_max, trial, word))
    elapsed = perf_counter() - start
    ok = not failures and checks == 8000 and elapsed < 300.0
    announce(capsys, 1, "ordering identity grid", ok)
    assert checks == 8000
    assert not failures, failures[:3]
    assert elapsed < 300.0, f"grid took {elapsed:.1f}s"


# -- criterion 2: the symmetric control family must fail ------------------------


def test_criterion_2_necessity_control(capsys):
    gens = build_generators(symmetric_control_family(), 1)
    mixed = theorem_check(gens, (1, 2))
    repeated = theorem_check(gens, (2, 2))
    ok = (
        not mixed.passed
        and not mixed.residual.is_zero()
        and mixed.residual == weyl_x(2, 1).scale(2)
        and repeated.passed
    )
    announce(capsys, 2, "necessity control", ok)
    assert not mixed.passed
    assert mixed.residual == weyl_x(2, 1).scale(2)
    assert repeated.passed


# -- criterion 3: cancellation worked example and random zeros ------------------


def _scalar_family(p: dict) -> CoefficientFamily:
    entries = {}
    for (i, j), v in p.items():
        if i != j and v:
            entries[(1, 1, i, j, (0, 0, 0))] = v
    return CoefficientFamily(3, 1, entries)


def test_criterion_3_cancellation_oracle(capsys):
    rng = SplitMix64(303)
    failures = []

    # per-position contributions for word (1,3,3,2): the letter-1 position
    # gives p_12 x3^2 + 2 p_13 x3 x2, each letter-3 position gives
    # p_31 x3 x2 + p_32 x1 x3 + p_33 x1 x2, and the letter-2 position gives
    # p_21 x3^2 + 2 p_23 x1 x3; antisymmetry makes the total vanish.
    word = (1, 3, 3, 2)
    x3x3 = word_monomial(3, (3, 3))
    x3x2 = word_monomial(3, (2, 3))
    x1x3 = word_monomial(3, (1, 3))
    x1x2 = word_monomial(3, (1, 2))
    instances = [{(1, 2): Fraction(2), (1, 3): Fraction(3), (2, 3): Fraction(5)}]
    for _ in range(10):
        upper = {}
        for i, j in ((1, 2), (1, 3), (2, 3)):
            upper[(i, j)] = rng.rational()
        instances.append(upper)
    for upper in instances:
        p = dict(upper)
        for (i, j), v in upper.items():
            p[(j, i)] = -v
        for i in (1, 2, 3):
            p[(i, i)] = Fraction(0)
        fam = _scalar_family(p)
        terms = oracle_cancellation_terms(fam, word, 1, 1)
        expected = [
            x3x3.scale(p[(1, 2)]) + x3x2.scale(2 * p[(1, 3)]),
            x3x2.scale(p[(3, 1)]) + x1x3.scale(p[(3, 2)]) + x1x2.scale(p[(3, 3)]),
            x3x2.scale(p[(3, 1)]) + x1x3.scale(p[(3, 2)]) + x1x2.scale(p[(3, 3)]),
            x3x3.scale(p[(2, 1)]) + x1x3.scale(2 * p[(2, 3)]),
        ]
        if terms != expected:
            failures.append(("worked-example terms", upper))
        total = cancellation_check(fam, word, 1, 1)
        if not total.is_zero() or total != linear_combination(3, [(1, t) for t in terms]):
            failures.append(("worked-example total", upper))

    for trial in range(100):
        n = 1 + rng.below(3)
        n_max = 1 + rng.below(3)
        fam = random_family(n, n_max, Fraction(1, 2), rng.next_u64())
        k = 2 + rng.below(4)
        rword = tuple(1 + rng.below(n) for _ in range(k))
        l = 1 + rng.below(n)
        order = 1 + rng.below(n_max)
        if not cancellation_check(fam, rword, l, order).is_zero():
            failures.append(("random", trial, n, rword, l, order))

    announce(capsys, 3, "cancellation oracle", not failures)
    assert not failures, failures[:3]


# -- criterion 4: embedding suite ------------------------------------------------


def _structured_tables():
    tables = [("heisenberg", heisenberg_table()), ("sl2", sl2_table())]
    seeds = SplitMix64(404)
    for t in range(8):
        n = 3 + t % 3
        n_central = 1 + t % 2
        tables.append((f"two-step-{t}", random_two_step_table(n, n_central, seeds.next_u64())))
    for t in range(8):
        tables.append((f"almost-abelian-{t}", random_almost_abelian_table(2 + t % 3, seeds.next_u64())))
    for t in range(4):
        left = random_two_step_table(3, 1, seeds.next_u64())
        right = random_almost_abelian_table(2, seeds.next_u64())
        tables.append((f"direct-sum-{t}", direct_sum(left, right)))
    return tables


def test_criterion_4_embedding_suite(capsys):
    failures = []
    tables = _structured_tables()
    assert len(tables) == 22  # Heisenberg, sl2, and 20 structured tables
    for name, sc in tables:
        if sc.validate():
            failures.append((name, "invalid table"))
            continue
        for (i, j), residual in homomorphism_defect(sc, 4).items():
            if not residual.is_zero():
                failures.append((name, "defect", i, j))
        gens = build_generators(derived_family(sc, 4), 4)
        images = _reference_embedding_images(sc, 4)
        for i in range(1, sc.n + 1):
            if gens.generators[i - 1] != images[i - 1]:
                failures.append((name, "recovery", i))
    announce(capsys, 4, "embedding suite", not failures)
    assert not failures, failures[:5]


# -- criterion 5: section identity and well-definedness --------------------------


def _right_peeled(gens, counts, memo):
    """Symmetrized product rebuilt by peeling the last factor instead."""
    if sum(counts) == 0:
        return weyl_scalar(gens.n, 1)
    if counts in memo:
        return memo[counts]
    total = weyl_scalar(gens.n, 0)
    for c, m_c in enumerate(counts):
        if m_c:
            sub = counts[:c] + (m_c - 1,) + counts[c + 1:]
            total = total + mul(_right_peeled(gens, sub, memo), gens.generators[c]).scale(m_c)
    memo[counts] = total
    return total


def test_criterion_5_section_identity_suite(capsys):
    rng = SplitMix64(505)
    failures = []
    for trial in range(100):
        n = 1 + rng.below(3)
        fam = random_family(n, 2, Fraction(1, 2), rng.next_u64())
        gens = build_generators(fam, 6)
        terms = {}
        for _ in range(1 + rng.below(4)):
            exps = [0] * n
            for _ in range(rng.below(6)):
                exps[rng.below(n)] += 1
            if sum(exps) <= 5:
                terms[(tuple(exps), (0,) * n)] = rng.rational()
        poly = WeylElement(n, terms)
        if pi_project(e_map(poly, gens)) != poly:
            failures.append(("section", trial))
        peel_memo = {}
        for (xexp, _d), _coeff in poly.items():
            word = tuple(
                axis + 1 for axis, count in enumerate(xexp) for _ in range(count)
            )
            if not word:
                continue
            mono = word_monomial(n, word)
            via_words = e_tilde(mono, gens)
            # independent right-peeled recursion over the same multiset
            if via_words != _right_peeled(gens, word_counts(n, word), peel_memo):
                failures.append(("well-defined", trial, xexp))
            acted = fock_apply(via_words, weyl_scalar(n, 1))
            if acted != mono.scale(factorial(len(word))):
                failures.append(("scaling", trial, xexp))
    announce(capsys, 5, "section identity suite", not failures)
    assert not failures, failures[:3]


# -- criterion 6: kernel laws -----------------------------------------------------


def _random_element(rng: SplitMix64, n: int) -> WeylElement:
    terms = {}
    for _ in range(1 + rng.below(4)):
        xexp = tuple(rng.below(3) for _ in range(n))
        dexp = tuple(rng.below(3) for _ in range(n))
        terms[(xexp, dexp)] = rng.rational()
    return WeylElement(n, terms)


def _random_poly(rng: SplitMix64, n: int) -> WeylElement:
    terms = {}
    for _ in range(1 + rng.below(4)):
        xexp = tuple(rng.below(4) for _ in range(n))
        terms[(xexp, (0,) * n)] = rng.rational()
    return WeylElement(n, terms)


def test_criterion_6_kernel_laws(capsys):
    failures = []
    for n in (1, 2, 3, 4):
        one = weyl_scalar(n, 1)
        for i, j in product(range(1, n + 1), repeat=2):
            xi, xj = weyl_x(n, i), weyl_x(n, j)
            di, dj = weyl_d(n, i), weyl_d(n, j)
            if mul(xi, xj) != mul(xj, xi) or mul(di, dj) != mul(dj, di):
                failures.append(("commuting pair", n, i, j))
            delta = one if i == j else weyl_scalar(n, 0)
            if mul(dj, xi) - mul(xi, dj) != delta:
                failures.append(("mixed relation", n, i, j))

    rng = SplitMix64(606)
    for trial in range(200):
        n = 1 + rng.below(3)
        a, b, c = (_random_element(rng, n) for _ in range(3))
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            failures.append(("associativity", trial))

    for trial in range(200):
        n = 1 + rng.below(3)
        a, b = _random_element(rng, n), _random_element(rng, n)
        p = _random_poly(rng, n)
        if fock_apply(mul(a, b), p) != fock_apply(a, fock_apply(b, p)):
            failures.append(("action compatibility", trial))
        deg = degrees(p)[0]
        if fock_apply(truncate(a, deg), p) != fock_apply(a, p):
            failures.append(("truncation exactness", trial))

    announce(capsys, 6, "kernel laws", not failures)
    assert not failures, failures[:3]


# -- criterion 7: Bernoulli values -------------------------------------------------


def _bernoulli_oracle(count: int) -> list[Fraction]:
    """Akiyama–Tanigawa scheme; returns B_0..B_{count-1} (B_1 = -1/2 signs)."""
    row = []
    out = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0] if m % 2 == 0 else -row[0])
    return out


def test_criterion_7_bernoulli(capsys):
    oracle = _bernoulli_oracle(13)
    mismatches = [i for i in range(13) if bernoulli(i) != oracle[i]]
    odd_nonzero = [i for i in range(3, 14, 2) if bernoulli(i) != 0]
    ok = not mismatches and not odd_nonzero and bernoulli(1) == Fraction(-1, 2)
    announce(capsys, 7, "bernoulli values", ok)
    assert not mismatches
    assert not odd_nonzero
    assert bernoulli(1) == Fraction(-1, 2)


# -- criterion 8: CLI determinism ---------------------------------------------------


def test_criterion_8_cli_determinism(capsys):
    commands = [
        ["verify-theorem", "--trials", "3"],
        ["verify-theorem", "--trials", "3", "--output", "json"],
        ["verify-theorem", "--family", "symmetric-control", "--k", "2", "--trials", "2"],
        ["verify-iota", "--sc", "data/sl2.json"],
        ["cancellation", "--trials", "3", "--output", "json"],
        ["span-dim", "--trials", "2"],
        ["bernoulli", "--n-max", "12"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    failures = []
    for argv in commands:
        full = [sys.executable, "-m", "symorder.cli", *argv]
        first = subprocess.run(full, cwd=ROOT, env=env, capture_output=True)
        second = subprocess.run(full, cwd=ROOT, env=env, capture_output=True)
        # every command prints a report; empty output means it never ran
        if (not first.stdout or first.returncode not in (0, 1)
                or first.stdout != second.stdout or first.returncode != second.returncode):
            failures.append(argv)
    announce(capsys, 8, "cli determinism", not failures)
    assert not failures, failures
