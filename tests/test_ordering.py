"""Symmetrized products, the ordering identity, cancellation, section maps.

The oracles here are written independently of the library's fast paths: the
permutation sum is re-built with explicit `itertools.permutations` chains,
and the cancellation sum is re-derived twice: as the double sum over ordered
position pairs, and as the sum of per-position terms, each rebuilt by a scan
of every family entry followed by `mul`.
"""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

import symorder.ordering as ordering
from symorder.generators import (
    CoefficientFamily,
    GeneratorSet,
    build_generators,
    monomials_of_degree,
    random_family,
    symmetric_control_family,
)
from symorder.lie import derived_family, heisenberg_table, sl2_table
from symorder.linalg import exact_rank
from symorder.ordering import (
    cancellation_check,
    e_map,
    e_tilde,
    pi_project,
    span_dimension,
    theorem_check,
    word_counts,
    word_monomial,
)
from symorder.rng import SplitMix64
from symorder.weyl import (
    WeylElement,
    _reduced,
    fock_apply,
    linear_combination,
    mul,
    truncate,
    weyl_scalar,
    weyl_x,
)
from test_linalg import bareiss_rank, oracle_rank


def oracle_permutation_sum(gens: GeneratorSet, word) -> WeylElement:
    """Explicit sum over all k! orderings, multiplied out left to right."""
    total = weyl_scalar(gens.n, 0)
    for ordering in permutations(word):
        prod = weyl_scalar(gens.n, 1)
        for a in ordering:
            prod = mul(prod, gens.generators[a - 1])
        total = total + prod
    return total


def oracle_pair_polynomial(fam: CoefficientFamily, order: int, l: int, i: int, j: int):
    """The (l, i, j) pair polynomial at this order, by a scan of every entry."""
    zero = (0,) * fam.n
    return WeylElement(fam.n, {(zero, m): v for (o, ll, ii, jj, m), v in fam.items()
                               if (o, ll, ii, jj) == (order, l, i, j)})


def oracle_pair_total(fam: CoefficientFamily, word, l: int, order: int) -> WeylElement:
    """Cancellation total as the double sum over ordered position pairs."""
    n = fam.n
    total = weyl_scalar(n, 0)
    for a in range(len(word)):
        for b in range(len(word)):
            if a == b:
                continue
            rest = tuple(word[t] for t in range(len(word)) if t not in (a, b))
            pair = oracle_pair_polynomial(fam, order, l, word[a], word[b])
            total = total + mul(word_monomial(n, rest), pair)
    return total


def oracle_cancellation_terms(fam: CoefficientFamily, word, l: int, order: int):
    """Per-position terms: each rest monomial minus e_s times the scanned pair
    polynomial through `mul`, weighted by the multiplicity of s in the rest."""
    n = fam.n
    out = []
    for idx in range(len(word)):
        rest = word_counts(n, word[:idx] + word[idx + 1:])
        parts = []
        for s in range(1, n + 1):
            if rest[s - 1]:
                deleted = tuple(c - (t == s - 1) for t, c in enumerate(rest))
                pair = oracle_pair_polynomial(fam, order, l, word[idx], s)
                parts.append((rest[s - 1], mul(WeylElement(n, {(deleted, (0,) * n): 1}), pair)))
        out.append(linear_combination(n, parts))
    return out


def small_words(n: int, k: int):
    return list(product(range(1, n + 1), repeat=k))


def test_word_helpers():
    assert word_counts(3, (1, 3, 3, 2)) == (1, 1, 2)
    assert word_monomial(3, (1, 3, 3, 2)) == WeylElement(3, {((1, 1, 2), (0, 0, 0)): 1})
    with pytest.raises(IndexError):
        word_counts(2, (1, 3))


def test_symmetrized_product_small_cases():
    fam = random_family(2, 2, Fraction(1, 2), seed=21)
    gens = build_generators(fam, 4)
    g1, g2 = gens.generators
    assert e_tilde(word_monomial(gens.n, (2,)), gens) == g2
    x12 = e_tilde(word_monomial(gens.n, (1, 2)), gens)
    assert x12 == mul(g1, g2) + mul(g2, g1)
    assert x12 == e_tilde(word_monomial(gens.n, (2, 1)), gens)


def test_symmetrized_product_zero_family():
    gens = build_generators(random_family(2, 2, Fraction(0), seed=0), 4)
    word = (1, 2, 2)
    expected = word_monomial(2, word).scale(factorial(3))
    assert e_tilde(word_monomial(gens.n, word), gens) == expected


def test_multiset_recursion_equals_naive_enumeration():
    # exhaustive over every word where k! chains stay cheap, sampled above
    rng = SplitMix64(1001)
    for n, k, exhaustive in [
        (1, 3, True),
        (2, 2, True),
        (2, 3, True),
        (2, 4, False),
        (3, 3, True),
        (3, 4, False),
    ]:
        fam = random_family(n, 2, Fraction(1, 2), seed=rng.next_u64())
        gens = build_generators(fam, max(k - 1, 2))
        if exhaustive:
            words = small_words(n, k)
        else:
            words = [tuple(1 + rng.below(n) for _ in range(k)) for _ in range(3)]
        for word in words:
            oracle = oracle_permutation_sum(gens, word)
            fast = e_tilde(word_monomial(gens.n, word), gens)
            assert fast == oracle, (n, k, word)
            vac = ordering._vacuum_action(gens, word_counts(n, word))
            assert vac == fock_apply(oracle, weyl_scalar(n, 1))
            assert vac == fock_apply(fast, weyl_scalar(n, 1))


def test_word_recursion_calls_through_module_names(monkeypatch):
    # Every level of both recursions must reach the action and the entry
    # point through the module's names, so a rebinding (a tracer, a
    # counter) sees every call.
    import symorder.ordering as ordering

    calls: list = []

    def counted(name):
        original = getattr(ordering, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(ordering, name, wrapper)

    for name in ("_vacuum_action", "_operator_sum", "fock_apply", "mul"):
        counted(name)
    gens = build_generators(random_family(2, 1, Fraction(1), seed=3), 2)
    vac = ordering._vacuum_action(gens, word_counts(2, (1, 2)))
    op = e_tilde(word_monomial(gens.n, (1, 2)), gens)
    assert vac == fock_apply(op, weyl_scalar(2, 1))
    # S(1,1) -> S(0,1), S(1,0) -> S(0,0) twice (the second a cache hit):
    # five lookups and one action per letter of each state above the empty one
    assert calls.count("_vacuum_action") == calls.count("_operator_sum") == 5
    assert calls.count("fock_apply") == calls.count("mul") == 4


def test_long_words_need_no_python_recursion():
    # 600 letters nest far deeper than the interpreter's recursion limit
    word = (1,) * 600
    gens = build_generators(random_family(1, 1, seed=0), len(word) - 1)
    result = theorem_check(gens, word)
    assert result.passed
    op = e_tilde(word_monomial(gens.n, word), gens)
    assert op == WeylElement(1, {((600,), (0,)): factorial(600)})


def test_threads_sharing_a_generator_set_match_a_fresh_one():
    # half of each mirrored pair dropped, so most residuals are nonzero
    rng = SplitMix64(0x7EAD)
    dense = random_family(3, 2, Fraction(1), seed=rng.next_u64())
    fam = CoefficientFamily(3, 2, {key: v for key, v in dense.items() if key[2] < key[3]},
                            check_antisymmetry=False)
    words = [tuple(1 + rng.below(3) for _ in range(1 + rng.below(5))) for _ in range(24)]
    expected = [theorem_check(build_generators(fam, 4), w).residual for w in words]
    shared = build_generators(fam, 4)
    with ThreadPoolExecutor(max_workers=4) as pool:
        rounds = [pool.submit(lambda: [theorem_check(shared, w).residual for w in words])
                  for _ in range(4)]
        assert all(r.result() == expected for r in rounds)
    assert sum(not r.is_zero() for r in expected) > len(words) // 2


def test_theorem_check_passes_on_antisymmetric_families():
    rng = SplitMix64(321)
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3, 5):
            for n_max in (1, 3):
                fam = random_family(n, n_max, Fraction(1, 2), seed=rng.next_u64())
                gens = build_generators(fam, max(k - 1, n_max))
                word = tuple(1 + rng.below(n) for _ in range(k))
                result = theorem_check(gens, word)
                assert result.passed, (n, k, n_max, word, str(result.residual))
                assert result.residual.is_zero()
                assert result.word == word


def oracle_residual(gens: GeneratorSet, word) -> WeylElement:
    """e_tilde(word) |> 1 - k! * word monomial, from the literal permutation sum."""
    acted = fock_apply(oracle_permutation_sum(gens, word), weyl_scalar(gens.n, 1))
    return acted - word_monomial(gens.n, word).scale(factorial(len(word)))


def test_theorem_check_methods_agree():
    fam = random_family(2, 2, Fraction(1, 2), seed=77)
    gens = build_generators(fam, 3)
    for word in [(1,), (1, 1), (2, 1), (1, 2, 2), (2, 2, 1, 1)]:
        result = theorem_check(gens, word)
        assert result.passed
        assert str(result.residual) == str(oracle_residual(gens, word))
        # the operator-level product acts on the vacuum the same way
        acted = fock_apply(e_tilde(word_monomial(gens.n, word), gens), weyl_scalar(2, 1))
        assert acted == ordering._vacuum_action(gens, word_counts(2, word))
    with pytest.raises(ValueError):
        theorem_check(gens, ())


def test_theorem_k1_yields_bare_coordinate():
    # with a single factor every correction term differentiates the vacuum
    fam = random_family(3, 3, Fraction(1), seed=5)
    gens = build_generators(fam, 3)
    for i in (1, 2, 3):
        assert fock_apply(gens.generators[i - 1], weyl_scalar(3, 1)) == weyl_x(3, i)
        assert theorem_check(gens, (i,)).passed


def test_repeated_letter_words():
    fam = random_family(3, 2, Fraction(1, 2), seed=99)
    gens = build_generators(fam, 4)
    for word in [(1, 1), (2, 2, 2), (1, 1, 3), (3, 1, 3, 1), (2, 2, 2, 2, 2)]:
        assert theorem_check(gens, word).passed, word


def test_symmetric_control_family_fails():
    gens = build_generators(symmetric_control_family(), 1)
    result = theorem_check(gens, (1, 2))
    assert not result.passed
    assert result.residual == weyl_x(2, 1).scale(2)
    # the literal permutation sum reproduces the same residual
    assert oracle_residual(gens, (1, 2)) == result.residual


@pytest.mark.filterwarnings("error")
def test_truncation_lemma_every_cutoff_is_exact():
    # from k - 1 on, every cutoff D gives the untruncated residual; below it
    # the check is still exact for the truncated generators.  Half of each
    # mirrored pair is dropped from the second family, so residuals are nonzero.
    rng = SplitMix64(0x1E44A)
    nonzero = 0
    for _ in range(24):
        n, n_max, k = 1 + rng.below(3), 1 + rng.below(4), 1 + rng.below(4)
        fam = random_family(n, n_max, Fraction(1, 2), seed=rng.next_u64())
        broken = CoefficientFamily(n, n_max, {key: v for key, v in fam.items() if key[2] < key[3]},
                                   check_antisymmetry=False)
        word = tuple(1 + rng.below(n) for _ in range(k))
        for family in (fam, broken):
            full = theorem_check(build_generators(family, n_max), word).residual
            nonzero += not full.is_zero()
            for d in range(k - 1, n_max + 2):
                assert theorem_check(build_generators(family, d), word).residual == full
            for d in range(k - 1):
                gens = build_generators(family, d)
                assert theorem_check(gens, word).residual == oracle_residual(gens, word)
    assert nonzero
    # cutoff 1 below k - 1 = 2 drops nothing from an order-1 family
    fam = random_family(2, 1, seed=3)
    assert build_generators(fam, 1).generators == build_generators(fam, 2).generators
    assert theorem_check(build_generators(fam, 1), (1, 2, 1)).passed


def test_cancellation_worked_example():
    # n = 3, order 1, constants p_12 = 2, p_13 = 3, p_23 = 5 at l = 1;
    # word (1, 3, 3, 2).  Hand expansion of the per-position contributions:
    #   position 1 (letter 1): p_12 x3^2 + 2 p_13 x2 x3
    #   positions 2, 3 (letter 3): p_31 x2 x3 + p_32 x1 x3 each
    #   position 4 (letter 2): p_21 x3^2 + 2 p_23 x1 x3
    entries = {}
    for (i, j), v in {(1, 2): 2, (1, 3): 3, (2, 3): 5}.items():
        entries[(1, 1, i, j, (0, 0, 0))] = v
        entries[(1, 1, j, i, (0, 0, 0))] = -v
    fam = CoefficientFamily(3, 1, entries)
    word = (1, 3, 3, 2)
    terms = oracle_cancellation_terms(fam, word, 1, 1)
    x3sq = word_monomial(3, (3, 3))
    x2x3 = word_monomial(3, (2, 3))
    x1x3 = word_monomial(3, (1, 3))
    assert terms[0] == x3sq.scale(2) + x2x3.scale(6)
    assert terms[1] == x2x3.scale(-3) + x1x3.scale(-5)
    assert terms[2] == terms[1]
    assert terms[3] == x3sq.scale(-2) + x1x3.scale(10)
    total = cancellation_check(fam, word, 1, 1)
    assert total.is_zero()
    assert total == oracle_pair_total(fam, word, 1, 1)
    assert total == linear_combination(3, [(1, t) for t in terms])


def test_cancellation_zero_for_antisymmetric_families():
    rng = SplitMix64(606)
    for trial in range(40):
        n = 1 + rng.below(3)
        n_max = 1 + rng.below(3)
        fam = random_family(n, n_max, Fraction(1, 2), seed=rng.next_u64())
        k = 2 + rng.below(4)
        word = tuple(1 + rng.below(n) for _ in range(k))
        l = 1 + rng.below(n)
        order = 1 + rng.below(n_max)
        total = cancellation_check(fam, word, l, order)
        assert total.is_zero(), (trial, n, word, l, order)
        assert total == oracle_pair_total(fam, word, l, order)


def test_cancellation_terms_match_pair_oracle_even_when_broken():
    fam = symmetric_control_family()
    word = (1, 2, 2)
    total = cancellation_check(fam, word, 1, 1)
    assert total == oracle_pair_total(fam, word, 1, 1)
    assert not total.is_zero()


def test_cancellation_terms_match_the_scan_and_mul_route():
    # Every valid (l, order) of seeded families, antisymmetric and broken
    # (any slot, diagonal ones included, filled with the same probability),
    # on words with a repeated letter.
    rng = SplitMix64(0xCA9C)
    for n, n_max in product(range(1, 5), range(1, 4)):
        for sparsity in (Fraction(0), Fraction(1, 2), Fraction(1)):
            broken = {}
            for order in range(1, n_max + 1):
                for m in monomials_of_degree(n, order - 1):
                    for l, i, j in product(range(1, n + 1), repeat=3):
                        if rng.bernoulli(sparsity):
                            broken[(order, l, i, j, m)] = rng.rational()
            families = [random_family(n, n_max, sparsity, seed=rng.next_u64()),
                        CoefficientFamily(n, n_max, broken, check_antisymmetry=False)]
            for fam in families:
                word = tuple(1 + rng.below(n) for _ in range(1 + rng.below(5)))
                word = (word[-1],) + word
                for l, order in product(range(1, n + 1), range(1, n_max + 1)):
                    terms = oracle_cancellation_terms(fam, word, l, order)
                    total = cancellation_check(fam, word, l, order)
                    case = (n, n_max, sparsity, word, l, order)
                    assert total == linear_combination(n, [(1, t) for t in terms]), case
                    assert total == oracle_pair_total(fam, word, l, order), case


def test_cancellation_check_builds_one_element(monkeypatch):
    fam = random_family(3, 2, Fraction(1, 2), seed=0xC0DE)
    built = []

    def counted(*args):
        built.append(args)
        return _reduced(*args)

    monkeypatch.setattr(ordering, "_reduced", counted)
    rng = SplitMix64(0x1E77E5)
    long_word = tuple(1 + rng.below(3) for _ in range(3000))
    cancellation_check(fam, long_word, 1, 1)
    assert len(built) == 1
    monkeypatch.undo()
    assert cancellation_check(fam, long_word, 1, 1).is_zero()


def test_cancellation_is_sufficient_not_necessary():
    # p_11 = d2 and p_21 = -d1 at (order 2, l 1) are not antisymmetric, yet
    # their obstruction sum_ij t_i t_j p_ij(t) = t1 t1 t2 - t2 t1 t1 is zero:
    # every word up to length 6 passes while the pairwise sum does not cancel.
    fam = CoefficientFamily(2, 2, {(2, 1, 1, 1, (0, 1)): 1, (2, 1, 2, 1, (1, 0)): -1},
                            check_antisymmetry=False)
    gens = build_generators(fam, 5)
    words = [w for k in range(1, 7) for w in small_words(2, k)]
    assert len(words) == 126
    assert all(theorem_check(gens, w).passed for w in words)
    assert cancellation_check(fam, (1, 2), 1, 2) == WeylElement(2, {((0, 0), (1, 0)): -1})


def test_cancellation_argument_validation():
    fam = random_family(2, 1, Fraction(1, 2), seed=0)
    with pytest.raises(IndexError):
        cancellation_check(fam, (1, 2), 3, 1)
    with pytest.raises(ValueError):
        cancellation_check(fam, (1, 2), 1, 2)
    with pytest.raises(IndexError):
        cancellation_check(fam, (1, 5), 1, 1)


def test_e_tilde_basics():
    fam = random_family(2, 2, Fraction(1, 2), seed=31)
    gens = build_generators(fam, 5)
    assert e_tilde(weyl_scalar(2, 1), gens) == weyl_scalar(2, 1)
    g1, g2 = gens.generators
    assert e_tilde(word_monomial(2, (1, 2)), gens) == mul(g1, g2) + mul(g2, g1)
    # linearity
    p = WeylElement(2, {((2, 0), (0, 0)): Fraction(1, 3), ((0, 1), (0, 0)): -4})
    expected = e_tilde(word_monomial(2, (1, 1)), gens).scale(Fraction(1, 3)) - e_tilde(
        word_monomial(2, (2,)), gens
    ).scale(4)
    assert e_tilde(p, gens) == expected
    with pytest.raises(ValueError):
        e_tilde(WeylElement(2, {((1, 0), (1, 0)): 1}), gens)


def test_e_tilde_well_defined_under_letter_order():
    # the permutation sums of any reordering of a word coincide, which is
    # exactly what lets monomials (sorted words) index the map
    fam = random_family(3, 2, Fraction(1, 2), seed=17)
    gens = build_generators(fam, 4)
    for word in [(1, 2, 3), (3, 1, 2), (2, 1, 1), (1, 1, 2)]:
        base = oracle_permutation_sum(gens, tuple(sorted(word)))
        assert oracle_permutation_sum(gens, word) == base
        assert e_tilde(word_monomial(gens.n, word), gens) == base


def test_section_identity_on_random_polynomials():
    rng = SplitMix64(2025)
    for trial in range(30):
        n = 1 + rng.below(3)
        fam = random_family(n, 2, Fraction(1, 2), seed=rng.next_u64())
        gens = build_generators(fam, 6)
        terms = {}
        for _ in range(1 + rng.below(5)):
            exps = [0] * n
            for _ in range(rng.below(6)):
                exps[rng.below(n)] += 1
            if sum(exps) <= 5:
                terms[(tuple(exps), (0,) * n)] = rng.rational()
        p = WeylElement(n, terms)
        image = e_map(p, gens)
        assert pi_project(image) == p, trial
        # the d-free part is the vacuum action
        assert fock_apply(image, weyl_scalar(n, 1)) == p, trial
        # the unnormalized map scales each k-homogeneous piece by k!
        for (xexp, _d), coeff in p.items():
            mono = WeylElement(n, {(xexp, (0,) * n): coeff})
            acted = fock_apply(e_tilde(mono, gens), weyl_scalar(n, 1))
            assert acted == mono.scale(factorial(sum(xexp)))


def test_pi_project_examples():
    assert pi_project(WeylElement(2, {((1, 0), (1, 0)): 1})).is_zero()
    p = word_monomial(2, (1, 2))
    assert pi_project(p) == p
    mixed = p + WeylElement(2, {((0, 1), (2, 0)): Fraction(5, 2)})
    assert pi_project(mixed) == p
    # the d-free part equals the vacuum action a |> 1
    rng = SplitMix64(298)
    for trial in range(50):
        n = 1 + rng.below(3)
        terms = {}
        for _ in range(rng.below(6)):
            key = (tuple(rng.below(3) for _ in range(n)), tuple(rng.below(2) for _ in range(n)))
            terms[key] = rng.rational()
        a = WeylElement(n, terms)
        projected = pi_project(a)
        assert projected.is_polynomial(), trial
        assert projected == fock_apply(a, weyl_scalar(n, 1)), trial


def test_span_dimension_zero_family_and_k1():
    for n, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        gens = build_generators(random_family(n, 2, Fraction(0), seed=0), 2 * k)
        rank, sym = span_dimension(gens, k)
        assert rank == sym
    fam = random_family(3, 2, Fraction(1, 2), seed=12)
    gens = build_generators(fam, 2)
    assert span_dimension(gens, 1) == (3, 3)


def test_span_dimension_generic_excess():
    fam = random_family(2, 2, Fraction(1, 2), seed=3)
    gens = build_generators(fam, 4)
    rank, sym = span_dimension(gens, 2)
    assert sym == 3
    assert rank >= sym
    # deterministic for a fixed seed; the observed value for this family
    assert rank == 4
    again, _ = span_dimension(build_generators(fam, 4), 2)
    assert again == rank


def _reference_span_rows(gens: GeneratorSet, k: int) -> list[list[Fraction]]:
    """The span matrix the Fraction way: every word product multiplied out
    in full, truncated to the window once, and laid out as Fraction rows
    over the sorted union of the products' term keys."""
    window = gens.max_d_degree - (k - 1)
    terms = []
    for word in product(range(1, gens.n + 1), repeat=k):
        prod = weyl_scalar(gens.n, 1)
        for a in word:
            prod = mul(prod, gens.generators[a - 1])
        terms.append(dict(truncate(prod, window).items()))
    keys = sorted({key for t in terms for key in t})
    index = {key: pos for pos, key in enumerate(keys)}
    rows = []
    for t in terms:
        row = [Fraction(0)] * len(keys)
        for key, c in t.items():
            row[index[key]] = c
        rows.append(row)
    return rows


def test_span_rows_are_scaled_reference_rows(monkeypatch):
    captured = []

    def capture(rows):
        captured.append(rows)
        return exact_rank(rows)

    monkeypatch.setattr(ordering, "exact_rank", capture)
    rng = SplitMix64(606)
    cells = [(2, 2), (2, 3), (3, 2), (2, 4)]
    cases = []
    for trial in range(40):
        n, k = cells[trial % len(cells)]
        fam = random_family(n, 1 + rng.below(2), Fraction(1, 2), seed=rng.next_u64())
        cases.append((n, k, fam))
    cases += [(n, k, random_family(n, 2, Fraction(0), seed=0)) for n, k in cells]
    cases += [(2, k, symmetric_control_family()) for k in (2, 3)]
    # table-derived families are rank-deficient at k = 3 (sl2 27 x 559 at
    # rank 19, Heisenberg 27 x 40 at rank 13), so the certificate runs on them
    cases += [(3, 3, derived_family(table, 6)) for table in (sl2_table(), heisenberg_table())]
    for n, k, fam in cases:
        gens = build_generators(fam, 2 * k)
        captured.clear()
        rank, _ = span_dimension(gens, k)
        (rows,) = captured
        reference = _reference_span_rows(gens, k)
        assert len(rows) == len(reference) == n**k
        for row, ref in zip(rows, reference):
            assert len(row) == len(ref)
            assert all(type(v) is int for v in row)
            pivot = next(j for j, v in enumerate(ref) if v)
            scale = row[pivot] / ref[pivot]
            assert scale > 0 and scale.denominator == 1, (n, k, scale)
            assert row == [scale * v for v in ref], (n, k)
        assert rank == exact_rank(rows) == oracle_rank(reference), (n, k)
        assert bareiss_rank(rows) == rank, (n, k)


def test_span_dimension_window_validation():
    fam = random_family(2, 1, Fraction(1, 2), seed=1)
    gens = build_generators(fam, 1)
    with pytest.raises(ValueError):
        span_dimension(gens, 3)
    with pytest.raises(ValueError):
        span_dimension(gens, 0)
