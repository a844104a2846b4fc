"""Coefficient-family invariants and generator assembly."""

from fractions import Fraction
from math import comb

import pytest

from symorder.generators import (
    CoefficientFamily,
    build_generators,
    monomials_of_degree,
    random_family,
    symmetric_control_family,
)
from symorder.lie import derived_family, heisenberg_table
from symorder.rng import SplitMix64
from symorder.weyl import WeylElement, mul, weyl_d, weyl_x


def _reference_build_generators(family: CoefficientFamily, max_d_degree: int) -> list:
    """Independent oracle: one full scan of the family per generator index,
    each X_i assembled as x_i plus a canonicalized correction element."""
    n = family.n
    gens = []
    for i in range(1, n + 1):
        terms: dict = {}
        for (order, l, ii, j, m), v in family.items():
            if ii != i or order > max_d_degree:
                continue
            xexp = tuple(1 if t == l - 1 else 0 for t in range(n))
            dexp = tuple(e + (1 if t == j - 1 else 0) for t, e in enumerate(m))
            terms[(xexp, dexp)] = terms.get((xexp, dexp), Fraction(0)) + v
        gens.append(weyl_x(n, i) + WeylElement(n, terms))
    return gens


def _colliding_family(rng: SplitMix64, n: int, n_max: int) -> tuple[CoefficientFamily, int, tuple]:
    """A random antisymmetric family (n >= 3, n_max >= 2) rewritten so that
    (N, l, i, j, mu - e_j) and (N, l, i, j2, mu - e_j2) hold opposite values
    and no other entry lands on the generator key (x_l, d^mu) of X_i: the
    colliding keys cancel there.  Returns (family, i, key)."""
    entries = dict(random_family(n, n_max, Fraction(rng.below(5), 4), rng.next_u64()).items())
    order = 2 + rng.below(n_max - 1)
    l, i = 1 + rng.below(n), 1 + rng.below(n)
    others = [j for j in range(1, n + 1) if j != i]
    j = others[rng.below(len(others))]
    j2 = others[(others.index(j) + 1 + rng.below(len(others) - 1)) % len(others)]
    mu = [0] * n
    for _ in range(order - 2):
        mu[rng.below(n)] += 1
    mu[j - 1] += 1
    mu[j2 - 1] += 1
    v = rng.rational()
    for jj in others:
        m = tuple(e - (t == jj - 1) for t, e in enumerate(mu))
        w = {j: v, j2: -v}.get(jj)
        for key, value in (((order, l, i, jj, m), w), ((order, l, jj, i, m), w and -w)):
            if w is None:
                entries.pop(key, None)
            else:
                entries[key] = value
    key = (tuple(int(t == l - 1) for t in range(n)), tuple(mu))
    return CoefficientFamily(n, n_max, entries), i, key


def test_monomials_of_degree():
    assert monomials_of_degree(2, 0) == [(0, 0)]
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    for n in (1, 2, 3):
        for d in range(4):
            ms = monomials_of_degree(n, d)
            assert len(ms) == comb(n + d - 1, d)
            assert ms == sorted(ms)
            assert all(sum(m) == d for m in ms)
    with pytest.raises(ValueError):
        monomials_of_degree(2, -1)


def test_family_invariant_enforcement():
    good = {(1, 1, 1, 2, (0, 0)): 1, (1, 1, 2, 1, (0, 0)): -1}
    fam = CoefficientFamily(2, 1, good)
    assert fam.is_antisymmetric()
    assert fam.get(1, 1, 1, 2, (0, 0)) == 1
    # homogeneity: order-1 entries need degree-0 monomials
    with pytest.raises(ValueError):
        CoefficientFamily(2, 2, {(1, 1, 1, 2, (1, 0)): 1})
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, {(2, 1, 1, 2, (1, 0)): 1})
    with pytest.raises(IndexError):
        CoefficientFamily(2, 1, {(1, 3, 1, 2, (0, 0)): 1})
    # broken antisymmetry rejected unless explicitly allowed
    sym = {(1, 1, 1, 2, (0, 0)): 1, (1, 1, 2, 1, (0, 0)): 1}
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, sym)
    loose = CoefficientFamily(2, 1, sym, check_antisymmetry=False)
    assert not loose.is_antisymmetric()
    # nonzero diagonal is an antisymmetry failure too
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, {(1, 1, 1, 1, (0, 0)): 1})
    # zero values are dropped
    assert CoefficientFamily(2, 1, {(1, 1, 1, 2, (0, 0)): 0}).entry_count() == 0


def test_family_polynomial_accessor():
    entries = {
        (2, 1, 1, 2, (1, 0)): Fraction(3),
        (2, 1, 1, 2, (0, 1)): Fraction(-1, 2),
        (2, 1, 2, 1, (1, 0)): Fraction(-3),
        (2, 1, 2, 1, (0, 1)): Fraction(1, 2),
    }
    fam = CoefficientFamily(2, 2, entries)
    p = fam.polynomial(2, 1, 1, 2)
    assert p == weyl_d(2, 1).scale(3) - weyl_d(2, 2).scale(Fraction(1, 2))
    assert p.x_degree() <= 0
    assert fam.polynomial(1, 1, 1, 2).is_zero()


def test_random_family_determinism_and_shape():
    a = random_family(3, 2, Fraction(1, 2), seed=42)
    b = random_family(3, 2, Fraction(1, 2), seed=42)
    assert a == b
    assert a.is_antisymmetric()
    for (order, l, i, j, m), v in a.items():
        assert 1 <= order <= 2
        assert 1 <= l <= 3 and 1 <= i <= 3 and 1 <= j <= 3 and i != j
        assert sum(m) == order - 1
        assert v != 0 and abs(v) <= 9
    assert a != random_family(3, 2, Fraction(1, 2), seed=43)


def test_random_family_edge_cases():
    assert random_family(2, 2, Fraction(0), seed=5).entry_count() == 0
    # antisymmetry on a single index forces the empty family
    for seed in range(5):
        assert random_family(1, 3, Fraction(1), seed=seed).entry_count() == 0
    full = random_family(2, 1, Fraction(1), seed=0)
    assert full.entry_count() == 4  # l in {1,2} times the mirrored (1,2) pair
    with pytest.raises(ValueError):
        random_family(2, 1, Fraction(3, 2), seed=0)


def test_symmetric_control_family():
    fam = symmetric_control_family()
    assert not fam.is_antisymmetric()
    assert fam.get(1, 1, 1, 2, (0, 0)) == 1
    assert fam.get(1, 1, 2, 1, (0, 0)) == 1
    assert fam.entry_count() == 2


def test_build_generators_zero_family():
    fam = random_family(3, 2, Fraction(0), seed=1)
    gens = build_generators(fam, 3)
    for i in (1, 2, 3):
        assert gens.generator(i) == weyl_x(3, i)


def test_build_generators_heisenberg_derived():
    fam = derived_family(heisenberg_table(), 2)
    gens = build_generators(fam, 2)
    x1, x2, x3 = (weyl_x(3, i) for i in (1, 2, 3))
    assert gens.generator(1) == x1 + mul(x3, weyl_d(3, 2)).scale(Fraction(1, 2))
    assert gens.generator(2) == x2 - mul(x3, weyl_d(3, 1)).scale(Fraction(1, 2))
    assert gens.generator(3) == x3


def test_build_generators_structure():
    fam = random_family(3, 3, Fraction(1, 2), seed=8)
    gens = build_generators(fam, 3)
    zero3 = (0, 0, 0)
    for i in (1, 2, 3):
        g = gens.generator(i)
        # every term multiplies exactly one x; the d-free part is x_i itself
        for (xexp, dexp), coeff in g.items():
            assert sum(xexp) == 1
            if not any(dexp):
                assert xexp == tuple(1 if t == i - 1 else 0 for t in range(3))
                assert coeff == 1
        assert g.coefficient(tuple(1 if t == i - 1 else 0 for t in range(3)), zero3) == 1


def test_build_generators_x_degree_one_fuzzed():
    # X_i has x-degree 1 whatever the family and cutoff.
    rng = SplitMix64(1245)
    for trial in range(40):
        n = 1 + rng.below(4)
        n_max = 1 + rng.below(3)
        sparsity = Fraction(rng.below(5), 4)
        gens = build_generators(random_family(n, n_max, sparsity, rng.next_u64()), rng.below(5))
        for g in gens.generators:
            assert g.x_degree() == 1, trial


def test_build_generators_truncation_drops_high_orders():
    fam = random_family(2, 3, Fraction(1), seed=13)
    low = build_generators(fam, 1)
    sub_entries = {key: v for key, v in fam.items() if key[0] <= 1}
    sub = CoefficientFamily(2, 3, sub_entries)
    again = build_generators(sub, 1)
    for i in (1, 2):
        assert low.generator(i) == again.generator(i)
        assert low.generator(i).d_degree() <= 1
    with pytest.raises(ValueError):
        build_generators(fam, -1)


def test_build_generators_matches_reference_builder():
    rng = SplitMix64(0xB11D)
    families = [(symmetric_control_family(), None)]
    for _ in range(40):
        fam, i, key = _colliding_family(rng, 3 + rng.below(2), 2 + rng.below(2))
        families.append((fam, (i, key)))
        n = 1 + rng.below(4)
        families.append((random_family(n, 1 + rng.below(3), Fraction(rng.below(5), 4),
                                       rng.next_u64()), None))
    for trial, (fam, collision) in enumerate(families):
        for cutoff in range(fam.n_max + 2):
            got = build_generators(fam, cutoff).generators
            ref = _reference_build_generators(fam, cutoff)
            assert [g.sorted_terms() for g in got] == [r.sorted_terms() for r in ref], trial
            for g in got:
                assert all(type(c) is Fraction and c != 0 for _key, c in g.items()), trial
            if collision:
                i, (xexp, dexp) = collision
                assert (xexp, dexp) not in dict(got[i - 1].items()), trial


def test_generator_index_range():
    gens = build_generators(random_family(2, 1, Fraction(1, 2), seed=3), 1)
    with pytest.raises(IndexError):
        gens.generator(0)
    with pytest.raises(IndexError):
        gens.generator(3)
