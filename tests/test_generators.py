"""Coefficient-family invariants and generator assembly."""

import copy
import pickle
from fractions import Fraction
from math import comb, gcd

import pytest

from symorder.generators import (
    CoefficientFamily,
    GeneratorSet,
    build_generators,
    monomials_of_degree,
    random_family,
    symmetric_control_family,
)
from symorder.lie import (
    derived_family,
    direct_sum,
    heisenberg_table,
    random_almost_abelian_table,
    sl2_table,
)
from symorder.ordering import theorem_check
from symorder.rng import SplitMix64
from symorder.weyl import WeylElement, fock_apply, mul, weyl_d, weyl_scalar, weyl_x


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


def _reference_random_family(n: int, n_max: int, sparsity: Fraction, seed: int) -> dict:
    """Independent oracle for `random_family`'s stream: one `bernoulli` and,
    on success, one `rational` draw per (N, l, i < j, m) slot, in loop order;
    returns the entry dict, mirrors inserted right after their slot."""
    rng = SplitMix64(seed)
    entries = {}
    for order in range(1, n_max + 1):
        monomials = monomials_of_degree(n, order - 1)
        for l in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for m in monomials:
                        if rng.bernoulli(sparsity):
                            v = rng.rational()
                            entries[(order, l, i, j, m)] = v
                            entries[(order, l, j, i, m)] = -v
    return entries


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
    assert dict(CoefficientFamily(2, 1, good).items()) == good
    # homogeneity: order-1 entries need degree-0 monomials
    with pytest.raises(ValueError):
        CoefficientFamily(2, 2, {(1, 1, 1, 2, (1, 0)): 1})
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, {(2, 1, 1, 2, (1, 0)): 1})
    with pytest.raises(IndexError):
        CoefficientFamily(2, 1, {(1, 3, 1, 2, (0, 0)): 1})
    # a non-integral exponent is refused, not truncated to (1, 0)
    with pytest.raises(TypeError):
        CoefficientFamily(2, 2, {(2, 1, 1, 2, (1.9, 0)): 1, (2, 1, 2, 1, (1.9, 0)): -1})
    # broken antisymmetry rejected unless explicitly allowed
    sym = {(1, 1, 1, 2, (0, 0)): 1, (1, 1, 2, 1, (0, 0)): 1}
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, sym)
    loose = CoefficientFamily(2, 1, sym, check_antisymmetry=False)
    assert dict(loose.items()) == sym
    # nonzero diagonal is an antisymmetry failure too
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, {(1, 1, 1, 1, (0, 0)): 1})
    # zero values are dropped
    assert list(CoefficientFamily(2, 1, {(1, 1, 1, 2, (0, 0)): 0}).items()) == []


def test_random_family_determinism_and_shape():
    a = random_family(3, 2, Fraction(1, 2), seed=42)
    b = random_family(3, 2, Fraction(1, 2), seed=42)
    assert a == b
    assert CoefficientFamily(3, 2, dict(a.items())) == a
    for (order, l, i, j, m), v in a.items():
        assert 1 <= order <= 2
        assert 1 <= l <= 3 and 1 <= i <= 3 and 1 <= j <= 3 and i != j
        assert sum(m) == order - 1
        assert v != 0 and abs(v) <= 9
    assert a != random_family(3, 2, Fraction(1, 2), seed=43)


def test_random_family_edge_cases():
    assert list(random_family(2, 2, Fraction(0), seed=5).items()) == []
    # antisymmetry on a single index forces the empty family
    for seed in range(5):
        assert list(random_family(1, 3, Fraction(1), seed=seed).items()) == []
    full = random_family(2, 1, Fraction(1), seed=0)
    assert len(dict(full.items())) == 4  # l in {1,2} times the mirrored (1,2) pair
    with pytest.raises(ValueError):
        random_family(2, 1, Fraction(3, 2), seed=0)


def test_random_family_matches_reference_stream():
    # same draws, same entries and the same insertion order as one
    # bernoulli() and rational() call per slot
    seeds = SplitMix64(0xF00D)
    for n in range(1, 6):
        for n_max in range(1, 5):
            for sparsity in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                for _ in range(40):
                    seed = seeds.next_u64()
                    fam = random_family(n, n_max, sparsity, seed)
                    ref = _reference_random_family(n, n_max, sparsity, seed)
                    assert fam._entries == ref, (n, n_max, sparsity, seed)
                    assert list(fam._entries) == list(ref), (n, n_max, sparsity, seed)


def test_random_family_shares_reduced_values():
    # each distinct (magnitude, sign, denominator) draw is built once, as a
    # reduced Fraction v and its mirror -v
    fam = random_family(4, 3, Fraction(1), seed=11)
    for (order, l, i, j, m), v in fam.items():
        assert type(v) is Fraction and v
        assert gcd(v.numerator, v.denominator) == 1 and v.denominator > 0
        assert fam._entries[(order, l, j, i, m)] == -v
    values = [v for _, v in fam.items()]
    assert len({id(v) for v in values}) <= 2 * 9 * 2 * 4 < len(values)


def test_random_family_matches_validating_constructor():
    # random_family skips the constructor's checks; rebuilding each family
    # through them must give the same entries, in the same order
    rng = SplitMix64(2024)
    for trial in range(90):
        sparsity = (Fraction(0), Fraction(1, 2), Fraction(1))[trial % 3]
        n, n_max = 1 + rng.below(4), 1 + rng.below(3)
        fam = random_family(n, n_max, sparsity, seed=rng.next_u64())
        checked = CoefficientFamily(n, n_max, dict(fam.items()))
        assert fam == checked
        assert list(fam.items()) == list(checked.items())
        assert all(type(v) is Fraction and v for _, v in fam.items())
        d = rng.below(n_max + 2)
        assert build_generators(fam, d).generators == build_generators(checked, d).generators
    for n, n_max in ((0, 1), (2, 0), (-1, -1)):
        with pytest.raises(ValueError):
            random_family(n, n_max, Fraction(1, 2), seed=0)


def test_symmetric_control_family():
    fam = symmetric_control_family()
    assert dict(fam.items()) == {(1, 1, 1, 2, (0, 0)): 1, (1, 1, 2, 1, (0, 0)): 1}
    with pytest.raises(ValueError):
        CoefficientFamily(2, 1, dict(fam.items()))


def test_build_generators_zero_family():
    fam = random_family(3, 2, Fraction(0), seed=1)
    gens = build_generators(fam, 3)
    for i in (1, 2, 3):
        assert gens.generators[i - 1] == weyl_x(3, i)


def test_build_generators_heisenberg_derived():
    fam = derived_family(heisenberg_table(), 2)
    gens = build_generators(fam, 2)
    x1, x2, x3 = (weyl_x(3, i) for i in (1, 2, 3))
    assert gens.generators == (x1 + mul(x3, weyl_d(3, 2)).scale(Fraction(1, 2)),
                               x2 - mul(x3, weyl_d(3, 1)).scale(Fraction(1, 2)), x3)


def test_build_generators_structure():
    fam = random_family(3, 3, Fraction(1, 2), seed=8)
    gens = build_generators(fam, 3)
    zero3 = (0, 0, 0)
    for i in (1, 2, 3):
        g = gens.generators[i - 1]
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
    assert low.generators == again.generators
    assert all(g.d_degree() <= 1 for g in low.generators)
    with pytest.raises(ValueError):
        build_generators(fam, -1)


def test_build_generators_matches_reference_builder():
    rng = SplitMix64(0xB11D)
    families = [(symmetric_control_family(), None), (CoefficientFamily(3, 2), None)]
    for _ in range(40):
        fam, i, key = _colliding_family(rng, 3 + rng.below(2), 2 + rng.below(2))
        families.append((fam, (i, key)))
        n = 1 + rng.below(4)
        families.append((random_family(n, 1 + rng.below(3), Fraction(rng.below(5), 4),
                                       rng.next_u64()), None))
    # Bernoulli-series families: their denominators make the integer route's
    # lcm large (28 bits or more for sl2 + almost-abelian at D = 10)
    tables = [sl2_table(), heisenberg_table()]
    tables += [direct_sum(sl2_table(), random_almost_abelian_table(k, seed)) for k, seed in
               ((2, 1), (3, 2), (4, 3))]
    for sc in tables:
        for d in (1, 4, 10):
            families.append((derived_family(sc, d), None))
    for trial, (fam, collision) in enumerate(families):
        for cutoff in range(fam.n_max + 2):
            got = build_generators(fam, cutoff).generators
            ref = _reference_build_generators(fam, cutoff)
            assert [g.sorted_terms() for g in got] == [r.sorted_terms() for r in ref], trial
            # equal fields: one reduced denominator and the same numerators
            assert list(got) == ref, trial
            assert [g._den for g in got] == [r._den for r in ref], trial
            for g in got:
                assert all(type(c) is Fraction and c != 0 for _key, c in g.items()), trial
            if collision:
                i, (xexp, dexp) = collision
                assert (xexp, dexp) not in dict(got[i - 1].items()), trial
    assert max(g._den for g in build_generators(derived_family(tables[-1], 10), 10).generators
               ).bit_length() >= 28


def test_value_types_pickle_and_copy():
    def round_trips(value):
        return [pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)]

    elements = [WeylElement(2), weyl_x(2, 1).scale(Fraction(-3, 7)) + weyl_d(2, 2).scale(Fraction(5, 6))]
    for a in elements:
        for b in round_trips(a):
            assert type(b) is WeylElement and b == a and b.sorted_terms() == a.sorted_terms()
            assert mul(b, b) == mul(a, a) and b.scale(6) == a.scale(6)
            with pytest.raises(AttributeError):
                b.n = 3
    control = symmetric_control_family()
    for fam in round_trips(control):
        assert fam == control
        with pytest.raises(ValueError):
            CoefficientFamily(fam.n, fam.n_max, dict(fam.items()))
        with pytest.raises(AttributeError):
            fam.n_max = 2
    sl2 = sl2_table()
    for sc in round_trips(sl2):
        assert sc == sl2 and sc.validate() == []
        with pytest.raises(AttributeError):
            sc._table = {}
    gens = build_generators(random_family(3, 2, seed=4), 2)
    sent = pickle.loads(pickle.dumps(gens))
    assert (sent.n, sent.max_d_degree, sent.generators) == (gens.n, gens.max_d_degree,
                                                            gens.generators)
    one = weyl_scalar(3, 1)
    assert [fock_apply(g, one) for g in sent.generators] == [weyl_x(3, i) for i in range(1, 4)]


@pytest.mark.parametrize("n,cutoff,generators", [
    (2, 1, ()),                                  # no generators
    (2, 1, (weyl_x(2, 1),)),                     # fewer than n
    (2, 1, (weyl_x(2, 1), weyl_x(3, 2))),        # one of dimension 3
    (2, -1, (weyl_x(2, 1), weyl_x(2, 2))),       # a negative cutoff
    (0, 1, ()),                                  # n below 1
])
def test_generator_set_rejects_shapes_the_word_recursion_cannot_use(n, cutoff, generators):
    # Each shape was accepted with no check; theorem_check on the empty set
    # then failed with a bare IndexError inside the word recursion.
    with pytest.raises(ValueError):
        GeneratorSet(n, cutoff, generators)


def test_generator_set_accepts_its_shape():
    gens = GeneratorSet(2, 1, (weyl_x(2, 1), weyl_x(2, 2)))
    assert gens.generators == (weyl_x(2, 1), weyl_x(2, 2)) and gens.max_d_degree == 1
    assert theorem_check(gens, (1, 2)).passed


def test_generator_set_is_immutable_and_round_trips():
    gens = build_generators(random_family(3, 2, seed=5), 3)
    for name, value in (("n", 4), ("max_d_degree", 1), ("generators", ()), ("_word_cache", {})):
        with pytest.raises(AttributeError):
            setattr(gens, name, value)
    with pytest.raises(AttributeError):
        gens.extra = 1
    assert type(gens._word_cache) is dict
    for copied in (pickle.loads(pickle.dumps(gens)), copy.deepcopy(gens)):
        assert (copied.n, copied.max_d_degree) == (gens.n, gens.max_d_degree)
        assert copied.generators == gens.generators
        with pytest.raises(AttributeError):
            copied.max_d_degree = 0
