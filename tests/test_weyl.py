"""Kernel laws for the Weyl algebra arithmetic and the Fock action."""

import copy
import pickle
import sys
import threading
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, perm

import pytest

import symorder.weyl as weyl
from symorder.rng import SplitMix64
from symorder.weyl import (
    DimensionMismatchError,
    WeylElement,
    fock_apply,
    format_term,
    linear_combination,
    mul,
    truncate,
    weyl_d,
    weyl_scalar,
    weyl_x,
)


def _reference_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Independent oracle: the normal-ordering product on Fraction coefficients.

    Every term pair is expanded with d^b x^c = sum_t C(b,t) C(c,t) t! x^(c-t) d^(b-t)
    and accumulated as Fractions, with no shared denominator and no cache.
    """
    n = a.n
    out: dict = {}
    for (xa, da), ca in a.items():
        for (xb, db), cb in b.items():
            for t in product(*(range(min(p, q) + 1) for p, q in zip(da, xb))):
                f = 1
                for ti, dai, xbi in zip(t, da, xb):
                    f *= comb(dai, ti) * comb(xbi, ti) * factorial(ti)
                key = (
                    tuple(p + q - ti for p, q, ti in zip(xa, xb, t)),
                    tuple(p + q - ti for p, q, ti in zip(da, db, t)),
                )
                out[key] = out.get(key, Fraction(0)) + ca * cb * f
    return WeylElement(n, out)


def _reference_fock_apply(a: WeylElement, p: WeylElement) -> WeylElement:
    """Independent oracle: the Fock action accumulated as Fractions.

    x^a d^b sends x^c to prod_i c_i! / (c_i - b_i)! * x^(a + c - b) when
    b <= c, else to 0; no shared denominator and no memoized operand form.
    """
    out: dict = {}
    for (mexp, mz), q in p.items():
        if any(mz):
            raise ValueError("target must be a polynomial")
        for (xexp, dexp), c in a.items():
            if any(d > m for d, m in zip(dexp, mexp)):
                continue
            f = 1
            for d, m in zip(dexp, mexp):
                f *= perm(m, d)
            key = (tuple(x + m - d for x, m, d in zip(xexp, mexp, dexp)), mz)
            out[key] = out.get(key, Fraction(0)) + c * q * f
    return WeylElement(a.n, out)


def random_element(rng: SplitMix64, n: int, terms: int = 4, max_exp: int = 3) -> WeylElement:
    """A sparse element with per-coordinate exponents <= max_exp."""
    data = {}
    for _ in range(terms):
        xexp = tuple(rng.below(max_exp + 1) for _ in range(n))
        dexp = tuple(rng.below(max_exp + 1) for _ in range(n))
        data[(xexp, dexp)] = rng.rational()
    return WeylElement(n, data)


def random_poly(rng: SplitMix64, n: int, terms: int = 3, max_exp: int = 3) -> WeylElement:
    data = {}
    for _ in range(terms):
        xexp = tuple(rng.below(max_exp + 1) for _ in range(n))
        data[(xexp, (0,) * n)] = rng.rational()
    return WeylElement(n, data)


def degrees(a: WeylElement) -> tuple[int, int]:
    """Max total x-degree and max total d-degree over a's terms; -1 each for zero."""
    keys = [key for key, _c in a.items()]
    return (max((sum(x) for x, _d in keys), default=-1),
            max((sum(d) for _x, d in keys), default=-1))


def assert_canonical(a: WeylElement) -> None:
    # one denominator, sharing no factor with all the numerators, is what
    # lets == compare the stored fields directly
    assert a._den >= 1 and gcd(a._den, *a._nums.values()) == 1
    for (xexp, dexp), coeff in a.items():
        assert type(coeff) is Fraction and coeff != 0
        assert len(xexp) == a.n and len(dexp) == a.n
        assert all(e >= 0 for e in xexp) and all(e >= 0 for e in dexp)


def test_generator_constructors():
    assert dict(weyl_x(2, 1).items()) == {((1, 0), (0, 0)): Fraction(1)}
    assert dict(weyl_d(2, 2).items()) == {((0, 0), (0, 1)): Fraction(1)}
    assert weyl_scalar(3, 0).is_zero()
    assert dict(weyl_scalar(3, Fraction(2, 3)).items()) == {
        ((0, 0, 0), (0, 0, 0)): Fraction(2, 3)
    }
    with pytest.raises(IndexError):
        weyl_x(2, 3)
    with pytest.raises(IndexError):
        weyl_d(2, 0)


def test_add_and_scale():
    x1 = weyl_x(2, 1)
    assert dict((x1 + x1).items()) == {((1, 0), (0, 0)): Fraction(2)}
    assert (x1 + x1.scale(-1)).is_zero()
    assert dict(weyl_d(2, 1).scale(Fraction(1, 2)).items()) == {
        ((0, 0), (1, 0)): Fraction(1, 2)
    }
    with pytest.raises(DimensionMismatchError):
        weyl_x(2, 1) + weyl_x(3, 1)


def _oracle_linear(*parts) -> dict:
    """sum of c * terms over the (c, terms) parts, on plain Fraction dicts,
    zeros dropped: the oracle for +, -, scale and the constructor."""
    out: dict = {}
    for c, terms in parts:
        for key, v in terms.items():
            out[key] = out.get(key, Fraction(0)) + Fraction(c) * Fraction(v)
    return {key: v for key, v in out.items() if v}


def test_linear_ops_match_fraction_oracle():
    rng = SplitMix64(0x5CA1E)
    for trial in range(320):
        n = 1 + rng.below(4)
        a = random_element(rng, n, terms=1 + rng.below(6))
        b = random_element(rng, n, terms=1 + rng.below(6))
        shape = trial % 4
        if shape == 0:
            # b cancels a in full
            b = a.scale(-1)
        elif shape == 1:
            # b cancels some of a's terms and adds others
            b = b + WeylElement(n, {key: -v for key, v in a.items() if rng.below(2)})
        elif shape == 2:
            # denominators beyond the generator's 1..4, up to 35
            a = a.scale(Fraction(1, 1 + rng.below(35)))
            b = b.scale(Fraction(1 + rng.below(5), 1 + rng.below(35)))
        ta, tb = dict(a.items()), dict(b.items())
        k = rng.below(7) - 3
        c = -Fraction(1 + rng.below(9), 1 + rng.below(35))
        d = rng.below(5)
        raw = {key: (v if rng.below(2) else v.numerator) for key, v in tb.items()}
        raw[((0,) * n, (1,) * n)] = 0
        cases = [
            (a + b, _oracle_linear((1, ta), (1, tb))),
            (a - b, _oracle_linear((1, ta), (-1, tb))),
            (a.scale(k), _oracle_linear((k, ta))),
            (a.scale(c), _oracle_linear((c, ta))),
            (a.scale(0), {}),
            (truncate(a, d), {key: v for key, v in ta.items() if sum(key[1]) <= d}),
            (WeylElement(n, raw), _oracle_linear((1, raw))),
        ]
        for got, want in cases:
            assert got.sorted_terms() == sorted(want.items()), trial
            assert_canonical(got)
        if shape == 0:
            assert (a + b).is_zero() and a + b == WeylElement(n), trial
        # one value reached by different routes is one element
        assert a.scale(Fraction(1, 6)) + a.scale(Fraction(5, 6)) == a, trial
        assert a + b - b == a and b - b == WeylElement(n), trial
        assert a.scale(c).scale(1 / c) == a == WeylElement(n, ta), trial


def test_relation_laws_exhaustive():
    for n in range(1, 5):
        one = weyl_scalar(n, 1)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                xi, xj = weyl_x(n, i), weyl_x(n, j)
                di, dj = weyl_d(n, i), weyl_d(n, j)
                assert mul(xi, xj) == mul(xj, xi)
                assert mul(di, dj) == mul(dj, di)
                bracket = mul(dj, xi) - mul(xi, dj)
                expected = one if i == j else weyl_scalar(n, 0)
                assert bracket == expected, (n, i, j)


def test_mul_defining_examples():
    x1, x2 = weyl_x(2, 1), weyl_x(2, 2)
    d1 = weyl_d(2, 1)
    assert mul(d1, x1) == mul(x1, d1) + weyl_scalar(2, 1)
    assert mul(d1, x2) == mul(x2, d1)
    # d1^2 * x1 = x1 d1^2 + 2 d1, checked against the Fock-application oracle
    # on the monomials x1^m, m <= 4.
    lhs = mul(mul(d1, d1), x1)
    rhs = mul(x1, mul(d1, d1)) + d1.scale(2)
    assert lhs == rhs
    for m in range(5):
        target = WeylElement(2, {((m, 0), (0, 0)): 1})
        assert fock_apply(lhs, target) == fock_apply(rhs, target)


def test_mul_matches_reference_kernel():
    rng = SplitMix64(0x5EED)
    for trial in range(360):
        n = 1 + rng.below(4)
        shape = trial % 5
        if shape == 0:
            # c(x^u + d^v) * c(x^u - d^v): the x^u d^v terms cancel inside mul
            u = tuple(rng.below(3) for _ in range(n))
            v = [rng.below(3) for _ in range(n)]
            v[rng.below(n)] += 1
            v = tuple(v)
            c = rng.rational()
            a = WeylElement(n, {(u, (0,) * n): c, ((0,) * n, v): c})
            b = WeylElement(n, {(u, (0,) * n): c, ((0,) * n, v): -c})
        elif shape == 1:
            a, b = random_element(rng, n), WeylElement(n)
            if rng.below(2):
                a, b = b, a
        elif shape == 2:
            # d-only times x-only: the most contraction terms per pair
            a = WeylElement(n, {((0,) * n, d): c for (_x, d), c in random_element(rng, n).items()})
            b = random_poly(rng, n)
        else:
            a = random_element(rng, n, terms=1 + rng.below(5))
            b = random_element(rng, n, terms=1 + rng.below(5))
            if shape == 3:
                # denominators beyond the generator's 1..4
                a = a.scale(Fraction(1, 1 + rng.below(12)))
                b = b.scale(Fraction(7, 6 + rng.below(30)))
        before = (repr(a), repr(b))
        got = mul(a, b)
        assert got.sorted_terms() == _reference_mul(a, b).sorted_terms(), trial
        # a repeated product changes neither the operands nor the result
        assert mul(a, b) == got and (repr(a), repr(b)) == before, trial
        assert all(type(coeff) is Fraction for _key, coeff in got.items()), trial
        if shape == 0:
            assert got.coefficient(u, v) == 0, trial
        if shape == 1:
            assert got.is_zero()
        info = weyl._contractions.cache_info()
        assert info.currsize <= info.maxsize


def _falling(m, v) -> int:
    """prod_i m_i! / (m_i - v_i)!, the weight d^v puts on x^m."""
    f = 1
    for mi, vi in zip(m, v):
        f *= perm(mi, vi)
    return f


def test_fock_apply_matches_reference_kernel():
    rng = SplitMix64(0xF0C4)
    for trial in range(360):
        n = 1 + rng.below(4)
        shape = trial % 5
        if shape == 0:
            # two terms of a send x^m to the same monomial x^(m + s) with
            # opposite weights: c * m!/(m-v)! + c2 * m!/(m-v2)! == 0
            m = tuple(1 + rng.below(3) for _ in range(n))
            v = tuple(rng.below(e + 1) for e in m)
            v2 = list(v)
            pos = rng.below(n)
            v2[pos] = (v2[pos] + 1) % (m[pos] + 1)
            v2 = tuple(v2)
            s = tuple(rng.below(2) for _ in range(n))
            c = rng.rational()
            c2 = -c * _falling(m, v) / _falling(m, v2)
            a = WeylElement(n, {(tuple(map(sum, zip(v, s))), v): c,
                                (tuple(map(sum, zip(v2, s))), v2): c2})
            p = WeylElement(n, {(m, (0,) * n): rng.rational()})
        elif shape == 1:
            a, p = random_element(rng, n), random_poly(rng, n)
            if rng.below(2):
                a = WeylElement(n)
            else:
                p = WeylElement(n)
        else:
            a = random_element(rng, n, terms=1 + rng.below(6))
            p = random_poly(rng, n, terms=1 + rng.below(5))
            if shape == 2:
                # denominators beyond the generator's 1..4, up to 35
                a = a.scale(Fraction(1, 1 + rng.below(12)))
                p = p.scale(Fraction(7, 6 + rng.below(30)))
        before = (repr(a), repr(p))
        got = fock_apply(a, p)
        assert got.sorted_terms() == _reference_fock_apply(a, p).sorted_terms(), trial
        # a repeated action changes neither the operands nor the result
        assert fock_apply(a, p) == got and (repr(a), repr(p)) == before, trial
        assert all(type(coeff) is Fraction for _key, coeff in got.items()), trial
        assert got.is_polynomial(), trial
        if shape == 0:
            assert got.coefficient(tuple(map(sum, zip(m, s))), (0,) * n) == 0, trial
        if shape == 1:
            assert got.is_zero(), trial
    # a zero operator still rejects a target with d's in it
    for n in (1, 3):
        with pytest.raises(ValueError):
            fock_apply(WeylElement(n), weyl_d(n, 1) + weyl_scalar(n, 1))


def test_shared_operand_across_threads():
    # Four threads apply the same shared generators to the same shared
    # polynomials at the same time; each thread must see exactly the serial
    # results, so elements are safe to share.
    rng = SplitMix64(0x7EAD)
    n = 3
    gens = [random_element(rng, n, terms=6).scale(Fraction(1, 1 + i)) for i in range(150)]
    polys = [random_poly(rng, n, terms=4).scale(Fraction(1, 1 + i)) for i in range(4)]

    def fresh(e: WeylElement) -> WeylElement:
        return WeylElement(e.n, dict(e.items()))

    expected = [fock_apply(fresh(g), fresh(p)).sorted_terms() for g in gens for p in polys]
    barrier = threading.Barrier(4)
    results: list = [None] * 4

    def work(slot: int) -> None:
        out = []
        for g in gens:
            barrier.wait(timeout=10)  # all four reach each fresh element together
            out.extend(fock_apply(g, p).sorted_terms() for p in polys)
        results[slot] = out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


def _dense_operator(rng: SplitMix64, n: int, top: int) -> WeylElement:
    """x_i d^e with a random i and coefficient for every e with |e| <= top: its
    d-parts fill their box, as a generator's do."""
    terms = {}
    for e in product(range(top + 1), repeat=n):
        if sum(e) <= top:
            i = rng.below(n)
            terms[tuple(int(j == i) for j in range(n)), e] = rng.rational()
    return WeylElement(n, terms)


def _box_count(bounds, cap) -> int:
    return sum(1 for e in product(*(range(t + 1) for t in bounds)) if sum(e) <= cap)


def _check_plan(a: WeylElement, plan: tuple) -> None:
    """Every invariant of a's Fock plan ``(top, mask, box, rows, groups)``."""
    n, width, field = a.n, weyl._WIDTH, weyl._FIELD
    top, mask, box, rows, groups = plan
    assert top >> width == max((sum(x) + sum(d) for (x, d), _c in a.items()), default=0)
    # each group holds, as stored, the terms of its one d-part; every term of
    # a appears in exactly one group
    stored = [term for terms in groups.values() for term in terms]
    assert sorted(stored) == sorted(a._nums.items())
    d_mask = weyl._d_mask(n)
    for dpart, terms in groups.items():
        assert {k & d_mask for k, _c in terms} == {dpart}
    # the box: x_i's field bounds every exponent of d_i, the bottom field is
    # the top d-degree, and the mask covers the x fields of the bounded axes
    dexps = [weyl._unpack(n, dpart)[1] for dpart in groups]
    bounds = weyl._unpack(n, box)[0]
    cap = max(map(sum, dexps), default=0)
    assert box & (d_mask | weyl._TOTAL) == 0 and box & field == cap
    assert all(e <= t for dexp in dexps for e, t in zip(dexp, bounds))
    assert all(t == 0 for i, t in enumerate(bounds) if not any(d[i] for d in dexps))
    assert mask & (d_mask | weyl._LOW) == 0
    assert weyl._unpack(n, mask)[0] == tuple(field if t else 0 for t in bounds)
    # looked up iff more than two d-parts fill at least half of the box
    assert (rows is None) == (2 < len(groups) and _box_count(bounds, cap) <= 2 * len(groups))
    if rows is not None:
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)
        want = []
        for dpart, dexp in zip(groups, dexps):
            fields = tuple(((2 * n + 1 - i) * width, e) for i, e in reversed(list(enumerate(dexp))) if e)
            shift = sum(e * weyl._unit(n, i) for i, e in enumerate(dexp))
            want.append((sum(dexp), shift, fields, groups[dpart]))
        assert sorted(rows, key=lambda r: r[:2]) == sorted(want, key=lambda r: r[:2])


def test_fock_plan_is_filled_once_and_reused():
    # One operator acts on several targets in turn: the first action fills
    # its plan, the later ones reuse it, and every action matches the oracle.
    rng = SplitMix64(0xF0C5)
    routes = set()
    for trial in range(60):
        n = 1 + trial % 4
        a = random_element(rng, n, terms=1 + rng.below(8))
        if trial % 3 == 0:
            # every term has d-degree >= 2: targets of degree <= 1 meet no
            # group
            a = mul(a, mul(weyl_d(n, 1), weyl_d(n, 1)))
        elif trial % 5 == 1:
            a = WeylElement(n)
        elif trial % 3 == 2:
            a = _dense_operator(rng, n, 1 + trial % 3)
        targets = [random_poly(rng, n, terms=1 + rng.below(4)) for _ in range(3)]
        targets += [weyl_scalar(n, rng.rational()), weyl_x(n, 1 + rng.below(n)), WeylElement(n)]
        assert not hasattr(a, "_fock"), trial
        plan = None
        for p in targets:
            got = fock_apply(a, p)
            assert got.sorted_terms() == _reference_fock_apply(a, p).sorted_terms(), trial
            plan = plan or a._fock
            assert a._fock is plan, trial
        _check_plan(a, plan)
        routes.add(plan[3] is None)
        if trial % 3 == 0:
            assert min(k & weyl._FIELD for k in a._nums) >= 2, trial
            assert fock_apply(a, targets[-3]).is_zero() and fock_apply(a, targets[-2]).is_zero()
    assert routes == {True, False}


def test_fock_routes_keep_divisor_lists_within_the_operator():
    # A sparse operator of high d-degree is scanned and adds no list; a
    # looked-up operator's lists never pass twice its d-parts; the cache is
    # queried only by the axes the operator differentiates.
    n = 6
    lone = WeylElement(n, {((1,) + (0,) * (n - 1), (10,) * n): 3})
    target = WeylElement(n, {((10,) * n, (0,) * n): 2, ((10,) * 5 + (9,), (0,) * n): 1})
    before = weyl._divisors.cache_info()
    got = fock_apply(lone, target)
    assert weyl._divisors.cache_info() == before  # neither a hit nor a miss
    assert lone._fock[3] is not None
    assert got.sorted_terms() == _reference_fock_apply(lone, target).sorted_terms()
    rng = SplitMix64(0xB0C5)
    for n, top in ((1, 3), (2, 4), (3, 3), (4, 2)):
        a = _dense_operator(rng, n, top)
        fock_apply(a, weyl_scalar(n, 1))
        _top_a, mask, box, rows, groups = a._fock
        assert rows is None, n
        for _ in range(6):
            p = random_poly(rng, n, terms=3, max_exp=top + 2)
            assert fock_apply(a, p).sorted_terms() == _reference_fock_apply(a, p).sorted_terms()
            for kp in p._nums:
                assert len(weyl._divisors(kp & mask | n, box)) <= 2 * len(groups), n
    # d_1 alone: targets that differ off axis 1 share one query
    n = 3
    a = WeylElement(n, {((0, j, 0), (e, 0, 0)): 1 + e for e in range(4) for j in range(2)})
    fock_apply(a, weyl_scalar(n, 1))
    _top_a, mask, box, rows, _groups = a._fock
    assert rows is None
    keys = {weyl._pack((2, y, z), (0,) * n) & mask | n for y in range(3) for z in range(3)}
    assert len(keys) == 1
    p = WeylElement(n, {((2, y, z), (0,) * n): y + z + 1 for y in range(3) for z in range(3)})
    misses = weyl._divisors.cache_info().misses
    assert fock_apply(a, p).sorted_terms() == _reference_fock_apply(a, p).sorted_terms()
    assert weyl._divisors.cache_info().misses <= misses + 1


def test_fock_box_counts_its_d_parts():
    rng = SplitMix64(0xB0C6)
    for trial in range(120):
        n = 1 + trial % 4
        bounds = tuple(rng.below(6) for _ in range(n))
        cap = rng.below(3 * n + 2)
        dbits = weyl._pack((0,) * n, bounds) & weyl._d_mask(n)
        mask, box, size = weyl._fock_box(dbits, cap, n)
        assert size == _box_count(bounds, cap), trial
        assert weyl._unpack(n, box)[0] == bounds and box & weyl._FIELD == cap
        assert weyl._unpack(n, mask)[0] == tuple(weyl._FIELD if t else 0 for t in bounds)
    # past the limit a box counts as inf, so no operator looks it up
    dbits = weyl._pack((0, 0), (300, 300)) & weyl._d_mask(2)
    assert weyl._fock_box(dbits, 600, 2)[2] == float("inf")
    assert weyl._fock_box(dbits, 200, 2)[2] == _box_count((300, 300), 200)


def test_filled_plan_still_checks_every_target():
    limit = weyl._FIELD
    for n in (1, 3):
        zeros = (0,) * (n - 1)
        a = WeylElement(n, {((limit - 5,) + zeros, (1,) + zeros): 1})  # total limit - 4
        assert fock_apply(a, weyl_x(n, 1)) == WeylElement(n, {((limit - 5,) + zeros, (0,) * n): 1})
        assert hasattr(a, "_fock")
        fits = WeylElement(n, {((4,) + zeros, (0,) * n): 1})
        assert fock_apply(a, fits).sorted_terms() == _reference_fock_apply(a, fits).sorted_terms()
        with pytest.raises(OverflowError):
            fock_apply(a, WeylElement(n, {((5,) + zeros, (0,) * n): 1}))
        with pytest.raises(ValueError):
            fock_apply(a, weyl_d(n, 1))
        with pytest.raises(DimensionMismatchError):
            fock_apply(a, weyl_x(n + 1, 1))


def test_filled_plan_element_pickles_and_copies():
    rng = SplitMix64(0xC0DE)
    n = 3
    a = random_element(rng, n, terms=6).scale(Fraction(1, 7))
    polys = [random_poly(rng, n, terms=1 + rng.below(4)) for _ in range(4)]
    want = [fock_apply(a, p) for p in polys]
    fresh = WeylElement(n, dict(a.items()))
    assert a == fresh and repr(a) == repr(fresh)
    assert [fock_apply(fresh, p) for p in polys] == want
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert not hasattr(copied, "_fock")  # a copy builds its own plan
        assert copied == fresh and repr(copied) == repr(fresh)
        assert [fock_apply(copied, p) for p in polys] == want


def test_fock_apply_with_many_axes_matches_reference():
    # Terms carry one to three nonzero axes among n = 64 or 200, so the
    # plan and `_divisors` walk only a few of the n x fields.
    rng = SplitMix64(0x64C8)
    for n in (64, 200):
        for trial in range(8):
            axes = sorted({0, n - 1} | {rng.below(n) for _ in range(3)})

            def sparse(top):
                t = [0] * n
                for _ in range(1 + rng.below(3)):
                    t[axes[rng.below(len(axes))]] += 1 + rng.below(top)
                return tuple(t)

            a = WeylElement(n, {(sparse(2), sparse(2)): rng.rational() for _ in range(1 + rng.below(6))})
            zero = (0,) * n
            p = WeylElement(n, {(sparse(3), zero): rng.rational() for _ in range(1 + rng.below(4))})
            p = p + WeylElement(n, {(tuple(2 * (i in axes) for i in range(n)), zero): rng.rational()})
            got = fock_apply(a, p)
            assert got.sorted_terms() == _reference_fock_apply(a, p).sorted_terms(), (n, trial)
            _top_a, mask, box, _rows, _groups = a._fock
            bounds, cap = weyl._unpack(n, box)[0], box & weyl._FIELD
            for (mexp, _z), _c in p.items():
                # every d^e with e <= m inside the box, once, with its shift
                # and factor, whichever route a takes
                listed = weyl._divisors(weyl._pack(mexp, zero) & mask | n, box)
                dexps = [weyl._unpack(n, dpart)[1] for dpart, _shift, _f in listed]
                assert sorted(dexps) == [e for e in product(*(range(min(m, t) + 1)
                                                              for m, t in zip(mexp, bounds)))
                                         if sum(e) <= cap], (n, trial)
                for (dpart, shift, f), dexp in zip(listed, dexps):
                    assert dpart == weyl._pack(zero, dexp) & weyl._d_mask(n)
                    assert shift == sum(e * weyl._unit(n, i) for i, e in enumerate(dexp))
                    assert f == _falling(mexp, dexp)


def test_fock_apply_matches_reference_on_divisor_edge_shapes():
    # Each target term meets the operator's terms through its divisors d^e,
    # e <= m, |e| up to the operator's top d-degree, looked up or scanned:
    # the shapes below are where either route could stop early, run past
    # the cap or misplace a term.  Besides the Fraction oracle, each result
    # is checked against the product kernel: x^a d^b x^c has d-free part
    # c!/(c-b)! x^(a+c-b) when b <= c and none otherwise, so the Fock action
    # is `mul` capped at d-degree 0.
    rng = SplitMix64(0xD1F150)
    limit = weyl._FIELD
    routes = set()
    for trial in range(240):
        n, shape = 1 + trial % 4, trial // 4 % 6
        zero = (0,) * n

        def exps(top, axes=n):
            return tuple(rng.below(top + 1) if i < axes else 0 for i in range(n))

        if shape == 0:
            # a sparse operator of d-degree up to 16 on targets of degree up to 40
            a = WeylElement(n, {(exps(2), exps(8, 2)): rng.rational() for _ in range(1 + rng.below(3))})
            p = random_poly(rng, n, terms=2 + rng.below(5), max_exp=10)
        elif shape == 1:
            a = random_poly(rng, n, terms=1 + rng.below(5))  # d-free
            p = random_poly(rng, n, terms=1 + rng.below(5))
        elif shape == 2:
            a, p = random_element(rng, n), random_poly(rng, n)
            if trial % 8 < 4:
                a = WeylElement(n)
            else:
                p = WeylElement(n)
        elif shape == 3:
            # every d-part has degree >= 3, every target term degree <= 2
            a = mul(random_element(rng, n, terms=1 + rng.below(5)), mul(weyl_d(n, 1), weyl_d(n, n)))
            a = mul(a, weyl_d(n, 1 + rng.below(n)))
            p = random_poly(rng, n, terms=1 + rng.below(4), max_exp=2)
            p = truncate_degree(p, 2)
        elif shape == 4:
            a = random_element(rng, n, terms=1 + rng.below(6))
            if trial % 2:
                a = _dense_operator(rng, n, 1 + rng.below(3))
            p = weyl_scalar(n, 1 if trial % 8 < 4 else rng.rational())
        else:
            # target terms of total degree up to limit - 4 on one or two axes,
            # and an operator of total degree <= 4
            a = random_element(rng, n, terms=1 + rng.below(4), max_exp=1)
            a = truncate_degree(a, 4) if trial % 2 else _dense_operator(rng, n, 1 + rng.below(3))
            p = WeylElement(n, {((limit - 4 - j,) + zero[1:], zero) if n == 1 or not j
                                else ((limit - 4 - j, j) + zero[2:], zero): rng.rational()
                                for j in range(1 + rng.below(3))})
        got = fock_apply(a, p)
        assert got.sorted_terms() == _reference_fock_apply(a, p).sorted_terms(), (trial, shape)
        assert got == mul(a, p, max_d_degree=0), (trial, shape)
        routes.add(a._fock[3] is None)
        assert got.is_polynomial(), trial
        assert_canonical(got)
        if shape in (2, 3):
            assert got.is_zero(), trial
        if shape == 4:
            # only the d-free terms survive on a scalar target
            d_free = WeylElement(n, {key: c for key, c in a.items() if not any(key[1])})
            assert got == d_free.scale(p.coefficient(zero, zero)), trial
    assert routes == {True, False}
    # sparse boxes of high d-degree, which are scanned, and one-axis operators
    # d_i^0..d_i^top, looked up once top >= 2, on targets whose terms sit on a
    # d-part of the operator or up to two below or above it on each axis
    six = (0,) * 6
    operators = [
        WeylElement(2, {((1, 0), (10, 10)): 3, ((0, 2), (10, 10)): Fraction(-1, 2)}),
        WeylElement(6, {((0, 1) + six[2:], (6, 6) + six[2:]): 5, ((1,) + six[1:], six): 1}),
        WeylElement(6, {((1,) + six[1:], (3,) * 6): Fraction(2, 3)}),
    ]
    for trial in range(16):
        n, i, top = 1 + trial % 4, rng.below(1 + trial % 4), trial // 4 + 1
        operators.append(WeylElement(n, {(tuple(rng.below(3) for _ in range(n)),
                                          tuple(e if j == i else 0 for j in range(n))): rng.rational()
                                         for e in range(top + 1)}))
    routes = set()
    for a in operators:
        dexps = [dexp for (_xexp, dexp), _c in a.items()]
        for _ in range(4):
            near = [tuple(max(e + rng.below(5) - 2, 0) for e in dexps[rng.below(len(dexps))])
                    for _ in range(2 + rng.below(4))]
            p = WeylElement(a.n, {(m, (0,) * a.n): rng.rational() for m in near + [dexps[0]]})
            got = fock_apply(a, p)
            assert got.sorted_terms() == _reference_fock_apply(a, p).sorted_terms(), a
            assert got == mul(a, p, max_d_degree=0), a
        routes.add(a._fock[3] is None)
    assert all(a._fock[3] is not None for a in operators[:3]) and routes == {True, False}


def truncate_degree(a: WeylElement, top: int) -> WeylElement:
    """The terms of a of total degree at most top."""
    return WeylElement(a.n, {key: c for key, c in a.items() if sum(key[0]) + sum(key[1]) <= top})


def test_associativity_random_triples():
    rng = SplitMix64(2024)
    for trial in range(200):
        n = 1 + rng.below(3)
        a = random_element(rng, n)
        b = random_element(rng, n)
        c = random_element(rng, n)
        assert mul(mul(a, b), c) == mul(a, mul(b, c)), trial


def test_action_compatibility_random():
    rng = SplitMix64(515)
    for trial in range(200):
        n = 1 + rng.below(3)
        a = random_element(rng, n)
        b = random_element(rng, n)
        p = random_poly(rng, n)
        assert fock_apply(mul(a, b), p) == fock_apply(a, fock_apply(b, p)), trial


def test_bilinearity():
    rng = SplitMix64(77)
    for _ in range(50):
        n = 1 + rng.below(3)
        a, b, c = (random_element(rng, n) for _ in range(3))
        p, q = random_poly(rng, n), random_poly(rng, n)
        s = rng.rational()
        assert mul(a + b, c) == mul(a, c) + mul(b, c)
        assert mul(a, b + c) == mul(a, b) + mul(a, c)
        assert mul(a.scale(s), b) == mul(a, b).scale(s)
        assert fock_apply(a + b, p) == fock_apply(a, p) + fock_apply(b, p)
        assert fock_apply(a, p + q) == fock_apply(a, p) + fock_apply(a, q)
        assert fock_apply(a.scale(s), p) == fock_apply(a, p).scale(s)


def _wide_element(rng: SplitMix64, n: int, top: int, big_x: bool) -> WeylElement:
    """A sparse element on n axes with one term of total degree top.

    That term carries top - 2 on one x field (big_x) or one d field; every
    other exponent is at most 2, so x-heavy left and d-heavy right operands
    reorder cheaply.
    """
    data = {}
    for _ in range(1 + rng.below(4)):
        xexp = tuple(rng.below(3) for _ in range(n))
        dexp = tuple(rng.below(3) for _ in range(n))
        data[(xexp, dexp)] = rng.rational()
    xexp, dexp = [0] * n, [0] * n
    (xexp if big_x else dexp)[rng.below(n)] = top - 2
    xexp[rng.below(n)] += 1
    dexp[rng.below(n)] += 1
    data[(tuple(xexp), tuple(dexp))] = rng.rational()
    return WeylElement(n, data)


def test_packed_kernel_matches_oracles_up_to_six_axes():
    # mul, fock_apply, truncate and + on packed keys against the Fraction
    # oracles, for n = 1..6, with terms just under the key limit among them
    limit = weyl._FIELD
    rng = SplitMix64(0x9AC4ED)
    for trial in range(300):
        n = 1 + trial % 6
        if trial % 3 == 0:
            # a product whose top terms sit just under (or at) the limit
            top_a = 13 + rng.below(limit // 2)
            a = _wide_element(rng, n, top_a, big_x=True)
            b = _wide_element(rng, n, limit - top_a - rng.below(3), big_x=False)
            p = random_poly(rng, n, terms=1 + rng.below(4))
            p = p + WeylElement(n, {((limit - top_a,) + (0,) * (n - 1), (0,) * n): rng.rational()})
        else:
            a = random_element(rng, n, terms=1 + rng.below(6))
            b = random_element(rng, n, terms=1 + rng.below(6))
            p = random_poly(rng, n, terms=1 + rng.below(5))
        d = rng.below(5)
        ta, tb = dict(a.items()), dict(b.items())
        cases = [
            (mul(a, b), _reference_mul(a, b).sorted_terms()),
            (fock_apply(a, p), _reference_fock_apply(a, p).sorted_terms()),
            (truncate(a, d), sorted((k, v) for k, v in ta.items() if sum(k[1]) <= d)),
            (a + b, sorted(_oracle_linear((1, ta), (1, tb)).items())),
        ]
        for got, want in cases:
            assert got.sorted_terms() == want, (trial, n)
            assert_canonical(got)
            for (xexp, dexp), coeff in want:
                assert got.coefficient(xexp, dexp) == coeff, trial
        assert degrees(a) == (max(sum(x) for x, _d in ta), max(sum(d) for _x, d in ta))
        for fn in (weyl._contractions, weyl._divisors, weyl._fock_box):
            info = fn.cache_info()
            assert info.currsize <= info.maxsize


def _bucketed_operands(rng: SplitMix64, n: int, shape: int) -> tuple[WeylElement, WeylElement]:
    """Operands for one bucket case of `mul`: 0 a left operand with d-free
    terms, 1 d-parts and x-parts on disjoint axes (no contraction past
    t = 0), 2 few shared d-parts and x-parts with many contractions each,
    3 an empty operand, 4 unshaped."""
    def element(xs, ds, terms):
        return WeylElement(n, {(xs[rng.below(len(xs))], ds[rng.below(len(ds))]): rng.rational()
                               for _ in range(terms)})

    def parts(count, axes, top):
        return [tuple(rng.below(top + 1) if i in axes else 0 for i in range(n))
                for _ in range(count)]

    every = set(range(n))
    if shape == 0:
        a = random_poly(rng, n, terms=1 + rng.below(4)) + random_element(rng, n, terms=rng.below(3))
        return a, random_element(rng, n, terms=1 + rng.below(5))
    if shape == 1:
        left = {i for i in range(n) if rng.below(2)}
        a = element(parts(4, every, 2), parts(1 + rng.below(3), left, 3), 1 + rng.below(6))
        b = element(parts(1 + rng.below(3), every - left, 3), parts(4, every, 2), 1 + rng.below(6))
        return a, b
    if shape == 2:
        a = element(parts(5, every, 2), parts(1 + rng.below(2), every, 3), 2 + rng.below(6))
        b = element(parts(1 + rng.below(2), every, 3), parts(5, every, 2), 2 + rng.below(6))
        return a.scale(Fraction(1, 1 + rng.below(9))), b
    a, b = random_element(rng, n, terms=1 + rng.below(5)), random_element(rng, n, terms=1 + rng.below(5))
    if shape == 3:
        pick = rng.below(3)
        return (WeylElement(n) if pick != 1 else a), (WeylElement(n) if pick != 0 else b)
    return a, b


def test_bucketed_mul_matches_reference_up_to_six_axes():
    rng = SplitMix64(0xB0C4E7)
    seen = set()
    for trial in range(300):
        n = 1 + trial % 6
        shape = trial // 6 % 5
        a, b = _bucketed_operands(rng, n, shape)
        got = mul(a, b)
        assert got.sorted_terms() == _reference_mul(a, b).sorted_terms(), (trial, n, shape)
        assert_canonical(got)
        d_mask = weyl._d_mask(n)
        left = weyl._buckets(a._nums, d_mask)
        right = weyl._buckets(b._nums, d_mask << n * weyl._WIDTH)
        assert sorted(t for ts in left.values() for t in ts) == sorted(a._nums.items())
        assert sorted(t for ts in right.values() for t in ts) == sorted(b._nums.items())
        for da in left:
            for xb in right:
                rest = weyl._contractions(da | xb | n)
                seen.add((shape, "d-free" if not da else "multi" if len(rest) > 1
                          else "single" if rest else "t=0 only"))
                if shape == 1:
                    assert rest == (), trial
        if left and right and min(max(map(len, left.values())), max(map(len, right.values()))) > 1:
            seen.add((shape, "shared buckets"))
        if shape == 3:
            assert got.is_zero()
    assert {(0, "d-free"), (1, "t=0 only"), (2, "single"), (2, "multi"),
            (2, "shared buckets")} <= seen
    info = weyl._contractions.cache_info()
    assert info.currsize <= info.maxsize


def _commutator_operands(rng: SplitMix64, n: int, shape: int) -> tuple[WeylElement, WeylElement]:
    """Operands for one `_commutator` case, exponents <= 4 and denominators
    past the generator's 1..4: 0 a d-free left operand, 1 operands on
    disjoint axes, 2 one operand twice, 3 a zero operand, 4 unshaped."""
    a = random_element(rng, n, terms=1 + rng.below(6), max_exp=4).scale(Fraction(1, 1 + rng.below(12)))
    b = random_element(rng, n, terms=1 + rng.below(6), max_exp=4).scale(Fraction(7, 6 + rng.below(30)))
    if shape == 0:
        return random_poly(rng, n, terms=1 + rng.below(4), max_exp=4).scale(Fraction(5, 3 + rng.below(9))), b
    if shape == 1:
        axes = {i for i in range(n) if rng.below(2)}

        def on(e, keep):
            return WeylElement(n, {(tuple(v if i in keep else 0 for i, v in enumerate(x)),
                                    tuple(v if i in keep else 0 for i, v in enumerate(d))): c
                                   for (x, d), c in e.items()})

        return on(a, axes), on(b, set(range(n)) - axes)
    if shape == 2:
        return a, a
    if shape == 3:
        return (WeylElement(n), b) if rng.below(2) else (a, WeylElement(n))
    return a, b


def test_commutator_matches_two_products():
    rng = SplitMix64(0xC0AA)
    nonzero = set()
    for trial in range(300):
        n = 1 + trial % 6
        shape = trial // 6 % 5
        a, b = _commutator_operands(rng, n, shape)
        got = weyl._commutator(a, b)
        # not `mul`, which shares `_contract` with `_commutator`
        want = _reference_mul(a, b) - _reference_mul(b, a)
        assert (got._den, got._nums) == (want._den, want._nums), (trial, n, shape)
        assert_canonical(got)
        assert weyl._commutator(b, a) == -got, trial
        if shape in (1, 2, 3):
            assert got.is_zero(), (trial, shape)
        elif got:
            nonzero.add(shape)
    assert nonzero == {0, 4}
    # at the key limit a commutator still fits: [x1^(limit-2) d1, x1] = x1^(limit-2)
    limit = weyl._FIELD
    edge = WeylElement(1, {((limit - 2,), (1,)): 1})
    assert weyl._commutator(edge, weyl_x(1, 1)) == WeylElement(1, {((limit - 2,), (0,)): 1})


def test_commutator_checks_its_operands_before_any_work(monkeypatch):
    limit = weyl._FIELD
    big = WeylElement(2, {((limit - 1, 0), (1, 0)): 1})  # total == limit
    work = []
    monkeypatch.setattr(weyl, "_buckets", lambda *args: work.append(args))
    monkeypatch.setattr(weyl, "_contractions", lambda *args: work.append(args))
    with pytest.raises(DimensionMismatchError):
        weyl._commutator(weyl_x(2, 1), weyl_d(3, 1))
    for a, b in ((big, weyl_x(2, 1)), (weyl_d(2, 2), big)):
        with pytest.raises(OverflowError):
            weyl._commutator(a, b)
    assert work == []


def _image_like(rng: SplitMix64, n: int, top: int) -> WeylElement:
    """An x-degree-1 operand shaped like an embedding image built to d-degree
    top: x_i plus terms x_l d^m with 1 <= |m| <= top."""
    def x(i):
        return tuple(int(j == i) for j in range(n))

    terms = {(x(rng.below(n)), (0,) * n): 1}
    for _ in range(1 + rng.below(6)):
        m = [0] * n
        for _ in range(1 + rng.below(top)):
            m[rng.below(n)] += 1
        terms[(x(rng.below(n)), tuple(m))] = rng.rational()
    return WeylElement(n, terms)


def test_capped_products_match_truncated_reference():
    rng = SplitMix64(0xCA9)
    seen = set()
    for trial in range(120):
        n = 1 + trial % 4
        if trial // 4 % 2:
            top = 1 + rng.below(5)
            a, b = _image_like(rng, n, top), _image_like(rng, n, top)
        else:
            a = random_element(rng, n, terms=1 + rng.below(6), max_exp=3)
            b = random_element(rng, n, terms=1 + rng.below(6), max_exp=3)
        product_ab, product_ba = _reference_mul(a, b), _reference_mul(b, a)
        tops = degrees(a)[1] + degrees(b)[1]
        for d in range(tops + 2):
            assert mul(a, b, max_d_degree=d) == truncate(product_ab, d), (trial, d)
            got = weyl._commutator(a, b, max_d_degree=d)
            assert got == truncate(product_ab - product_ba, d), (trial, d)
            assert_canonical(got)
            seen.add("capped" if d < tops else "cannot drop")
        d_mask = weyl._d_mask(n)
        for da in weyl._buckets(a._nums, d_mask):
            for xb in weyl._buckets(b._nums, d_mask << n * weyl._WIDTH):
                rest = weyl._contractions(da | xb | n)
                if rest and (rest[0][0] & weyl._FIELD) < (rest[-1][0] & weyl._FIELD):
                    seen.add("several orders" if n == 1 else "several orders, several axes")
    assert seen == {"capped", "cannot drop", "several orders", "several orders, several axes"}


def test_uncappable_product_neither_sorts_nor_skips(monkeypatch):
    a = WeylElement(2, {((1, 0), (2, 1)): 3, ((0, 2), (0, 1)): -1})
    b = WeylElement(2, {((2, 1), (1, 0)): Fraction(1, 2), ((1, 0), (0, 0)): 5})
    want, want_commutator = mul(a, b), weyl._commutator(a, b)

    def fail(*args, **kwargs):
        raise AssertionError("the cap cannot drop a term here")

    # module globals shadow the builtin, so a sort in weyl fails too
    monkeypatch.setattr(weyl, "sorted", fail, raising=False)
    monkeypatch.setattr(weyl, "bisect_right", fail)
    assert mul(a, b, max_d_degree=4) == want
    assert weyl._commutator(a, b, max_d_degree=4) == want_commutator
    with pytest.raises(AssertionError):
        mul(a, b, max_d_degree=3)


def test_capped_product_sorts_each_right_operand_once(monkeypatch):
    a = WeylElement(2, {((1, 0), (2, 1)): 3, ((0, 2), (0, 1)): -1, ((1, 1), (0, 0)): 2})
    b = WeylElement(2, {((2, 1), (1, 0)): Fraction(1, 2), ((1, 0), (0, 2)): 5})
    want, want_commutator = mul(a, b, max_d_degree=2), weyl._commutator(a, b, max_d_degree=2)
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    # module globals shadow the builtin, so every sort in weyl is counted
    monkeypatch.setattr(weyl, "sorted", counting_sorted, raising=False)
    assert mul(a, b, max_d_degree=2) == want
    assert len(calls) == 1  # b, once: `_contract` takes it already in order
    calls.clear()
    assert weyl._commutator(a, b, max_d_degree=2) == want_commutator
    assert len(calls) == 2  # b for the (a, b) turn, a for the (-b, a) turn


def test_cap_is_keyword_only_and_checked_before_any_work(monkeypatch):
    a, b = weyl_d(2, 1), weyl_x(2, 1)
    for product_of in (mul, weyl._commutator):
        with pytest.raises(TypeError):
            product_of(a, b, 3)

    def fail(*args):
        raise AssertionError("no work before the cap is checked")

    monkeypatch.setattr(weyl, "_contract", fail)
    for product_of in (mul, weyl._commutator):
        with pytest.raises(ValueError, match="truncation order"):
            product_of(a, b, max_d_degree=-1)


def test_linear_combination_matches_fraction_oracle():
    rng = SplitMix64(0x11C0)
    for trial in range(300):
        n = 1 + rng.below(4)
        parts = []
        for _ in range(rng.below(5)):
            pick = rng.below(5)
            c = (0 if pick == 0 else 1 + rng.below(7) - 4 if pick == 1
                 else Fraction(rng.below(9) - 4, 1 + rng.below(35)))
            a = WeylElement(n) if rng.below(6) == 0 else random_element(rng, n, 1 + rng.below(5))
            parts.append((c, a))
        if trial % 4 == 0 and parts:
            # the last part cancels the first in full
            c, a = parts[0]
            parts.append((-c, a))
        got = linear_combination(n, parts)
        want = _oracle_linear(*((c, dict(a.items())) for c, a in parts))
        assert got.sorted_terms() == sorted(want.items()), trial
        assert_canonical(got)
        if trial % 4 == 0:
            assert got == linear_combination(n, parts[1:-1]), trial
        # a lone part with scalar 1, whatever zero parts come with it, is itself
        a = random_element(rng, n)
        for lone in ([(1, a)], [(Fraction(1), a)], [(0, a), (1, a), (5, WeylElement(n))]):
            assert linear_combination(n, lone) is a, trial
    assert linear_combination(3, []) == WeylElement(3)
    x = weyl_x(2, 1)
    assert linear_combination(2, [(Fraction(1, 2), x), (Fraction(1, 2), x)]) == x
    assert linear_combination(2, [(3, x), (-3, x)]) == WeylElement(2)
    for parts in ([(1, x), (1, weyl_x(3, 1))], [(0, weyl_x(3, 1))], [(1, WeylElement(1))]):
        with pytest.raises(DimensionMismatchError):
            linear_combination(2, parts)


def test_overflowing_term_raises_instead_of_carrying():
    limit = weyl._FIELD
    for n in (1, 2, 5):
        e1 = tuple(int(i == 0) for i in range(n))
        big = WeylElement(n, {((limit - 1,) + (0,) * (n - 1), e1): 1})  # total == limit
        assert degrees(big) == (limit - 1, 1)
        assert big.coefficient((limit - 1,) + (0,) * (n - 1), e1) == 1
        assert big.coefficient((limit,) + (0,) * (n - 1), e1) == 0
        assert big.coefficient((limit + 1,) + (0,) * (n - 1), (0,) * n) == 0
        for xexp, dexp in (((limit,) + (0,) * (n - 1), e1),
                           ((0,) * n, (limit + 1,) + (0,) * (n - 1)),
                           ((limit // 2 + 1,) * n, (limit // 2 + 1,) * n)):
            with pytest.raises(OverflowError):
                WeylElement(n, {(xexp, dexp): 1})
        one = weyl_x(n, 1)
        with pytest.raises(OverflowError):
            mul(big, one)
        with pytest.raises(OverflowError):
            mul(weyl_d(n, n), big)
        with pytest.raises(OverflowError):
            fock_apply(big, one)
        # at the limit a product still fits: x1^(limit-2) d1 * x1 has terms
        # x1^(limit-1) d1 and x1^(limit-2), nothing carried
        edge = WeylElement(n, {((limit - 2,) + (0,) * (n - 1), e1): 1})
        assert mul(edge, one).sorted_terms() == _reference_mul(edge, one).sorted_terms()
        assert fock_apply(edge, one) == WeylElement(n, {((limit - 2,) + (0,) * (n - 1), (0,) * n): 1})


def test_sorted_terms_follow_tuple_order():
    rng = SplitMix64(0x50E7)
    for trial in range(200):
        n = 1 + rng.below(6)
        data = {}
        for _ in range(1 + rng.below(12)):
            xexp = tuple(rng.below(5) for _ in range(n))
            dexp = tuple(rng.below(5) for _ in range(n))
            data[(xexp, dexp)] = rng.rational()
        want = sorted(key for key, c in data.items() if c)
        a = WeylElement(n, data)
        assert [key for key, _c in a.sorted_terms()] == want, trial
        # the packed keys themselves sort in that order
        assert [weyl._unpack(n, k) for k in sorted(a._nums)] == want, trial


def test_truncate_examples():
    a = WeylElement(2, {((1, 0), (1, 0)): 1, ((1, 0), (0, 3)): 1})
    assert truncate(a, 2) == WeylElement(2, {((1, 0), (1, 0)): 1})
    assert truncate(weyl_x(2, 1), 0) == weyl_x(2, 1)
    with pytest.raises(ValueError):
        truncate(a, -1)


def test_truncate_idempotent_and_exact():
    rng = SplitMix64(31337)
    for _ in range(100):
        n = 1 + rng.below(3)
        a = random_element(rng, n)
        p = random_poly(rng, n)
        d = rng.below(5)
        assert truncate(truncate(a, d), d) == truncate(a, d)
        # Terms whose derivative order exceeds the polynomial degree kill
        # every monomial, so dropping them never changes the action.
        deg = max(degrees(p)[0], 0)
        assert fock_apply(truncate(a, deg), p) == fock_apply(a, p)


def test_fock_examples():
    assert fock_apply(weyl_d(1, 1), weyl_scalar(1, 1)).is_zero()
    a = mul(weyl_x(2, 1), weyl_d(2, 2))
    assert fock_apply(a, weyl_x(2, 2)) == weyl_x(2, 1)
    dd = mul(weyl_d(1, 1), weyl_d(1, 1))
    assert fock_apply(dd, WeylElement(1, {((3,), (0,)): 1})) == WeylElement(1, {((1,), (0,)): 6})
    rng = SplitMix64(4)
    for _ in range(20):
        p = random_poly(rng, 2)
        assert fock_apply(weyl_scalar(2, 1), p) == p
    with pytest.raises(ValueError):
        fock_apply(weyl_x(1, 1), weyl_d(1, 1))


def test_degrees():
    a = WeylElement(2, {((1, 0), (1, 1)): 1})
    assert degrees(a) == (1, 2)
    assert degrees(weyl_d(2, 1)) == (0, 1)
    assert degrees(weyl_scalar(2, 0)) == (-1, -1)


def test_canonical_form_preserved():
    rng = SplitMix64(88)
    for _ in range(50):
        n = 1 + rng.below(3)
        a = random_element(rng, n)
        b = random_element(rng, n)
        p = random_poly(rng, n)
        for value in (a + b, a - b, mul(a, b), a.scale(rng.rational()),
                      truncate(a, 2), fock_apply(a, p)):
            assert_canonical(value)


def test_constructor_canonicalizes():
    # Duplicate keys merge, zeros drop, coefficients coerce to Fraction.
    a = WeylElement(1, {((1,), (0,)): 1})
    b = WeylElement(1, {((1,), (0,)): Fraction(1)})
    assert a == b
    assert WeylElement(1, {((1,), (0,)): 0}).is_zero()
    with pytest.raises(ValueError):
        WeylElement(2, {((1,), (0, 0)): 1})
    with pytest.raises(ValueError):
        WeylElement(1, {((-1,), (0,)): 1})


def _reference_constructor(terms: dict) -> dict:
    """Independent oracle for the constructor: Fractions summed per exponent
    tuple, zero coefficients skipped before their exponents are read, zero
    sums dropped."""
    out: dict = {}
    for (xexp, dexp), c in terms.items():
        if c:
            key = (tuple(xexp), tuple(dexp))
            out[key] = out.get(key, 0) + Fraction(c)
    return {key: c for key, c in out.items() if c}


def _range_spelling(t: tuple):
    """The same exponents as a `range`, which packs to t's key; None if t is
    not an arithmetic sequence with a nonzero step."""
    if len(t) == 1:
        return range(t[0], t[0] + 1)
    step = t[1] - t[0]
    if step and all(b - a == step for a, b in zip(t, t[1:])):
        return range(t[0], t[-1] + step, step)
    return None


def test_constructor_matches_fraction_oracle():
    rng = SplitMix64(0xC0DE)
    limit = weyl._FIELD
    x, y = ((1,), (0,)), (range(1, 2), (0,))  # two spellings of one key
    cases = [
        {x: Fraction(1, 3), y: Fraction(-1, 3)},  # cancel on one key
        {x: Fraction(1, 2), y: Fraction(3, 2), ((0,), (2,)): Fraction(2, 3),
         (range(0, 1), range(2, 3)): Fraction(1, 3)},  # mixed denominators, den 1
        {((limit + 1,), (0,)): 0, ((0,), (limit,)): Fraction(0), x: 2},  # zeros past the limit
        {((1, 2), (0, 0)): Fraction(1, 6), (range(1, 3), (0, 0)): Fraction(5, 6),
         ((2, 1), (1, 0)): Fraction(-1, 4), (range(2, 0, -1), range(1, -1, -1)): Fraction(1, 12)},
    ]
    for _ in range(300):
        n = 1 + rng.below(3)
        terms: dict = {}
        for _ in range(rng.below(8)):
            key = tuple(tuple(rng.below(3) for _ in range(n)) for _ in range(2))
            pick = rng.below(4)
            c = 0 if pick == 0 else rng.below(7) - 3 if pick == 1 else rng.rational()
            spelled = tuple(map(_range_spelling, key))
            if rng.below(2) and None not in spelled:
                terms[spelled] = c
            else:
                terms[key] = c
        cases.append(terms)
    for terms in cases:
        n = len(next(iter(terms))[0]) if terms else 1
        a = WeylElement(n, terms)
        assert dict(a.items()) == _reference_constructor(terms), terms
        assert gcd(a._den, *a._nums.values()) == 1, terms
    assert WeylElement(1, cases[0]).is_zero()
    assert WeylElement(1, cases[1]) == WeylElement(1, {x: 2, ((0,), (2,)): 1})
    assert WeylElement(1, cases[1])._den == 1
    assert WeylElement(1, cases[2]) == weyl_x(1, 1).scale(2)


def test_non_integral_exponents_raise():
    # Exponents go through operator.index: a float is refused, not truncated.
    with pytest.raises(TypeError):
        WeylElement(1, {((2.7,), (0,)): 1})
    with pytest.raises(TypeError):
        WeylElement(2, {((1.5, 0), (0, 0)): 1})
    x1x2 = mul(weyl_x(2, 1), weyl_x(2, 2))
    with pytest.raises(TypeError):
        x1x2.coefficient((1.2, 1), (0, 0))
    with pytest.raises(TypeError):
        x1x2.coefficient((1, 1), (0.0, 0))
    # integral exponents of other int types still pass
    assert WeylElement(2, {((True, 0), (0, 0)): 1}) == weyl_x(2, 1)


def test_immutability():
    a = weyl_x(2, 1)
    for name, value in (("n", 3), ("_den", 2), ("_nums", {}), ("_terms", {}), ("_fock", None)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert a == weyl_x(2, 1)


def test_formatting():
    assert format_term((2, 0), (0, 1), Fraction(-1, 2)) == "-1/2*x1^2*d2"
    assert format_term((0, 0), (0, 0), Fraction(3)) == "3"
    assert str(weyl_scalar(2, 0)) == "0"
    # terms render in lexicographic (xexp, dexp) order
    assert str(weyl_x(2, 1) - weyl_x(2, 2)) == "-x2 + x1"
