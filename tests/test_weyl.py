"""Kernel laws for the Weyl algebra arithmetic and the Fock action."""

import sys
import threading
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

import pytest

import symorder.weyl as weyl
from symorder.rng import SplitMix64
from symorder.weyl import (
    DimensionMismatchError,
    WeylElement,
    fock_apply,
    format_term,
    mul,
    poly_monomial,
    poly_one,
    truncate,
    weyl_d,
    weyl_scalar,
    weyl_term,
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


def assert_canonical(a: WeylElement) -> None:
    for (xexp, dexp), coeff in a.items():
        assert isinstance(coeff, Fraction) and coeff != 0
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
        target = poly_monomial(2, (m, 0))
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
            a = weyl_term(n, u, (0,) * n, c) + weyl_term(n, (0,) * n, v, c)
            b = weyl_term(n, u, (0,) * n, c) - weyl_term(n, (0,) * n, v, c)
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
        got = mul(a, b)
        assert got.sorted_terms() == _reference_mul(a, b).sorted_terms(), trial
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
            a = weyl_term(n, tuple(map(sum, zip(v, s))), v, c)
            a = a + weyl_term(n, tuple(map(sum, zip(v2, s))), v2, c2)
            p = poly_monomial(n, m, rng.rational())
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
        got = fock_apply(a, p)
        assert got.sorted_terms() == _reference_fock_apply(a, p).sorted_terms(), trial
        assert all(type(coeff) is Fraction for _key, coeff in got.items()), trial
        assert got.is_polynomial(), trial
        if shape == 0:
            assert got.coefficient(tuple(map(sum, zip(m, s))), (0,) * n) == 0, trial
        if shape == 1:
            assert got.is_zero(), trial
    # a zero operator still rejects a target with d's in it
    for n in (1, 3):
        with pytest.raises(ValueError):
            fock_apply(WeylElement(n), weyl_d(n, 1) + poly_one(n))


def test_cleared_memo_is_invisible():
    rng = SplitMix64(0xC1EA)
    for trial in range(60):
        n = 1 + rng.below(3)
        a = random_element(rng, n).scale(Fraction(1, 1 + rng.below(7)))
        b, p = random_element(rng, n), random_poly(rng, n)
        twin = WeylElement(n, dict(a.items()))
        before = (repr(a), a.sorted_terms(), list(a.items()))
        first = (mul(a, b), mul(b, a), fock_apply(a, p))
        assert (repr(a), a.sorted_terms(), list(a.items())) == before, trial
        assert a == twin and twin == a, trial
        # repeated calls on the same operands, now memoized, change nothing
        for _ in range(2):
            again = (mul(a, b), mul(b, a), fock_apply(a, p))
            assert [x.sorted_terms() for x in again] == [x.sorted_terms() for x in first]
        assert first == (mul(twin, b), mul(b, twin), fock_apply(twin, p)), trial
    with pytest.raises(AttributeError):
        a._int = (1, ())
    with pytest.raises(AttributeError):
        a.n = 3
    assert weyl._cleared(a) is weyl._cleared(a)


def test_shared_operand_across_threads():
    # Four threads apply the same shared generators to the same shared
    # polynomials, none cleared beforehand, so they race on every element's
    # cleared-form memo; each thread must see exactly the serial results.
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


def test_truncate_examples():
    a = weyl_term(2, (1, 0), (1, 0)) + weyl_term(2, (1, 0), (0, 3))
    assert truncate(a, 2) == weyl_term(2, (1, 0), (1, 0))
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
        deg = max(p.x_degree(), 0)
        assert fock_apply(truncate(a, deg), p) == fock_apply(a, p)


def test_fock_examples():
    assert fock_apply(weyl_d(1, 1), poly_one(1)).is_zero()
    a = mul(weyl_x(2, 1), weyl_d(2, 2))
    assert fock_apply(a, poly_monomial(2, (0, 1))) == poly_monomial(2, (1, 0))
    dd = mul(weyl_d(1, 1), weyl_d(1, 1))
    assert fock_apply(dd, poly_monomial(1, (3,))) == poly_monomial(1, (1,), 6)
    rng = SplitMix64(4)
    for _ in range(20):
        p = random_poly(rng, 2)
        assert fock_apply(weyl_scalar(2, 1), p) == p
    with pytest.raises(ValueError):
        fock_apply(weyl_x(1, 1), weyl_d(1, 1))


def test_degrees():
    a = weyl_term(2, (1, 0), (1, 1))
    assert a.d_degree() == 2
    assert weyl_d(2, 1).x_degree() == 0
    zero = weyl_scalar(2, 0)
    assert zero.x_degree() == -1 and zero.d_degree() == -1


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


def test_immutability():
    a = weyl_x(2, 1)
    with pytest.raises(AttributeError):
        a.n = 3


def test_operator_sugar():
    x1, d1 = weyl_x(1, 1), weyl_d(1, 1)
    assert x1 * d1 == mul(x1, d1)
    assert 2 * x1 == x1 * 2 == x1.scale(2)
    assert x1 / 2 == x1.scale(Fraction(1, 2))
    assert (x1 + d1) ** 2 == mul(x1 + d1, x1 + d1)
    assert x1 ** 0 == weyl_scalar(1, 1)
    with pytest.raises(ValueError):
        x1 ** -1


def test_formatting():
    assert format_term((2, 0), (0, 1), Fraction(-1, 2)) == "-1/2*x1^2*d2"
    assert format_term((0, 0), (0, 0), Fraction(3)) == "3"
    assert str(weyl_scalar(2, 0)) == "0"
    # terms render in lexicographic (xexp, dexp) order
    assert str(weyl_x(2, 1) - weyl_x(2, 2)) == "-x2 + x1"
