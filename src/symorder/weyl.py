"""Exact sparse arithmetic in the n-th Weyl algebra.

The algebra is generated by x_1..x_n and d^1..d^n (``d`` renders the partial
derivative symbol) subject to: the x's commute, the d's commute, and
``d^j * x_i = x_i * d^j + delta(i,j)``.  Every element is kept in normal
order, all x's to the left of all d's, as a finite map

    (xexp, dexp) -> coefficient

where ``xexp`` and ``dexp`` are exponent tuples of length n and coefficients
are exact ``fractions.Fraction`` values.  No floating point enters anywhere:
identities checked with this kernel hold structurally or not at all.

Inside ``mul`` and ``fock_apply`` the arithmetic is on integers: each
operand is cleared to integer numerators over one shared denominator and the
result's Fraction coefficients are rebuilt once at the end.  ``_cleared`` and
``_rebuilt`` are the only places where the two representations meet.  The
reordering expansion of each d^b x^c pair is kept in a bounded LRU cache.

Elements are immutable and all operations are pure.  Each element memoizes
its cleared form in a write-once slot that ``==``, ``repr`` and the accessors
never read; threads racing on it compute the same value, so values can be
shared freely across threads.

The same class doubles as the commutative polynomial module the algebra acts
on: a *polynomial* is an element whose every term has ``dexp == 0``, and
``fock_apply`` implements the action (x as multiplication, d as partial
derivative, the constant 1 as vacuum).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm, perm
from typing import Iterable, Iterator, Mapping

Rational = Fraction
MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, MultiIndex]

# Maximum retained d-degree when truncating; plain int, must be >= 0.
TruncationOrder = int

_ZERO = Fraction(0)


class DimensionMismatchError(ValueError):
    """Operands live in Weyl algebras of different ambient dimension."""


def _as_multi_index(exps: Iterable[int], n: int, what: str) -> MultiIndex:
    t = tuple(int(e) for e in exps)
    if len(t) != n:
        raise ValueError(f"{what} has length {len(t)}, expected {n}")
    if any(e < 0 for e in t):
        raise ValueError(f"{what} has a negative exponent: {t}")
    return t


class WeylElement:
    """A normal-ordered element of the n-th Weyl algebra.

    ``terms`` maps ``(xexp, dexp)`` to a nonzero Fraction; zero is the empty
    map.  The constructor canonicalizes (coerces coefficients, drops zeros)
    and validates exponent shapes.  ``_int`` is the `_cleared` memo.
    """

    __slots__ = ("n", "_terms", "_int")

    def __init__(self, n: int, terms: Mapping[TermKey, Rational | int] | None = None):
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        canonical: dict[TermKey, Fraction] = {}
        if terms:
            for (xexp, dexp), coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                key = (_as_multi_index(xexp, n, "xexp"), _as_multi_index(dexp, n, "dexp"))
                s = canonical[key] + c if key in canonical else c
                if s:
                    canonical[key] = s
                else:
                    del canonical[key]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", canonical)

    @classmethod
    def _raw(cls, n: int, terms: dict[TermKey, Fraction]) -> "WeylElement":
        """Wrap an already-canonical term dict without copying or checking.

        Internal fast path; callers must guarantee canonical form and must
        not alias the dict afterwards.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WeylElement is immutable")

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, xexp: Iterable[int], dexp: Iterable[int]) -> Fraction:
        key = (_as_multi_index(xexp, self.n, "xexp"), _as_multi_index(dexp, self.n, "dexp"))
        return self._terms.get(key, _ZERO)

    def term_count(self) -> int:
        return len(self._terms)

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms sorted lexicographically by (xexp, dexp); deterministic."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_polynomial(self) -> bool:
        """True iff every term has dexp identically zero."""
        return all(not any(d) for (_x, d) in self._terms)

    def x_degree(self) -> int:
        """Max total x-degree over terms; -1 for the zero element."""
        if not self._terms:
            return -1
        return max(sum(x) for (x, _d) in self._terms)

    def d_degree(self) -> int:
        """Max total d-degree over terms; -1 for the zero element."""
        if not self._terms:
            return -1
        return max(sum(d) for (_x, d) in self._terms)

    # -- ring structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]  # mutable dict inside

    def __neg__(self) -> "WeylElement":
        return WeylElement._raw(self.n, {k: -c for k, c in self._terms.items()})

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        _check_same_n(self, other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, _ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return WeylElement._raw(self.n, out)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Rational | int) -> "WeylElement":
        c = Fraction(c)
        if not c:
            return WeylElement._raw(self.n, {})
        return WeylElement._raw(self.n, {k: c * v for k, v in self._terms.items()})

    def __mul__(self, other: object) -> "WeylElement":
        if isinstance(other, WeylElement):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: object) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other: object) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "WeylElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = weyl_scalar(self.n, 1)
        for _ in range(exponent):
            out = mul(out, self)
        return out

    def __repr__(self) -> str:
        return f"WeylElement({self.n}, {self!s})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (xexp, dexp), coeff in self.sorted_terms():
            parts.append(format_term(xexp, dexp, coeff))
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out


# A Polynomial is a WeylElement whose terms all have dexp == 0; the kernel
# does not give it its own class, only the predicate `is_polynomial` and the
# guarantee that `fock_apply` returns one.
Polynomial = WeylElement


def _check_same_n(a: WeylElement, b: WeylElement) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.n} != {b.n}")


def format_term(xexp: MultiIndex, dexp: MultiIndex, coeff: Fraction) -> str:
    """Render one normal-ordered term, e.g. ``-1/2*x1^2*d3``."""
    factors = []
    for i, e in enumerate(xexp):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    for i, e in enumerate(dexp):
        if e == 1:
            factors.append(f"d{i + 1}")
        elif e > 1:
            factors.append(f"d{i + 1}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


# -- constructors -----------------------------------------------------------


def _unit_index(n: int, i: int) -> MultiIndex:
    if not 1 <= i <= n:
        raise IndexError(f"generator index {i} out of range 1..{n}")
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def weyl_x(n: int, i: int) -> WeylElement:
    """The generator x_i (1-based index)."""
    zero = (0,) * n
    return WeylElement._raw(n, {(_unit_index(n, i), zero): Fraction(1)})


def weyl_d(n: int, j: int) -> WeylElement:
    """The generator d^j (1-based index)."""
    zero = (0,) * n
    return WeylElement._raw(n, {(zero, _unit_index(n, j)): Fraction(1)})


def weyl_scalar(n: int, c: Rational | int) -> WeylElement:
    """The scalar element c*1; zero gives the empty term map."""
    c = Fraction(c)
    zero = (0,) * n
    if not c:
        return WeylElement._raw(n, {})
    return WeylElement._raw(n, {(zero, zero): c})


def weyl_term(
    n: int, xexp: Iterable[int], dexp: Iterable[int], coeff: Rational | int = 1
) -> WeylElement:
    """A single normal-ordered term coeff * x^xexp * d^dexp."""
    return WeylElement(n, {(tuple(xexp), tuple(dexp)): Fraction(coeff)})


def poly_monomial(n: int, exps: Iterable[int], coeff: Rational | int = 1) -> Polynomial:
    """The commutative monomial coeff * x^exps as a dexp-free element."""
    return weyl_term(n, exps, (0,) * n, coeff)


def poly_one(n: int) -> Polynomial:
    return weyl_scalar(n, 1)


# Bounded, so memory stays flat; typical suites meet a few hundred pairs.
@lru_cache(maxsize=4096)
def _contractions(da: MultiIndex, xb: MultiIndex) -> tuple[tuple[MultiIndex, MultiIndex, int], ...]:
    """Reorderings of d^da x^xb as (xb - t, da - t, C(da,t) C(xb,t) t!) over t."""
    out = []
    for t in product(*(range(min(p, q) + 1) for p, q in zip(da, xb))):
        f = 1
        for ti, dai, xbi in zip(t, da, xb):
            if ti:
                f *= comb(dai, ti) * comb(xbi, ti) * factorial(ti)
        out.append((tuple(map(operator.sub, xb, t)), tuple(map(operator.sub, da, t)), f))
    return tuple(out)


def _cleared(a: WeylElement) -> tuple[int, tuple[tuple[MultiIndex, MultiIndex, int], ...]]:
    """(L, terms) with every coefficient of a equal to numerator / L.

    L is the lcm of the coefficient denominators, so numerators are ints.
    Computed on first use and memoized in the element's ``_int`` slot.
    """
    memo = getattr(a, "_int", None)
    if memo is None:
        den = lcm(*(c.denominator for c in a._terms.values()))
        memo = den, tuple((x, d, c.numerator * (den // c.denominator)) for (x, d), c in a.items())
        object.__setattr__(a, "_int", memo)
    return memo


def _rebuilt(n: int, numerators: dict[TermKey, int], den: int) -> WeylElement:
    """The element with coefficients numerator / den, zeros dropped."""
    return WeylElement._raw(n, {k: Fraction(v, den) for k, v in numerators.items() if v})


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in the Weyl algebra, result in normal order.

    The monomial kernel reorders d^b * x^c with the closed form

        d^b x^c = sum_t  C(b,t) * C(c,t) * t!  *  x^(c-t) d^(b-t)

    where t runs over multi-indices with t <= min(b, c) componentwise and
    the combinatorial factor is a product over coordinates.  This fixes
    d^j * x_i = x_i * d^j + delta(i,j).

    The inner loop runs on integers: each operand is cleared to one common
    denominator (`_cleared`), term pairs accumulate integer numerators, and
    the Fraction coefficients are rebuilt once at the end (`_rebuilt`).  The
    expansion of each d^b x^c is cached per (b, c) in a bounded LRU cache.
    """
    _check_same_n(a, b)
    den_a, terms_a = _cleared(a)
    den_b, terms_b = _cleared(b)
    out: dict[TermKey, int] = {}
    get = out.get
    plus = operator.add
    for xa, da, ca in terms_a:
        for xb, db, cb in terms_b:
            c = ca * cb
            for xs, ds, f in _contractions(da, xb):
                key = (tuple(map(plus, xa, xs)), tuple(map(plus, ds, db)))
                out[key] = get(key, 0) + c * f
    return _rebuilt(a.n, out, den_a * den_b)


def truncate(a: WeylElement, max_d_degree: TruncationOrder) -> WeylElement:
    """Drop every term whose total d-degree exceeds the bound; idempotent."""
    if max_d_degree < 0:
        raise ValueError(f"truncation order must be >= 0, got {max_d_degree}")
    kept = {k: c for k, c in a._terms.items() if sum(k[1]) <= max_d_degree}
    if len(kept) == len(a._terms):
        return a
    return WeylElement._raw(a.n, kept)


def fock_apply(a: WeylElement, p: Polynomial) -> Polynomial:
    """Apply a as a differential operator to the commutative polynomial p.

    A term x^a d^b sends the monomial x^c to  prod_i (c_i)!/(c_i-b_i)! *
    x^(a+c-b)  when b <= c componentwise, else to 0; extended bilinearly.
    As in `mul`, term pairs accumulate integer numerators (`_cleared`,
    `_rebuilt`).
    """
    _check_same_n(a, p)
    den_a, terms_a = _cleared(a)
    den_p, terms_p = _cleared(p)
    out: dict[TermKey, int] = {}
    get = out.get
    for mexp, mz, q in terms_p:
        if any(mz):
            raise ValueError("fock_apply target must be a polynomial (dexp == 0)")
        for xexp, dexp, c in terms_a:
            f = c * q
            for d_i, m_i in zip(dexp, mexp):
                if d_i:
                    if d_i > m_i:
                        break
                    f *= perm(m_i, d_i)
            else:
                key = (tuple(map(operator.sub, map(operator.add, xexp, mexp), dexp)), mz)
                out[key] = get(key, 0) + f
    return _rebuilt(a.n, out, den_a * den_p)
