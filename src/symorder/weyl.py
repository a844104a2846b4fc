"""Exact sparse arithmetic in the n-th Weyl algebra.

The algebra is generated by x_1..x_n and d^1..d^n (``d`` renders the partial
derivative symbol) subject to: the x's commute, the d's commute, and
``d^j * x_i = x_i * d^j + delta(i,j)``.  Every element is kept in normal
order, all x's to the left of all d's, as a finite map

    (xexp, dexp) -> coefficient

where ``xexp`` and ``dexp`` are exponent tuples of length n and coefficients
are exact rationals, taken in as ints or Fractions only.  No floating point
enters anywhere: identities checked with this kernel hold structurally or not
at all.

An element stores its coefficients in one representation: integer
numerators over one positive denominator, with no factor common to the
denominator and all numerators, so equal elements have equal fields.
`mul`, `_commutator`, `fock_apply`, `linear_combination` and `truncate`
compute on those integers and finish through `_reduced`, which drops zeros
and divides out the common factor.  `linear_combination` is the one route
for sums of scaled elements: ``+``, ``-`` and `scale` call it, and so does
every caller that sums many parts; it takes the lcm of the parts'
denominators, accumulates in one pass and reduces once.  `mul` is the one
route for products: elements define no ``*``, ``/`` or ``**``.
`_commutator` is the one route for commutators; the oracle
``mul(a, b) - mul(b, a)`` lives in the tests.  The accessors hand
coefficients out as ``fractions.Fraction`` values.

Each term is stored under one packed int key of 2n + 2 fields of
`_WIDTH` = 16 bits, most significant first:

    x_1 .. x_n | d_1 .. d_n | |xexp| + |dexp| | |dexp|

Integer order is therefore ``(xexp, dexp)`` tuple order, `truncate` reads
the bottom field alone, and the exponents of a product or
Fock term are plain integer sums and differences of keys.  A term's total
degree must stay at most `_FIELD` = 65535, which bounds every field: the
constructor raises `OverflowError` on a larger term, and `mul`,
`_commutator` and `fock_apply` raise it before any work when the largest
total degrees of their operands could sum past the limit, so a field never
carries into its neighbour.  Keys are decoded to tuples only by `items`,
`coefficient` and `sorted_terms`.  The reordering expansion of each d^b x^c
pair is kept, with packed offsets, in one bounded LRU cache.  `mul` buckets
the left operand's terms by d-part and the right operand's by x-part and
looks the expansion up once per bucket pair, not once per term pair.

Elements are immutable and all operations are pure, so values can be shared
freely across threads.  The one slot written after construction is an
operator's Fock plan, ``_fock``, written once on its first `fock_apply`;
racing writers store equal values; ``==``, repr, accessors and copies ignore it.

The same class doubles as the commutative polynomial module the algebra acts
on: a *polynomial* is an element whose every term has ``dexp == 0``, as
`WeylElement.is_polynomial` tests, with no class of its own.  ``fock_apply``
implements the action (x as multiplication, d as partial derivative, the
constant 1 as vacuum) and returns a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, lcm, perm
from operator import index
from typing import Iterable, Iterator, Mapping

MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, MultiIndex]

# Bits per packed key field, and the mask of one field, which is also the
# largest total degree a term may have.
_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
# The total-degree field, in place.
_TOTAL = _FIELD << _WIDTH
# The two bottom fields, which carry n in a cache query (n < 2^32 always:
# one key of 2^33 fields would not fit in memory).
_LOW = (1 << 2 * _WIDTH) - 1


class DimensionMismatchError(ValueError):
    """Operands live in Weyl algebras of different ambient dimension."""


class Immutable:
    """Base of the slotted value types that refuse attribute assignment.

    ``__setstate__`` restores the slots past the refusing ``__setattr__``,
    so instances still pickle and copy.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _as_multi_index(exps: Iterable[int], n: int, what: str) -> MultiIndex:
    t = tuple(map(index, exps))
    if len(t) != n:
        raise ValueError(f"{what} has length {len(t)}, expected {n}")
    if any(e < 0 for e in t):
        raise ValueError(f"{what} has a negative exponent: {t}")
    return t


def _exact(c: Fraction | int) -> Fraction | int:
    """c itself if it is an int or a Fraction; anything else raises `TypeError`."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__} {c!r}")


def _pack(xexp: MultiIndex, dexp: MultiIndex) -> int:
    """The packed key of a term with these nonnegative exponents."""
    dd = sum(dexp)
    total = sum(xexp) + dd
    if total > _FIELD:
        raise OverflowError(
            f"term x^{xexp} d^{dexp} has total degree {total}, above the packed "
            f"key limit {_FIELD}"
        )
    key = 0
    for e in xexp + dexp:
        key = key << _WIDTH | e
    return (key << _WIDTH | total) << _WIDTH | dd


def _unpack(n: int, key: int) -> TermKey:
    """The (xexp, dexp) tuples of a packed key."""
    fields = [key >> s & _FIELD for s in range((2 * n + 1) * _WIDTH, _WIDTH, -_WIDTH)]
    return tuple(fields[:n]), tuple(fields[n:])


def _d_mask(n: int) -> int:
    """The d fields of an n-dimensional key; shifted up n fields, the x fields."""
    return ((1 << n * _WIDTH) - 1) << 2 * _WIDTH


def _unit(n: int, i: int) -> int:
    """The packed offset of x_i d^i (0-based i): one in the x_i and d_i
    fields, two in the total and one in the d-degree field."""
    sd = (n + 1 - i) * _WIDTH
    return (1 << sd + n * _WIDTH) + (1 << sd) + (2 << _WIDTH) + 1


def _top(nums: dict[int, int]) -> int:
    """The largest total-degree field over a key set, in place; 0 if empty."""
    return max(map(_TOTAL.__and__, nums), default=0)


def _check_room(top: int) -> None:
    """Raise unless a product whose factors' tops sum to top fits its fields."""
    if top > _TOTAL:
        raise OverflowError(
            f"a product term could reach total degree {top >> _WIDTH}, above the "
            f"packed key limit {_FIELD}"
        )


class WeylElement(Immutable):
    """A normal-ordered element of the n-th Weyl algebra.

    The coefficient of ``(xexp, dexp)`` is ``_nums[key] / _den`` with
    ``key = _pack(xexp, dexp)``: numerators are nonzero ints, ``_den`` is a
    positive int and ``gcd(_den, *_nums.values()) == 1``; zero is the empty
    map over 1.  The constructor skips zero coefficients, sums the others'
    integer numerators per packed key over the lcm of their denominators
    and reduces; a coefficient that is not an int or a Fraction, or a
    non-integral exponent, raises `TypeError`, and a term of total degree
    above `_FIELD` `OverflowError`.
    ``_fock`` stays unset until the element first acts in `fock_apply`.
    """

    __slots__ = ("n", "_den", "_nums", "_fock")

    def __init__(self, n: int, terms: Mapping[TermKey, Fraction | int] | None = None):
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        live = [(key, c) for key, c in terms.items() if _exact(c)] if terms else []
        den = lcm(*(c.denominator for _key, c in live))
        nums: dict[int, int] = {}
        for (xexp, dexp), c in live:
            key = _pack(_as_multi_index(xexp, n, "xexp"), _as_multi_index(dexp, n, "dexp"))
            nums[key] = nums.get(key, 0) + c.numerator * (den // c.denominator)
        self.__setstate__(_reduced(n, den, nums).__getstate__())

    def __getstate__(self) -> tuple[None, dict[str, object]]:  # copies drop the Fock plan
        return None, {"n": self.n, "_den": self._den, "_nums": self._nums}

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[TermKey, Fraction]]:
        n, den = self.n, self._den
        return ((_unpack(n, key), Fraction(v, den)) for key, v in self._nums.items())

    def coefficient(self, xexp: Iterable[int], dexp: Iterable[int]) -> Fraction:
        xexp = _as_multi_index(xexp, self.n, "xexp")
        dexp = _as_multi_index(dexp, self.n, "dexp")
        if sum(xexp) + sum(dexp) > _FIELD:
            # no stored term has a degree past the key limit
            return Fraction(0)
        return Fraction(self._nums.get(_pack(xexp, dexp), 0), self._den)

    def term_count(self) -> int:
        return len(self._nums)

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms sorted lexicographically by (xexp, dexp); deterministic.

        Key order is that order, so the sort runs on the ints.
        """
        n, den = self.n, self._den
        return [(_unpack(n, key), Fraction(v, den)) for key, v in sorted(self._nums.items())]

    def is_zero(self) -> bool:
        return not self._nums

    def is_polynomial(self) -> bool:
        """True iff every term has dexp identically zero."""
        return not any(map(_FIELD.__and__, self._nums))

    # -- ring structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._nums == other._nums

    __hash__ = None  # type: ignore[assignment]  # mutable dict inside

    def __neg__(self) -> "WeylElement":
        return _element(self.n, self._den, {k: -v for k, v in self._nums.items()})

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        return linear_combination(self.n, ((1, self), (1, other)))

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        return linear_combination(self.n, ((1, self), (-1, other)))

    def scale(self, c: Fraction | int) -> "WeylElement":
        return linear_combination(self.n, ((c, self),))

    def __repr__(self) -> str:
        return f"WeylElement({self.n}, {self!s})"

    def __str__(self) -> str:
        if not self._nums:
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


def _element(n: int, den: int, nums: dict[int, int]) -> WeylElement:
    """Wrap fields that already meet the class invariant, without copying."""
    a = object.__new__(WeylElement)
    object.__setattr__(a, "n", n)
    object.__setattr__(a, "_den", den)
    object.__setattr__(a, "_nums", nums)
    return a


def _reduced(n: int, den: int, nums: dict[int, int]) -> WeylElement:
    """The element with coefficients nums / den: zeros dropped, common factor divided out."""
    nums = {k: v for k, v in nums.items() if v}
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {k: v // g for k, v in nums.items()}
    return _element(n, den, nums)


def _check_same_n(a: WeylElement, b: WeylElement) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.n} != {b.n}")


def linear_combination(
    n: int, parts: Iterable[tuple[Fraction | int, WeylElement]]
) -> WeylElement:
    """The sum of c * a over the (c, a) parts, in the n-th Weyl algebra.

    This is the one route for sums of scaled elements: ``+``, ``-`` and
    `scale` go through it, and so do the callers that sum many of them.
    Scalars are ints or Fractions, checked once per part (anything else
    raises `TypeError`).  It takes the lcm of the parts' denominators (each
    element's times its scalar's), accumulates every part's integer
    numerators over it in one pass and reduces once.  Parts with a zero
    scalar or a zero element drop out; a lone remaining part with scalar 1
    is returned as it is.  An element of another dimension raises
    `DimensionMismatchError`.
    """
    live = []
    for c, a in parts:
        if a.n != n:
            raise DimensionMismatchError(f"ambient dimensions differ: {a.n} != {n}")
        if _exact(c) and a._nums:
            live.append((c, a))
    if len(live) == 1 and live[0][0] == 1:
        return live[0][1]
    den = lcm(*(c.denominator * a._den for c, a in live))
    out: dict[int, int] = {}
    for c, a in live:
        f = c.numerator * (den // (c.denominator * a._den))
        if out:
            get = out.get
            for k, v in a._nums.items():
                out[k] = get(k, 0) + v * f
        else:
            out = {k: v * f for k, v in a._nums.items()}
    return _reduced(n, den, out)


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
    return _element(n, 1, {_pack(_unit_index(n, i), (0,) * n): 1})


def weyl_d(n: int, j: int) -> WeylElement:
    """The generator d^j (1-based index)."""
    return _element(n, 1, {_pack((0,) * n, _unit_index(n, j)): 1})


def weyl_scalar(n: int, c: Fraction | int) -> WeylElement:
    """The scalar element c*1; zero gives the empty term map."""
    c = _exact(c)
    return _reduced(n, c.denominator, {0: c.numerator})


# Bounded, so memory stays flat; typical suites meet a few thousand pairs.
@lru_cache(maxsize=4096)
def _contractions(query: int) -> tuple[tuple[int, int], ...]:
    """Reorderings of d^da x^xb past t = 0, as (offset, C(da,t) C(xb,t) t!).

    ``query`` holds da in the d fields and xb in the x fields of an
    n-dimensional key, and n in the two bottom fields, so one int keys the
    cache.  Subtracting ``offset`` from the sum of the two terms' keys gives
    the key of x^(xa + xb - t) d^(da + db - t).  The t = 0 term, offset 0
    and factor 1, is left out: `mul` adds it directly, so the tuple is
    empty when da and xb share no axis.
    """
    n = query & _LOW
    axes = []
    for i in range(n):
        sd = (n + 1 - i) * _WIDTH
        da, xb = query >> sd & _FIELD, query >> sd + n * _WIDTH & _FIELD
        if da and xb:
            axes.append((da, xb, _unit(n, i)))
    out = []
    for t in product(*(range(min(da, xb) + 1) for da, xb, _u in axes)):
        offset, f = 0, 1
        for ti, (da, xb, unit) in zip(t, axes):
            if ti:
                offset += ti * unit
                f *= comb(da, ti) * comb(xb, ti) * factorial(ti)
        out.append((offset, f))
    return tuple(out[1:])


def _buckets(nums: dict[int, int], mask: int) -> dict[int, list[tuple[int, int]]]:
    """The (key, numerator) terms grouped by the masked part of their key."""
    out: dict[int, list[tuple[int, int]]] = {}
    for key, v in nums.items():
        out.setdefault(key & mask, []).append((key, v))
    return out


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in the Weyl algebra, result in normal order.

    The monomial kernel reorders d^b * x^c with the closed form

        d^b x^c = sum_t  C(b,t) * C(c,t) * t!  *  x^(c-t) d^(b-t)

    where t runs over multi-indices with t <= min(b, c) componentwise and
    the combinatorial factor is a product over coordinates.  This fixes
    d^j * x_i = x_i * d^j + delta(i,j).

    A pair's contractions depend only on the d-part of its left term and
    the x-part of its right term, so the left operand's terms are bucketed
    by d-part, the right operand's by x-part, and `_contractions` is looked
    up once per bucket pair.  Each term pair multiplies the stored integer
    numerators and adds the t = 0 term at the sum of its keys, then every
    other contraction at that sum minus its packed offset; a bucket pair
    with no other contraction, such as one with a d-free left bucket, runs
    a loop with no offset arithmetic.  The sums are over the product of the
    two denominators, which `_reduced` then brings to lowest terms.
    Operands whose largest total degrees sum past the key limit raise
    `OverflowError`.
    """
    _check_same_n(a, b)
    n = a.n
    nums_a, nums_b = a._nums, b._nums
    _check_room(_top(nums_a) + _top(nums_b))
    d_mask = _d_mask(n)
    right = _buckets(nums_b, d_mask << n * _WIDTH).items()
    out: dict[int, int] = {}
    get = out.get
    for da, terms_a in _buckets(nums_a, d_mask).items():
        for xb, terms_b in right:
            rest = _contractions(da | xb | n)
            if rest:
                for ka, ca in terms_a:
                    for kb, cb in terms_b:
                        key = ka + kb
                        c = ca * cb
                        out[key] = get(key, 0) + c
                        for offset, f in rest:
                            k = key - offset
                            out[k] = get(k, 0) + c * f
            else:
                for ka, ca in terms_a:
                    for kb, cb in terms_b:
                        key = ka + kb
                        out[key] = get(key, 0) + ca * cb
    return _reduced(n, a._den * b._den, out)


def _commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """The commutator ab - ba in normal order, from contraction terms alone.

    The t = 0 term of a term pair is the same in both orders and cancels, so
    this sums, bucketed and looked up as in `mul`, the t >= 1 contractions of
    (a, b) and those of (b, a) with b's numerators negated.  Operands whose
    largest total degrees sum past the key limit raise `OverflowError`.
    """
    _check_same_n(a, b)
    n, nums_a, nums_b = a.n, a._nums, b._nums
    _check_room(_top(nums_a) + _top(nums_b))
    d_mask = _d_mask(n)
    out: dict[int, int] = {}
    get = out.get
    for left, right in ((nums_a, nums_b), ({k: -v for k, v in nums_b.items()}, nums_a)):
        right_buckets = _buckets(right, d_mask << n * _WIDTH).items()
        for da, terms_l in _buckets(left, d_mask).items():
            for xb, terms_r in right_buckets:
                rest = _contractions(da | xb | n)
                if rest:
                    for kl, cl in terms_l:
                        for kr, cr in terms_r:
                            key, c = kl + kr, cl * cr
                            for offset, f in rest:
                                k = key - offset
                                out[k] = get(k, 0) + c * f
    return _reduced(n, a._den * b._den, out)


def truncate(a: WeylElement, max_d_degree: int) -> WeylElement:
    """Drop every term whose total d-degree exceeds the bound; idempotent."""
    if max_d_degree < 0:
        raise ValueError(f"truncation order must be >= 0, got {max_d_degree}")
    kept = {k: v for k, v in a._nums.items() if k & _FIELD <= max_d_degree}
    if len(kept) == len(a._nums):
        return a
    return _reduced(a.n, a._den, kept)


# Few distinct d-parts occur, so a small bound suffices.
@lru_cache(maxsize=1024)
def _fock_shift(query: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(shift, ((position, e), ...)) of the d-part d^e packed in ``query``.

    ``query`` is laid out as in `_contractions`, with no x fields.  x^a d^e
    sends x^m to prod m_i!/(m_i - e_i)! x^(a + m - e) when e <= m: the key of
    x^(a + m - e) is key(x^a d^e) + key(x^m) - shift, and each nonzero e_i
    comes with the bit position of the x_i field whose m_i it needs.  Only
    the nonzero d fields are visited, lowest first.
    """
    n = query & _LOW
    shift, fields = 0, []
    rest = query >> 2 * _WIDTH  # the d fields, d_n at the bottom
    while rest:
        j = ((rest & -rest).bit_length() - 1) // _WIDTH
        e = rest >> j * _WIDTH & _FIELD
        rest ^= e << j * _WIDTH
        shift += e * _unit(n, n - 1 - j)
        fields.append(((n + 2 + j) * _WIDTH, e))
    return shift, tuple(fields)


def _fock_plan(a: WeylElement) -> tuple[int, tuple]:
    """Build and keep a's Fock plan: (top, groups), see `fock_apply`."""
    n, groups = a.n, []
    for dpart, terms in _buckets(a._nums, _d_mask(n)).items():
        shift, fields = _fock_shift(dpart | n)
        groups.append((terms[0][0] & _FIELD, fields, tuple((k - shift, c) for k, c in terms)))
    object.__setattr__(a, "_fock", (_top(a._nums), tuple(sorted(groups))))
    return a._fock


def fock_apply(a: WeylElement, p: WeylElement) -> WeylElement:
    """Apply a as a differential operator to the commutative polynomial p.

    A term x^a d^b sends the monomial x^c to  prod_i (c_i)!/(c_i-b_i)! *
    x^(a+c-b)  when b <= c componentwise, else to 0; extended bilinearly.
    As in `mul`, term pairs sum integer numerators over the product of the
    two denominators, and keys combine by integer arithmetic.

    On its first action an operator keeps its *Fock plan* in ``_fock``: its
    largest total-degree field, and its terms grouped by d-part, lowest
    d-degree first, as ``(d_degree, fields, ((key - shift, c), ...))`` with
    shift and fields from `_fock_shift`.  Later actions reuse it: groups
    whose d-degree is above p's degree are never reached, and per target
    term the divisibility test and falling factorial run once per group.
    """
    _check_same_n(a, p)
    nums_p = p._nums
    if any(map(_FIELD.__and__, nums_p)):
        raise ValueError("fock_apply target must be a polynomial (dexp == 0)")
    try:
        top_a, groups = a._fock
    except AttributeError:
        top_a, groups = _fock_plan(a)
    top_p = _top(nums_p)
    _check_room(top_a + top_p)
    degree_p = top_p >> _WIDTH
    out: dict[int, int] = {}
    get = out.get
    terms_p = nums_p.items()
    for dd, fields, terms in groups:
        if dd > degree_p:
            break  # d^e with |e| above the degree of p kills every term
        for kp, q in terms_p:
            f = q
            for pos, e in fields:
                m = kp >> pos & _FIELD
                if e > m:
                    break
                f *= perm(m, e)
            else:
                for base, c in terms:
                    key = base + kp
                    out[key] = get(key, 0) + c * f
    return _reduced(a.n, a._den * p._den, out)
