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

An element stores its coefficients in one representation: integer numerators
over one positive denominator, with no factor common to the denominator and
all numerators, so equal elements have equal fields.  So do
`CoefficientFamily` and `StructureConstants`: `_encode` takes exact values
to these fields and `_lowest_terms` divides out the common factor, for every
value type.  `mul`, `_commutator`, `fock_apply`, `linear_combination` and
`truncate` compute on the integers and finish through `_reduced`, which
drops zeros and calls `_lowest_terms`.  `linear_combination` is the one
route for sums of scaled elements: ``+``, ``-`` and `scale` call it, and so
does every caller that sums many parts; it takes the lcm of the parts'
denominators, accumulates in one pass and reduces once.  `mul` is the one
route for products: elements define no ``*``, ``/`` or ``**``.
`_commutator` is the one route for commutators; its oracle, a difference of
two reference products, lives in the tests.  The accessors hand coefficients
out as ``fractions.Fraction`` values.

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
`coefficient` and `sorted_terms`.  A product of two terms is its t = 0
term, at the sum of their keys, plus its t >= 1 contraction terms.  So `mul`
is every term pair's t = 0 term plus `_contract`, the one contraction loop,
and `_commutator` is `_contract` of both orders alone: the t = 0 terms cancel.
Given ``max_d_degree=D``, both sort the right operand by d-degree, the bottom
field, to skip term pairs that land only above D, unless no term can pass D.

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

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, inf, lcm, perm
from operator import index, itemgetter
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

    Constructors set the slots through ``_fill``, and ``__setstate__``
    restores them, past the refusing ``__setattr__``, so instances still
    pickle and copy.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fill(self, *values: object) -> None:
        """Set the slots, in their declared order, to values."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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


def _whole(v: int, what: str, low: float, high: float = inf, error: type = ValueError) -> int:
    """The size, index, order, cutoff or seed v as an int in low..high (ends may be inf);
    a value `operator.index` refuses raises `TypeError`, one out of range ``error``."""
    try:
        v = index(v)
    except TypeError:
        raise TypeError(f"{what} must be an int, got {type(v).__name__} {v!r}") from None
    if not low <= v <= high:
        span = f">= {low}" if high == inf else f"in {low}..{high}"
        raise error(f"{what} must be {span}, got {v}")
    return v


def _indices(key: tuple, n: int) -> tuple[int, ...]:
    """The index tuple key as ints in 1..n under `_whole`'s rule, in one pass over the key."""
    try:
        t = tuple(map(index, key))
    except TypeError:
        raise TypeError(f"indices must be ints, got {key!r}") from None
    if min(t) < 1 or max(t) > n:
        raise IndexError(f"index {t} out of range 1..{n}")
    return t


def _encode(pairs: Iterable[tuple[object, Fraction | int]]) -> tuple[int, dict]:
    """(den, nums) of exact (key, value) pairs: each key's values summed as int numerators
    over the lcm of the denominators, zero sums dropped, in lowest terms."""
    pairs = list(pairs)
    den = lcm(*(c.denominator for _key, c in pairs))
    nums: dict = {}
    for key, c in pairs:
        nums[key] = nums.get(key, 0) + c.numerator * (den // c.denominator)
    return _lowest_terms(den, {key: v for key, v in nums.items() if v})


def _lowest_terms(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) with the common factor of den and the numerators divided out."""
    g = gcd(den, *nums.values())
    return (den, nums) if g == 1 else (den // g, {key: v // g for key, v in nums.items()})


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


def _top(nums: dict[int, int], mask: int = _TOTAL) -> int:
    """The largest masked field, in place, over a key set (default: total degree); 0 if empty."""
    return max(map(mask.__and__, nums), default=0)


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
    map over 1.  The constructor skips zero coefficients before it reads
    their keys and encodes the rest; a coefficient that is not an int or a
    Fraction, or a non-integral dimension or exponent, raises `TypeError`,
    and a term of total degree above `_FIELD` `OverflowError`.
    ``_fock`` stays unset until the element first acts in `fock_apply`.
    """

    __slots__ = ("n", "_den", "_nums", "_fock")

    def __init__(self, n: int, terms: Mapping[TermKey, Fraction | int] | None = None):
        n = _whole(n, "ambient dimension", 1)
        live = [(key, c) for key, c in terms.items() if _exact(c)] if terms else []
        self._fill(n, *_encode(
            (_pack(_as_multi_index(xexp, n, "xexp"), _as_multi_index(dexp, n, "dexp")), c)
            for (xexp, dexp), c in live))

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
        return _reduced(self.n, self._den, {k: -v for k, v in self._nums.items()})

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


def _reduced(n: int, den: int, nums: dict[int, int], cap: int | None = None) -> WeylElement:
    """The element nums / den: zeros and any terms above d-degree cap dropped, gcd divided out.

    Every operation makes its result here, past the constructor's checks.
    """
    if cap is not None:
        nums = {k: v for k, v in nums.items() if k & _FIELD <= cap}
    den, nums = _lowest_terms(den, {k: v for k, v in nums.items() if v})
    a = object.__new__(WeylElement)
    object.__setattr__(a, "n", n)
    object.__setattr__(a, "_den", den)
    object.__setattr__(a, "_nums", nums)
    return a


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
    _whole(n, "ambient dimension", 1)
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
    for name, exps in (("x", xexp), ("d", dexp)):
        for i, e in enumerate(exps, 1):
            if e == 1:
                factors.append(f"{name}{i}")
            elif e > 1:
                factors.append(f"{name}{i}^{e}")
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
    i = _whole(i, "generator index", 1, _whole(n, "ambient dimension", 1), IndexError)
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def weyl_x(n: int, i: int) -> WeylElement:
    """The generator x_i (1-based index)."""
    return _reduced(n, 1, {_pack(_unit_index(n, i), (0,) * n): 1})


def weyl_d(n: int, j: int) -> WeylElement:
    """The generator d^j (1-based index)."""
    unit = _unit_index(n, j)  # checks n before (0,) * n uses it
    return _reduced(n, 1, {_pack((0,) * n, unit): 1})


def weyl_scalar(n: int, c: Fraction | int) -> WeylElement:
    """The scalar element c*1; zero gives the empty term map."""
    c = _exact(c)
    return _reduced(_whole(n, "ambient dimension", 1), c.denominator, {0: c.numerator})


# Bounded, so memory stays flat; typical suites meet a few thousand pairs.
@lru_cache(maxsize=4096)
def _contractions(query: int) -> tuple[tuple[int, int], ...]:
    """Reorderings of d^da x^xb past t = 0, as (offset, C(da,t) C(xb,t) t!).

    ``query`` holds da in the d fields and xb in the x fields of an
    n-dimensional key, and n in the two bottom fields, so one int keys the
    cache.  Subtracting ``offset`` from the sum of the two terms' keys gives
    the key of x^(xa + xb - t) d^(da + db - t).  The t = 0 term, offset 0
    and factor 1, is left out: `mul` adds it without a lookup, so
    the tuple is empty when da and xb share no axis.
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


def _cap(a: WeylElement, b: WeylElement, cap: int | None) -> int | None:
    """Check that a and b multiply; the cap of ab, None if no term can pass it."""
    _check_same_n(a, b)
    cap = cap if cap is None else _whole(cap, "truncation order", 0)
    _check_room(_top(a._nums) + _top(b._nums))
    return None if cap is None or _top(a._nums, _FIELD) + _top(b._nums, _FIELD) <= cap else cap


def _by_d_degree(nums: dict[int, int], cap: int | None) -> dict[int, int]:
    """With a cap, nums stably sorted by d-degree, the bottom key field; else nums."""
    return nums if cap is None else {k: nums[k] for k in sorted(nums, key=_FIELD.__and__)}


def _contract(
    out: dict[int, int], left: dict[int, int], right: dict[int, int], n: int, cap: int | None
) -> None:
    """Add to out the t >= 1 terms of left times right, both numerator maps.

    A term pair reorders d^b x^c with the closed form

        d^b x^c = sum_t  C(b,t) * C(c,t) * t!  *  x^(c-t) d^(b-t)

    where t runs over multi-indices with t <= min(b, c) componentwise and
    the combinatorial factor is a product over coordinates; this fixes
    d^j * x_i = x_i * d^j + delta(i,j).  The terms depend only on the left
    term's d-part and the right term's x-part, so left is bucketed by d-part,
    right by x-part, and `_contractions` is looked up once per bucket pair,
    skipping pairs with nothing to contract.  Each term pair's numerator
    product, times each factor, lands at its key sum minus the offset.  With
    a cap, right must come in d-degree order, as `_by_d_degree` sorts it (the
    caller sorts, once), and a bucket pair runs only the right terms whose
    d-degree plus left's minus the last offset's |t|, the largest (t runs in
    `product` order), is at most the cap: a bisect of the bucket's d-degrees.
    """
    d_mask = _d_mask(n)
    get = out.get
    right_buckets = _buckets(right, d_mask << n * _WIDTH).items()
    degs = None if cap is None else {xb: [k & _FIELD for k, _v in ts] for xb, ts in right_buckets}
    for da, terms_l in _buckets(left, d_mask).items():
        for xb, terms_r in right_buckets:
            rest = _contractions(da | xb | n)
            if rest:
                if cap is not None:
                    # |t| <= the left d-degree, so the bottom field never borrows
                    top = cap - (terms_l[0][0] - rest[-1][0] & _FIELD)
                    terms_r = terms_r[: bisect_right(degs[xb], top)]
                for kl, cl in terms_l:
                    for kr, cr in terms_r:
                        key, c = kl + kr, cl * cr
                        for offset, f in rest:
                            k = key - offset
                            out[k] = get(k, 0) + c * f


def mul(a: WeylElement, b: WeylElement, *, max_d_degree: int | None = None) -> WeylElement:
    """Product in the Weyl algebra, result in normal order.

    Each term pair adds its numerators' product, the t = 0 term, at the sum
    of its keys; `_contract` adds the rest.  The sums are over the product of
    the two denominators, which `_reduced` brings to lowest terms.  Operands
    whose largest total degrees sum past the key limit raise `OverflowError`.
    ``mul(a, b, max_d_degree=D)`` is ``truncate(mul(a, b), D)`` without the
    term pairs that land only above D; a negative D raises `ValueError` first.
    """
    cap = _cap(a, b, max_d_degree)
    nums_a, nums_b = a._nums, _by_d_degree(b._nums, cap)
    degs = None if cap is None else [k & _FIELD for k in nums_b]
    out: dict[int, int] = {}
    get = out.get
    terms_b = nums_b.items() if cap is None else list(nums_b.items())
    for ka, ca in nums_a.items():
        kept = terms_b if cap is None else terms_b[: bisect_right(degs, cap - (ka & _FIELD))]
        for kb, cb in kept:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    _contract(out, nums_a, nums_b, a.n, cap)
    return _reduced(a.n, a._den * b._den, out, cap)


def _commutator(a: WeylElement, b: WeylElement, *, max_d_degree: int | None = None) -> WeylElement:
    """The commutator ab - ba in normal order, from contraction terms alone.

    The t = 0 term of a term pair is the same in both orders and cancels, so
    this is `_contract` of (a, b) plus `_contract` of (-b, a).  Operand
    checks and ``max_d_degree`` are as in `mul`; with a cap, each operand is
    sorted once for its turn on the right.
    """
    cap = _cap(a, b, max_d_degree)
    out: dict[int, int] = {}
    _contract(out, a._nums, _by_d_degree(b._nums, cap), a.n, cap)
    _contract(out, {k: -v for k, v in b._nums.items()}, _by_d_degree(a._nums, cap), a.n, cap)
    return _reduced(a.n, a._den * b._den, out, cap)


def truncate(a: WeylElement, max_d_degree: int) -> WeylElement:
    """Drop every term whose total d-degree exceeds the bound; idempotent."""
    return _reduced(a.n, a._den, a._nums, _whole(max_d_degree, "truncation order", 0))


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
        groups.append((terms[0][0] & _FIELD, shift, fields, terms))
    object.__setattr__(a, "_fock", (_top(a._nums), tuple(sorted(groups, key=itemgetter(0)))))
    return a._fock


def fock_apply(a: WeylElement, p: WeylElement) -> WeylElement:
    """Apply a as a differential operator to the commutative polynomial p.

    A term x^a d^b sends the monomial x^c to  prod_i (c_i)!/(c_i-b_i)! *
    x^(a+c-b)  when b <= c componentwise, else to 0; extended bilinearly.
    As in `mul`, term pairs sum integer numerators over the product of the
    two denominators, and keys combine by integer arithmetic.

    On its first action an operator keeps its *Fock plan* in ``_fock``: its
    largest total-degree field, and its terms grouped by d-part, lowest
    d-degree first, as ``(d_degree, shift, fields, [(key, c), ...])`` with
    shift and fields from `_fock_shift` and the terms as `_buckets` grouped
    them.  Later actions reuse it: groups whose d-degree is above p's degree
    are never reached, and per target term the divisibility test, the
    falling factorial and the shift's subtraction run once per group; each
    term of a dividing group lands at its own key plus the shifted target key.
    """
    _check_same_n(a, p)
    if not p.is_polynomial():
        raise ValueError("fock_apply target must be a polynomial (dexp == 0)")
    try:
        top_a, groups = a._fock
    except AttributeError:
        top_a, groups = _fock_plan(a)
    top_p = _top(p._nums)
    _check_room(top_a + top_p)
    degree_p = top_p >> _WIDTH
    out: dict[int, int] = {}
    get = out.get
    terms_p = p._nums.items()
    for dd, shift, fields, terms in groups:
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
                base = kp - shift
                for k, c in terms:
                    key = k + base
                    out[key] = get(key, 0) + c * f
    return _reduced(a.n, a._den * p._den, out)
