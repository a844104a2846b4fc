"""Differential-operator generators built from coefficient families.

A coefficient family assigns to each order N in 1..n_max and index triple
(l, i, j) a homogeneous degree-(N - 1) polynomial in the derivative symbols,
stored sparsely as coefficients on monomials m with |m| = N - 1:

    entries[(N, l, i, j, m)] = coefficient of d^m in the (l, i, j) polynomial.

The induced generators are perturbations of the coordinate operators,

    X_i = x_i + sum_{N,l,j,m} entries[(N, l, i, j, m)] * x_l * d^(m + e_j),

cut off at a chosen d-degree.  Families antisymmetric in (i, j) are the ones
the symmetrized-ordering identity holds for; the constructor enforces
antisymmetry unless told not to, so deliberately broken control families can
still be built for comparison.

A family stores its values as every `weyl.ExactValue` does: int numerators
over one positive denominator.  `random_family` draws them as
ints and `build_generators` sums them as ints into the generators' packed
terms, so no `Fraction` is made between a seed and the generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations_with_replacement, repeat
from math import comb
from typing import Mapping

from .rng import _RATIONAL_SCALE, SplitMix64, rational_pair
from .weyl import (
    ExactValue, Immutable, MultiIndex, WeylElement, _as_multi_index, _encode, _exact, _indices,
    _pack, _reduced, _whole
)

# (order N, l, i, j, monomial m with |m| = N - 1)
FamilyKey = tuple[int, int, int, int, MultiIndex]

_BLOCK_CAP = 4096  # the most draws random_family mixes at once


def monomials_of_degree(n: int, degree: int) -> list[MultiIndex]:
    """All length-n exponent tuples of the given total degree, lex-sorted."""
    n, degree = _whole(n, "dimension", 1), _whole(degree, "degree", 0)
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for pos in combo:
            exps[pos] += 1
        out.append(tuple(exps))
    return sorted(out)


class CoefficientFamily(ExactValue):
    """Sparse coefficient table for generator corrections.

    Keys are ``(N, l, i, j, m)`` with 1-based indices in 1..n, orders N in
    1..n_max, and ``m`` a length-n exponent tuple with ``sum(m) == N - 1``;
    a non-integral order, index or exponent, or a value that is not an int
    or a Fraction, raises `TypeError`.  Zero values are dropped.
    By default the constructor rejects families that are not antisymmetric
    under swapping (i, j); pass ``check_antisymmetry=False`` to build a
    broken family on purpose.  Numerators keep the entries' order.
    """

    __slots__ = ("n", "n_max", "_den", "_nums")

    def __init__(
        self,
        n: int,
        n_max: int,
        entries: Mapping[FamilyKey, Fraction | int] | None = None,
        *,
        check_antisymmetry: bool = True,
    ):
        n, n_max = _whole(n, "dimension", 1), _whole(n_max, "n_max", 1)
        pairs = []
        for (order, l, i, j, m), value in (entries or {}).items():
            order = _whole(order, "order", 1, n_max)
            l, i, j = _indices((l, i, j), n)
            mi = _as_multi_index(m, n, "monomial")
            if sum(mi) != order - 1:
                raise ValueError(f"monomial {mi} of order {order} must have degree {order - 1}")
            pairs.append(((order, l, i, j, mi), _exact(value)))
        den, nums = _encode(pairs)
        if check_antisymmetry:
            for (order, l, i, j, m), v in nums.items():
                if nums.get((order, l, j, i, m)) != -v:
                    raise ValueError(
                        f"family is not antisymmetric at N={order}, l={l}, "
                        f"(i, j)=({i}, {j}), m={m}"
                    )
        self._fill(n, n_max, den, nums)


def random_family(
    n: int,
    n_max: int,
    sparsity: Fraction = Fraction(1, 2),
    seed: int = 0,
) -> CoefficientFamily:
    """Random antisymmetric family with small exact-rational coefficients.

    Each (N, l, i < j, m) slot is filled with probability ``sparsity``; the
    mirrored (j, i) entry is the negation.  Iteration order is fixed, so a
    seed fully determines the family.  The stream is drawn exactly as by
    ``rng.bernoulli(sparsity)`` and ``rng.rational()`` per slot, but from
    blocks of `SplitMix64.draws`: the walk takes the next value of the
    current block and draws another block of the same size when it runs
    out.  A block holds one draw per slot, at most `_BLOCK_CAP`, so a small
    family draws little past its end and a large one holds one capped block
    at a time.  Each filled slot takes its (v, -v) pair from
    `rng.rational_pair` as int numerators over `rng._RATIONAL_SCALE` (12),
    so no `Fraction` is made; the family divides out the common factor
    once.  The entries are valid by construction (nonzero draws,
    degree-(N - 1) monomials, mirrored pairs), so the family is wrapped
    without the constructor's checks.
    """
    n, n_max = _whole(n, "dimension", 1), _whole(n_max, "n_max", 1)
    if not 0 <= _exact(sparsity) <= 1:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    slots = n * comb(n, 2) * comb(n + n_max - 1, n_max - 1)
    rng = SplitMix64(seed)
    draw = chain.from_iterable(map(rng.draws, repeat(min(slots, _BLOCK_CAP)))).__next__
    # u * den < num * 2^64, as rng.bernoulli, is u < ceil(num * 2^64 / den)
    hit = -((-sparsity.numerator << 64) // sparsity.denominator)
    nums: dict[FamilyKey, int] = {}
    for order in range(1, n_max + 1):
        monomials = monomials_of_degree(n, order - 1)
        for l in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for m in monomials:
                        if draw() < hit:
                            pair = rational_pair(draw)
                            nums[(order, l, i, j, m)], nums[(order, l, j, i, m)] = pair
    return CoefficientFamily._raw(n, n_max, _RATIONAL_SCALE, nums)


def symmetric_control_family() -> CoefficientFamily:
    """The minimal family violating antisymmetry: n = 2, order 1, with the
    (1, 1, 2) and (1, 2, 1) constants both equal to 1.

    Generators are X_1 = x_1 + x_1 d2 and X_2 = x_2 + x_1 d1; already the
    two-letter word (1, 2) leaves a nonzero symmetrization residual, showing
    the antisymmetry hypothesis cannot be dropped.
    """
    entries = {
        (1, 1, 1, 2, (0, 0)): Fraction(1),
        (1, 1, 2, 1, (0, 0)): Fraction(1),
    }
    return CoefficientFamily(2, 1, entries, check_antisymmetry=False)


class GeneratorSet(Immutable):
    """Truncated generators and the d-degree cutoff they were built at.

    ``generators[i - 1]`` is X_i.  The set records no family, so any builder
    can make one; it raises `ValueError` unless it gets n >= 1 generators of
    dimension n and a cutoff >= 0, the shape the word recursion indexes.
    The word cache memoizes symmetrization results per word;
    see `symorder.ordering`.  Threads may share a set without a lock: a
    cache entry is an immutable value that is never removed, dict reads and
    writes are atomic, and two threads that fill the same state write equal
    values.
    """

    __slots__ = ("n", "max_d_degree", "generators", "_word_cache")

    def __init__(self, n: int, max_d_degree: int, generators: tuple[WeylElement, ...]):
        n, max_d_degree = _whole(n, "dimension", 1), _whole(max_d_degree, "cutoff", 0)
        if len(generators) != n or any(g.n != n for g in generators):
            raise ValueError(f"need {n} generators of dimension {n}, got {[g.n for g in generators]}")
        self._fill(n, max_d_degree, generators, {})

    def __repr__(self) -> str:
        return f"GeneratorSet(n={self.n}, max_d_degree={self.max_d_degree})"


def build_generators(family: CoefficientFamily, max_d_degree: int) -> GeneratorSet:
    """Assemble X_1..X_n from the family, keeping d-degree <= max_d_degree.

    The order-N correction terms have d-degree exactly N, so the cutoff
    simply drops all orders beyond it.  One pass over the family fills a
    term dict per generator, seeded with the x_i key, which has d-degree 0
    and so never collides with a correction term.  Terms are keyed by
    their packed `WeylElement` keys from the start, and the family's own
    int numerators are summed over its denominator; `_reduced` then drops
    the sums that cancel and divides out each generator's common factor,
    including any factor of the denominator that only dropped orders needed.
    """
    n, den = family.n, family._den
    zero = (0,) * n
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    x_keys = [_pack(u, zero) for u in units]
    d_keys = [_pack(zero, u) for u in units]
    m_keys: dict[MultiIndex, int] = {}  # few distinct monomials per family
    buckets = [{k: den} for k in x_keys]
    for (order, l, i, j, m), num in family._nums.items():
        if order > max_d_degree:
            continue
        terms = buckets[i - 1]
        m_key = m_keys.get(m)
        if m_key is None:
            m_key = m_keys[m] = _pack(zero, m)
        # keys are linear in the exponents: key(x_l d^(m + e_j))
        key = x_keys[l - 1] + m_key + d_keys[j - 1]
        terms[key] = terms.get(key, 0) + num
    return GeneratorSet(n, max_d_degree, tuple(_reduced(n, den, t) for t in buckets))
