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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Mapping

from .rng import SplitMix64
from .weyl import MultiIndex, Rational, WeylElement

# (order N, l, i, j, monomial m with |m| = N - 1)
FamilyKey = tuple[int, int, int, int, MultiIndex]


def monomials_of_degree(n: int, degree: int) -> list[MultiIndex]:
    """All length-n exponent tuples of the given total degree, lex-sorted."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for pos in combo:
            exps[pos] += 1
        out.append(tuple(exps))
    return sorted(out)


class CoefficientFamily:
    """Sparse coefficient table for generator corrections.

    Keys are ``(N, l, i, j, m)`` with 1-based indices in 1..n, orders N in
    1..n_max, and ``m`` a length-n exponent tuple with ``sum(m) == N - 1``.
    Zero values are dropped.  By default the constructor rejects families
    that are not antisymmetric under swapping (i, j); pass
    ``check_antisymmetry=False`` to build a broken family on purpose.
    """

    __slots__ = ("n", "n_max", "_entries", "_antisymmetric")

    def __init__(
        self,
        n: int,
        n_max: int,
        entries: Mapping[FamilyKey, Rational | int] | None = None,
        *,
        check_antisymmetry: bool = True,
    ):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        canonical: dict[FamilyKey, Fraction] = {}
        if entries:
            for (order, l, i, j, m), value in entries.items():
                if not 1 <= order <= n_max:
                    raise ValueError(f"order {order} out of range 1..{n_max}")
                if not (1 <= l <= n and 1 <= i <= n and 1 <= j <= n):
                    raise IndexError(f"index {(l, i, j)} out of range 1..{n}")
                mi = tuple(map(int, m))
                if len(mi) != n or min(mi) < 0:
                    raise ValueError(f"bad monomial {m} for dimension {n}")
                if sum(mi) != order - 1:
                    raise ValueError(
                        f"monomial {mi} has degree {sum(mi)}, order {order} needs {order - 1}"
                    )
                v = value if type(value) is Fraction else Fraction(value)
                if v:
                    canonical[(order, l, i, j, mi)] = v
        antisymmetric = True
        for (order, l, i, j, m), v in canonical.items():
            # w == -v on normalized Fractions, without allocating -v
            w = canonical.get((order, l, j, i, m))
            if w is None or w.numerator != -v.numerator or w.denominator != v.denominator:
                antisymmetric = False
                if check_antisymmetry:
                    raise ValueError(
                        f"family is not antisymmetric at N={order}, l={l}, "
                        f"(i, j)=({i}, {j}), m={m}"
                    )
                break
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "_entries", canonical)
        object.__setattr__(self, "_antisymmetric", antisymmetric)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CoefficientFamily is immutable")

    def items(self) -> Iterator[tuple[FamilyKey, Fraction]]:
        return iter(self._entries.items())

    def entry_count(self) -> int:
        return len(self._entries)

    def get(self, order: int, l: int, i: int, j: int, m: MultiIndex) -> Fraction:
        return self._entries.get((order, l, i, j, tuple(m)), Fraction(0))

    def polynomial(self, order: int, l: int, i: int, j: int) -> WeylElement:
        """The (l, i, j) polynomial at the given order as a pure-d element."""
        zero = (0,) * self.n
        terms = {}
        for (o, ll, ii, jj, m), v in self._entries.items():
            if (o, ll, ii, jj) == (order, l, i, j):
                terms[(zero, m)] = v
        return WeylElement(self.n, terms)

    def is_antisymmetric(self) -> bool:
        return self._antisymmetric

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientFamily):
            return NotImplemented
        return (
            self.n == other.n
            and self.n_max == other.n_max
            and self._entries == other._entries
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"CoefficientFamily(n={self.n}, n_max={self.n_max}, "
            f"{len(self._entries)} nonzero entries)"
        )


def random_family(
    n: int,
    n_max: int,
    sparsity: Fraction = Fraction(1, 2),
    seed: int = 0,
) -> CoefficientFamily:
    """Random antisymmetric family with small exact-rational coefficients.

    Each (N, l, i < j, m) slot is filled with probability ``sparsity``; the
    mirrored (j, i) entry is the negation.  Iteration order is fixed, so a
    seed fully determines the family.
    """
    if not 0 <= sparsity <= 1:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    rng = SplitMix64(seed)
    entries: dict[FamilyKey, Fraction] = {}
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
    return CoefficientFamily(n, n_max, entries)


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


class GeneratorSet:
    """Truncated generators together with the family and cutoff they came from.

    ``generators[i - 1]`` is X_i.  The word cache memoizes symmetrization
    results per word; see `symorder.ordering`.
    """

    __slots__ = ("n", "max_d_degree", "family", "generators", "_word_cache")

    def __init__(
        self,
        family: CoefficientFamily,
        max_d_degree: int,
        generators: tuple[WeylElement, ...],
    ):
        self.n = family.n
        self.max_d_degree = max_d_degree
        self.family = family
        self.generators = generators
        self._word_cache: dict[object, object] = {}

    def generator(self, i: int) -> WeylElement:
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} out of range 1..{self.n}")
        return self.generators[i - 1]

    def __repr__(self) -> str:
        return f"GeneratorSet(n={self.n}, max_d_degree={self.max_d_degree})"


def build_generators(family: CoefficientFamily, max_d_degree: int) -> GeneratorSet:
    """Assemble X_1..X_n from the family, keeping d-degree <= max_d_degree.

    The order-N correction terms have d-degree exactly N, so the cutoff
    simply drops all orders beyond it.  One pass over the family fills a
    term dict per generator, seeded with the x_i key, which has d-degree 0
    and so never collides with a correction term.
    """
    if max_d_degree < 0:
        raise ValueError(f"truncation order must be >= 0, got {max_d_degree}")
    n = family.n
    zero = (0,) * n
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    buckets = [{(u, zero): Fraction(1)} for u in units]
    for (order, l, i, j, m), v in family.items():
        if order <= max_d_degree:
            terms = buckets[i - 1]
            key = (units[l - 1], m[: j - 1] + (m[j - 1] + 1,) + m[j:])
            s = terms[key] + v if key in terms else v
            if s:
                terms[key] = s
            else:
                del terms[key]
    return GeneratorSet(family, max_d_degree, tuple(WeylElement._raw(n, t) for t in buckets))
