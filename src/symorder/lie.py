"""Lie structure constants and their realization inside the Weyl algebra.

A bracket table C[k][i][j] (the coefficient of the k-th basis element in the
bracket of elements i and j) is valid when it is antisymmetric in (i, j) and
satisfies the quadratic Jacobi constraint.  From a valid table this module
builds:

  * the coefficient family that carries the Bernoulli series term for term,
    from the powers of the n x n matrix of linear derivative forms
    M[i][j] = sum_k C[i][j,k] d^k, kept as commuting polynomials in the d's,
  * the Bernoulli-weighted embedding  embed(i) = sum_l x_l sum_N c_N (M^N)[l][i]
    with c_N = (-1)^N B_N / N!,  truncated at a chosen d-degree, built as
    the generators of that family (see `symorder.generators`), and
  * the commutator residuals of all basis pairs i < j, from one build of the
    embedding, that measure how far the truncated embedding is from sending
    brackets to commutators (exactly zero for valid tables).

Everything is exact.  Two things are cached: the Bernoulli table, filled from
tangent numbers under a lock and safe for concurrent reads, and each table's
validity verdict, which `StructureConstants.validate` writes once on its first
call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .generators import CoefficientFamily, FamilyKey, build_generators
from .rng import _RATIONAL_SCALE, _stream, _threshold, rational_pair
from .weyl import (
    ExactValue, MultiIndex, WeylElement, _commutator, _encode, _exact, _indices, _whole,
    linear_combination, truncate
)
from .weyl import mul  # unused here, kept: perfbench/spans.py hooks symorder.lie.mul


@dataclass(frozen=True)
class Violation:
    """One failed validity check: which identity, at which indices, residual."""

    kind: str  # "antisymmetry" or "jacobi"
    indices: tuple[int, ...]
    residual: Fraction

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.indices}: residual {self.residual}"


class InvalidStructureConstantsError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"invalid structure constants: {lines}{more}")


class StructureConstants(ExactValue):
    """Sparse table C[k][i][j] of int or Fraction entries at int indices 1..n, keyed by
    (k, i, j); ``_violations``, the verdict of `validate`, is unset until its first call."""

    __slots__ = ("n", "_den", "_nums", "_violations")

    def __init__(self, n: int, entries: Mapping[tuple[int, int, int], Fraction | int] | None = None):
        n = _whole(n, "dimension", 1)
        pairs = [(_indices((k, i, j), n), _exact(c)) for (k, i, j), c in (entries or {}).items()]
        self._fill(n, *_encode(pairs))

    def get(self, k: int, i: int, j: int) -> Fraction:
        return Fraction(self._nums.get((k, i, j), 0), self._den)

    def validate(self) -> list[Violation]:
        """All antisymmetry and Jacobi violations (empty iff the table is valid).

        Violations are data, not errors; each names the offending index tuple
        and the nonzero residual.  Results are cached as a tuple (the table
        is immutable) and each call returns a fresh list, so a caller that
        edits the list leaves the table's verdict alone.

        Antisymmetry C[k][i,j] + C[k][j,i] is checked at (k, i <= j) for each
        stored entry or mirror only; every other residual is zero.  Both checks
        sum numerators; a residual is divided once, by ``_den`` or ``_den**2``.

        Jacobi is checked on sorted triples i < j < l only.  Once antisymmetry
        holds, the cyclic sum is totally antisymmetric in (i, j, l), so it
        vanishes on repeated indices and any other order repeats a sorted
        triple up to sign; a table failing antisymmetry is already reported.
        The cyclic sum over s of C[s][a,b] * C[m][s,c], (a, b, c) running over
        the rotations of (i, j, l), is formed as a sparse join: the table is
        indexed once by its first lower index, each entry C[s][a,b] meets the
        entries C[m][s,c] under s, and their product is credited to the one
        rotation of (a, b, c) that is sorted, if any.  The work is the number
        of joined entry pairs (at most the square of the entry count), not
        the n^5 / 6 of a dense sweep, and an empty table costs nothing.
        Violations come out in (k, i, j) and then (i, j, l, m) order.
        """
        try:
            return list(self._violations)
        except AttributeError:
            pass  # the first call: check the table
        den, table = self._den, self._nums
        out: list[Violation] = []
        for k, i, j in sorted({(k, min(i, j), max(i, j)) for k, i, j in table}):
            r = table.get((k, i, j), 0) + table.get((k, j, i), 0)
            if r:
                out.append(Violation("antisymmetry", (k, i, j), Fraction(r, den)))
        by_lower: dict[int, list[tuple[int, int, int]]] = {}
        for (m, s, c), w in table.items():
            by_lower.setdefault(s, []).append((m, c, w))
        sums: dict[tuple[int, int, int, int], int] = {}
        for (s, a, b), v in table.items():
            for m, c, w in by_lower.get(s, ()):
                if a < b < c:
                    key = (a, b, c, m)
                elif c < a < b:
                    key = (c, a, b, m)
                elif b < c < a:
                    key = (b, c, a, m)
                else:
                    continue
                sums[key] = sums.get(key, 0) + v * w
        out += [Violation("jacobi", key, Fraction(r, den * den))
                for key, r in sorted(sums.items()) if r]
        object.__setattr__(self, "_violations", tuple(out))
        return out

    def require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidStructureConstantsError(violations)


# -- Bernoulli numbers --------------------------------------------------------

_bernoulli_lock = threading.Lock()
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def _tangent_numbers(count: int) -> list[int]:
    """The tangent numbers T_1..T_count (1, 2, 16, 272, ...), the Taylor
    coefficients of tan x times (2k - 1)!, in O(count^2) integer operations
    (Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers", 2011, Algorithm TangentNumbers)."""
    t = [0, 1]
    for k in range(2, count + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : count + 1]


def bernoulli(index: int) -> Fraction:
    """Bernoulli number B_index in the convention with B_1 = -1/2.

    The even values come from the tangent numbers, B_2k = (-1)^(k-1) 2k T_k
    / (4^k (4^k - 1)); the odd ones past B_1 are zero.  Values are memoized;
    a miss fills the table to at least twice its length, so asking for
    B_0..B_m in turn costs O(m^2) integer operations in all, and the fill is
    locked so the table behaves as if computed once.
    """
    _whole(index, "Bernoulli index", 0)
    if index >= len(_bernoulli_cache):
        with _bernoulli_lock:
            size = len(_bernoulli_cache)
            if index >= size:
                table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * max(index - 1, 2 * size - 2)
                for k, t in enumerate(_tangent_numbers((len(table) - 1) // 2), 1):
                    table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))
                _bernoulli_cache.extend(table[size:])
    return _bernoulli_cache[index]


# -- the universal embedding ---------------------------------------------------


def _embedding_images(sc: StructureConstants, max_d_degree: int) -> tuple[WeylElement, ...]:
    """All n embedding images at once: the generators of `derived_family`."""
    return build_generators(derived_family(sc, max(max_d_degree, 1)), max_d_degree).generators


def iota(sc: StructureConstants, i: int, max_d_degree: int) -> WeylElement:
    """Embedding image of basis element i, keeping terms of d-degree <= bound.

    The N-th summand contributes x_l times the (l, i) entry of the N-th
    matrix power, weighted by (-1)^N B_N / N!; terms with N > max_d_degree
    are dropped (each summand is d-homogeneous of degree N).
    """
    i = _whole(i, "basis index", 1, sc.n, IndexError)
    return _embedding_images(sc, _whole(max_d_degree, "truncation order", 0))[i - 1]


def homomorphism_defect(
    sc: StructureConstants, max_d_degree: int
) -> dict[tuple[int, int], WeylElement]:
    """[embed(i), embed(j)] - sum_k C[k][i,j] embed(k) for every pair i < j,
    exact to the bound, keyed by (i, j) in row order.

    The images are built once, one order past the bound: a single x-d
    contraction lowers d-degree by exactly one, so degree-(D+1) series terms
    feed degree-D commutator terms and nothing deeper does.  `_commutator`
    forms each commutator capped at the bound, never forming the term pairs
    that land only above it; the bracket sums take the table's nonzero
    entries, grouped once by (i, j) in k order.  The bracket images reach
    D + 1, so each residual is truncated back to the bound; valid tables give 0.
    """
    _whole(max_d_degree, "truncation order", 0)
    n = sc.n
    images = _embedding_images(sc, max_d_degree + 1)
    brackets: dict[tuple[int, int], list[tuple[Fraction, WeylElement]]] = {}
    for (k, i, j), c in sorted(sc.items()):
        brackets.setdefault((i, j), []).append((-c, images[k - 1]))
    defects = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            bracket = _commutator(images[i - 1], images[j - 1], max_d_degree=max_d_degree)
            parts = [(1, bracket), *brackets.get((i, j), ())]
            defects[(i, j)] = truncate(linear_combination(n, parts), max_d_degree)
    return defects


def derived_family(sc: StructureConstants, n_max: int) -> CoefficientFamily:
    """Coefficient family reproducing the embedding: at order N the (l, i, j)
    polynomial is (-1)^N B_N / N! * sum_s (M^(N-1))[l][s] * C[s][i,j].

    Generators built from it at truncation D are the embedding images
    (`iota`) at D: since (M^N)[l][i] = sum_{s,j} (M^(N-1))[l][s] C[s][i,j] d^j,
    the term x_l d^(m + e_j) of X_i collects the order-N series term.
    The work runs on ints: the table's numerators, over its denominator L,
    are indexed once by upper index s, and M^(N-1), whose entries commute,
    is kept as flat cells (l, s, m) -> L^(N-1) times the coefficient of d^m
    in (M^(N-1))[l][s].  Per order one loop over cells and index advances
    the power (cell * L C[s][i,j] to cell (l, i, m + e_j)); a second sums
    cell * L C[s][i,j] per entry (N, l, i, j, m).  Each nonzero sum, times
    the order's weight (-1)^N B_N / (N! L^N) over the lcm of the nonzero
    weights' denominators, is an entry's numerator: no `Fraction` is made
    per entry.  Only M^1..M^(n_max-1) are formed, and the walk stops at the
    first zero power, which makes every later one zero.  The validated table
    is antisymmetric, so the family is too and is wrapped unchecked.
    """
    _whole(n_max, "n_max", 1)
    sc.require_valid()
    n, scale = sc.n, sc._den
    by_upper: dict[int, list[tuple[int, int, int]]] = {}
    for (s, i, j), c in sc._nums.items():
        by_upper.setdefault(s, []).append((i, j, c))
    power = {(l, l, (0,) * n): 1 for l in range(1, n + 1)}  # M^0
    weights: dict[int, Fraction] = {}
    sums: dict[FamilyKey, int] = {}
    for order in range(1, n_max + 1):  # power holds L^(order - 1) M^(order - 1)
        if order > 1:
            step: dict[tuple[int, int, MultiIndex], int] = {}
            for (l, s, m), v in power.items():
                for i, j, c in by_upper.get(s, ()):
                    key = (l, i, m[:j - 1] + (m[j - 1] + 1,) + m[j:])
                    step[key] = step.get(key, 0) + v * c
            power = {key: v for key, v in step.items() if v}
            if not power:
                break
        weight = (-1) ** order * bernoulli(order) / (factorial(order) * scale**order)
        if not weight:
            continue
        weights[order] = weight
        for (l, s, m), v in power.items():
            for i, j, c in by_upper.get(s, ()):
                key = (order, l, i, j, m)
                sums[key] = sums.get(key, 0) + v * c
    den, f = _encode(weights.items())  # the weights as numerators f[order] over den
    nums = {key: v * f[key[0]] for key, v in sums.items() if v}
    return CoefficientFamily._raw(n, n_max, den, nums)


# -- ready-made and structured random tables ----------------------------------


def heisenberg_table() -> StructureConstants:
    """The 3-dimensional table with [X1, X2] = X3 and X3 central."""
    return StructureConstants(3, {(3, 1, 2): 1, (3, 2, 1): -1})


def sl2_table() -> StructureConstants:
    """sl2 in the rescaled basis [X1, X2] = 2 X3, [X3, X1] = X1, [X3, X2] = -X2."""
    return StructureConstants(
        3,
        {
            (3, 1, 2): 2,
            (3, 2, 1): -2,
            (1, 3, 1): 1,
            (1, 1, 3): -1,
            (2, 3, 2): -1,
            (2, 2, 3): 1,
        },
    )


def direct_sum(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    """Block-diagonal join: b's indices are shifted past a's."""
    entries: dict[tuple[int, int, int], Fraction] = dict(a.items())
    shift = a.n
    for (k, i, j), v in b.items():
        entries[(k + shift, i + shift, j + shift)] = v
    return StructureConstants(a.n + b.n, entries)


def random_two_step_table(n: int, n_central: int, seed: int) -> StructureConstants:
    """Random table with brackets of the first n - n_central generators landing
    in the central tail span and everything else zero.

    Any coefficient choice is Jacobi-valid: every bracket value is central,
    so each double bracket vanishes identically.
    """
    n = _whole(n, "dimension", 2)
    _whole(n_central, "n_central", 1, n - 1)
    r = n - n_central
    return _random_table(n, seed, [(k, i, j) for i in range(1, r + 1)
                                   for j in range(i + 1, r + 1) for k in range(r + 1, n + 1)])


def random_almost_abelian_table(n: int, seed: int) -> StructureConstants:
    """Random table where only the last generator acts: [X_n, X_i] lies in the
    span of X_1..X_{n-1} for i < n, and the first n - 1 generators commute.

    Jacobi-valid for any action matrix: every double bracket falls into the
    commuting span.
    """
    n = _whole(n, "dimension", 2)
    return _random_table(n, seed, [(k, n, i) for i in range(1, n) for k in range(1, n)])


def _random_table(n: int, seed: int, slots: list[tuple[int, int, int]]) -> StructureConstants:
    """The table drawn over the (k, i, j) slots in order: each is kept with
    probability 1/2 and set to ``rng.rational()``, its (k, j, i) mirror to the
    negation.  As in `random_family`, the draws come from `rng._stream` and
    the values are int numerators over 12 from `rng.rational_pair`; the caller
    has checked n, and the slots are in range and mirrored by construction, so
    no check is repeated."""
    draw, hit = _stream(seed, len(slots)), _threshold(Fraction(1, 2), "probability")
    nums: dict[tuple[int, int, int], int] = {}
    for k, i, j in slots:
        if draw() < hit:
            nums[(k, i, j)], nums[(k, j, i)] = rational_pair(draw)
    return StructureConstants._raw(n, _RATIONAL_SCALE, nums)
