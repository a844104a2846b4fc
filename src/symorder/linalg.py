"""Exact rank of small rational matrices, by certified modular elimination.

Each row is cleared to integers by the lcm of its entries' denominators (a
positive row scale does not change the rank); all-int rows are used as they
are.  The rank of the cleared matrix M is then bracketed from both sides:

* **rank >= r.**  The rows are eliminated modulo a prime p.  The r pivot
  rows R and pivot columns C found there give an r x r minor M[R, C] that is
  nonzero mod p, hence nonzero over the integers.
* **rank <= r.**  If r = min(rows, cols) there is nothing left to show.
  Otherwise every non-pivot row v is solved against the pivot minor
  fraction-free, d * v[C] = sum_i Y_i * M[R_i][C] with d = +-det M[R, C]
  and integer Y, and the identity d * v = sum_i Y_i * M[R_i] is then
  checked exactly on every column.  Rows that all pass lie in the span of
  the r pivot rows.

A failed check proves p unlucky (p divides a larger nonzero minor, so the
rank mod p fell below the rank over Q); the elimination is retried with the
next smaller prime.  Only finitely many primes divide that minor, so the
retries end.

Packing.  For the elimination each row is packed into one Python int with
one 64-bit lane per column, so a row update is one big-int multiply-add and
the pivot lane is read with shift-and-mask.  Pivot rows are stored reduced
mod p with a unit pivot; a row being eliminated gains at most (p - 1)^2 per
pivot in each lane and is reduced only at its end test.  With at most
rows - 1 pivots before it, every lane stays below rows * p^2, so choosing
p with rows * p^2 < 2^63 keeps the lanes from carrying into each other.
The check compares d * v with the combination column by column, in plain ints.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

from .weyl import _exact

_LANE_MASK = (1 << 64) - 1


def exact_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the matrix with the given rows, computed exactly.

    Entries are ints or `Fraction`s, others raise `TypeError`; the argument
    is left unchanged.  Rows of unequal length raise `ValueError`.  The
    result is certified: the pivot minor found mod p is nonzero over the
    integers (rank >= r), and unless r = min(rows, cols) every other row is
    checked over the integers to be a combination of the pivot rows
    (rank <= r).  A failed check retries with the next prime; see the
    module docstring for the bounds.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("rows have unequal lengths")
    if not ncols:
        return 0
    m = []
    for row in rows:
        if not {int}.issuperset(map(type, row)):
            scale = lcm(*(_exact(v).denominator for v in row))
            row = [v.numerator * (scale // v.denominator) for v in row]
        m.append(row)
    full = min(len(m), ncols)
    for p in _lane_primes(len(m)):
        pivot_rows, pivot_cols = _eliminate_mod_p(m, p)
        if len(pivot_rows) == full or _dependencies_hold(m, pivot_rows, pivot_cols):
            return len(pivot_rows)
    raise AssertionError("unreachable: lane primes run out only past 2^61 rows")


def _lane_primes(nrows: int) -> Iterator[int]:
    """The primes p with nrows * p^2 < 2^63, largest first.

    The bound keeps every unreduced 64-bit lane of the elimination below
    2^63 (see the module docstring).  Primality is Miller-Rabin with the
    bases 2, 3, 5, 7, which is exact below 3,215,031,751 > isqrt(2^63).
    """
    for p in range(isqrt(((1 << 63) - 1) // nrows), 1, -1):
        if _is_prime(p):
            yield p


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in (2, 3, 5, 7):
        if a % n == 0:
            continue
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lanes(values: list[int]) -> int:
    """The values (each in [0, 2^64)) packed as 64-bit lanes, lowest first."""
    return int.from_bytes(array("Q", values).tobytes(), sys.byteorder)


def _eliminate_mod_p(m: list[Sequence[int]], p: int) -> tuple[list[int], list[int]]:
    """Row echelon form of m mod p: the pivot rows' indices and their columns.

    Rows are taken in order; a row whose reduction is nonzero mod p becomes
    the next pivot, on its first nonzero column.
    """
    ncols = len(m[0])
    nbytes = 8 * ncols
    limit = min(len(m), ncols)
    pivots: list[tuple[int, int]] = []  # (bit offset of the pivot lane, packed row)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for index, row in enumerate(m):
        acc = _lanes([v % p for v in row])
        for shift, packed in pivots:
            a = (acc >> shift & _LANE_MASK) % p
            if a:
                acc += (p - a) * packed
        reduced = [v % p for v in array("Q", acc.to_bytes(nbytes, sys.byteorder))]
        acc = _lanes(reduced)
        if not acc:
            continue
        col = ((acc & -acc).bit_length() - 1) >> 6
        inverse = pow(reduced[col], -1, p)
        pivots.append((col << 6, _lanes([v * inverse % p for v in reduced])))
        pivot_rows.append(index)
        pivot_cols.append(col)
        if len(pivots) == limit:
            break
    return pivot_rows, pivot_cols


def _dependencies_hold(
    m: list[Sequence[int]], pivot_rows: list[int], pivot_cols: list[int]
) -> bool:
    """Whether every non-pivot row of m is a rational combination of the pivot rows.

    With no pivot rows (r = 0) every column of every row is compared with 0.
    """
    chosen = set(pivot_rows)
    basis = [m[i] for i in pivot_rows]
    others = [row for i, row in enumerate(m) if i not in chosen]
    # y . M[R, C] = v[C], transposed to M[R, C]^T y = v[C], all v at once.
    system = [[row[c] for row in basis] + [v[c] for v in others] for c in pivot_cols]
    det, combos = _solve(system, len(basis), len(others))
    columns = list(zip(*basis)) or [()] * len(m[0])
    return all(
        det * vj == sum(map(mul, y, column))
        for v, y in zip(others, combos)
        for vj, column in zip(v, columns)
    )


def _solve(t: list[list[int]], r: int, s: int) -> tuple[int, list[list[int]]]:
    """Fraction-free solve of the r x r system in t's first r columns.

    The s columns after them are right-hand sides b; t is eliminated in
    place.  Returns d = +-det and, per right-hand side, the integer vector
    d * y with A y = b.  The forward pass is Bareiss elimination, whose
    divisions are exact by Sylvester's identity; the back substitution
    divides exactly because d * y is an integer vector by Cramer's rule.
    """
    prev = 1
    for k in range(r):
        pivot = next(i for i in range(k, r) if t[i][k])
        t[k], t[pivot] = t[pivot], t[k]
        top = t[k]
        lead = top[k]
        for row in t[k + 1:]:
            f = row[k]
            for j in range(k + 1, r + s):
                row[j] = (lead * row[j] - f * top[j]) // prev
            row[k] = 0
        prev = lead
    combos = []
    for col in range(r, r + s):
        y = [0] * r
        for i in reversed(range(r)):
            row = t[i]
            y[i] = (prev * row[col] - sum(row[j] * y[j] for j in range(i + 1, r))) // row[i]
        combos.append(y)
    return prev, combos
