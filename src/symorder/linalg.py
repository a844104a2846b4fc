"""Exact rank of small rational matrices.

Each row is cleared to integers by the lcm of its entries' denominators,
computed from their ``numerator`` and ``denominator`` without building a
`Fraction` (a positive row scale does not change the rank); int rows clear
by 1.  The cleared rows are eliminated with the fraction-free Bareiss
scheme, so every intermediate value is an integer minor of the cleared
matrix and the arithmetic stays exact with no rational blowup.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .weyl import Rational


def exact_rank(rows: Sequence[Sequence[Rational | int]]) -> int:
    """Rank of the matrix with the given rows, computed exactly.

    Entries are ints or `Fraction`s; the argument is left unchanged.  Rows
    of unequal length raise `ValueError`.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("rows have unequal lengths")
    if not ncols:
        return 0
    nrows = len(rows)
    m = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                # Exact by Sylvester's identity: the quotient is an integer
                # minor of the cleared matrix.
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank
