"""Exact rank against a plain fraction Gaussian-elimination oracle."""

from fractions import Fraction

import pytest

from symorder.linalg import exact_rank
from symorder.rng import SplitMix64


def oracle_rank(rows) -> int:
    """Textbook Gaussian elimination over Fraction, no integer tricks."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def test_simple_cases():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    assert exact_rank([[0, 1, 0], [0, 0, 2]]) == 2
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [3]])
    # the length check runs before the empty-row shortcut
    with pytest.raises(ValueError):
        exact_rank([[], [1]])


def test_argument_is_left_unchanged():
    # the zero-led first rows force a pivot swap
    for rows in ([[0, 4, 2], [1, 2, 0], [2, 4, 0]],
                 [[0, 4, 0], [Fraction(1, 3), 1, Fraction(-5, 2)], [1, 2, 0]]):
        snapshot = [(row, list(row)) for row in rows]
        exact_rank(rows)
        assert len(rows) == len(snapshot)
        for row, (same, copy) in zip(rows, snapshot):
            assert row is same and row == copy
            assert all(a is b for a, b in zip(row, copy))


def test_float_and_str_entries_raise():
    # Entries are read through numerator/denominator, which float and str lack.
    for bad in (0.5, "1/2"):
        with pytest.raises(AttributeError):
            exact_rank([[1, bad], [0, 1]])


def test_rank_matches_oracle_on_random_matrices():
    rng = SplitMix64(404)
    for trial in range(150):
        nrows = 1 + rng.below(6)
        ncols = 1 + rng.below(6)
        rows = []
        for _ in range(nrows):
            rows.append([
                rng.rational() if rng.bernoulli(Fraction(2, 3)) else Fraction(0)
                for _ in range(ncols)
            ])
        assert exact_rank(rows) == oracle_rank(rows), (trial, rows)


def test_rank_of_constructed_deficiency():
    rng = SplitMix64(11)
    for _ in range(40):
        base = [[rng.rational() for _ in range(4)] for _ in range(2)]
        # third and fourth rows are combinations of the first two
        a, b = rng.rational(), rng.rational()
        rows = base + [
            [a * u + b * v for u, v in zip(base[0], base[1])],
            [2 * v for v in base[1]],
        ]
        assert exact_rank(rows) == oracle_rank(rows) <= 2
