"""Exact rank against two oracles that share no code with the library.

`oracle_rank` is textbook Gaussian elimination over `Fraction`;
`bareiss_rank` is fraction-free Bareiss elimination over the integers.
"""

from fractions import Fraction
from math import isqrt, lcm

import pytest

import symorder.linalg as linalg
from symorder.linalg import _lane_primes, exact_rank
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


def bareiss_rank(rows) -> int:
    """Fraction-free Bareiss elimination on the rows cleared to integers."""
    if not rows or not rows[0]:
        return 0
    m = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row))
        m.append([int(Fraction(v) * scale) for v in row])
    nrows, ncols = len(m), len(m[0])
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
        assert exact_rank(rows) == oracle_rank(rows) == bareiss_rank(rows), (trial, rows)


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
        assert exact_rank(rows) == oracle_rank(rows) == bareiss_rank(rows) <= 2


# -- certified modular rank --------------------------------------------------------


def _entry(rng: SplitMix64, kind: str):
    """One random matrix entry of the given kind; zero a quarter of the time."""
    if rng.below(4) == 0:
        return 0 if kind != "fraction" else Fraction(0)
    if kind == "mixed":
        kind = ("small", "huge", "fraction")[rng.below(3)]
    sign = -1 if rng.below(2) else 1
    if kind == "small":
        return sign * (1 + rng.below(9))
    if kind == "huge":
        # above 2^64, so no entry fits a machine word
        return sign * ((1 << 64) + rng.next_u64() * (1 + rng.below(1 << 20)))
    # the draws of a rational with numerator in +-[1, 30] over a denominator in [1, 12]
    mag, sign, den = 1 + rng.below(30), -1 if rng.below(2) else 1, 1 + rng.below(12)
    return Fraction(sign * mag, den)


def _combination(rng: SplitMix64, basis: list[list]) -> list:
    """A random integer or rational combination of the basis rows."""
    coeffs = [rng.below(7) - 3 if rng.below(2) else rng.rational() for _ in basis]
    return [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(len(basis[0]))]


def _fuzz_matrix(rng: SplitMix64, trial: int) -> list[list]:
    """Tall, wide and square shapes; a fifth of them constructed rank-deficient,
    with duplicate and zero rows mixed in, and now and then all zero."""
    nrows, ncols = 1 + rng.below(9), 1 + rng.below(9)
    if trial % 3 == 0:
        nrows += 6  # tall
    elif trial % 3 == 1:
        ncols += 12  # wide
    kind = ("small", "huge", "fraction", "mixed")[trial % 4]
    if trial % 37 == 0:
        return [[0] * ncols for _ in range(nrows)]
    if trial % 5 == 0:
        rank = rng.below(min(nrows, ncols))
        basis = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(max(rank, 1))]
        rows = basis[:rank] + [_combination(rng, basis[:rank] or [[0] * ncols])
                               for _ in range(nrows - rank)]
    else:
        rows = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.below(3)):
        special = rng.below(3)
        at = rng.below(len(rows) + 1)
        if special == 0:
            rows.insert(at, list(rows[rng.below(len(rows))]))  # duplicate
        elif special == 1:
            rows.insert(at, [0] * ncols)  # zero row
        else:
            rows.insert(at, [-v for v in rows[rng.below(len(rows))]])  # negated copy
    return rows


def test_rank_matches_both_oracles_on_fuzzed_matrices():
    rng = SplitMix64(0x5EED7)
    kinds = set()
    for trial in range(360):
        rows = _fuzz_matrix(rng, trial)
        kinds.update(type(v) for row in rows for v in row)
        expected = oracle_rank(rows)
        assert bareiss_rank(rows) == expected, (trial, rows)
        assert exact_rank(rows) == expected, (trial, rows)
    assert kinds == {int, Fraction}


def _recording(monkeypatch, drop_first: bool = False) -> list[int]:
    """Record the prime of every modular elimination; optionally make the
    first one lose its last pivot, as an unlucky or faulty step would."""
    real = linalg._eliminate_mod_p
    primes: list[int] = []

    def step(m, p):
        pivot_rows, pivot_cols = real(m, p)
        primes.append(p)
        if drop_first and len(primes) == 1 and pivot_rows:
            return pivot_rows[:-1], pivot_cols[:-1]
        return pivot_rows, pivot_cols

    monkeypatch.setattr(linalg, "_eliminate_mod_p", step)
    return primes


def test_singular_mod_first_prime_takes_the_retry(monkeypatch):
    primes = _recording(monkeypatch)
    p = next(_lane_primes(2))
    assert exact_rank([[p, 0], [0, 1]]) == 2
    assert primes[0] == p and len(primes) == 2 and primes[1] < p
    # rank 2 over Q, rank 1 mod p, with no entry divisible by p
    primes.clear()
    assert exact_rank([[1, 2], [1 + p, 2]]) == 2
    assert len(primes) == 2
    # all three rows are distinct mod p but span only two dimensions mod p
    q = next(_lane_primes(3))
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 2 + q]]
    primes.clear()
    assert exact_rank(rows) == oracle_rank(rows) == 3
    assert len(primes) == 2
    # a matrix that is zero mod p but not over Q
    primes.clear()
    assert exact_rank([[p, 2 * p], [3 * p, 4 * p]]) == 2
    assert len(primes) == 2


def test_certificate_rejects_a_dropped_pivot(monkeypatch):
    rng = SplitMix64(77)
    for trial in range(30):
        rows = _fuzz_matrix(rng, trial)
        expected = oracle_rank(rows)
        primes = _recording(monkeypatch, drop_first=True)
        assert exact_rank(rows) == expected, (trial, rows)
        # a matrix of rank 0 has no pivot to lose; every other one retries
        assert len(primes) == (1 if expected == 0 else 2), (trial, primes)


def test_lane_bound_holds_for_every_row_count():
    for nrows in range(1, 4097):
        p = next(_lane_primes(nrows))
        assert nrows * p * p < 1 << 63
        # the largest unreduced lane: an entry below p plus (p - 1)^2 per
        # earlier pivot, at most nrows - 1 of them
        assert (p - 1) + (nrows - 1) * (p - 1) ** 2 < 1 << 64


def _prime_by_trial_division(n: int, small: list[int]) -> bool:
    return n >= 2 and all(n % q for q in small if q * q <= n)


def test_lane_primes_are_the_largest_primes_under_the_bound():
    limit = 1 << 16  # > isqrt(isqrt(2^63)), enough to trial-divide every lane prime
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    small = [q for q in range(limit) if sieve[q]]
    assert [q for q in range(limit) if linalg._is_prime(q)] == small
    for nrows in (1, 2, 3, 16, 81, 1706, 4096, *range(5, 4097, 409)):
        top = isqrt(((1 << 63) - 1) // nrows)
        primes = _lane_primes(nrows)
        first, second = next(primes), next(primes)
        assert second < first <= top
        assert _prime_by_trial_division(first, small)
        assert _prime_by_trial_division(second, small)
        assert not any(_prime_by_trial_division(c, small) for c in range(second + 1, first))
        assert not any(_prime_by_trial_division(c, small) for c in range(first + 1, top + 1))


def test_fraction_free_solve_returns_scaled_solutions():
    # A broken solve would only show as an endless retry, so it is checked
    # on its own: d * y solves A y = d * b, and d is +-det A.
    rng = SplitMix64(31)
    for trial in range(80):
        r, s = 1 + rng.below(6), rng.below(4)
        a = [[rng.below(41) - 20 for _ in range(r)] for _ in range(r)]
        if oracle_rank(a) < r:
            continue
        b = [[rng.below(2001) - 1000 for _ in range(s)] for _ in range(r)]
        det, combos = linalg._solve([row + rhs for row, rhs in zip(a, b)], r, s)
        assert abs(det) == abs(_det(a)), trial
        assert len(combos) == s
        for col, y in enumerate(combos):
            assert [sum(x * v for x, v in zip(row, y)) for row in a] == \
                [det * rhs[col] for rhs in b], trial


def _det(a) -> Fraction:
    """Determinant by Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in a]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det
