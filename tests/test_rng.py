"""The seeded stream must match the published SplitMix64 outputs exactly."""

from fractions import Fraction

import pytest

from symorder.generators import random_family
from symorder.lie import random_two_step_table
from symorder.rng import SplitMix64, rational_pair

GAMMA = 0x9E3779B97F4A7C15
U64 = 1 << 64

# Reference outputs of the SplitMix64 mixing function (Steele/Lea/Flood
# constants) for seed 0, as published with the original C implementation.
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def _unxorshift(y: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == y, for 64-bit x."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unmix(u: int) -> int:
    """The state whose SplitMix64 output is u: the mixer's steps undone in
    reverse, each multiply by its constant's inverse mod 2^64."""
    z = _unxorshift(u, 31) * pow(0x94D049BB133111EB, -1, U64) % U64
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, U64) % U64
    return _unxorshift(z, 30)


def reference_rational(rng: SplitMix64) -> Fraction:
    """Independent oracle for `SplitMix64.rational`: the magnitude, the sign
    and the denominator from three `below` calls, in that order."""
    mag, sign, den = 1 + rng.below(9), -1 if rng.below(2) else 1, 1 + rng.below(4)
    return Fraction(sign * mag, den)


def seed_drawing(u: int, position: int) -> int:
    """A seed whose stream gives u as its draw number `position` (from 1)."""
    return (_unmix(u) - position * GAMMA) % U64


def test_seed0_reference_stream():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == SEED0_STREAM


def test_nonzero_seed_reference():
    assert SplitMix64(1234567).next_u64() == 6457827717110365317


def test_seed_reduction_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42 + (1 << 64))
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_seed_must_be_an_int():
    # a seed takes the integer rule of every other size or index argument
    for call in (lambda: SplitMix64(1.5), lambda: random_family(2, 1, seed=2.0),
                 lambda: random_two_step_table(3, 1, 0.5)):
        with pytest.raises(TypeError, match="seed must be an int"):
            call()
    # any int is reduced modulo 2^64, negative ones too
    assert SplitMix64(-1).draws(8) == SplitMix64(2**64 - 1).draws(8)
    assert SplitMix64(True).draws(4) == SplitMix64(1).draws(4)


def test_below_range_and_errors():
    g = SplitMix64(7)
    for _ in range(200):
        bound = 1 + g.below(50)
        v = g.below(bound)
        assert 0 <= v < bound
    assert SplitMix64(0).below(1) == 0
    with pytest.raises(ValueError):
        g.below(0)
    # a bound is a whole number: 2.5 is refused, not turned into a float draw
    with pytest.raises(TypeError):
        g.below(2.5)


def test_below_hits_all_residues():
    g = SplitMix64(3)
    seen = {g.below(4) for _ in range(100)}
    assert seen == {0, 1, 2, 3}


def test_bernoulli_edges_and_balance():
    g = SplitMix64(9)
    assert not any(g.bernoulli(Fraction(0)) for _ in range(50))
    assert all(g.bernoulli(Fraction(1)) for _ in range(50))
    hits = sum(g.bernoulli(Fraction(1, 2)) for _ in range(400))
    assert 120 < hits < 280
    for bad in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            g.bernoulli(bad)


def test_rational_shape():
    g = SplitMix64(12)
    for _ in range(200):
        v = g.rational()
        assert v != 0
        assert 1 <= abs(v.numerator) <= 9
        assert 1 <= v.denominator <= 4
        assert abs(v) <= 9


def test_rational_pair_draws_as_rational():
    # rational_pair on a stream's outputs is 12 * (v, -v) for the oracle's v
    # and takes as many outputs, also when below(9) rejects the first one;
    # rational() draws the same v
    seeds = [0, U64 - 1, *SplitMix64(4242).draws(300)]
    seeds += [seed_drawing(u, 1) for u in (U64 - U64 % 9 - 1, U64 - 7, U64 - 1)]
    for seed in seeds:
        g, h, r = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        value = reference_rational(g)
        pair = rational_pair(h.next_u64)
        assert pair == (value * 12, -value * 12) and all(type(v) is int for v in pair)
        assert r.rational() == value
        assert g._state == h._state == r._state
    assert SplitMix64(seeds[-1]).draws(2)[0] == U64 - 1
    # the pairs are shared, not built per call
    assert rational_pair(SplitMix64(7).next_u64)[0] is rational_pair(SplitMix64(7).next_u64)[0]


class _Scripted(SplitMix64):
    """A stream whose outputs are given, to reach draws no seed can."""

    __slots__ = ("_values",)

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def next_u64(self):
        return next(self._values)


def test_rational_pair_draws_as_rational_past_rejected_runs():
    # two rejections in a row have probability about 2^-122 on a real stream
    limit = U64 - U64 % 9
    for head in ([], [limit], [U64 - 1, limit], [limit, U64 - 3, U64 - 1]):
        for mag, sign, den in ((0, 0, 0), (limit - 1, U64 - 1, U64 - 1), (22, 7, 6)):
            values = [*head, mag, sign, den, 1]
            value = reference_rational(_Scripted(values))
            assert _Scripted(values).rational() == value
            rest = iter(values)
            assert rational_pair(rest.__next__) == (value * 12, -value * 12)
            assert list(rest) == [1]


def test_seed_drawing_places_a_value():
    rng = SplitMix64(77)
    for value in [0, 1, U64 - 1] + [rng.next_u64() for _ in range(50)]:
        position = 1 + rng.below(9)
        stream = SplitMix64(seed_drawing(value, position))
        assert [stream.next_u64() for _ in range(position)][-1] == value


@pytest.mark.parametrize("seed", [0, U64 - 1, 0x5EED, *SplitMix64(31337).draws(3)])
def test_draws_equal_next_u64_calls(seed):
    for count in (0, 1, 255, 4096, 4097):
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert b.draws(count) == [a.next_u64() for _ in range(count)]
        assert a._state == b._state
        # the two interleave without changing the stream
        assert (b.next_u64(), b.draws(2)) == (a.next_u64(), [a.next_u64(), a.next_u64()])


def test_draws_rejects_a_negative_count():
    g = SplitMix64(5)
    with pytest.raises(ValueError, match="count must be >= 0"):
        g.draws(-1)
    assert g.draws(1) == [SplitMix64(5).next_u64()]


@pytest.mark.parametrize("bound", [2, 4, 9])
def test_below_rejects_exactly_the_draws_past_its_limit(bound):
    # a draw u is kept iff u < 2^64 - 2^64 % bound; only bound 9 of the three
    # that rng.rational() uses can reject, since 2 and 4 divide 2^64
    limit = U64 - U64 % bound
    for u in sorted({limit - 1, U64 - 7, U64 - 1}):
        seed = seed_drawing(u, 1)
        first, second = SplitMix64(seed).draws(2)
        assert first == u
        g = SplitMix64(seed)
        assert g.below(bound) == (first if u < limit else second) % bound
        assert g._state == (seed + (1 if u < limit else 2) * GAMMA) % U64
