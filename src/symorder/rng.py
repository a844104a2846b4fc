"""Seedable, portable pseudo-randomness for the verification suites.

The generator is SplitMix64 (Steele/Lea/Flood mixing constants): a 64-bit
state advanced by the golden-gamma increment 0x9E3779B97F4A7C15, with the
output mixed through two xor-shift-multiply rounds.  The algorithm is fixed
here on purpose so that a (seed, draw-order) pair reproduces the exact same
trial stream on every platform and Python version; nothing in this package
draws from ``random``.

SplitMix64 is counter-based: output i (from 1) of a stream in state s is
mix(s + i * gamma mod 2^64), and no output depends on another.
`SplitMix64.draws(count)` uses that to mix a whole block at once.  It returns
exactly the next ``count`` outputs of `SplitMix64.next_u64`, in order, and
leaves the state where ``count`` calls would, so calls of the two can be
interleaved without changing a bit of the stream.  `rational_pair` turns
such raw outputs into the value `SplitMix64.rational` would draw from them,
as an int numerator over `_RATIONAL_SCALE`.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from typing import Callable

from .weyl import _exact, _whole

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_NUMERATOR, _DENOMINATOR = 9, 4  # `SplitMix64.rational`'s default bounds


# A caller draws blocks of one size, and families of a few shapes alternate
# among a few sizes.  An entry is three ints of 16 bytes per lane; random_family
# draws at most 4096 lanes at once, so an entry holds at most 48 * 4096 bytes.
@lru_cache(maxsize=16)
def _block(count: int) -> tuple[int, int, int]:
    """Constants of a block of ``count`` 128-bit lanes, lane 0 lowest: 1 in
    every lane, 2^64 - 1 in every lane, and (i + 1) * gamma in lane i."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    # (x - 1) * sum (i + 1) x^i = count * x^count - sum x^i, with x = 2^128
    steps = ((count << 128 * count) - ones) // ((1 << 128) - 1)
    return ones, ones * _MASK, _GAMMA * steps


class SplitMix64:
    """SplitMix64 stream; seed, any int, is reduced modulo 2**64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _whole(seed, "seed", -inf) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def draws(self, count: int) -> list[int]:
        """The next ``count`` outputs of `next_u64`, mixed all at once.

        Each state sits in the low half of a 128-bit lane of one int, so a
        product by a 64-bit constant never carries into the next lane, and
        every step of `next_u64` is one big-int operation on the block.
        """
        _whole(count, "count", 0)
        ones, lanes, steps = _block(count)
        z = (self._state * ones + steps) & lanes
        self._state = (self._state + count * _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
        z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
        words = array("Q", (z ^ (z >> 31)).to_bytes(16 * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[::2].tolist()  # the high words hold the next lane's shifted-in bits

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        _whole(bound, "bound", 1)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def bernoulli(self, p: Fraction) -> bool:
        """True with exact probability p (a rational in [0, 1])."""
        num, den = _exact(p).numerator, p.denominator  # den > 0: 0 <= p <= 1 on ints
        if not 0 <= num <= den:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        u = self.next_u64()
        # u / 2^64 < num/den  <=>  u*den < num*2^64
        return u * den < num << 64

    def rational(
        self, max_abs_numerator: int = _NUMERATOR, max_denominator: int = _DENOMINATOR
    ) -> Fraction:
        """A small nonzero rational: numerator in +-[1, max], denominator uniform."""
        mag = self.below(max_abs_numerator) + 1
        sign = -1 if self.below(2) else 1
        den = self.below(max_denominator) + 1
        return Fraction(sign * mag, den)


# rational() at its default bounds as one table lookup, in int numerators over
# _RATIONAL_SCALE = 12, the lcm of the denominators 1..4.  below(9) keeps a
# draw under _ACCEPT; below(2) and below(4) keep every draw, since 2 and 4
# divide 2^64.  Entry (mag * 2 + sign) * 4 + den is 12 * (v, -v) for the v that
# rational() returns when below(9), below(2) and below(4) return mag, sign, den.
_ACCEPT = (1 << 64) - (1 << 64) % _NUMERATOR
_RATIONAL_SCALE = lcm(*range(1, _DENOMINATOR + 1))
_RATIONAL_PAIRS = tuple(
    (v, -v)
    for v in ((-1 - mag if sign else 1 + mag) * (_RATIONAL_SCALE // (den + 1))
              for mag in range(_NUMERATOR) for sign in range(2) for den in range(_DENOMINATOR))
)


def rational_pair(draw: Callable[[], int]) -> tuple[int, int]:
    """(v, -v) times `_RATIONAL_SCALE`, as ints, for the v that
    `SplitMix64.rational()` draws, with ``draw`` giving the successive
    `next_u64` outputs it would take."""
    u = draw()
    while u >= _ACCEPT:
        u = draw()
    sign = draw() % 2
    return _RATIONAL_PAIRS[(u % _NUMERATOR * 2 + sign) * _DENOMINATOR + draw() % _DENOMINATOR]
