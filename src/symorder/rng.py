"""Seedable, portable pseudo-randomness for the verification suites.

The generator is SplitMix64 (Steele/Lea/Flood mixing constants): a 64-bit
state advanced by the golden-gamma increment 0x9E3779B97F4A7C15, with the
output mixed through two xor-shift-multiply rounds.  The algorithm is fixed
here on purpose so that a (seed, draw-order) pair reproduces the exact same
trial stream on every platform and Python version; nothing in this package
draws from ``random``.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream; seed is reduced modulo 2**64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def bernoulli(self, p: Fraction) -> bool:
        """True with exact probability p (a rational in [0, 1])."""
        num, den = p.numerator, p.denominator  # den > 0: 0 <= p <= 1 on ints
        if not 0 <= num <= den:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        u = self.next_u64()
        # u / 2^64 < num/den  <=>  u*den < num*2^64
        return u * den < num << 64

    def rational(self, max_abs_numerator: int = 9, max_denominator: int = 4) -> Fraction:
        """A small nonzero rational: numerator in +-[1, max], denominator uniform."""
        mag = self.below(max_abs_numerator) + 1
        sign = -1 if self.below(2) else 1
        den = self.below(max_denominator) + 1
        return Fraction(sign * mag, den)
