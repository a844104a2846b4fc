"""Symmetrized products of generators and the ordering identity they satisfy.

For a word alpha = (a_1, ..., a_k) over 1..n, the permutation sum is

    e_tilde(alpha) = sum over all k! orderings of  X_{a_sigma(1)} ... X_{a_sigma(k)},

and the identity under test says that for generators built from an
antisymmetric coefficient family the vacuum action recovers the bare word
monomial:

    e_tilde(alpha) |> 1  =  k! * x_{a_1} ... x_{a_k}.

The checker works on vacuum actions directly: grouping permutations by their
first letter turns the k!-term sum into a recursion over sub-multisets of
the word, at most 2^k polynomial states.  `e_tilde` and `e_map` run the same
recursion with operator products in place of vacuum actions.  The
cancellation sum is read straight off the family: each term is a d-free
monomial times an x-free pair polynomial, so no product reorders anything.
Independent oracles, such as the literal k!-term sum, live in the tests.

Truncation: the vacuum action of a k-letter word only ever differentiates
polynomials of degree < k, so every cutoff D >= k - 1 gives the untruncated
family's residual; below that the check is exact for the truncated
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Callable

from .generators import CoefficientFamily, GeneratorSet
from .linalg import exact_rank
from .weyl import (
    MultiIndex, WeylElement, _pack, _reduced, _whole, fock_apply, linear_combination, mul,
    truncate, weyl_scalar
)

Word = tuple[int, ...]


def word_counts(n: int, word: Word) -> MultiIndex:
    """Letter multiplicities of a word over 1..n as an exponent tuple."""
    counts = [0] * n
    for a in word:
        counts[_whole(a, "word letter", 1, n, IndexError) - 1] += 1
    return tuple(counts)


def word_monomial(n: int, word: Word) -> WeylElement:
    """The commutative monomial x_{a_1} ... x_{a_k} of a word."""
    n = _whole(n, "ambient dimension", 1)
    return _reduced(n, 1, {_pack(word_counts(n, word), (0,) * n): 1})


def _vacuum_action(gens: GeneratorSet, counts: MultiIndex) -> WeylElement:
    """Permutation-summed vacuum action of the word with these multiplicities."""
    return _word_sum(gens, counts, "vacuum", fock_apply, _vacuum_action)


def _operator_sum(gens: GeneratorSet, counts: MultiIndex) -> WeylElement:
    """Permutation-summed operator product of the word with these multiplicities."""
    return _word_sum(gens, counts, "operator", mul, _operator_sum)


def _word_sum(
    gens: GeneratorSet,
    counts: MultiIndex,
    tag: str,
    act: Callable[[WeylElement, WeylElement], WeylElement],
    entry: Callable[[GeneratorSet, MultiIndex], WeylElement],
) -> WeylElement:
    """The multiset recursion behind `_vacuum_action` and `_operator_sum`.

    Permutations grouped by first letter give S(M) = sum_c m_c * act(X_c,
    S(M - c)) with S(empty) = 1, where ``act`` is `fock_apply` for the
    vacuum action and `mul` for the operator product; the sum over c is one
    `linear_combination`.  Results are cached in the generator set's word
    cache under ``(tag, counts)``.  The sub-multisets are walked in
    `itertools.product` order, where each M - c comes before M, so no Python
    recursion is needed and any word length works.  Each S(M - c) is read
    through ``entry``, the entry point the caller looked up as a module
    global, so a rebound name sees one call per child, as a recursion would.
    """
    cache = gens._word_cache
    hit = cache.get((tag, counts))
    if hit is not None:
        return hit
    for state in product(*(range(m + 1) for m in counts)):
        if (tag, state) in cache:
            continue
        parts = []
        for c, mult in enumerate(state):
            if mult:
                sub = state[:c] + (mult - 1,) + state[c + 1 :]
                parts.append((mult, act(gens.generators[c], entry(gens, sub))))
        result = linear_combination(gens.n, parts) if parts else weyl_scalar(gens.n, 1)
        cache[(tag, state)] = result
    return cache[(tag, counts)]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one ordering-identity check.

    ``residual`` is e_tilde(word) |> 1 minus k! times the word monomial;
    ``passed`` iff it is zero.
    """

    word: Word
    passed: bool
    residual: WeylElement


def theorem_check(gens: GeneratorSet, word: Word) -> CheckResult:
    """Check e_tilde(word) |> 1 == k! * word monomial for one word."""
    word = tuple(word)
    if not word:
        raise ValueError("word must have at least one letter")
    k = len(word)
    counts = word_counts(gens.n, word)
    residual = linear_combination(
        gens.n, ((1, _vacuum_action(gens, counts)), (-factorial(k), word_monomial(gens.n, word)))
    )
    return CheckResult(word, residual.is_zero(), residual)


# -- the pairwise cancellation behind the identity ----------------------------


def cancellation_check(
    family: CoefficientFamily, word: Word, l: int, order: int
) -> WeylElement:
    """The pairwise cancellation sum of a word at one (order, l).

    With M the word's letter counts and p_as the (order, l, a, s) pair
    polynomial in d, each ordered pair of positions holding (a, s) adds
    x^(M - e_a - e_s) p_as(d).  Built in one pass over the family's entries,
    with no `mul`, the sum is

        sum_{a,s} M_a (M - e_a)_s x^(M - e_a - e_s) p_as(d)
          = 1/2 sum_{a,s} M_a (M_s - delta_as) x^(M - e_a - e_s) (p_as + p_sa)(d).

    It vanishes on every word of length >= 2 exactly when p_as + p_sa = 0 at
    this (order, l): antisymmetry is sufficient for the identity, not necessary.
    The sums run on the family's int numerators, and `_reduced` divides them
    by its denominator once, as it does for every kernel result.
    """
    n = family.n
    _whole(l, "index l", 1, n, IndexError)
    _whole(order, "order", 1, family.n_max)
    counts = word_counts(n, word)
    terms: dict[tuple[MultiIndex, MultiIndex], int] = {}
    for (o, ll, a, s, m), v in family._nums.items():
        mult_a = counts[a - 1]
        if o != order or ll != l or not mult_a:
            continue
        rest = counts[: a - 1] + (mult_a - 1,) + counts[a:]
        mult_s = rest[s - 1]
        if mult_s:
            key = (rest[: s - 1] + (mult_s - 1,) + rest[s:], m)
            terms[key] = terms.get(key, 0) + mult_a * mult_s * v
    # zero sums are dropped before packing: past the key limit, all-cancelling words give 0
    return _reduced(n, family._den, {_pack(*key): v for key, v in terms.items() if v})


# -- section and projection ----------------------------------------------------


def e_tilde(p: WeylElement, gens: GeneratorSet) -> WeylElement:
    """Linear extension of the permutation sum to a polynomial argument.

    A monomial maps to the permutation sum of the word with its letter
    multiplicities (i.e. the word is taken in sorted order; any other
    ordering gives the same sum, which is what makes the map well defined).
    The constant monomial maps to the identity operator.
    """
    if not p.is_polynomial():
        raise ValueError("e_tilde argument must be a polynomial (dexp == 0)")
    return linear_combination(
        gens.n, [(coeff, _operator_sum(gens, xexp)) for (xexp, _d), coeff in p.items()]
    )


def e_map(p: WeylElement, gens: GeneratorSet) -> WeylElement:
    """The normalized symmetrization e = e_tilde / k! per degree-k monomial."""
    if not p.is_polynomial():
        raise ValueError("e_map argument must be a polynomial (dexp == 0)")
    normalized = {key: c / factorial(sum(key[0])) for key, c in p.items()}
    return e_tilde(WeylElement(p.n, normalized), gens)


def pi_project(a: WeylElement) -> WeylElement:
    """The d-free part of an element, which equals its vacuum action a |> 1."""
    return truncate(a, 0)


def span_dimension(gens: GeneratorSet, k: int) -> tuple[int, int]:
    """Rank of the length-k word products next to the symmetric dimension.

    All n^k ordered products X_{w_1} ... X_{w_k} are restricted to the
    d-degree window where products of truncated generators agree with
    untruncated ones (d-degree <= D - (k - 1): a single multiplication can
    lower a term's d-degree by at most one, its x-degree-1 cofactor admits
    one contraction, so dropped tail terms never reach the window).  They
    are built level by level in word order, so any k works, each by `mul`
    capped at d-degree window + (k - depth), past which no term can contract
    back into the window.  Returns the exact rank of their coefficient
    matrix and C(n + k - 1, k), the number of degree-k monomials.  Each row
    holds a product's stored integer numerators, i.e. its coefficients times
    its denominator, so the matrix reaches `exact_rank` as ints with no
    `Fraction` in between; the rank there is modular elimination with an
    exact certificate, so it is the rank over Q.  The word products
    generically span more than the symmetrized images, so rank >=
    C(n + k - 1, k) is the expected shape; the builder default D = 2k gives
    a window of width k + 1.
    """
    _whole(k, "degree", 1)
    window = gens.max_d_degree - (k - 1)
    if window < 0:
        raise ValueError(
            f"truncation order {gens.max_d_degree} leaves no exact window for "
            f"degree {k}; need at least {k - 1}"
        )
    n = gens.n
    ops = [weyl_scalar(n, 1)]
    for depth in range(1, k + 1):
        cap = window + (k - depth)
        ops = [mul(p, g, max_d_degree=cap) for p in ops for g in gens.generators]
    keys = sorted({key for op in ops for key in op._nums})
    index = {key: pos for pos, key in enumerate(keys)}
    rows = []
    for op in ops:
        # The row of op scaled by its positive _den: the rank is unchanged.
        row = [0] * len(keys)
        for key, v in op._nums.items():
            row[index[key]] = v
        rows.append(row)
    return exact_rank(rows), comb(n + k - 1, k)
