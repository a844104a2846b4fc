"""Structure-constant validation, Bernoulli numbers, and the embedding."""

from fractions import Fraction
from math import factorial

import pytest

import symorder.lie as lie
from symorder.generators import build_generators
from symorder.lie import (
    InvalidStructureConstantsError,
    StructureConstants,
    abelian_table,
    bernoulli,
    cmatrix,
    cmatrix_power,
    derived_family,
    direct_sum,
    heisenberg_table,
    homomorphism_defect,
    identity_cmatrix,
    iota,
    random_almost_abelian_table,
    random_two_step_table,
    sl2_table,
)
from symorder.rng import SplitMix64
from symorder.weyl import WeylElement, mul, truncate, weyl_d, weyl_x


def bernoulli_oracle(n: int) -> Fraction:
    """Akiyama-Tanigawa transform, an independent route to B_n.

    The transform natively produces the B_1 = +1/2 convention; multiplying
    by (-1)^n converts (even values unchanged, odd values >= 3 are zero).
    """
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0] if n % 2 == 0 else -a[0]


def brute_force_violation_free(sc: StructureConstants) -> bool:
    """Literal quantifier sweep of antisymmetry and Jacobi, written fresh."""
    n = sc.n
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if sc.get(k, i, j) != -sc.get(k, j, i):
                    return False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                for m in range(1, n + 1):
                    total = Fraction(0)
                    for s in range(1, n + 1):
                        total += sc.get(s, i, j) * sc.get(m, s, l)
                        total += sc.get(s, j, l) * sc.get(m, s, i)
                        total += sc.get(s, l, i) * sc.get(m, s, j)
                    if total:
                        return False
    return True


ALL_TABLES = [
    heisenberg_table(),
    sl2_table(),
    abelian_table(2),
    direct_sum(heisenberg_table(), abelian_table(1)),
    direct_sum(heisenberg_table(), heisenberg_table()),
    random_two_step_table(4, 2, seed=1),
    random_two_step_table(5, 2, seed=2),
    random_almost_abelian_table(3, seed=3),
    random_almost_abelian_table(4, seed=4),
]


def test_validate_examples():
    assert heisenberg_table().validate() == []
    assert abelian_table(3).validate() == []
    sc = StructureConstants(2, {(1, 1, 2): 1})
    violations = sc.validate()
    anti = [v for v in violations if v.kind == "antisymmetry"]
    assert len(anti) == 1
    assert anti[0].indices == (1, 1, 2)
    assert anti[0].residual == 1
    bad = StructureConstants(3, {(3, 1, 2): 1, (3, 2, 1): -1, (1, 1, 3): 1, (1, 3, 1): -1})
    kinds = {v.kind for v in bad.validate()}
    assert kinds == {"jacobi"}
    # Jacobi is totally antisymmetric in (i, j, l) once antisymmetry holds,
    # so each violation is reported once, at its sorted triple
    for v in bad.validate():
        i, j, l, _m = v.indices
        assert i < j < l, v


def test_validate_matches_brute_force_on_fuzzed_tables():
    rng = SplitMix64(2718)
    accepted = 0
    for trial in range(60):
        n = 2 + rng.below(3)
        entries = {}
        for _ in range(rng.below(5)):
            key = (1 + rng.below(n), 1 + rng.below(n), 1 + rng.below(n))
            entries[key] = rng.rational()
        sc = StructureConstants(n, entries)
        ok = not sc.validate()
        assert ok == brute_force_violation_free(sc), (trial, entries)
        accepted += ok
    # the fuzz must exercise both outcomes
    assert 0 < accepted < 60


def test_structured_tables_are_valid():
    for sc in ALL_TABLES:
        assert sc.is_valid(), sc
    for seed in range(10):
        assert random_two_step_table(4, 2, seed).is_valid()
        assert random_almost_abelian_table(4, seed).is_valid()
    assert random_two_step_table(4, 2, 9) == random_two_step_table(4, 2, 9)
    assert random_almost_abelian_table(4, 9) == random_almost_abelian_table(4, 9)


def test_require_valid_raises_with_violations():
    sc = StructureConstants(2, {(1, 1, 2): 1})
    with pytest.raises(InvalidStructureConstantsError) as err:
        sc.require_valid()
    assert err.value.violations
    with pytest.raises(IndexError):
        StructureConstants(2, {(3, 1, 2): 1})
    with pytest.raises(ValueError):
        StructureConstants(0)


def test_cmatrix_heisenberg():
    sc = heisenberg_table()
    m = cmatrix(sc)
    zero = WeylElement(3, {})
    assert m[2][0] == weyl_d(3, 2)
    assert m[2][1] == -weyl_d(3, 1)
    for r in range(3):
        for c in range(3):
            if (r, c) not in ((2, 0), (2, 1)):
                assert m[r][c] == zero
    square = cmatrix_power(m, 2)
    assert all(e.is_zero() for row in square for e in row)
    assert cmatrix_power(m, 0) == identity_cmatrix(3)
    with pytest.raises(ValueError):
        cmatrix_power(m, -1)


def test_cmatrix_invariants_and_abelian():
    for sc in ALL_TABLES:
        for row in cmatrix(sc):
            for entry in row:
                assert entry.x_degree() <= 0
                for (_x, dexp), _c in entry.items():
                    assert sum(dexp) == 1
    m = cmatrix(abelian_table(2))
    assert all(e.is_zero() for row in m for e in row)
    assert all(e.is_zero() for row in cmatrix_power(m, 3) for e in row)


def test_cmatrix_entries_are_d_only_fuzzed():
    # Entries carry no x, valid table or not: cmatrix only reads C[i][j,k].
    rng = SplitMix64(166)
    for trial in range(40):
        n = 1 + rng.below(4)
        entries = {}
        for _ in range(rng.below(8)):
            entries[(1 + rng.below(n), 1 + rng.below(n), 1 + rng.below(n))] = rng.rational()
        tables = [StructureConstants(n, entries), random_almost_abelian_table(2 + n, trial)]
        for sc in tables:
            for row in cmatrix(sc):
                for entry in row:
                    assert entry.x_degree() <= 0, trial


def test_cmatrix_entries_commute():
    sc = sl2_table()
    m = cmatrix(sc)
    for a_row in m:
        for a in a_row:
            for b_row in m:
                for b in b_row:
                    assert mul(a, b) == mul(b, a)


KNOWN_BERNOULLI = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


def test_bernoulli_against_independent_oracle():
    for n in range(13):
        assert bernoulli(n) == bernoulli_oracle(n), n
        assert bernoulli(n) == KNOWN_BERNOULLI[n], n


def test_bernoulli_odd_zero():
    for m in range(1, 11):
        assert bernoulli(2 * m + 1) == 0


def test_bernoulli_errors():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_series_coefficients():
    # (-1)^N B_N / N! for N = 0..4
    expected = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720)]
    got = [(-1 if n % 2 else 1) * bernoulli(n) / factorial(n) for n in range(5)]
    assert got == expected


def test_iota_heisenberg():
    sc = heisenberg_table()
    x1, x2, x3 = (weyl_x(3, i) for i in (1, 2, 3))
    half = Fraction(1, 2)
    expected1 = x1 + mul(x3, weyl_d(3, 2)).scale(half)
    expected2 = x2 - mul(x3, weyl_d(3, 1)).scale(half)
    for d in (1, 2, 5):
        assert iota(sc, 1, d) == expected1
        assert iota(sc, 2, d) == expected2
        assert iota(sc, 3, d) == x3
    # at D = 0 only the bare coordinate survives
    assert iota(sc, 1, 0) == x1


def test_iota_abelian_and_errors():
    sc = abelian_table(2)
    assert iota(sc, 1, 4) == weyl_x(2, 1)
    assert iota(sc, 2, 4) == weyl_x(2, 2)
    with pytest.raises(IndexError):
        iota(sc, 3, 2)
    with pytest.raises(ValueError):
        iota(sc, 1, -1)
    bad = StructureConstants(2, {(1, 1, 2): 1})
    with pytest.raises(InvalidStructureConstantsError):
        iota(bad, 1, 2)


def test_homomorphism_defect_zero_on_suite():
    for sc in ALL_TABLES:
        pairs = [(i, j) for i in range(1, sc.n + 1) for j in range(i + 1, sc.n + 1)]
        for d in (0, 2, 4):
            defects = homomorphism_defect(sc, d)
            assert list(defects) == pairs
            for (i, j), residual in defects.items():
                assert residual.is_zero(), (sc, i, j, d)


def test_homomorphism_defect_sl2_reconciles_at_higher_order():
    # the D=4 result re-derived from a D=5 computation must agree
    sc = sl2_table()
    at4 = homomorphism_defect(sc, 4)
    at5 = homomorphism_defect(sc, 5)
    for pair, residual in at4.items():
        assert truncate(at5[pair], 4) == residual
        assert residual.is_zero()


def test_homomorphism_defect_antisymmetric():
    # the (j, i) defect rebuilt from iota images, one order past the bound
    d = 3
    for sc in ALL_TABLES[:4]:
        defects = homomorphism_defect(sc, d)
        images = [iota(sc, i, d + 1) for i in range(1, sc.n + 1)]
        for (i, j), residual in defects.items():
            a, b = images[j - 1], images[i - 1]
            swapped = mul(a, b) - mul(b, a)
            for k in range(1, sc.n + 1):
                swapped = swapped - images[k - 1].scale(sc.get(k, j, i))
            assert truncate(swapped, d) == -residual, (sc, i, j)


def test_homomorphism_defect_builds_images_once(monkeypatch):
    calls = []
    build = lie._embedding_images

    def counted(sc, max_d_degree):
        calls.append(max_d_degree)
        return build(sc, max_d_degree)

    monkeypatch.setattr(lie, "_embedding_images", counted)
    defects = homomorphism_defect(random_two_step_table(5, 2, seed=2), 2)
    assert len(defects) == 10
    assert calls == [3]
    with pytest.raises(ValueError):
        homomorphism_defect(sl2_table(), -1)


def test_derived_family_heisenberg():
    fam = derived_family(heisenberg_table(), 4)
    assert fam.get(1, 3, 1, 2, (0, 0, 0)) == Fraction(1, 2)
    assert fam.get(1, 3, 2, 1, (0, 0, 0)) == Fraction(-1, 2)
    assert fam.entry_count() == 2  # the C-matrix is nilpotent, no higher orders
    assert fam.is_antisymmetric()
    assert derived_family(abelian_table(3), 3).entry_count() == 0


def test_derived_family_generators_match_iota():
    for sc in ALL_TABLES:
        for order in (1, 2, 4):
            fam = derived_family(sc, order)
            gens = build_generators(fam, order)
            images = lie._embedding_images(sc, order)
            for i in range(1, sc.n + 1):
                assert gens.generator(i) == images[i - 1], (sc, i, order)


def test_direct_sum_indexing():
    joined = direct_sum(heisenberg_table(), heisenberg_table())
    assert joined.n == 6
    assert joined.get(3, 1, 2) == 1
    assert joined.get(6, 4, 5) == 1
    assert joined.get(6, 1, 2) == 0


def test_structure_constants_immutable():
    sc = heisenberg_table()
    with pytest.raises(AttributeError):
        sc.n = 4
    with pytest.raises(AttributeError):
        sc._table = {}
    assert sc.n == 3 and sc == heisenberg_table()


def test_table_builder_arguments():
    with pytest.raises(ValueError):
        random_two_step_table(3, 3, seed=0)
    with pytest.raises(ValueError):
        random_almost_abelian_table(1, seed=0)
