"""Structure-constant validation, Bernoulli numbers, and the embedding."""

import sys
import threading
from fractions import Fraction
from math import factorial, gcd

import pytest

import symorder.lie as lie
from symorder.generators import CoefficientFamily, build_generators
from symorder.lie import (
    InvalidStructureConstantsError,
    StructureConstants,
    Violation,
    abelian_table,
    bernoulli,
    derived_family,
    direct_sum,
    heisenberg_table,
    homomorphism_defect,
    iota,
    random_almost_abelian_table,
    random_two_step_table,
    sl2_table,
)
from symorder.rng import SplitMix64
from symorder.weyl import (
    WeylElement,
    linear_combination,
    mul,
    truncate,
    weyl_d,
    weyl_scalar,
    weyl_x,
)
from test_rng import reference_rational
from test_weyl import degrees


CMatrix = tuple[tuple[WeylElement, ...], ...]


def cmatrix(sc: StructureConstants) -> CMatrix:
    """M[i][j] = sum_k C[i][j,k] d^k as a matrix of Weyl elements, one `get`
    per (i, j, k): the oracle's route to the powers `derived_family` forms."""
    n = sc.n
    return tuple(
        tuple(
            linear_combination(n, [(sc.get(i, j, k), weyl_d(n, k)) for k in range(1, n + 1)])
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def identity_cmatrix(n: int) -> CMatrix:
    """The n x n identity matrix over the Weyl algebra."""
    one, zero = weyl_scalar(n, 1), weyl_scalar(n, 0)
    return tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n))


def cmatrix_product(a: CMatrix, b: CMatrix) -> CMatrix:
    """a b over the Weyl algebra, every cell product through `mul`."""
    n = len(a)
    return tuple(
        tuple(linear_combination(n, [(1, mul(a[r][s], b[s][c])) for s in range(n)]) for c in range(n))
        for r in range(n)
    )


def cmatrix_power(m: CMatrix, power: int) -> CMatrix:
    """m**power by repeated multiplication; power 0 gives the identity."""
    out = identity_cmatrix(len(m))
    for _ in range(power):
        out = cmatrix_product(out, m)
    return out


def _reference_embedding_images(sc: StructureConstants, max_d_degree: int) -> list[WeylElement]:
    """Independent route to the embedding: the Bernoulli series over powers
    of the C-matrix, embed(i) = x_i + sum_{N=1..D} (-1)^N B_N / N! *
    sum_l x_l (M^N)[l][i], with no coefficient family in between."""
    n = sc.n
    m = cmatrix(sc)
    images = [weyl_x(n, i) for i in range(1, n + 1)]
    for order in range(1, max_d_degree + 1):
        power = cmatrix_power(m, order)
        coeff = (-1) ** order * bernoulli(order) / factorial(order)
        for i in range(n):
            for l in range(n):
                images[i] = images[i] + mul(weyl_x(n, l + 1), power[l][i]).scale(coeff)
    return images


def _reference_family(sc: StructureConstants, n_max: int) -> tuple[dict, int | None]:
    """`derived_family`'s entries through the C-matrix powers, and the
    exponent of the first zero power below n_max (None if there is none).

    Order N's (l, i, j) polynomial is (-1)^N B_N / N! times the sum over s
    of (M^(N-1))[l][s] C[s][i,j], summed over every index with `get`
    lookups and the Bernoulli numbers of `bernoulli_oracle`; the powers run
    on past a zero one."""
    n = sc.n
    m, power = cmatrix(sc), identity_cmatrix(n)
    entries: dict = {}
    first_zero = None
    for order in range(1, n_max + 1):  # power is M^(order - 1)
        if first_zero is None and all(e.is_zero() for row in power for e in row):
            first_zero = order - 1
        coeff = (-1) ** order * bernoulli_oracle(order) / factorial(order)
        for l in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for s in range(1, n + 1):
                        c = coeff * sc.get(s, i, j)
                        for (_x, dexp), value in power[l - 1][s - 1].items():
                            key = (order, l, i, j, dexp)
                            entries[key] = entries.get(key, 0) + c * value
        power = cmatrix_product(power, m)
    return {k: v for k, v in entries.items() if v}, first_zero


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


def _reference_validate(sc: StructureConstants) -> list[Violation]:
    """Dense oracle for `StructureConstants.validate`: antisymmetry at every
    (k, i <= j), then the cyclic Jacobi sum at every (i < j < l, m), summed
    over every s with `get` lookups, in loop order."""
    n = sc.n
    out = []
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                r = sc.get(k, i, j) + sc.get(k, j, i)
                if r:
                    out.append(Violation("antisymmetry", (k, i, j), r))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for l in range(j + 1, n + 1):
                for m in range(1, n + 1):
                    r = Fraction(0)
                    for s in range(1, n + 1):
                        r += (
                            sc.get(s, i, j) * sc.get(m, s, l)
                            + sc.get(s, j, l) * sc.get(m, s, i)
                            + sc.get(s, l, i) * sc.get(m, s, j)
                        )
                    if r:
                        out.append(Violation("jacobi", (i, j, l, m), r))
    return out


def _assert_validate_matches_reference(sc: StructureConstants, context) -> None:
    got, ref = sc.validate(), _reference_validate(sc)
    assert got == ref, context
    # Fraction == int would pass the line above; the residuals must stay exact
    assert all(type(v.residual) is Fraction for v in got), context


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
        _assert_validate_matches_reference(sc, (trial, entries))
        accepted += ok
    # the fuzz must exercise both outcomes
    assert 0 < accepted < 60


def test_validate_matches_dense_reference_on_perturbed_tables():
    # Valid tables with seeded edits: a changed value, a dropped or added
    # entry, a diagonal entry and a mirror that does not match.  Each edit
    # can break antisymmetry and Jacobi at once, and the sparse join must
    # report the same violations, in the same order, as the dense sweep.
    bases = [
        sl2_table(),
        heisenberg_table(),
        direct_sum(sl2_table(), heisenberg_table()),
        direct_sum(heisenberg_table(), random_almost_abelian_table(3, seed=5)),
        direct_sum(sl2_table(), random_two_step_table(4, 2, seed=6)),
    ]
    rng = SplitMix64(0x5CA7)
    kinds = set()
    for base in bases:
        _assert_validate_matches_reference(base, base)
        for trial in range(25):
            n = base.n
            entries = dict(base.items())
            for _ in range(1 + rng.below(3)):
                k, i, j = (1 + rng.below(n) for _ in range(3))
                edit = rng.below(4)
                if edit == 0:  # diagonal entry
                    entries[(k, i, i)] = rng.rational()
                elif edit == 1:  # mirror that does not match
                    v = rng.rational()
                    entries[(k, i, j)], entries[(k, j, i)] = v, v + rng.rational()
                elif edit == 2 and entries:  # drop one stored entry
                    del entries[sorted(entries)[rng.below(len(entries))]]
                else:  # a consistent pair, which can break Jacobi alone
                    v = rng.rational()
                    entries[(k, i, j)], entries[(k, j, i)] = v, -v
            sc = StructureConstants(n, entries)
            _assert_validate_matches_reference(sc, (base, trial, entries))
            kinds.update(v.kind for v in sc.validate())
    assert kinds == {"antisymmetry", "jacobi"}


def test_validate_work_follows_the_entries():
    # a dense sweep at n = 63 would take about an hour; the join reads entries
    big = direct_sum(abelian_table(60), sl2_table())
    assert big.n == 63 and big.validate() == []
    broken = StructureConstants(64, {(64, 1, 2): 1})
    assert broken.validate() == [Violation("antisymmetry", (64, 1, 2), Fraction(1))]


def test_structured_tables_are_valid():
    for sc in ALL_TABLES:
        assert sc.validate() == [], sc
    for seed in range(10):
        assert random_two_step_table(4, 2, seed).validate() == []
        assert random_almost_abelian_table(4, seed).validate() == []
    assert random_two_step_table(4, 2, 9) == random_two_step_table(4, 2, 9)
    assert random_almost_abelian_table(4, 9) == random_almost_abelian_table(4, 9)


def _reference_two_step(n: int, n_central: int, seed: int) -> dict:
    """The two-step draw loop as first written: the stream's reference."""
    rng, r, entries = SplitMix64(seed), n - n_central, {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for k in range(r + 1, n + 1):
                if rng.bernoulli(Fraction(1, 2)):
                    v = reference_rational(rng)
                    entries[(k, i, j)] = v
                    entries[(k, j, i)] = -v
    return entries


def _reference_almost_abelian(n: int, seed: int) -> dict:
    """The almost-abelian draw loop as first written: the stream's reference."""
    rng, entries = SplitMix64(seed), {}
    for i in range(1, n):
        for k in range(1, n):
            if rng.bernoulli(Fraction(1, 2)):
                v = reference_rational(rng)
                entries[(k, n, i)] = v
                entries[(k, i, n)] = -v
    return entries


def test_random_tables_match_reference_streams():
    # entry for entry, in order: a seed keeps naming the same table
    for seed in range(50):
        for n, n_central in ((3, 1), (4, 1), (4, 2), (5, 2), (6, 3)):
            got = random_two_step_table(n, n_central, seed)
            want = list(_reference_two_step(n, n_central, seed).items())
            assert got.n == n and list(got.items()) == want, (n, n_central, seed)
        for n in range(2, 6):
            got = random_almost_abelian_table(n, seed)
            want = list(_reference_almost_abelian(n, seed).items())
            assert got.n == n and list(got.items()) == want, (n, seed)


def test_validate_hands_out_a_fresh_list():
    # editing the returned list must not change the table's verdict
    sc = sl2_table()
    sc.validate().append(Violation("jacobi", (1, 2, 3, 1), Fraction(1)))
    assert sc.validate() == []
    sc.require_valid()
    bad = StructureConstants(2, {(1, 1, 2): 1})
    first = bad.validate()
    first.clear()
    assert bad.validate()
    assert bad.validate() == [Violation("antisymmetry", (1, 1, 2), Fraction(1))]
    assert bad.validate() is not bad.validate()
    with pytest.raises(InvalidStructureConstantsError):
        bad.require_valid()


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


def test_cmatrix_invariants_and_abelian():
    for sc in ALL_TABLES:
        for row in cmatrix(sc):
            for entry in row:
                assert degrees(entry)[0] <= 0
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
                    assert degrees(entry)[0] <= 0, trial


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


def _recurrence_bernoulli(count: int) -> list[Fraction]:
    """B_0..B_{count-1} from sum_{k=0..m} C(m+1, k) B_k = 0 with B_0 = 1, on
    Fractions: the route `bernoulli` took before the tangent numbers."""
    out = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        binom = 1  # C(m+1, 0)
        for k in range(m):
            acc += binom * out[k]
            binom = binom * (m + 1 - k) // (k + 1)
        out.append(-acc / (m + 1))
    return out


def test_bernoulli_matches_recurrence_to_300(monkeypatch):
    want = _recurrence_bernoulli(301)
    # fresh tables, filled by one miss at the top and by many small misses
    for order in (range(300, -1, -1), range(301), (7, 2, 40, 3, 300, 299)):
        monkeypatch.setattr(lie, "_bernoulli_cache", [Fraction(1)])
        assert [bernoulli(i) for i in order] == [want[i] for i in order], order
        # a miss fills at most twice the length the table needs
        table = lie._bernoulli_cache
        assert max(order) < len(table) <= 2 * max(order) + 2 and table[:301] == want, order


def test_bernoulli_fill_is_safe_across_threads(monkeypatch):
    # Four threads miss on one fresh table at once, each on its own index
    # sequence; every value read and the final table must be the oracle's.
    want = _recurrence_bernoulli(121)
    monkeypatch.setattr(lie, "_bernoulli_cache", [Fraction(1)])
    orders = [range(121), range(120, -1, -1), range(0, 121, 7), range(1, 121, 2)]
    results: list = [None] * 4
    barrier = threading.Barrier(4)

    def work(slot: int) -> None:
        barrier.wait(timeout=10)
        results[slot] = [bernoulli(i) for i in orders[slot]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [[want[i] for i in order] for order in orders]
    assert lie._bernoulli_cache[:121] == want


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


def test_homomorphism_defect_reads_only_the_nonzero_brackets(monkeypatch):
    # the bracket sums come from the table's entries; a `get` per (k, i, j)
    # would make a zero Fraction for every absent slot
    tables = [sl2_table(), heisenberg_table()]
    tables += [random_two_step_table(n, c, seed) for n, c, seed in ((4, 2, 3), (5, 2, 2), (6, 3, 3))]
    tables += [random_almost_abelian_table(n, seed) for n, seed in ((3, 4), (4, 5), (5, 6))]
    for sc in tables:
        assert list(sc.items()) and sc.validate() == [], sc  # caches the verdict

    def forbidden(*_args, **_kwargs):
        raise AssertionError("homomorphism_defect read a table slot with get")

    monkeypatch.setattr(StructureConstants, "get", forbidden)
    for sc in tables:
        for d in range(4):
            defects = homomorphism_defect(sc, d)
            assert len(defects) == sc.n * (sc.n - 1) // 2, (sc, d)
            assert all(r.is_zero() for r in defects.values()), (sc, d)


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
    # the C-matrix is nilpotent, so no order above 1 appears
    assert dict(fam.items()) == {(1, 3, 1, 2, (0, 0, 0)): Fraction(1, 2),
                                 (1, 3, 2, 1, (0, 0, 0)): Fraction(-1, 2)}
    assert CoefficientFamily(3, 4, dict(fam.items())) == fam
    assert list(derived_family(abelian_table(3), 3).items()) == []


def test_derived_family_generators_match_iota():
    for sc in ALL_TABLES:
        for order in (1, 2, 4):
            fam = derived_family(sc, order)
            gens = build_generators(fam, order)
            images = _reference_embedding_images(sc, order)
            for i in range(1, sc.n + 1):
                assert gens.generators[i - 1] == images[i - 1], (sc, i, order)
                assert iota(sc, i, order) == images[i - 1], (sc, i, order)


def test_derived_family_matches_cmatrix_powers(monkeypatch):
    # The flat-cell powers against the Weyl-element C-matrix powers, orders
    # 1..10, and the series stops at the first zero power: no Bernoulli
    # number is asked for past it.
    # The generated and shipped tables use denominators <= 4.  The plane
    # table [X1, X2] = 1/3 X1 + 2/5 X2 has no zero power (M^2 = tr(M) M), and
    # its direct sum with an almost-abelian table acting by -3/7, 5/9 and 1/2
    # puts the lcm of the denominators at 630.
    a, b = Fraction(1, 3), Fraction(2, 5)
    plane = StructureConstants(2, {(1, 1, 2): a, (1, 2, 1): -a, (2, 1, 2): b, (2, 2, 1): -b})
    acting = {}
    for (k, i), v in {(1, 1): Fraction(-3, 7), (2, 1): Fraction(5, 9), (1, 2): Fraction(1, 2)}.items():
        acting[(k, 3, i)], acting[(k, i, 3)] = v, -v
    rng = SplitMix64(1313)
    tables = ALL_TABLES + [
        direct_sum(sl2_table(), sl2_table()),
        direct_sum(sl2_table(), random_almost_abelian_table(2, seed=13)),
        plane,
        direct_sum(plane, StructureConstants(3, acting)),
    ]
    for trial in range(20):
        tables.append(random_almost_abelian_table(2 + rng.below(3), seed=trial))
        n = 3 + rng.below(3)
        tables.append(random_two_step_table(n, 1 + rng.below(n - 1), seed=trial))
    asked = []
    real_bernoulli = lie.bernoulli
    monkeypatch.setattr(lie, "bernoulli", lambda index: asked.append(index) or real_bernoulli(index))
    for sc in tables:
        reference, first_zero = _reference_family(sc, 10)
        for n_max in range(1, 11):
            asked.clear()
            family = derived_family(sc, n_max)
            expected = {k: v for k, v in reference.items() if k[0] <= n_max}
            assert family.n_max == n_max
            assert dict(family.items()) == expected, (sc, n_max)
            last = n_max if first_zero is None else min(n_max, first_zero)
            assert asked == list(range(1, last + 1)), (sc, n_max)


def test_derived_family_stops_at_a_power_that_cancels_to_zero(monkeypatch):
    # [X3, X_i] = sum_k A[k][i] X_k with A = [[1, 1], [-1, -1]], so A^2 = 0 and
    # M^2 vanishes only because its cells cancel: the walk has to drop zero
    # cells to stop there, asking for no Bernoulli number past B_2.
    action = {(1, 1): 1, (1, 2): 1, (2, 1): -1, (2, 2): -1}
    entries = {}
    for (k, i), v in action.items():
        entries[(k, 3, i)], entries[(k, i, 3)] = v, -v
    sc = StructureConstants(3, entries)
    reference, first_zero = _reference_family(sc, 6)
    assert first_zero == 2
    asked = []
    real_bernoulli = lie.bernoulli
    monkeypatch.setattr(lie, "bernoulli", lambda index: asked.append(index) or real_bernoulli(index))
    assert dict(derived_family(sc, 6).items()) == reference
    assert asked == [1, 2]


def test_derived_family_equals_checked_rebuild_field_for_field():
    # derived_family wraps its int numerators without the constructor's
    # checks; rebuilding each family through them, antisymmetry check on,
    # must store the same n, n_max, _den and _nums, in the same order
    rng = SplitMix64(0xD371)
    third = StructureConstants(3, {key: v / 3 for key, v in sl2_table().items()})
    # [X3, X_i] = sum_k A[k][i] X_k with A = [[1, 1], [-1, -1]]: M^2 cancels to zero
    cancelling = StructureConstants(3, {(1, 3, 1): 1, (1, 1, 3): -1, (1, 3, 2): 1, (1, 2, 3): -1,
                                        (2, 3, 1): -1, (2, 1, 3): 1, (2, 3, 2): -1, (2, 2, 3): 1})
    tables = ALL_TABLES + [third, cancelling,
                           direct_sum(third, random_almost_abelian_table(2, seed=5))]
    for trial in range(12):
        tables.append(random_almost_abelian_table(2 + rng.below(3), seed=rng.next_u64()))
        n = 3 + rng.below(3)
        tables.append(random_two_step_table(n, 1 + rng.below(n - 1), seed=rng.next_u64()))
    for sc in tables:
        for n_max in range(1, 11):
            fam = derived_family(sc, n_max)
            checked = CoefficientFamily(fam.n, n_max, dict(fam.items()))
            assert (fam.n, fam.n_max, fam._den) == (checked.n, checked.n_max, checked._den)
            assert list(fam._nums.items()) == list(checked._nums.items()), (sc, n_max)
            assert repr(fam) == repr(checked)


def test_structure_constants_store_int_numerators_over_one_denominator():
    for sc in ALL_TABLES + [StructureConstants(2, {(1, 1, 2): Fraction(6, 4), (2, 1, 2): 9})]:
        assert type(sc._den) is int and sc._den > 0
        assert gcd(sc._den, *sc._nums.values()) == 1
        assert all(type(v) is int and v for v in sc._nums.values())
    # equal values give equal fields, however they are written
    half = StructureConstants(2, {(1, 1, 2): Fraction(1, 2), (1, 2, 1): Fraction(-1, 2)})
    quarters = StructureConstants(2, {(1, 1, 2): Fraction(2, 4), (1, 2, 1): Fraction(-2, 4)})
    assert (half.n, half._den, half._nums) == (quarters.n, quarters._den, quarters._nums)
    assert half == quarters and half._den == 2
    # items and get hand back the input values, zeros dropped, as Fractions
    entries = {(2, 1, 3): Fraction(1, 3), (1, 2, 3): 0, (2, 3, 1): Fraction(-1, 3),
               (3, 1, 2): 2, (3, 2, 1): Fraction(0, 5), (1, 1, 2): Fraction(-3, 4)}
    sc = StructureConstants(3, entries)
    assert list(sc.items()) == [(key, Fraction(v)) for key, v in entries.items() if v]
    assert all(type(v) is Fraction for _key, v in sc.items())
    for k in range(1, 4):
        for i in range(1, 4):
            for j in range(1, 4):
                got = sc.get(k, i, j)
                assert type(got) is Fraction and got == entries.get((k, i, j), 0)
    assert repr(sc) == "StructureConstants(n=3, 4 nonzero entries)"


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
