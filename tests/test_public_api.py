"""The package's public surface: `symorder.__all__` and star imports, the
rule that no library invariant is guarded only by `assert`, and the rule
that every coefficient entry point takes ints and Fractions only, and every
size, index, order and cutoff ints (and bools) only."""

import ast
import dataclasses
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import symorder
from symorder import (
    CoefficientFamily,
    GeneratorSet,
    SplitMix64,
    StructureConstants,
    WeylElement,
    bernoulli,
    build_generators,
    cancellation_check,
    derived_family,
    exact_rank,
    heisenberg_table,
    homomorphism_defect,
    iota,
    linear_combination,
    monomials_of_degree,
    mul,
    random_almost_abelian_table,
    random_family,
    random_two_step_table,
    span_dimension,
    theorem_check,
    truncate,
    weyl_d,
    weyl_scalar,
    weyl_x,
)

# Adding or removing a public name is a deliberate edit to this list.
PUBLIC_NAMES = [
    "CheckResult",
    "CoefficientFamily",
    "DimensionMismatchError",
    "GeneratorSet",
    "InvalidStructureConstantsError",
    "SplitMix64",
    "StructureConstants",
    "Violation",
    "WeylElement",
    "abelian_table",
    "bernoulli",
    "build_generators",
    "cancellation_check",
    "derived_family",
    "direct_sum",
    "e_map",
    "e_tilde",
    "exact_rank",
    "fock_apply",
    "heisenberg_table",
    "homomorphism_defect",
    "iota",
    "linear_combination",
    "monomials_of_degree",
    "mul",
    "pi_project",
    "random_almost_abelian_table",
    "random_family",
    "random_two_step_table",
    "sl2_table",
    "span_dimension",
    "symmetric_control_family",
    "theorem_check",
    "truncate",
    "weyl_d",
    "weyl_scalar",
    "weyl_x",
    "word_monomial",
]


def test_all_names_resolve_sorted_and_unique():
    names = symorder.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(symorder, name) is not None, name


def test_all_is_the_pinned_public_surface():
    assert symorder.__all__ == PUBLIC_NAMES


def test_removed_accessors_stay_removed():
    # each had a one-expression replacement: gens.generators[i - 1],
    # dict(fam.items()), the checked CoefficientFamily constructor, and
    # not sc.validate(); single terms are built with the WeylElement constructor.
    # The identity check has no cutoff flag: every cutoff is exact.  Degrees
    # are read off items(), and the cancellation sum is built in one pass.
    removed = {
        symorder.GeneratorSet: ("generator",),
        symorder.CoefficientFamily: ("get", "entry_count", "is_antisymmetric", "_antisymmetric"),
        symorder.StructureConstants: ("is_valid",),
        symorder.WeylElement: ("x_degree", "d_degree"),
        symorder.weyl: ("poly_monomial", "weyl_term"),
        symorder.ordering: ("TruncationWarning", "_warn_if_insufficient",
                            "cancellation_terms", "_letter_terms"),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    fields = [field.name for field in dataclasses.fields(symorder.CheckResult)]
    assert "truncation_sufficient" not in fields


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from symorder import *", namespace)
    assert set(symorder.__all__) <= set(namespace)


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so an invariant must be checked by a raise.
    sources = sorted(Path(symorder.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


# Each entry point that takes a coefficient, as a call on that one value.
COEFFICIENT_ENTRY_POINTS = {
    "WeylElement": lambda c: WeylElement(1, {((1,), (0,)): c}),
    "weyl_scalar": lambda c: weyl_scalar(2, c),
    "scale": lambda c: weyl_x(2, 1).scale(c),
    "linear_combination": lambda c: linear_combination(2, [(1, weyl_x(2, 1)), (c, weyl_d(2, 2))]),
    "CoefficientFamily": lambda c: CoefficientFamily(
        2, 1, {(1, 1, 1, 2, (0, 0)): c}, check_antisymmetry=False),
    "StructureConstants": lambda c: StructureConstants(2, {(1, 1, 2): c}),
    "random_family": lambda c: random_family(2, 2, sparsity=c),
    "exact_rank": lambda c: exact_rank([[1, c], [0, 1]]),
    "SplitMix64.bernoulli": lambda c: SplitMix64(0).bernoulli(c),
}


@pytest.mark.parametrize("name", sorted(COEFFICIENT_ENTRY_POINTS))
def test_coefficients_must_be_int_or_fraction(name):
    # A float, decimal or string would be silently turned into a rational
    # (0.1 into 3602879701896397/36028797018963968) or fail deep inside.
    call = COEFFICIENT_ENTRY_POINTS[name]
    for bad in (0.5, "1/2", Decimal("0.5"), 0.0):
        with pytest.raises(TypeError):
            call(bad)
    for good in (1, Fraction(1, 2)):
        call(good)


# Each entry point that takes a size, index, order or cutoff, as a call on
# that one value; 2 is a valid value for each.
SIZE_ENTRY_POINTS = {
    "WeylElement": lambda v: WeylElement(v),
    "weyl_x": lambda v: weyl_x(2, v),
    "weyl_d": lambda v: weyl_d(v, 1),
    "weyl_scalar": lambda v: weyl_scalar(v, 1),
    "linear_combination": lambda v: linear_combination(v, []),
    "mul": lambda v: mul(weyl_x(1, 1), weyl_d(1, 1), max_d_degree=v),
    "truncate": lambda v: truncate(weyl_d(1, 1), v),
    "monomials_of_degree": lambda v: monomials_of_degree(v, 2),
    "CoefficientFamily": lambda v: CoefficientFamily(2, v),
    "random_family": lambda v: random_family(2, v),
    "GeneratorSet": lambda v: GeneratorSet(2, v, (weyl_x(2, 1), weyl_x(2, 2))),
    "build_generators": lambda v: build_generators(random_family(2, 1), v),
    "theorem_check": lambda v: theorem_check(build_generators(random_family(2, 1), 1), (1, v)),
    "cancellation_check": lambda v: cancellation_check(random_family(2, 2), (1, 2), 1, v),
    "span_dimension": lambda v: span_dimension(build_generators(random_family(2, 1), 2), v),
    "StructureConstants": lambda v: StructureConstants(v),
    "bernoulli": lambda v: bernoulli(v),
    "iota": lambda v: iota(heisenberg_table(), v, 1),
    "homomorphism_defect": lambda v: homomorphism_defect(heisenberg_table(), v),
    "derived_family": lambda v: derived_family(heisenberg_table(), v),
    "random_two_step_table": lambda v: random_two_step_table(3, v, 0),
    "random_almost_abelian_table": lambda v: random_almost_abelian_table(v, 0),
    "SplitMix64.draws": lambda v: SplitMix64(0).draws(v),
    "SplitMix64.below": lambda v: SplitMix64(0).below(v),
}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_sizes_indices_and_cutoffs_must_be_ints(name):
    # The paper's words, orders and cutoffs are whole numbers: 2.0 must not
    # pass as 2, nor 1.5 be compared against a range and then used.
    call = SIZE_ENTRY_POINTS[name]
    for bad in (1.5, 2.0, "2", Fraction(2)):
        with pytest.raises(TypeError):
            call(bad)
    call(2)


def test_every_element_builder_checks_its_dimension():
    for build in (lambda: weyl_scalar(0, 1), lambda: linear_combination(0, []),
                  lambda: linear_combination(-1, []), lambda: WeylElement(0)):
        with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
            build()
