"""The package's public surface: `symorder.__all__` and star imports, and the
rule that no library invariant is guarded only by `assert`."""

import ast
import dataclasses
from pathlib import Path

import symorder

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
    "cancellation_terms",
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
    # The identity check has no cutoff flag: every cutoff is exact.
    removed = {
        symorder.GeneratorSet: ("generator",),
        symorder.CoefficientFamily: ("get", "entry_count", "is_antisymmetric", "_antisymmetric"),
        symorder.StructureConstants: ("is_valid",),
        symorder.weyl: ("poly_monomial", "weyl_term"),
        symorder.ordering: ("TruncationWarning", "_warn_if_insufficient"),
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
