"""Exact symbolic kernel for Weyl-algebra ordering identities.

The package verifies, with exact rational arithmetic throughout, that
generators of the form x_i plus antisymmetric higher-derivative corrections
satisfy the symmetrized ordering identity on the vacuum, that the
Bernoulli-weighted embedding of a Lie bracket table sends brackets to
commutators, and that symmetrization gives a linear section of the vacuum
projection.  See the module docstrings for the individual layers:

  weyl        the normal-ordered Weyl algebra kernel and the Fock action
  lie         structure constants, Bernoulli numbers, the embedding
  generators  coefficient families and the perturbed generators
  ordering    symmetrized products, the identity checker, section/projection
  linalg      exact rank of rational matrices
  rng         the seeded portable random stream behind every trial
  cli         the verification command line
"""

from .generators import (
    CoefficientFamily,
    GeneratorSet,
    build_generators,
    monomials_of_degree,
    random_family,
    symmetric_control_family,
)
from .lie import (
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
from .linalg import exact_rank
from .ordering import (
    CheckResult,
    cancellation_check,
    e_map,
    e_tilde,
    pi_project,
    span_dimension,
    theorem_check,
    word_monomial,
)
from .rng import SplitMix64
from .weyl import (
    DimensionMismatchError,
    WeylElement,
    fock_apply,
    linear_combination,
    mul,
    truncate,
    weyl_d,
    weyl_scalar,
    weyl_x,
)

__all__ = [
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

__version__ = "0.1.0"
