"""arrlog: exact logarithmic derivation/form modules of hyperplane arrangements."""

from .fields import GF, QQ, FieldMismatch, PrimeField, Rationals, parse_field
from .linalg import Matrix, kernel_basis, rank, rref
from .poly import LinearForm, Poly, monomial_basis
from .arrangement import (
    Arrangement,
    ArrangementError,
    DuplicateHyperplane,
    ZeroForm,
    parse_arrangement,
    restrict,
    validate,
)
from .lattice import (
    InLattice,
    Lattice,
    characteristic_polynomial,
    intersection_lattice,
    is_k_generic,
)
from .library import example_library, parse_library_ref
from .solver import (
    CoeffVector,
    GeneratorSet,
    NotLogarithmic,
    SaitoResult,
    SolverError,
    free_base_from_saito,
    graded_basis,
    graded_dimension,
    is_logarithmic,
    minimal_generators,
    omega_generators_from_free,
    saito_check,
)
from .maps import euler_restrict_der, preparation_check, restrict_form, surjectivity_check
from .checks import (
    criticality_check,
    duality_dimension_check,
    euler_exactness_check,
    euler_ledgers,
)
from .resolution import BettiTable, betti_table, spog_detect
from .report import Report

__version__ = "0.1.0"
