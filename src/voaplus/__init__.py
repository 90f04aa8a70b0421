"""Exact-arithmetic workbench for the rank-one even lattice Fock space, its
charge-conjugation-fixed subspace, and the small-weight automorphism algebra.

Everything is computed over Gaussian rationals: graded characters and their
branchings, vertex-operator modes, generation closures, fusion spans,
coupling-parity sweeps, finite automorphism checks, and the family of
permutation-invariant commutative algebras on the zero-sum hyperplane.
"""

__version__ = "0.1.0"

from .fock import State, graded_basis, graded_dim
from .numeric import (
    DecompositionError,
    QSeries,
    QSeriesError,
    Scalar,
    decompose,
    eta,
    eta_inverse,
    sector_character,
    telescoping_check,
    virasoro_character,
)
from .reptheory import (
    CGLabel,
    GradedSubspace,
    OutsideBound,
    cg_coefficient,
    character_decomposition_suite,
    closure,
    fusion_span,
    lower_u,
    parity_sweep,
    singular_vectors,
    tensor_decompose,
)
from .vertex import bracket, mode, virasoro

__all__ = [
    "__version__",
    "CGLabel",
    "DecompositionError",
    "GradedSubspace",
    "OutsideBound",
    "QSeries",
    "QSeriesError",
    "Scalar",
    "State",
    "bracket",
    "cg_coefficient",
    "character_decomposition_suite",
    "closure",
    "decompose",
    "eta",
    "eta_inverse",
    "fusion_span",
    "graded_basis",
    "graded_dim",
    "lower_u",
    "mode",
    "parity_sweep",
    "sector_character",
    "singular_vectors",
    "telescoping_check",
    "tensor_decompose",
    "virasoro",
    "virasoro_character",
]
