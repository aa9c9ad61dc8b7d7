"""Exceptional spectrum of the asymmetric quantum Rabi model.

Exact constraint polynomials for the degenerate part of the spectrum, the
finite-dimensional representation machinery that explains them, the
associated confluent second-order operators, series for the non-degenerate
exceptional eigenvalues, and brute-force diagonalization to check it all.
"""

from .constraint import (
    ConstraintFamily,
    CrossingRecord,
    PLAIN,
    TILDE,
    constraint_poly,
    continuant,
    find_crossings,
    kernel_vector,
    rep_pair_labels,
    tridiag_matrix,
    verify_conjecture,
    verify_identity_half,
)
from .exactpoly import (
    BivarPoly,
    UniPoly,
    isolate_positive_roots,
    poly_div_x,
    refine_isolated,
    to_fraction,
)
from .gfunction import ExceptionalRoot, GValue, KSeries, find_exceptional, g_minus, g_plus, k_series
from .heun import HeunOp, bargmann_system_residual, exponents, heun_direct, heun_from_K
from .sl2rep import (
    KParams,
    RepOperator,
    RepParams,
    assemble_K,
    casimir,
    commutator_check,
    intertwiner_check,
    invariant_subspace_check,
    reduction_kparams,
    rep_generator,
)
from .spectrum import (
    CrossingObservation,
    ModelParams,
    SpectralSweep,
    build_hamiltonian,
    confirm_crossing,
    sweep,
    truncated_spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
