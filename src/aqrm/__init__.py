"""Exceptional spectrum of the asymmetric quantum Rabi model.

Exact constraint polynomials for the degenerate part of the spectrum, the
finite-dimensional representation machinery that explains them, the
associated confluent second-order operators, series for the non-degenerate
exceptional eigenvalues, and brute-force diagonalization to check it all.

Names that need numpy (sweep, kernel_vector, ...) are imported from
aqrm.spectrum, the one module that loads it; importing aqrm does not.
"""

from .confirm import CrossingObservation, confirm_crossings
from .constraint import (
    ConstraintFamily,
    CrossingRecord,
    PLAIN,
    TILDE,
    constraint_poly,
    constraint_poly_at,
    find_crossings,
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
    to_fraction,
)
from .gfunction import (ExceptionalRoot, GValue, find_exceptional, g_minus,
                        g_pair, g_plus)
from .heun import HeunOp, bargmann_system_residual, heun_direct, reduction_check
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

__version__ = "0.1.0"

__all__ = sorted(name for name in dir() if not name.startswith("_"))
