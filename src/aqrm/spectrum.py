"""Brute-force spectra of the shifted oscillator pair, used as the numerical
ground truth everything else is checked against.

In the sigma_x eigenbasis the Hamiltonian splits into two oscillator blocks
a^dag a +- (g (a + a^dag) + eps) coupled by Delta off the diagonal, so a
photon-number truncation at n_max gives a 2(n_max+1)-dimensional symmetric
matrix whose low eigenvalues converge rapidly in n_max.

Grouped by Fock level instead, the same matrix is block tridiagonal: level
n is the 2x2 block [[n + eps, Delta], [Delta, n - eps]], and levels n - 1
and n are coupled by g sqrt(n) diag(1, -1). A sweep's convergence flags
count eigenvalues of the larger truncation below a shift in O(n_max) steps
with that structure instead of diagonalizing it. The count lives in two
places, one per traffic: _count_below here, in numpy, makes one count for a
sweep's whole table; confirm._count_below_float, in Python floats, counts
the four shifts of each confirmed crossing, where numpy's per-call cost
would outweigh the arithmetic. The two give the same count bit for bit.
Crossing confirmation needs no dense solve and lives in confirm, without
numpy; this module takes its tolerances from there. This is the one module
that imports numpy, so kernel_vector, the float kernel vector of a
constraint tridiagonal at a root, lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .confirm import (CONV_MARGIN, CONV_TOL, DEFAULT_NMAX, DEGENERACY_TOL,
                      CrossingObservation)
from .constraint import PLAIN, ConstraintFamily, tridiag_matrix
from .exactpoly import to_fraction


@dataclass(frozen=True)
class ModelParams:
    """Coupling g, tunneling Delta and asymmetry eps (oscillator frequency 1)."""

    g: float
    delta: float
    eps: float = 0.0

    def __post_init__(self):
        for name in ("g", "delta", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _diagonal(h: np.ndarray, row: int, col: int, length: int) -> np.ndarray:
    """Writable strided view of h[row + i, col + i] for i < length."""
    step = h.shape[1] + 1
    start = row * h.shape[1] + col
    return h.reshape(-1)[start:start + (length - 1) * step + 1:step]


def _base_hamiltonian(delta: float, eps: float, n_max: int) -> np.ndarray:
    """The g-independent part of the Hamiltonian: the diagonal n +- eps and
    the Delta couplings between the blocks, with zero hops."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = n_max + 1
    h = np.zeros((2 * dim, 2 * dim))
    number = np.arange(dim, dtype=float)
    _diagonal(h, 0, 0, dim)[:] = number + eps
    _diagonal(h, dim, dim, dim)[:] = number - eps
    _diagonal(h, 0, dim, dim)[:] = delta
    _diagonal(h, dim, 0, dim)[:] = delta
    return h


def _set_hops(h: np.ndarray, g: float) -> None:
    """Write the hops +-g sqrt(n) between Fock levels n - 1 and n of the
    upper (+) and lower (-) block of h in place."""
    dim = h.shape[0] // 2
    hop = g * np.sqrt(np.arange(1, dim, dtype=float))
    _diagonal(h, 0, 1, dim - 1)[:] = _diagonal(h, 1, 0, dim - 1)[:] = hop
    hop = -hop
    _diagonal(h, dim, dim + 1, dim - 1)[:] = hop
    _diagonal(h, dim + 1, dim, dim - 1)[:] = hop


def build_hamiltonian(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense symmetric matrix in the truncated sigma_x-diagonal basis."""
    h = _base_hamiltonian(params.delta, params.eps, n_max)
    _set_hops(h, params.g)
    return h


def _count_below(g, delta: float, eps: float, n_max: int,
                 shifts) -> np.ndarray:
    """Number of eigenvalues of the truncation at n_max below each shift,
    elementwise over shifts, with g broadcast against them, so that a sweep
    makes one count for its whole table.

    The recurrence of confirm._pivots, which derives it, over numpy lanes:
    the same pivot blocks, bound, rho, pivmin and near-singular step, so
    each lane equals confirm._count_below_float bit for bit.
    """
    g2 = np.square(g)
    bound = n_max + abs(eps) + abs(delta) + 2 * np.sqrt(g2 * n_max) + 1
    # every eigenvalue lies inside (-bound, bound), so clipping the shifts
    # changes no count and keeps the pivots finite
    s = np.clip(shifts, -bound, bound)
    rho = np.finfo(float).eps * bound
    a0, c0 = eps - s, -eps - s
    # pivmin spread over the lanes: a comparison with a broadcast column
    # costs about three times one with a whole array
    pivmin = np.full(a0.shape, 0.25 * rho * rho)
    # the recurrence runs in place in these buffers, making the operations
    # of the formulas above in their order, so every pivot is the same
    a, a_next, c, det, inv, t = (np.empty_like(a0) for _ in range(6))
    a[...], c[...] = a0, c0
    b = np.full_like(a0, delta)
    near = np.empty(a0.shape, bool)
    # a block has one negative eigenvalue when det < 0, else two or none as
    # a is negative or positive. Per lane, flags[0] marks det > 0 and
    # flags[1] det > 0 with the sign bit of a set; the uint8 tallies of both
    # move into int totals every 255 levels, before they could wrap
    flags = np.empty((2,) + a0.shape, bool)
    tally = np.zeros(flags.shape, np.uint8)
    total = np.zeros(flags.shape, np.intp)
    for n in range(n_max + 1):
        if n:
            # inv = g^2 n / det, then a, b, c = (a0 + n) - inv c,
            # delta - inv b, (c0 + n) - inv a
            np.divide(g2 * n, det, out=inv)
            np.multiply(inv, c, out=t)
            np.subtract(np.add(a0, n, out=a_next), t, out=a_next)
            np.subtract(delta, np.multiply(inv, b, out=t), out=b)
            np.multiply(inv, a, out=t)
            np.subtract(np.add(c0, n, out=c), t, out=c)
            a, a_next = a_next, a
        # det = a c - b b
        np.subtract(np.multiply(a, c, out=det), np.multiply(b, b, out=t),
                    out=det)
        if np.less(np.abs(det, out=t), pivmin, out=near).any():
            trace = a + c
            step = np.where(near, np.copysign(rho, trace), 0.0)
            det += step * (trace + step)
            a += step
            c += step
        np.greater(det, 0, out=flags[0])
        np.logical_and(flags[0], np.signbit(a, out=flags[1]), out=flags[1])
        np.add(tally, flags.view(np.uint8), out=tally)
        if n % 255 == 254:
            total += tally
            tally[...] = 0
    total += tally
    # n_max + 1 blocks less those with none (flags[0] but not flags[1])
    # plus those with two (flags[1])
    return n_max + 1 - total[0] + 2 * total[1]


def _converged(g, delta: float, eps: float, n_max: int, ev,
               k) -> np.ndarray:
    """Whether level k, at ev in the spectrum at n_max, moves by less than
    CONV_TOL at n_max + CONV_MARGIN; elementwise over ev and k, with g
    broadcast against them.

    H at n_max is a principal submatrix of H at n_max + CONV_MARGIN, so by
    Cauchy interlacing a level only falls as the truncation grows. It moves
    by less than CONV_TOL exactly when the larger truncation has at most k
    eigenvalues below ev - CONV_TOL. confirm_crossings applies the same
    rule to a confirmed pair, one level at a time, with _count_below_float.
    """
    return _count_below(g, delta, eps, n_max + CONV_MARGIN,
                        ev - CONV_TOL) <= k


@dataclass(frozen=True)
class SpectralSweep:
    delta: float
    eps: float
    n_max: int
    g_grid: tuple[float, ...]
    table: np.ndarray  # shape (len(g_grid), 2*(n_max+1))
    converged: np.ndarray  # same shape, bool
    crossings: tuple[CrossingObservation, ...]


def sweep(delta: float, eps: float, g_grid,
          n_max: int = DEFAULT_NMAX) -> SpectralSweep:
    """Tabulate the spectrum over a grid of couplings, noting degeneracies.

    One matrix serves the whole sweep: its g-independent part is built once,
    and each g rewrites only the hops before the solve. Each row equals
    np.linalg.eigvalsh(build_hamiltonian(ModelParams(g, delta, eps), n_max))
    bit for bit, and like numpy's eigvalsh, which can differ in the last
    digit with the BLAS thread count, it is reproducible only at a fixed
    count (OPENBLAS_NUM_THREADS=1, say).
    """
    grid = tuple(float(g) for g in g_grid)
    if not grid:
        raise ValueError("g_grid must be nonempty")
    for g in grid:
        ModelParams(g=g, delta=delta, eps=eps)
    h = _base_hamiltonian(delta, eps, n_max)
    table = np.empty((len(grid), len(h)))
    for row, g in zip(table, grid):
        _set_hops(h, g)
        row[:] = np.linalg.eigvalsh(h)
    # the matrix is dead here: freeing it keeps it out of the count's peak
    del h
    # one count for the whole table: per-g calls would pay numpy's per-call
    # overhead len(grid) times over
    converged = _converged(np.array(grid)[:, None], delta, eps, n_max, table,
                           np.arange(table.shape[1]))
    found = []
    for g, ev in zip(grid, table):
        gaps = np.diff(ev)
        for i in np.nonzero(gaps < DEGENERACY_TOL)[0]:
            found.append(CrossingObservation(
                g_star=g,
                lambda_star=0.5 * (ev[i] + ev[i + 1]),
                gap=float(gaps[i]),
                indices=(int(i), int(i) + 1)))
    return SpectralSweep(delta=delta, eps=eps, n_max=n_max, g_grid=grid,
                         table=table, converged=converged,
                         crossings=tuple(found))


NONROOT_RESIDUAL = 1e-6  #: residual/norm ratio above which x is rejected as a non-root


def kernel_vector(fam: ConstraintFamily, d_value, x_value: float) -> list[float]:
    """Unit kernel vector of the specialized full-size tridiagonal matrix.

    The matrix at a constraint-polynomial root has rank N, so its kernel is a
    line, spanned by the right singular vector of the smallest singular value.
    A three-term recurrence run from either end of the matrix loses accuracy
    at large N; the SVD does not. The sign makes entry 0 (plain) or 1 (tilde),
    the entry that is nonzero on every kernel vector, positive. Raises
    ValueError when the residual shows x_value is not a root to working
    precision.
    """
    d_value = to_fraction(d_value)
    x = float(x_value)
    if x <= 0 or d_value <= 0:
        raise ValueError("x and d must be positive")
    m = np.array(tridiag_matrix(fam, fam.N).at(Fraction(x), d_value),
                 dtype=float)
    vec = np.linalg.svd(m)[2][-1]
    residual = np.linalg.norm(m @ vec) / np.linalg.norm(m)
    if residual > NONROOT_RESIDUAL:
        raise ValueError(
            f"x={x_value} is not a root of the specialized constraint "
            f"polynomial (residual ratio {residual:.3e})")
    if vec[0 if fam.variant == PLAIN else 1] < 0:
        vec = -vec
    return vec.tolist()
