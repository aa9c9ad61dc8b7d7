"""Brute-force spectra of the shifted oscillator pair, used as the numerical
ground truth everything else is checked against.

In the sigma_x eigenbasis the Hamiltonian splits into two oscillator blocks
a^dag a +- (g (a + a^dag) + eps) coupled by Delta off the diagonal, so a
photon-number truncation at n_max gives a 2(n_max+1)-dimensional symmetric
matrix whose low eigenvalues converge rapidly in n_max.

Grouped by Fock level instead, the same matrix is block tridiagonal: level
n is the 2x2 block [[n + eps, Delta], [Delta, n - eps]], and levels n - 1
and n are coupled by g sqrt(n) diag(1, -1). Convergence flags use that
structure: they count eigenvalues of the larger truncation below a shift
in O(n_max) steps instead of diagonalizing it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constraint import CrossingRecord, refine_crossing

DEFAULT_NMAX = 60
ESCALATED_NMAX = 120

#: an eigenvalue is converged when growing the truncation by this margin
#: moves it by less than CONV_TOL
CONV_MARGIN = 20
CONV_TOL = 1e-9

#: a level pair closer than this counts as a degeneracy
DEGENERACY_TOL = 1e-7
#: confirm_crossing first refines a record wider in x than DEGENERACY_TOL
#: times this; the level gap grows about linearly with the width (about 1
#: per unit of x at N=12), and records at the CLI default width 1e-12 are
#: never refined
CONFIRM_WIDTH = Fraction(1, 1000)


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


def build_hamiltonian(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense symmetric matrix in the truncated sigma_x-diagonal basis."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = n_max + 1
    h = np.zeros((2 * dim, 2 * dim))
    rows = np.arange(dim)
    number = rows.astype(float)
    hop = params.g * np.sqrt(number[1:])
    # filled in place: dense temporaries per block would triple the peak
    # memory of the matrix itself
    for block, sign in ((h[:dim, :dim], 1.0), (h[dim:, dim:], -1.0)):
        block[rows, rows] = number + sign * params.eps
        block[rows[:-1], rows[1:]] = block[rows[1:], rows[:-1]] = sign * hop
    h[rows, rows + dim] = h[rows + dim, rows] = params.delta
    return h


def eigenvalues(params: ModelParams, n_max: int) -> np.ndarray:
    """Ascending eigenvalues of the truncated Hamiltonian."""
    return np.linalg.eigvalsh(build_hamiltonian(params, n_max))


def _count_below(g, delta: float, eps: float, n_max: int, shifts) -> np.ndarray:
    """Number of eigenvalues of the truncated Hamiltonian below each shift,
    elementwise over shifts, with g broadcast against them.

    By Sylvester's law of inertia this is the number of negative eigenvalues
    of the pivot blocks of the block LDL^T factorization of H - s:
    D_0 = [[eps - s, Delta], [Delta, -eps - s]] and
    D_n = [[n + eps - s, Delta], [Delta, n - eps - s]] - g^2 n S D_{n-1}^-1 S
    with S = diag(1, -1). As LAPACK's dstebz replaces a pivot below pivmin,
    a block whose determinant is below pivmin = (rho/2)^2 in modulus is moved
    rho away from singular, rho being machine epsilon times a Gershgorin
    bound: the count is then that of a matrix within rho of H, and no
    determinant the recurrence divides by is zero.
    """
    g2 = np.square(g)
    bound = n_max + abs(eps) + abs(delta) + 2 * np.sqrt(g2 * n_max) + 1
    # every eigenvalue lies inside (-bound, bound), so clipping the shifts
    # changes no count and keeps the pivots finite
    s = np.clip(shifts, -bound, bound)
    rho = np.finfo(float).eps * bound
    pivmin = 0.25 * rho * rho
    a0, c0 = eps - s, -eps - s
    a, b, c = a0, delta, c0
    # a block has one negative eigenvalue when det < 0, else two or none as
    # a is negative or positive: balance counts the blocks with none less
    # the blocks with two
    balance = np.zeros(np.shape(s))
    for n in range(n_max + 1):
        if n:
            inv = g2 * n / det
            a, b, c = (a0 + n) - inv * c, delta - inv * b, (c0 + n) - inv * a
        det = a * c - b * b
        near = np.abs(det) < pivmin
        if near.any():
            trace = a + c
            step = np.where(near, np.copysign(rho, trace), 0.0)
            det = det + step * (trace + step)
            a, c = a + step, c + step
        balance += np.copysign(det > 0, a)
    return n_max + 1 - balance.astype(np.intp)


def _converged(g, delta: float, eps: float, n_max: int, ev, k) -> np.ndarray:
    """Whether level k, at ev in the spectrum at n_max, moves by less than
    CONV_TOL at n_max + CONV_MARGIN; elementwise over ev and k, with g
    broadcast against them.

    H at n_max is a principal submatrix of H at n_max + CONV_MARGIN, so by
    Cauchy interlacing a level only falls as the truncation grows. It moves
    by less than CONV_TOL exactly when the larger truncation has at most k
    eigenvalues below ev - CONV_TOL.
    """
    return _count_below(g, delta, eps, n_max + CONV_MARGIN,
                        ev - CONV_TOL) <= k


def convergence_flags(params: ModelParams, n_max: int,
                      ev: np.ndarray) -> np.ndarray:
    """Per-level flags for ev, the spectrum at n_max: whether each level moves
    by less than CONV_TOL at n_max + CONV_MARGIN."""
    return _converged(params.g, params.delta, params.eps, n_max, ev,
                      np.arange(len(ev)))


@dataclass(frozen=True)
class CrossingObservation:
    """A numerically confirmed true degeneracy at coupling g_star."""

    g_star: float
    lambda_star: float
    gap: float
    indices: tuple[int, int]


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
    """Tabulate the spectrum over a grid of couplings, noting degeneracies."""
    grid = tuple(float(g) for g in g_grid)
    if not grid:
        raise ValueError("g_grid must be nonempty")
    table = np.array([eigenvalues(ModelParams(g=g, delta=delta, eps=eps),
                                  n_max) for g in grid])
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


def confirm_crossing(record: CrossingRecord,
                     n_max: int = DEFAULT_NMAX) -> CrossingObservation:
    """Check a predicted exact crossing against direct diagonalization.

    The record pins lambda = N - g^2 + eps at g derived from the isolated
    root of the constraint polynomial; the truncated spectrum must contain
    two eigenvalues within DEGENERACY_TOL of that target and of each other.
    Below ESCALATED_NMAX a missed pair, or a hit whose pair moves by
    CONV_TOL or more at n_max + CONV_MARGIN, is checked again at a
    truncation CONV_MARGIN larger, up to ESCALATED_NMAX; a miss skips that
    convergence check. At ESCALATED_NMAX a hit is accepted without it and a
    miss raises ValueError (wrong root, or truncation too small). A record
    too wide for DEGENERACY_TOL is refined first.
    """
    precision = Fraction(DEGENERACY_TOL) * CONFIRM_WIDTH
    lo, hi = record.root_interval
    if hi - lo > precision:
        record = refine_crossing(record, precision)
    g_star = record.g
    target = record.lambda_
    params = ModelParams(g=g_star, delta=math.sqrt(float(record.d_value)),
                         eps=record.two_eps / 2.0)
    ev = eigenvalues(params, n_max)
    order = np.argsort(np.abs(ev - target))
    i, j = sorted((int(order[0]), int(order[1])))
    err_i = abs(ev[i] - target)
    err_j = abs(ev[j] - target)
    gap = abs(ev[j] - ev[i])
    missed = (err_i > DEGENERACY_TOL or err_j > DEGENERACY_TOL
              or gap > DEGENERACY_TOL)
    if n_max < ESCALATED_NMAX and (missed or not _converged(
            g_star, params.delta, params.eps, n_max, ev[[i, j]],
            np.array([i, j])).all()):
        return confirm_crossing(
            record, n_max=min(n_max + CONV_MARGIN, ESCALATED_NMAX))
    if missed:
        raise ValueError(
            f"no degenerate pair at lambda={target}: nearest eigenvalues miss "
            f"by ({err_i:.3e}, {err_j:.3e}) with gap {gap:.3e} at n_max={n_max}")
    return CrossingObservation(
        g_star=g_star,
        lambda_star=0.5 * float(ev[i] + ev[j]),
        gap=float(gap), indices=(i, j))
