"""Numerical confirmation of exact crossings, in Python floats.

The Hamiltonian truncated at n_max photons is block tridiagonal when grouped
by Fock level: level n is the 2x2 block [[n + eps, Delta], [Delta, n - eps]],
and levels n - 1 and n are coupled by g sqrt(n) diag(1, -1). confirm_crossings
uses that structure alone, in O(n_max) steps per record: inertia counts
(_count_below_float) find how many levels lie near the predicted lambda and
which, and a shift-invert solve on the same block LDL^T factorization
(_pair_levels) gives the two levels of the pair. Nothing here loads numpy, so
`crossings --confirm` runs without it; spectrum holds the dense matrix, the
sweep and the numpy count, and takes its tolerances from here.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .constraint import CrossingRecord, crossing_refiner

DEFAULT_NMAX = 60

#: an eigenvalue is converged when growing the truncation by this margin
#: moves it by less than CONV_TOL
CONV_MARGIN = 20
CONV_TOL = 1e-9

#: a level pair closer than this counts as a degeneracy
DEGENERACY_TOL = 1e-7
#: confirm_crossings first refines a record wider in x than REFINE_WIDTH,
#: DEGENERACY_TOL times CONFIRM_WIDTH; the level gap grows about linearly
#: with the width (about 1 per unit of x at N=12), and records at the CLI
#: default width 1e-12 are never refined
CONFIRM_WIDTH = Fraction(1, 1000)
REFINE_WIDTH = Fraction(DEGENERACY_TOL) * CONFIRM_WIDTH
#: the residual ||H Y - Y Theta|| above which the pair solve corrects its
#: basis once; confirm_crossings accepts a pair whose residual is at most
#: CONV_TOL, since by Kahan's bound each level then lies as close to an
#: eigenvalue of the truncation as a converged level moves
RITZ_TOL = 1e-11


@dataclass(frozen=True)
class CrossingObservation:
    """A numerically confirmed true degeneracy at coupling g_star."""

    g_star: float
    lambda_star: float
    gap: float
    indices: tuple[int, int]


def _pivots(g: float, delta: float, eps: float, n_max: int, shift: float):
    """The pivot blocks [[a, b], [b, c]] of the block LDL^T factorization of
    H - s, s the shift, level by level, each as (a, b, c, det):
    D_0 = [[eps - s, Delta], [Delta, -eps - s]] and
    D_n = [[n + eps - s, Delta], [Delta, n - eps - s]] - g^2 n S D_{n-1}^-1 S
    with S = diag(1, -1). As LAPACK's dstebz replaces a pivot below pivmin,
    a block whose determinant is below pivmin = (rho/2)^2 in modulus is moved
    rho away from singular, rho being machine epsilon times a Gershgorin
    bound: the blocks are then those of a matrix within rho of H - s, and no
    determinant is zero. Every eigenvalue lies inside the bound, so the
    shift is clipped to it, which keeps the pivots finite.
    """
    g2 = g * g
    bound = n_max + abs(eps) + abs(delta) + 2 * math.sqrt(g2 * n_max) + 1
    s = min(max(shift, -bound), bound)
    rho = sys.float_info.epsilon * bound
    pivmin = 0.25 * rho * rho
    a0, c0 = eps - s, -eps - s
    a, b, c = a0, delta, c0
    for n in range(n_max + 1):
        if n:
            inv = g2 * n / det
            a, b, c = (a0 + n) - inv * c, delta - inv * b, (c0 + n) - inv * a
        det = a * c - b * b
        if abs(det) < pivmin:
            trace = a + c
            step = math.copysign(rho, trace)
            det = det + step * (trace + step)
            a, c = a + step, c + step
        yield a, b, c, det


def _count_below_float(g: float, delta: float, eps: float, n_max: int,
                       shift: float) -> int:
    """Number of eigenvalues of the truncation at n_max below shift.

    By Sylvester's law of inertia this is the number of negative eigenvalues
    of the pivot blocks of H - shift (_pivots): one when det < 0, else two
    or none as a is negative or positive. spectrum._count_below makes the
    same count over many shifts in numpy, equal to this one bit for bit.
    """
    balance = 0.0
    for a, _, _, det in _pivots(g, delta, eps, n_max, shift):
        if det > 0:
            balance += math.copysign(1.0, a)
    return n_max + 1 - int(balance)


def _pair_levels(g: float, delta: float, eps: float, n_max: int,
                 sigma: float) -> tuple[float, float, float]:
    """The two eigenvalues of the truncation at n_max nearest sigma, by a
    shift-invert subspace solve, and the residual that bounds their error:
    (low, high, residual).

    The pivots of H - sigma (_pivots) give its block LDL^T factorization.
    One solve with two fixed right-hand sides, then Gram-Schmidt, gives a
    basis Q of the pair's invariant subspace; Rayleigh-Ritz on it gives
    T = Q^T (H - sigma) Q, the levels sigma plus the eigenvalues of T, and
    the residual R = (H - sigma) Q - Q T. The factorization has no
    pivoting, and where a leading block of H - sigma is close to singular
    the solve errs in Q, leaving residuals up to about 5e-10 however often
    it is repeated. So a residual above RITZ_TOL gets one Newton
    correction: a second solve, on R, gives the error of Q outside its
    span, and Rayleigh-Ritz is made again on the corrected basis.

    residual is the Frobenius norm of R, which bounds ||H Y - Y Theta||_2
    for the Ritz vectors Y = Q V. By Kahan's theorem (Parlett, The
    Symmetric Eigenvalue Problem, 11.5) each level then lies within
    residual of its own eigenvalue of H. A vector is a list of
    2 (n_max + 1) floats, the upper and the lower component of each Fock
    level in turn.
    """
    inverses = [(c / det, -b / det, a / det)
                for a, b, c, det in _pivots(g, delta, eps, n_max, sigma)]
    # hop[n] couples levels n - 1 and n; hop[0] and hop[n_max + 1] meet
    # only zeros
    hop = [g * math.sqrt(n) for n in range(n_max + 2)]
    diag_up = [eps - sigma + n for n in range(n_max + 1)]
    diag_down = [-eps - sigma + n for n in range(n_max + 1)]
    size = 2 * (n_max + 1)

    def interleave(up, down):
        v = [0.0] * size
        v[0::2], v[1::2] = up, down
        return v

    def solve(x, y):
        # (H - sigma)^-1 on both columns: L z = v and w = D^-1 z going up,
        # then L^T v' = w going down
        w = []
        xu = xd = yu = yd = 0.0
        for (p, q, r), h, bxu, bxd, byu, byd in zip(
                inverses, hop, x[0::2], x[1::2], y[0::2], y[1::2]):
            zu, zd = bxu - h * xu, bxd + h * xd
            xu, xd = p * zu + q * zd, q * zu + r * zd
            zu, zd = byu - h * yu, byd + h * yd
            yu, yd = p * zu + q * zd, q * zu + r * zd
            w.append((xu, xd, yu, yd))
        v = []
        xu = xd = yu = yd = 0.0
        for (p, q, r), h, (wxu, wxd, wyu, wyd) in zip(
                reversed(inverses), reversed(hop), reversed(w)):
            tu, td = h * xu, -h * xd
            xu, xd = wxu - (p * tu + q * td), wxd - (q * tu + r * td)
            tu, td = h * yu, -h * yd
            yu, yd = wyu - (p * tu + q * td), wyd - (q * tu + r * td)
            v.append((xu, xd, yu, yd))
        xu, xd, yu, yd = zip(*reversed(v))
        return interleave(xu, xd), interleave(yu, yd)

    def shifted(v):
        # (H - sigma) v
        u, d = v[0::2], v[1::2]
        return interleave(
            [a * x + delta * y + h * xb + hn * xa for a, x, y, h, xb, hn, xa
             in zip(diag_up, u, d, hop, [0.0, *u], hop[1:], [*u[1:], 0.0])],
            [c * y + delta * x - h * yb - hn * ya for c, x, y, h, yb, hn, ya
             in zip(diag_down, u, d, hop, [0.0, *d], hop[1:], [*d[1:], 0.0])])

    def dot(v, w):
        return sum(map(mul, v, w))

    def minus(w, a, x, b, y):
        # w - a x - b y
        return [wi - a * xi - b * yi for wi, xi, yi in zip(w, x, y)]

    def orthonormal(x, y):
        # Gram-Schmidt, the projection made twice; None if a column has
        # nothing left
        norm = math.sqrt(dot(x, x))
        if not norm:
            return None
        x = [xi / norm for xi in x]
        for _ in range(2):
            c = dot(x, y)
            y = [yi - c * xi for xi, yi in zip(x, y)]
        norm = math.sqrt(dot(y, y))
        return (x, [yi / norm for yi in y]) if norm else None

    def rayleigh_ritz(x, y):
        hx, hy = shifted(x), shifted(y)
        t11, t12, t22 = dot(x, hx), 0.5 * (dot(x, hy) + dot(y, hx)), dot(y, hy)
        return (t11, t12, t22), minus(hx, t11, x, t12, y), minus(hy, t12, x,
                                                                 t22, y)

    levels = range(1, size + 1)
    basis = orthonormal(*solve([math.sin(i) for i in levels],
                               [math.cos(i) for i in levels]))
    for corrected in (False, True):
        if basis is None:
            return sigma, sigma, math.inf
        x, y = basis
        (t11, t12, t22), rx, ry = rayleigh_ritz(x, y)
        residual = math.sqrt(dot(rx, rx) + dot(ry, ry))
        if residual <= RITZ_TOL or corrected:
            break
        # (H - sigma)^-1 R less its part in span(x, y) is the error of each
        # column; the corrected columns come out negated, which leaves the
        # span alone
        ex, ey = solve(rx, ry)
        basis = orthonormal(minus(ex, 1 + dot(x, ex), x, dot(y, ex), y),
                            minus(ey, dot(x, ey), x, 1 + dot(y, ey), y))
    mid = 0.5 * (t11 + t22)
    half = math.hypot(0.5 * (t11 - t22), t12)
    return sigma + (mid - half), sigma + (mid + half), residual


def _confirm(record: CrossingRecord, n_max: int,
             refine) -> CrossingObservation:
    """Confirm one record, or raise the ValueError that names its failure:
    refine the record if it is wider than REFINE_WIDTH, count the levels of
    its truncation n in lambda +- DEGENERACY_TOL, solve for the pair there
    and count each of its levels at n + CONV_MARGIN."""
    lo, hi = record.root_interval
    if hi - lo > REFINE_WIDTH:
        record = refine(record)
    g = record.g
    target = record.lambda_
    delta = math.sqrt(float(record.d_value))
    eps = record.two_eps / 2.0
    # a level at lambda is a Fock state of lambda + g^2 photons displaced by
    # g: it reaches (sqrt(lambda + g^2) + g)^2 <= 2 (lambda + 2 g^2) photons,
    # and the slope 2.5 and 20 more levels hold the tail beyond that
    n = max(n_max, math.ceil(2.5 * (record.N + eps + g * g) + 20))
    k = _count_below_float(g, delta, eps, n, target - DEGENERACY_TOL)
    count = _count_below_float(g, delta, eps, n, target + DEGENERACY_TOL) - k
    if count != 2:
        raise ValueError(
            f"no degenerate pair at lambda={target}: the window lambda +- "
            f"{DEGENERACY_TOL:g} holds {count} eigenvalues, not 2, at "
            f"n_max={n}")
    low, high, residual = _pair_levels(g, delta, eps, n, target)
    if not residual <= CONV_TOL:
        raise ValueError(
            f"pair solve at lambda={target} left residual {residual:.3e} at "
            f"n_max={n}")
    for index, level in ((k, low), (k + 1, high)):
        if _count_below_float(g, delta, eps, n + CONV_MARGIN,
                              level - CONV_TOL) > index:
            raise ValueError(
                f"truncation n_max={n} too small at lambda={target}")
    err_low, err_high = abs(low - target), abs(high - target)
    gap = high - low
    if max(err_low, err_high, gap) > DEGENERACY_TOL:
        raise ValueError(
            f"no degenerate pair at lambda={target}: nearest eigenvalues miss "
            f"by ({err_low:.3e}, {err_high:.3e}) with gap {gap:.3e} at "
            f"n_max={n}")
    return CrossingObservation(g_star=g, lambda_star=0.5 * (low + high),
                               gap=gap, indices=(k, k + 1))


def confirm_crossings(records, n_max: int = DEFAULT_NMAX
                      ) -> list[CrossingObservation | ValueError]:
    """Check predicted exact crossings against the truncated spectrum.

    Each record pins lambda = N - g^2 + eps at g derived from the isolated
    root of the constraint polynomial; the truncated spectrum must hold
    exactly two eigenvalues within DEGENERACY_TOL of that target, and they
    must lie within DEGENERACY_TOL of each other. A record too wide for
    DEGENERACY_TOL is refined first. At
    n = max(n_max, ceil(2.5 (lambda + 2 g^2) + 20)) two counts at
    lambda +- DEGENERACY_TOL give the number of levels in the window and,
    when it is two, their indices k and k + 1; a window with any other
    number is a "miss". _pair_levels then gives the two levels, with a
    residual that must not exceed CONV_TOL; each level must move by less
    than CONV_TOL at n + CONV_MARGIN (one count each, by the rule of
    spectrum._converged), else the record fails with a "truncation"; a
    converged pair off the target or too far apart is a "miss". Every step
    is O(n) in Python floats, and the result does not depend on a BLAS.

    Returns, in record order, a CrossingObservation or the ValueError that
    names the record's failure.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # a command's records mostly share one polynomial, which the refiner
    # builds once
    refine = crossing_refiner(REFINE_WIDTH)
    results = []
    for record in records:
        try:
            results.append(_confirm(record, n_max, refine))
        except ValueError as exc:
            results.append(exc)
    return results
