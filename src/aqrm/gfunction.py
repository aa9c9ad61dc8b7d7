"""Series coefficients and spectral functions for non-degenerate exceptional
eigenvalues of the symmetric model (eps = 0).

At lambda = N - g^2 the local Frobenius solution around the singular point
x = 0 has coefficients K_n obeying a three-term recurrence (K_N = 0,
K_{N+1} = 1). The two local solutions are compared at the midpoint x = 1/2
(the z = 0 patch point, inside both disks of convergence), which yields the
transcendental functions G+ and G-:

    G+-(g, Delta) = -+2(N+1)/Delta
                    + sum_{n>N} K_n (1 +- Delta/(n-N)) (1/2)^(n-N-1).

A zero g of G+ (or G-) at which the level-N constraint polynomial does not
also vanish marks a NON-degenerate eigenvalue lambda = N - g^2; every root
reported here is cross-checked against brute-force diagonalization in the
spectrum module. The series weight (1/2)^(n-N-1) is the patch-point power:
the K_n are normalized for the x-variable series, and evaluating that series
at x = 1/2 is what makes the reported zeros land on true eigenvalues.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .constraint import ConstraintFamily, constraint_poly_at
from .exactpoly import UniPoly

#: evaluation point of the x-variable series: x = 1/2, i.e. z = 0
PATCH_X = 0.5

#: hard cap on series length before giving up
N_STOP_MAX = 5000


def _k_terms(N: int, g: float, delta: float):
    """Yield (n, K_n) for n = N+1, N+2, ... by the forward recurrence
    (n+1) K_{n+1} = (4g^2 + n - N + Delta^2/(N - n)) K_n - 4g^2 K_{n-1}
    from K_N = 0 and K_{N+1} = 1."""
    g2x4 = 4.0 * g * g
    k_prev, k_n = 0.0, 1.0
    n = N + 1
    while True:
        yield n, k_n
        k_prev, k_n = k_n, ((g2x4 + n - N + delta * delta / (N - n)) * k_n
                            - g2x4 * k_prev) / (n + 1)
        n += 1


def _validate_series_args(N: int, g: float, delta: float) -> None:
    """Reject a level, coupling or tunneling no series here is defined for."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (math.isfinite(g) and math.isfinite(delta)):
        raise ValueError("g and delta must be finite")
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    if g < 0.0:
        raise ValueError("g must be nonnegative")


@dataclass(frozen=True)
class GValue:
    """A G-function evaluation with truncation diagnostics."""

    value: float
    n_stop: int
    tail_bound: float
    converged: bool


def _g_sum(N: int, g: float, delta: float, tol: float, sign: int,
           terms) -> GValue | RuntimeError:
    """G+ (sign=+1) or G- (sign=-1) summed over the (n, K_n) of terms, or
    the RuntimeError of a series that does not settle within N_STOP_MAX
    terms."""
    total = -sign * 2.0 * (N + 1) / delta
    sign_delta = sign * delta
    comp = 0.0  # compensated-summation carry
    weight = 1.0  # (1/2)^(n-N-1) at n = N+1
    small_streak = 0
    for n, k_n in terms:
        term = k_n * (1.0 + sign_delta / (n - N)) * weight
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # the |total| floor lets evaluation terminate at zeros of G itself;
        # the conditional is max(|total|, tol), NaN included, without the call
        size = abs(total)
        if abs(term) < tol * (tol if tol > size else size):
            small_streak += 1
            if small_streak >= 3 and n >= N + 25:
                break
        else:
            small_streak = 0
        if n - N >= N_STOP_MAX:
            return RuntimeError(
                f"series did not converge within {N_STOP_MAX} terms "
                f"(g={g} too large for double-precision truncation)")
        weight *= PATCH_X
    tail_bound = abs(term) * 10.0
    return GValue(value=total, n_stop=n, tail_bound=tail_bound,
                  converged=tail_bound < 1e-3 * abs(total))


def _g_series(N: int, g: float, delta: float, tol: float,
              signs) -> list[GValue | RuntimeError]:
    """G+ (sign +1) and G- (sign -1) for each of signs, in order, from one
    run of _k_terms.

    Each sign keeps its own compensated sum, small-term streak, n_stop and
    tail bound, so its value is that of a series run for it alone, bit for
    bit. A sign whose series does not settle gets its RuntimeError in place
    of a GValue.
    """
    _validate_series_args(N, g, delta)
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    # each sign takes its iterator off the list, so the K_n a finished sign
    # will not read are not kept for it
    streams = list(itertools.tee(_k_terms(N, g, delta), len(signs)))
    return [_g_sum(N, g, delta, tol, sign, streams.pop(0)) for sign in signs]


def _checked(values: list[GValue | RuntimeError]) -> list[GValue]:
    """values, or the first RuntimeError among them raised."""
    for value in values:
        if isinstance(value, RuntimeError):
            raise value
    return values


def g_plus(N: int, g: float, delta: float, tol: float = 1e-12) -> GValue:
    """G+ at (g, Delta); zeros give non-degenerate eigenvalues N - g^2."""
    return _checked(_g_series(N, g, delta, tol, (+1,)))[0]


def g_minus(N: int, g: float, delta: float, tol: float = 1e-12) -> GValue:
    """G- at (g, Delta); equals G+ at (g, -Delta)."""
    return _checked(_g_series(N, g, delta, tol, (-1,)))[0]


def g_pair(N: int, g: float, delta: float,
           tol: float = 1e-12) -> tuple[GValue, GValue]:
    """(G+, G-) at (g, Delta) from one K recurrence: each equals g_plus or
    g_minus bit for bit, and a series that does not settle raises as they
    do, G+ first."""
    plus, minus = _checked(_g_series(N, g, delta, tol, (+1, -1)))
    return plus, minus


# -- root location --------------------------------------------------------------

#: scaled constraint-polynomial magnitude below which a root is suspect of
#: being degenerate (the non-degeneracy statement requires the constraint
#: polynomial to be nonzero there)
DEGENERATE_SUSPECT_TOL = 1e-8


@dataclass(frozen=True)
class ExceptionalRoot:
    """A confirmed sign-change root of G+ or G-."""

    N: int
    delta: float
    g_root: float
    lambda_: float
    parity: str  # "plus" or "minus"
    residual: float


def _scaled_constraint_magnitude(p: UniPoly, g: float) -> float:
    """|p(4g^2)| divided by the positive majorant sum |c_i| x^i."""
    x = 4 * Fraction(g) ** 2
    value = abs(p(x))
    scale = sum(abs(c) * x**i for i, c in enumerate(p.coeffs))
    return float(value / scale)


def find_exceptional(N: int, delta: float, g_range: tuple[float, float],
                     tol: float = 1e-10) -> list[ExceptionalRoot]:
    """Locate zeros of G+ and G- in g over g_range by grid + bisection.

    Roots where the level-N constraint polynomial also nearly vanishes are
    excluded as degenerate suspects. Each returned root carries
    lambda = N - g^2 and the parity of the vanishing function.
    """
    g_lo, g_hi = g_range
    if not all(map(math.isfinite, (delta, g_lo, g_hi, tol))):
        raise ValueError("delta, tol and the g range must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0 < g_lo < g_hi:
        raise ValueError("need 0 < g_lo < g_hi")
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = [g_lo + (g_hi - g_lo) * i / 199 for i in range(200)]
    p_n = constraint_poly_at(ConstraintFamily(N, 0), N, Fraction(delta) ** 2)
    # one series pass per coupling, at g_plus's default tol, serves both
    # parities; a parity's grid failure is raised only when its turn comes,
    # as if each grid were walked on its own, plus before minus
    pairs = [_g_series(N, g, delta, 1e-12, (+1, -1)) for g in grid]
    roots: list[ExceptionalRoot] = []
    for column, (parity, func) in enumerate((("plus", g_plus),
                                             ("minus", g_minus))):
        values = [gv.value for gv in _checked([p[column] for p in pairs])]
        for i in range(199):
            a, b = grid[i], grid[i + 1]
            fa, fb = values[i], values[i + 1]
            if not (math.isfinite(fa) and math.isfinite(fb)) or fa * fb > 0:
                continue
            root, res = _bisect(lambda g: func(N, g, delta).value,
                                a, b, fa, tol)
            if _scaled_constraint_magnitude(p_n, root) < DEGENERATE_SUSPECT_TOL:
                continue  # degenerate suspect: the constraint polynomial vanishes too
            roots.append(ExceptionalRoot(N=N, delta=delta, g_root=root,
                                         lambda_=N - root * root,
                                         parity=parity, residual=res))
    roots.sort(key=lambda r: r.g_root)
    return roots


def _bisect(func, lo: float, hi: float, f_lo: float,
            tol: float) -> tuple[float, float]:
    mid, f_mid = lo, f_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if abs(f_mid) < tol or hi - lo < 1e-15:
            break
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return mid, abs(f_mid)
