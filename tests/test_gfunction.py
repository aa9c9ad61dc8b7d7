import math
import re
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from aqrm import gfunction, sl2rep, spectrum
from aqrm.constraint import ConstraintFamily, constraint_poly
from aqrm.gfunction import (
    ExceptionalRoot,
    _k_terms,
    _scaled_constraint_magnitude,
    find_exceptional,
    g_minus,
    g_pair,
    g_plus,
)


def direct_series_sum(N: int, g: float, delta: float, terms: int,
                      sign: int = +1) -> float:
    """Plain-summation oracle for the G-series, no stopping logic."""
    K = [0.0, 1.0]
    for n in range(N + 1, N + terms):
        K.append(((4*g*g + n - N + delta*delta/(N - n)) * K[-1]
                  - 4*g*g*K[-2]) / (n + 1))
    total = -sign * 2.0 * (N + 1) / delta
    for i, n in enumerate(range(N + 1, N + terms + 1)):
        total += K[i + 1] * (1.0 + sign * delta / (n - N)) * 0.5 ** (n - N - 1)
    return total


def test_k_series_boundary_values():
    # K_{N+1} = 1, and K_{N+2} is the first step of the recurrence from K_N = 0
    for N, g, delta in ((1, 0.3, 0.4), (2, 1.1, 1.5), (5, 0.0, 2.0)):
        (n1, k1), (n2, k2) = islice(_k_terms(N, g, delta), 2)
        assert (n1, k1) == (N + 1, 1.0)
        assert n2 == N + 2
        assert k2 == pytest.approx((4*g*g + 1 - delta*delta) / (N + 2),
                                   rel=1e-15)


def test_k_series_hand_computed_at_zero_coupling():
    # at g = 0 the two-term recurrence collapses to one term:
    # (n+1) K_{n+1} = (n - N + Delta^2/(N - n)) K_n
    N, delta = 1, 0.4
    d2 = delta * delta
    k3 = (1.0 - d2) / 3.0
    k4 = (2.0 - d2 / 2.0) * k3 / 4.0
    k5 = (3.0 - d2 / 3.0) * k4 / 5.0
    ks = dict(islice(_k_terms(N, 0.0, delta), 4))
    assert ks[3] == pytest.approx(k3, rel=1e-15)
    assert ks[4] == pytest.approx(k4, rel=1e-15)
    assert ks[5] == pytest.approx(k5, rel=1e-15)


def test_recurrence_residuals_small(assert_k_exact):
    for N, g, delta in ((1, 0.3, 0.4), (2, 1.36, 1.5), (3, 0.9, 2.2)):
        assert_k_exact(N, g, delta, N + 200)


def test_g_plus_converges_and_matches_two_depths():
    gv = g_plus(1, 0.3, 0.4)
    assert gv.converged
    assert gv.tail_bound < 1e-6
    shallow = direct_series_sum(1, 0.3, 0.4, 60)
    deep = direct_series_sum(1, 0.3, 0.4, 120)
    assert abs(shallow - deep) < 1e-8
    assert gv.value == pytest.approx(deep, abs=1e-8)


def test_g_plus_zero_coupling_matches_direct_sum():
    for N, delta in ((1, 0.7), (2, 1.3), (3, 2.1)):
        gv = g_plus(N, 0.0, delta)
        assert gv.value == pytest.approx(direct_series_sum(N, 0.0, delta, 300),
                                         rel=1e-10)


def test_g_series_validation():
    with pytest.raises(ValueError):
        g_plus(1, 0.3, 0.0)
    with pytest.raises(ValueError):
        g_plus(1, -0.3, 0.4)
    with pytest.raises(ValueError):
        g_plus(1, 0.3, 0.4, tol=0.0)
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be >= 1"):
            g_plus(N, 0.5, 1.0)
        with pytest.raises(ValueError, match="N must be >= 1"):
            g_minus(N, 0.5, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_g_series_rejects_nonfinite_input(bad):
    for func in (g_plus, g_minus):
        with pytest.raises(ValueError, match="finite"):
            func(1, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            func(1, 0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            func(1, 0.5, 1.0, tol=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_find_exceptional_rejects_nonfinite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        find_exceptional(1, bad, (0.1, 1.0))
    with pytest.raises(ValueError, match="finite"):
        find_exceptional(1, 1.0, (0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        find_exceptional(1, 1.0, (bad, 1.0))
    with pytest.raises(ValueError, match="finite"):
        find_exceptional(1, 1.0, (0.1, 1.0), tol=bad)


def test_reflection_identity_bitwise():
    for N in (1, 2):
        for g in np.linspace(0.05, 1.6, 10):
            for delta in (0.5, 1.0, 1.7, 2.5):
                assert g_minus(N, g, delta).value == g_plus(N, g, -delta).value


def test_pair_equals_one_parity_runs():
    # one K recurrence for both parities changes neither: every field of
    # each GValue equals that of its one-parity run. The last two points are
    # roots of G+ and of G-, where that parity's |total| is small and the
    # other parity stops 12 and 14 terms earlier
    rng = np.random.default_rng(23)
    points = [(int(rng.integers(1, 5)), float(rng.uniform(0, 3)),
               float(rng.uniform(0.2, 3))) for _ in range(300)]
    points += [(2, 1.3633023465398568, 1.5), (1, 1.7788301337248262, 2.5)]
    for N, g, delta in points:
        for tol in (1e-12, 1e-6):
            pair = g_pair(N, g, delta, tol)
            one = (g_plus(N, g, delta, tol), g_minus(N, g, delta, tol))
            for got, want in zip(pair, one):
                assert (got.value, got.n_stop, got.tail_bound,
                        got.converged) == (want.value, want.n_stop,
                                           want.tail_bound, want.converged)
    plus, minus = g_pair(2, 1.3633023465398568, 1.5)
    assert plus.n_stop - minus.n_stop == 12
    plus, minus = g_pair(1, 1.7788301337248262, 2.5)
    assert minus.n_stop - plus.n_stop == 14


def test_pair_raises_as_one_parity_runs():
    with pytest.raises(ValueError, match="N must be >= 1"):
        g_pair(0, 0.5, 1.0)
    with pytest.raises(ValueError, match="finite"):
        g_pair(1, 0.5, 1.0, tol=math.nan)
    with pytest.raises(RuntimeError, match=r"\(g=15\.0 "):
        g_pair(1, 15.0, 1.0)


def test_scan_failure_names_first_plus_grid_coupling():
    # a scan walks the plus grid, then the minus grid: its error names the
    # first plus coupling that fails, as when each parity ran on its own
    g_lo, g_hi = 0.1, 15.0
    grid = [g_lo + (g_hi - g_lo) * i / 199 for i in range(200)]
    first = None
    for g in grid:
        try:
            g_plus(1, g, 1.0)
        except RuntimeError:
            first = g
            break
    assert first is not None
    with pytest.raises(RuntimeError, match=re.escape(f"(g={first} ")):
        find_exceptional(1, 1.0, (g_lo, g_hi))


def test_scan_failure_order_when_minus_fails_first(monkeypatch):
    # the minus grid failing at a smaller coupling than the plus grid still
    # leaves the error to the plus grid
    grid = [0.1 + 2.0 * i / 199 for i in range(200)]
    real = gfunction._g_sum

    def failing(N, g, delta, tol, sign, terms):
        if g >= (grid[120] if sign > 0 else grid[30]):
            return RuntimeError(f"sign {sign} at g={g}")
        return real(N, g, delta, tol, sign, terms)

    monkeypatch.setattr(gfunction, "_g_sum", failing)
    with pytest.raises(RuntimeError, match=re.escape(f"sign 1 at g={grid[120]}")):
        find_exceptional(2, 1.5, (0.1, 2.1))


def test_no_common_zero_on_sample_grid():
    for N in (1, 2):
        for delta in (0.5, 1.5, 2.5):
            for g in np.linspace(0.1, 1.8, 35):
                gp = abs(g_plus(N, float(g), delta).value)
                gm = abs(g_minus(N, float(g), delta).value)
                assert not (gp < 1e-8 and gm < 1e-8)


def test_find_exceptional_empty_range():
    assert find_exceptional(1, 2.0, (0.01, 1.5)) == []


def test_find_exceptional_plus_root_confirmed():
    roots = find_exceptional(2, 1.5, (0.8, 1.6))
    assert len(roots) == 1
    r = roots[0]
    assert isinstance(r, ExceptionalRoot)
    assert r.parity == "plus"
    assert r.g_root == pytest.approx(1.36330234, abs=1e-6)
    assert r.lambda_ == pytest.approx(2 - r.g_root**2, abs=1e-14)
    assert r.residual < 1e-10
    ev = np.linalg.eigvalsh(spectrum.build_hamiltonian(
        spectrum.ModelParams(r.g_root, 1.5), 60))
    dists = np.sort(np.abs(ev - r.lambda_))
    assert dists[0] < 1e-6 and dists[1] > 1e-4


def test_find_exceptional_minus_roots():
    roots = find_exceptional(1, 2.5, (0.5, 2.0))
    assert [r.parity for r in roots] == ["minus", "minus"]
    for r in roots:
        # minus roots are plus roots of the Delta-negated function
        assert abs(g_plus(1, r.g_root, -2.5).value) < 1e-8
        ev = np.linalg.eigvalsh(spectrum.build_hamiltonian(
            spectrum.ModelParams(r.g_root, 2.5), 60))
        dists = np.sort(np.abs(ev - r.lambda_))
        assert dists[0] < 1e-6 and dists[1] > 1e-4


def test_find_exceptional_sorted_and_validated():
    roots = find_exceptional(1, 2.5, (0.5, 2.0))
    assert [r.g_root for r in roots] == sorted(r.g_root for r in roots)
    with pytest.raises(ValueError):
        find_exceptional(1, 2.5, (0.0, 1.0))
    with pytest.raises(ValueError):
        find_exceptional(1, -1.0, (0.1, 1.0))


def test_degenerate_suspect_scale():
    # the scaled constraint magnitude vanishes at a Judd point and is O(1)
    # away from it
    judd_g = math.sqrt(0.5) / 2  # N=1 root of x + d - 1 at d = 1/2
    p = constraint_poly(ConstraintFamily(1, 0), 1).specialize(
        Fraction(math.sqrt(0.5)) ** 2)
    near = _scaled_constraint_magnitude(p, judd_g)
    far = _scaled_constraint_magnitude(p, 1.0)
    assert near < 1e-12
    assert far > 1e-2


def test_k_coefficients_are_an_operator_eigenvector():
    # the series coefficients assemble into the infinite eigenvector of the
    # representation operator at lambda = N - g^2, sitting on top of the
    # finite block: the seed entry closes from below exactly and every row
    # satisfies the eigenvalue equation to rounding error
    N, m = 2, 1
    g, delta = Fraction(1, 2), Fraction(3, 4)
    lam = N - g * g
    kp, a = sl2rep.reduction_kparams(1, lam, g * g, delta * delta, Fraction(0))
    assert a == -N
    M = 30
    params = sl2rep.RepParams(1, a, m - 3, m + M + 3)
    K = sl2rep.assemble_K(params, kp)
    assert K.entry(m - 1, m) == 0
    lam_a = float(kp.lambda_a(a))
    ks = dict(islice(_k_terms(N, float(g), float(delta)), M + 5))
    nu = {m: (N + 1) / float(delta)}
    for k in range(1, M + 3):
        nu[m + k] = -float(delta) * ks[N + k] / k
    for n in range(m, m + M - 2):
        row = sum(float(K.entry(n, c)) * nu.get(c, 0.0)
                  for c in (n - 1, n, n + 1))
        assert abs(row - lam_a * nu[n]) <= 1e-12 * max(1.0, abs(nu[n]))
