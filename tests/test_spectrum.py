import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from aqrm import spectrum
from aqrm.cli import main
from aqrm.constraint import CrossingRecord, find_crossings
from aqrm.spectrum import (
    CrossingObservation,
    ModelParams,
    build_hamiltonian,
    confirm_crossing,
    convergence_flags,
    eigenvalues,
    sweep,
)

PREC = Fraction(1, 10**12)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=float("nan"), delta=1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(ModelParams(0.1, 0.1), 0)


def test_hamiltonian_shape_and_symmetry():
    h = build_hamiltonian(ModelParams(0.3, 0.7, 0.2), 20)
    assert h.shape == (42, 42)
    assert np.allclose(h, h.T)


def test_zero_coupling_spectrum():
    # g = 0, eps = 0: blocks decouple into n +- Delta
    delta = 0.7
    ev = eigenvalues(ModelParams(0.0, delta), 50)
    want = np.sort(np.concatenate([np.arange(51) + delta,
                                   np.arange(51) - delta]))
    assert np.max(np.abs(ev[:40] - want[:40])) < 1e-12


def test_zero_tunneling_spectrum():
    # Delta = 0: displaced oscillator, eigenvalues n - g^2, each twice
    g = 0.4
    ev = eigenvalues(ModelParams(g, 0.0), 60)
    for n in range(6):
        pair = ev[2 * n: 2 * n + 2]
        assert np.max(np.abs(pair - (n - g * g))) < 1e-10


def test_self_convergence_of_reported_levels():
    params = ModelParams(0.6, 0.7, 0.3)
    n_max = 40
    ev = eigenvalues(params, n_max)
    ev2 = eigenvalues(params, 2 * n_max)
    count = 2 * (n_max + 1) // 3
    assert np.max(np.abs(ev[:count] - ev2[:count])) < 1e-9


def test_truncated_spectrum_convergence_flags():
    params = ModelParams(0.25, 0.5, 0.5)
    ev = eigenvalues(params, 60)
    flags = convergence_flags(params, 60, ev)
    assert len(ev) == len(flags) == 122
    assert np.all(np.diff(ev) >= -1e-12)
    count = 2 * 61 // 3
    assert flags[:count].all()
    assert not flags[-1]


def sigma_z_hamiltonian(g, delta, eps, n_max):
    """a^dag a + Delta sigma_z + sigma_x (g (a + a^dag) + eps) by Kronecker
    products in the sigma_z basis: shares no code with build_hamiltonian."""
    n = np.arange(n_max + 1, dtype=float)
    x = np.diag(np.sqrt(n[1:]), 1)
    x += x.T
    one = np.eye(n_max + 1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    return (np.kron(np.diag(n), np.eye(2)) + delta * np.kron(one, sz)
            + np.kron(g * x + eps * one, sx))


def seeded_params(seed, draws):
    """(g, Delta, eps) from g in [0, 3], Delta in [0, 3], eps in [-2, 2],
    with g = 0, Delta = 0 and eps = 0 among them."""
    rng = np.random.default_rng(seed)
    cases = [(0.0, 1.1, 0.4), (0.8, 0.0, -0.6), (1.3, 0.9, 0.0)]
    cases += [(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(-2, 2))
              for _ in range(draws)]
    return cases


def test_count_below_matches_dense_spectrum():
    for g, delta, eps in seeded_params(11, 12):
        for n_max in (5, 30, 90):
            ev = np.linalg.eigvalsh(sigma_z_hamiltonian(g, delta, eps, n_max))
            # midpoints of gaps wide enough that rounding cannot move them
            wide = np.diff(ev) > 1e-6
            shifts = np.concatenate([0.5 * (ev[1:] + ev[:-1])[wide],
                                     [ev[0] - 1.0, ev[-1] + 1.0, -1e300, 1e300]])
            got = spectrum._count_below(g, delta, eps, n_max, shifts)
            assert np.array_equal(got, np.searchsorted(ev, shifts)), \
                (g, delta, eps, n_max)


def test_count_below_on_exact_eigenvalues_of_decoupled_spectra():
    # g = 0 decouples the Fock levels into n +- sqrt(eps^2 + Delta^2), and
    # Delta = 0 the two oscillators into n - g^2 +- eps: shifts on these
    # values make pivot blocks exactly singular, which must neither warn
    # nor turn into NaN comparisons
    n_max = 30
    k = np.arange(n_max + 1, dtype=float)
    cases = [(0.0, 0.0, 0.0, k), (0.0, 0.7, 0.0, k + 0.7),
             (0.0, 0.6, 0.8, np.concatenate([k + 1.0, k - 1.0])),
             (0.4, 0.0, 0.0, k - 0.16),
             (0.5, 0.0, 0.3, np.concatenate([k - 0.25 + 0.3, k - 0.25 - 0.3]))]
    for g, delta, eps, exact in cases:
        ev = eigenvalues(ModelParams(g, delta, eps), n_max)
        shifts = np.concatenate([exact, ev])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectrum._count_below(g, delta, eps, n_max, shifts)
        assert got.dtype.kind == "i"
        assert np.all((0 <= got) & (got <= len(ev)))
        # a shift on an eigenvalue may count it or not, nothing further off
        assert np.all(got >= np.searchsorted(ev, shifts - 1e-9, "left"))
        assert np.all(got <= np.searchsorted(ev, shifts + 1e-9, "right"))


def test_convergence_flags_match_dense_rule():
    # the rule as two dense solves: a level is converged when it moves by
    # less than CONV_TOL at n_max + CONV_MARGIN
    for g, delta, eps in seeded_params(12, 6):
        for n_max in (20, 40, 60):
            ev = np.linalg.eigvalsh(sigma_z_hamiltonian(g, delta, eps, n_max))
            ev_big = np.linalg.eigvalsh(sigma_z_hamiltonian(
                g, delta, eps, n_max + spectrum.CONV_MARGIN))
            want = np.abs(ev - ev_big[:len(ev)]) < spectrum.CONV_TOL
            got = convergence_flags(ModelParams(g, delta, eps), n_max, ev)
            assert np.array_equal(got, want), (g, delta, eps, n_max)


def test_parity_and_asymmetry_reflections():
    ev = eigenvalues(ModelParams(0.45, 0.8, 0.0), 50)
    assert np.max(np.abs(ev - eigenvalues(ModelParams(-0.45, 0.8, 0.0), 50))) \
        < 1e-9
    ev_p = eigenvalues(ModelParams(0.45, 0.8, 0.35), 50)
    ev_m = eigenvalues(ModelParams(0.45, 0.8, -0.35), 50)
    assert np.max(np.abs(ev_p - ev_m)) < 1e-9


def test_confirm_judd_point():
    rec = find_crossings(1, 0, Fraction(1, 2), PREC)[0]
    obs = confirm_crossing(rec)
    assert isinstance(obs, CrossingObservation)
    assert obs.gap < 1e-7
    assert obs.lambda_star == pytest.approx(0.875, abs=1e-7)
    assert obs.indices[1] == obs.indices[0] + 1


def test_confirm_asymmetric_crossings():
    for rec in find_crossings(2, 1, Fraction(1, 4), PREC):
        obs = confirm_crossing(rec)
        assert obs.gap < 1e-7
        assert obs.lambda_star == pytest.approx(rec.lambda_, abs=1e-7)


def logged_truncations(monkeypatch) -> list[tuple[str, int]]:
    """Make spectrum log every dense solve as ("solve", n_max) and every
    eigenvalue count as ("count", n_max)."""
    log = []
    count_below = spectrum._count_below

    def logged_solve(params, n_max):
        log.append(("solve", n_max))
        return eigenvalues(params, n_max)

    def logged_count(g, delta, eps, n_max, shifts):
        log.append(("count", n_max))
        return count_below(g, delta, eps, n_max, shifts)

    monkeypatch.setattr(spectrum, "eigenvalues", logged_solve)
    monkeypatch.setattr(spectrum, "_count_below", logged_count)
    return log


def test_confirm_escalates_in_margin_steps(monkeypatch):
    log = logged_truncations(monkeypatch)
    # g^2 = 8.70: the pair hits at n_max 60 but moves at 80, and is
    # converged at 80 (checked at 100)
    rec = find_crossings(10, 3, Fraction(1, 2), PREC)[-1]
    assert confirm_crossing(rec).gap < 1e-7
    assert log == [("solve", 60), ("count", 80), ("solve", 80), ("count", 100)]
    # g^2 = 9.18: the pair misses at 60, which needs no convergence check
    log.clear()
    rec = find_crossings(11, 2, Fraction(1, 2), PREC)[-1]
    assert confirm_crossing(rec).gap < 1e-7
    assert log == [("solve", 60), ("solve", 80), ("count", 100)]


def test_confirm_rejects_perturbed_root(monkeypatch):
    log = logged_truncations(monkeypatch)
    rec = find_crossings(1, 0, Fraction(1, 2), PREC)[0]
    lo, hi = rec.root_interval
    # shift x by (1.05)^2 so g moves by 5%
    factor = Fraction(441, 400)
    fake = CrossingRecord(N=rec.N, two_eps=rec.two_eps, d_value=rec.d_value,
                          root_interval=(lo * factor, hi * factor),
                          rep_pair=rec.rep_pair)
    with pytest.raises(ValueError):
        confirm_crossing(fake)
    # a miss goes straight to the next truncation, up to the cap
    assert log == [("solve", n) for n in (60, 80, 100, 120)]
    # the avoided crossing at the perturbed point is wide open
    g = fake.g
    ev = eigenvalues(ModelParams(g, math.sqrt(0.5)), 60)
    target = 1 - g * g
    order = np.argsort(np.abs(ev - target))
    gap = abs(ev[order[0]] - ev[order[1]])
    assert gap > 1e-3


def test_sweep_single_point_matches_direct():
    sw = sweep(0.5, 0.0, [0.3], n_max=40)
    params = ModelParams(0.3, 0.5, 0.0)
    ev = eigenvalues(params, 40)
    assert np.array_equal(sw.table[0], ev)
    assert np.array_equal(sw.converged[0], convergence_flags(params, 40, ev))


def test_sweep_flags_match_per_point_flags(monkeypatch):
    log = logged_truncations(monkeypatch)
    grid = np.linspace(0.1, 1.6, 41)
    sw = sweep(1.3, 0.37, grid, n_max=30)
    # one solve per g and one count for the whole table
    assert log == [("solve", 30)] * 41 + [("count", 50)]
    for g, ev, flags in zip(grid, sw.table, sw.converged):
        assert np.array_equal(
            flags, convergence_flags(ModelParams(g, 1.3, 0.37), 30, ev))
    assert sw.converged[0, 0] and not sw.converged[-1, -1]


def test_sweep_csv_format(capsys):
    assert main(["sweep", "--delta", "0.5", "--g-min", "0.1", "--g-max", "0.2",
                 "--steps", "2", "--n-max", "12", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "g,index,eigenvalue,converged"
    assert len(lines) == 1 + 2 * 26
    g, idx, ev, flag = lines[1].split(",")
    assert float(g) == 0.1 and idx == "0"
    assert float(ev) == sweep(0.5, 0.0, [0.1, 0.2], n_max=12).table[0, 0]
    assert flag in ("True", "False")


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(0.5, 0.0, [], n_max=12)


def test_sweep_avoided_crossings_at_generic_asymmetry():
    # eps = 0.25 admits no constraint roots; adjacent levels keep a
    # visible gap along the whole grid
    grid = np.linspace(0.05, 1.0, 20)
    sw = sweep(0.5, 0.25, grid, n_max=40)
    gaps = np.diff(sw.table[:, :12], axis=1)
    assert gaps.min() > 1e-4
    assert sw.crossings == ()


def test_sweep_detects_near_degeneracy_at_judd_point():
    rec = find_crossings(1, 0, Fraction(1, 2), PREC)[0]
    sw = sweep(math.sqrt(0.5), 0.0, [rec.g], n_max=60)
    assert any(ob.gap < 1e-7 for ob in sw.crossings)
