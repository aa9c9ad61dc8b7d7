import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from aqrm import confirm, spectrum
from aqrm.cli import main
from aqrm.confirm import CrossingObservation, confirm_crossings
from aqrm.constraint import DEFAULT_PRECISION, CrossingRecord, find_crossings
from aqrm.gfunction import find_exceptional
from aqrm.spectrum import ModelParams, _converged, build_hamiltonian, sweep

PREC = Fraction(1, 10**12)


def dense_levels(params: ModelParams, n_max: int) -> np.ndarray:
    """Ascending eigenvalues of the truncation, by numpy's dense solve."""
    return np.linalg.eigvalsh(build_hamiltonian(params, n_max))


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
    ev = dense_levels(ModelParams(0.0, delta), 50)
    want = np.sort(np.concatenate([np.arange(51) + delta,
                                   np.arange(51) - delta]))
    assert np.max(np.abs(ev[:40] - want[:40])) < 1e-12


def test_zero_tunneling_spectrum():
    # Delta = 0: displaced oscillator, eigenvalues n - g^2, each twice
    g = 0.4
    ev = dense_levels(ModelParams(g, 0.0), 60)
    for n in range(6):
        pair = ev[2 * n: 2 * n + 2]
        assert np.max(np.abs(pair - (n - g * g))) < 1e-10


def test_self_convergence_of_reported_levels():
    params = ModelParams(0.6, 0.7, 0.3)
    n_max = 40
    ev = dense_levels(params, n_max)
    ev2 = dense_levels(params, 2 * n_max)
    count = 2 * (n_max + 1) // 3
    assert np.max(np.abs(ev[:count] - ev2[:count])) < 1e-9


def test_truncated_spectrum_convergence_flags():
    params = ModelParams(0.25, 0.5, 0.5)
    ev = dense_levels(params, 60)
    flags = _converged(params.g, params.delta, params.eps, 60, ev,
                       np.arange(len(ev)))
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
        ev = dense_levels(ModelParams(g, delta, eps), n_max)
        shifts = np.concatenate([exact, ev])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectrum._count_below(g, delta, eps, n_max, shifts)
        assert got.dtype.kind == "i"
        assert np.all((0 <= got) & (got <= len(ev)))
        # a shift on an eigenvalue may count it or not, nothing further off
        assert np.all(got >= np.searchsorted(ev, shifts - 1e-9, "left"))
        assert np.all(got <= np.searchsorted(ev, shifts + 1e-9, "right"))


def test_count_below_float_equals_one_lane_calls():
    # the float count of one shift must be that of a one-lane _count_below
    # call, bit for bit, on eigenvalues, between them, at and beyond
    # +-bound and at +-1e300, for truncations from 1 to 330, each with its
    # own g. At g = 0 the levels are n +- sqrt(eps^2 + Delta^2) = n +- 1,
    # and shifts on them make the pivots exactly singular
    delta, eps = 0.8, 0.6
    for g, n_max in ((0.0, 1), (0.45, 21), (1.3, 80), (0.8, 231), (2.1, 330)):
        ev = dense_levels(ModelParams(g, delta, eps), n_max)
        bound = n_max + abs(eps) + abs(delta) + 2 * math.sqrt(g * g * n_max) + 1
        shifts = np.concatenate([
            [-1.0, 0.0, 1.0, 2.0], ev[:4], 0.5 * (ev[1:4] + ev[:3]),
            [ev[-1], -1e300, 1e300, -bound, bound],
            [-2.0 * (n_max + 10), 2.0 * (n_max + 10)]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            lanes = spectrum._count_below(g, delta, eps, n_max, shifts)
            for shift, in_lanes in zip(shifts.tolist(), lanes.tolist()):
                one = spectrum._count_below(g, delta, eps, n_max,
                                            np.array([shift]))
                got = confirm._count_below_float(g, delta, eps, n_max, shift)
                assert type(got) is int
                assert got == int(one[0]) == in_lanes, (n_max, shift)
        # beyond -bound nothing is counted, beyond +bound everything
        assert lanes[-2] == lanes[-6] == lanes[-4] == 0
        assert lanes[-1] == lanes[-5] == lanes[-3] == 2 * (n_max + 1)
    # the shape sweep passes: a (couplings x 2(n_max+1)) table with a g per
    # row. The g = 0 rows shift onto the levels n +- 1, making the pivots
    # singular; the others onto their own eigenvalues and the gaps between
    # them, at a truncation past the 255 levels of one uint8 tally
    n_max = 300
    g_rows = np.array([0.0, 0.3, 0.0, 1.1, 2.4])
    width = 2 * (n_max + 1)
    table = np.empty((len(g_rows), width))
    for row, g in zip(table, g_rows):
        if g == 0.0:
            row[:] = np.concatenate([np.arange(n_max + 1) - 1.0,
                                     np.arange(n_max + 1) + 1.0])
        else:
            ev = dense_levels(ModelParams(g, delta, eps), n_max)
            row[:] = np.where(np.arange(width) % 2, ev,
                              0.5 * (ev + np.roll(ev, 1)))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lanes = spectrum._count_below(g_rows[:, None], delta, eps, n_max,
                                      table)
        assert lanes.shape == table.shape and lanes.dtype == np.intp
        for g, shifts, row in zip(g_rows.tolist(), table, lanes.tolist()):
            one_row = spectrum._count_below(g, delta, eps, n_max, shifts)
            assert one_row.tolist() == row
            for shift, in_lanes in zip(shifts.tolist(), row):
                got = confirm._count_below_float(g, delta, eps, n_max, shift)
                assert got == in_lanes, (g, shift)


def test_convergence_flags_match_dense_rule():
    # the rule as two dense solves: a level is converged when it moves by
    # less than CONV_TOL at n_max + CONV_MARGIN
    for g, delta, eps in seeded_params(12, 6):
        for n_max in (20, 40, 60):
            ev = np.linalg.eigvalsh(sigma_z_hamiltonian(g, delta, eps, n_max))
            ev_big = np.linalg.eigvalsh(sigma_z_hamiltonian(
                g, delta, eps, n_max + spectrum.CONV_MARGIN))
            want = np.abs(ev - ev_big[:len(ev)]) < spectrum.CONV_TOL
            got = _converged(g, delta, eps, n_max, ev, np.arange(len(ev)))
            assert np.array_equal(got, want), (g, delta, eps, n_max)


def test_parity_and_asymmetry_reflections():
    ev = dense_levels(ModelParams(0.45, 0.8, 0.0), 50)
    ev_flip = dense_levels(ModelParams(-0.45, 0.8, 0.0), 50)
    assert np.max(np.abs(ev - ev_flip)) < 1e-9
    ev_p = dense_levels(ModelParams(0.45, 0.8, 0.35), 50)
    ev_m = dense_levels(ModelParams(0.45, 0.8, -0.35), 50)
    assert np.max(np.abs(ev_p - ev_m)) < 1e-9


def test_sweep_reflection_eps_to_minus_eps():
    # H(eps) and H(-eps) are unitarily equivalent (sigma_z together with the
    # parity a -> -a), so both sweeps flag the same levels as converged, and
    # those agree to rounding
    grid = np.linspace(0.1, 1.6, 11)
    for eps in (0.37, 0.5, 1.5):
        plus = sweep(1.3, eps, grid, n_max=120)
        minus = sweep(1.3, -eps, grid, n_max=120)
        assert np.array_equal(plus.converged, minus.converged), eps
        both = plus.converged
        assert both.sum() > 2000, eps
        assert np.max(np.abs(plus.table - minus.table)[both]) <= 1e-12, eps


def test_confirm_judd_point():
    rec = find_crossings(1, 0, Fraction(1, 2), PREC)[0]
    (obs,) = confirm_crossings([rec])
    assert isinstance(obs, CrossingObservation)
    assert obs.gap < 1e-7
    assert obs.lambda_star == pytest.approx(0.875, abs=1e-7)
    assert obs.indices[1] == obs.indices[0] + 1


def test_confirm_asymmetric_crossings():
    records = find_crossings(2, 1, Fraction(1, 4), PREC)
    for rec, obs in zip(records, confirm_crossings(records)):
        assert obs.gap < 1e-7
        assert obs.lambda_star == pytest.approx(rec.lambda_, abs=1e-7)


def logged_truncations(monkeypatch) -> list[tuple]:
    """Log every dense solve as ("solve", n_max), every eigenvalue count, in
    numpy or in floats, as ("count", n_max), and every pair solve of
    confirm as ("pair", n_max)."""
    log = []
    count_below = spectrum._count_below
    count_below_float = confirm._count_below_float
    pair_levels = confirm._pair_levels
    eigvalsh = np.linalg.eigvalsh

    def logged_solve(h):
        log.append(("solve", len(h) // 2 - 1))
        return eigvalsh(h)

    def logged_count(g, delta, eps, n_max, shifts):
        log.append(("count", n_max))
        return count_below(g, delta, eps, n_max, shifts)

    def logged_count_float(g, delta, eps, n_max, shift):
        log.append(("count", n_max))
        return count_below_float(g, delta, eps, n_max, shift)

    def logged_pair(g, delta, eps, n_max, sigma):
        log.append(("pair", n_max))
        return pair_levels(g, delta, eps, n_max, sigma)

    monkeypatch.setattr(np.linalg, "eigvalsh", logged_solve)
    monkeypatch.setattr(spectrum, "_count_below", logged_count)
    monkeypatch.setattr(confirm, "_count_below_float", logged_count_float)
    monkeypatch.setattr(confirm, "_pair_levels", logged_pair)
    return log


def confirm_sequence(n: int, levels: int = 2) -> list[tuple]:
    """The log of one record confirmed at truncation n: two window counts
    and the pair solve there, then a count per level at n + CONV_MARGIN,
    stopping at the first level that fails."""
    return ([("count", n)] * 2 + [("pair", n)]
            + [("count", n + confirm.CONV_MARGIN)] * levels)


def window_miss(lam: float, count: int, n: int) -> str:
    return (f"no degenerate pair at lambda={lam}: the window lambda +- 1e-07 "
            f"holds {count} eigenvalues, not 2, at n_max={n}")


def test_confirm_solves_once_at_derived_truncation(monkeypatch):
    log = logged_truncations(monkeypatch)
    # n = ceil(2.5 (N + eps + g^2) + 20): g^2 = 8.70 gives 71 (a hit at 60
    # that moves at 80), g^2 = 9.18 gives 73 (a miss at 60); a larger n_max
    # is a floor
    for N, two_eps, n in ((10, 3, 71), (11, 2, 73)):
        rec = find_crossings(N, two_eps, Fraction(1, 2), PREC)[-1]
        for n_max, want in ((60, n), (200, 200)):
            log.clear()
            assert confirm_crossings([rec], n_max=n_max)[0].gap < 1e-7
            # two window counts and one pair solve at n, no dense solve,
            # then one count per level of the pair
            assert log == confirm_sequence(want)


def test_confirm_failure_names_its_cause(monkeypatch, capsys):
    rec = find_crossings(1, 0, Fraction(1, 2), PREC)[0]
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        confirm_crossings([rec], n_max=0)
    count_below_float = confirm._count_below_float

    def one_level_fell(g, delta, eps, n_max, shift):
        # one more level below each shift at n + CONV_MARGIN only
        fell = n_max > 60
        return count_below_float(g, delta, eps, n_max, shift) + fell

    monkeypatch.setattr(confirm, "_count_below_float", one_level_fell)
    (err,) = confirm_crossings([rec])
    assert isinstance(err, ValueError)
    assert str(err) == (
        f"truncation n_max=60 too small at lambda={rec.lambda_}")
    assert main(["crossings", "--N", "1", "--delta2", "1/2",
                 "--confirm"]) == 2
    assert capsys.readouterr().err == (
        f"confirmation failed: truncation n_max=60 too small at "
        f"lambda={rec.lambda_}\n")
    # a pair solve that leaves a residual above CONV_TOL is its own failure
    monkeypatch.setattr(confirm, "_count_below_float", count_below_float)
    pair_levels = confirm._pair_levels

    def unsettled(g, delta, eps, n_max, sigma):
        low, high, _ = pair_levels(g, delta, eps, n_max, sigma)
        return low, high, 2 * confirm.CONV_TOL

    monkeypatch.setattr(confirm, "_pair_levels", unsettled)
    (err,) = confirm_crossings([rec])
    assert str(err) == (f"pair solve at lambda={rec.lambda_} left residual "
                        f"2.000e-09 at n_max=60")


def _perturbed(rec: CrossingRecord) -> CrossingRecord:
    """The record with x scaled by (1.05)^2, so that g moves by 5%, and its
    width kept."""
    lo, hi = rec.root_interval
    factor = Fraction(441, 400)
    return CrossingRecord(N=rec.N, two_eps=rec.two_eps, d_value=rec.d_value,
                          root_interval=(lo * factor, lo * factor + hi - lo),
                          rep_pair=rec.rep_pair)


def test_confirm_rejects_perturbed_root(monkeypatch):
    log = logged_truncations(monkeypatch)
    fake = _perturbed(find_crossings(1, 0, Fraction(1, 2), PREC)[0])
    (err,) = confirm_crossings([fake])
    assert isinstance(err, ValueError)
    # no level lies in the window, found by its two counts alone
    assert str(err) == window_miss(fake.lambda_, 0, 60)
    assert log == [("count", 60), ("count", 60)]
    # the avoided crossing at the perturbed point is wide open
    g = fake.g
    ev = dense_levels(ModelParams(g, math.sqrt(0.5)), 60)
    target = 1 - g * g
    order = np.argsort(np.abs(ev - target))
    gap = abs(ev[order[0]] - ev[order[1]])
    assert gap > 1e-3


def test_confirm_names_a_single_level_in_the_window():
    # a G+ root at eps = 0 is a non-degenerate exceptional eigenvalue
    # N - g^2: one level in the window, and the record is a miss
    (root,) = find_exceptional(2, 1.5, (0.8, 1.6))
    x = Fraction(4 * root.g_root**2)
    rec = CrossingRecord(N=2, two_eps=0, d_value=Fraction(9, 4),
                         root_interval=(x, x), rep_pair=None)
    (err,) = confirm_crossings([rec])
    assert str(err) == window_miss(rec.lambda_, 1, 60)


def test_confirm_batch_matches_one_record_calls(monkeypatch):
    d = Fraction(7, 3)
    n30, n40 = find_crossings(30, 1, d, PREC), find_crossings(40, 1, d, PREC)
    small = find_crossings(3, 1, d, PREC) + find_crossings(12, 1, d, PREC)
    # derived truncations from 30 to 211, some shared within and across N;
    # at floor 60 every N <= 12 record but the last four is confirmed at
    # n = 60
    records = (n40[:4] + small[:1] + [_perturbed(small[1])] + small[2:]
               + n30[:6] + n30[-1:] + n40[10::10])
    forced = small[7]
    count_below_float = confirm._count_below_float
    floor = None

    def forced_level_fell(g, delta, eps, n_max, shift):
        # the forced record's lower level moves at n + CONV_MARGIN
        fell = g == forced.g and n_max == max(floor, 58) + confirm.CONV_MARGIN
        return count_below_float(g, delta, eps, n_max, shift) + fell

    monkeypatch.setattr(confirm, "_count_below_float", forced_level_fell)
    log = logged_truncations(monkeypatch)
    assert confirm_crossings([]) == [] and log == []
    for floor in (1, 60):
        log.clear()
        batch = confirm_crossings(records, n_max=floor)
        # per record: two window counts at its truncation n, then the pair
        # solve there and a count per level at n + CONV_MARGIN; the
        # perturbed record stops at its window, the forced one at its
        # first level
        expected, at = [], 0
        for rec in records:
            kind, n = log[at]
            assert kind == "count" and n >= floor
            if rec is records[5]:
                seq = [("count", n)] * 2
            else:
                seq = confirm_sequence(n, 1 if rec is forced else 2)
            expected += seq
            at += len(seq)
        assert log == expected
        assert sum(kind == "pair" for kind, _ in log) == len(records) - 1
        failures = []
        for rec, got in zip(records, batch):
            (want,) = confirm_crossings([rec], n_max=floor)
            assert type(got) is type(want)
            if isinstance(want, ValueError):
                assert str(got) == str(want)
                failures.append(str(got))
            else:
                # repr spells every float exactly
                assert repr(got) == repr(want)
        assert failures == [
            window_miss(records[5].lambda_, 0, max(floor, 33)),
            f"truncation n_max={max(floor, 58)} too small at "
            f"lambda={forced.lambda_}"]


def test_confirm_at_any_precision_equals_confirm_at_default_precision():
    # a record wider than DEFAULT_PRECISION is confirmed as the record that
    # find_crossings at DEFAULT_PRECISION gives inside it, so the
    # observations do not depend on the precision the records were isolated
    # at. Window k of d is (k (k + 2 eps), (k + 1) (k + 1 + 2 eps)), with
    # N - k roots; two d in every window for N <= 6, in the middle and top
    # one above, and in the lowest one at N = 12. Every root is confirmed,
    # at N = 5, 2 eps = -2, d = 19/3 too, whose second root fails its pair
    # solve on a record 1e-10 wide
    cases = [(N, two_eps, k) for N in range(1, 7) for two_eps in range(-2, 4)
             for k in range(max(0, -two_eps), N)]
    cases += [(N, two_eps, k) for N in (12, 20, 40)
              for two_eps in range(-2, 4)
              for k in sorted({max(0, -two_eps) if N == 12 else N // 2,
                               N // 2, N - 1})]
    roots = confirmed = 0
    for N, two_eps, k in cases:
        lo, hi = k * (k + two_eps), (k + 1) * (k + 1 + two_eps)
        for d in (lo + Fraction(hi - lo, 3), lo + Fraction(2 * (hi - lo), 3)):
            want = confirm_crossings(find_crossings(N, two_eps, d,
                                                    DEFAULT_PRECISION))
            assert len(want) == N - k, (N, two_eps, d)
            for precision in (Fraction(1, 2), Fraction(1, 1000),
                              Fraction(1, 10**6)):
                got = confirm_crossings(find_crossings(N, two_eps, d,
                                                       precision))
                assert got == want, (N, two_eps, d, precision)
            roots += len(want)
            confirmed += sum(isinstance(obs, CrossingObservation)
                             for obs in want)
    assert roots == 1164 and confirmed == roots


def test_confirm_isolates_each_polynomial_once(monkeypatch):
    # records of two polynomials, interleaved and wider than
    # DEFAULT_PRECISION: one confirm_crossings call isolates each polynomial
    # once at DEFAULT_PRECISION, and every record comes out as a call of its
    # own gives it; records at most DEFAULT_PRECISION wide isolate nothing
    recs = (find_crossings(12, 1, Fraction(7, 3), Fraction(1, 100))
            + find_crossings(9, 0, Fraction(5, 2), Fraction(1, 100)))
    recs = recs[::2] + recs[1::2]
    want = [confirm_crossings([rec])[0] for rec in recs]
    isolated = []
    real = confirm.find_crossings

    def counted(N, two_eps, d_value, precision):
        isolated.append((N, two_eps, d_value, precision))
        return real(N, two_eps, d_value, precision)

    monkeypatch.setattr(confirm, "find_crossings", counted)
    assert confirm_crossings(recs) == want
    assert sorted(isolated) == [(9, 0, Fraction(5, 2), DEFAULT_PRECISION),
                                (12, 1, Fraction(7, 3), DEFAULT_PRECISION)]
    isolated.clear()
    assert all(isinstance(obs, CrossingObservation) for obs in
               confirm_crossings(find_crossings(9, 0, Fraction(5, 2), PREC)))
    assert isolated == []


def test_confirm_rejects_a_wide_record_without_one_root():
    # a record wider than DEFAULT_PRECISION must hold exactly one of the
    # roots isolated at DEFAULT_PRECISION, and cut none of their intervals:
    # one that spans two roots, holds none, or ends inside a fine interval
    # fails, and the records around it are confirmed
    d = Fraction(1, 3)
    records = find_crossings(6, 0, d, Fraction(1, 100))
    fine = find_crossings(6, 0, d, DEFAULT_PRECISION)
    assert len(records) == len(fine) >= 2
    (lo, _), (_, hi) = records[0].root_interval, records[1].root_interval
    top = records[-1].root_interval[1]
    a, b = fine[1].root_interval
    bad = [dataclasses.replace(records[0], root_interval=interval)
           for interval in ((lo, hi), (top, top + 1), (lo, (a + b) / 2))]
    batch = confirm_crossings([records[0], *bad, records[1]])
    assert [str(err) for err in batch[1:4]] == [
        "interval does not isolate exactly one root"] * 3
    assert [batch[0], batch[4]] == confirm_crossings(fine[:2])


def test_confirm_matches_dense_oracle():
    # lambda_observed and gap against numpy's dense solve of the same
    # truncation n = max(60, ceil(2.5 (N + eps + g^2) + 20)), for N up to
    # 40, every 2 eps in -2..3 and three d; the dense pair is the two
    # levels the counts name
    worst = 0.0
    for N in (1, 2, 3, 5, 8, 13, 21, 40):
        for two_eps in range(-2, 4):
            for d in (Fraction(1, 3), Fraction(7, 3), Fraction(40)):
                records = find_crossings(N, two_eps, d, PREC)
                if N == 40:
                    records = records[::6]
                for rec, obs in zip(records, confirm_crossings(records)):
                    assert isinstance(obs, CrossingObservation), obs
                    eps = two_eps / 2
                    n = max(60, math.ceil(2.5 * (N + eps + rec.g**2) + 20))
                    ev = dense_levels(ModelParams(
                        rec.g, math.sqrt(float(d)), eps), n)
                    i, j = obs.indices
                    assert j == i + 1
                    assert np.argsort(np.abs(ev - rec.lambda_))[:2].tolist() \
                        in ([i, j], [j, i])
                    worst = max(worst,
                                abs(obs.lambda_star - 0.5 * (ev[i] + ev[j])),
                                abs(obs.gap - (ev[j] - ev[i])))
    assert worst < 1e-12


def test_pair_solve_steps_over_singular_pivots():
    # at g = 0 the Fock levels decouple into n +- sqrt(eps^2 + Delta^2) =
    # n +- 5/2, so sigma = 5/2 is a double level, of blocks 0 and 5, and
    # their pivots D_n = A_n - sigma are exactly singular. The solve must
    # take the near-singular step of _count_below_float there, not divide
    # by zero, and still find the pair
    delta, eps, sigma = 2.0, 1.5, 2.5
    for n in (0, 5):
        assert (eps - sigma + n) * (-eps - sigma + n) - delta * delta == 0.0
    for n_max in (5, 6, 60):
        assert [confirm._count_below_float(0.0, delta, eps, n_max, shift)
                for shift in (sigma - 1e-7, sigma + 1e-7)] == [5, 7]
        low, high, residual = confirm._pair_levels(0.0, delta, eps, n_max,
                                                   sigma)
        assert residual <= confirm.RITZ_TOL
        assert abs(low - sigma) <= 1e-14 and abs(high - sigma) <= 1e-14


def test_pair_solve_corrects_an_unpivoted_factorization():
    # at this root of N = 6, 2 eps = 3, d = 87/4 the leading block of
    # H - lambda up to Fock level 8 is close to singular (pivot determinant
    # 6.5e-3), and the unpivoted solve errs by about 1e-10 near that level:
    # one solve leaves a residual of 2.9e-10 and two plain iterations one
    # of 1.6e-10, the Newton correction one below 1e-13
    d = Fraction(87, 4)
    rec = find_crossings(6, 3, d, PREC)[2]
    delta = math.sqrt(float(d))
    low, high, residual = confirm._pair_levels(rec.g, delta, 1.5, 60,
                                               rec.lambda_)
    assert residual < 1e-13
    ev = dense_levels(ModelParams(rec.g, delta, 1.5), 60)
    i = int(np.searchsorted(ev, rec.lambda_ - 1e-7))
    assert abs(low - ev[i]) < 1e-12 and abs(high - ev[i + 1]) < 1e-12


def test_sweep_single_point_matches_direct():
    sw = sweep(0.5, 0.0, [0.3], n_max=40)
    params = ModelParams(0.3, 0.5, 0.0)
    ev = dense_levels(params, 40)
    assert np.array_equal(sw.table[0], ev)
    assert np.array_equal(sw.converged[0], _converged(
        params.g, params.delta, params.eps, 40, ev, np.arange(len(ev))))


@pytest.mark.parametrize("n_max, delta, eps, grid", [
    (1, 0.8, 0.3, [0.0, -0.7, 0.4, 1e-20, -0.0]),
    (60, 1.3, -0.37, [1.2, 0.6, 0.0, -0.6, -1.2]),
    (60, 0.0, 0.5, [-0.3, 0.0, 0.9]),
    (200, 0.45, 0.21, [-1.1]),
])
def test_sweep_rows_equal_fresh_solves(n_max, delta, eps, grid):
    # the sweep rewrites one matrix per g: a hop left over from an earlier g
    # would show as a row that differs from a solve on a fresh matrix
    sw = sweep(delta, eps, grid, n_max=n_max)
    assert sw.table.shape == (len(grid), 2 * (n_max + 1))
    for g, row in zip(grid, sw.table):
        assert row.tobytes() == dense_levels(ModelParams(g, delta, eps),
                                            n_max).tobytes()


def test_sweep_flags_match_per_point_flags(monkeypatch):
    log = logged_truncations(monkeypatch)
    grid = np.linspace(0.1, 1.6, 41)
    sw = sweep(1.3, 0.37, grid, n_max=30)
    # one solve per g and one count for the whole table
    assert log == [("solve", 30)] * 41 + [("count", 50)]
    for g, ev, flags in zip(grid, sw.table, sw.converged):
        assert np.array_equal(
            flags, _converged(g, 1.3, 0.37, 30, ev, np.arange(len(ev))))
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
    with pytest.raises(ValueError, match="g must be finite"):
        sweep(0.5, 0.1, [0.2, float("nan")], n_max=10)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        sweep(0.5, 0.1, [0.2], n_max=0)


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
