"""Top-level acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline and prints a single PASS line when it
holds; failures carry the offending report so a regression is diagnosable
from the pytest output alone.
"""
import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import sympy

from aqrm import confirm, constraint, gfunction, heun, sl2rep, spectrum
from aqrm.constraint import PLAIN, TILDE, ConstraintFamily
from aqrm.exactpoly import BivarPoly, poly_div_x

X, D = BivarPoly.x(), BivarPoly.d()
PREC = Fraction(1, 10**12)


def test_criterion_01_ladder_identity_exact_to_level_15():
    start = time.monotonic()
    for N in range(1, 16):
        report = constraint.verify_identity_half(N)
        assert report["ok"], report
        assert report["checked"] == N + 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"identity sweep took {elapsed:.2f}s"
    print(f"criterion 1: PASS (N=1..15 exact, {elapsed:.2f}s)")


def test_criterion_02_half_shift_division_exact_to_level_15():
    for N in range(1, 16):
        num = constraint.constraint_poly(
            ConstraintFamily(N + 1, 1, TILDE), N + 1)
        den = constraint.constraint_poly(ConstraintFamily(N, 1, PLAIN), N)
        quot, rem = poly_div_x(num, den)
        assert quot == (N + 1) * X + D
        assert rem.is_zero()
    print("criterion 2: PASS (quotient (N+1)x + d, remainder 0, N=1..15)")


def test_criterion_03_integer_quotient_conjecture_at_desk_scale():
    for ell in range(4):
        for N in range(1, 11):
            report = constraint.verify_conjecture(N, ell)
            evidence = {k: report[k] for k in
                        ("N", "ell", "remainder_zero", "integer_coeffs",
                         "all_positive")}
            assert report["ok"], f"conjecture evidence: {evidence}"
    print("criterion 3: PASS (ell 0..3, N 1..10: division, integrality, "
          "positivity)")


def test_criterion_04_root_counts_in_each_window():
    for N in range(1, 7):
        for two_eps in (0, 1, 2):
            eps = Fraction(two_eps, 2)
            for k in range(N + 1):
                lo = k * k + 2 * k * eps
                hi = (k + 1) ** 2 + 2 * (k + 1) * eps
                d = Fraction(lo + hi, 2)
                count = len(constraint.find_crossings(N, two_eps, d, PREC))
                assert count == N - k, (N, two_eps, k, count)
    print("criterion 4: PASS (root count N-k in every window, N<=6)")


def sympy_root_counter(p):
    """count(lo, hi): real roots of p in [lo, hi], as sympy's count_roots.

    The Sturm sequence comes from sympy.sturm, once per polynomial, and is
    evaluated by integer Horner; count_roots rebuilds it and evaluates it in
    sympy rationals on every call, about 0.4 s per interval at N=20.
    """
    t = sympy.Symbol("t")
    chain = []
    for q in sympy.sturm(sympy.Poly([int(c) for c in reversed(p.coeffs)], t)):
        cs = [sympy.Rational(c) for c in q.all_coeffs()]
        den = math.lcm(*(int(c.q) for c in cs))
        chain.append([int(c * den) for c in cs])

    def signs(x):
        out = []
        for cs in chain:  # highest degree first
            acc = 0
            for i, c in enumerate(cs):
                acc = acc * x.numerator + c * x.denominator**i
            out.append((acc > 0) - (acc < 0))
        return out

    def variations(s):
        s = [v for v in s if v]
        return sum(a != b for a, b in zip(s, s[1:]))

    def count(lo, hi):
        at_lo = signs(lo)
        return variations(at_lo) - variations(signs(hi)) + (at_lo[0] == 0)

    return count


def sympy_isolated_positive(p):
    """Positive-root isolating intervals of p from sympy's own isolation."""
    t = sympy.Symbol("t")
    out = []
    for (a, b), _ in sympy.Poly([int(c) for c in reversed(p.coeffs)],
                                t).intervals(eps=Fraction(1, 10**6)):
        a, b = Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))
        if b > 0:
            assert a > 0, (a, b)  # no sympy interval straddles 0
            out.append((a, b))
    return out


def test_root_counts_per_window_to_level_30():
    # every window at its midpoint for N <= 12, a seeded sample for
    # N = 13..30; sympy's Sturm chain is the oracle to N = 20, and sympy's
    # own isolation above, where the Sturm chain costs seconds per polynomial
    rng = random.Random(2020)
    cases = [(N, two_eps, k) for N in range(1, 13) for two_eps in (0, 1, 2)
             for k in range(N + 1)]
    cases += [(N, rng.choice((0, 1, 2)), rng.randint(0, N))
              for N in range(13, 31) for _ in range(2)]
    for N, two_eps, k in cases:
        eps = Fraction(two_eps, 2)
        d = Fraction(k * k + 2 * k * eps + (k + 1) ** 2 + 2 * (k + 1) * eps, 2)
        records = constraint.find_crossings(N, two_eps, d, PREC)
        assert len(records) == N - k, (N, two_eps, k, len(records))
        p = constraint.constraint_poly_at(ConstraintFamily(N, two_eps), N, d)
        intervals = [rec.root_interval for rec in records]
        assert all(hi - lo <= PREC for lo, hi in intervals)
        if N <= 20:
            count = sympy_root_counter(p)
            for lo, hi in intervals:
                assert count(lo, hi) == 1, (N, two_eps, k, (lo, hi))
            continue
        oracle = sympy_isolated_positive(p)
        assert len(oracle) == len(intervals), (N, two_eps, k)
        for lo, hi in intervals:
            met = [iv for iv in oracle if max(lo, iv[0]) <= min(hi, iv[1])]
            assert len(met) == 1, (N, two_eps, k, (lo, hi), met)
    print(f"root counts N-k: PASS ({len(cases)} windows, N<=30)")


def test_criterion_05_crossings_confirmed_and_discriminated():
    judd = constraint.find_crossings(1, 0, Fraction(1, 2), PREC)[0]
    (obs,) = confirm.confirm_crossings([judd], n_max=60)
    assert obs.gap < 1e-7
    assert abs(obs.lambda_star - 0.875) < 1e-7
    records = constraint.find_crossings(2, 1, Fraction(1, 4), PREC)
    assert len(records) == 2
    for rec, obs in zip(records, confirm.confirm_crossings(records)):
        assert obs.gap < 1e-7
        assert abs(obs.lambda_star - (2 - rec.g**2 + 0.5)) < 1e-7
    for rec in (judd, *records):
        lo, hi = rec.root_interval
        scale = Fraction(441, 400)  # shifts g by 5 percent
        fake = dataclasses.replace(rec, root_interval=(lo * scale,
                                                       hi * scale))
        g = fake.g
        lam = fake.N - g * g + fake.two_eps / 2
        params = spectrum.ModelParams(g, math.sqrt(float(fake.d_value)),
                                      fake.two_eps / 2)
        ev = np.linalg.eigvalsh(spectrum.build_hamiltonian(params, 60))
        order = np.argsort(np.abs(ev - lam))
        gap = abs(ev[order[0]] - ev[order[1]])
        assert gap > 1e-3, (rec.N, gap)
        (err,) = confirm.confirm_crossings([fake])
        assert isinstance(err, ValueError), (rec.N, err)
    print("criterion 5: PASS (gaps < 1e-7 at roots, > 1e-3 off-root)")


def test_every_root_confirms_to_level_40():
    # window k of d is (k (k + 2 eps), (k + 1) (k + 1 + 2 eps)), with N - k
    # roots; each window below holds positive d. N = 30 and 40 in the lowest
    # and the middle window at the default floor, then every window for
    # N <= 6 with the floor at 1, so the derived truncation acts alone
    cases = [(N, two_eps, k, confirm.DEFAULT_NMAX) for N in (30, 40)
             for two_eps in (-2, 0, 1, 3) for k in (max(0, -two_eps), N // 2)]
    cases += [(N, two_eps, k, 1) for N in range(1, 7)
              for two_eps in range(-2, 4) for k in range(max(0, -two_eps), N)]
    roots = 0
    for N, two_eps, k, n_max in cases:
        d = Fraction(k * (k + two_eps) + (k + 1) * (k + 1 + two_eps), 2)
        records = constraint.find_crossings(N, two_eps, d, PREC)
        assert len(records) == N - k, (N, two_eps, k)
        for rec, obs in zip(records,
                            confirm.confirm_crossings(records, n_max=n_max)):
            assert isinstance(obs, confirm.CrossingObservation), obs
            assert obs.gap < 1e-7, (N, two_eps, k, rec.root_interval)
        roots += len(records)
    print(f"every root confirms: PASS ({roots} roots, N<=40)")


def test_criterion_06_block_equals_tridiagonal_all_families():
    rng = random.Random(2024)
    for N in range(1, 9):
        for variant in (PLAIN, TILDE):
            for two_eps in (-1, 0, 1, 2):
                g2 = Fraction(rng.randint(1, 12), rng.randint(1, 8))
                d = Fraction(rng.randint(1, 12), rng.randint(1, 8))
                block = sl2rep.k_block_minus_lambda(N, two_eps, variant,
                                                    g2, d)
                spec = constraint.tridiag_matrix(
                    ConstraintFamily(N, two_eps, variant), N)
                x = 4 * g2
                for r in range(N + 1):
                    for c in range(N + 1):
                        if c == r:
                            want = spec.diag[r].evaluate(x, d)
                        elif c == r + 1:
                            want = spec.sup[r].evaluate(x, d)
                        elif c == r - 1:
                            want = spec.sub[r - 1].evaluate(x, d)
                        else:
                            want = Fraction(0)
                        assert block[r][c] == want, (N, variant, two_eps, r, c)
                # independent of TridiagSpec: exact determinant against the
                # recurrence-built P_N, det = (-1)^N (-d) P_N(4 g^2, d)
                want_det = (-1) ** N * -d * constraint.constraint_poly(
                    ConstraintFamily(N, two_eps, variant), N).evaluate(x, d)
                assert sympy.Matrix(block).det() == sympy.Rational(
                    want_det.numerator, want_det.denominator), (N, variant,
                                                                two_eps)
    print("criterion 6: PASS (exact F-block match, both variants, N<=8)")


def test_criterion_07_mixed_commutator_twenty_random_tuples():
    rng = random.Random(777)
    for _ in range(20):
        j = rng.choice((1, 2))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        params = sl2rep.RepParams(j, a, -6, 6)  # width 13
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        g2 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        eps = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        report = sl2rep.commutator_check(params, lam, g2, d, eps)
        assert report["ok"] and report["max_discrepancy"] == 0, report
    print("criterion 7: PASS (commutator identity exact, 20 tuples)")


def test_criterion_08_heun_reduction_hundred_random_tuples():
    rng = random.Random(888)
    for _ in range(100):
        lam = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        g2 = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        d = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        eps = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        for which in (1, 2):
            report = heun.reduction_check(
                heun.heun_direct(which, lam, g2, d, eps))
            assert report["ok"] and report["max_discrepancy"] == 0, report
    print("criterion 8: PASS (operator correspondence exact, 100 tuples)")


def test_criterion_09_g_function_recurrence_reflection_and_roots(
        assert_k_exact):
    # every double-precision K_n within 1e-12 of the exact rational recurrence
    for N, g, delta in ((1, 0.3, 0.4), (1, 1.2, 2.0), (2, 1.36, 1.5),
                        (3, 0.7, 2.5)):
        assert_k_exact(N, g, delta, N + 300)
    for g in np.linspace(0.05, 1.85, 10):
        for delta in np.linspace(0.3, 2.8, 10):
            assert gfunction.g_minus(1, float(g), float(delta)).value == \
                gfunction.g_plus(1, float(g), -float(delta)).value
    roots = gfunction.find_exceptional(1, 2.0, (0.01, 1.5))
    for r in roots:
        ev = np.linalg.eigvalsh(spectrum.build_hamiltonian(
            spectrum.ModelParams(r.g_root, 2.0), 60))
        dists = np.sort(np.abs(ev - (1 - r.g_root**2)))
        assert dists[0] < 1e-6 and dists[1] > 1e-4
    # non-vacuous companion: this range does contain an exceptional point
    roots = gfunction.find_exceptional(2, 1.5, (0.8, 1.6))
    assert len(roots) == 1
    ev = np.linalg.eigvalsh(spectrum.build_hamiltonian(
        spectrum.ModelParams(roots[0].g_root, 1.5), 60))
    dists = np.sort(np.abs(ev - roots[0].lambda_))
    assert dists[0] < 1e-6 and dists[1] > 1e-4
    print("criterion 9: PASS (K_n within 1e-12 of exact, exact reflection, "
          "roots confirmed non-degenerate)")


def test_criterion_10_sl2_suite_exact_and_fast():
    start = time.monotonic()
    rng = random.Random(1010)
    for _ in range(6):
        j = rng.choice((1, 2))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        params = sl2rep.RepParams(j, a, -5, 5)
        assert sl2rep.commutation_relations_check(params)["ok"]
        report = sl2rep.casimir_scalar_check(params)
        assert report["ok"] and report["scalar"] == a * (a - 2)
    # finite-module scalars n^2 - 1 on genuinely invariant blocks
    for j, a, window, dim in ((1, Fraction(-2), (-1, 1), 3),
                              (1, Fraction(-4), (-2, 2), 5),
                              (2, Fraction(-3), (-2, 1), 4)):
        params = sl2rep.RepParams(j, a, *window)
        omega = sl2rep.casimir(params)
        assert sl2rep.compare(omega, sl2rep.identity_op(
            params, dim * dim - 1))["ok"]
        assert a * (a - 2) == dim * dim - 1
    for j in (1, 2):
        for m in (1, 2, 3):
            assert sl2rep.invariant_subspace_check(j, m)["ok"]
    for a in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(-3, 2),
              Fraction(7, 3)):
        assert sl2rep.intertwiner_check(a)["ok"]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"sl2 suite took {elapsed:.2f}s"
    print(f"criterion 10: PASS (exact algebra suite, {elapsed:.2f}s)")
