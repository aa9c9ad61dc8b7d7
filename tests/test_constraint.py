import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from aqrm.constraint import (
    PLAIN,
    TILDE,
    ConstraintFamily,
    CrossingRecord,
    constraint_poly,
    constraint_poly_at,
    find_crossings,
    rep_pair_labels,
    tridiag_matrix,
    verify_conjecture,
    verify_identity_half,
)
from aqrm.cli import main
from aqrm import constraint
from aqrm.exactpoly import BivarPoly
from aqrm.spectrum import kernel_vector

X, D = BivarPoly.x(), BivarPoly.d()
PREC = Fraction(1, 10**12)


def test_family_validation():
    with pytest.raises(ValueError):
        ConstraintFamily(0, 0)
    with pytest.raises(ValueError):
        ConstraintFamily(2, 0, "other")
    assert ConstraintFamily(3, 1).eps == Fraction(1, 2)


def test_levels_zero_and_one():
    for two_eps in range(-2, 3):
        for variant in (PLAIN, TILDE):
            fam = ConstraintFamily(3, two_eps, variant)
            assert constraint_poly(fam, 0) == BivarPoly.const(1)
            sign = 1 if variant == PLAIN else -1
            assert constraint_poly(fam, 1) == X + D - 1 - sign * two_eps


def test_level_two_frozen_value():
    p = constraint_poly(ConstraintFamily(2, 1), 2)
    want = (2 * X * X + 3 * X * D + D * D - 12 * X - 8 * D
            + BivarPoly.const(12))
    assert p == want
    assert p.to_text() == "2*x^2 + 3*x*d - 12*x + d^2 - 8*d + 12"


def test_tilde_is_plain_with_negated_asymmetry():
    for N in range(1, 13):
        for two_eps in range(-4, 5):
            plain = ConstraintFamily(N, -two_eps, PLAIN)
            tilde = ConstraintFamily(N, two_eps, TILDE)
            for k in range(N + 1):
                assert constraint_poly(tilde, k) == constraint_poly(plain, k)


def test_degree_and_leading_coefficient():
    for N in (1, 4, 9):
        for two_eps in (-1, 0, 2):
            fam = ConstraintFamily(N, two_eps)
            for k in range(N + 1):
                p = constraint_poly(fam, k)
                assert p.deg_x() == k
                assert p.leading_x_coeff() == {0: Fraction(math.factorial(k))}


def test_tridiag_examples():
    spec = tridiag_matrix(ConstraintFamily(4, 1), 0)
    assert spec.size == 1 and spec.diag[0] == -D
    spec = tridiag_matrix(ConstraintFamily(4, 1, TILDE), 1)
    assert spec.sup[0] == BivarPoly.zero()
    # independent 3x3 determinant expansion
    spec = tridiag_matrix(ConstraintFamily(2, 0), 2)
    det = (spec.diag[0] * (spec.diag[1] * spec.diag[2]
                           - spec.sup[1] * spec.sub[1])
           - spec.sup[0] * spec.sub[0] * spec.diag[2])
    assert det == -D * constraint_poly(ConstraintFamily(2, 0), 2)


def tridiag_dets(spec):
    """Leading principal minors of a tridiagonal matrix, by the continuant
    recurrence on the generic BivarPoly ring operations."""
    det_prev, det = BivarPoly.const(1), spec.diag[0]
    yield det
    for r in range(1, spec.size):
        det, det_prev = (spec.diag[r] * det
                         - spec.sup[r - 1] * spec.sub[r - 1] * det_prev), det
        yield det


def test_continuant_matches_polynomial():
    # an oracle for the one-pass recurrence step, which writes term maps
    # itself and bypasses the ring operations the continuant uses; the
    # matrix for k is the leading block of the one for N (its entries depend
    # on the row alone), so one continuant gives the determinant for every k
    for N in range(1, 15):
        for two_eps in range(-3, 4):
            for variant in (PLAIN, TILDE):
                fam = ConstraintFamily(N, two_eps, variant)
                full = tridiag_matrix(fam, N)
                spec = tridiag_matrix(fam, N - 1)
                assert (spec.diag, spec.sup, spec.sub) == (
                    full.diag[:N], full.sup[:N - 1], full.sub[:N - 1])
                for k, det in enumerate(tridiag_dets(full)):
                    p = constraint_poly(fam, k)
                    assert all(type(c) is Fraction and c
                               for c in p.terms.values()), (fam, k)
                    assert det == (-1) ** k * -D * p, (fam, k)


def test_constraint_poly_at_is_scaled_specialization():
    rng = random.Random(577)
    for _ in range(40):
        N = rng.randint(1, 9)
        k = rng.randint(0, N)
        fam = ConstraintFamily(N, rng.randint(-3, 3), rng.choice((PLAIN, TILDE)))
        d = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        got = constraint_poly_at(fam, k, d)
        assert got == constraint_poly(fam, k).specialize(d) * d.denominator**k
        assert all(c.denominator == 1 for c in got.coeffs)
        assert all(type(c) is int for c in got.coeffs)  # not integral Fractions


def test_find_crossings_examples():
    recs = find_crossings(1, 0, Fraction(1, 2), PREC)
    assert len(recs) == 1
    rec = recs[0]
    lo, hi = rec.root_interval
    assert lo <= Fraction(1, 2) <= hi
    assert rec.g == pytest.approx(math.sqrt(0.5) / 2, abs=1e-12)
    assert rec.lambda_ == pytest.approx(1 - rec.g**2, abs=1e-12)
    assert find_crossings(1, 0, Fraction(2), PREC) == []
    biased = find_crossings(2, 1, Fraction(1, 4), PREC)
    assert len(biased) == 2
    assert biased[0].lambda_ == pytest.approx(2 - biased[0].g ** 2 + 0.5)
    with pytest.raises(ValueError):
        find_crossings(1, 0, Fraction(-1), PREC)


def test_rep_pair_labels():
    assert rep_pair_labels(1, 0) == ("F_2", "F_1")
    assert rep_pair_labels(2, 1) == ("F_3", "F_3")
    assert rep_pair_labels(2, 3) == ("F_3", "F_5")
    # by the reflection, level N + ell at -ell takes the labels of level N
    # at +ell; a level N + ell <= ell has none, and no crossing
    assert rep_pair_labels(2, -1) == ("F_2", "F_2")
    assert rep_pair_labels(5, -3) == ("F_3", "F_5")
    for ell in range(1, 9):
        for N in range(1, ell + 1):
            assert rep_pair_labels(N, -ell) is None
            p = constraint_poly(ConstraintFamily(N, -ell), N)
            assert min(p.terms.values()) >= 0, (N, ell)


def test_crossing_record_json_schema(capsys):
    # the crossings row is built in cli from the record's fields
    rec = find_crossings(2, 1, Fraction(1, 4), PREC)[0]
    assert main(["crossings", "--N", "2", "--two-eps", "1",
                 "--delta2", "1/4"]) == 0
    blob = json.loads(capsys.readouterr().out.split("\n")[0])
    assert set(blob) == {"N", "two_eps", "d", "x_lo", "x_hi", "g", "lambda",
                         "modules"}
    assert blob["N"] == 2 and blob["two_eps"] == 1 and blob["d"] == "1/4"
    assert Fraction(blob["x_lo"]) <= rec.x_root <= Fraction(blob["x_hi"])
    assert blob["modules"] == ["F_3", "F_3"]
    assert blob["lambda"] == pytest.approx(2 - blob["g"] ** 2 + 0.5)


def test_refine_crossing_shrinks_interval():
    # isolation bisects one tree at every precision: each coarse interval
    # holds exactly one of the fine ones, with the same labels
    coarse = find_crossings(2, 1, Fraction(1, 4), Fraction(1, 4))
    fine = find_crossings(2, 1, Fraction(1, 4), Fraction(1, 10**15))
    assert len(fine) == len(coarse) == 2
    for rec, sharp in zip(coarse, fine):
        (lo, hi), (a, b) = rec.root_interval, sharp.root_interval
        assert lo <= a < b <= hi and b - a <= Fraction(1, 10**15)
        assert sharp.rep_pair == rec.rep_pair
    assert coarse[0].root_interval[1] <= fine[1].root_interval[0]


def residual_ratio(fam, d_value, x_value, vec):
    spec = tridiag_matrix(fam, fam.N)
    m = np.array(spec.at(Fraction(x_value), Fraction(d_value)), dtype=float)
    return (np.linalg.norm(m @ np.asarray(vec))
            / np.linalg.norm(m))


def test_kernel_vector_judd_point():
    fam = ConstraintFamily(1, 0)
    v = kernel_vector(fam, Fraction(1, 2), 0.5)
    assert len(v) == 2 and all(abs(c) > 1e-8 for c in v)
    assert residual_ratio(fam, Fraction(1, 2), 0.5, v) < 1e-10
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_kernel_vector_rejects_non_root():
    with pytest.raises(ValueError):
        kernel_vector(ConstraintFamily(1, 0), Fraction(1, 2), 0.9)


def test_kernel_vector_refined_root_and_two_sided_agreement():
    d = Fraction(1, 4)
    for rec in find_crossings(2, 1, d, Fraction(1, 10**12)):
        x = float(rec.x_root)
        fam = ConstraintFamily(2, 1)
        assert residual_ratio(fam, d, x, kernel_vector(fam, d, x)) < 1e-8


def backward_kernel(m):
    """Kernel vector by the three-term recurrence run up from the last row."""
    n = len(m) - 1
    v = np.zeros(n + 1)
    v[n] = 1.0
    for r in range(n, 0, -1):
        upper = m[r, r + 1] * v[r + 1] if r < n else 0.0
        if m[r, r - 1] == 0.0:
            # plain row 1 has a zero sub-diagonal entry; row 0 fixes v[0]
            v[0] = -m[0, 1] * v[1] / m[0, 0]
            break
        v[r - 1] = -(m[r, r] * v[r] + upper) / m[r, r - 1]
    return v / np.linalg.norm(v)


def test_kernel_vector_every_refined_root_to_level_18():
    width = Fraction(1, 10**14)
    for N in (10, 14, 18):
        for two_eps in (0, 1):
            for d in (Fraction(1), Fraction(7, 3)):
                for variant in (PLAIN, TILDE):
                    fam = ConstraintFamily(N, two_eps, variant)
                    plain_eps = two_eps if variant == PLAIN else -two_eps
                    for rec in find_crossings(N, plain_eps, d, width):
                        x = float(rec.x_root)
                        v = np.asarray(kernel_vector(fam, d, x))
                        assert residual_ratio(fam, d, x, v) < 1e-10
                        m = np.array(tridiag_matrix(fam, N).at(
                            Fraction(x), d), dtype=float)
                        w = backward_kernel(m)
                        assert min(np.max(np.abs(v - w)),
                                   np.max(np.abs(v + w))) < 1e-8, (
                            N, two_eps, d, variant, x)


def test_kernel_vector_tilde_variant():
    # tilde level-1 polynomial is x + d - 1 + 2*eps; at eps = -1/2 it is
    # x + d - 2, with root x = 3/2 when d = 1/2
    fam = ConstraintFamily(1, -1, TILDE)
    d = Fraction(1, 2)
    v = kernel_vector(fam, d, 1.5)
    assert residual_ratio(fam, d, 1.5, v) < 1e-10


def test_verify_identity_small_and_large():
    for N in (0, 1, 2, 12):
        report = verify_identity_half(N)
        assert report["ok"] and report["checked"] == N + 1
        assert report["failures"] == []


def test_verify_identity_fault_injection():
    # a fault at any k is reported at that k alone: the plain and tilde
    # sequences are walked in step, with no term skipped or repeated
    for N in (1, 5, 12):
        for k in range(N + 1):
            report = verify_identity_half(N, fault_k=k)
            assert not report["ok"], (N, k)
            assert report["failures"] == [k], (N, k)
            assert report["checked"] == N + 1


def test_ladder_form_of_the_half_identity():
    # verify_identity_half checks tilde P_{k+1} = P_{k+1} + (k+1)(k+2) P_k;
    # the paper's form, rebuilt here with the generic ring operations
    for N in range(1, 17):
        plain = ConstraintFamily(N, 1, PLAIN)
        tilde = ConstraintFamily(N + 1, 1, TILDE)
        prev = BivarPoly.zero()
        for k in range(N + 1):
            p_k = constraint_poly(plain, k)
            ladder = (((k + 1) * X + D) * p_k
                      - (k * (k + 1) * (N - k)) * X * prev)
            assert constraint_poly(tilde, k + 1) == ladder, (N, k)
            prev = p_k


def test_verify_identity_catches_a_wrong_tilde_back_coefficient(monkeypatch):
    # the tilde walk of verify_identity_half runs at level N+1, back
    # coefficient k(k-1)(N-k+2); with (N-k+1) in its place every tilde term
    # from k = 2 on is wrong, and each must be reported
    step = constraint._step_coeffs

    def wrong_tilde(level, two_eps_eff, k):
        c, e = step(level, two_eps_eff, k)
        if two_eps_eff == -1:
            e = k * (k - 1) * (level - k)
        return c, e

    monkeypatch.setattr(constraint, "_step_coeffs", wrong_tilde)
    for N in (1, 2, 5, 12):
        report = verify_identity_half(N)
        assert not report["ok"], N
        assert report["failures"] == list(range(1, N + 1)), N


def test_verify_conjecture_ell_examples():
    report = verify_conjecture(3, 0)
    assert report["ok"] and report["quotient"] == BivarPoly.const(1)
    for N in range(1, 7):
        report = verify_conjecture(N, 1)
        assert report["ok"]
        assert report["quotient"] == (N + 1) * X + D
    report = verify_conjecture(2, 2)
    assert report["remainder_zero"] and report["integer_coeffs"]
    assert report["all_positive"] and report["ok"]
    assert len(report["positivity"]) == 12
    assert all(xv > 0 for (xv, _), _ in report["positivity"])


def test_verify_conjecture_validation():
    with pytest.raises(ValueError):
        verify_conjecture(0, 1)
    with pytest.raises(ValueError):
        verify_conjecture(2, -1)


def test_reflection_eps_to_minus_eps_in_the_constraint_layer():
    # the plain P_{N+ell} at 2 eps = -ell has the positive roots of P_N at
    # 2 eps = +ell, with the same eigenvalue N - g^2 + ell/2; lambda comes
    # from a different N, so it may differ in the last bits. Four d per
    # (N, ell) up to N = 12, one above
    rng = random.Random(1414)
    roots = 0
    for N in range(1, 21):
        for ell in range(1, 5):
            for _ in range(4 if N <= 12 else 1):
                d = Fraction(rng.randint(1, 240), rng.randint(1, 7))
                want = find_crossings(N, ell, d, PREC)
                got = find_crossings(N + ell, -ell, d, PREC)
                assert ([r.root_interval for r in got]
                        == [r.root_interval for r in want]), (N, ell, d)
                for a, b in zip(got, want):
                    assert abs(a.lambda_ - b.lambda_) <= 1e-14, (N, ell, d)
                    assert a.rep_pair == b.rep_pair, (N, ell, d)
                roots += len(want)
            # level ell at -ell has no crossing
            assert find_crossings(ell, -ell, Fraction(N, 3), PREC) == []
    assert roots > 900


def test_root_count_window_sampling():
    # one window per k, midpoint of (k^2 + 2k*eps, (k+1)^2 + 2(k+1)*eps)
    rng = random.Random(11)
    for _ in range(6):
        N = rng.randint(1, 5)
        two_eps = rng.choice((0, 1, 2))
        k = rng.randint(0, N)
        eps = Fraction(two_eps, 2)
        lo = k * k + 2 * k * eps
        hi = (k + 1) ** 2 + 2 * (k + 1) * eps
        d = Fraction(lo + hi, 2)
        assert len(find_crossings(N, two_eps, d, PREC)) == N - k
