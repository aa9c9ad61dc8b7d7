import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
import sympy

from aqrm.constraint import (
    PLAIN,
    TILDE,
    ConstraintFamily,
    constraint_poly,
    find_crossings,
    tridiag_matrix,
)
from aqrm import sl2rep
from aqrm.exactpoly import UniPoly
from aqrm.spectrum import kernel_vector
from aqrm.sl2rep import (
    GENERATORS,
    KParams,
    RepOperator,
    RepParams,
    _closure_ok,
    assemble_K,
    casimir,
    casimir_scalar_check,
    commutation_relations_check,
    commutator_check,
    compare,
    eigenproblem_window,
    identity_op,
    intertwiner_check,
    invariant_subspace_check,
    k_block_minus_lambda,
    reduction_kparams,
    rep_generator,
)


def random_label(rng: random.Random) -> tuple[int, Fraction]:
    return rng.choice((1, 2)), Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def test_rep_params_validation():
    with pytest.raises(ValueError):
        RepParams(3, Fraction(0), -2, 2)
    with pytest.raises(ValueError):
        RepParams(1, Fraction(0), 2, -2)


def test_generator_examples():
    params = RepParams(1, Fraction(0), -2, 2)
    H = rep_generator(params, "H")
    for n in range(-2, 3):
        assert H.entry(n, n) == 2 * n
    params = RepParams(2, Fraction(1), 0, 1)
    E = rep_generator(params, "E")
    assert E.entry(1, 0) == Fraction(1)
    for m in (1, 2, 3):
        params = RepParams(1, Fraction(-2 * m), -m - 1, m + 1)
        assert rep_generator(params, "E").entry(m + 1, m) == 0


def test_commutation_relations_randomized():
    rng = random.Random(60)
    for _ in range(8):
        j, a = random_label(rng)
        report = commutation_relations_check(RepParams(j, a, -5, 5))
        assert report["ok"], report


def test_casimir_scalar_randomized():
    rng = random.Random(61)
    for _ in range(8):
        j, a = random_label(rng)
        report = casimir_scalar_check(RepParams(j, a, -5, 5))
        assert report["ok"], report
        assert report["scalar"] == a * (a - 2)


def test_casimir_on_finite_blocks():
    # F_3 sits inside (j=1, a=-2), so the Casimir acts on it by the
    # finite-module scalar 8 = 3^2 - 1, which it takes at every weight.
    params = RepParams(1, Fraction(-2), -1, 1)
    assert compare(casimir(params), identity_op(params, 8))["ok"]
    # F_4 inside (j=2, a=-3): scalar 15 = 4^2 - 1 = a(a-2)
    params = RepParams(2, Fraction(-3), -2, 1)
    assert compare(casimir(params), identity_op(params, 15))["ok"]


def test_assemble_k_definition_collapse():
    params = RepParams(1, Fraction(2, 7), -4, 4)
    kp = KParams(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    H = rep_generator(params, "H")
    E = rep_generator(params, "E")
    F = rep_generator(params, "F")
    want = (H @ F).scale(Fraction(1, 2)) - E @ F
    assert compare(assemble_K(params, kp), want)["ok"]


def test_k_interior_entries_even_family():
    # at lambda + g^2 = 2m, eps = 0, the action on the odd block is
    # K e_n = (m+n)(m-n) e_{n-1} + {diag} e_n + 4g^2 (m-n) e_{n+1}
    m, g2, d = 3, Fraction(2, 5), Fraction(1, 3)
    lam = 2 * m - g2
    kp, a = reduction_kparams(1, lam, g2, d, Fraction(0))
    assert a == -2 * m
    params = RepParams(1, a, -m - 4, m + 4)
    K = assemble_K(params, kp)
    for n in range(params.n_min + 1, params.n_max):
        assert K.entry(n - 1, n) == (m + n) * (m - n)
        assert K.entry(n + 1, n) == 4 * g2 * (m - n)


def test_mixed_commutator_half_eps():
    # at eps = 1/2 the right side is 2(H+F)(F+4g^2) - 2(lambda+g^2-1/2)F
    params = RepParams(1, Fraction(1, 4), -7, 7)
    lam, g2, d = Fraction(1, 3), Fraction(2, 7), Fraction(5, 4)
    report = commutator_check(params, lam, g2, d, Fraction(1, 2))
    assert report["ok"] and report["max_discrepancy"] == 0
    kp1, _ = reduction_kparams(1, lam, g2, d, Fraction(1, 2))
    kp2, _ = reduction_kparams(2, lam, g2, d, Fraction(1, 2))
    K, Kt = assemble_K(params, kp1), assemble_K(params, kp2)
    H = rep_generator(params, "H")
    F = rep_generator(params, "F")
    rhs = ((H + F) @ (F + identity_op(params, 4 * g2))).scale(2) \
        - F.scale(2 * (lam + g2 - Fraction(1, 2)))
    report = compare(K @ Kt - Kt @ K, rhs)
    assert report["ok"]


def test_mixed_commutator_vanishing_coefficient_and_random():
    params = RepParams(2, Fraction(3, 5), -7, 7)
    report = commutator_check(params, Fraction(7, 3), Fraction(1, 6),
                              Fraction(2), Fraction(-3, 2))
    assert report["ok"] and report["max_discrepancy"] == 0
    params = RepParams(1, Fraction(0), -6, 6)
    report = commutator_check(params, Fraction(3, 7), Fraction(2, 5),
                              Fraction(1, 3), Fraction(0))
    assert report["ok"]


def test_identities_hold_on_any_window():
    # the identities are equalities of coefficient polynomials in the weight,
    # so a one-weight window or one far from the origin reports the same
    rng = random.Random(63)
    for _ in range(4):
        j, a = random_label(rng)
        for n_min, n_max in ((0, 0), (1000, 1004)):
            params = RepParams(j, a, n_min, n_max)
            for report in (
                    *commutation_relations_check(params)["checks"].values(),
                    casimir_scalar_check(params),
                    commutator_check(params, Fraction(2, 3), Fraction(1, 5),
                                     Fraction(7, 4), Fraction(-1, 2))):
                assert report["ok"] and report["mismatches"] == 0, report
            H, E = rep_generator(params, "H"), rep_generator(params, "E")
            wrong = compare(H @ E - E @ H, E)  # off by E, which is nonzero
            assert not wrong["ok"] and wrong["mismatches"] > 0
    kp = KParams(Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    small = assemble_K(RepParams(1, Fraction(0), 0, 2), kp)
    large = assemble_K(RepParams(1, Fraction(0), -5, 7), kp)
    weights = range(-5, 8)
    assert all(small.entry(r, c) == large.entry(r, c)
               for r in weights for c in weights)


def test_invariant_subspaces():
    for j in (1, 2):
        for m in (1, 2, 3):
            report = invariant_subspace_check(j, m)
            assert report["ok"], report


def test_splitting_boundary_coefficients():
    # V_{2,1}: lowest weight of D+_1 at n=0, highest of D-_1 at n=-1
    params = RepParams(2, Fraction(1), -4, 4)
    assert rep_generator(params, "F").entry(-1, 0) == 0
    assert rep_generator(params, "E").entry(0, -1) == 0


def test_intertwiner_examples():
    for a in (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(-3, 2)):
        report = intertwiner_check(a)
        assert report["ok"], report
    with pytest.raises(ValueError):
        intertwiner_check(Fraction(2))


def test_intertwiner_entrywise_at_far_weights():
    # the coefficient identity implies c_{n+s} x_a(n) = x_{2-a}(n) c_n at
    # every weight, with c_n taken here from its product
    for a in (Fraction(1, 2), Fraction(3), Fraction(-3, 2), Fraction(7, 3)):
        assert intertwiner_check(a)["ok"]

        def c(n):
            return prod((Fraction(k) - a / 2) / (k - 1 + a / 2)
                        for k in range(1, abs(n) + 1))

        for gen in GENERATORS:
            x_a = rep_generator(RepParams(1, a, 0, 0), gen)
            x_b = rep_generator(RepParams(1, 2 - a, 0, 0), gen)
            [s] = x_a.terms
            for n in (-200, -1, 0, 1, 199):
                assert (c(n + s) * x_a.entry(n + s, n)
                        == x_b.entry(n + s, n) * c(n)), (a, gen, n)


@pytest.mark.parametrize("gen", ["E", "F"])
def test_intertwiner_catches_a_perturbed_partner(monkeypatch, gen):
    a = Fraction(1, 2)
    real = sl2rep.rep_generator

    def perturbed(params, name):
        op = real(params, name)
        if name == gen and params.a == 2 - a:
            [(s, p)] = op.terms.items()
            op = RepOperator(params, {s: p + UniPoly([Fraction(1, 7)])})
        return op

    monkeypatch.setattr(sl2rep, "rep_generator", perturbed)
    report = intertwiner_check(a)
    assert not report["ok"]
    assert report["checks"][gen]["mismatches"] > 0


def test_closure_fails_on_a_generic_label():
    params = RepParams(1, Fraction(1, 3), 0, 0)
    assert not _closure_ok(params, range(-2, 3))
    assert _closure_ok(RepParams(1, Fraction(-4), 0, 0), range(-2, 3))


def test_eigenproblem_window_guard():
    with pytest.raises(ValueError):
        eigenproblem_window(2, 0, "neither", Fraction(1, 4), Fraction(1, 2))
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            eigenproblem_window(N, 0, PLAIN, Fraction(1, 4), Fraction(1, 2))
        with pytest.raises(ValueError, match="N must be a positive integer"):
            k_block_minus_lambda(N, 1, TILDE, Fraction(1, 4), Fraction(1, 2))


def test_block_rows_are_cut_where_k_vanishes():
    # the block rows run from top to bot in weight; K has no entry leaving
    # them downward at bot, nor upward at top (plain) or into top from
    # top + 1 (tilde)
    g2, d = Fraction(3, 5), Fraction(7, 4)
    for N in range(1, 13):
        for two_eps in (-2, 0, 1, 3):
            for variant in (PLAIN, TILDE):
                data = eigenproblem_window(N, two_eps, variant, g2, d)
                K = assemble_K(data["params"], data["kparams"])
                top, bot = data["rows"][0], data["rows"][-1]
                assert K.entry(bot - 1, bot) == 0, (N, two_eps, variant)
                if variant == PLAIN:
                    assert K.entry(top + 1, top) == 0, (N, two_eps)
                else:
                    assert K.entry(top, top + 1) == 0, (N, two_eps)


def test_block_matches_tridiagonal_sampled():
    rng = random.Random(62)
    for _ in range(10):
        N = rng.randint(1, 6)
        two_eps = rng.randint(-2, 3)
        variant = rng.choice((PLAIN, TILDE))
        g2 = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        block = k_block_minus_lambda(N, two_eps, variant, g2, d)
        spec = tridiag_matrix(ConstraintFamily(N, two_eps, variant), N)
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
                assert block[r][c] == want
        # an oracle sharing no code with TridiagSpec: the exact determinant
        # against the recurrence-built P_N, det = (-1)^N (-d) P_N(4 g^2, d)
        want_det = (-1) ** N * -d * constraint_poly(
            ConstraintFamily(N, two_eps, variant), N).evaluate(x, d)
        assert sympy.Matrix(block).det() == sympy.Rational(
            want_det.numerator, want_det.denominator)


def test_block_kernel_matches_constraint_kernel():
    d = Fraction(1, 4)
    x = find_crossings(2, 1, d, Fraction(1, 10**14))[0].x_root
    v = np.asarray(kernel_vector(ConstraintFamily(2, 1), d, float(x)))
    block = k_block_minus_lambda(2, 1, PLAIN, x / 4, d)
    m = np.array([[float(e) for e in row] for row in block])
    assert np.linalg.norm(m @ v) / np.linalg.norm(m) < 1e-8
