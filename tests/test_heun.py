import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from aqrm import heun
from aqrm.cli import main
from aqrm.exactpoly import UniPoly
from aqrm.heun import (
    HeunOp,
    bargmann_system_residual,
    heun_direct,
    reduction_check,
)
from aqrm.sl2rep import (RepParams, assemble_K, identity_op, mu_value,
                         reduction_kparams)


def _exponents(capsys, which, lam, g2, eps):
    """Exponent pairs at 0 and 1, and heun-check's both_integral flag.

    d does not enter A or B, so any d gives the same exponents.
    """
    op = heun_direct(which, lam, g2, Fraction(1), eps)
    at0, at1 = op.indicial_roots(0), op.indicial_roots(1)
    assert main(["heun-check", f"--which={which}", f"--lambda={lam}",
                 f"--g2={g2}", "--d=1", f"--eps={eps}"]) == 0
    blob = json.loads(capsys.readouterr().out)["exponents"]
    assert blob["at0"] == [str(e) for e in at0]
    assert blob["at1"] == [str(e) for e in at1]
    return at0, at1, blob["both_integral"]


def _seed18_tuples():
    rng = random.Random(18)
    for _ in range(20):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        g2 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        eps = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        yield lam, g2, d, eps


def test_mu_examples():
    # s = lambda + g^2 fixes mu = s^2 - 4 g^2 s - d
    assert mu_value(Fraction(7, 4), Fraction(1, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert mu_value(Fraction(-1, 3), Fraction(1, 3), Fraction(5)) == Fraction(-5)
    # s = 4g^2 makes the quadratic terms cancel
    g2 = Fraction(2, 7)
    assert mu_value(4 * g2 - g2, g2, Fraction(3)) == Fraction(-3)


def test_exponents_examples(capsys):
    at0, at1, both = _exponents(capsys, 1, Fraction(2) - Fraction(1, 4),
                                Fraction(1, 4), Fraction(0))
    assert at0 == (Fraction(0), Fraction(2))
    assert at1 == (Fraction(0), Fraction(3))
    assert both
    at0, at1, _ = _exponents(capsys, 2, Fraction(2) - Fraction(1, 4),
                             Fraction(1, 4), Fraction(0))
    assert at0 == (Fraction(0), Fraction(3))
    assert at1 == (Fraction(0), Fraction(2))
    at0, at1, both = _exponents(capsys, 1, Fraction(3, 2) - Fraction(1, 8),
                                Fraction(1, 8), Fraction(1, 2))
    assert at0 == (Fraction(0), Fraction(1))
    assert at1 == (Fraction(0), Fraction(3))
    assert both
    # mixed integrality: s integer but eps half-integer
    _, _, both = _exponents(capsys, 1, Fraction(2), Fraction(0),
                            Fraction(1, 2))
    assert not both


def test_both_integral_iff_s_and_eps_integers_or_half_integers(capsys):
    rng = random.Random(19)
    seen = set()
    for _ in range(200):
        lam = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        g2 = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        eps = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        s = lam + g2
        expected = (s.denominator == 1 and eps.denominator == 1) or \
            (s.denominator == 2 and eps.denominator == 2)
        seen.add(expected)
        for which in (1, 2):
            assert _exponents(capsys, which, lam, g2, eps)[2] == expected
    assert seen == {True, False}


def test_indicial_roots_solve_the_indicial_equation():
    op = heun_direct(1, Fraction(5, 3), Fraction(1, 6), Fraction(2),
                     Fraction(1, 2))
    for point, coeff in ((0, op.A), (1, op.B)):
        roots = op.indicial_roots(point)
        for rho in roots:
            assert rho * (rho - 1) + coeff * rho == 0
        assert roots[0] == 0 and roots[1] == 1 - coeff


def test_from_k_equals_direct_named_case():
    args = (Fraction(2) - Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
            Fraction(0))
    for which in (1, 2):
        report = reduction_check(heun_direct(which, *args))
        assert report["ok"] and report["max_discrepancy"] == 0, report


def test_from_k_equals_direct_randomized():
    for lam, g2, d, eps in _seed18_tuples():
        for which in (1, 2):
            report = reduction_check(heun_direct(which, lam, g2, d, eps))
            assert report["ok"] and report["max_discrepancy"] == 0, report


def _heun_on_monomial(op: HeunOp, m: int) -> UniPoly:
    """x(x-1) y'' + (-4g^2 x(x-1) + A(x-1) + Bx) y' + (Cx + D) y at y = x^m."""
    y = UniPoly([0] * m + [1])
    x2_x = UniPoly([0, -1, 1])
    first = op.drift * x2_x + UniPoly([-op.A, op.A + op.B])
    return (x2_x * y.derivative().derivative() + first * y.derivative()
            + UniPoly([op.D, op.C]) * y)


def test_k_on_both_labels_is_the_heun_operator_on_monomials():
    # pi_a(K) - Lambda_a on e_n with n = m + (a - o)/2 sends e_n to the
    # coefficients of the Heun operator applied to x^m, for j = 1 and j = 2
    for lam, g2, d, eps in _seed18_tuples():
        for which in (1, 2):
            op = heun_direct(which, lam, g2, d, eps)
            kp, a = reduction_kparams(which, lam, g2, d, eps)
            for j in (1, 2):
                params = RepParams(j, a, 0, 0)
                k_op = assemble_K(params, kp) - identity_op(params,
                                                            kp.lambda_a(a))
                assert set(k_op.terms) <= {-1, 0, 1}
                for m in range(6):
                    n = m + (a - (j - 1)) / 2
                    image = _heun_on_monomial(op, m).coeffs
                    for s in (-1, 0, 1):
                        want = image[m + s] if 0 <= m + s < len(image) else 0
                        got = k_op.terms[s](n) if s in k_op.terms else 0
                        assert got == want, (which, j, m, s)


@pytest.mark.parametrize("which", (1, 2))
@pytest.mark.parametrize("field", ("A", "B", "C", "D"))
def test_heun_check_fails_on_a_moved_constant(monkeypatch, capsys, which,
                                              field):
    direct = heun.heun_direct

    def moved(*args):
        op = direct(*args)
        return dataclasses.replace(
            op, **{field: getattr(op, field) + Fraction(1, 10**6)})

    report = reduction_check(moved(which, Fraction(3, 2), Fraction(1, 3),
                                   Fraction(2), Fraction(1, 2)))
    assert not report["ok"] and report["mismatches"] > 0
    monkeypatch.setattr(heun, "heun_direct", moved)
    assert main(["heun-check", "--which", str(which), "--lambda", "3/2",
                 "--g2", "1/3", "--d", "2", "--eps", "1/2"]) == 2
    out = capsys.readouterr().out
    assert '"reduction_matches": false' in out and '"ok": false' in out


def test_accessory_parameter_moves_only_d():
    lam, g2, d, eps = Fraction(1, 3), Fraction(2, 5), Fraction(7, 4), \
        Fraction(-1, 2)
    base = heun_direct(1, lam, g2, d, eps)
    # mu -> mu + 1 is realized by d -> d - 1 at fixed lambda, g2
    shifted = heun_direct(1, lam, g2, d - 1, eps)
    assert shifted.A == base.A and shifted.B == base.B and shifted.C == base.C
    assert shifted.D == base.D + 1


def test_heun_json_round_trip(capsys):
    # heun-check's "op" is built in cli; its fields rebuild the same operator
    op = heun_direct(2, Fraction(1, 7), Fraction(3, 5), Fraction(2),
                     Fraction(1, 2))
    assert main(["heun-check", "--which", "2", "--lambda", "1/7",
                 "--g2", "3/5", "--d", "2", "--eps", "1/2"]) == 0
    blob = json.loads(capsys.readouterr().out)["op"]
    assert set(blob) == {"which", "lambda", "g2", "d", "eps", "A", "B", "C",
                         "D"}
    clone = HeunOp(blob.pop("which"), Fraction(blob.pop("lambda")),
                   **{k: Fraction(v) for k, v in blob.items()})
    assert clone == op


def test_heun_drift_and_validation():
    op = heun_direct(1, Fraction(0), Fraction(3, 4), Fraction(1), Fraction(0))
    assert op.drift == -3
    with pytest.raises(ValueError):
        heun_direct(3, Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        op.indicial_roots(2)


def test_bargmann_zero_functions():
    res_p, res_m = bargmann_system_residual(
        Fraction(1), Fraction(1, 2), Fraction(1), Fraction(0),
        UniPoly([]), UniPoly([]))
    assert res_p.is_zero() and res_m.is_zero()


def test_bargmann_truncated_exponential_tail():
    # f+ = exp(-g z) truncated at degree 8 solves the decoupled (Delta = 0)
    # equation at lambda = -g^2 up to the single truncation tail:
    # residual (z + g) * g * a8 * z^8 where a8 = g^8/8!
    g = Fraction(1, 2)
    coeffs = [(-g) ** k / math.factorial(k) for k in range(9)]
    f_plus = UniPoly(coeffs)
    res_p, res_m = bargmann_system_residual(
        -g * g, g, Fraction(0), Fraction(0), f_plus, UniPoly([]))
    a8 = g ** 8 / math.factorial(8)
    assert res_p == UniPoly([0] * 8 + [g * g * a8, g * a8])
    assert res_m.is_zero()


def test_bargmann_oscillator_limit():
    for n in (0, 1, 4):
        f_plus = UniPoly([0] * n + [1])
        res_p, res_m = bargmann_system_residual(
            Fraction(n), Fraction(0), Fraction(0), Fraction(0),
            f_plus, UniPoly([]))
        assert res_p.is_zero() and res_m.is_zero()


def test_bargmann_couples_through_delta():
    # with f- = 0 the minus-residual is exactly Delta * f+
    delta = Fraction(3, 4)
    f_plus = UniPoly([1, 2])
    _, res_m = bargmann_system_residual(
        Fraction(1), Fraction(1, 3), delta, Fraction(1, 5),
        f_plus, UniPoly([]))
    assert res_m == delta * f_plus
