import json
import math
import random
from fractions import Fraction

import pytest

from aqrm.cli import main
from aqrm.exactpoly import UniPoly
from aqrm.heun import (
    HeunOp,
    bargmann_system_residual,
    exponents,
    heun_direct,
    heun_from_K,
)
from aqrm.sl2rep import mu_value


def test_mu_examples():
    # s = lambda + g^2 fixes mu = s^2 - 4 g^2 s - d
    assert mu_value(Fraction(7, 4), Fraction(1, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert mu_value(Fraction(-1, 3), Fraction(1, 3), Fraction(5)) == Fraction(-5)
    # s = 4g^2 makes the quadratic terms cancel
    g2 = Fraction(2, 7)
    assert mu_value(4 * g2 - g2, g2, Fraction(3)) == Fraction(-3)


def test_exponents_examples():
    out = exponents(1, Fraction(2) - Fraction(1, 4), Fraction(1, 4),
                    Fraction(0))
    assert out["at0"] == (Fraction(0), Fraction(2))
    assert out["at1"] == (Fraction(0), Fraction(3))
    assert out["both_integral"]
    swapped = exponents(2, Fraction(2) - Fraction(1, 4), Fraction(1, 4),
                        Fraction(0))
    assert swapped["at0"] == (Fraction(0), Fraction(3))
    assert swapped["at1"] == (Fraction(0), Fraction(2))
    out = exponents(1, Fraction(3, 2) - Fraction(1, 8), Fraction(1, 8),
                    Fraction(1, 2))
    assert out["at0"] == (Fraction(0), Fraction(1))
    assert out["at1"] == (Fraction(0), Fraction(3))
    assert out["both_integral"]
    # mixed integrality: s integer but eps half-integer
    out = exponents(1, Fraction(2), Fraction(0), Fraction(1, 2))
    assert not out["both_integral"]


def test_indicial_roots_solve_the_indicial_equation():
    op = heun_direct(1, Fraction(5, 3), Fraction(1, 6), Fraction(2),
                     Fraction(1, 2))
    for point, coeff in ((0, op.A), (1, op.B)):
        roots = op.indicial_roots(point)
        for rho in roots:
            assert rho * (rho - 1) + coeff * rho == 0
        assert roots[0] == 0 and roots[1] == 1 - coeff


def test_exponents_match_indicial_roots():
    rng = random.Random(17)
    for _ in range(10):
        lam = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        g2 = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        d = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        eps = Fraction(rng.randint(-4, 4), 2)
        for which in (1, 2):
            op = heun_direct(which, lam, g2, d, eps)
            out = exponents(which, lam, g2, eps)
            assert set(op.indicial_roots(0)) == set(out["at0"])
            assert set(op.indicial_roots(1)) == set(out["at1"])


def test_from_k_equals_direct_named_case():
    args = (Fraction(2) - Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
            Fraction(0))
    for which in (1, 2):
        assert heun_from_K(which, *args) == heun_direct(which, *args)


def test_from_k_equals_direct_randomized():
    rng = random.Random(18)
    for _ in range(20):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        g2 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        eps = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for which in (1, 2):
            assert heun_from_K(which, lam, g2, d, eps) == \
                heun_direct(which, lam, g2, d, eps)


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
