import random
from fractions import Fraction

import pytest
import sympy

from aqrm.constraint import ConstraintFamily, constraint_poly
from aqrm.exactpoly import (
    BivarPoly,
    UniPoly,
    cauchy_bound,
    isolate_positive_roots,
    poly_div_x,
    positive_root_count,
    refine_isolated,
    to_fraction,
    sturm_chain,
)

X, D = BivarPoly.x(), BivarPoly.d()
SX, SD = sympy.symbols("x d")
PREC = Fraction(1, 10**12)


def to_sympy(p: BivarPoly):
    return sympy.expand(sum(sympy.Rational(c) * SX**i * SD**j
                            for (i, j), c in p.terms.items()))


def random_poly(rng: random.Random, max_deg: int = 3) -> BivarPoly:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return BivarPoly(terms)


def test_to_fraction_accepts_strings_ints_fractions():
    assert to_fraction("3/7") == Fraction(3, 7)
    assert to_fraction(5) == Fraction(5)
    assert to_fraction(Fraction(-2, 9)) == Fraction(-2, 9)
    with pytest.raises(TypeError):
        to_fraction(0.5)  # floats are refused: the exact layer stays exact


def test_construction_drops_zero_terms():
    p = BivarPoly({(1, 0): Fraction(0), (0, 0): Fraction(2)})
    assert p == BivarPoly.const(2)
    assert not BivarPoly.zero()
    assert BivarPoly.zero().deg_x() == -1


def test_arith_examples():
    assert (X + D) + (X - D) == 2 * X
    assert (X + D) * BivarPoly.zero() == BivarPoly.zero()
    lhs = (2 * X + D - 2) * (X + D) - 2 * X
    want = (2 * X * X + 3 * X * D + D * D - 4 * X - 2 * D)
    assert lhs == want
    assert lhs.to_text() == "2*x^2 + 3*x*d - 4*x + d^2 - 2*d"


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(a * b)) == 0


def test_text_and_json_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        p = random_poly(rng)
        assert BivarPoly.from_json(p.to_json()) == p
    assert BivarPoly.zero().to_text() == "0"


def test_specialize_examples():
    assert (X + D - 1).specialize(Fraction(1, 2)) == UniPoly([Fraction(-1, 2), 1])
    assert (D * D).specialize(2) == UniPoly([4])
    p = constraint_poly(ConstraintFamily(2, 0), 2).specialize(Fraction(1, 4))
    assert p.degree() == 2


def test_evaluate_matches_specialize():
    rng = random.Random(99)
    for _ in range(20):
        p = random_poly(rng)
        xv = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        dv = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert p.evaluate(xv, dv) == p.specialize(dv)(xv)


def test_poly_div_x_examples():
    num = (2 * X + D) * (X + D - 2)
    quot, rem = poly_div_x(num, X + D - 2)
    assert quot == 2 * X + D and rem.is_zero()
    quot, rem = poly_div_x(X * X, X + 1)
    assert quot == X - 1 and rem == BivarPoly.const(1)
    num = constraint_poly(ConstraintFamily(2, 1, "tilde"), 2)
    den = constraint_poly(ConstraintFamily(1, 1), 1)
    quot, rem = poly_div_x(num, den)
    assert quot == 2 * X + D and rem.is_zero()


def test_poly_div_x_reconstruction_randomized():
    rng = random.Random(4242)
    for _ in range(30):
        q = random_poly(rng, 2)
        # monic-in-x divisor so coefficient division never leaves Q[d]
        den = X * X + random_poly(rng, 1)
        while den.deg_x() != 2:
            den = X * X + random_poly(rng, 1)
        r = random_poly(rng, 1)
        num = q * den + r
        quot, rem = poly_div_x(num, den)
        assert quot * den + rem == num
        assert rem.deg_x() < den.deg_x()
        quot, rem = poly_div_x(q * den, den)
        assert quot == q and rem.is_zero()


def test_poly_div_x_inexact_coefficient_raises():
    with pytest.raises(ValueError):
        poly_div_x(X * X, D * X + 1)
    with pytest.raises(ZeroDivisionError):
        poly_div_x(X, BivarPoly.zero())


def test_unipoly_basics():
    p = UniPoly([1, -3, 2])  # 2t^2 - 3t + 1
    assert p(Fraction(1)) == 0 and p(Fraction(1, 2)) == 0
    assert p.derivative() == UniPoly([-3, 4])
    q, r = divmod(p, UniPoly([-1, 1]))
    assert q * UniPoly([-1, 1]) + r == p and r.is_zero()


def test_unipoly_divmod_randomized():
    rng = random.Random(31)
    for _ in range(30):
        num = UniPoly([Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 6))])
        den = UniPoly([Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 4))])
        if den.is_zero():
            continue
        q, r = divmod(num, den)
        assert q * den + r == num
        assert r.is_zero() or r.degree() < den.degree()


def test_isolate_examples():
    ivs = isolate_positive_roots(UniPoly([Fraction(-1, 2), 1]), PREC)
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert lo <= Fraction(1, 2) <= hi
    assert isolate_positive_roots(UniPoly([1, 0, 1]), PREC) == []
    p = constraint_poly(ConstraintFamily(2, 0), 2).specialize(Fraction(1, 4))
    assert len(isolate_positive_roots(p, PREC)) == 2


def known_root_poly(rng: random.Random):
    roots = set()
    while len(roots) < rng.randint(1, 4):
        roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
    p = UniPoly([1])
    for r in roots:
        p = p * UniPoly([-r, 1])
    return p, sorted(r for r in roots if r > 0)


def test_isolation_invariants_randomized():
    rng = random.Random(1805)
    for _ in range(25):
        p, pos = known_root_poly(rng)
        ivs = isolate_positive_roots(p, Fraction(1, 2**20))
        assert len(ivs) == len(pos) == positive_root_count(p)
        for (lo, hi), root in zip(ivs, pos):
            assert lo <= root <= hi
            assert hi - lo <= Fraction(1, 2**20) or lo == hi == root
            assert (1 if p(lo) > 0 else -1 if p(lo) < 0 else 0) * \
                   (1 if p(hi) > 0 else -1 if p(hi) < 0 else 0) <= 0
        for (_, hi_prev), (lo_next, _) in zip(ivs, ivs[1:]):
            assert hi_prev < lo_next


def test_isolation_matches_sympy_count():
    rng = random.Random(271828)
    t = sympy.Symbol("t")
    for _ in range(15):
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 6))]
        p = UniPoly(coeffs)
        if p.is_zero() or p(Fraction(0)) == 0:
            continue
        expr = sum(sympy.Rational(c) * t**i for i, c in enumerate(p.coeffs))
        want = len({r for r in sympy.Poly(expr, t).real_roots() if r > 0})
        assert positive_root_count(p) == want
        assert len(isolate_positive_roots(p, Fraction(1, 1024))) == want


def test_refine_isolated_shrinks():
    p = UniPoly([-2, 0, 1])  # t^2 - 2
    ivs = isolate_positive_roots(p, Fraction(1, 4))
    lo, hi = refine_isolated(p, ivs[0], Fraction(1, 10**15))
    assert hi - lo <= Fraction(1, 10**15)
    assert p(lo) * p(hi) <= 0


def test_cauchy_bound_contains_real_roots():
    rng = random.Random(55)
    t = sympy.Symbol("t")
    for _ in range(10):
        p, _ = known_root_poly(rng)
        bound = cauchy_bound(p)
        expr = sum(sympy.Rational(c) * t**i for i, c in enumerate(p.coeffs))
        for r in sympy.Poly(expr, t).real_roots():
            assert abs(r) <= bound


def test_sturm_chain_signs():
    p = UniPoly([-2, 0, 1])
    chain = sturm_chain(p)
    assert chain[0] == p and chain[1] == p.derivative()
    assert all(not q.is_zero() for q in chain)
