import json
import random
from fractions import Fraction

import pytest
import sympy

from aqrm.cli import main
from aqrm.constraint import ConstraintFamily, constraint_poly, constraint_poly_at
from aqrm.exactpoly import (
    BivarPoly,
    UniPoly,
    _root_bound,
    isolate_positive_roots,
    poly_div_x,
    root_refiner,
    to_fraction,
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


def test_to_fraction_zero_denominator_is_value_error():
    # a ValueError is what argparse turns into a usage error
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            to_fraction(text)


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


def assert_canonical(p: BivarPoly, expected) -> None:
    """p stores no zero coefficient and agrees with the BivarPoly built
    afresh from the sympy expression expected."""
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert sympy.expand(to_sympy(p) - expected) == 0
    fresh = BivarPoly({key: Fraction(int(c.p), int(c.q)) for key, c in
                       sympy.Poly(expected, SX, SD).terms()})
    assert p == fresh and hash(p) == hash(fresh)
    assert p.deg_x() == fresh.deg_x()
    assert p.leading_x_coeff() == fresh.leading_x_coeff()


def test_cancellation_leaves_no_zero_terms():
    # ring results are not re-validated, so each operation must prune what
    # cancels itself
    assert_canonical((X + D) * (X - D) - X * X + D * D, sympy.Integer(0))
    lead = X * X * X + 2 * X * D - 1
    rest = X * X * D - X * X * X
    assert_canonical(lead + rest,
                     sympy.expand(to_sympy(lead) + to_sympy(rest)))
    assert (lead + rest).deg_x() == 2
    assert_canonical(lead - X * X * X, sympy.expand(to_sympy(lead) - SX**3))
    rng = random.Random(20261019)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        assert_canonical(p - p, sympy.Integer(0))
        assert_canonical(-p + p, sympy.Integer(0))
        assert_canonical(p * q - q * p, sympy.Integer(0))
        top = BivarPoly({key: c for key, c in p.terms.items()
                         if key[0] == p.deg_x()})
        assert_canonical(p - top, sympy.expand(to_sympy(p) - to_sympy(top)))
        assert_canonical(p * q + p,
                         sympy.expand(to_sympy(p) * (to_sympy(q) + 1)))


def test_text_and_json_round_trip(capsys):
    # poly's "terms" are built in cli; they rebuild the same polynomial
    for n, two_eps, variant, k in ((1, 0, "plain", 1), (2, 1, "plain", 2),
                                   (3, -1, "tilde", 2), (4, 2, "plain", 3)):
        fam = ConstraintFamily(n, two_eps, variant)
        assert main(["poly", "--N", str(n), "--two-eps", str(two_eps),
                     "--variant", variant, "--k", str(k),
                     "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        p = constraint_poly(fam, k)
        assert blob["text"] == p.to_text()
        assert BivarPoly({(i, j): Fraction(c)
                          for i, j, c in blob["terms"]}) == p
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


def test_unipoly_keeps_ints_and_rejects_floats():
    p = UniPoly([2, Fraction(3), Fraction(1, 2), "4/2"])
    assert [type(c) for c in p.coeffs] == [int, int, Fraction, int]
    assert all(type(c) is int for c in (UniPoly([1, -2]) * UniPoly([3, 4])).coeffs)
    with pytest.raises(TypeError):
        UniPoly([1, 0.5])
    with pytest.raises(TypeError):
        UniPoly([1, 2]) * 0.5
    with pytest.raises(TypeError):
        UniPoly([1, 2])(0.5)


def test_unipoly_division_and_bound_stay_exact():
    q, r = divmod(UniPoly([1, 0, 1]), UniPoly([0, 2]))
    assert q == UniPoly([0, Fraction(1, 2)]) and r == UniPoly([1])
    assert not any(isinstance(c, float) for c in q.coeffs + r.coeffs)
    assert type(q.coeffs[1]) is Fraction
    # the top cell of root isolation: a power of two above every positive
    # root of 2t^2 - 3: Kioustelidis 2 (3/2)^(1/2), its root rounded up to 2
    bound = _root_bound([-3, 0, 2])
    assert type(bound) is Fraction and bound == 4
    assert _root_bound([3, 0, 2]) == 0


def horner_shift(p: UniPoly, c) -> UniPoly:
    """p(t + c) by Horner's rule in (t + c): the reference for UniPoly.shift."""
    out = UniPoly([])
    for coef in reversed(p.coeffs):
        out = out * UniPoly([c, 1]) + UniPoly([coef])
    return out


def test_unipoly_shift_matches_horner():
    rng = random.Random(1618)
    for _ in range(50):
        ints = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        fracs = [Fraction(c, rng.randint(1, 6)) for c in ints]
        c = rng.randint(-4, 4)
        for p in (UniPoly(ints), UniPoly(fracs)):
            assert p.shift(c) == horner_shift(p, c)
        assert all(type(v) is int for v in UniPoly(ints).shift(c).coeffs)


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
        assert len(ivs) == len(pos)
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
        assert len(isolate_positive_roots(p, Fraction(1, 1024))) == want


def test_refine_isolated_shrinks():
    p = UniPoly([-2, 0, 1])  # t^2 - 2
    ivs = isolate_positive_roots(p, Fraction(1, 4))
    lo, hi = root_refiner(p)(ivs[0], Fraction(1, 10**15))
    assert hi - lo <= Fraction(1, 10**15)
    assert p(lo) * p(hi) <= 0


def test_positive_root_count_matches_sympy():
    # random integer polynomials of degree <= 8, a third of them with a
    # repeated factor, so the square-free reduction is exercised
    rng = random.Random(8128)
    t = sympy.Symbol("t")
    for _ in range(60):
        p = UniPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
        if p.is_zero():
            continue
        if rng.random() < 0.35:
            factor = UniPoly([rng.randint(-6, 6), rng.randint(1, 3)])
            p = p * factor * factor
        expr = sum(sympy.Rational(c) * t**i for i, c in enumerate(p.coeffs))
        poly = sympy.Poly(expr, t)
        want = len({r for r in poly.real_roots() if r > 0})
        ivs = isolate_positive_roots(p, Fraction(1, 2**20))
        assert len(ivs) == want
        for lo, hi in ivs:
            assert poly.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1


def assert_contract(p: UniPoly, ivs, precision):
    """ivs are sorted, disjoint and at most precision wide; p changes sign
    over each (lo, hi] or vanishes at hi, and (a, a) only at a root of p."""
    for (_, hi_prev), (lo_next, _) in zip(ivs, ivs[1:]):
        assert hi_prev < lo_next
    for lo, hi in ivs:
        assert 0 <= lo <= hi and hi - lo <= precision
        if lo == hi:
            assert p(lo) == 0
        else:
            assert p(lo) * p(hi) < 0 or p(hi) == 0, (precision, lo, hi)


def test_isolation_edge_cases_follow_plain_bisection():
    # the tree is plain bisection of (0, 2^e], 2^e the power-of-two root
    # bound of the square-free part; each case is pinned to the intervals
    # of that tree and checked against the contract, with sympy's Sturm
    # count for "exactly one root in (lo, hi]" and for the total
    t = sympy.Symbol("t")

    def check(p, precision, want):
        ivs = isolate_positive_roots(p, precision)
        assert ivs == want
        assert_contract(p, ivs, precision)
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)], t)
        for lo, hi in ivs:
            closed = poly.count_roots(sympy.Rational(lo), sympy.Rational(hi))
            assert closed - (lo < hi and p(lo) == 0) == 1
        assert len(ivs) == len({r for r in poly.real_roots() if r > 0})

    # (t-1)^2 (t-3): a double root; 2^e = 8 and both roots are midpoints
    # met while halving a one-root cell, so each collapses onto itself
    check(UniPoly([-3, 7, -5, 1]), PREC, [(1, 1), (3, 3)])
    # (t-1)(t-2): 2^e = 8; (0, 4] holds both roots and its midpoint 2 is
    # one, so the split moves to 2 + 4/8 = 5/2
    p = UniPoly([2, -3, 1])
    check(p, Fraction(1, 4), [
        (Fraction(15, 16), Fraction(35, 32)), (Fraction(15, 8), Fraction(65, 32))])
    check(p, Fraction(1, 1000), [
        (Fraction(4095, 4096), Fraction(8195, 8192)),
        (Fraction(4095, 2048), Fraction(16385, 8192))])
    two_roots = [
        (Fraction(8796093022205, 8796093022208), Fraction(4398046511105, 4398046511104)),
        (Fraction(17592186044415, 8796093022208), Fraction(4398046511105, 2199023255552))]
    check(p, PREC, two_roots)
    # (t - 1/3)((t - 1/21)^2 + 1/64): 2^e = 1; the complex pair gives
    # (0, 1/2] two sign changes, but it holds one root and is already
    # narrow enough, so bisection stops there
    p = UniPoly([-Fraction(1, 3), 1]) * UniPoly(
        [Fraction(1, 21**2) + Fraction(1, 64), -Fraction(2, 21), 1])
    check(p, Fraction(1, 2), [(0, Fraction(1, 2))])
    # (t-1)(t-2)(t^2+1000): 2^e = 32 holds (t-1)(t-2)'s tree (0, 8] as a
    # subtree, and the complex pair adds no root, so the intervals agree
    p = UniPoly([2, -3, 1]) * UniPoly([1000, 0, 1])
    check(p, Fraction(1, 1000), isolate_positive_roots(UniPoly([2, -3, 1]),
                                                       Fraction(1, 1000)))
    check(p, PREC, two_roots)
    # 1000t - 1: 2^e = 1/256 lies below precision, so the top cell is the
    # interval
    check(UniPoly([-1, 1000]), Fraction(1, 10), [(0, Fraction(1, 256))])
    # t - 1: 2^e = 2 lies above the root 1; a bound equal to the root would
    # start at (0, 1] and keep (..., 1] instead of meeting 1 as the midpoint
    # of (0, 2]
    check(UniPoly([-1, 1]), PREC, [(1, 1)])
    # (t - 303/1024)(t^2 + 100): 2^e = 8 and the root is 303/8192 of the
    # one-root cell (0, 8], a midpoint that halving meets, so the interval
    # collapses onto it; a root at hi keeps (..., hi]
    root = Fraction(303, 1024)
    p = UniPoly([-root, 1]) * UniPoly([100, 0, 1])
    check(p, PREC, [(root, root)])
    refine = root_refiner(p)
    assert refine((0, 1), PREC) == (root, root)
    assert refine((0, root), PREC) == (
        Fraction(166576011607761, 562949953421312), root)


@pytest.mark.parametrize("two_eps", (-2, 0, 1, 3))
@pytest.mark.parametrize("N", (*range(1, 13), 24, 40))
def test_isolation_contract_on_constraint_polynomials(N, two_eps):
    for d in (Fraction(1, 2), Fraction(7, 3)):
        p = constraint_poly_at(ConstraintFamily(N, two_eps), N, d)
        for precision in (PREC, Fraction(1, 1000)):
            assert_contract(p, isolate_positive_roots(p, precision), precision)


def test_refine_isolated_half_open_contract():
    p = UniPoly([3, -4, 1])  # (t-1)(t-3)
    refine = root_refiner(p)
    # a root at hi lies in (lo, hi]; a root at lo does not
    assert refine((0, 1), Fraction(1, 1000)) == (Fraction(1023, 1024), 1)
    assert refine((1, 3), Fraction(1, 1000)) == (Fraction(3071, 1024), 3)
    for interval in ((0, 4), (1, 2), (3, 4), (3, 1)):
        with pytest.raises(ValueError):
            refine(interval, Fraction(1, 1000))
    # a degenerate interval is accepted only at an exact root
    assert refine((3, 3), Fraction(1, 1000)) == (3, 3)
    q = UniPoly([-2, 0, 1])  # t^2 - 2
    for poly, interval in ((q, (5, 5)), (q, (5, 6)), (UniPoly([]), (0, 0))):
        with pytest.raises(ValueError):
            root_refiner(poly)(interval, Fraction(1, 10))
    # a width that bisection can never reach is refused, not looped on
    for precision in (0, Fraction(-1, 10)):
        with pytest.raises(ValueError):
            root_refiner(q)((1, 2), precision)
    # a midpoint that is the root collapses the interval onto it
    assert refine((0, 2), Fraction(1, 1000)) == (1, 1)
