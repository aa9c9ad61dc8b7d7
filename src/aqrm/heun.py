"""Confluent Heun operators for the two component reductions.

Eliminating one component of the first-order system turns the eigenvalue
problem into a second-order equation with regular singular points at x = 0, 1
and an irregular one at infinity:

    y'' + { -4g^2 + A/x + B/(x-1) } y' + (C x + D)/(x(x-1)) y = 0.

The four rational constants (A, B, C, D) determine everything; this module
builds them directly from (lambda, g^2, d, eps), checks the operator against
the sl2 element K, and forms exact residuals of the underlying first-order
system for polynomial trial solutions.

Multiplied by x(x-1), the operator acts on monomials x^m as a shift sum in
the degree m, and pi_a(K) - Lambda_a acts on the weight e_n the same way,
with n = m + (a - o)/2, the map sl2rep.degree_offset states.
reduction_check compares the two shift sums as exact polynomials in m.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import UniPoly, to_fraction
from .sl2rep import (RepOperator, RepParams, assemble_K, compare, degree_offset,
                     identity_op, mu_value, reduction_kparams)


@dataclass(frozen=True)
class HeunOp:
    """Second-order operator fixed by (A, B, C, D) and the drift -4g^2."""

    which: int
    lambda_: Fraction
    g2: Fraction
    d: Fraction
    eps: Fraction
    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction

    @property
    def drift(self) -> Fraction:
        """Constant part of the first-order coefficient."""
        return -4 * self.g2

    def indicial_roots(self, point: int) -> tuple[Fraction, Fraction]:
        """Roots of rho(rho-1) + rho*residue = 0 at the singular point 0 or 1."""
        if point == 0:
            return (Fraction(0), 1 - self.A)
        if point == 1:
            return (Fraction(0), 1 - self.B)
        raise ValueError("point must be 0 or 1")


def heun_direct(which: int, lambda_, g2, d, eps) -> HeunOp:
    """The operator written out componentwise from the eliminated system."""
    lam, g2 = to_fraction(lambda_), to_fraction(g2)
    d, eps = to_fraction(d), to_fraction(eps)
    s = lam + g2
    m = mu_value(lam, g2, d)
    if which == 1:
        a_coef = 1 - s + eps
        b_coef = 1 - (s + 1) - eps
        c_coef = 4 * g2 * (s - eps)
        d_coef = m + 4 * eps * g2 - eps * eps
    elif which == 2:
        a_coef = 1 - (s + 1) - eps
        b_coef = 1 - s + eps
        c_coef = 4 * g2 * (s - 1 + eps)
        d_coef = m - 4 * eps * g2 - eps * eps
    else:
        raise ValueError("which must be 1 or 2")
    return HeunOp(which=which, lambda_=lam, g2=g2, d=d, eps=eps,
                  A=a_coef, B=b_coef, C=c_coef, D=d_coef)


def reduction_check(op: HeunOp) -> dict:
    """Compare op with pi_a(K) - Lambda_a as operators on monomials x^m.

    x(x-1) times op, that is x(x-1) y'' + (-4g^2 x(x-1) + A(x-1) + Bx) y'
    + (Cx + D) y, sends x^m to
        (C - 4g^2 m) x^(m+1) + (m^2 + (A + B + 4g^2 - 1) m + D) x^m
        + ((1 - A) m - m^2) x^(m-1).
    pi_a(K) - Lambda_a, at op's reduction_kparams and label j = 1, acts on
    e_n by the same shift sum once n = m + degree_offset, here a/2.
    The report is sl2rep.compare of the two, exact for every m. A, B, C, the
    drift and the m^2, m terms come from the generators. D does not: Lambda_a
    cancels, so the shift-0 constant is K's own C, the expression
    reduction_kparams shares with heun_direct's D.
    """
    kp, a = reduction_kparams(op.which, op.lambda_, op.g2, op.d, op.eps)
    params = RepParams(1, a, 0, 0)
    k_op = assemble_K(params, kp) - identity_op(params, kp.lambda_a(a))
    in_degree = RepOperator(params, {s: p.shift(degree_offset(params))
                                     for s, p in k_op.terms.items()})
    heun_op = RepOperator(params, {
        1: UniPoly([op.C, op.drift]),
        0: UniPoly([op.D, op.A + op.B - op.drift - 1, 1]),
        -1: UniPoly([0, 1 - op.A, -1])})
    return compare(in_degree, heun_op)


def bargmann_system_residual(lambda_, g, delta, eps, f_plus: UniPoly,
                             f_minus: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Exact residuals of the first-order system for polynomial candidates.

    The system couples the two components f+ and f- of an eigenfunction:
        (z+g) f+' + (g z + eps - lambda) f+ + delta f-  = 0
        (z-g) f-' - (g z + eps + lambda) f- + delta f+  = 0
    Both residual polynomials vanish identically iff (f+, f-) solves the
    system. g and delta enter linearly, so they are taken as exact rationals
    (square them for the x-side quantities g2 and d).
    """
    lam, g = to_fraction(lambda_), to_fraction(g)
    delta, eps = to_fraction(delta), to_fraction(eps)
    z = UniPoly([0, 1])
    z_plus_g = UniPoly([g, 1])
    z_minus_g = UniPoly([-g, 1])
    gz = UniPoly([0, g])
    res_plus = (z_plus_g * f_plus.derivative()
                + (gz + UniPoly([eps - lam])) * f_plus
                + delta * f_minus)
    res_minus = (z_minus_g * f_minus.derivative()
                 - (gz + UniPoly([eps + lam])) * f_minus
                 + delta * f_plus)
    return res_plus, res_minus
