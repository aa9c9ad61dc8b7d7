"""Confluent Heun operators for the two component reductions.

Eliminating one component of the first-order system turns the eigenvalue
problem into a second-order equation with regular singular points at x = 0, 1
and an irregular one at infinity:

    y'' + { -4g^2 + A/x + B/(x-1) } y' + (C x + D)/(x(x-1)) y = 0.

The four rational constants (A, B, C, D) determine everything; this module
builds them directly from (lambda, g^2, d, eps), rebuilds them through the sl2
element K (A, B and C from K's parameters; D is K's constant C itself),
tabulates the local exponents, and forms exact residuals of the underlying
first-order system for polynomial trial solutions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import UniPoly, to_fraction
from .sl2rep import mu_value, reduction_kparams


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


def heun_from_K(which: int, lambda_, g2, d, eps) -> HeunOp:
    """Rebuild the operator through the sl2 element K.

    Conjugating pi_a(K) - Lambda_a by the weight factor and dividing by
    x(x-1) yields a second-order operator with
        A = a/2 + alpha,  B = a/2 + 2 gamma - alpha,
        C = -a beta,      D = C_K,
    which must agree coefficientwise with heun_direct. The scalar Lambda_a
    split off by K cancels in D, so D is K's constant C as reduction_kparams
    sets it: only A, B and C are derived independently of heun_direct.
    """
    lam, g2 = to_fraction(lambda_), to_fraction(g2)
    d, eps = to_fraction(d), to_fraction(eps)
    kp, a = reduction_kparams(which, lam, g2, d, eps)
    return HeunOp(which=which, lambda_=lam, g2=g2, d=d, eps=eps,
                  A=a / 2 + kp.alpha,
                  B=a / 2 + 2 * kp.gamma - kp.alpha,
                  C=-a * kp.beta,
                  D=kp.C)


def exponents(which: int, lambda_, g2, eps) -> dict:
    """Local exponents at the two regular singular points.

    Both exponent pairs are integral exactly when lambda + g^2 and eps are
    both integers or both half-integers; the returned classification records
    that.
    """
    lam, g2, eps = to_fraction(lambda_), to_fraction(g2), to_fraction(eps)
    s = lam + g2
    if which == 1:
        at0, at1 = (Fraction(0), s - eps), (Fraction(0), s + 1 + eps)
    elif which == 2:
        at0, at1 = (Fraction(0), s + 1 + eps), (Fraction(0), s - eps)
    else:
        raise ValueError("which must be 1 or 2")
    both_int = s.denominator == 1 and eps.denominator == 1
    both_half = s.denominator == 2 and eps.denominator == 2
    return {"at0": at0, "at1": at1, "both_integral": both_int or both_half}


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
