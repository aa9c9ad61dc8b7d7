"""Constraint polynomials, their tridiagonal matrices, and crossing records.

The quasi-exact (degenerate) part of the exceptional spectrum lives at
eigenvalues lambda = N - g^2 + eps whose coupling values are positive roots of
a constraint polynomial P_N in x = (2g)^2 and d = Delta^2. Two variants exist,
here called plain and tilde; they are exchanged by negating eps. This module
builds both families exactly, exposes the tridiagonal matrices whose
determinants generate them, locates crossings at fixed d, and hosts the exact
divisibility verifiers that relate the two families at half-integer eps. Kernel
vectors at roots, in floats, are spectrum.kernel_vector.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .exactpoly import (BivarPoly, UniPoly, isolate_positive_roots,
                        poly_div_x, root_refiner, to_fraction)

PLAIN = "plain"
TILDE = "tilde"

#: the positivity samples (x, d) of verify_conjecture, all with x > 0
DEFAULT_GRID: tuple[tuple[Fraction, Fraction], ...] = tuple(
    (xv, dv)
    for xv in (Fraction(1, 10), Fraction(1), Fraction(10), Fraction(100))
    for dv in (Fraction(1, 4), Fraction(1), Fraction(4)))


@dataclass(frozen=True)
class ConstraintFamily:
    """One constraint-polynomial family: level N, bias two_eps = 2*eps, variant."""

    N: int
    two_eps: int
    variant: str = PLAIN

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.variant not in (PLAIN, TILDE):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def eps(self) -> Fraction:
        return Fraction(self.two_eps, 2)


def _step_coeffs(N: int, two_eps_eff: int, k: int) -> tuple[int, int]:
    """c_k = k^2 + k*two_eps_eff and e_k = k(k-1)(N-k+1), the constant and
    back coefficients of step k of the recurrence, for every ring."""
    return k * k + k * two_eps_eff, k * (k - 1) * (N - k + 1)


def _poly_sequence(N: int, two_eps_eff: int, k_max: int,
                   ring: tuple | None = None, q: int = 1) -> Iterator:
    """Yield P_0..P_k_max by the three-term recurrence, keeping two terms.

    P_0 = 1 and P_k = [k x + d - c_k] P_{k-1} - e_k x P_{k-2}, with c_k and
    e_k from _step_coeffs; the tilde variant is this recurrence with
    two_eps_eff negated. Only P_{k-1} and P_{k-2} are held while P_k is
    built, so a caller that wants the last term does not keep the whole
    sequence. The terms are BivarPolys unless ring = (one, x, d) says
    otherwise; with (1, q x, p) as UniPolys and q scaling the constant and
    back terms, they are Q_k = q^k P_k(x, p/q), the int polynomials at
    d = p/q.

    A BivarPoly term is built in one pass over the term maps of P_{k-1} and
    P_{k-2} (_bivar_step): multiplying by x or by d shifts a key, c_k and e_k
    scale a coefficient, and no intermediate polynomial is formed.
    """
    if ring is None:
        prev2, prev = {}, {(0, 0): Fraction(1)}
        yield BivarPoly._raw(prev)
        for k in range(1, k_max + 1):
            c, e = _step_coeffs(N, two_eps_eff, k)
            prev2, prev = prev, _bivar_step(k, c, e, prev, prev2)
            yield BivarPoly._raw(prev)
        return
    one, x, d = ring
    prev2, prev = 0 * one, one
    yield one
    for k in range(1, k_max + 1):
        c, e = _step_coeffs(N, two_eps_eff, k)
        prev2, prev = prev, ((k * x + d - (q * c) * one) * prev
                             - (q * e) * x * prev2)
        yield prev


def _bivar_step(k: int, c: int, e: int, prev: dict, prev2: dict) -> dict:
    """The term map of (k x + d - c) prev - e x prev2, zeros pruned.

    prev and prev2 map (i, j) to the nonzero Fraction coefficient of
    x^i d^j; k, c and e are ints, so every sum and product is a Fraction.
    """
    out: dict[tuple[int, int], Fraction] = {}
    get = out.get
    for (i, j), a in prev.items():
        key = (i + 1, j)
        s = get(key)
        out[key] = a * k if s is None else s + a * k
        key = (i, j + 1)
        s = get(key)
        out[key] = a if s is None else s + a
        if c:
            key = (i, j)
            s = get(key)
            out[key] = a * -c if s is None else s - a * c
    if e:
        for (i, j), b in prev2.items():
            key = (i + 1, j)
            s = get(key)
            out[key] = b * -e if s is None else s - b * e
    return {key: v for key, v in out.items() if v}


def _effective_two_eps(fam: ConstraintFamily, k: int) -> int:
    if not 0 <= k <= fam.N:
        raise ValueError(f"k={k} out of range 0..{fam.N}")
    return fam.two_eps if fam.variant == PLAIN else -fam.two_eps


def constraint_poly(fam: ConstraintFamily, k: int) -> BivarPoly:
    """The exact k-th constraint polynomial of the family (degree k in x)."""
    return deque(_poly_sequence(fam.N, _effective_two_eps(fam, k), k),
                 maxlen=1).pop()


def constraint_poly_at(fam: ConstraintFamily, k: int, d_value) -> UniPoly:
    """q^k P_k(x, p/q) for d = p/q in lowest terms, with int coefficients.

    A positive multiple of constraint_poly(fam, k).specialize(d_value), so
    its roots are the same.
    """
    eff = _effective_two_eps(fam, k)
    d_value = to_fraction(d_value)
    p, q = d_value.numerator, d_value.denominator
    ring = (UniPoly([1]), UniPoly([0, q]), UniPoly([p]))
    return deque(_poly_sequence(fam.N, eff, k, ring, q), maxlen=1).pop()


@dataclass(frozen=True)
class TridiagSpec:
    """Entries of the (k+1)x(k+1) tridiagonal matrix behind P_k.

    Row r holds diag[r] on the diagonal, sup[r] at (r, r+1) and sub[r] at
    (r, r-1); entries are exact polynomials in x and d.
    """

    size: int
    diag: tuple[BivarPoly, ...]
    sup: tuple[BivarPoly, ...]
    sub: tuple[BivarPoly, ...]

    def at(self, x_value, d_value) -> list[list[Fraction]]:
        """The exact matrix at (x, d), zero off the band."""
        m = [[Fraction(0)] * self.size for _ in range(self.size)]
        for r in range(self.size):
            m[r][r] = self.diag[r].evaluate(x_value, d_value)
            if r + 1 < self.size:
                m[r][r + 1] = self.sup[r].evaluate(x_value, d_value)
                m[r + 1][r] = self.sub[r].evaluate(x_value, d_value)
        return m


def tridiag_matrix(fam: ConstraintFamily, k: int) -> TridiagSpec:
    """Tridiagonal matrix whose determinant equals (-1)^k (-d) P_k.

    Entry (0, 0) is -d and the rest of its column (plain variant) or row
    (tilde variant) is zero; expanding the remaining k rows reproduces the
    recurrence for P_k up to the sign (-1)^k.
    """
    eff = _effective_two_eps(fam, k)
    x, d = BivarPoly.x(), BivarPoly.d()
    diag = tuple(r * r + r * eff - r * x - d for r in range(k + 1))
    if fam.variant == PLAIN:
        sup = tuple((r + 1) * x for r in range(k))
        sub = tuple(BivarPoly.const((fam.N - r + 1) * (r - 1))
                    for r in range(1, k + 1))
    else:
        sup = tuple(r * x for r in range(k))
        sub = tuple(BivarPoly.const((fam.N - r + 1) * r)
                    for r in range(1, k + 1))
    return TridiagSpec(size=k + 1, diag=diag, sup=sup, sub=sub)


# -- crossings ---------------------------------------------------------------

@dataclass(frozen=True)
class CrossingRecord:
    """An isolated positive root of a constraint polynomial at fixed d.

    x_root, g and lambda_ are computed on first access and kept: a
    confirmed record reads g about five times."""

    N: int
    two_eps: int
    d_value: Fraction
    root_interval: tuple[Fraction, Fraction]
    rep_pair: tuple[str, str] | None

    @cached_property
    def x_root(self) -> Fraction:
        lo, hi = self.root_interval
        return (lo + hi) / 2

    @cached_property
    def g(self) -> float:
        return math.sqrt(float(self.x_root)) / 2

    @cached_property
    def lambda_(self) -> float:
        return self.N - self.g**2 + self.two_eps / 2


def rep_pair_labels(N: int, two_eps: int) -> tuple[str, str] | None:
    """Names of the two finite-dimensional modules meeting at a crossing.

    The pairing is uniform in N and 2*eps >= 0: the eigenvalue curve from the
    plain family at level N meets the tilde curve at level N + 2*eps, carried
    by F_{N+1} and F_{N+2*eps}. Labels are only defined for eps >= 0.
    """
    if two_eps < 0:
        return None
    return (f"F_{N + 1}", f"F_{N + two_eps}")


def find_crossings(N: int, two_eps: int, d_value, precision) -> list[CrossingRecord]:
    """Isolate all positive roots of the level-N plain constraint polynomial.

    Each root is a coupling value g = sqrt(x)/2 where lambda = N - g^2 + eps
    is a doubly degenerate eigenvalue (a level crossing).
    """
    d_value = to_fraction(d_value)
    if d_value <= 0:
        raise ValueError("d must be positive")
    fam = ConstraintFamily(N, two_eps, PLAIN)
    intervals = isolate_positive_roots(constraint_poly_at(fam, N, d_value),
                                       precision)
    pair = rep_pair_labels(N, two_eps)
    return [CrossingRecord(N=N, two_eps=two_eps, d_value=d_value,
                           root_interval=iv, rep_pair=pair)
            for iv in intervals]


# -- exact identity and divisibility verifiers ---------------------------------

def verify_identity_half(N: int, fault_k: int | None = None) -> dict:
    """Check the exact ladder identity linking the two families at eps = 1/2.

    For every k in 0..N the tilde polynomial at level N+1 factors through the
    plain one at level N:
        tilde P_{k+1}  ==  [(k+1) x + d] P_k  -  k(k+1)(N-k) x P_{k-1}.
    The plain recurrence at 2 eps = 1 reads
        P_{k+1}  ==  [(k+1) x + d - (k+1)(k+2)] P_k  -  k(k+1)(N-k) x P_{k-1},
    so the identity is equivalent to
        tilde P_{k+1}  ==  P_{k+1}  +  (k+1)(k+2) P_k,
    which is the form checked: the plain sequence is walked to P_{N+1} in
    step with the tilde one (at k = N its back coefficient (N-k) is 0), and
    each k costs a scaled sum instead of a bivariate product.
    Returns a report dict; fault_k (used by the CLI self-test) perturbs one
    coefficient of the right side so the failure path is observable.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    plain = _poly_sequence(N, 1, N + 1)
    tilde = _poly_sequence(N + 1, -1, N + 1)
    next(tilde)  # tilde P_0 = 1 pairs with no plain term
    failures = []
    p_k = next(plain)
    for k, (p_next, tilde_next) in enumerate(zip(plain, tilde)):
        rhs = p_next + ((k + 1) * (k + 2)) * p_k
        if fault_k is not None and k == fault_k:
            rhs = rhs + BivarPoly.x()
        if tilde_next != rhs:
            failures.append(k)
        p_k = p_next
    return {"N": N, "checked": N + 1, "failures": failures,
            "ok": not failures}


def verify_conjecture(N: int, ell: int) -> dict:
    """Divide the tilde polynomial at level N+ell by the plain one at level N.

    At eps = ell/2 the quotient is conjectured to be a polynomial with integer
    coefficients, positive for all x > 0. The report states (a) whether the
    remainder vanishes exactly, (b) whether the quotient has integer
    coefficients, and (c) positivity at every sample of DEFAULT_GRID. A
    failing (a) is evidence against the conjecture and is reported, never
    raised.
    """
    if N < 1 or ell < 0:
        raise ValueError("need N >= 1 and ell >= 0")
    num = constraint_poly(ConstraintFamily(N + ell, ell, TILDE), N + ell)
    den = constraint_poly(ConstraintFamily(N, ell, PLAIN), N)
    quot, rem = poly_div_x(num, den)
    positivity = [((xv, dv), quot.evaluate(xv, dv) > 0)
                  for xv, dv in DEFAULT_GRID]
    all_positive = all(flag for _, flag in positivity)
    report = {
        "N": N,
        "ell": ell,
        "remainder_zero": rem.is_zero(),
        "integer_coeffs": quot.has_integer_coeffs(),
        "positivity": positivity,
        "all_positive": all_positive,
        "quotient": quot,
    }
    report["ok"] = (report["remainder_zero"] and report["integer_coeffs"]
                    and all_positive)
    return report


def crossing_refiner(precision) -> Callable[[CrossingRecord], CrossingRecord]:
    """A function that returns a record with its root interval shrunk to
    width <= precision. P_N at d and its square-free part are built once for
    each (N, 2 eps, d) the records share, and go with the function."""
    refiners = {}

    def refine(rec: CrossingRecord) -> CrossingRecord:
        key = (rec.N, rec.two_eps, rec.d_value)
        if key not in refiners:
            fam = ConstraintFamily(rec.N, rec.two_eps, PLAIN)
            refiners[key] = root_refiner(
                constraint_poly_at(fam, rec.N, rec.d_value))
        interval = refiners[key](rec.root_interval, precision)
        return CrossingRecord(N=rec.N, two_eps=rec.two_eps,
                              d_value=rec.d_value, root_interval=interval,
                              rep_pair=rec.rep_pair)

    return refine
