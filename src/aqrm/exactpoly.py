"""Exact rational polynomial arithmetic and real root isolation.

Everything downstream that claims an identity holds "exactly" routes through
this module: bivariate polynomials in the coupling variable x = (2g)^2 and the
level-splitting variable d = Delta^2 with Fraction coefficients, univariate
specializations, exact division along x, and Sturm-sequence isolation of
positive real roots.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


class BivarPoly:
    """Polynomial in x and d, stored as a map (i, j) -> coefficient of x^i d^j.

    Coefficients are Fractions; zero coefficients are never stored, so equality
    of term maps is equality of polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                c = to_fraction(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "BivarPoly":
        return cls({(0, 0): to_fraction(c)})

    @classmethod
    def x(cls) -> "BivarPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def d(cls) -> "BivarPoly":
        return cls({(0, 1): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "BivarPoly":
        other = _coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BivarPoly(out)

    def __sub__(self, other) -> "BivarPoly":
        return self + (-_coerce(other))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "BivarPoly":
        other = _coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return BivarPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "BivarPoly":
        return _coerce(other) - self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.const(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------

    def deg_x(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return max((i for (i, _) in self.terms), default=-1)

    def coeff_in_d(self, i: int) -> dict[int, Fraction]:
        """Coefficient of x^i as a map j -> coefficient of d^j."""
        return {j: c for (ii, j), c in self.terms.items() if ii == i}

    def leading_x_coeff(self) -> dict[int, Fraction]:
        return self.coeff_in_d(self.deg_x())

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def evaluate(self, x_value, d_value) -> Fraction:
        xv, dv = to_fraction(x_value), to_fraction(d_value)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * xv**i * dv**j
        return total

    def specialize(self, d_value) -> "UniPoly":
        """Substitute d -> d_value, returning a univariate polynomial in x."""
        dv = to_fraction(d_value)
        n = self.deg_x()
        coeffs = [Fraction(0)] * (n + 1)
        for (i, j), c in self.terms.items():
            coeffs[i] += c * dv**j
        return UniPoly(coeffs)

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, self.terms[(i, j)])
                for (i, j) in sorted(self.terms, reverse=True)]

    def to_text(self) -> str:
        """Canonical text: terms like c*x^i*d^j sorted by (i, j) descending."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, j, c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(c)))
            if i > 0:
                factors.append("x" if i == 1 else f"x^{i}")
            if j > 0:
                factors.append("d" if j == 1 else f"d^{j}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> str:
        return json.dumps(
            {"terms": [[i, j, str(c)] for i, j, c in self.sorted_terms()]})

    @classmethod
    def from_json(cls, text: str) -> "BivarPoly":
        data = json.loads(text)
        return cls({(int(i), int(j)): Fraction(c) for i, j, c in data["terms"]})

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_text()})"


def _coerce(value) -> BivarPoly:
    if isinstance(value, BivarPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BivarPoly.const(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


# -- division along x --------------------------------------------------------

def poly_div_x(num: BivarPoly, den: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
    """Divide num by den treating x as the main variable.

    Returns (quotient, remainder) with num = quotient*den + remainder and
    deg_x(remainder) < deg_x(den), all exactly. den's leading x-coefficient
    must be a nonzero constant (true of every P_N, whose leading coefficient
    is N!); a leading coefficient that depends on d raises ValueError.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    dn = den.deg_x()
    lead = den.leading_x_coeff()
    if set(lead) != {0}:
        raise ValueError("leading x-coefficient of the divisor depends on d")
    lead = lead[0]
    quot = BivarPoly.zero()
    rem = num
    while not rem.is_zero() and rem.deg_x() >= dn:
        rdeg = rem.deg_x()
        factor = BivarPoly({(rdeg - dn, j): c / lead
                            for j, c in rem.coeff_in_d(rdeg).items()})
        quot = quot + factor
        rem = rem - factor * den
    return quot, rem


# -- univariate layer ---------------------------------------------------------

class UniPoly:
    """Univariate polynomial with Fraction coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [to_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, point) -> Fraction:
        pt = to_fraction(point)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * pt + c
        return total

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([to_fraction(other) * c for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __divmod__(self, den: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dn = den.degree()
        lead = den.coeffs[-1]
        quot = [Fraction(0)] * max(0, len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = rem[k + dn] / lead
            quot[k] = c
            if c:
                for i, b in enumerate(den.coeffs):
                    rem[k + i] -= c * b
        return UniPoly(quot), UniPoly(rem[:dn])

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


# -- Sturm sequences and root isolation ---------------------------------------

def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, r = divmod(chain[-2], chain[-1])
        chain.append(-r)
    chain.pop()
    return chain


def _variations(chain: list[UniPoly], point: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(point)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count(chain: list[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_bound(p: UniPoly) -> Fraction:
    lead = abs(p.coeffs[-1])
    return 1 + max(abs(c) for c in p.coeffs) / lead


def isolate_positive_roots(p: UniPoly, precision) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for every positive real root of p.

    Each returned (lo, hi) has width <= precision and contains exactly one
    root counted in the half-open sense (lo, hi]; intervals are disjoint and
    sorted. Exact rational arithmetic throughout.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    precision = to_fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    coeffs = list(p.coeffs)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)  # roots at x = 0 are not positive
    p = UniPoly(coeffs)
    if p.degree() <= 0:
        return []
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    found: list[tuple[Fraction, Fraction]] = []
    stack = [(Fraction(0), bound, _count(chain, Fraction(0), bound))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            found.append(_refine(chain, p, lo, hi, precision))
            continue
        mid = _root_free_midpoint(p, lo, hi)
        left = _count(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, k - left))
    return sorted(found)


def _root_free_midpoint(p: UniPoly, lo: Fraction, hi: Fraction) -> Fraction:
    mid = (lo + hi) / 2
    step = (hi - lo) / 4
    while not p(mid):
        # nudge until the split point itself is not a root
        step /= 2
        mid += step
    return mid


def _refine(chain, p: UniPoly, lo: Fraction, hi: Fraction,
            precision: Fraction) -> tuple[Fraction, Fraction]:
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if not p(mid):
            # the midpoint is the root itself; collapse onto it
            return (mid, mid)
        if _count(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def refine_isolated(p: UniPoly, interval: tuple, precision) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval (half-open, exactly one root) to width <= precision."""
    lo, hi = to_fraction(interval[0]), to_fraction(interval[1])
    if lo == hi:
        return (lo, hi)
    chain = sturm_chain(p)
    if _count(chain, lo, hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    return _refine(chain, p, lo, hi, to_fraction(precision))


def positive_root_count(p: UniPoly) -> int:
    """Number of distinct positive real roots, by Sturm's method."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = list(p.coeffs)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    p = UniPoly(coeffs)
    if p.degree() <= 0:
        return 0
    chain = sturm_chain(p)
    return _count(chain, Fraction(0), cauchy_bound(p))
