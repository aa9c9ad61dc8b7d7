"""Exact rational polynomial arithmetic and real root isolation.

Everything downstream that claims an identity holds "exactly" routes through
this module: bivariate polynomials in the coupling variable x = (2g)^2 and the
level-splitting variable d = Delta^2 with Fraction coefficients, univariate
polynomials whose coefficients are exact rationals (int where integral,
Fraction otherwise, never float), exact division along x, and isolation of
positive real roots by Descartes' rule of signs on integer polynomials.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot build an exact rational from {value!r}")


def to_exact(value) -> int | Fraction:
    """Like to_fraction, but an integral value comes back as int."""
    if type(value) is int:
        return value
    value = to_fraction(value)
    return value.numerator if value.denominator == 1 else value


class BivarPoly:
    """Polynomial in x and d, stored as a map (i, j) -> coefficient of x^i d^j.

    Coefficients are Fractions and zero coefficients are never stored, so
    equality of term maps is equality of polynomials. The constructor
    validates its input: it coerces every coefficient with to_fraction and
    drops the zeros. Ring operations keep the invariant themselves (Fractions
    combine into Fractions, and each result is pruned of zeros) and build
    their results with _raw, which stores the map as it is.
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

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], Fraction]) -> "BivarPoly":
        """Wrap a term map that already holds nonzero Fractions only."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

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
        return _merge(self.terms, _coerce(other).terms.items())

    def __sub__(self, other) -> "BivarPoly":
        return _merge(self.terms,
                      ((k, -c) for k, c in _coerce(other).terms.items()))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._raw({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "BivarPoly":
        other = _coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        get = out.get
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return BivarPoly._raw({k: c for k, c in out.items() if c})

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

    def leading_x_coeff(self) -> dict[int, Fraction]:
        """Coefficient of the top power of x as a map j -> coefficient of d^j."""
        n = self.deg_x()
        return {j: c for (i, j), c in self.terms.items() if i == n}

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

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_text()})"


def _merge(terms: dict, items) -> BivarPoly:
    """The polynomial with term map terms plus the (key, coefficient) items."""
    out = dict(terms)
    for k, c in items:
        s = out.get(k)
        if s is None:
            out[k] = c
            continue
        s += c
        if s:
            out[k] = s
        else:
            del out[k]
    return BivarPoly._raw(out)


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
        factor = BivarPoly({(i - dn, j): c / lead
                            for (i, j), c in rem.terms.items() if i == rdeg})
        quot = quot + factor
        rem = rem - factor * den
    return quot, rem


# -- univariate layer ---------------------------------------------------------

class UniPoly:
    """Univariate polynomial, ascending degree, with exact rational coefficients.

    A coefficient is stored as int when it is integral and as Fraction
    otherwise, so a polynomial built from ints computes in ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [to_exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, point) -> int | Fraction:
        pt = to_exact(point)
        total = 0
        for c in reversed(self.coeffs):
            total = total * pt + c
        return total

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, c) -> "UniPoly":
        """The polynomial t -> p(t + c)."""
        return UniPoly(_shift(self.coeffs, c))

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
        if not isinstance(other, UniPoly):
            return UniPoly([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
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
        quot = [0] * max(0, len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = Fraction(rem[k + dn], lead)
            quot[k] = c
            if c:
                for i, b in enumerate(den.coeffs):
                    rem[k + i] -= c * b
        return UniPoly(quot), UniPoly(rem[:dn])

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


# -- root isolation on integer polynomials ------------------------------------
#
# Roots are isolated by Descartes' rule of signs on a bisection tree over
# (0, 2^e], 2^e a power-of-two bound above every positive root
# (Vincent-Collins-Akritas; Rouillier & Zimmermann, "Efficient isolation of
# polynomial's real roots", 2004). Each cell (lo, hi) carries a positive
# multiple of s(lo + (hi - lo) t) with int coefficients, s the square-free
# part of p, so the sign pattern of a cell is exact integer arithmetic. Cell
# endpoints are dyadic, so the cell coefficients stay small; once a cell holds
# one root it is bisected on the sign of its cell polynomial alone, at dyadic
# points of the cell.

#: primes for the square-free certificate (gcd(s, s') computed modulo one)
_CERT_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def _integer_coeffs(coeffs) -> list[int]:
    """Primitive int coefficients of a positive multiple of the polynomial."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _gcd_degree_mod(a: list[int], b: list[int], prime: int) -> int:
    """Degree of gcd(a mod prime, b mod prime) over GF(prime)."""
    def reduce(cs):
        cs = [c % prime for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        return cs

    a, b = reduce(a), reduce(b)
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            f = a[-1] * inv % prime
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - f * c) % prime
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _square_free(a: list[int]) -> list[int]:
    """Primitive int polynomial a / gcd(a, a'): the distinct roots of a, each simple.

    A gcd of degree 0 modulo a prime not dividing the leading coefficient
    proves a square-free, which skips the exact rational Euclid in the
    common case.
    """
    deriv = [i * c for i, c in enumerate(a)][1:]
    for prime in _CERT_PRIMES:
        if a[-1] % prime:
            if _gcd_degree_mod(a, deriv, prime) == 0:
                return a
            break
    g, r = UniPoly(a), UniPoly(deriv)
    while not r.is_zero():
        g, r = r, divmod(g, r)[1]
    return _integer_coeffs(divmod(UniPoly(a), g)[0].coeffs)


def _shift(a: Iterable, c: int) -> list:
    """Coefficients of a(t + c), by the classical Taylor-shift scheme."""
    a = list(a)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _cell_poly(s: list[int], lo: Fraction, hi: Fraction) -> list[int]:
    """Primitive int coefficients of a positive multiple of s(lo + (hi - lo) t)."""
    m = math.lcm(lo.denominator, hi.denominator)
    n = len(s) - 1
    scaled = [c * m ** (n - i) for i, c in enumerate(s)]  # m^n s(y / m)
    width = int((hi - lo) * m)
    return _integer_coeffs([c * width**i for i, c in
                            enumerate(_shift(scaled, int(lo * m)))])


def _halves(q: list[int]) -> tuple[list[int], list[int]]:
    """Cell polynomials of the left and right halves of q's cell.

    The left half is 2^n q(t/2); the right half is the left one shifted by 1,
    so its constant term is 2^n q(1/2) and vanishes exactly when the
    midpoint is a root.
    """
    n = len(q) - 1
    left = [c << (n - i) for i, c in enumerate(q)]
    return left, _shift(left, 1)


def _descartes(q: list[int]) -> int:
    """Sign changes of (1 + t)^n q(1 / (1 + t)), capped at 2.

    0 and 1 are the exact number of roots of q in (0, 1); 2 means "split".
    The coefficients are those of the Taylor shift by 1 of q reversed, in
    which coefficient i is final after pass i, so the shift stops at the
    second sign change.
    """
    a = q[::-1]
    n = len(a) - 1
    changes, last = 0, 0
    for i in range(n + 1):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
        c = a[i]
        if c:
            if last and (c > 0) != (last > 0):
                changes += 1
                if changes == 2:
                    return 2
            last = c
    return changes


def _roots_in_cell(q: list[int]) -> int:
    """Exact number of roots of the square-free q in (0, 1)."""
    found = _descartes(q)
    if found < 2:
        return found
    left, right = _halves(q)
    return _roots_in_cell(left) + _roots_in_cell(right) + (not right[0])


def _ceil_log2(num: int, den: int) -> int:
    """The least integer c with num <= den * 2^c, for positive num and den."""
    c = num.bit_length() - den.bit_length()
    fits = den << c >= num if c >= 0 else den >= num << -c
    return c if fits else c + 1


def _root_bound(a: list[int]) -> Fraction:
    """A power of two 2^e above every positive root of a; 0 if a has none.

    Kioustelidis' bound 2 max (|a_i| / |a_n|)^(1 / (n - i)), over the a_i of
    sign opposite to a_n, with each root rounded up to a power of two: at
    x >= 2^e the leading term outweighs the sum of those terms, so no root
    lies there.
    """
    n, lead = len(a) - 1, a[-1]
    exps = [-(-_ceil_log2(abs(c), abs(lead)) // (n - i))
            for i, c in enumerate(a[:-1]) if c and (c > 0) != (lead > 0)]
    return Fraction(2) ** (max(exps) + 1) if exps else Fraction(0)


def _positive_part(p: UniPoly) -> list[int]:
    """Int coefficients of p with its roots at 0 removed."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    coeffs = list(p.coeffs)
    while not coeffs[0]:
        coeffs.pop(0)  # roots at x = 0 are not positive
    return _integer_coeffs(coeffs)


def isolate_positive_roots(p: UniPoly, precision) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for every positive real root of p.

    The intervals are sorted and disjoint. Each (lo, hi) holds exactly one
    root of p in the half-open sense (lo, hi] and has width <= precision;
    (a, a) appears only when a is an exact root. Exact rational arithmetic
    throughout.

    The intervals are those of plain bisection of (0, 2^e], 2^e the
    power-of-two root bound of the square-free part of p: a cell with two or
    more roots is split at its midpoint (nudged right by (hi - lo)/8, /16,
    ... while that is a root), and a cell with one root is halved towards
    the root until it is at most precision wide, or collapses to (mid, mid)
    when a midpoint is the root.
    """
    a = _positive_part(p)
    precision = to_fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    s = _square_free(a)
    top = _root_bound(s)
    if not top:
        return []
    found: list[tuple[Fraction, Fraction]] = []
    stack = [(Fraction(0), top, _cell_poly(s, Fraction(0), top))]
    while stack:
        lo, hi, q = stack.pop()
        count = _descartes(q)
        if count == 2:
            left, right = _halves(q)
            # plain bisection drops a root-free cell and halves a one-root
            # cell towards its root, which is this same split unless the
            # cell is narrow enough already or its midpoint is a root
            if not right[0] or hi - lo <= precision:
                count = _roots_in_cell(q)
        if count == 1:
            found.append(_refine(q, lo, hi, precision))
        if count < 2:
            continue
        mid = (lo + hi) / 2
        if right[0]:
            stack += [(lo, mid, left), (mid, hi, right)]
            continue
        step = (hi - lo) / 4
        while not p(mid):
            step /= 2
            mid += step
        stack += [(lo, mid, _cell_poly(s, lo, mid)),
                  (mid, hi, _cell_poly(s, mid, hi))]
    return sorted(found)


def _refine(q: list[int], lo: Fraction, hi: Fraction,
            precision: Fraction) -> tuple[Fraction, Fraction]:
    """Halve (lo, hi], which holds exactly one root of its cell polynomial q.

    After k halvings the cell is (a, a + 1] / 2^k in t, x = lo + (hi - lo) t.
    Its midpoint t = m / 2^k, m = 2a + 1, is tested by the sign of
    2^(kn) q(m / 2^k), an integer Horner sum with shifts; Fractions are formed
    only for the result.
    """
    width = hi - lo
    ratio = width / precision
    # the fewest halvings that bring the width to precision
    steps = max(0, _ceil_log2(ratio.numerator, ratio.denominator))
    n = len(q) - 1
    total = sum(q)  # q(1), the sign at hi
    sign_hi = (total > 0) - (total < 0)
    a = 0
    for k in range(1, steps + 1):
        m = 2 * a + 1
        acc = q[-1]
        for i in range(n - 1, -1, -1):
            acc = acc * m + (q[i] << k * (n - i))
        if not acc:
            # the midpoint is the root itself; collapse onto it
            mid = lo + width * Fraction(m, 1 << k)
            return (mid, mid)
        a = 2 * a if (acc > 0) - (acc < 0) == sign_hi else m
    cell = width / (1 << steps)
    return (lo + a * cell, lo + (a + 1) * cell)


def root_refiner(p: UniPoly) -> Callable[..., tuple[Fraction, Fraction]]:
    """A function refine(interval, precision) that shrinks an isolating
    interval of p (half-open, exactly one root) to width <= precision. It
    raises ValueError unless the interval holds exactly one root. The
    square-free part of p is built on the first call that needs it and kept
    for the rest, so many intervals of one p share it."""
    s: list[int] | None = None

    def refine(interval: tuple, precision) -> tuple[Fraction, Fraction]:
        nonlocal s
        lo, hi = to_fraction(interval[0]), to_fraction(interval[1])
        if lo == hi and not p.is_zero() and p(lo) == 0:
            return (lo, hi)
        if p.is_zero() or lo >= hi:
            raise ValueError("interval does not isolate exactly one root")
        precision = to_fraction(precision)
        if precision <= 0:
            raise ValueError("precision must be positive")
        if s is None:
            s = _square_free(_integer_coeffs(p.coeffs))
        if len(s) <= 1:
            raise ValueError("interval does not isolate exactly one root")
        q = _cell_poly(s, lo, hi)
        if _roots_in_cell(q) + (not p(hi)) != 1:
            raise ValueError("interval does not isolate exactly one root")
        return _refine(q, lo, hi, precision)

    return refine
