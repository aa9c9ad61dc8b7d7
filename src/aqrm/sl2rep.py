"""Exact shift operators for the sl2 principal-series actions.

The weight modules V_{j,a} (j = 1 spherical, j = 2 non-spherical) have the
basis e_n, n running over all integers. Every operator here is a finite sum
sum_s c_s(n) T^s with T^s e_n = e_{n+s}, so it sends e_n to
sum_s c_s(n) e_{n+s}, and each c_s is an exact polynomial in the weight n.
The generators are single shifts with coefficients affine in n, and sums and
products stay in this form. The commutation relations, the Casimir scalar and
the mixed commutator are therefore checked as equalities of coefficient
polynomials: they hold for every weight, not only on a window. The window in
RepParams only chooses which matrix entries the matrix, entry and column
views show.

The module also hosts the second-order element K(alpha, beta, gamma; C) =
[H/2 - E + alpha](F + beta) + gamma[H - 1/2] + C whose eigenvalue problem,
for the two parameter substitutions in reduction_kparams, is the sl2 face of
the spectral problem: its finite-block restrictions are the constraint
tridiagonal matrices and its conjugated image is a confluent Heun operator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .exactpoly import UniPoly, to_fraction

GENERATORS = ("H", "E", "F")


@dataclass(frozen=True)
class RepParams:
    """Principal-series label (j, a) plus the weight window the matrix views show."""

    j: int
    a: Fraction
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.j not in (1, 2):
            raise ValueError("j must be 1 or 2")
        if self.n_min > self.n_max:
            raise ValueError("empty window")
        object.__setattr__(self, "a", to_fraction(self.a))

    @property
    def width(self) -> int:
        return self.n_max - self.n_min + 1


def _shifted(p: UniPoly, s: int) -> UniPoly:
    """The polynomial n -> p(n + s)."""
    out, step = UniPoly([]), UniPoly([s, 1])
    for c in reversed(p.coeffs):
        out = out * step + UniPoly([c])
    return out


def _add_term(terms: dict[int, UniPoly], s: int, p: UniPoly) -> None:
    terms[s] = terms[s] + p if s in terms else p


@dataclass(frozen=True)
class RepOperator:
    """The operator e_n -> sum_s terms[s](n) e_{n+s}, exact for every weight n."""

    params: RepParams
    terms: dict[int, UniPoly]

    def __post_init__(self):
        object.__setattr__(self, "terms", {s: p for s, p in self.terms.items()
                                           if not p.is_zero()})

    def __add__(self, other: "RepOperator") -> "RepOperator":
        terms = dict(self.terms)
        for s, p in other.terms.items():
            _add_term(terms, s, p)
        return RepOperator(self.params, terms)

    def __sub__(self, other: "RepOperator") -> "RepOperator":
        return self + other.scale(-1)

    def __matmul__(self, other: "RepOperator") -> "RepOperator":
        """Composition: (p T^s)(q T^t) = p(n+t) q(n) T^(s+t)."""
        terms: dict[int, UniPoly] = {}
        for t, q in other.terms.items():
            for s, p in self.terms.items():
                _add_term(terms, s + t, _shifted(p, t) * q)
        return RepOperator(self.params, terms)

    def scale(self, c) -> "RepOperator":
        c = to_fraction(c)
        return RepOperator(self.params,
                           {s: p * c for s, p in self.terms.items()})

    def entry(self, n_row: int, n_col: int) -> Fraction:
        """Matrix entry addressed by weight indices."""
        p = self.terms.get(n_row - n_col)
        return Fraction(0) if p is None else p(n_col)

    def column(self, n: int) -> list[Fraction]:
        """Image of e_n, restricted to the window."""
        p = self.params
        return [self.entry(n_row, n) for n_row in range(p.n_min, p.n_max + 1)]

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The window block, rows and columns in increasing weight."""
        w = range(self.params.n_min, self.params.n_max + 1)
        return tuple(tuple(self.entry(r, c) for c in w) for r in w)


def identity_op(params: RepParams, c=1) -> RepOperator:
    return RepOperator(params, {0: UniPoly([c])})


def rep_generator(params: RepParams, gen: str) -> RepOperator:
    """One generator as a single shift with a coefficient affine in n.

    H e_n = (2n + o) e_n, E e_n = (n + (a+o)/2) e_{n+1} and
    F e_n = (-n + (a-o)/2) e_{n-1}, with o = 0 for j = 1 and o = 1 for j = 2.
    """
    o, a = params.j - 1, params.a
    actions = {"H": (0, [o, 2]), "E": (1, [(a + o) / 2, 1]),
               "F": (-1, [(a - o) / 2, -1])}
    if gen not in actions:
        raise ValueError(f"unknown generator {gen!r}")
    shift, coeffs = actions[gen]
    return RepOperator(params, {shift: UniPoly(coeffs)})


def _report(deltas) -> dict:
    deltas = [v for v in deltas if v]
    return {"mismatches": len(deltas),
            "max_discrepancy": max(deltas, key=abs, default=Fraction(0)),
            "ok": not deltas}


def compare(lhs: RepOperator, rhs: RepOperator) -> dict:
    """Coefficientwise comparison, valid for every weight.

    mismatches counts the nonzero coefficients of lhs - rhs over all shifts
    and powers of n; max_discrepancy is the largest of them in absolute value.
    """
    return _report(c for p in (lhs - rhs).terms.values() for c in p.coeffs)


# -- the second-order element K ------------------------------------------------

@dataclass(frozen=True)
class KParams:
    """Parameters (alpha, beta, gamma; C) of the element K."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    C: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "C"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))

    def lambda_a(self, a) -> Fraction:
        """The scalar beta(a/2 + alpha) + gamma(a - 1/2) split off by K."""
        a = to_fraction(a)
        return self.beta * (a / 2 + self.alpha) + self.gamma * (a - Fraction(1, 2))


def assemble_K(params: RepParams, kp: KParams) -> RepOperator:
    """The operator [H/2 - E + alpha](F + beta) + gamma[H - 1/2] + C."""
    H, E, F = (rep_generator(params, gen) for gen in GENERATORS)
    left = H.scale(Fraction(1, 2)) - E + identity_op(params, kp.alpha)
    right = F + identity_op(params, kp.beta)
    tail = H.scale(kp.gamma) + identity_op(params, kp.C - kp.gamma / 2)
    return left @ right + tail


def mu_value(lambda_, g2, d) -> Fraction:
    """The accessory constant (lambda+g^2)^2 - 4g^2(lambda+g^2) - d."""
    lam, g2, d = to_fraction(lambda_), to_fraction(g2), to_fraction(d)
    s = lam + g2
    return s * s - 4 * g2 * s - d


def reduction_kparams(which: int, lambda_, g2, d, eps) -> tuple[KParams, Fraction]:
    """K-parameters and weight label a for the two eigenproblem reductions.

    which = 1 carries the component analytic at z = -g; which = 2 the one
    analytic at z = +g (equivalently, eps negated together with a unit shift
    of the weight label).
    """
    lam, g2 = to_fraction(lambda_), to_fraction(g2)
    d, eps = to_fraction(d), to_fraction(eps)
    s = lam + g2
    mu = mu_value(lam, g2, d)
    if which == 1:
        kp = KParams(alpha=1 - (s - eps) / 2,
                     beta=4 * g2,
                     gamma=Fraction(1, 2) - (s + eps) / 2,
                     C=mu + 4 * eps * g2 - eps * eps)
        a = -(s - eps)
    elif which == 2:
        kp = KParams(alpha=-Fraction(1, 2) - (s + eps) / 2,
                     beta=4 * g2,
                     gamma=-(s - eps) / 2,
                     C=mu - 4 * eps * g2 - eps * eps)
        a = -(s - 1 + eps)
    else:
        raise ValueError("which must be 1 or 2")
    return kp, a


# -- verification reports -------------------------------------------------------

def commutation_relations_check(params: RepParams) -> dict:
    """[H,E] = 2E, [H,F] = -2F, [E,F] = H as coefficient polynomials."""
    H, E, F = (rep_generator(params, gen) for gen in GENERATORS)
    checks = {
        "HE": compare(H @ E - E @ H, E.scale(2)),
        "HF": compare(H @ F - F @ H, F.scale(-2)),
        "EF": compare(E @ F - F @ E, H),
    }
    return {"checks": checks, "ok": all(c["ok"] for c in checks.values())}


def casimir(params: RepParams) -> RepOperator:
    """Omega = H^2 + 2EF + 2FE."""
    H, E, F = (rep_generator(params, gen) for gen in GENERATORS)
    return H @ H + (E @ F).scale(2) + (F @ E).scale(2)


def casimir_scalar_check(params: RepParams) -> dict:
    """Omega acts by the scalar a(a-2) on every weight."""
    scalar = params.a * (params.a - 2)
    report = compare(casimir(params), identity_op(params, scalar))
    report["scalar"] = scalar
    return report


def commutator_check(params: RepParams, lambda_, g2, d, eps) -> dict:
    """Exact identity for [K, Ktilde] built from the two reductions.

    [K, Kt] = (eps+3/2)(H+F)(F+4g^2) + (eps-1/2)(8g^2 E + HF)
              - 2(eps+1/2)(lambda+g^2-1/2) F
    holds as coefficient polynomials for any label (j, a), with K and Ktilde
    assembled at the same (lambda, g^2, d, eps).
    """
    lam, g2 = to_fraction(lambda_), to_fraction(g2)
    d, eps = to_fraction(d), to_fraction(eps)
    kp1, _ = reduction_kparams(1, lam, g2, d, eps)
    kp2, _ = reduction_kparams(2, lam, g2, d, eps)
    K = assemble_K(params, kp1)
    Kt = assemble_K(params, kp2)
    lhs = K @ Kt - Kt @ K
    H, E, F = (rep_generator(params, gen) for gen in GENERATORS)
    t1 = ((H + F) @ (F + identity_op(params, 4 * g2))).scale(eps + Fraction(3, 2))
    t2 = (E.scale(8 * g2) + H @ F).scale(eps - Fraction(1, 2))
    t3 = F.scale(2 * (eps + Fraction(1, 2)) * (lam + g2 - Fraction(1, 2)))
    report = compare(lhs, t1 + t2 - t3)
    report["params"] = {"lambda": str(lam), "g2": str(g2), "d": str(d),
                        "eps": str(eps), "j": params.j, "a": str(params.a)}
    return report


def _closure_ok(params: RepParams, block: range) -> bool:
    """True when the span of the block weights is stable under H, E and F."""
    return all(n + s in block or not p(n)
               for gen in GENERATORS
               for s, p in rep_generator(params, gen).terms.items()
               for n in block)


def invariant_subspace_check(j: int, m: int) -> dict:
    """Finite-block closure and boundary annihilation for the reducible labels."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lo, hi = -m - 3, m + 3
    report: dict = {"j": j, "m": m}
    if j == 1:
        inner = RepParams(1, Fraction(2 - 2 * m), lo, hi)
        report["finite_block_closed"] = _closure_ok(inner, range(-m + 1, m))
        odd = RepParams(1, Fraction(-2 * m), lo, hi)
        report["odd_block_closed"] = _closure_ok(odd, range(-m, m + 1))
        bnd = RepParams(1, Fraction(2 * m), lo, hi)
        report["lowest_weight_killed"] = not any(
            rep_generator(bnd, "F").column(m))
        report["highest_weight_killed"] = not any(
            rep_generator(bnd, "E").column(-m))
    else:
        inner = RepParams(2, Fraction(1 - 2 * m), lo, hi)
        report["finite_block_closed"] = _closure_ok(inner, range(-m, m))
        bnd = RepParams(2, Fraction(2 * m + 1), lo, hi)
        report["lowest_weight_killed"] = not any(
            rep_generator(bnd, "F").column(m))
        report["highest_weight_killed"] = not any(
            rep_generator(bnd, "E").column(-m - 1))
    report["ok"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


def intertwiner_check(a, window: tuple[int, int]) -> dict:
    """Diagonal equivalence between the spherical actions at a and 2 - a.

    A = diag(c_n) with c_n = prod_{k=1..|n|} (k - a/2)/(k - 1 + a/2) satisfies
    A pi_a(X) = pi_{2-a}(X) A for every generator X. A is not polynomial in
    n, so for the shift s of X the check compares
    c_{n+s} x_a(n) = x_{2-a}(n) c_n entrywise, for n and n + s strictly
    inside the window. Requires a not an even integer so no factor
    degenerates.
    """
    a = to_fraction(a)
    if a.denominator == 1 and a.numerator % 2 == 0:
        raise ValueError("a must not be an even integer")
    n_min, n_max = window
    pa = RepParams(1, a, n_min, n_max)
    pb = RepParams(1, 2 - a, n_min, n_max)
    inner = range(n_min + 1, n_max)
    c = {n: prod((k - a / 2) / (k - 1 + a / 2) for k in range(1, abs(n) + 1))
         for n in inner}
    checks = {}
    for gen in GENERATORS:
        x_a, x_b = rep_generator(pa, gen), rep_generator(pb, gen)
        checks[gen] = _report(
            c[n + s] * x_a.entry(n + s, n) - x_b.entry(n + s, n) * c[n]
            for s in x_a.terms for n in inner if n + s in inner)
    return {"a": a, "checks": checks,
            "ok": all(r["ok"] for r in checks.values())}


# -- bridges to the constraint families -----------------------------------------

def eigenproblem_window(N: int, two_eps: int, variant: str, g2, d,
                        margin: int = 3) -> dict:
    """Representation data behind one constraint family at level N.

    Returns the window parameters, the K-parameters of the matching reduction,
    the scalar Lambda_a, and the weight indices in matrix row order (row r of
    the constraint tridiagonal corresponds to the r-th listed weight vector).
    """
    if margin < 2:
        raise ValueError("margin must be >= 2")
    g2, d = to_fraction(g2), to_fraction(d)
    eps = Fraction(two_eps, 2)
    if variant == "plain":
        lam = N - g2 + eps
        which = 1
        if N % 2 == 0:
            m = N // 2
            j, rows = 1, [m - r for r in range(N + 1)]
        else:
            m = (N + 1) // 2
            j, rows = 2, [m - 1 - r for r in range(N + 1)]
    elif variant == "tilde":
        lam = N - g2 - eps
        which = 2
        if N % 2 == 0:
            m = N // 2
            j, rows = 2, [m - r for r in range(N + 1)]
        else:
            m = (N - 1) // 2
            j, rows = 1, [m + 1 - r for r in range(N + 1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    kp, a = reduction_kparams(which, lam, g2, d, eps)
    params = RepParams(j, a, min(rows) - margin, max(rows) + margin)
    return {"params": params, "kparams": kp, "a": a, "lambda": lam,
            "rows": rows, "Lambda_a": kp.lambda_a(a)}


def k_block_minus_lambda(N: int, two_eps: int, variant: str, g2, d) -> list[list[Fraction]]:
    """The (N+1)x(N+1) block of pi(K) - Lambda_a in constraint row order."""
    data = eigenproblem_window(N, two_eps, variant, g2, d)
    op = assemble_K(data["params"], data["kparams"]) - identity_op(
        data["params"], data["Lambda_a"])
    rows = data["rows"]
    return [[op.entry(rn, cn) for cn in rows] for rn in rows]
