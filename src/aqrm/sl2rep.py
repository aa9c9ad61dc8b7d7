"""Exact shift operators for the sl2 principal-series actions.

The weight modules V_{j,a} (j = 1 spherical, j = 2 non-spherical) have the
basis e_n, n running over all integers. Every operator here is a finite sum
sum_s c_s(n) T^s with T^s e_n = e_{n+s}, so it sends e_n to
sum_s c_s(n) e_{n+s}, and each c_s is an exact polynomial in the weight n.
The generators are single shifts with coefficients affine in n, and sums and
products stay in this form. Every report here is therefore an identity in n
that holds for every weight: commutation relations, Casimir scalar, mixed
commutator, the intertwiner between a and 2 - a, finite-block closure. No
operator or check reads the window in RepParams. The weight n stands for the
monomial degree m = n - (a - o)/2, o = j - 1 (degree_offset), in the K-block
rows here and in heun.reduction_check.

The module also hosts the second-order element K(alpha, beta, gamma; C) =
[H/2 - E + alpha](F + beta) + gamma[H - 1/2] + C whose eigenvalue problem,
for the two parameter substitutions in reduction_kparams, is the sl2 face of
the spectral problem: its finite-block restrictions are the constraint
tridiagonal matrices and its conjugated image is a confluent Heun operator.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .constraint import PLAIN, TILDE, ConstraintFamily, tridiag_matrix
from .exactpoly import UniPoly, to_fraction

GENERATORS = ("H", "E", "F")


@dataclass(frozen=True)
class RepParams:
    """Principal-series label (j, a) plus a weight window, which
    eigenproblem_window sets to the rows of its block."""

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
                _add_term(terms, s + t, p.shift(t) * q)
        return RepOperator(self.params, terms)

    def scale(self, c) -> "RepOperator":
        c = to_fraction(c)
        return RepOperator(self.params,
                           {s: p * c for s, p in self.terms.items()})

    def entry(self, n_row: int, n_col: int) -> Fraction:
        """Matrix entry addressed by weight indices."""
        p = self.terms.get(n_row - n_col)
        return Fraction(0) if p is None else p(n_col)


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


def degree_offset(params: RepParams) -> Fraction:
    """The offset (a - o)/2 of the weight n = m + (a - o)/2 at degree m."""
    return (params.a - (params.j - 1)) / 2


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
    return compare(lhs, t1 + t2 - t3)


def _closure_ok(params: RepParams, block: range) -> bool:
    """True when the block's span is stable under H, E and F. H keeps
    weights, so only E at the top weight or F at the bottom one can leave."""
    top, bottom = block[-1], block[0]
    return not (rep_generator(params, "E").entry(top + 1, top)
                or rep_generator(params, "F").entry(bottom - 1, bottom))


def invariant_subspace_check(j: int, m: int) -> dict:
    """Finite-block closure and boundary annihilation for the reducible labels."""
    if m < 1:
        raise ValueError("m must be >= 1")
    report: dict = {"j": j, "m": m}
    if j == 1:
        inner = RepParams(1, Fraction(2 - 2 * m), 0, 0)
        report["finite_block_closed"] = _closure_ok(inner, range(-m + 1, m))
        odd = RepParams(1, Fraction(-2 * m), 0, 0)
        report["odd_block_closed"] = _closure_ok(odd, range(-m, m + 1))
        bnd, edge = RepParams(1, Fraction(2 * m), 0, 0), -m
    else:
        inner = RepParams(2, Fraction(1 - 2 * m), 0, 0)
        report["finite_block_closed"] = _closure_ok(inner, range(-m, m))
        bnd, edge = RepParams(2, Fraction(2 * m + 1), 0, 0), -m - 1
    # F e_m and E e_edge each have a single entry, one weight down or up
    report["lowest_weight_killed"] = not rep_generator(bnd, "F").entry(m - 1, m)
    report["highest_weight_killed"] = not rep_generator(bnd, "E").entry(
        edge + 1, edge)
    report["ok"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


def intertwiner_check(a) -> dict:
    """Diagonal equivalence between the spherical actions at a and 2 - a.

    A = diag(c_n), c_n = prod_{k=1..|n|} top(k)/bottom(k) with top(k) = k - a/2
    and bottom(k) = k - 1 + a/2, satisfies c_{n+s} x_a(n) = x_{2-a}(n) c_n
    for each generator x(n) T^s. Read from n >= 0, c_{n+s}/c_n = num/den is
    top(n+1)/bottom(n+1) for E and bottom(n)/top(n) for F. Each report counts
    the coefficient mismatches of two identities in n: num/den against the
    ratio read from n < 0, cross-multiplied, and num x_a = den x_{2-a}.
    Requires a not an even integer so no factor degenerates.
    """
    a = to_fraction(a)
    if a.denominator == 1 and a.numerator % 2 == 0:
        raise ValueError("a must not be an even integer")
    pa, pb = RepParams(1, a, 0, 0), RepParams(1, 2 - a, 0, 0)
    n, one, half_a = UniPoly([0, 1]), UniPoly([1]), UniPoly([a / 2])

    def top(k):
        return k - half_a

    def bottom(k):
        return k + half_a - one

    # c_{n+s}/c_n as (num, den), read from n >= 0 and from n < 0
    ratios = {"H": ((one, one), (one, one)),
              "E": ((top(n + one), bottom(n + one)), (bottom(-n), top(-n))),
              "F": ((bottom(n), top(n)), (top(one - n), bottom(one - n)))}
    checks = {}
    for gen, ((num, den), (num_neg, den_neg)) in ratios.items():
        [(s, x_a)] = rep_generator(pa, gen).terms.items()
        x_b = rep_generator(pb, gen).terms[s]
        checks[gen] = _report(chain((num * den_neg - num_neg * den).coeffs,
                                    (num * x_a - den * x_b).coeffs))
    return {"a": a, "checks": checks,
            "ok": all(r["ok"] for r in checks.values())}


# -- bridges to the constraint families -----------------------------------------

def eigenproblem_window(N: int, two_eps: int, variant: str, g2, d) -> dict:
    """Representation data behind one constraint family at level N.

    Returns the window parameters (a window spanning exactly the row
    weights), the K-parameters of the matching reduction, the scalar
    Lambda_a, and the weight indices in matrix row order: row r is the
    weight at degree m = N - r, on the label a = -N (plain) or 1 - N (tilde)
    with j = 1 + (a mod 2), so that degree_offset is an integer.
    """
    eps = ConstraintFamily(N, two_eps, variant).eps  # rejects N < 1, bad variant
    g2, d = to_fraction(g2), to_fraction(d)
    which, lam = (1, N - g2 + eps) if variant == PLAIN else (2, N - g2 - eps)
    kp, a = reduction_kparams(which, lam, g2, d, eps)
    j = 1 + a.numerator % 2
    offset = int(degree_offset(RepParams(j, a, 0, 0)))
    rows = [m + offset for m in range(N, -1, -1)]
    params = RepParams(j, a, offset, N + offset)
    return {"params": params, "kparams": kp, "a": a, "lambda": lam,
            "rows": rows, "Lambda_a": kp.lambda_a(a)}


def k_block_minus_lambda(N: int, two_eps: int, variant: str, g2, d) -> list[list[Fraction]]:
    """The (N+1)x(N+1) block of pi(K) - Lambda_a in constraint row order."""
    data = eigenproblem_window(N, two_eps, variant, g2, d)
    op = assemble_K(data["params"], data["kparams"]) - identity_op(
        data["params"], data["Lambda_a"])
    rows = data["rows"]
    return [[op.entry(rn, cn) for cn in rows] for rn in rows]


def k_block_checks(rng: random.Random, trials: int) -> list[dict]:
    """Exact equality of the K-block with the constraint tridiagonal.

    Each trial draws N, two_eps, the variant and positive rational g2 and d
    from rng, and compares the block with the tridiagonal at x = 4 g2, the
    constraint variable (2g)^2.
    """
    checks = []
    for _ in range(trials):
        N = rng.randint(1, 5)
        two_eps = rng.randint(-2, 3)
        variant = rng.choice((PLAIN, TILDE))
        g2 = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        block = k_block_minus_lambda(N, two_eps, variant, g2, d)
        spec = tridiag_matrix(ConstraintFamily(N, two_eps, variant), N)
        checks.append({"N": N, "two_eps": two_eps, "variant": variant,
                       "ok": block == spec.at(4 * g2, d)})
    return checks
