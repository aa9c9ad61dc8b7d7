"""Output checks for the benchmark, sharing no code with aqrm.

Every check reads the text the CLI wrote and compares it with something
derived independently: the window theorem for root counts, a Hamiltonian
assembled here in the sigma_z basis with Kronecker products and solved with
numpy/scipy, Sturm counts on its two parity chains for the number of
exceptional couplings, and constraint polynomials rebuilt in sympy. The heavy checks
(dense eigensolves, sympy division) run on a seeded sample of the tasks.
Each ``check_*`` function returns None when the output is right, else the
reason it is wrong.
"""
from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

import numpy as np

GAP_TOL = 1e-7           # a confirmed crossing is a pair this close
GROOT_TOL = 1e-6         # a G-root lambda must lie this close to the spectrum
SWEEP_TOL = 1e-9         # converged sweep eigenvalues against scipy.linalg.eigh
GROOT_NMAX = 120         # truncation of the reference Hamiltonian for G-roots
COUNT_NMAX = 60          # truncation of the parity chains that count G-roots
COUNT_POINTS = 4001      # g grid on which the G-roots are counted
CONV_CHECK_MARGIN = 40   # a sweep eigenvalue that moves by less than
CONV_CHECK_TOL = 1e-10   # this under this much more truncation must be
                         # flagged converged
SYMPY_SAMPLE = 2         # verify-conjecture quotients re-derived per run


def hamiltonian(g: float, delta: float, eps: float, n_max: int) -> np.ndarray:
    """a^dag a + Delta sigma_z + g sigma_x (a + a^dag) + eps sigma_x, n <= n_max."""
    n = np.arange(n_max + 1, dtype=float)
    lower = np.diag(np.sqrt(n[1:]), 1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    one = np.eye(n_max + 1)
    return (np.kron(np.diag(n), np.eye(2)) + delta * np.kron(one, sz)
            + g * np.kron(lower + lower.T, sx) + eps * np.kron(one, sx))


def _json_rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_crossings(expect: dict, text: str) -> str | None:
    rows = _json_rows(text)
    if len(rows) != expect["roots"]:
        return f"{len(rows)} roots, window theorem says {expect['roots']}"
    prev_hi = Fraction(0)
    for row in rows:
        if (row["N"], row["two_eps"], row["d"]) != (
                expect["N"], expect["two_eps"], expect["d"]):
            return f"row for the wrong problem: {row}"
        lo, hi = Fraction(row["x_lo"]), Fraction(row["x_hi"])
        if not prev_hi <= lo <= hi or hi - lo > Fraction(1, 10**12):
            return f"bad isolating interval [{lo}, {hi}]"
        prev_hi = hi
        if not row.get("gap", float("inf")) < GAP_TOL:
            return f"crossing at x={lo} not confirmed (gap {row.get('gap')})"
    return None


def parity_counts(N: int, delta: float, g: np.ndarray) -> list[np.ndarray]:
    """Per parity, how many eigenvalues at eps = 0 lie below N - g^2.

    In a parity sector the states |n, s_n> with s_n = s_0 (-1)^n form a chain
    with diagonal n + Delta s_n and off-diagonal g sqrt(n); the count is the
    number of negative pivots of the chain minus N - g^2 (Sturm/Sylvester),
    evaluated for every g of the array at once.
    """
    x = N - g * g
    n = np.arange(COUNT_NMAX + 1)
    counts = []
    for s0 in (1.0, -1.0):
        diag = n + delta * s0 * (-1.0) ** n
        pivot = diag[0] - x
        below = (pivot < 0).astype(int)
        for i in range(1, COUNT_NMAX + 1):
            pivot = np.where(pivot == 0, 1e-300, pivot)
            pivot = diag[i] - x - g * g * i / pivot
            below += pivot < 0
        counts.append(below)
    return counts


def expected_groots(N: int, delta: float, g_min: float,
                    g_max: float) -> int | None:
    """Number of non-degenerate exceptional couplings g in [g_min, g_max].

    Each is a grid step where one parity sector gains or loses exactly one
    level below N - g^2 and the other sector does not change; a step where
    both change is a doubly degenerate (Juddian) point, which the scan
    excludes. Returns None when a count jumps by more than one, i.e. the
    grid is too coarse to separate two roots.
    """
    plus, minus = (np.diff(c) for c in parity_counts(
        N, delta, np.linspace(g_min, g_max, COUNT_POINTS)))
    if np.any(np.abs(plus) > 1) or np.any(np.abs(minus) > 1):
        return None
    return int(np.sum((plus != 0) != (minus != 0)))


def check_gscan(expect: dict, text: str) -> str | None:
    rows = _json_rows(text)
    want = expected_groots(expect["N"], expect["delta"], expect["g_min"],
                           expect["g_max"])
    if want is None:
        return "G-root count grid too coarse to check this scan"
    if len(rows) != want:
        return f"{len(rows)} G-roots, the parity-chain count says {want}"
    for row in rows:
        g, lam = row["g_root"], row["lambda"]
        if row["N"] != expect["N"] or not expect["g_min"] <= g <= expect["g_max"]:
            return f"root outside the scanned problem: {row}"
        if abs(lam - (expect["N"] - g * g)) > 1e-12:
            return f"lambda {lam} is not N - g^2 at g={g}"
        ev = np.linalg.eigvalsh(hamiltonian(g, expect["delta"], 0.0,
                                            GROOT_NMAX))
        miss = float(np.min(np.abs(ev - lam)))
        if miss > GROOT_TOL:
            return f"G-root lambda={lam} at g={g} misses the spectrum by {miss:.3e}"
    return None


def check_sweep(expect: dict, text: str, rng: random.Random) -> str | None:
    import scipy.linalg

    rows = list(csv.reader(io.StringIO(text)))
    dim = 2 * (expect["n_max"] + 1)
    if rows[0] != ["g", "index", "eigenvalue", "converged"]:
        return f"unexpected header {rows[0]}"
    if len(rows) - 1 != expect["steps"] * dim:
        return f"{len(rows) - 1} rows, expected {expect['steps']} x {dim}"
    step = rng.randrange(expect["steps"])
    block = rows[1 + step * dim: 1 + (step + 1) * dim]
    g = float(block[0][0])
    want_g = (expect["g_min"] + (expect["g_max"] - expect["g_min"]) * step
              / (expect["steps"] - 1))
    if abs(g - want_g) > 1e-12:
        return f"grid point {step} is g={g}, expected {want_g}"
    ref = scipy.linalg.eigh(hamiltonian(g, expect["delta"], expect["eps"],
                                        expect["n_max"]), eigvals_only=True)
    # eigenvalues only fall as the truncation grows (Cauchy interlacing), so
    # one that barely moves under a much larger one is converged
    big = scipy.linalg.eigh(hamiltonian(g, expect["delta"], expect["eps"],
                                        expect["n_max"] + CONV_CHECK_MARGIN),
                            eigvals_only=True)
    settled = np.abs(ref - big[:dim]) < CONV_CHECK_TOL
    for idx, (_, index, value, flag) in enumerate(block):
        if int(index) != idx:
            return f"row index {index} where {idx} was expected"
        if flag == "True":
            if abs(float(value) - ref[idx]) > SWEEP_TOL:
                return (f"eigenvalue {idx} at g={g} is {value}, "
                        f"eigh gives {ref[idx]!r}")
        elif settled[idx]:
            return f"eigenvalue {idx} at g={g} is converged but not flagged"
    if not settled.any():
        return f"no converged eigenvalue at g={g}"
    return None


def _constraint_sympy(N: int, two_eps_eff: int):
    """P_N(x, d) by its three-term recurrence, in sympy."""
    import sympy

    x, d = sympy.symbols("x d")
    prev2, prev = sympy.Integer(0), sympy.Integer(1)
    for k in range(1, N + 1):
        cur = sympy.expand((k * x + d - k * k - k * two_eps_eff) * prev
                           - k * (k - 1) * (N - k + 1) * x * prev2)
        prev2, prev = prev, cur
    return prev


def check_quotient_sympy(expect: dict, report: dict) -> str | None:
    """The printed quotient equals sympy.div(tilde P_{N+l}, P_N) with zero remainder."""
    import sympy

    x, d = sympy.symbols("x d")
    N, ell = expect["N"], expect["ell"]
    num = sympy.Poly(_constraint_sympy(N + ell, -ell), x, d)
    den = sympy.Poly(_constraint_sympy(N, ell), x, d)
    quot, rem = sympy.div(num, den)
    if not rem.is_zero:
        return f"sympy finds a nonzero remainder for N={N}, ell={ell}"
    printed = sympy.Poly(sympy.sympify(report["quotient"].replace("^", "**"),
                                       locals={"x": x, "d": d}), x, d)
    if printed != quot:
        return f"quotient for N={N}, ell={ell} differs from sympy.div"
    return None


def check_exact(task, text: str) -> str | None:
    report = json.loads(text)
    if report.get("ok") is not True:
        return f"report not ok: {text[:200]}"
    if task.kind == "identity" and (report["checked"] != task.expect["N"] + 1
                                    or report["failures"]):
        return f"identity report inconsistent: {report}"
    if task.kind == "conjecture" and not (
            report["remainder_zero"] and report["integer_coeffs"]
            and report["all_positive"]):
        return f"conjecture report inconsistent: {report}"
    if task.kind == "rep" and report["seed"] != task.expect["seed"]:
        return f"rep-check ran seed {report['seed']}"
    if task.kind == "heun" and report.get("reduction_matches") is not True:
        return "heun reduction mismatch"
    return None


def check_all(results, seed: int) -> list[tuple[int, str]]:
    """Failures as (result index, reason); results carry task, exit code, output."""
    rng = random.Random(f"oracle:{seed}")
    failures = []
    conjectures = []
    for i, res in enumerate(results):
        task = res.task
        if res.error is not None or res.exit_code != 0:
            failures.append((i, res.error or f"exit code {res.exit_code}"))
            continue
        text = res.read_output()
        try:
            if task.kind == "crossings":
                reason = check_crossings(task.expect, text)
            elif task.kind == "gscan":
                reason = check_gscan(task.expect, text)
            elif task.kind == "sweep":
                reason = check_sweep(task.expect, text, rng)
            else:
                reason = check_exact(task, text)
                if reason is None and task.kind == "conjecture":
                    conjectures.append((i, json.loads(text)))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures.append((i, reason))
    for i, report in rng.sample(conjectures, min(SYMPY_SAMPLE, len(conjectures))):
        reason = check_quotient_sympy(results[i].task.expect, report)
        if reason is not None:
            failures.append((i, reason))
    return failures
