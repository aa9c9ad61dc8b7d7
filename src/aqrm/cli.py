"""Batch command-line front end.

Every computation and verification in the library is exposed as a
subcommand emitting machine-readable output (JSON or CSV). Exit codes:
0 success/verified, 2 verification failure, 1 usage error. Rational flags
accept "p/q" strings so exact code paths never round. Only sweep, which
diagonalizes, loads numpy; crossings --confirm counts and solves on the
block-tridiagonal Hamiltonian in Python floats, so its output does not
depend on the BLAS thread count. Only these two read AQRM_NMAX, the default
Fock cutoff when --n-max is not given.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import confirm, constraint, gfunction, heun, sl2rep
from .exactpoly import isolate_positive_roots, to_fraction

DEFAULT_PRECISION = Fraction(1, 10**12)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; 2 is reserved for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _n_max(args) -> int:
    """Fock cutoff: --n-max, else AQRM_NMAX, else confirm.DEFAULT_NMAX.

    Checked here, before any work is done, so a cutoff below 1 is a usage
    error for sweep and crossings --confirm alike.
    """
    n_max = args.n_max
    if n_max is None:
        raw = os.environ.get("AQRM_NMAX")
        if raw is None:
            return confirm.DEFAULT_NMAX
        try:
            n_max = int(raw)
        except ValueError:
            raise ValueError(f"AQRM_NMAX must be an integer, got {raw!r}") from None
        if n_max < 1:
            raise ValueError(f"AQRM_NMAX must be >= 1, got {raw!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return n_max


def _emit(args, text: str) -> None:
    """Write text to --out, else to stdout; an unwritable --out is a usage
    error."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(
                f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _json_lines(records: list[dict]) -> str:
    return "\n".join(json.dumps(r) for r in records)


# -- subcommands ---------------------------------------------------------------

def _cmd_poly(args) -> int:
    fam = constraint.ConstraintFamily(args.N, args.two_eps, args.variant)
    p = constraint.constraint_poly(fam, args.k)
    if args.format == "json":
        _emit(args, json.dumps({
            "N": args.N, "two_eps": args.two_eps, "variant": args.variant,
            "k": args.k, "text": p.to_text(),
            "terms": [[i, j, str(c)] for i, j, c in p.sorted_terms()]}))
    else:
        _emit(args, p.to_text())
    return EXIT_OK


def _cmd_roots(args) -> int:
    fam = constraint.ConstraintFamily(args.N, args.two_eps, args.variant)
    k = args.k if args.k is not None else args.N
    intervals = isolate_positive_roots(
        constraint.constraint_poly_at(fam, k, args.d), args.precision)
    if args.format == "json":
        _emit(args, json.dumps({
            "N": args.N, "two_eps": args.two_eps, "variant": args.variant,
            "k": k, "d": str(args.d), "count": len(intervals),
            "intervals": [[str(lo), str(hi)] for lo, hi in intervals]}))
    else:
        rows = ["x_lo,x_hi"] + [f"{lo},{hi}" for lo, hi in intervals]
        _emit(args, "\n".join(rows))
    return EXIT_OK


def _cmd_crossings(args) -> int:
    if args.confirm:
        n_max = _n_max(args)
    elif args.n_max is not None:
        raise ValueError("--n-max needs --confirm")
    records = constraint.find_crossings(args.N, args.two_eps, args.delta2,
                                        args.precision)
    if args.confirm:
        confirmed = confirm.confirm_crossings(records, n_max=n_max)
    payload, code = [], EXIT_OK
    for k, rec in enumerate(records):
        lo, hi = rec.root_interval
        row = {"N": rec.N, "two_eps": rec.two_eps, "d": str(rec.d_value),
               "x_lo": str(lo), "x_hi": str(hi), "g": rec.g,
               "lambda": rec.lambda_,
               "modules": list(rec.rep_pair) if rec.rep_pair else []}
        if args.confirm:
            obs = confirmed[k]
            if isinstance(obs, ValueError):
                sys.stderr.write(f"confirmation failed: {obs}\n")
                code = EXIT_VERIFICATION
            else:
                row["gap"] = obs.gap
                row["lambda_observed"] = obs.lambda_star
        payload.append(row)
    if args.format == "json":
        _emit(args, _json_lines(payload) if payload else "")
    else:
        header = "N,two_eps,d,x_lo,x_hi,g,lambda,modules,gap"
        rows = [header]
        for row in payload:
            rows.append(",".join([
                str(row["N"]), str(row["two_eps"]), row["d"], row["x_lo"],
                row["x_hi"], repr(row["g"]), repr(row["lambda"]),
                ";".join(row["modules"]),
                "" if "gap" not in row else repr(row["gap"])]))
        _emit(args, "\n".join(rows))
    return code


def _cmd_verify_identity(args) -> int:
    fault = 0 if args.inject_fault else None
    report = constraint.verify_identity_half(args.N, fault_k=fault)
    _emit(args, json.dumps(report))
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def _cmd_verify_conjecture(args) -> int:
    report = constraint.verify_conjecture(args.N, args.ell)
    _emit(args, json.dumps({
        "N": report["N"], "ell": report["ell"],
        "remainder_zero": report["remainder_zero"],
        "integer_coeffs": report["integer_coeffs"],
        "all_positive": report["all_positive"],
        "samples": [[str(xv), str(dv), flag]
                    for (xv, dv), flag in report["positivity"]],
        "quotient": report["quotient"].to_text(),
        "ok": report["ok"]}))
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def _random_fraction(rng: random.Random, positive: bool = False) -> Fraction:
    num = rng.randint(1 if positive else -9, 9)
    return Fraction(num, rng.randint(1, 6))


def _rep_random_checks(rng: random.Random, trials: int) -> list[dict]:
    checks = []
    for _ in range(trials):
        j = rng.choice((1, 2))
        a = _random_fraction(rng)
        params = sl2rep.RepParams(j, a, -7, 7)
        comm = sl2rep.commutation_relations_check(params)
        cas = sl2rep.casimir_scalar_check(params)
        kcomm = sl2rep.commutator_check(
            params, _random_fraction(rng), _random_fraction(rng, True),
            _random_fraction(rng, True), _random_fraction(rng))
        checks.append({"name": "commutation_relations", "j": j, "a": str(a),
                       "ok": comm["ok"]})
        checks.append({"name": "casimir_scalar", "j": j, "a": str(a),
                       "ok": cas["ok"]})
        checks.append({"name": "mixed_commutator", "j": j, "a": str(a),
                       "ok": kcomm["ok"]})
    return checks


def _cmd_rep_check(args) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be >= 0")
    rng = random.Random(args.seed)
    checks = _rep_random_checks(rng, args.trials)
    for j in (1, 2):
        for m in (1, 2, 3):
            rep = sl2rep.invariant_subspace_check(j, m)
            checks.append({"name": "invariant_subspace", "j": j, "m": m,
                           "ok": rep["ok"]})
    for a in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(-3, 2)):
        rep = sl2rep.intertwiner_check(a)
        checks.append({"name": "intertwiner", "a": str(a), "ok": rep["ok"]})
    checks += [{"name": "k_block_tridiagonal", **c}
               for c in sl2rep.k_block_checks(rng, args.trials)]
    ok = all(c["ok"] for c in checks)
    _emit(args, json.dumps({"seed": args.seed, "checks": checks, "ok": ok}))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_heun_check(args) -> int:
    direct = heun.heun_direct(args.which, args.lam, args.g2, args.d, args.eps)
    match = heun.reduction_check(direct)["ok"]
    at0, at1 = direct.indicial_roots(0), direct.indicial_roots(1)
    _emit(args, json.dumps({
        "op": {"which": direct.which, "lambda": str(direct.lambda_),
               "g2": str(direct.g2), "d": str(direct.d),
               "eps": str(direct.eps), "A": str(direct.A),
               "B": str(direct.B), "C": str(direct.C), "D": str(direct.D)},
        "reduction_matches": match,
        "exponents": {
            "at0": [str(e) for e in at0],
            "at1": [str(e) for e in at1],
            "both_integral": all(e.denominator == 1 for e in at0 + at1)},
        "ok": match}))
    return EXIT_OK if match else EXIT_VERIFICATION


def _cmd_gfunction(args) -> int:
    if args.g is not None:
        if args.g_min is not None or args.g_max is not None:
            raise ValueError("--g evaluates at one coupling; it cannot be "
                             "combined with --g-min or --g-max")
        gp, gm = gfunction.g_pair(args.N, args.g, args.delta, args.tol)
        if args.format == "json":
            _emit(args, json.dumps({
                "N": args.N, "delta": args.delta, "g": args.g,
                "G_plus": vars(gp), "G_minus": vars(gm)}))
        else:
            rows = ["parity,value,n_stop,tail_bound,converged"]
            for name, gv in (("plus", gp), ("minus", gm)):
                rows.append(f"{name},{gv.value!r},{gv.n_stop},"
                            f"{gv.tail_bound!r},{gv.converged}")
            _emit(args, "\n".join(rows))
        return EXIT_OK
    if args.g_min is None or args.g_max is None:
        raise ValueError("need either --g or both --g-min and --g-max")
    roots = gfunction.find_exceptional(args.N, args.delta,
                                       (args.g_min, args.g_max), args.tol)
    if args.format == "json":
        _emit(args, _json_lines([{
            "N": r.N, "delta": r.delta, "g_root": r.g_root,
            "lambda": r.lambda_, "parity": r.parity,
            "G_residual": r.residual} for r in roots]) if roots else "")
    else:
        rows = ["N,delta,g_root,lambda,parity,G_residual"]
        rows += [f"{r.N},{r.delta!r},{r.g_root!r},{r.lambda_!r},"
                 f"{r.parity},{r.residual!r}" for r in roots]
        _emit(args, "\n".join(rows))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    from . import spectrum

    grid = [args.g_min + (args.g_max - args.g_min) * i / (args.steps - 1)
            for i in range(args.steps)]
    sw = spectrum.sweep(args.delta, args.eps, grid, n_max=_n_max(args))
    if args.format == "json":
        _emit(args, json.dumps({
            "delta": sw.delta, "eps": sw.eps, "n_max": sw.n_max,
            "g_grid": list(sw.g_grid),
            "eigenvalues": sw.table.tolist(),
            "converged": sw.converged.astype(bool).tolist(),
            "crossings": [{"g_star": c.g_star, "lambda_star": c.lambda_star,
                           "gap": c.gap, "indices": list(c.indices)}
                          for c in sw.crossings]}))
    else:
        # one template fills every g's rows; one string per g keeps the peak
        # memory near that of the text itself
        width = sw.table.shape[1]
        template = "\n".join(f"%s,{idx},%r,%s" for idx in range(width))
        fields = [None] * (3 * width)
        rows = ["g,index,eigenvalue,converged"]
        for g, evs, flags in zip(sw.g_grid, sw.table, sw.converged):
            fields[0::3] = [repr(g)] * width
            fields[1::3] = evs.tolist()
            fields[2::3] = flags.tolist()
            rows.append(template % tuple(fields))
        _emit(args, "\n".join(rows))
    return EXIT_OK


# -- parser construction ---------------------------------------------------------

def _add_common(sub, default_format: str, formats=("json", "csv")):
    """--format and --out. A subcommand that writes one JSON report passes
    formats=("json",), so asking it for csv is a usage error."""
    sub.add_argument("--format", choices=formats, default=default_format)
    sub.add_argument("--out", metavar="PATH", default=None)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged (every default is immutable and AQRM_NMAX
    is read by the handlers), and building it costs about 1.7 ms per call.
    """
    parser = _Parser(prog="aqrm", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("poly", help="print one constraint polynomial")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--two-eps", type=int, default=0)
    p.add_argument("--variant", choices=(constraint.PLAIN, constraint.TILDE),
                   default=constraint.PLAIN)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, "csv")
    p.set_defaults(handler=_cmd_poly)

    p = subs.add_parser("roots", help="isolate positive roots at fixed d")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--two-eps", type=int, default=0)
    p.add_argument("--variant", choices=(constraint.PLAIN, constraint.TILDE),
                   default=constraint.PLAIN)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=to_fraction, required=True,
                   metavar="P/Q", help="value of d = Delta^2")
    p.add_argument("--precision", type=to_fraction, default=DEFAULT_PRECISION)
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_roots)

    p = subs.add_parser("crossings",
                        help="find level crossings, optionally confirm numerically")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--two-eps", type=int, default=0)
    p.add_argument("--delta2", type=to_fraction, required=True,
                   metavar="P/Q", help="value of d = Delta^2")
    p.add_argument("--precision", type=to_fraction, default=DEFAULT_PRECISION)
    p.add_argument("--confirm", action="store_true",
                   help="check each crossing against diagonalization")
    p.add_argument("--n-max", type=int, default=None)
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_crossings)

    p = subs.add_parser("verify-identity",
                        help="ladder identity between the two families at eps=1/2")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one recurrence coefficient (self-test)")
    _add_common(p, "json", formats=("json",))
    p.set_defaults(handler=_cmd_verify_identity)

    p = subs.add_parser("verify-conjecture",
                        help="divisibility/positivity of the level-shift quotient")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_common(p, "json", formats=("json",))
    p.set_defaults(handler=_cmd_verify_conjecture)

    p = subs.add_parser("rep-check",
                        help="commutators, Casimir, block match, intertwiner")
    p.add_argument("--trials", type=int, default=3)
    _add_common(p, "json", formats=("json",))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rep_check)

    p = subs.add_parser("heun-check",
                        help="operator correspondence and local exponents")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--lambda", dest="lam", type=to_fraction, required=True,
                   metavar="P/Q")
    p.add_argument("--g2", type=to_fraction, required=True, metavar="P/Q")
    p.add_argument("--d", type=to_fraction, required=True, metavar="P/Q")
    p.add_argument("--eps", type=to_fraction, default=Fraction(0),
                   metavar="P/Q")
    _add_common(p, "json", formats=("json",))
    p.set_defaults(handler=_cmd_heun_check)

    p = subs.add_parser("gfunction",
                        help="evaluate G+- or scan for exceptional couplings")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--g-min", type=float, default=None)
    p.add_argument("--g-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="with --g, the series tolerance of G+ and G-; in a "
                        "scan, bisection stops once |G| < TOL, and the series "
                        "run at their default tolerance 1e-12")
    _add_common(p, "csv")
    p.set_defaults(handler=_cmd_gfunction)

    p = subs.add_parser("sweep", help="tabulate the truncated spectrum over g")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--g-min", type=float, required=True)
    p.add_argument("--g-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--n-max", type=int, default=None)
    _add_common(p, "csv")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        sys.stderr.write(f"aqrm {args.subcommand}: {exc}\n")
        return EXIT_USAGE
    except RuntimeError as exc:
        sys.stderr.write(f"aqrm {args.subcommand}: {exc}\n")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    raise SystemExit(main())
