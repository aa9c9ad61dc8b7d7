import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import aqrm
from aqrm.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_poly_canonical_text(capsys):
    code, out = run(capsys, "poly", "--N", "2", "--two-eps", "1", "--k", "2")
    assert code == 0
    assert out == "2*x^2 + 3*x*d - 12*x + d^2 - 8*d + 12\n"


def test_poly_json_terms(capsys):
    code, out = run(capsys, "poly", "--N", "1", "--two-eps", "0", "--k", "1",
                    "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["text"] == "x + d - 1"
    assert sorted(blob["terms"]) == [[0, 0, "-1"], [0, 1, "1"], [1, 0, "1"]]


def test_roots_json(capsys):
    code, out = run(capsys, "roots", "--N", "2", "--two-eps", "1",
                    "--d", "1/4")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 2 and len(blob["intervals"]) == 2


def test_crossings_confirmed_record(capsys):
    code, out = run(capsys, "crossings", "--N", "1", "--two-eps", "0",
                    "--delta2", "1/2", "--confirm")
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if ln]
    assert len(lines) == 1
    blob = json.loads(lines[0])
    assert set(blob) == {"N", "two_eps", "d", "x_lo", "x_hi", "g", "lambda",
                         "modules", "gap", "lambda_observed"}
    assert blob["N"] == 1 and blob["two_eps"] == 0
    assert Fraction(blob["x_lo"]) <= Fraction(1, 2) <= Fraction(blob["x_hi"])
    assert blob["lambda"] == pytest.approx(1 - blob["g"] ** 2, abs=1e-12)
    assert blob["gap"] < 1e-7
    assert blob["lambda_observed"] == pytest.approx(blob["lambda"], abs=1e-7)
    assert blob["d"] == "1/2"
    assert blob["modules"] == ["F_2", "F_1"]


def test_coarse_crossings_confirm(capsys):
    # records isolated at width 1e-6 are refined before diagonalizing;
    # unrefined, 5 of these 12 miss the 1e-7 degeneracy tolerance
    code, out = run(capsys, "crossings", "--N", "12", "--two-eps", "1",
                    "--delta2", "1", "--precision", "1/1000000", "--confirm")
    assert code == 0
    rows = [json.loads(ln) for ln in out.split("\n") if ln]
    assert len(rows) == 12
    assert all(row["gap"] < 1e-7 for row in rows)


def test_coarse_confirm_reports_the_default_precision_observation(capsys):
    # a coarse record is confirmed as the record the default precision
    # gives, so gap and lambda_observed do not depend on --precision; the
    # second root here needs that width, since its pair solve on a record
    # 1e-10 wide leaves a residual of 4.7e-09, above CONV_TOL
    argv = ("crossings", "--N", "5", "--two-eps", "-2", "--delta2", "19/3",
            "--confirm")

    def observed(*extra):
        code, out = run(capsys, *argv, *extra)
        assert code == 0, extra
        return [(row["gap"], row["lambda_observed"])
                for row in map(json.loads, out.splitlines())]

    want = observed()
    assert len(want) == 2
    for precision in ("1/2", "1/1000", "1/10000000000"):
        assert observed("--precision", precision) == want


@pytest.mark.parametrize("k", [0, 1, 3])
def test_roots_csv_counts_window_roots(capsys, k):
    # d inside window k, k^2 + k*two_eps < d < (k+1)^2 + (k+1)*two_eps,
    # leaves P_N with exactly N - k positive roots
    N, two_eps = 4, 1
    d = Fraction(k * k + k * two_eps + (k + 1) ** 2 + (k + 1) * two_eps, 2)
    code, out = run(capsys, "roots", f"--N={N}", f"--two-eps={two_eps}",
                    f"--d={d}", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x_lo,x_hi"
    assert len(lines) == 1 + N - k
    for line in lines[1:]:
        lo, hi = map(Fraction, line.split(","))
        assert 0 < lo < hi


def test_crossings_confirm_failure_keeps_every_record(capsys, monkeypatch):
    from aqrm import confirm

    real = confirm.confirm_crossings
    calls = []

    def fail_second(records, **kwargs):
        calls.append(list(records))
        results = real(records, **kwargs)
        results[1] = ValueError("injected miss")
        return results

    monkeypatch.setattr(confirm, "confirm_crossings", fail_second)
    code = main(["crossings", "--N", "3", "--two-eps", "1", "--delta2", "1/2",
                 "--confirm"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "confirmation failed: injected miss\n"
    # the batch is called once, with every record
    rows = [json.loads(ln) for ln in captured.out.split("\n") if ln]
    assert len(calls) == 1
    assert len(rows) == len(calls[0]) == 3
    assert "gap" not in rows[1]
    assert all(row["gap"] < 1e-7 for row in (rows[0], rows[2]))


def test_crossings_confirm_counts_each_pair_level_once(capsys, monkeypatch):
    from aqrm import confirm, spectrum

    real = confirm._count_below_float
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    def no_numpy_count(*args):
        raise AssertionError("confirm counted through numpy")

    monkeypatch.setattr(confirm, "_count_below_float", counted)
    monkeypatch.setattr(spectrum, "_count_below", no_numpy_count)
    code, out = run(capsys, "crossings", "--N", "24", "--two-eps", "1",
                    "--delta2", "7/3", "--confirm")
    assert code == 0
    rows = [json.loads(ln) for ln in out.split("\n") if ln]
    assert len(rows) == 23
    assert all("gap" in row for row in rows)
    # four counts per record: the window lambda -+ DEGENERACY_TOL at its
    # derived truncation n, then one per level of its pair at
    # n + CONV_MARGIN
    assert len(calls) == 4 * len(rows)
    tol = confirm.DEGENERACY_TOL
    for k, row in enumerate(rows):
        below, above, low, high = calls[4 * k:4 * k + 4]
        assert {call[0] for call in (below, above, low, high)} == {row["g"]}
        n = below[3]
        assert n == above[3] >= 60
        assert low[3] == high[3] == n + confirm.CONV_MARGIN
        assert (below[4], above[4]) == (row["lambda"] - tol,
                                        row["lambda"] + tol)
        low_level = low[4] + confirm.CONV_TOL
        high_level = high[4] + confirm.CONV_TOL
        assert low_level <= high_level
        assert abs(0.5 * (low_level + high_level)
                   - row["lambda_observed"]) < 1e-12


def test_crossings_csv(capsys):
    code, out = run(capsys, "crossings", "--N", "2", "--two-eps", "1",
                    "--delta2", "1/4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,two_eps,d,x_lo,x_hi,g,lambda,modules,gap"
    assert len(lines) == 3
    assert lines[1].split(",")[7] == "F_3;F_3"


def test_verify_identity_exit_codes(capsys):
    code, out = run(capsys, "verify-identity", "--N", "12")
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "verify-identity", "--N", "12", "--inject-fault")
    assert code == 2
    blob = json.loads(out)
    assert not blob["ok"] and blob["failures"] == [0]


def test_verify_conjecture(capsys):
    code, out = run(capsys, "verify-conjecture", "--N", "3", "--ell", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["quotient"] == "4*x + d"


def test_rep_check_ok(capsys):
    code, out = run(capsys, "rep-check", "--trials", "2", "--seed", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] and blob["seed"] == 5
    names = {c["name"] for c in blob["checks"]}
    assert names == {"commutation_relations", "casimir_scalar",
                     "mixed_commutator", "invariant_subspace", "intertwiner",
                     "k_block_tridiagonal"}


def test_heun_check(capsys):
    code, out = run(capsys, "heun-check", "--which", "2", "--lambda", "3/2",
                    "--g2", "1/3", "--d", "2", "--eps", "1/2")
    assert code == 0
    blob = json.loads(out)
    assert set(blob["op"]) == {"which", "lambda", "g2", "d", "eps", "A", "B",
                               "C", "D"}
    assert blob["op"]["which"] == 2 and blob["op"]["lambda"] == "3/2"
    assert blob["reduction_matches"]
    assert blob["exponents"]["at0"] == ["0", "10/3"]


def test_gfunction_point_csv(capsys):
    code, out = run(capsys, "gfunction", "--N", "1", "--delta", "0.4",
                    "--g", "0.3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "parity,value,n_stop,tail_bound,converged"
    assert len(lines) == 3


def test_gfunction_scan_csv(capsys):
    code, out = run(capsys, "gfunction", "--N", "2", "--delta", "1.5",
                    "--g-min", "0.8", "--g-max", "1.6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,delta,g_root,lambda,parity,G_residual"
    assert len(lines) == 2 and lines[1].split(",")[4] == "plus"


@pytest.mark.parametrize("N", ["0", "-1"])
def test_gfunction_nonpositive_level_is_usage_error(capsys, N):
    code = main(["gfunction", f"--N={N}", "--g", "0.5", "--delta", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "N must be >= 1" in captured.err


def test_gfunction_missing_range_is_usage_error(capsys):
    code, _ = run(capsys, "gfunction", "--N", "1", "--delta", "0.4")
    assert code == 1


@pytest.mark.parametrize("bound", ["--g-min", "--g-max"])
def test_gfunction_point_with_range_is_usage_error(capsys, bound):
    code = main(["gfunction", "--N", "1", "--delta", "1.5", "--g", "0.5",
                 bound, "0.2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("aqrm gfunction: --g evaluates at one coupling; it "
                            "cannot be combined with --g-min or --g-max\n")


@pytest.mark.parametrize("span", [["--g", "15"],
                                  ["--g-min", "0.1", "--g-max", "15"]])
def test_gfunction_series_cap_fails_cleanly(capsys, span):
    # past N_STOP_MAX terms the series gives up; the CLI maps that
    # RuntimeError to exit 2 today, and ROADMAP item 8 will retype it as a
    # numerical limit
    code = main(["gfunction", "--N", "1", "--delta", "1", *span])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "aqrm gfunction: series did not converge within 5000 terms (g=")


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--delta", "0.5", "--g-min", "0.1",
                    "--g-max", "0.2", "--steps", "2", "--n-max", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g,index,eigenvalue,converged"
    assert len(lines) == 1 + 2 * 26


def test_sweep_csv_rows_match_per_row_formatting(capsys):
    # a g printed in scientific notation, a negative g, and at g = -1.6 with
    # n_max = 8 top levels that have not converged
    g_min, g_max, steps, n_max = 1e-20, -1.6, 3, 8
    code, out = run(capsys, "sweep", "--delta", "2.0", "--eps", "0.3",
                    "--g-min", repr(g_min), "--g-max", repr(g_max),
                    "--steps", str(steps), "--n-max", str(n_max))
    assert code == 0
    grid = [g_min + (g_max - g_min) * i / (steps - 1) for i in range(steps)]
    from aqrm import spectrum

    sw = spectrum.sweep(2.0, 0.3, grid, n_max=n_max)
    rows = ["g,index,eigenvalue,converged"]
    for g, evs, flags in zip(grid, sw.table, sw.converged):
        rows += [f"{g!r},{idx},{ev!r},{flag}"
                 for idx, (ev, flag) in enumerate(zip(evs.tolist(),
                                                      flags.tolist()))]
    assert out == "\n".join(rows) + "\n"
    assert out.startswith("g,index,eigenvalue,converged\n1e-20,0,")
    assert "\n-0.8,0," in out and ",True\n" in out and ",False\n" in out


@pytest.mark.parametrize("argv", [
    ("sweep", "--delta", "0.5", "--g-min", "0.1", "--g-max", "0.3",
     "--steps", "3", "--n-max", "10"),
    ("poly", "--N", "2", "--k", "2"),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.csv"
    code = main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"aqrm {argv[0]}: cannot write {path}: "
                            "No such file or directory\n")


def test_sweep_json_reports_judd_point_crossing(capsys):
    # Delta = 1/sqrt(2), g = Delta/2 is a root of P_1 = x + d - 1, so
    # eigenvalues 2 and 3 meet at lambda = 1 - g^2; both grid points are
    # that g, so the crossing is reported twice
    code, out = run(capsys, "sweep", "--delta", "0.7071067811865476",
                    "--g-min", "0.35355339059327373",
                    "--g-max", "0.35355339059327373", "--steps", "2",
                    "--n-max", "60", "--format", "json")
    assert code == 0
    crossings = json.loads(out)["crossings"]
    assert len(crossings) == 2
    for c in crossings:
        assert set(c) == {"g_star", "lambda_star", "gap", "indices"}
        assert c["gap"] < 1e-7
        assert c["indices"] == [2, 3]


def test_unknown_subcommand_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_unknown_flag_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--N", "2", "--k", "1", "--frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("poly", "--N", "3", "--k", "2"),
    ("roots", "--N", "2", "--d", "1/4"),
    ("crossings", "--N", "2", "--delta2", "1/2"),
    ("verify-identity", "--N", "3"),
    ("verify-conjecture", "--N", "2", "--ell", "1"),
    ("heun-check", "--which", "1", "--lambda=-3/2", "--g2", "1/2", "--d", "1"),
    ("gfunction", "--N", "1", "--delta", "1.5", "--g", "0.5"),
    ("sweep", "--delta", "0.5", "--g-min", "0.1", "--g-max", "0.2"),
])
def test_seed_outside_rep_check_is_usage_error(capsys, argv):
    # only rep-check draws random numbers, so only it takes --seed
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "7"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 7" in captured.err


@pytest.mark.parametrize("argv", [
    ("verify-identity", "--N", "6"),
    ("verify-conjecture", "--N", "3", "--ell", "1"),
    ("rep-check", "--trials", "1"),
    ("heun-check", "--which", "1", "--lambda=-3/2", "--g2", "1/2", "--d", "1"),
])
def test_json_only_subcommand_rejects_csv(capsys, argv):
    # these subcommands write one JSON report; csv is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_bad_rational_flag_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--N", "1", "--d", "not-a-number"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("roots", "--N", "2", "--d", "1/0"),
    ("crossings", "--N", "2", "--delta2", "3/0"),
    ("heun-check", "--which", "1", "--lambda", "1/0", "--g2", "1", "--d", "1"),
])
def test_zero_denominator_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid to_fraction value" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("gfunction", "--N", "1", "--g", "nan", "--delta", "1"),
    ("gfunction", "--N", "1", "--g", "inf", "--delta", "1"),
    ("gfunction", "--N", "1", "--g", "0.5", "--delta", "nan"),
    ("gfunction", "--N", "1", "--g", "0.5", "--delta", "1", "--tol", "nan"),
    ("gfunction", "--N", "1", "--delta", "inf", "--g-min", "0.1",
     "--g-max", "1"),
    ("gfunction", "--N", "1", "--delta", "nan", "--g-min", "0.1",
     "--g-max", "1"),
    ("gfunction", "--N", "1", "--delta", "1", "--g-min", "0.1",
     "--g-max", "inf"),
    ("rep-check", "--trials=-1"),
    ("crossings", "--N", "2", "--delta2", "1/2", "--confirm", "--n-max=0"),
    ("sweep", "--delta", "0.5", "--g-min", "0.1", "--g-max", "0.3",
     "--n-max=0"),
    ("gfunction", "--N", "1", "--delta", "1.0", "--g-min", "0.1",
     "--g-max", "1.5", "--tol=-1"),
    ("gfunction", "--N", "1", "--delta", "1.0", "--g-min", "0.1",
     "--g-max", "1.5", "--tol=0"),
])
def test_nonfinite_or_negative_input_is_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"aqrm {argv[0]}: ")
    assert captured.err.count("\n") == 1


def test_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        assert main(["rep-check", "--trials", "2", "--seed", "9",
                     "--out", str(path)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sweep1 = tmp_path / "s1.csv"
    sweep2 = tmp_path / "s2.csv"
    for path in (sweep1, sweep2):
        assert main(["sweep", "--delta", "0.5", "--g-min", "0.1", "--g-max",
                     "0.3", "--steps", "3", "--n-max", "15",
                     "--out", str(path)]) == 0
    assert sweep1.read_bytes() == sweep2.read_bytes()


def test_nmax_without_confirm_is_usage_error(capsys):
    # only --confirm reads the cutoff; without it --n-max would be ignored
    for n_max in ("0", "60"):
        code = main(["crossings", "--N", "2", "--delta2", "1/2",
                     "--n-max", n_max])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "aqrm crossings: --n-max needs --confirm\n"


@pytest.mark.parametrize("argv", [
    ("crossings", "--N", "2", "--delta2", "1/2", "--confirm"),
    ("sweep", "--delta", "0.5", "--g-min", "0.1", "--g-max", "0.3",
     "--steps", "3"),
])
def test_nmax_environment_variable_is_not_read(capsys, monkeypatch, argv):
    # the Fock cutoff comes from --n-max, else the default: AQRM_NMAX, set
    # to anything, changes neither the output nor the exit code
    monkeypatch.delenv("AQRM_NMAX", raising=False)
    want = main(list(argv)), capsys.readouterr()
    for raw in ("abc", "0", "200"):
        monkeypatch.setenv("AQRM_NMAX", raw)
        assert (main(list(argv)), capsys.readouterr()) == want, raw


def test_every_exported_name_resolves():
    # `from aqrm import *` reads __all__: the package's surface is this
    # list, its submodules included
    assert aqrm.__all__ == [
        "BivarPoly", "ConstraintFamily", "CrossingObservation",
        "CrossingRecord", "ExceptionalRoot", "GValue", "HeunOp", "KParams",
        "PLAIN", "RepOperator", "RepParams", "TILDE", "UniPoly",
        "assemble_K", "bargmann_system_residual", "casimir",
        "commutator_check", "confirm", "confirm_crossings", "constraint",
        "constraint_poly", "constraint_poly_at", "exactpoly",
        "find_crossings", "find_exceptional", "g_minus", "g_pair", "g_plus",
        "gfunction", "heun", "heun_direct", "intertwiner_check",
        "invariant_subspace_check", "isolate_positive_roots", "poly_div_x",
        "reduction_check", "reduction_kparams", "rep_generator",
        "rep_pair_labels", "sl2rep", "to_fraction", "tridiag_matrix",
        "verify_conjecture", "verify_identity_half"]


#: every subcommand that needs no dense solve, with arguments
EXACT_ONLY = [
    ["poly", "--N", "2", "--two-eps", "1", "--k", "2"],
    ["roots", "--N", "2", "--two-eps", "1", "--d", "1/4"],
    ["crossings", "--N", "2", "--delta2", "1/2"],
    ["crossings", "--N", "12", "--two-eps", "1", "--delta2", "7/3",
     "--confirm"],
    ["verify-identity", "--N", "3"],
    ["verify-conjecture", "--N", "2", "--ell", "1"],
    ["rep-check", "--trials", "1"],
    ["heun-check", "--which", "1", "--lambda=-3/2", "--g2", "1/2", "--d", "1"],
    ["gfunction", "--N", "1", "--delta", "1.5", "--g", "0.5"],
    ["gfunction", "--N", "1", "--delta", "1.5", "--g-min", "0.2",
     "--g-max", "1.5"],
]

_FRESH_EXACT_RUN = """
import contextlib, io, json, sys
from aqrm import *
assert "numpy" not in sys.modules, "from aqrm import * loaded numpy"
from aqrm.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "an exact-only subcommand loaded numpy"
import aqrm
assert confirm_crossings is aqrm.confirm.confirm_crossings
assert CrossingObservation is aqrm.confirm.CrossingObservation
from aqrm import spectrum
for name in ("sweep", "ModelParams", "SpectralSweep", "build_hamiltonian",
             "kernel_vector"):
    assert callable(getattr(spectrum, name)), name
"""


def test_exact_subcommands_do_not_load_numpy():
    src = str(Path(aqrm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _FRESH_EXACT_RUN, json.dumps(EXACT_ONLY)],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_only_spectrum_imports_numpy():
    # numpy stays behind one module; a function-local or TYPE_CHECKING
    # import elsewhere counts too
    importers = set()
    for path in Path(aqrm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.partition(".")[0] == "numpy" for m in modules):
                importers.add(path.name)
    assert importers == {"spectrum.py"}
