#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

For each workload it runs a handful of the seed's cheapest tasks through
``aqrm.cli.main``, checks that the oracles accept the real outputs and reject
corrupted copies (a dropped crossings root or G-root, a flipped ``"ok"``, a
shifted eigenvalue or G-root, a cleared convergence flag, an altered quotient), and that the negative control is detected. It
then runs bench/run.py briefly in both modes and checks that the printed
metrics are exactly those BENCHMARK.json names, and that run.py exits non-zero
without a result when the aqrm sources are absent. Exits 1 on any failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import run
import workloads

SEED = 7
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def cheapest(workload: str, count: int) -> list[workloads.Task]:
    def cost(task):
        return task.expect.get("n_max", task.expect.get("N", 0))
    return sorted(workloads.Rounds(workload, SEED).next_round(), key=cost)[:count]


def rejects(result, mutate, what: str) -> None:
    """The oracle must reject `result` once its output is rewritten by `mutate`."""
    original = result.out_path.read_text()
    result.out_path.write_text(mutate(original))
    try:
        expect(bool(oracles.check_all([result], SEED)), f"oracle rejects {what}")
    finally:
        result.out_path.write_text(original)


def _shift_eigenvalues(text: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], 1):
        g, index, value, flag = line.split(",")
        lines[i] = f"{g},{index},{float(value) + 1e-6!r},{flag}"
    return "\n".join(lines) + "\n"


def _clear_ground_flag(text: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], 1):
        g, index, value, _ = line.split(",")
        if index == "0":
            lines[i] = f"{g},{index},{value},False"
    return "\n".join(lines) + "\n"


def _shift_groot(text: str) -> str:
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    rows[0]["lambda"] += 1e-3
    return "\n".join(json.dumps(r) for r in rows) + "\n"


def _alter_quotient(text: str) -> str:
    report = json.loads(text)
    report["quotient"] += " + x"
    return json.dumps(report)


def oracle_checks(cli, out_dir: Path) -> None:
    plan = {"crossings-confirm": 2, "spectral-scan": 5, "exact-verify": 8}
    by_kind = {}
    for workload, count in plan.items():
        results = run.run_tasks(cli, cheapest(workload, count), out_dir / workload)
        failures = oracles.check_all(results, SEED)
        expect(not failures, f"{workload}: {len(results)} real outputs accepted"
               + (f" (got {failures})" if failures else ""))
        for res in results:
            by_kind.setdefault(res.task.kind, res)
    rejects(by_kind["crossings"],
            lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
            "a crossings output with one root dropped")
    for kind in ("identity", "conjecture", "rep", "heun"):
        rejects(by_kind[kind], lambda t: t.replace('"ok": true', '"ok": false'),
                f"a {kind} report with ok flipped")
    rejects(by_kind["sweep"], _shift_eigenvalues,
            "a sweep with eigenvalues shifted by 1e-6")
    rejects(by_kind["sweep"], _clear_ground_flag,
            "a sweep with the ground state's converged flag cleared")
    groot = next((r for r in by_kind.values() if r.task.kind == "gscan"
                  and r.read_output().strip()), None)
    expect(groot is not None, "a G-function scan found a root")
    if groot is not None:
        rejects(groot, _shift_groot, "a G-root with lambda shifted by 1e-3")
        rejects(groot, lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
                "a G-function scan with one root dropped")
    conjecture = by_kind["conjecture"]
    failure = oracles.check_quotient_sympy(
        conjecture.task.expect, json.loads(_alter_quotient(conjecture.read_output())))
    expect(failure is not None, "sympy.div rejects an altered quotient")
    expect(run.negative_control(cli, out_dir) is None,
           "verify-identity --inject-fault exits 2 and is detected")


def result_line(cwd: Path, *args: str) -> tuple[int, dict | None]:
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-verify",
         "--seed", str(SEED), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = child.stdout.strip().splitlines()
    try:
        return child.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return child.returncode, None


def interface_checks(out_dir: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = result_line(run.ROOT, "--trace", str(trace))
        names = {m["name"]: m["unit"] for m in spec[section]}
        got = {} if result is None else {
            n: m["unit"] for n, m in result["metrics"].items()}
        expect(code == 0 and result is not None and result["correct"]
               and got == names,
               f"run.py --trace {trace} prints exactly the {section} metrics")
    bare = out_dir / "bare"
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, result = result_line(bare, "--trace", "0")
    expect(code != 0 and result is None,
           "run.py exits non-zero without a result when src/ is absent")


def main() -> int:
    run.pin_environment()
    cli = run.import_cli()
    out_dir = run.OUT / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    for workload in workloads.WORKLOADS:
        (out_dir / workload).mkdir(parents=True)
    try:
        oracle_checks(cli, out_dir)
        interface_checks(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
