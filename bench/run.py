#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the aqrm command line.

Run from the repository root:

    python3 bench/run.py --workload crossings-confirm --seed 1 --seconds 30 --trace 0

One client drives ``aqrm.cli.main`` in-process in a closed loop: each task
starts when the previous one has returned. Tasks come in seeded rounds
(bench/workloads.py); the run measures whole rounds until ``--seconds`` have
passed, then checks every output against the oracles in bench/oracles.py,
outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the time
untraced, replays the same tasks with spans recorded around aqrm's public
functions (bench/spans.py), writes the spans to bench/_out/ as JSON lines and
reports the per-layer metrics read back from that file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the aqrm sources
in ``src/`` beside ``bench/`` the script exits 1 and prints no result.

Set-up (importing aqrm, generating the first round, one warm-up call per
subcommand) is timed in fresh interpreters, SETUP_REPEATS before the timed
loop, one between rounds every SETUP_EVERY_S seconds and SETUP_REPEATS after
the loop, and reported as the median. BLAS and OpenMP are pinned
to one thread, which the run metadata records together with the values found
in the environment; ``AQRM_NMAX`` is removed from the environment and every
task passes ``--n-max`` itself.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 2  # fresh set-ups before and again after the timed loop
SETUP_EVERY_S = 3.0  # and one between rounds at most this often
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = spans.LAYER_UNITS | {
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


class SourceMissing(RuntimeError):
    pass


def pin_environment() -> dict:
    """Pin BLAS threads and drop AQRM_NMAX; return what was there before."""
    before = {var: os.environ.get(var) for var in (*THREAD_VARS, "AQRM_NMAX")}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("AQRM_NMAX", None)
    return before


def import_cli():
    """aqrm.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "aqrm" / "__init__.py").is_file():
        raise SourceMissing(f"no aqrm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aqrm.cli

    if not Path(aqrm.cli.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"aqrm imported from {aqrm.cli.__file__}")
    return aqrm.cli


@dataclass
class TaskResult:
    task: workloads.Task
    seconds: float
    exit_code: int | None
    error: str | None
    out_path: Path

    def read_output(self) -> str:
        return self.out_path.read_text()


def run_tasks(cli, tasks, out_dir: Path, first: int = 0,
              recorder: spans.Recorder | None = None) -> list[TaskResult]:
    results = []
    for i, task in enumerate(tasks, first):
        out_path = out_dir / f"t{i}.out"
        argv = [*task.argv, f"--out={out_path}"]
        if recorder is not None:
            recorder.task = i
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed task, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        results.append(TaskResult(task, time.perf_counter() - t0, code, error,
                                  out_path))
    return results


def timed_pass(cli, source: workloads.Rounds, seconds: float, tasks_wanted: int,
               run_dir: Path, recorder: spans.Recorder | None = None,
               after_round=None):
    """Whole rounds until `seconds` of untraced task time and `tasks_wanted` tasks.

    With a recorder every round also runs traced, the two orders alternating
    from round to round so that drift during the run falls on both sides.
    `after_round` is called between rounds, outside the timed region.
    Returns ({traced: results}, {traced: wall seconds}, untraced round walls).
    """
    results = {False: [], True: []}
    wall = {False: 0.0, True: 0.0}
    round_walls = []
    while wall[False] < seconds or len(results[False]) < tasks_wanted:
        tasks = source.next_round()
        order = (False, True) if len(round_walls) % 2 == 0 else (True, False)
        for traced in order if recorder is not None else (False,):
            done = results[traced]
            out_dir = run_dir / ("traced" if traced else "untraced")
            if traced:
                recorder.install()
            try:
                t0 = time.perf_counter()
                done += run_tasks(cli, tasks, out_dir, len(done),
                                  recorder if traced else None)
                elapsed = time.perf_counter() - t0
                wall[traced] += elapsed
                if not traced:
                    round_walls.append(elapsed)
            finally:
                if traced:
                    recorder.uninstall()
        if after_round is not None:
            after_round()
    return results, wall, round_walls


def warm_up(cli, workload: str, out_dir: Path) -> None:
    tasks = [workloads.Task("warmup", argv) for argv in workloads.WARMUP[workload]]
    for res in run_tasks(cli, tasks, out_dir):
        if res.exit_code != 0:
            raise RuntimeError(f"warm-up {res.task.argv} failed: "
                               f"{res.error or res.exit_code}")


def probe_setup(workload: str, seed: int) -> float:
    """Set-up cost as a fresh interpreter pays it (run in a child process)."""
    out_dir = OUT / f"probe-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        cli = import_cli()
        workloads.Rounds(workload, seed).next_round()
        warm_up(cli, workload, out_dir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(child.stdout.split()[-1]))
    return samples


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_metadata(args, env_before: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "environment_before": env_before, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def min_tasks(workload: str) -> int:
    """Fewest tasks that leave TAIL_BEYOND samples above the workload's tail."""
    return -(-100 * TAIL_BEYOND // (100 - workloads.TAIL_PERCENTILE[workload]))


def tail(times: list[float], percentile: int) -> float:
    """Nearest-rank percentile of the task times."""
    ordered = sorted(times)
    return ordered[-(-percentile * len(ordered) // 100) - 1]


def negative_control(cli, out_dir: Path) -> str | None:
    """verify-identity --inject-fault must be reported as a failed verification."""
    task = workloads.Task("control", workloads.NEGATIVE_CONTROL)
    res = run_tasks(cli, [task], out_dir, first=-1)[0]
    if res.exit_code != 2:
        return f"negative control exited {res.exit_code}, expected 2"
    if json.loads(res.read_output()).get("ok") is not False:
        return "negative control reported ok"
    return None


def output_mismatches(first: list[TaskResult], second: list[TaskResult]):
    return [(i, "traced output differs from untraced output")
            for i, (a, b) in enumerate(zip(first, second))
            if a.out_path.read_bytes() != b.out_path.read_bytes()]


def measure(args, cli, run_dir: Path) -> tuple[dict, dict, list, int]:
    """Returns (metrics, details, failures, attempted)."""
    import oracles  # not at module level: it imports numpy, which set-up times

    for sub in ("untraced", "traced"):
        (run_dir / sub).mkdir(parents=True)
    source = workloads.Rounds(args.workload, args.seed)
    recorder = spans.Recorder() if args.trace else None
    if args.trace:
        seconds, wanted = args.seconds / 2, 1
    else:
        seconds, wanted = args.seconds, min_tasks(args.workload)
    setups = [] if args.trace else measure_setup(args.workload, args.seed,
                                                 SETUP_REPEATS)
    next_probe = time.perf_counter() + SETUP_EVERY_S

    def probe():
        # the host's speed drifts over tens of seconds, so set-up is sampled
        # across the whole run and not only at its ends
        nonlocal next_probe
        if time.perf_counter() >= next_probe:
            setups.extend(measure_setup(args.workload, args.seed, 1))
            next_probe = time.perf_counter() + SETUP_EVERY_S

    results, wall, round_walls = timed_pass(cli, source, seconds, wanted,
                                            run_dir, recorder,
                                            None if args.trace else probe)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        setups += measure_setup(args.workload, args.seed, SETUP_REPEATS)
    plain = results[False]
    attempted = len(plain)
    failures = oracles.check_all(plain, args.seed)
    failed_ids = {i for i, _ in failures}
    details: dict = {"rounds": len(round_walls), "round_walls_s": round_walls}
    if not args.trace:
        ok_tasks = attempted - len(failed_ids)
        times = [r.seconds for r in plain]
        tail_pct = workloads.TAIL_PERCENTILE[args.workload]
        metrics = {
            "tasks_per_s": ok_tasks / wall[False],
            "task_p50_s": statistics.median(times),
            "task_tail_s": tail(times, tail_pct),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
        }
        details.update(task_tail_percentile=tail_pct, task_samples=len(times),
                       failed_frac=(attempted - ok_tasks) / attempted,
                       setup_samples_s=setups)
        if args.workload == "crossings-confirm":
            confirmed = sum(r.task.expect["roots"] for i, r in enumerate(plain)
                            if i not in failed_ids)
            details["roots_per_s"] = confirmed / wall[False]
    else:
        attempted += len(results[True])
        failures += output_mismatches(plain, results[True])
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
        spans.write_spans(recorder.spans, str(trace_path))
        recorded = spans.read_spans(str(trace_path))
        metrics = spans.layer_metrics(recorded)
        covered = sum(s["end"] - s["start"] for s in recorded
                      if s["name"] == "cli.main")
        metrics["trace.unattributed_s"] = wall[True] - covered
        metrics["trace.overhead_frac"] = wall[True] / wall[False] - 1
        details.update(traced_wall_s=wall[True], trace_file=str(trace_path),
                       spans=len(recorded),
                       missing_sites=sorted(recorder.missing))
    if args.workload == "exact-verify":
        reason = negative_control(cli, run_dir)
        details["negative_control"] = reason or "detected"
        if reason:
            failures.append((-1, reason))
    return metrics, details, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    env_before = pin_environment()
    try:
        if args.probe_setup:
            print(probe_setup(args.workload, args.seed))
            return 0
        cli = import_cli()
    except SourceMissing as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    meta = run_metadata(args, env_before)
    print("meta " + json.dumps(meta), flush=True)
    run_dir = OUT / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        warm_dir = run_dir / "warmup"
        warm_dir.mkdir(parents=True)
        warm_up(cli, args.workload, warm_dir)
        metrics, details, failures, attempted = measure(args, cli, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for i, reason in failures:
        sys.stderr.write(f"bench: task {i} failed: {reason}\n")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report = {name: (metrics[name], unit) for name, unit in units.items()}
    if not args.trace:  # reported here, gated through "failed" and tasks_per_s
        report["failed_frac"] = (details["failed_frac"], "ratio")
        if "roots_per_s" in details:
            report["roots_per_s"] = (details["roots_per_s"], "1/s")
    for name, (value, unit) in report.items():
        print(f"{name:42s} {value:.6g} {unit}")
    if not args.trace:
        print(f"task_tail_s is the p{details['task_tail_percentile']} of "
              f"{details['task_samples']} task times")
    for binding in details.get("missing_sites", []):
        sys.stderr.write(f"bench: no {binding} to trace\n")
    print("details " + json.dumps(details))
    failed = len({i for i, _ in failures if i >= 0})
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
