"""Seeded task lists for the three benchmark workloads.

A workload is an endless sequence of rounds; a round is a short list of
CLI invocations (argv for ``aqrm.cli.main``) whose mix of costs is fixed by
design, so that a run that stops on a round boundary measures the same
composition of work whatever the seed. Where a task parameter drives cost
(level N, window k, trial count), it walks through its range by round index,
never by the seed, and tasks come in complementary pairs: ``k`` and
``N-1-k`` for windows, ``N`` and ``30-N`` for the identity check, and so on.
The seed chooses the remaining inputs (biases, rationals, couplings, trial
seeds) and the order of tasks.

Each workload also fixes the percentile its task-time tail is reported at
(TAIL_PERCENTILE): a run goes on until that percentile has ten samples
beyond it, so the reported percentile is the same in every run.

Each task carries what its oracle needs to know (``expect``). Nothing here
imports aqrm: the program only ever sees the generated argv.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("crossings-confirm", "spectral-scan", "exact-verify")
TAIL_PERCENTILE = {"crossings-confirm": 72, "spectral-scan": 85,
                   "exact-verify": 97}

PRECISION = "1/1000000000000"  # the CLI default, passed explicitly
CONFIRM_NMAX = 60              # the CLI default, passed explicitly
SWEEP_STEPS = 41
SWEEP_NMAX = (60, 60, 60, 120, 200)
G_TOL = 1e-10


@dataclass(frozen=True)
class Task:
    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def _flag(name: str, value) -> str:
    # "--flag=value" keeps argparse from reading a negative value such as
    # -3/2 as an option of its own
    return f"--{name}={value}"


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    """A random p/den in lowest terms with lo < p/den < hi, for den >= 2."""
    # the reduced denominator sets the coefficient sizes the exact core
    # works with, so it must not depend on the draw
    while math.gcd(p := rng.randint(lo * den + 1, hi * den - 1), den) != 1:
        pass
    return Fraction(p, den)


def window(k: int, two_eps: int) -> tuple[int, int]:
    """Open interval of d = Delta^2 in which P_N has exactly N-k positive roots."""
    return k * k + k * two_eps, (k + 1) ** 2 + (k + 1) * two_eps


def _crossing_task(rng: random.Random, N: int, k: int, two_eps: int,
                   den: int) -> Task:
    lo, hi = window(k, two_eps)
    d = _rational(rng, lo, hi, den)
    argv = ("crossings", _flag("N", N), _flag("two-eps", two_eps),
            _flag("delta2", d), "--confirm", _flag("precision", PRECISION),
            _flag("n-max", CONFIRM_NMAX), _flag("format", "json"))
    return Task("crossings", argv, {"N": N, "two_eps": two_eps, "d": str(d),
                                    "roots": N - k})


def _crossings_round(rng: random.Random, index: int) -> list[Task]:
    # Isolation costs about a(N) + roots * b(N), so the pair of windows k and
    # N-1-k (N+1 roots between them) costs nearly the same for every k, and
    # the bias pair two_eps, 3-two_eps evens out the rest. k, two_eps and the
    # denominator of d walk through their ranges by round index, so every
    # seed runs the same spread of costs and the task-time distribution does
    # not depend on the seed, which only picks the numerators of d.
    tasks = []
    for N in range(6, 15):
        k = (N // 3 + 5 * index) % N
        two_eps, den = (N + index) % 4, 2 + (N + index) % 3
        tasks.append(_crossing_task(rng, N, k, two_eps, den))
        tasks.append(_crossing_task(rng, N, N - 1 - k, 3 - two_eps, den))
    return tasks


def _sweep_task(rng: random.Random, n_max: int) -> Task:
    delta = round(rng.uniform(0.3, 2.5), 4)
    eps = round(rng.uniform(-1.0, 1.0), 4)
    g_min = round(rng.uniform(0.0, 0.3), 4)
    g_max = round(g_min + 1.5, 4)
    argv = ("sweep", _flag("delta", delta), _flag("eps", eps),
            _flag("g-min", g_min), _flag("g-max", g_max),
            _flag("steps", SWEEP_STEPS), _flag("n-max", n_max),
            _flag("format", "csv"))
    return Task("sweep", argv, {"delta": delta, "eps": eps, "g_min": g_min,
                                "g_max": g_max, "steps": SWEEP_STEPS,
                                "n_max": n_max})


def _gscan_task(rng: random.Random, N: int) -> Task:
    delta = round(rng.uniform(0.3, 3.0), 4)
    g_min = round(rng.uniform(0.05, 0.3), 4)
    g_max = round(g_min + 2.0, 4)
    argv = ("gfunction", _flag("N", N), _flag("delta", delta),
            _flag("g-min", g_min), _flag("g-max", g_max),
            _flag("tol", G_TOL), _flag("format", "json"))
    return Task("gscan", argv, {"N": N, "delta": delta, "g_min": g_min,
                                "g_max": g_max})


def _spectral_round(rng: random.Random, index: int) -> list[Task]:
    # The four G-function scans are the cheapest tasks, and their costs vary
    # with Delta; three n_max = 60 sweeps, whose cost does not, put the
    # median task time inside that group rather than at the top of the scans.
    tasks = [_sweep_task(rng, n_max) for n_max in SWEEP_NMAX]
    tasks += [_gscan_task(rng, N) for N in range(1, 5)]
    return tasks


def _exact_round(rng: random.Random, index: int) -> list[Task]:
    # verify-identity cost grows faster than linearly in N, so the pairs N,
    # 30-N do not even out on their own; N, ell and the trial count walk
    # through their ranges by round index, as k does in _crossings_round.
    tasks = []
    n = 10 + index % 11
    for N in (n, 30 - n):
        tasks.append(Task("identity", ("verify-identity", _flag("N", N),
                                       _flag("format", "json")), {"N": N}))
    n, ell = 6 + index % 8, index // 8 % 4
    for N, e in ((n, ell), (19 - n, 3 - ell)):
        tasks.append(Task("conjecture",
                          ("verify-conjecture", _flag("N", N),
                           _flag("ell", e), _flag("format", "json")),
                          {"N": N, "ell": e}))
    t = 2 + index % 5
    for trials in (t, 8 - t):
        seed = rng.randrange(2**31)
        tasks.append(Task("rep", ("rep-check", _flag("trials", trials),
                                  _flag("seed", seed), _flag("format", "json")),
                          {"seed": seed}))
    for which in (1, 2):
        lam = _rational(rng, -4, 4, rng.randint(2, 6))
        g2 = _rational(rng, 0, 3, rng.randint(2, 6))
        d = _rational(rng, 0, 4, rng.randint(2, 6))
        eps = _rational(rng, -2, 2, rng.randint(2, 4))
        tasks.append(Task("heun", ("heun-check", _flag("which", which),
                                   _flag("lambda", lam), _flag("g2", g2),
                                   _flag("d", d), _flag("eps", eps),
                                   _flag("format", "json")),
                          {"which": which}))
    return tasks


_ROUNDS = {
    "crossings-confirm": _crossings_round,
    "spectral-scan": _spectral_round,
    "exact-verify": _exact_round,
}

#: fixed, seed-independent calls that load every code path a workload uses
WARMUP = {
    "crossings-confirm": [
        ("crossings", "--N=3", "--two-eps=1", "--delta2=5/2", "--confirm",
         f"--precision={PRECISION}", f"--n-max={CONFIRM_NMAX}",
         "--format=json")],
    "spectral-scan": [
        ("sweep", "--delta=0.7", "--eps=0.1", "--g-min=0.1", "--g-max=1.0",
         "--steps=5", "--n-max=20", "--format=csv"),
        ("gfunction", "--N=1", "--delta=1.5", "--g-min=0.2", "--g-max=1.5",
         "--format=json")],
    "exact-verify": [
        ("verify-identity", "--N=4", "--format=json"),
        ("verify-conjecture", "--N=3", "--ell=1", "--format=json"),
        ("rep-check", "--trials=1", "--seed=1", "--format=json"),
        ("heun-check", "--which=1", "--lambda=-3/2", "--g2=1/2", "--d=1",
         "--eps=1/2", "--format=json")],
}

#: the negative control: a verification that must report failure (exit 2)
NEGATIVE_CONTROL = ("verify-identity", "--N=6", "--inject-fault",
                    "--format=json")


class Rounds:
    """Seeded source of rounds; round i is the same for a given (workload, seed)."""

    def __init__(self, workload: str, seed: int):
        if workload not in _ROUNDS:
            raise ValueError(f"unknown workload {workload!r}")
        self._make = _ROUNDS[workload]
        self._rng = random.Random(f"{workload}:{seed}")
        self._index = 0

    def next_round(self) -> list[Task]:
        tasks = self._make(self._rng, self._index)
        self._rng.shuffle(tasks)
        self._index += 1
        return tasks
