"""Span recording around aqrm's public functions, and the reader for spans.

The recorder wraps functions at every module that binds them (modules use
``from ... import``, so each binding is wrapped separately) and keeps the
spans in memory. ``write_spans`` stores them as JSON lines, one object per
span::

    {"id": 7, "parent": 3, "task": 12, "name": "spectrum.eigenvalues",
     "start": 1.250113, "end": 1.250941, "counters": {"dim": 122}}

``start``/``end`` are seconds from the recorder's creation, ``parent`` is the
id of the enclosing span or null, ``task`` numbers the benchmark task, and a
span whose call raised carries ``"error": "<exception type>"``. The same
schema is meant for a later in-program ``--trace`` so that ``read_spans`` and
``layer_metrics`` read both.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict


def _isolate_counters(args, kwargs, result):
    coeffs = getattr(args[0], "coeffs", ())
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)
    return {"roots": len(result), "degree": len(coeffs) - 1,
            "coeff_bits": bits}


def _main_counters(args, kwargs, result):
    argv = list(args[0])
    out = next((a.split("=", 1)[1] for a in argv if a.startswith("--out=")),
               None)
    return {"output_bytes": os.path.getsize(out) if out and os.path.exists(out)
            else 0}


#: span name -> (bindings "module:attr" or "module:Class.attr", counters)
SITES = {
    "exactpoly.isolate": (
        ["aqrm.exactpoly:isolate_positive_roots",
         "aqrm.constraint:isolate_positive_roots",
         "aqrm.cli:isolate_positive_roots"], _isolate_counters),
    "exactpoly.refine": (
        ["aqrm.exactpoly:refine_isolated", "aqrm.constraint:refine_isolated"],
        None),
    "exactpoly.specialize": (["aqrm.exactpoly:BivarPoly.specialize"], None),
    "exactpoly.poly_div_x": (
        ["aqrm.exactpoly:poly_div_x", "aqrm.constraint:poly_div_x"], None),
    "constraint.constraint_poly": (
        ["aqrm.constraint:constraint_poly", "aqrm.gfunction:constraint_poly"],
        None),
    "constraint.find_crossings": (["aqrm.constraint:find_crossings"], None),
    "constraint.verify_identity_half": (
        ["aqrm.constraint:verify_identity_half"], None),
    "constraint.verify_conjecture": (
        ["aqrm.constraint:verify_conjecture"], None),
    "spectrum.eigenvalues": (
        ["aqrm.spectrum:eigenvalues"],
        lambda args, kwargs, result: {"dim": len(result)}),
    "spectrum.build_hamiltonian": (["aqrm.spectrum:build_hamiltonian"], None),
    "spectrum.confirm_crossing": (["aqrm.spectrum:confirm_crossing"], None),
    "spectrum.sweep": (["aqrm.spectrum:sweep"], None),
    "gfunction.series": (
        ["aqrm.gfunction:g_plus", "aqrm.gfunction:g_minus"],
        lambda args, kwargs, result: {"terms": result.n_stop - args[0]}),
    "gfunction.find_exceptional": (["aqrm.gfunction:find_exceptional"], None),
    "sl2rep.matmul": (
        ["aqrm.sl2rep:RepOperator.__matmul__"],
        lambda args, kwargs, result: {"width": args[0].params.width}),
    "sl2rep.checks": (
        ["aqrm.sl2rep:" + name for name in (
            "commutation_relations_check", "casimir_scalar_check",
            "commutator_check", "invariant_subspace_check",
            "intertwiner_check", "k_block_minus_lambda")], None),
    "heun": (
        ["aqrm.heun:heun_direct", "aqrm.heun:heun_from_K", "aqrm.heun:exponents"],
        None),
    "cli.main": (["aqrm.cli:main"], _main_counters),
}


class Recorder:
    """In-memory span recorder; ``install`` wraps the SITES, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.task: int | None = None
        self.missing: set[str] = set()
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn, counters=None):
        stack, spans, clock, t0 = self._stack, self.spans, time.perf_counter, self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans) + len(stack),
                    "parent": stack[-1]["id"] if stack else None,
                    "task": self.task, "name": name, "start": clock() - t0}
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    span["counters"] = counters(args, kwargs, result)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = clock() - t0
                stack.pop()
                spans.append(span)

        return traced

    def install(self) -> None:
        for name, (bindings, counters) in SITES.items():
            for binding in bindings:
                module_name, attr_path = binding.split(":")
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.add(binding)
                    continue
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counters))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_spans(spans: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for span in sorted(spans, key=lambda s: s["id"]):
            fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


#: per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "exactpoly.isolate.calls": "count",
    "exactpoly.isolate.self_s": "s",
    "exactpoly.isolate.roots": "count",
    "exactpoly.isolate.degree_sum": "count",
    "exactpoly.isolate.coeff_bits_max": "bits",
    "exactpoly.refine.calls": "count",
    "exactpoly.refine.self_s": "s",
    "exactpoly.specialize.self_s": "s",
    "exactpoly.poly_div_x.calls": "count",
    "exactpoly.poly_div_x.self_s": "s",
    "constraint.constraint_poly.calls": "count",
    "constraint.constraint_poly.self_s": "s",
    "constraint.find_crossings.self_s": "s",
    "constraint.verify_identity_half.self_s": "s",
    "constraint.verify_conjecture.self_s": "s",
    "spectrum.eigenvalues.calls": "count",
    "spectrum.eigenvalues.self_s": "s",
    "spectrum.eigenvalues.dim_sum": "count",
    "spectrum.eigenvalues.call_p50_s": "s",
    "spectrum.eigenvalues.call_max_s": "s",
    "spectrum.build_hamiltonian.self_s": "s",
    "spectrum.confirm_crossing.calls": "count",
    "spectrum.confirm_crossing.escalations": "count",
    "spectrum.confirm_crossing.failures": "count",
    "spectrum.confirm_crossing.self_s": "s",
    "spectrum.sweep.self_s": "s",
    "gfunction.series.calls": "count",
    "gfunction.series.self_s": "s",
    "gfunction.series.terms": "count",
    "gfunction.find_exceptional.self_s": "s",
    "sl2rep.matmul.calls": "count",
    "sl2rep.matmul.self_s": "s",
    "sl2rep.matmul.width_max": "count",
    "sl2rep.checks.self_s": "s",
    "heun.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate spans into the LAYER_UNITS metrics (zero where a layer did no work).

    ``calls`` counts outermost spans only: a span nested in one of the same
    name, such as confirm_crossing re-entering itself at a larger truncation
    (an escalation), is not a new call.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    groups = defaultdict(list)
    for s in spans:
        groups[s["name"]].append(s)

    def nested(s):
        parent = by_id.get(s["parent"])
        return parent is not None and parent["name"] == s["name"]

    def counter_sum(name, key):
        return sum(s.get("counters", {}).get(key, 0) for s in groups[name])

    out = {}
    for metric in LAYER_UNITS:
        layer, _, stat = metric.rpartition(".")
        group = groups[layer]
        if stat == "self_s":
            out[metric] = sum(own[s["id"]] for s in group)
        elif stat == "calls":
            out[metric] = sum(1 for s in group if not nested(s))
        elif stat == "escalations":
            out[metric] = sum(1 for s in group if nested(s))
        elif stat == "failures":
            out[metric] = sum(1 for s in group
                              if "error" in s and not nested(s))
        elif stat in ("call_p50_s", "call_max_s"):
            durations = [s["end"] - s["start"] for s in group] or [0.0]
            out[metric] = (statistics.median(durations) if stat == "call_p50_s"
                           else max(durations))
    out["exactpoly.isolate.roots"] = counter_sum("exactpoly.isolate", "roots")
    out["exactpoly.isolate.degree_sum"] = counter_sum("exactpoly.isolate",
                                                      "degree")
    out["exactpoly.isolate.coeff_bits_max"] = max(
        (s.get("counters", {}).get("coeff_bits", 0)
         for s in groups["exactpoly.isolate"]), default=0)
    out["spectrum.eigenvalues.dim_sum"] = counter_sum("spectrum.eigenvalues",
                                                      "dim")
    out["gfunction.series.terms"] = counter_sum("gfunction.series", "terms")
    out["sl2rep.matmul.width_max"] = max(
        (s.get("counters", {}).get("width", 0)
         for s in groups["sl2rep.matmul"]), default=0)
    out["cli.output_bytes"] = counter_sum("cli.main", "output_bytes")
    return out
