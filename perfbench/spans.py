"""Outside-in span recorder for the traced benchmark run.

Spans are recorded around calls into pntavg's public functions without
touching the library source: each traced function is rebound, in every
loaded ``pntavg.*`` module namespace that holds it, to a wrapper that
records a span.  Rebinding every holder matters because the modules import
each other by name (``from .accum import neumaier_prefix_sum``), so
patching the defining module alone would miss the callers.

Spans are kept in memory and written out once, when the traced process
ends.  A span's self time is its duration minus the part of it that its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# Traced public functions, grouped by the pntavg module (the layer) that
# defines them.
TRACED = {
    "sieve": ("build_lambda_table", "read_cache", "write_cache", "error_series"),
    "accum": ("neumaier_sum", "neumaier_prefix_sum"),
    "averaging": (
        "iterated_average",
        "hat_r_series",
        "hat_prime_r_series",
        "tilde_r_series",
        "range_summary",
    ),
    "zeros": ("load_zeros", "zero_sum"),
    "perron": ("perron_integral",),
    "cli": ("cmd_sieve", "cmd_errors", "cmd_tables"),
}


def _count_elements(args, kwargs, result):
    return {"elements": len(args[0] if args else kwargs["values"])}


def _count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _count_read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _count_terms(args, kwargs, result):
    return {"terms": result.count_used}


def _perron_margin(args, kwargs, result):
    # At a = 1 the gap sits at the bound by construction, so its margin is
    # kept apart from the a != 1 points, whose margin has room to move.
    key = "margin_a1" if result.a == 1.0 else "margin"
    return {key: result.gap / (result.bound + result.quadrature_error_estimate)}


# Work counts taken from a call's arguments or result, after its span ends.
COUNTS = {
    "accum.neumaier_prefix_sum": _count_elements,
    "sieve.read_cache": _count_read_bytes,
    "sieve.write_cache": _count_file_bytes,
    "zeros.zero_sum": _count_terms,
    "perron.perron_integral": _perron_margin,
}


class Recorder:
    """Collects nested spans as dicts: id, parent, name, start, end, counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": self.clock(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced


def install(recorder: Recorder, traced=TRACED, package: str = "pntavg") -> list[str]:
    """Rebind every traced function in every loaded module of ``package``.

    Returns the names of traced functions that the package does not define,
    so that a later refactor shows up as an absent layer, not as a crash.
    """
    homes = {}
    for layer in traced:
        try:
            homes[layer] = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError:
            homes[layer] = None
    holders = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    absent = []
    for layer, names in traced.items():
        home = homes[layer]
        for fname in names:
            name = f"{layer}.{fname}"
            orig = getattr(home, fname, None)
            if not callable(orig):
                absent.append(name)
                continue
            wrapper = recorder.wrap(name, orig, COUNTS.get(name))
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
    return absent


def aggregate(spans: list[dict], into: dict | None = None) -> dict[str, dict]:
    """Per span name: calls, incl_s, self_s, durations and per-call counts.

    incl_s sums only the outermost span of a name, so a function that calls
    itself is not counted twice; self_s subtracts direct children.  Spans of
    several processes are combined by passing the previous result as
    ``into``, since span ids are only unique within one process.
    """
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {} if into is None else into
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out.setdefault(
            s["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []}
        )
        agg["calls"] += 1
        agg["self_s"] += dur - child_s[s["id"]]
        agg["durations"].append(dur)
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            agg["incl_s"] += dur
        for key, value in s.items():
            if key not in ("id", "parent", "name", "start", "end"):
                agg.setdefault(key, []).append(value)
    return out
