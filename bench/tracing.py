"""Spans around the public functions of the sensapprox modules.

Nothing under src/ is edited: ``Tracer.installed`` replaces, for the
duration of a ``with`` block, the attributes the callers actually look
up (module globals reached through a module reference, and methods on
the shared classes) by wrappers that record a span each.  A span is
``[name, start, end, parent, op, count]``; ``name`` starts with the
layer (module) it belongs to, ``op`` identifies the benchmark operation
that caused it and ``count`` is the amount of work the call was asked to
do (array size, samples, points returned, bytes written).

Scalar Fraction hot paths such as ``StepFunction.eval`` are not wrapped;
their work shows up as array sizes and in the caller's self time.
"""

from __future__ import annotations

import contextlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from sensapprox import approx, cli, funcspace, measures, norms, parsing

LAYERS = ("parsing", "measures", "norms", "funcspace", "approx", "cli")


def _size(args, _result):
    return int(np.size(args[-1]))


def _n(args, _result):
    return int(args[1])


def _len(_args, result):
    return len(result)


def _bytes(args, _result):
    return os.path.getsize(args[1])


# (owner, attribute, span name, count function)
WRAPPED = (
    (cli, "parse_target", "parsing.parse_target", None),
    (cli, "parse_measure", "parsing.parse_measure", None),
    (parsing, "eval_target_array", "parsing.eval_target_array", _size),
    (measures.BorelMeasure, "sample", "measures.sample", _n),
    (measures.BorelMeasure, "cdf_arr", "measures.cdf_arr", None),
    (measures.BorelMeasure, "essential_window", "measures.essential_window", None),
    (norms, "mc_norm", "norms.mc_norm", None),
    (norms, "wave_norm_bound", "norms.wave_norm_bound", None),
    (norms, "lp_norm", "norms.lp_norm", None),
    (norms, "lp_distance", "norms.lp_distance", None),
    (funcspace.StepFunction, "eval_arr", "funcspace.step_eval_arr", _size),
    (funcspace.TriangleWave, "eval_arr", "funcspace.wave_eval_arr", _size),
    (funcspace.TriangleWave, "lattice_points", "funcspace.lattice_points", _len),
    (funcspace.SensitiveApproximant, "eval_arr", "funcspace.approximant_eval_arr", _size),
    (funcspace.SensitiveApproximant, "nondiff_points", "funcspace.nondiff_points", _len),
    (approx, "sensitize", "approx.sensitize", None),
    (approx, "check_finite_moment", "approx.check_finite_moment", None),
    (approx, "build_step_approximation", "approx.build_step_approximation", None),
    (cli, "write_certificate", "cli.write_certificate", _bytes),
    (cli, "read_certificate", "cli.read_certificate", None),
)

# inclusive time of a stage: the summed duration of its spans
STAGE_TIMES = {
    "parsing.parse_target": "parsing.parse_s",
    "parsing.parse_measure": "parsing.parse_s",
    "parsing.eval_target_array": "parsing.eval_s",
    "measures.sample": "measures.sample_s",
    "measures.essential_window": "measures.window_s",
    "norms.mc_norm": "norms.mc_s",
    "norms.wave_norm_bound": "norms.wave_bound_s",
    "funcspace.step_eval_arr": "funcspace.step_eval_s",
    "funcspace.nondiff_points": "funcspace.nondiff_s",
    "approx.check_finite_moment": "approx.moment_check_s",
    "approx.build_step_approximation": "approx.step_build_s",
    "cli.write_certificate": "cli.cert_write_s",
    "cli.read_certificate": "cli.cert_read_s",
}

# work counts: the summed ``count`` of the spans
STAGE_COUNTS = {
    "parsing.eval_target_array": "parsing.eval_points",
    "measures.sample": "measures.samples",
    "funcspace.step_eval_arr": "funcspace.step_eval_points",
    "funcspace.wave_eval_arr": "funcspace.wave_eval_points",
    "funcspace.nondiff_points": "funcspace.nondiff_points",
    "cli.write_certificate": "cli.cert_bytes",
}

METRICS = sorted(
    set(STAGE_TIMES.values()) | set(STAGE_COUNTS.values())
    | {"measures.cdf_arr_calls", "norms.lp_norm_calls", "norms.lp_norm_s",
       "approx.refine_rounds", "approx.grid_route_cases", "trace.spans"}
    | {f"{layer}.self_s" for layer in LAYERS}
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None):
        idx = len(self.spans)
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                self.op, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = perf_counter()
        if count is not None:
            span[5] = count(args, result)
        return result

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in WRAPPED:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, first):
        """Per-layer metrics of the spans recorded since ``first``."""
        spans = self.spans
        out = dict.fromkeys(METRICS, 0)
        child_time = defaultdict(float)
        for span in spans[first:]:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        grid_builds = set()
        for i in range(first, len(spans)):
            name, start, end, parent, _op, count = spans[i]
            dur = end - start
            out[f"{name.split('.', 1)[0]}.self_s"] += dur - child_time[i]
            if name in STAGE_TIMES:
                out[STAGE_TIMES[name]] += dur
            if name in STAGE_COUNTS:
                out[STAGE_COUNTS[name]] += count or 0  # None when the call raised
            if name == "measures.cdf_arr":
                out["measures.cdf_arr_calls"] += 1
            caller = spans[parent][0] if parent is not None else ""
            if name in ("norms.lp_norm", "norms.lp_distance") and caller.startswith("approx."):
                # quadrature asked for by approx (moment check, step refinement);
                # the wave bound's own quadrature stays in norms.wave_bound_s
                out["norms.lp_norm_calls"] += 1
                out["norms.lp_norm_s"] += dur
            build = _ancestor(spans, i, "approx.build_step_approximation")
            if build is not None and name == "norms.lp_distance":
                out["approx.refine_rounds"] += 1
            if build is not None and name == "measures.essential_window":
                grid_builds.add(build)  # only the grid route asks for a window
        out["approx.grid_route_cases"] = len(grid_builds)
        out["trace.spans"] = len(spans) - first
        return out


def _ancestor(spans, i, name):
    j = spans[i][3]
    while j is not None:
        if spans[j][0] == name:
            return j
        j = spans[j][3]
    return None
