"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of the ``semtrack`` modules
with timing wrappers, each patched under the name its caller looks up
(``semtrack.estimator.reject_outliers``, not ``semtrack.associate``'s
copy), and puts the originals back on exit.  Spans nest on a stack: when
one ends, its duration minus the time of its child spans is added to its
layer's self time, and its full duration to the parent's child time.
Counters are read from each call's arguments and results, so they are
exact and repeat from run to run.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

import semtrack.estimator as est
import semtrack.metrics as met
import semtrack.nls as nls
import semtrack.pipeline as pipe
import semtrack.residuals as res
import semtrack.simulate as sim

# spans whose every duration is kept, for a median
KEEP_DURATIONS = ("simulate.frame",)
# the span under which each solver's nls iterations are counted
_NLS_PARENT = {"estimator.ego": "nls.ego_iterations",
               "estimator.object": "nls.object_iterations",
               "estimator.align": "nls.align_iterations"}


def _count_simulate(tr, args, out):
    tr.add("simulate.features", len(out.features))


def _count_ransac(tr, args, out):
    mask, passthrough = out
    tr.add("associate.ransac_calls")
    tr.add("associate.ransac_pairs", len(mask))
    tr.add("associate.ransac_kept", int(mask.sum()))
    tr.add("associate.ransac_passthrough", int(passthrough))


def _count_box(tr, args, out):
    tr.add("associate.box_matches", len(out[0]))


def _count_ego(tr, args, out):
    tr.add("estimator.ego_solves")
    tr.add("estimator.ego_low_parallax", int(out.insufficient_parallax))


def _count_object(tr, args, out):
    tr.add("estimator.object_solves")
    tr.add("estimator.object_under_constrained", int(out.under_constrained))


def _count_align(tr, args, out):
    tr.add("estimator.align_calls")
    tr.add("estimator.align_points", len(args[1]))
    tr.add("estimator.align_applied", int(out[1]))


def _count_nls(tr, args, out):
    key = _NLS_PARENT.get(tr.parent_name())
    if key is not None:
        tr.add(key, out[1].iterations)


def _count_linear(tr, args, out):
    tr.add("nls.linear_solves")


def _count_feature(tr, args, out):
    tr.add("residuals.feature_rows", len(out[0]))


def _counter(name):
    def count(tr, args, out):
        tr.add(name)
    return count


# (owner, attribute, span name or None for count-only, counter,
#  counter of raised exceptions or None)
PATCHES = (
    (sim, "synthesize_frame", "simulate.frame", _count_simulate, None),
    (est, "reject_outliers", "associate.ransac", _count_ransac, None),
    (est, "associate_objects", "associate.box", _count_box, None),
    (est, "infer_pose", "boxinfer.infer", _counter("boxinfer.infer_calls"),
     "boxinfer.infer_failed"),
    (est.WindowTracker, "process", "estimator.glue", None, None),
    (est, "solve_ego", "estimator.ego", _count_ego, "estimator.ego_failed"),
    (est, "solve_object", "estimator.object", _count_object,
     "estimator.object_failed"),
    (est, "align_point_cloud", "estimator.align", _count_align, None),
    (est, "solve_nls", "nls.self", _count_nls, None),
    (nls.SchurNormalEquations, "solve", "nls.linear_solve", _count_linear,
     None),
    (nls.DenseNormalEquations, "solve", "nls.linear_solve", _count_linear,
     None),
    (res, "feature_residuals_batch", "residuals.feature", _count_feature,
     None),
    (res, "semantic_residual", "residuals.semantic",
     _counter("residuals.semantic_calls"), None),
    (res, "motion_residual", "residuals.motion",
     _counter("residuals.motion_calls"), None),
    (res, "point_surface_residual", "residuals.surface",
     _counter("residuals.surface_calls"), None),
    (pipe, "evaluate_run", "metrics.eval", None, None),
    (met, "iou_bev", None, _counter("metrics.iou_calls"), None),
    (met, "iou_3d", None, _counter("metrics.iou_calls"), None),
)


class Tracer:
    """Context manager that installs the wrappers in :data:`PATCHES`.

    ``self_s[name]`` is a span's self time, ``total_s[name]`` its full
    duration summed over calls, ``calls[name]`` the number of spans,
    ``counts`` the counters, ``durations`` the duration of every span
    named in :data:`KEEP_DURATIONS`.
    """

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)
        self._stack = []  # [name, start, child seconds]
        self._saved = []

    def add(self, name, value=1):
        self.counts[name] += value

    def parent_name(self):
        """Name of the span that encloses the current one."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, func, name, count, failed):
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None:
                out = func(*args, **kwargs)
                count(tracer, args, out)
                return out
            with tracer.span(name):
                try:
                    out = func(*args, **kwargs)
                except Exception:
                    if failed is not None:
                        tracer.add(failed)
                    raise
                if count is not None:
                    count(tracer, args, out)
                return out

        wrapper.__wrapped__ = func
        return wrapper

    def __enter__(self):
        for owner, attr, name, count, failed in self.patches:
            func = owner.__dict__[attr]
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(func, name, count, failed))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, func = self._saved.pop()
            setattr(owner, attr, func)
        return False


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._stack.append([self.name, time.perf_counter(), 0.0])

    def __exit__(self, *exc):
        tr = self.tracer
        name, start, child = tr._stack.pop()
        duration = time.perf_counter() - start
        tr.self_s[name] += duration - child
        tr.total_s[name] += duration
        tr.calls[name] += 1
        if name in KEEP_DURATIONS:
            tr.durations[name].append(duration)
        if tr._stack:
            tr._stack[-1][2] += duration
        return False


def span_cost(calls=20000):
    """Seconds that wrapping adds to one call, measured on a no-op."""
    ns = types.SimpleNamespace(noop=lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        ns.noop()
    bare = time.perf_counter() - t0
    with Tracer(patches=((ns, "noop", "noop", None, None),)):
        t0 = time.perf_counter()
        for _ in range(calls):
            ns.noop()
        wrapped = time.perf_counter() - t0
    return max(wrapped - bare, 0.0) / calls
