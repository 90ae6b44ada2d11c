"""Layer spans recorded from outside the program.

``Tracer.installed`` replaces public functions of the ``dephcap`` modules,
in the module namespaces where their callers look them up, by wrappers that
record a span per call, and puts the originals back on exit.  Spans are kept
in memory; ``write_jsonl`` writes them out when the run ends.

A span's parent is the innermost open span of its own thread or, for the
first span of a pool thread, the op it runs under.  A call nested in a span
of the same name (``capacity_report`` calling ``ea_capacity``) is not a new
crossing of that layer's boundary and gets no span of its own.
"""

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    counts: dict = field(default_factory=dict)


def _terms(result):
    return {"terms": result.probs.size}


def _cells(result):
    return {"cutoff_cells": result.probs.size}


def _kernel(args):
    # _number_kernel_log(kappa, n_b, n_out, n_in) builds an
    # n_out x n_in x min(n_out, n_in) float64 stack per auto-extension pass
    n_out, n_in = int(args[2]), int(args[3])
    return {"passes": 1, "kernel_bytes": 8 * n_out * n_in * min(n_out, n_in)}


def layer_points(dephcap):
    """(module, attribute, layer name, counts from args, counts from result)."""
    de, sm, bd = dephcap.dephasing_exact, dephcap.special_math, dephcap.bounds
    pe, tl, fo = dephcap.phase_encoding, dephcap.thermal_loss, dephcap.fock_oracle
    points = [
        (de, "solve_dephasing", "dephasing_exact.solve_dephasing", None, None),
        (de, "solve_lambda", "dephasing_exact.solve_lambda", None, None),
        (de, "optimal_total_distribution", "dephasing_exact.optimal_total_distribution",
         None, _terms),
        # dephasing_exact imported the series by name; hyp2f1_squared_series
        # looks it up in special_math
        (de, "_squared_series_logs", "special_math.series", None, None),
        (sm, "_squared_series_logs", "special_math.series", None, None),
        (de, "build_from_log_pmf", "photon_dist.build_from_log_pmf", None, None),
        (bd, "thermal_total_photon_dist", "bounds.thermal_total_photon_dist", None, _terms),
        (bd, "entropy_total_exact", "bounds.entropy_total_exact", None, None),
        (pe, "holevo_phase_encoding", "phase_encoding.holevo_phase_encoding", None, None),
        (pe, "fock_diagonal", "phase_encoding.fock_diagonal", None, _cells),
        (pe, "_number_kernel_log", "phase_encoding.kernel", _kernel, None),
    ]
    points += [(tl, fn, "thermal_loss", None, None)
               for fn in ("ea_capacity", "hsw_capacity", "capacity_report", "advantage_ratio")]
    points += [(fo, fn, f"fock_oracle.{fn}", None, None)
               for fn in ("apply_thermal_loss", "two_mode_covariance",
                          "von_neumann_entropy", "apply_phase_shift")]
    return points


class Tracer:
    """Spans of the ops run while it is installed."""

    def __init__(self):
        self.spans = []
        self.max_threads = 1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, label):
        """Root span of one op; pool threads attach their spans to it."""
        root = Span(next(self._ids), "cli", 0.0, 0.0, None, 0, threading.get_ident(),
                    {"label": label})
        root.op = root.id
        self._op = root
        self._stack().append((root.name, root.id))
        root.start = time.perf_counter()
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._stack().pop()
            self._op = None
            self.spans.append(root)

    def wrap(self, name, fn, from_args=None, from_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if self._op is None or any(n == name for n, _ in stack):
                return fn(*args, **kwargs)
            if not stack:  # the thread count changes only as pool threads start
                with self._lock:
                    self.max_threads = max(self.max_threads, threading.active_count())
            parent = stack[-1][1] if stack else self._op.id
            span_id = next(self._ids)
            stack.append((name, span_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = dict(from_args(args) if from_args else {})
            if from_result:
                counts.update(from_result(result))
            self.spans.append(Span(span_id, name, start, end, parent, self._op.id,
                                   threading.get_ident(), counts))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, dephcap):
        saved = []
        try:
            for module, attr, name, from_args, from_result in layer_points(dephcap):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, from_args, from_result))
            ver = dephcap.verification
            saved.append((ver, "_ALL_CHECKS", ver._ALL_CHECKS))
            ver._ALL_CHECKS = tuple(
                self.wrap("verification." + fn.__name__.removeprefix("check_"), fn)
                for fn in ver._ALL_CHECKS)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals):
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def op_accounting(spans):
    """{op id: (op seconds, seconds covered by child spans, self seconds)}.

    Children run in the op's own thread or in pool threads, so they may
    overlap: covered time is the length of the union of their intervals, and
    covered + self equals the op's time exactly.
    """
    roots = {s.id: s for s in spans if s.name == "cli"}
    children = {op_id: [] for op_id in roots}
    for s in spans:
        if s.parent in roots:
            children[s.parent].append((s.start, s.end))
    out = {}
    for op_id, root in roots.items():
        duration = root.end - root.start
        covered = _union_length(children[op_id])
        out[op_id] = (duration, covered, duration - covered)
    return out


def layer_totals(spans):
    """Per layer name: calls, busy seconds summed over threads, summed counts."""
    totals = {}
    for s in spans:
        if s.name == "cli":
            continue
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += s.end - s.start
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
