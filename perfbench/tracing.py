"""Traced runs: spans around each layer's public functions, seen from outside.

A traced run replaces, for its duration, the names under which each
``treerep`` module binds another layer's public function (for example
``treerep.signed_measure.prob_all_zero``) with a wrapper that records a
span.  No file under ``src/`` changes, and :func:`uninstall` puts the
original functions back.

A span is the tuple ``(id, parent, name, start, end, op, thread, info)``.
The parent comes from a per-thread stack; a thread with an empty stack
(a ``scan`` pool worker) takes the innermost open span of the thread
running the op, so pool work nests under ``phase_scan``.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from fractions import Fraction

ROOT = "cli"


class Tracer:
    """Collects spans and counters for the ops of one traced phase."""

    def __init__(self):
        self.spans = []
        self.counts = []  # (name, op, value)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, inspect=None):
        """``fn`` wrapped to record a span; ``inspect(args, kwargs, result)`` adds info."""
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if inspect is not None:
                    info = inspect(args, kwargs, result)
                return result
            except BaseException:
                end = clock()
                raise
            finally:
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, tracer.op, threading.get_ident(), info)
                )

        return traced

    def counter(self, name, fn, measure):
        """``fn`` wrapped to add ``measure(result)`` to counter ``name``."""
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts.append((name, tracer.op, measure(result)))
            return result

        return counted

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span named :data:`ROOT`."""
        self.op = op_id
        self._op_stack = self._stack()
        return self.span(ROOT, fn)(*args)


# ---------------------------------------------------------------------------
# the layers and where they are bound


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _prob_info(args, kwargs, value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return -1  # a truncated jet, from the derivative layer


# (layer, [(module, attribute), ...], inspect); every binding of a layer
# records spans under the same layer name.
SPANS = (
    ("tree_core.connected_subsets", [("representability", "connected_subsets")], None),
    ("chain_model.prob_all_zero",
     [("signed_measure", "prob_all_zero"), ("param_calculus", "prob_all_zero"),
      ("mc_verify", "prob_all_zero")], _prob_info),
    ("chain_model.sample_many",
     [("cli", "sample_percolation_many"), ("cli", "sample_recursive_many")],
     lambda a, k, r: _arg(a, k, 2, "n_draws")),
    ("signed_measure.nu_connected", [("representability", "nu_connected")], None),
    ("signed_measure.nu_full",
     [("representability", "nu_full"), ("mc_verify", "nu_full")],
     lambda a, k, r: len(r.entries)),
    ("signed_measure.restrict_measure", [("representability", "restrict_measure")], None),
    ("representability.is_representable",
     [("cli", "is_representable"), ("representability", "is_representable")],
     lambda a, k, r: (r.witness is not None, r.checked_sets)),
    ("representability.phase_scan", [("cli", "phase_scan")],
     lambda a, k, r: (len(r), _arg(a, k, 3, "threads", 1))),
    ("representability.scaling_check", [("cli", "scaling_check")], None),
    ("param_calculus.d_nu", [("cli", "d_nu_dp"), ("cli", "d_nu_dr")], None),
    ("thresholds.threshold_table", [("cli", "threshold_table")], None),
    ("mc_verify.field_from_chain",
     [("cli", "field_from_chain"), ("mc_verify", "field_from_chain")], None),
    ("mc_verify.sample_poisson_field_many",
     [("cli", "sample_poisson_field_many"), ("mc_verify", "sample_poisson_field_many")], None),
    ("mc_verify.compare_laws", [("cli", "compare_laws")],
     lambda a, k, r: (r.cells, 1 << _arg(a, k, 2, "n"), r.passed)),
    ("mc_verify.poisson_closure_report", [("cli", "poisson_closure_report")],
     lambda a, k, r: r.passed),
)

# Events of the boundary-indexed formula, counted where nu_connected asks.
COUNTERS = (
    ("signed_measure.events", [("signed_measure", "connected_log_events")], len),
)


# Generator functions: the span must cover the iteration, so the wrapper
# drains the generator and hands the caller an iterator over the list.
GENERATORS = ("tree_core.connected_subsets",)


def _span_wrapper(tracer, layer, inspect):
    if layer not in GENERATORS:
        return lambda fn: tracer.span(layer, fn, inspect)

    def wrap(fn):
        traced = tracer.span(layer, lambda *a, **k: list(fn(*a, **k)), lambda a, k, r: len(r))
        return lambda *a, **k: iter(traced(*a, **k))

    return wrap


def install(tracer):
    """Wrap every binding; returns the undo list for :func:`uninstall`.

    A binding that no longer exists stops the run, so a layer that is no
    longer measured cannot read 0 and pass for a gain.
    """
    undo = []
    wrappers = [(bindings, _span_wrapper(tracer, layer, inspect))
                for layer, bindings, inspect in SPANS]
    wrappers += [(bindings, lambda fn, name=name, measure=measure:
                  tracer.counter(name, fn, measure))
                 for name, bindings, measure in COUNTERS]
    for bindings, wrap in wrappers:
        for module_name, attr in bindings:
            module = importlib.import_module("treerep.%s" % module_name)
            original = getattr(module, attr, None)
            if original is None:
                uninstall(undo)
                raise SystemExit("perfbench: binding treerep.%s.%s not found; update "
                                 "tracing.SPANS or COUNTERS" % (module_name, attr))
            setattr(module, attr, wrap(original))
            undo.append((module, attr, original))
    return undo


def uninstall(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# analysis


def covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Span id -> its duration minus the part its child spans cover.

    Children from different threads may overlap one another; their
    union is subtracted once.
    """
    children = defaultdict(list)
    for span_id, parent, _, start, end, *_ in spans:
        children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _, _, start, end, *_ in spans
    }


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("tree_core.connected_subsets.s", "s"),
    ("tree_core.connected_subsets.sets", "count"),
    ("chain_model.prob_all_zero.calls", "count"),
    ("chain_model.prob_all_zero.self_s", "s"),
    ("chain_model.prob_all_zero.us_per_call", "us"),
    ("chain_model.prob_all_zero.max_bits", "bits"),
    ("chain_model.prob_all_zero.jet_calls", "count"),
    ("chain_model.sample_many.s", "s"),
    ("chain_model.sample_many.draws", "count"),
    ("signed_measure.nu_connected.calls", "count"),
    ("signed_measure.nu_connected.self_s", "s"),
    ("signed_measure.events", "count"),
    ("signed_measure.prob_cache_hit_ratio", "ratio"),
    ("signed_measure.nu_full.self_s", "s"),
    ("signed_measure.nu_full.entries", "count"),
    ("signed_measure.restrict_measure.self_s", "s"),
    ("representability.is_representable.calls", "count"),
    ("representability.is_representable.self_s", "s"),
    ("representability.witness_ratio", "ratio"),
    ("representability.checked_sets_per_verdict", "count"),
    ("representability.phase_scan.s", "s"),
    ("representability.phase_scan.points", "count"),
    ("representability.phase_scan.pool_efficiency", "ratio"),
    ("representability.scaling_check.self_s", "s"),
    ("param_calculus.d_nu.calls", "count"),
    ("param_calculus.d_nu.self_s", "s"),
    ("thresholds.threshold_table.s", "s"),
    ("mc_verify.field_from_chain.s", "s"),
    ("mc_verify.sample_poisson_field_many.s", "s"),
    ("mc_verify.compare_laws.self_s", "s"),
    ("mc_verify.compare_laws.pooled_cells_ratio", "ratio"),
    ("mc_verify.poisson_closure_report.self_s", "s"),
    ("mc_verify.rejections", "count"),
    ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"),
    ("trace.overhead", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-layer metrics of a traced phase, as totals per deck pass.

    Counts repeat exactly from pass to pass, because every pass runs the
    same ops; times are the mean over the ``passes`` passes.
    """
    spans = tracer.spans
    own = self_times(spans)
    name_of = {span[0]: span[2] for span in spans}
    calls = defaultdict(int)
    wall = defaultdict(float)
    self_s = defaultdict(float)
    infos = defaultdict(list)
    for span_id, parent, name, start, end, _, _, info in spans:
        calls[name] += 1
        wall[name] += end - start
        self_s[name] += own[span_id]
        infos[name].append((info, name_of.get(parent)))
    counted = defaultdict(int)
    for name, _, value in tracer.counts:
        counted[name] += value

    prob = infos["chain_model.prob_all_zero"]
    prob_misses = sum(1 for _, parent in prob if parent == "signed_measure.nu_connected")
    verdicts = [info for info, _ in infos["representability.is_representable"]]
    scans = [info for info, _ in infos["representability.phase_scan"]]
    scan_verdict_s = sum(
        end - start
        for _, parent, name, start, end, *_ in spans
        if name == "representability.is_representable"
        and name_of.get(parent) == "representability.phase_scan"
    )
    scan_capacity = sum(
        (end - start) * info[1]
        for _, _, name, start, end, _, _, info in spans
        if name == "representability.phase_scan"
    )
    laws = [info for info, _ in infos["mc_verify.compare_laws"]]
    closures = [info for info, _ in infos["mc_verify.poisson_closure_report"]]
    events = counted["signed_measure.events"]
    prob_calls = calls["chain_model.prob_all_zero"]

    totals = {
        "cli.self_s": self_s[ROOT],
        "tree_core.connected_subsets.s": wall["tree_core.connected_subsets"],
        "tree_core.connected_subsets.sets": sum(
            info for info, _ in infos["tree_core.connected_subsets"]),
        "chain_model.prob_all_zero.calls": prob_calls,
        "chain_model.prob_all_zero.self_s": self_s["chain_model.prob_all_zero"],
        "chain_model.prob_all_zero.jet_calls": sum(1 for info, _ in prob if info == -1),
        "chain_model.sample_many.s": wall["chain_model.sample_many"],
        "chain_model.sample_many.draws": sum(
            info for info, _ in infos["chain_model.sample_many"]),
        "signed_measure.nu_connected.calls": calls["signed_measure.nu_connected"],
        "signed_measure.nu_connected.self_s": self_s["signed_measure.nu_connected"],
        "signed_measure.events": events,
        "signed_measure.nu_full.self_s": self_s["signed_measure.nu_full"],
        "signed_measure.nu_full.entries": sum(info for info, _ in infos["signed_measure.nu_full"]),
        "signed_measure.restrict_measure.self_s": self_s["signed_measure.restrict_measure"],
        "representability.is_representable.calls": len(verdicts),
        "representability.is_representable.self_s": self_s["representability.is_representable"],
        "representability.phase_scan.s": wall["representability.phase_scan"],
        "representability.phase_scan.points": sum(info[0] for info in scans),
        "representability.scaling_check.self_s": self_s["representability.scaling_check"],
        "param_calculus.d_nu.calls": calls["param_calculus.d_nu"],
        "param_calculus.d_nu.self_s": self_s["param_calculus.d_nu"],
        "thresholds.threshold_table.s": wall["thresholds.threshold_table"],
        "mc_verify.field_from_chain.s": wall["mc_verify.field_from_chain"],
        "mc_verify.sample_poisson_field_many.s": wall["mc_verify.sample_poisson_field_many"],
        "mc_verify.compare_laws.self_s": self_s["mc_verify.compare_laws"],
        "mc_verify.poisson_closure_report.self_s": self_s["mc_verify.poisson_closure_report"],
        "mc_verify.rejections": sum(1 for info in laws if not info[2])
        + sum(1 for info in closures if not info),
    }
    metrics = {name: value / passes for name, value in totals.items()}
    metrics.update({
        "chain_model.prob_all_zero.us_per_call": 1e6 * _ratio(
            self_s["chain_model.prob_all_zero"], prob_calls),
        "chain_model.prob_all_zero.max_bits": max((info for info, _ in prob), default=0),
        "signed_measure.prob_cache_hit_ratio": _ratio(events - prob_misses, events),
        "representability.witness_ratio": _ratio(
            sum(1 for info in verdicts if info[0]), len(verdicts)),
        "representability.checked_sets_per_verdict": _ratio(
            sum(info[1] for info in verdicts), len(verdicts)),
        "representability.phase_scan.pool_efficiency": _ratio(scan_verdict_s, scan_capacity),
        "mc_verify.compare_laws.pooled_cells_ratio": _ratio(
            sum(info[0] for info in laws), sum(info[1] for info in laws)),
    })
    return metrics


def write_spans(tracer, path):
    """Write the spans as CSV, one per line, times relative to the first span."""
    origin = min((span[3] for span in tracer.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,parent,name,start_s,end_s,op,thread,info\n")
        for span_id, parent, name, start, end, op, thread, info in tracer.spans:
            handle.write("%d,%d,%s,%.9f,%.9f,%d,%d,%s\n" % (
                span_id, parent, name, start - origin, end - origin, op, thread,
                "" if info is None else str(info).replace(",", ";")))
