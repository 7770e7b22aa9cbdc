"""Outside-in span tracer for the `ehf` pipeline.

The tracer wraps public functions of the seven `ehf` modules without changing
the package: each wrapper records a span (name, parent span, thread, start,
end, a few counts) and calls the original. `cli` and `frontier` bind most of
what they call with `from ... import`, so a wrapper is installed in every
`ehf` module namespace that holds the original object, and the install fails
if a target has been renamed or moved. Spans nest through a per-thread stack;
a span opened on a thread with an empty stack (a `--jobs` pool worker) takes
the innermost open span of the installing thread as its parent.

`layer_metrics` turns the spans of one pipeline pass into the per-layer
numbers of BENCHMARK.json. Self time is a span's duration minus the part of
it that its child spans (on any thread) cover.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("market_sim", "analytics_bsm", "neural_core", "hedging_engine",
           "signal_forest", "frontier", "cli")


def _paths(bound, result):
    return {"paths": int(result.n_paths)}


def _nodes(bound, result):
    return {"nodes": len(bound["self"]._nodes)}


def _fit(bound, result):
    X, y = np.ascontiguousarray(bound["X"]), np.ascontiguousarray(bound["y"])
    key = hashlib.sha256(X.tobytes() + y.tobytes() + repr(bound["cfg"]).encode())
    return {"rows": len(X), "key": key.hexdigest()}


def _rows(bound, result):
    return {"rows": len(bound["X"])}


def _training(bound, result):
    log = result[1]
    return {"best_epoch": int(log.best_epoch), "epochs": len(log.val_objective)}


def _points(bound, result):
    return {"points": len(result), "jobs": int(bound.get("jobs", 1))}


# (module, qualified name, info extractor or None); the span name is
# "<module>.<qualified name>"
TARGETS = (
    ("market_sim", "simulate_heston", _paths),
    ("market_sim", "simulate_gbm", _paths),
    ("market_sim", "load_pathset", None),
    ("analytics_bsm", "bsm_delta_matrix", None),
    ("neural_core", "Tape.backward", _nodes),
    ("neural_core", "adam_step", None),
    ("hedging_engine", "episode_loss_node", None),
    ("hedging_engine", "tape_entropy_risk", None),
    ("hedging_engine", "train_policy", _training),
    ("hedging_engine", "evaluate_policy", None),
    ("hedging_engine", "DensePolicy.deltas", None),
    ("hedging_engine", "GRUPolicy.deltas", None),
    ("hedging_engine", "episode_results", None),
    ("hedging_engine", "compute_trade_mask", None),
    ("hedging_engine", "combine_mask", None),
    ("signal_forest", "fit_forest", _fit),
    ("signal_forest", "predict_labels", _rows),
    ("signal_forest", "write_label_csv", None),
    ("frontier", "prepare_signal", None),
    ("frontier", "sweep_alpha", _points),
    ("frontier", "sweep_baseline", _points),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_label", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_report", None),
)

# the four spans that make up one training mini-batch, in call order
_BATCH_SPANS = ("hedging_engine.episode_loss_node",
                "hedging_engine.tape_entropy_risk",
                "neural_core.Tape.backward", "neural_core.adam_step")


class TracerError(RuntimeError):
    """A wrap target is missing or could not be rebound everywhere."""


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "info")

    def __init__(self, id, name, parent, thread, start):
        self.id, self.name, self.parent = id, name, parent
        self.thread, self.start, self.end, self.info = thread, start, None, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._home_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extract):
        tracer = self
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._home_stack[-1] if tracer._home_stack else None)
            with tracer._lock:
                tracer._next_id += 1
                span = Span(tracer._next_id, name,
                            parent.id if parent is not None else None,
                            threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = extract(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every `ehf` namespace bound to it."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "ehf" or n.startswith("ehf.")]
        self._home_stack = self._stack()
        for module_name, qualname, extract in TARGETS:
            module = sys.modules.get(f"ehf.{module_name}")
            if module is None:
                raise TracerError(f"ehf.{module_name} is not imported")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(attr)
            if not callable(original):
                raise TracerError(f"ehf.{module_name}.{qualname} not found")
            wrapper = self._wrap(f"{module_name}.{qualname}", original, extract)
            if owner_name:      # a method: the class attribute is the one binding
                self._patch(owner, attr, original, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)

    def _patch(self, namespace, key, original, wrapper) -> None:
        setattr(namespace, key, wrapper)
        self._patched.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end)
            for s in spans}


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for permille in (999, 990, 950, 900, 750):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return 50.0


def batch_times_ms(spans: list[Span]) -> list[float]:
    """Per-mini-batch sum of record, risk, backward and Adam span durations."""
    per_thread = defaultdict(list)
    for s in spans:
        if s.name in _BATCH_SPANS:
            per_thread[s.thread].append(s)
    batches = []
    for thread_spans in per_thread.values():
        acc = 0.0
        for s in sorted(thread_spans, key=lambda s: s.start):
            acc += s.duration
            if s.name == "neural_core.adam_step":
                batches.append(acc * 1e3)
                acc = 0.0
    return batches


def span_counts(spans: list[Span]) -> dict[str, int]:
    return dict(Counter(s.name for s in spans))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass (see BENCHMARK.json)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def total(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def self_total(*names):
        return sum(own[s.id] for n in names for s in by_name[n])

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name[name])

    m = {}
    sim = ("market_sim.simulate_heston", "market_sim.simulate_gbm")
    m["market_sim.simulate_s"] = total(*sim)
    paths = sum(info_sum(n, "paths") for n in sim)
    m["market_sim.paths_per_s"] = paths / m["market_sim.simulate_s"] if paths else 0.0
    m["market_sim.load_calls"] = calls("market_sim.load_pathset")
    m["market_sim.load_s"] = total("market_sim.load_pathset")

    m["analytics_bsm.delta_matrix_calls"] = calls("analytics_bsm.bsm_delta_matrix")
    m["analytics_bsm.delta_matrix_s"] = total("analytics_bsm.bsm_delta_matrix")

    backward = by_name["neural_core.Tape.backward"]
    m["neural_core.backward_calls"] = len(backward)
    m["neural_core.backward_s"] = total("neural_core.Tape.backward")
    m["neural_core.adam_s"] = total("neural_core.adam_step")
    m["neural_core.nodes_per_batch"] = (
        statistics.fmean(s.info["nodes"] for s in backward) if backward else 0.0)

    trains = by_name["hedging_engine.train_policy"]
    m["hedging_engine.record_s"] = total("hedging_engine.episode_loss_node")
    m["hedging_engine.train_calls"] = len(trains)
    m["hedging_engine.train_s"] = total("hedging_engine.train_policy")
    m["hedging_engine.useful_epoch_ratio"] = statistics.fmean(
        (s.info["best_epoch"] + 1) / s.info["epochs"] for s in trains) if trains else 0.0
    batches = batch_times_ms(spans)
    pct = tail_percentile(len(batches))
    m["hedging_engine.batches"] = len(batches)
    m["hedging_engine.batch_ms_p50"] = statistics.median(batches) if batches else 0.0
    m["hedging_engine.batch_ms_tail"] = (
        float(np.percentile(batches, pct)) if batches else 0.0)
    m["hedging_engine.batch_tail_pct"] = pct
    m["hedging_engine.dense_deltas_s"] = total("hedging_engine.DensePolicy.deltas")
    m["hedging_engine.gru_deltas_s"] = total("hedging_engine.GRUPolicy.deltas")
    m["hedging_engine.deltas_calls"] = calls("hedging_engine.DensePolicy.deltas",
                                             "hedging_engine.GRUPolicy.deltas")
    m["hedging_engine.episode_results_s"] = total("hedging_engine.episode_results")
    masks = ("hedging_engine.compute_trade_mask", "hedging_engine.combine_mask")
    m["hedging_engine.mask_calls"] = calls(*masks)
    m["hedging_engine.mask_s"] = total(*masks)

    fits = by_name["signal_forest.fit_forest"]
    m["signal_forest.fit_calls"] = len(fits)
    m["signal_forest.fit_rows"] = info_sum("signal_forest.fit_forest", "rows")
    m["signal_forest.fit_s"] = total("signal_forest.fit_forest")
    m["signal_forest.distinct_fit_ratio"] = (
        len({s.info["key"] for s in fits}) / len(fits) if fits else 0.0)
    m["signal_forest.predict_calls"] = calls("signal_forest.predict_labels")
    m["signal_forest.predict_rows"] = info_sum("signal_forest.predict_labels", "rows")
    m["signal_forest.predict_s"] = total("signal_forest.predict_labels")
    m["signal_forest.predict_rows_per_s"] = (
        m["signal_forest.predict_rows"] / m["signal_forest.predict_s"]
        if m["signal_forest.predict_rows"] else 0.0)
    m["signal_forest.write_labels_s"] = total("signal_forest.write_label_csv")

    sweeps = by_name["frontier.sweep_alpha"]
    m["frontier.prepare_signal_calls"] = calls("frontier.prepare_signal")
    m["frontier.prepare_signal_self_s"] = self_total("frontier.prepare_signal")
    m["frontier.sweep_alpha_self_s"] = self_total("frontier.sweep_alpha")
    m["frontier.points"] = (info_sum("frontier.sweep_alpha", "points")
                            + info_sum("frontier.sweep_baseline", "points"))
    sweep_ids = {s.id for s in sweeps}
    busy = sum(s.duration for s in trains if s.parent in sweep_ids)
    capacity = sum(s.duration * s.info["jobs"] for s in sweeps)
    m["frontier.parallel_efficiency"] = busy / capacity if busy else 0.0

    for cmd in ("simulate", "label", "train", "sweep", "report"):
        m[f"cli.{cmd}_s"] = total(f"cli.cmd_{cmd}")

    for module in MODULES:
        m[f"{module}.self_s"] = sum(own[s.id] for s in spans
                                    if s.name.startswith(module + "."))
    return m
