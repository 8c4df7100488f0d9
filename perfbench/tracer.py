"""Outside-in tracer for the qregress benchmark.

Nothing inside the package is changed.  The tracer replaces public
functions at the attribute their callers look up (for example
``qregress.trainer.loss_from_run``, which is what ``_Evaluator`` calls)
with a wrapper that opens a span, and restores the originals afterwards.

Spans (name, layer, start, end, parent, task id) are kept in memory and
written out when the run ends.  ``apply_gate`` runs hundreds of times per
evaluation, so it is aggregated into a count and a time instead of a span
per call.  A layer's self time is the time of its spans minus the time of
their child spans and of the aggregated ``apply_gate`` calls inside them.

A tracer built with ``spans=False`` installs only the probe hooks: one
call per circuit evaluation that records the returned estimate and the
shots drawn.  Untraced runs use it so their output checks can compare
shot counts; it adds one Python call per evaluation.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from collections import defaultdict

LAYERS = ("circuit", "synthesis", "passes", "simulator", "mitigation", "trainer", "data", "cli")
HARNESS = "bench"

_perf = time.perf_counter


# --- observers: turn a call's arguments and result into counts ----------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_loss(counts, args, kwargs, est):
    shots = _arg(args, kwargs, 2, "shots")
    if shots is not None:
        counts["simulator.noisy_evals"] += 1
        counts["simulator.shots_kept"] += est.effective_shots
        if not est.effective_shots or est.effective_shots <= 0:
            counts["check.unkept_evals"] += 1
    if not math.isfinite(est.loss):
        counts["check.nonfinite_losses"] += 1


def _observe_trainer_loss(counts, args, kwargs, est):
    _observe_loss(counts, args, kwargs, est)
    counts["trainer.evals"] += 1


def _observe_fit(counts, args, kwargs, model):
    counts["trainer.fits"] += 1
    counts["trainer.iterations"] += len(model.history)


def _observe_walsh(counts, args, kwargs, out):
    counts["synthesis.walsh_terms"] += len(out) ** 2


def _observe_built(counts, args, kwargs, result):
    circ = result[0] if isinstance(result, tuple) else result
    counts["synthesis.circuits_built"] += 1
    counts["synthesis.gates_emitted"] += len(circ)


def _observe_simulate(counts, args, kwargs, state):
    counts["simulator.simulate_calls"] += 1


def _observe_mitigate(counts, args, kwargs, quasi):
    n = len(args[0].counts)
    width = args[0].width or len(next(iter(args[0].counts)))
    counts["mitigation.solves"] += 1
    counts["mitigation.outcomes"] += n
    counts["mitigation.matrix_entries"] += n * n * width


def _observe_pipeline(counts, args, kwargs, result):
    counts["passes.gates_in"] += len(args[0])
    counts["passes.gates_out"] += len(result[0])


# (owner, attribute, layer, observer, metric that sums the span durations)
# The owner is the module or class whose attribute the caller looks up.
SPAN_HOOKS = (
    ("qregress.trainer", "fit_quantum", "trainer", _observe_fit, None),
    ("qregress.trainer", "build_regression_circuit", "synthesis", _observe_built, None),
    ("qregress.trainer", "loss_from_run", "simulator", _observe_trainer_loss, None),
    ("qregress.trainer", "layout_for", "data", None, None),
    ("qregress.mitigation", "calibrate_readout", "mitigation", None, "mitigation.calibrate_s"),
    ("qregress.mitigation", "mitigate_counts", "mitigation", _observe_mitigate, None),
    ("qregress.mitigation", "sample", "simulator", None, None),
    ("qregress.synthesis", "walsh_angles", "synthesis", _observe_walsh, "synthesis.walsh_s"),
    ("qregress.synthesis", "build_regression_circuit", "synthesis", _observe_built, None),
    ("qregress.synthesis", "decompose_all_mcrz", "synthesis", None, None),
    ("qregress.synthesis", "flatten_padded", "data", None, None),
    ("qregress.synthesis", "layout_for", "data", None, None),
    ("qregress.simulator", "simulate", "simulator", _observe_simulate, "simulator.simulate_s"),
    ("qregress.simulator", "loss_from_run", "simulator", _observe_loss, None),
    ("qregress.passes", "decompose_all_mcrz", "passes", None, "passes.decompose_s"),
    ("qregress.passes", "push_paulis", "passes", None, "passes.pauli_s"),
    ("qregress.passes", "fold_phases", "passes", None, "passes.fold_s"),
    ("qregress.passes", "push_hadamards", "passes", None, "passes.hadamard_s"),
    ("qregress.passes", "gate_counts", "circuit", None, None),
    ("qregress.cli", "main", "cli", None, None),
    ("qregress.cli", "optimize_pipeline", "passes", _observe_pipeline, None),
    ("qregress.cli", "circuit_from_json", "circuit", None, "circuit.json_s"),
    ("qregress.cli", "circuit_to_json", "circuit", None, "circuit.json_s"),
    ("qregress.cli", "build_state_prep", "synthesis", _observe_built, None),
    ("qregress.cli", "synthesize_reference_real_state", "synthesis", _observe_built, None),
    ("qregress.cli", "naive_gate_count_formula", "synthesis", None, None),
    ("qregress.cli", "optimized_gate_count", "synthesis", None, None),
    ("qregress.cli", "simulate", "simulator", _observe_simulate, "simulator.simulate_s"),
    ("qregress.cli", "project", "simulator", None, None),
    ("qregress.cli", "gate_counts", "circuit", None, None),
    ("qregress.data.DataTable", "rows", "data", None, None),
    ("qregress.data.DataTable", "normalized", "data", None, None),
)

# Probe hooks stay installed in untraced runs: they see one call per
# circuit evaluation, never a per-gate call.
PROBE_HOOKS = tuple(
    h for h in SPAN_HOOKS
    if (h[0], h[1]) in {
        ("qregress.trainer", "fit_quantum"),
        ("qregress.trainer", "loss_from_run"),
        ("qregress.simulator", "loss_from_run"),
        ("qregress.mitigation", "calibrate_readout"),
    }
)

PER_LAYER = (
    ("synthesis.self_s", "s"),
    ("synthesis.walsh_s", "s"),
    ("synthesis.walsh_terms", "count"),
    ("synthesis.circuits_built", "count"),
    ("synthesis.gates_emitted", "count"),
    ("simulator.simulate_s", "s"),
    ("simulator.simulate_calls", "count"),
    ("circuit.apply_s", "s"),
    ("circuit.gates_applied", "count"),
    ("circuit.amp_updates", "count"),
    ("simulator.sample_s", "s"),
    ("simulator.shots_drawn", "count"),
    ("simulator.shots_kept", "count"),
    ("simulator.keep_ratio", "ratio"),
    ("simulator.starved_batches", "count"),
    ("simulator.self_s", "s"),
    ("mitigation.self_s", "s"),
    ("mitigation.solves", "count"),
    ("mitigation.outcomes", "count"),
    ("mitigation.matrix_entries", "count"),
    ("mitigation.calibrate_s", "s"),
    ("passes.self_s", "s"),
    ("passes.decompose_s", "s"),
    ("passes.pauli_s", "s"),
    ("passes.fold_s", "s"),
    ("passes.hadamard_s", "s"),
    ("passes.gates_in", "count"),
    ("passes.gates_out", "count"),
    ("circuit.self_s", "s"),
    ("circuit.json_s", "s"),
    ("cli.self_s", "s"),
    ("trainer.self_s", "s"),
    ("trainer.evals", "count"),
    ("trainer.evals_per_iter", "count"),
    ("trainer.starved_iters", "count"),
    ("data.self_s", "s"),
    ("trace.task_s", "s"),
    ("trace.untraced_task_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.harness_s", "s"),
    ("trace.layer_sum_frac", "ratio"),
    ("trace.spans", "count"),
)


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Installs the hooks, records spans and counts, computes layer metrics.

    ``spans[i]`` is ``[name, layer, start, end, parent, task, child_s]``
    where ``child_s`` is the time covered by child spans and aggregated
    ``apply_gate`` calls.
    """

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.task_id = None
        self._saved: list[tuple] = []
        self._calibrating = 0

    # --- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for owner_path, attr, layer, observe, time_metric in (
            SPAN_HOOKS if self.record_spans else PROBE_HOOKS
        ):
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            wrapper = self._span_wrapper(original, attr, layer, observe, time_metric)
            self._patch(owner, attr, original, wrapper)
        sim = _resolve("qregress.simulator")
        # private, but the one place every drawn shot passes through
        self._patch(sim, "_sample_indices", sim._sample_indices,
                    self._draw_wrapper(sim._sample_indices))
        if self.record_spans:
            self._patch(sim, "apply_gate", sim.apply_gate, self._gate_wrapper(sim.apply_gate))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, layer, observe, time_metric):
        tracer = self
        counts = self.counts
        calibrating = name == "calibrate_readout"
        loss = name == "loss_from_run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calibrating:
                tracer._calibrating += 1
            index = None
            if tracer.record_spans:
                index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                if calibrating:
                    tracer._calibrating -= 1
                if index is not None:
                    dur, self_s = tracer._close(index)
                    if time_metric:
                        counts[time_metric] += dur
                    # the noisy path's own work: fault sampling and replay,
                    # histograms and post-selection
                    if loss and _arg(args, kwargs, 2, "shots") is not None:
                        counts["simulator.sample_s"] += self_s
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _draw_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            indices = fn(*args, **kwargs)
            key = "mitigation.calibration_shots" if tracer._calibrating else "simulator.shots_drawn"
            tracer.counts[key] += len(indices)
            return indices

        return wrapper

    def _gate_wrapper(self, fn):
        tracer = self
        counts = self.counts
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(state, gate, width):
            t0 = _perf()
            out = fn(state, gate, width)
            dt = _perf() - t0
            counts["circuit.apply_s"] += dt
            counts["circuit.gates_applied"] += 1
            counts["circuit.amp_updates"] += state.size
            if stack:
                spans[stack[-1]][6] += dt
            return out

        return wrapper

    # --- spans ------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, _perf(), 0.0, parent, self.task_id, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> tuple[float, float]:
        span = self.spans[index]
        span[3] = _perf()
        self.stack.pop()
        dur = span[3] - span[2]
        if span[4] is not None:
            self.spans[span[4]][6] += dur
        return dur, dur - span[6]

    @contextlib.contextmanager
    def task(self, task_id):
        """The root span of one benchmark task."""
        self.task_id = task_id
        index = self._open("task", HARNESS) if self.record_spans else None
        try:
            yield
        finally:
            if index is not None:
                self._close(index)
            self.task_id = None

    # --- results ----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        for name, layer, start, end, parent, task, child in self.spans:
            out[layer] += (end - start) - child
        out["circuit"] += self.counts["circuit.apply_s"]
        return out

    def task_time(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] is None)

    def per_layer_metrics(self, n_tasks: int, untraced_task_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, as a mean per traced task."""
        n = max(1, n_tasks)
        c = self.counts
        selfs = self.layer_self_times()
        task_s = self.task_time() / n
        values = {name: c.get(name, 0.0) / n for name, _ in PER_LAYER}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = selfs[layer] / n
        drawn = c.get("simulator.shots_drawn", 0.0)
        values["simulator.keep_ratio"] = c.get("simulator.shots_kept", 0.0) / drawn if drawn else 0.0
        iters = c.get("trainer.iterations", 0.0)
        values["trainer.evals_per_iter"] = c.get("trainer.evals", 0.0) / iters if iters else 0.0
        values["trace.task_s"] = task_s
        values["trace.untraced_task_s"] = untraced_task_s
        values["trace.overhead_s"] = task_s - untraced_task_s
        values["trace.overhead_frac"] = (task_s - untraced_task_s) / untraced_task_s
        values["trace.harness_s"] = selfs[HARNESS] / n
        values["trace.layer_sum_frac"] = sum(selfs[l] for l in LAYERS) / n / task_s
        values["trace.spans"] = len(self.spans) / n
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, task, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "task": task,
                }) + "\n")
