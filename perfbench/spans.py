"""Span recorder and layer wrappers for the traced benchmark run.

The recorder wraps the module attributes that each qscale layer calls in
the layer below (``nn.ffnn_forward`` called from ``models``,
``sim._rotate_rows`` called from ``vqc``, ...).  qscale looks these up at
call time, so patching them traces every call without touching ``src/``.

Spans stay in memory: name, parent, thread, start, end and self time.  A
span's parent is the innermost open span of the same thread; the first
span a worker thread opens takes the innermost open span of the thread
that created the recorder as its cause, which is how a fold run by the
cross-validation pool hangs under ``experiments.cross_validate``.  Self
time is the span's duration minus the part of it that its children cover:
the sum of its same-thread children, plus the union of the intervals of
its children on other threads, which overlap each other.

Counters are keyed by a phase, ``step.<kind>`` or ``predict.<kind>``,
inherited from the nearest enclosing training step or prediction, so a
circuit evaluation can be charged to the model kind that caused it.
"""

from __future__ import annotations

import contextlib
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from qscale import data, experiments, models, nn, sim, vqc

AMPLITUDE_BYTES = 16  # complex128


class _Frame:
    __slots__ = ("idx", "name", "phase", "parent", "start", "child", "remote")

    def __init__(self, idx: int, name: str, phase: str | None, parent: "_Frame | None"):
        self.idx = idx
        self.name = name
        self.phase = phase
        self.parent = parent
        self.child = 0.0
        self.start = 0.0
        self.remote: list[tuple[float, float]] = []


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    length, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            length += end - start
            reach = end
    return length


class SpanRecorder:
    """In-memory spans plus phase-keyed counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_thread = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.counters: dict[tuple[str, str | None], float] = defaultdict(float)
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[_Frame] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, phase: str | None) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        if phase is None and parent is not None:
            phase = parent.phase
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(-1 if parent is None else parent.idx)
            self.span_thread.append(thread)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_self.append(0.0)
        frame = _Frame(idx, name, phase, parent)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        elif frame.parent is not None:
            with self._lock:
                frame.parent.remote.append((frame.start, end))
        covered = frame.child + _union_length(frame.remote, frame.start, end)
        self.span_start[frame.idx] = frame.start
        self.span_end[frame.idx] = end
        self.span_self[frame.idx] = max(duration - covered, 0.0)

    def count(self, name: str, value: float, phase: str | None = None) -> None:
        with self._lock:
            self.counters[(name, phase)] += value

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        if ids.size == 0:
            return {}
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        own = np.frombuffer(self.span_self, dtype=float)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=end - start, minlength=n)
        self_total = np.bincount(ids, weights=own, minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, name in enumerate(self.names)
        }

    def counter(self, name: str, phase: str | None = None, any_phase: bool = False) -> float:
        if any_phase:
            return sum(v for (key, _), v in self.counters.items() if key == name)
        return self.counters.get((name, phase), 0.0)

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            thread=np.frombuffer(self.span_thread, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            self_s=np.frombuffer(self.span_self, dtype=float),
        )


# ---------------------------------------------------------------------------
# what each wrapper records besides its span


def _on_step(rec, parent, phase, args, result):
    rec.count("windows", args[1].shape[0], phase)


def _on_predict(rec, parent, phase, args, result):
    rec.count("rows", np.asarray(args[1]).shape[0], phase)


def _on_nn_forward(rec, parent, phase, args, result):
    if parent is not None and parent.name.startswith("models.step."):
        rec.count("nn_calls_in_step", 1, phase)


def _on_evaluate(rec, parent, phase, args, result):
    rec.count("circuit_evals", 1, phase)


def _on_run_rows(rec, parent, phase, args, result):
    rows = args[1].shape[0]
    rec.count("run_rows_rows", rows)
    rec.count("circuit_evals", rows, phase)
    if parent is not None and parent.name == "vqc.shift_grad_batch":
        rec.count("shift_circuits", rows, phase)


def _on_shift_batch(rec, parent, phase, args, result):
    rec.count("gradient_rows", np.atleast_2d(args[2]).shape[0], phase)


def _on_rotate(rec, parent, phase, args, result):
    rows, dim = args[0].shape
    rec.count("rotate_rows", rows)
    rec.count("bytes_computed", rows * dim * AMPLITUDE_BYTES)


def _on_kernel(rec, parent, phase, args, result):
    rows, dim = args[0].shape
    rec.count("bytes_computed", rows * dim * AMPLITUDE_BYTES)


def _on_ingest(rec, parent, phase, args, result):
    rec.count("ingest_rows", len(result.samples) + result.malformed)
    rec.count("ingest_malformed", result.malformed)


def _on_align(rec, parent, phase, args, result):
    report = result[1]
    rec.count("align_interpolated", report.interpolated_cells)
    rec.count("align_dropped", report.dropped_rows)


def _on_build_model(rec, parent, phase, args, result):
    if parent is not None and parent.name == "experiments.cross_validate":
        rec.count("probe_builds", 1)


# (owner, attribute, span name, on_call); owners are modules or classes
_MODULE_TARGETS = [
    (data, "prepare_dataset", "data.prepare", None),
    (data, "ingest", "data.ingest", _on_ingest),
    (data, "aggregate", "data.aggregate", None),
    (data, "fuse_by_quantity", "data.fuse", None),
    (data, "load_reference", "data.load_reference", None),
    (data, "align_and_clean", "data.align", _on_align),
    (data, "dataset_to_csv", "data.dataset_csv.write", None),
    (data, "dataset_from_csv", "data.dataset_csv.read", None),
    (data, "synthesize", "data.synthesize", None),
    (data, "write_campaign", "data.write_campaign", None),
    (data, "make_windows", "data.make_windows", None),
    (experiments, "make_windows", "data.make_windows", None),
    (nn, "ffnn_forward", "nn.ffnn_forward", _on_nn_forward),
    (nn, "ffnn_backward", "nn.ffnn_backward", None),
    (nn, "lstm_sequence_forward", "nn.lstm_sequence_forward", _on_nn_forward),
    (nn, "lstm_sequence_backward", "nn.lstm_sequence_backward", None),
    (nn, "optimizer_step", "nn.optimizer_step", None),
    (vqc, "evaluate", "vqc.evaluate", _on_evaluate),
    (vqc, "_run_rows", "vqc.run_rows", _on_run_rows),
    (vqc, "parameter_shift_grad_batch", "vqc.shift_grad_batch", _on_shift_batch),
    (vqc, "parameter_shift_grad", "vqc.shift_grad", None),
    (sim, "_rotate_rows", "sim.rotate", _on_rotate),
    (sim, "_cnot_rows", "sim.cnot", _on_kernel),
    (sim, "_expect_z_rows", "sim.expect_z", _on_kernel),
    (sim, "apply_circuit", "sim.apply_circuit", None),
    (models, "fit_model", "models.fit_model", None),
    (models, "train", "models.train", None),
    (models, "build_model", "models.build_model", _on_build_model),
    (models, "evaluate_losses", "models.evaluate_losses", None),
    (models, "predictions_rows", "models.predictions_rows", None),
    (models, "save_model", "models.save_model", None),
    (models, "load_model", "models.load_model", None),
    (models._ModelBase, "get_flat", "models.flat", None),
    (models._ModelBase, "set_flat", "models.flat", None),
    (experiments, "cross_validate", "experiments.cross_validate", None),
    (experiments, "_evaluate_on_fold", "experiments.fold", None),
]
# per-kind methods: the span is "models.<what>.<kind>" and sets the phase
_KIND_TARGETS = [
    (cls, "_loss_and_grad_scaled", "step", _on_step)
    for cls in (models.FFNNModel, models.LSTMModel, models.VQRModel, models.QLSTMModel)
] + [(models._ModelBase, "predict", "predict", _on_predict)]


def _wrap(rec: SpanRecorder, fn, name: str, on_call):
    def traced(*args, **kwargs):
        frame = rec.open(name, None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        if on_call is not None:
            on_call(rec, frame.parent, frame.phase, args, result)
        return result

    return traced


def _wrap_kind(rec: SpanRecorder, fn, what: str, on_call):
    def traced(self, *args, **kwargs):
        phase = f"{what}.{self.kind}"
        frame = rec.open(f"models.{phase}", phase)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            rec.close(frame)
        on_call(rec, frame.parent, phase, (self, *args), result)
        return result

    return traced


@contextlib.contextmanager
def installed(rec: SpanRecorder):
    """Route the layer-boundary calls through ``rec`` while the block runs."""
    saved = []
    try:
        for owner, attr, name, on_call in _MODULE_TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, original, name, on_call))
        for owner, attr, what, on_call in _KIND_TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap_kind(rec, original, what, on_call))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

QUANTUM_KINDS = ("vqr", "qlstm")


def layer_metrics(
    setup: SpanRecorder, ops: SpanRecorder, finish: SpanRecorder, n_ops: int, n_threads: int
) -> dict[str, float]:
    """Per-layer metrics from one traced set-up, ``n_ops`` traced operations
    and the output checks after them.

    ``.s`` is mean inclusive seconds per call (``models.step.s.*`` is self
    time), taken from the operations, else the checks, else the set-up,
    whichever made the call first in that order.  ``.calls``, byte and
    per-step counts are per operation and come from the operations only.
    """
    scopes = [(rec, rec.totals()) for rec in (ops, finish, setup)]
    op_totals = scopes[0][1]

    def scope(name):
        for rec, totals in scopes:
            if totals.get(name, (0,))[0]:
                return rec, totals[name]
        return None, (0, 0.0, 0.0)

    def per_call(name, self_time=False):
        _, (calls, total, own) = scope(name)
        return (own if self_time else total) / calls if calls else 0.0

    def count_per_call(counter, name):
        rec, (calls, _, _) = scope(name)
        return rec.counter(counter, any_phase=True) / calls if calls else 0.0

    def calls_per_op(name):
        return op_totals.get(name, (0,))[0] / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("ingest", "aggregate", "fuse", "load_reference", "align",
                 "synthesize", "write_campaign", "make_windows"):
        m[f"data.{name}.s"] = per_call(f"data.{name}")
    m["data.dataset_csv.write_s"] = per_call("data.dataset_csv.write")
    m["data.dataset_csv.read_s"] = per_call("data.dataset_csv.read")
    m["data.ingest.rows"] = count_per_call("ingest_rows", "data.ingest")
    m["data.ingest.malformed"] = count_per_call("ingest_malformed", "data.ingest")
    m["data.align.interpolated_cells"] = count_per_call("align_interpolated", "data.align")
    m["data.align.dropped_rows"] = count_per_call("align_dropped", "data.align")

    for name in ("ffnn_forward", "ffnn_backward", "lstm_sequence_forward", "lstm_sequence_backward"):
        m[f"nn.{name}.calls"] = calls_per_op(f"nn.{name}")
        m[f"nn.{name}.s"] = per_call(f"nn.{name}")
    m["nn.optimizer_step.s"] = per_call("nn.optimizer_step")
    for kind in ("ffnn", "lstm"):
        m[f"nn.calls_per_step.{kind}"] = ratio(
            ops.counter("nn_calls_in_step", f"step.{kind}"),
            op_totals.get(f"models.step.{kind}", (0,))[0],
        )

    for name in ("evaluate", "run_rows", "shift_grad_batch", "shift_grad"):
        m[f"vqc.{name}.calls"] = calls_per_op(f"vqc.{name}")
        m[f"vqc.{name}.s"] = per_call(f"vqc.{name}")
    m["vqc.run_rows.rows"] = ratio(
        ops.counter("run_rows_rows"), op_totals.get("vqc.run_rows", (0,))[0]
    )
    m["vqc.shift_grad_batch.rows"] = ratio(
        ops.counter("gradient_rows", any_phase=True),
        op_totals.get("vqc.shift_grad_batch", (0,))[0],
    )
    for kind in QUANTUM_KINDS:
        step, predict = f"step.{kind}", f"predict.{kind}"
        m[f"vqc.circuit_evals_per_window.{kind}"] = ratio(
            ops.counter("circuit_evals", step), ops.counter("windows", step)
        )
        m[f"vqc.circuit_evals_per_row.{kind}"] = ratio(
            ops.counter("circuit_evals", predict), ops.counter("rows", predict)
        )
        m[f"vqc.shift_circuits_per_gradient.{kind}"] = ratio(
            ops.counter("shift_circuits", step), ops.counter("gradient_rows", step)
        )

    for name in ("rotate", "cnot", "expect_z", "apply_circuit"):
        m[f"sim.{name}.calls"] = calls_per_op(f"sim.{name}")
        m[f"sim.{name}.s"] = per_call(f"sim.{name}")
    m["sim.rotate.rows_per_call"] = ratio(
        ops.counter("rotate_rows"), op_totals.get("sim.rotate", (0,))[0]
    )
    m["sim.bytes_computed"] = ops.counter("bytes_computed") / n_ops

    for kind in models.MODEL_KINDS:
        m[f"models.step.calls.{kind}"] = calls_per_op(f"models.step.{kind}")
        m[f"models.step.s.{kind}"] = per_call(f"models.step.{kind}", self_time=True)
        m[f"models.predict.s.{kind}"] = per_call(f"models.predict.{kind}")
    m["models.flat.s"] = per_call("models.flat")
    m["models.save_model.s"] = per_call("models.save_model")
    m["models.load_model.s"] = per_call("models.load_model")

    folds = op_totals.get("experiments.fold", (0, 0.0, 0.0))
    cv = op_totals.get("experiments.cross_validate", (0, 0.0, 0.0))
    m["experiments.fold.s"] = per_call("experiments.fold")
    m["experiments.folds"] = folds[0] / n_ops
    m["experiments.parallel_efficiency"] = ratio(folds[1], n_threads * cv[1])
    m["experiments.probe_builds"] = ratio(ops.counter("probe_builds"), cv[0])

    for layer in ("data", "nn", "vqc", "sim", "models", "experiments"):
        m[f"self_s.{layer}"] = sum(
            own for name, (_, _, own) in op_totals.items() if name.split(".", 1)[0] == layer
        ) / n_ops
    return m
