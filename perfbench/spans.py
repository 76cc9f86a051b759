"""In-memory spans and work counters around the public calls of nodesteer.

The benchmark instruments the package from outside: :func:`instrument`
replaces public functions and methods that ``harness``, ``synthesis`` and
``transport`` call with wrappers that open a span, and restores the originals
on exit. A span records its name, start, end, parent span and the run id of
the sweep it belongs to. Nothing is written until the caller asks for it.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

# (defining module, function name): span name. Each function is replaced in
# every nodesteer module that imported it, so calls made through a module's
# own namespace are traced too.
FUNCTIONS = {
    ("nodesteer.transport", "w2_exact"): "transport.w2_exact",
    ("nodesteer.transport", "sup_w2"): "transport.sup_w2",
    ("nodesteer.synthesis", "synthesize_controls"): "synthesis.synthesize_controls",
    ("nodesteer.synthesis", "fit_superposition"): "synthesis.fit_superposition",
    ("nodesteer.synthesis", "oscillation_schedule"): "synthesis.oscillation_schedule",
    ("nodesteer.synthesis", "displacement_target_field"): "synthesis.displacement_target_field",
    ("nodesteer.fields", "benchmark_field"): "fields.benchmark_field",
    ("nodesteer.measures", "sample_measure"): "measures.sample_measure",
    ("nodesteer.flow", "integrate_flow"): "flow.integrate_flow",
}

ROOT_SPAN = "harness.sweep"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
        }


class Tracer:
    """Collects spans and counters; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list = []
        self.flow_label: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def start_run(self, run_id: str) -> None:
        """Begin a new sweep: later spans carry run_id, counters restart."""
        self.run_id = run_id
        self.counts = Counter()

    def self_times(self, run_id: str) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        spans = [s for s in self.spans if s.run_id == run_id]
        child_time = Counter()
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = Counter()
        for s in spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return dict(out)


def _flow_label(vf) -> str:
    from nodesteer.synthesis import ControlSchedule

    return "schedule" if isinstance(vf, ControlSchedule) else "reference"


def _wrap_function(tracer: Tracer, name: str, fn):
    if name == "flow.integrate_flow":

        def integrate_flow(vf, *args, **kwargs):
            label = _flow_label(vf)
            outer, tracer.flow_label = tracer.flow_label, label
            try:
                with tracer.span(f"{name}.{label}"):
                    return fn(vf, *args, **kwargs)
            finally:
                tracer.flow_label = outer

        return integrate_flow

    if name == "transport.w2_exact":

        def w2_exact(mu, nu, *args, **kwargs):
            with tracer.span(name):
                result = fn(mu, nu, *args, **kwargs)
            assignment = np.asarray(result.coupling.assignment)
            tracer.counts["transport.w2_exact.calls"] += 1
            tracer.counts["transport.identity_optimal"] += int(
                np.array_equal(assignment, np.arange(assignment.size))
            )
            # dense squared-distance matrix of one solve, n_mu * n_nu float64
            mib = mu.n * nu.n * 8 / 2**20
            tracer.counts["transport.cost_matrix_mb"] = max(tracer.counts["transport.cost_matrix_mb"], mib)
            return result

        return w2_exact

    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def _count_rhs(tracer: Tracer) -> None:
    if tracer.flow_label is not None:
        tracer.counts[f"flow.rhs_evals.{tracer.flow_label}"] += 1


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace nodesteer's public calls into ``tracer`` until the block exits."""
    from nodesteer.fields import VectorFieldSpec
    from nodesteer.flow import MeasureTrajectory
    from nodesteer.synthesis import ControlSchedule

    patches = []  # (owner, attribute, own value or None), restored in reverse

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "nodesteer" or n.startswith("nodesteer.")]
    for (module_name, attr), name in FUNCTIONS.items():
        # A function that is gone raises here: its layer would otherwise
        # read as free instead of as no longer measured.
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap_function(tracer, name, original)
        for module in modules:
            if module.__dict__.get(attr) is original:
                patch(module, attr, wrapper)

    save, load = MeasureTrajectory.save, MeasureTrajectory.load

    def traced_save(self, directory):
        with tracer.span("flow.MeasureTrajectory.save"):
            return save(self, directory)

    def traced_load(directory):
        with tracer.span("flow.MeasureTrajectory.load"):
            return load(directory)

    patch(MeasureTrajectory, "save", traced_save)
    patch(MeasureTrajectory, "load", staticmethod(traced_load))

    # Right-hand-side evaluations: a reference field is evaluated through
    # VectorFieldSpec.velocity, a schedule through the closures static_piece
    # returns. Counted only inside integrate_flow.
    velocity, static_piece = VectorFieldSpec.velocity, ControlSchedule.static_piece

    def counted_velocity(self, t, x):
        _count_rhs(tracer)
        return velocity(self, t, x)

    def counted_static_piece(self, j):
        piece = static_piece(self, j)

        def counted_piece(x):
            _count_rhs(tracer)
            return piece(x)

        return counted_piece

    patch(VectorFieldSpec, "velocity", counted_velocity)
    patch(ControlSchedule, "static_piece", counted_static_piece)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            if original is None:  # was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
