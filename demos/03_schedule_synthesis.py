"""Synthesizing a piecewise-constant control schedule for a target field.

The pipeline: average the target over time windows, fit each window average
by a superposition of single-layer terms on a region big enough to contain
the flow, then replace each superposition by a fast switching schedule whose
period mean reproduces it. Faster switching tracks the target flow better,
at the price of more pieces and larger gains.
"""

import numpy as np

from nodesteer import (
    IntegratorConfig,
    MeasureSpec,
    SynthesisParams,
    benchmark_field,
    integrate_flow,
    sample_measure,
    sup_w2,
    synthesize_controls,
)

vf = benchmark_field("rotation", {"omega": 1.0})
spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
mu0 = sample_measure(spec, 200, seed=0)

cfg = IntegratorConfig(method="rk4", base_step=0.01, snap_times=np.linspace(0.0, 1.0, 11))
reference = integrate_flow(vf, mu0, cfg)

print("n_osc  pieces  max|A|      sup_w2")
for n_osc in (1, 2, 4, 8, 16):
    params = SynthesisParams(n_avg=1, m_width=64, fit_tolerance=0.1, n_osc=n_osc, seed=0)
    result = synthesize_controls(vf, mu0, params)
    synthesized = integrate_flow(result.schedule, mu0, cfg)
    err = sup_w2(synthesized, reference)
    gain = max(np.abs(t.A).max() for t in result.schedule.terms)
    print(f"{n_osc:5d}  {result.schedule.piece_count:6d}  {gain:9.3f}  {err:.4f}")

# the schedule is a self-contained artifact: the distinct weights, the
# switching times, which weights each piece uses, and the activation, all
# replayable from JSON
params = SynthesisParams(n_avg=1, m_width=64, fit_tolerance=0.1, n_osc=16, seed=0)
result = synthesize_controls(vf, mu0, params)
text = result.schedule.to_json()
print(
    f"\nschedule JSON: {len(text)} bytes for {len(result.schedule.terms)} terms and "
    f"{result.schedule.piece_count} pieces, fit sup-error {result.report.max_fit_error:.2e}"
)
print(f"fit region radius (particles + reachable set): {result.report.omega_radius:.2f}")
