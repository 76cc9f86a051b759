"""Pushing a particle measure through a velocity field's flow.

Integrates the rotation benchmark, checks the numerics against its
closed-form flow, and runs the two trajectory diagnostics: support
containment inside the theoretical ball and the W2 Lipschitz bound on the
measure curve.
"""

import numpy as np

from nodesteer import (
    IntegratorConfig,
    MeasureSpec,
    ParticleEnsemble,
    benchmark_field,
    integrate_flow,
    lipschitz_curve_check,
    sample_measure,
    support_growth_check,
)

vf = benchmark_field("rotation", {"omega": 1.0})
print(f"field: {vf.name}, |V| <= {vf.bound_C}, Lipschitz K = {vf.lipschitz_K}, horizon T = {vf.horizon}")

spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
mu0 = sample_measure(spec, 300, seed=0)
cfg = IntegratorConfig(method="rk4", base_step=0.01, snap_times=np.linspace(0.0, 1.0, 21))
traj = integrate_flow(vf, mu0, cfg)
print(f"integrated {mu0.n} particles, {traj.times.size} snapshots")


def rotation_flow(t, x):
    """The rotation's flow in closed form, so the global error is measurable."""
    c, s = np.cos(vf.params["omega"] * t), np.sin(vf.params["omega"] * t)
    return x @ np.array([[c, -s], [s, c]]).T


exact_final = rotation_flow(1.0, mu0.points)
err = np.linalg.norm(traj.final.points - exact_final, axis=1).max()
print(f"max particle error vs analytic flow at T: {err:.3e}")

# convergence order: halving the step should shrink the error ~16x for RK4
probe = ParticleEnsemble([[1.0, 0.0]])
target = rotation_flow(1.0, probe.points)[0]
errors = []
for h in (1 / 50, 1 / 100, 1 / 200):
    c = IntegratorConfig(method="rk4", base_step=h, snap_times=np.array([0.0, 1.0]))
    final = integrate_flow(vf, probe, c).final.points[0]
    errors.append(np.linalg.norm(final - target))
print("rk4 step halving ratios:", [f"{errors[i] / errors[i + 1]:.1f}" for i in range(2)])

# diagnostics: the support stays in B_{R+r}(0) whenever T < (R+r)/C, and the
# curve t -> mu_t is C-Lipschitz in W2
growth = support_growth_check(traj, r=1.0, R=3.0, C=vf.bound_C)
print(f"support check passed={growth.passed}: max radius {growth.max_radius:.3f} <= {growth.bound}")
curve = lipschitz_curve_check(traj, C=vf.bound_C)
print(f"lipschitz check passed={curve.passed}: max quotient {curve.max_quotient:.3f} <= {curve.allowed}")
