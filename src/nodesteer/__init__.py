"""Constructive control of particle ensembles by neural-ODE weight schedules.

The package builds piecewise-constant (A, W, theta) schedules whose induced
particle flow tracks a given bounded Lipschitz velocity field, or steers one
empirical measure onto another, with all approximation errors certified in
the 2-Wasserstein metric.
"""

from .fields import (
    BoundDeclarationError,
    BoundEstimate,
    ControlSchedule,
    NeuralField,
    NeuralTerm,
    VectorFieldSpec,
    benchmark_field,
    estimate_bounds,
)
from .flow import (
    DivergenceError,
    IntegratorConfig,
    LipschitzCurveReport,
    MeasureTrajectory,
    SupportGrowthReport,
    integrate_flow,
    lipschitz_curve_check,
    support_growth_check,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    emit_plot_data,
    run_endpoint_experiment,
    run_trajectory_experiment,
)
from .measures import (
    MeasureSpec,
    MeasureSpecError,
    ParticleEnsemble,
    Region,
    sample_measure,
    support_radius,
)
from .synthesis import (
    SuperpositionFit,
    SynthesisParams,
    SynthesisReport,
    SynthesisResult,
    displacement_target_field,
    fit_superposition,
    oscillation_schedule,
    synthesize_controls,
)
from .transport import Coupling, W2Result, sup_w2, w2_bruteforce, w2_exact

__version__ = "0.1.0"

__all__ = [
    "BoundDeclarationError",
    "BoundEstimate",
    "ConfigError",
    "ControlSchedule",
    "Coupling",
    "DivergenceError",
    "ExperimentConfig",
    "IntegratorConfig",
    "LipschitzCurveReport",
    "MeasureSpec",
    "MeasureSpecError",
    "MeasureTrajectory",
    "NeuralField",
    "NeuralTerm",
    "ParticleEnsemble",
    "Region",
    "ResultRow",
    "ResultTable",
    "SuperpositionFit",
    "SupportGrowthReport",
    "SynthesisParams",
    "SynthesisReport",
    "SynthesisResult",
    "VectorFieldSpec",
    "W2Result",
    "benchmark_field",
    "displacement_target_field",
    "emit_plot_data",
    "estimate_bounds",
    "fit_superposition",
    "integrate_flow",
    "lipschitz_curve_check",
    "oscillation_schedule",
    "run_endpoint_experiment",
    "run_trajectory_experiment",
    "sample_measure",
    "sup_w2",
    "support_growth_check",
    "support_radius",
    "synthesize_controls",
    "w2_bruteforce",
    "w2_exact",
]
