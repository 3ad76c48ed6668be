"""Scaling-law chaotic system toolkit.

Vector fields and equilibria for a three-parameter quadratic system and two
fixed Lorenz arrangements, a power-law time gauge that maps the system onto
an autonomous form, a deterministic Taylor-series integrator, stability and
Lyapunov analysis, and a registry of runnable scenarios with CSV/JSON/SVG
exporters.
"""

from .dynamics import (
    LORENZ_LITERAL_PARAMS,
    LORENZ_STANDARD_PARAMS,
    Equilibrium,
    State3,
    SystemKind,
    SystemParams,
    effective_params,
    equilibria,
    jacobian,
    make_field,
)
from .timegauge import Gauge, make_gauged_field, scale_time, unscale_time
from .integrate import (
    IntegrationError,
    IntegrationMeta,
    Trajectory,
    integrate_fixed,
    integrate_sl,
    rk4_step,
)
from .analysis import (
    ConjectureReport,
    LyapunovEstimate,
    NewtonError,
    SeparationSeries,
    Spectrum3,
    classify_spectrum,
    conjecture_report,
    divergence_probe,
    eigenvalues_3x3,
    max_lyapunov,
    newton_fixed_point,
    separation_slope,
)
from .scenarios import (
    Scenario,
    ScenarioNotFound,
    SweepSpec,
    builtin_scenarios,
    run_compare,
    run_scenario,
    run_sweep,
    scenario_registry,
    scenario_report,
)

__version__ = "0.1.0"
