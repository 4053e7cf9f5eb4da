"""Local Volt/VAR control on radial distribution feeders.

Build a feeder, derive its voltage-sensitivity matrices, run the three
closed-loop control laws against a linearized or full branch-flow plant,
check the spectral convergence conditions, and solve for the shared
equilibrium.
"""

from .control import (
    DEFAULT_DEADBAND,
    ControlCurve,
    CurveBundle,
    DroopCurve,
    TableCurve,
    curve_from_spec,
    limits_arrays,
    project_box,
    reactive_limits,
)
from .dynamics import (
    ConditionReport,
    ControllerConfig,
    EquilibriumReport,
    RegretAudit,
    Trajectory,
    check_d1_condition,
    d2_regret_bound_check,
    d3_stepsize_bound,
    estimate_gradient_bound,
    lipschitz_constant,
    objective_f,
    objective_subgradient,
    objective_terms,
    objective_tradeoff,
    simulate,
    solve_equilibrium,
    step,
)
from .exceptions import (
    CycleDetected,
    DimensionMismatch,
    Disconnected,
    DuplicateId,
    FeederValidationError,
    InvalidRecord,
    MaxIterations,
    NegativeSquaredVoltage,
    NoConvergence,
    NonPositiveImpedance,
    ParseError,
    PowerFlowError,
    RootDegreeNotOne,
)
from .feeder_io import (
    feeder_hash,
    feeder_to_dict,
    feeders_equal,
    load_feeder,
    save_feeder,
)
from .network import (
    Bases,
    Bus,
    Feeder,
    Inverter,
    Line,
    SensitivityMatrices,
    build_feeder,
    explicit_inverse_x,
    sensitivity_matrices,
    voltage_deviation_form,
)
from .powerflow import (
    LinearizationReport,
    VoltageSolution,
    distflow_sweep,
    linear_voltage,
    linearization_error,
)

__version__ = "0.1.0"
