"""Noise-aware single-qubit gate decomposition.

Any single-qubit unitary factors into virtual z-rotations around two fixed
x-axis pulses:

    U = e^{i alpha} Rz(beta) Rx(-pi/2) Rz(gamma) Rx(pi/2) Rz(delta)

With amplitude and phase damping attached to each physical pulse the three
z-angles stop being equivalent bookkeeping: different (beta, gamma, delta)
realizing the same unitary route the state differently through the noise.
This package computes the damping model in closed form, optimizes the angles
for a known initial state (or a distribution of them) on an exact moment
objective with analytic gradients, and provides
randomized-benchmarking and sweep harnesses plus a CLI on top.
"""

from .gates import (
    BlochState,
    EulerAngles,
    NAMED_GATES,
    extract_euler,
    named_gate,
)
from .noise import (
    LAMBDA_MAX,
    NoiseParams,
    damping_probabilities,
)
from .objectives import (
    cap_moments,
    moment_objective,
    point_moments,
)
from .optimize import (
    OptimizationResult,
    optimize_gate,
)
from .calibration import (
    BUNDLED_DEVICES,
    DeviceSpec,
    DeviceSpecError,
    QubitSpec,
    apply_readout_error,
    bundled_device,
    load_device_spec,
    mitigate_readout,
    noise_params_for,
    parse_device_spec,
)
from .rb import (
    DecayFit,
    RbArmResult,
    RbConfig,
    RbRunResult,
    fit_decay,
    run_drift_sweep,
    run_rb_experiment,
)
from .experiments import (
    SweepConfig,
    SweepResult,
    SweepRow,
    knowledge_sweep,
    prep_improvement_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BlochState",
    "EulerAngles",
    "NAMED_GATES",
    "extract_euler",
    "named_gate",
    "LAMBDA_MAX",
    "NoiseParams",
    "damping_probabilities",
    "cap_moments",
    "moment_objective",
    "point_moments",
    "OptimizationResult",
    "optimize_gate",
    "BUNDLED_DEVICES",
    "DeviceSpec",
    "DeviceSpecError",
    "QubitSpec",
    "apply_readout_error",
    "bundled_device",
    "load_device_spec",
    "mitigate_readout",
    "noise_params_for",
    "parse_device_spec",
    "DecayFit",
    "RbArmResult",
    "RbConfig",
    "RbRunResult",
    "fit_decay",
    "run_drift_sweep",
    "run_rb_experiment",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "knowledge_sweep",
    "prep_improvement_sweep",
    "__version__",
]
