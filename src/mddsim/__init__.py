"""Desk-scale simulator and verification toolkit for measurement-driven
dynamical decoupling: noise channels, pulse schedules, optimality checks,
idle-aware circuit scheduling, and a sampled-subspace diagonalization
pipeline with configuration recovery."""

from .states import (
    DensityMatrix,
    PauliExpectations,
    PureState,
    bloch_vector,
    entanglement_fidelity,
    haar_random_state,
    reduced_density,
)
from .noise import (
    JumpOperator,
    KrausChannel,
    NoiseParams,
    PhaseCovariantChannel,
    SpectralDensity,
    apply_local,
    chi_integral,
    combined_channel,
    filter_function,
    lindblad_derivative,
    relaxation_dephasing_jumps,
)
from .sequences import (
    PulseSchedule,
    build_schedule,
    measure_expectations,
    mdd_unitary,
    qdd_times,
    toggling_frames,
    udd_times,
)
from .analysis import (
    DecayRates,
    TwoQubitRates,
    c3_section_feasible,
    dd_entanglement_fidelity,
    decay_rate,
    decay_rate_quadratic,
    grid_minimum_two_qubit,
    lemma_check,
    local_entanglement_fidelity,
    mixed_state_bounds,
    optimize_two_qubit_mdd,
)
from .circuits import (
    Gate,
    IdleInterval,
    ScheduledCircuit,
    Slice,
    identify_idle,
    insert_dd,
    qft_circuit,
    qft_success_scenario,
    sample_counts,
    simulate,
    success_probability,
)
from .experiments import ExperimentConfig, colored_noise_fidelity, run
from . import sqd

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
