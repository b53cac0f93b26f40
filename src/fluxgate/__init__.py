"""Flux-detuning pulse design and verification for transmon chains.

Library layout:

* :mod:`fluxgate.device` -- dressed chain Hamiltonian in a truncated basis
* :mod:`fluxgate.pulses` -- detuning schedules, waveforms, serialization
* :mod:`fluxgate.propagator` -- Trotterized closed-system evolution
* :mod:`fluxgate.fidelity` -- projection, phase compensation, gate fidelity
* :mod:`fluxgate.optimizer` -- constrained differential evolution + local search
* :mod:`fluxgate.opensystem` -- Lindblad evolution and process tomography
* :mod:`fluxgate.robustness` -- Erf-smoothing distortion and noise sweeps
* :mod:`fluxgate.profiles` -- shipped device/constraint/pulse profiles
* :mod:`fluxgate.cli` -- the ``fluxgate`` command-line pipeline
"""

from .device import (
    DeviceChain,
    ResonatorCoupling,
    TransmonSpec,
    TruncatedBasis,
    basis_for,
    build_hamiltonian,
    coupling_strength,
    device_from_json,
    device_to_json,
    dressed_frequency,
    enumerate_basis,
    full_basis,
    load_device,
)
from .errors import (
    DegenerateUnitaryError,
    EvaluationError,
    EvolutionError,
    InfeasibilityError,
    SingularityError,
    TomographyError,
)
from .fidelity import (
    CompensationPhases,
    FidelityReport,
    ccphase_ideal,
    compensation_matrix,
    computational_indices,
    controlled_phase_ideal,
    fidelity_report,
    fit_phases,
    gate_fidelity,
    project_to_computational,
    score_waveform,
)
from .opensystem import (
    LindbladSpec,
    QPTReport,
    QptResult,
    chi_ideal,
    estimate_chi,
    evolve_density,
    pauli_basis,
    prepare_qpt_inputs,
    qpt_metrics,
    run_qpt,
    validate_density,
)
from .optimizer import (
    ConstraintSet,
    DEConfig,
    DetuningRange,
    LocalSearchConfig,
    LocalSearchResult,
    SussadeResult,
    SussadeState,
    Violation,
    ccphase_fitness,
    chromosome_to_schedule,
    load_constraints,
    local_search,
    run_sussade,
    seed_population,
    validate_constraints,
)
from .propagator import TrotterConfig, evolve, expm_skew
from .pulses import (
    PiecewiseConstantWaveform,
    PulseSchedule,
    Waveform,
    load_schedule_csv,
    load_schedule_json,
    save_schedule_csv,
    save_schedule_json,
)
from .robustness import (
    DistortionReport,
    NoiseSweepConfig,
    RobustnessReport,
    SmoothingParams,
    SmoothedWaveform,
    distortion_report,
    noise_sweep,
    smooth_waveform,
)

__version__ = "0.1.0"
