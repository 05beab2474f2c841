"""Simulator and closed-form toolkit for pulsed electron-nuclear polarisation transfer."""

from .analytic import (
    BlockadePair,
    EffectiveSpinParams,
    ExcitationManifold,
    SideDip,
    blockade_pair,
    effective_params,
    excitation_manifold,
    optimal_pulse_count,
    polarisation_ceiling,
    side_dips,
    single_spin_polarisation,
)
from .engine import (
    DensityState,
    PolarisationTrace,
    ProtocolRun,
    ScheduleResult,
    ScheduleStage,
    asymptotic_envelope,
    initial_state,
    run_protocol,
    run_schedule,
    sweep_trace,
    write_schedule_csv,
    write_trace_csv,
)
from .errors import (
    ConvergenceCap,
    DegenerateSpins,
    DimensionMismatch,
    DimensionOverflow,
    DnpsimError,
    InvalidTau,
    NoConvergence,
    NotHermitian,
    NotIdealPulses,
    NotUnitary,
    NumericalError,
    ParseError,
    SectorLeak,
    ValidationError,
    ValidityWarning,
    ZeroCoupling,
)
from .floquet import (
    AvoidedCrossing,
    FloquetSpectrum,
    compute_spectrum,
    find_crossings,
    local_minima,
    write_spectrum_csv,
)
from .linalg import (
    EigenDecomposition,
    hermitian_eigensolve,
    unitary_eigensolve,
)
from .protocols import (
    EventKind,
    FourierCoefficients,
    ModulationFunctions,
    PulseEvent,
    PulseSequence,
    TAU_PER_PERIOD,
    average_hamiltonian_numeric,
    cpmg_for_period,
    free_sequence,
    period_unitary,
    pulsepol_for_period,
    resonant_period,
)
from .spins import (
    KHZ_TO_RAD_PER_US,
    NuclearSpin,
    SpinRegister,
    build_operators,
    larmor_from_field,
    load_register,
    load_register_file,
    precession_frequency,
    static_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
