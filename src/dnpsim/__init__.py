"""Simulator and closed-form toolkit for pulsed electron-nuclear polarisation transfer.

Each public name is imported from its module on first use (PEP 562), so
``import dnpsim`` loads no submodule, and ``dnpsim.cli`` only the ones it imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names of each module.
_PUBLIC = {
    "analytic": """BlockadePair EffectiveSpinParams ExcitationManifold SideDip blockade_pair
        effective_params excitation_manifold optimal_pulse_count polarisation_ceiling
        side_dips single_spin_polarisation""",
    "engine": """DensityState PolarisationTrace ProtocolRun ScheduleResult ScheduleStage
        asymptotic_envelope initial_state run_protocol run_schedule sweep_trace
        write_schedule_csv write_trace_csv""",
    "errors": """DegenerateSpins DimensionMismatch DimensionOverflow DnpsimError InvalidTau
        NoConvergence NotHermitian NotUnitary NumericalError ParseError
        SectorLeak ValidationError ValidityWarning ZeroCoupling""",
    "floquet": """AvoidedCrossing FloquetSpectrum compute_spectrum find_crossings local_minima
        write_spectrum_csv""",
    "linalg": "EigenDecomposition hermitian_eigensolve unitary_eigensolve",
    "protocols": """EventKind FourierCoefficients PulseEvent PulseSequence TAU_PER_PERIOD
        cpmg_for_period fourier_coefficients period_unitary pulsepol_for_period resonant_period""",
    "spins": """KHZ_TO_RAD_PER_US NuclearSpin SpinRegister build_operators larmor_from_field
        load_register load_register_file precession_frequency""",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(["__version__", *_MODULE_OF])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
