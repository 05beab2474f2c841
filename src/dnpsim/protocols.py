"""Protocol period construction and the toggling-frame modulation machinery.

A protocol period is an ordered list of pulse events (rotations about axes
in the electron x-y plane, and free-evolution gaps). Two builders are
provided: the polarisation bracket with period T = 4 tau, and the
refocusing train with period T = 2 tau. Both come in an ideal-pulse flavour
(zero-duration rotations) and a finite-pulse flavour where rotations evolve
the full Hamiltonian plus drive for theta/Omega.

The modulation functions f1, f2 are the piecewise-constant coefficients the
toggled electron S_x and S_y acquire over one 4 tau period; their Fourier
coefficients fix the effective flip-flop rate at each harmonic.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from math import cos, inf, isfinite, pi, sin
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidTau, NotIdealPulses, NotUnitary, ValidationError, ValidityWarning
from .linalg import UNITARY_TOL, kron, matrix_exponential_hermitian, unitarity_defect
from .spins import (
    SpinRegister,
    build_operators,
    precession_frequency,
    static_hamiltonian,
    static_hamiltonian_eig,
)

PHASE_X = 0.0
PHASE_Y = pi / 2
PHASE_MINUS_X = pi

DURATION_TOL = 1e-12


class EventKind(enum.Enum):
    ROTATION = "rotation"
    FREE_EVOLUTION = "free"


@dataclass(frozen=True)
class PulseEvent:
    """One element of a protocol period.

    Rotations carry an angle (radians) and a phase phi defining the axis
    S_phi = cos(phi) S_x + sin(phi) S_y; duration is 0 for ideal pulses.
    Free evolution carries only a duration.
    """

    kind: EventKind
    angle: float | None = None
    phase: float | None = None
    duration: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.duration < inf:
            raise ValidationError(f"duration: must be finite and >= 0, got {self.duration}")
        if self.kind is EventKind.ROTATION:
            if self.angle is None or self.phase is None:
                raise ValidationError("angle/phase: required for rotation events")
            if not (isfinite(self.angle) and isfinite(self.phase)):
                raise ValidationError(
                    f"angle/phase: must be finite, got {self.angle}, {self.phase}"
                )
        else:
            if self.angle is not None or self.phase is not None:
                raise ValidationError("angle/phase: not allowed on free evolution")


@dataclass(frozen=True)
class PulseSequence:
    """One protocol period: events, total period (us), harmonic index, label."""

    events: tuple[PulseEvent, ...]
    period: float
    harmonic: int
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not 0 < self.period < inf:
            raise ValidationError(f"period: must be finite and > 0, got {self.period}")
        if self.harmonic < 1:
            raise ValidationError(f"harmonic: must be >= 1, got {self.harmonic}")
        if not self.label:
            raise ValidationError("label: must be non-empty")
        total = sum(e.duration for e in self.events)
        if abs(total - self.period) > DURATION_TOL * max(1.0, self.period):
            raise ValidationError(
                f"events: durations sum to {total!r}, period is {self.period!r}"
            )

    @property
    def tau(self) -> float:
        """Quarter period; the pulse-spacing parameter of the 4 tau bracket."""
        return self.period / 4.0

    def is_ideal(self) -> bool:
        return all(
            e.duration == 0.0 for e in self.events if e.kind is EventKind.ROTATION
        )


@dataclass(frozen=True)
class Ideal:
    """Zero-duration pulses."""


@dataclass(frozen=True)
class Finite:
    """Finite pulses driven at the given Rabi frequency (rad/us)."""

    rabi: float

    def __post_init__(self) -> None:
        if not 0 < self.rabi < inf:
            raise ValidationError(f"rabi: must be finite and > 0, got {self.rabi}")


PulseMode = Ideal | Finite
IDEAL = Ideal()


def _rot(angle: float, phase: float, duration: float = 0.0) -> PulseEvent:
    return PulseEvent(EventKind.ROTATION, angle=angle, phase=phase, duration=duration)


def _free(duration: float) -> PulseEvent:
    return PulseEvent(EventKind.FREE_EVOLUTION, duration=duration)


def free_sequence(duration: float, label: str = "free") -> PulseSequence:
    """A pulse-free period: plain evolution under the static Hamiltonian."""
    if not 0 < duration < inf:
        raise InvalidTau(f"duration must be finite and > 0, got {duration}")
    return PulseSequence(
        events=(_free(duration),), period=duration, harmonic=1, label=label
    )


def pulsepol_sequence(
    tau: float, pulse_mode: PulseMode = IDEAL, harmonic: int = 3
) -> PulseSequence:
    """Build one polarisation period T = 4 tau.

    The period is the bracket
    [(pi/2)_Y tau/2 (pi)_-X tau/2 (pi/2)_Y (pi/2)_X tau/2 (pi)_Y tau/2 (pi/2)_X]
    applied twice. In ideal mode each pi rotation is emitted as two pi/2
    events of the same phase, giving exactly 16 rotation and 8 free events.
    In finite mode pulses keep their composite grouping, pi/2 pairs are
    centered on bracket boundaries and pi pulses on odd multiples of tau/2,
    so the tau/2 spacing holds between pulse centers; this needs
    tau >= 2 pi / rabi.

    Raises
    ------
    InvalidTau
        For tau not finite and > 0, or too short to fit the finite pulses.
    """
    if not 0 < tau < inf:
        raise InvalidTau(f"tau must be finite and > 0, got {tau}")

    if isinstance(pulse_mode, Ideal):
        gap = tau / 2.0
        half = [
            _rot(pi / 2, PHASE_Y),
            _free(gap),
            _rot(pi / 2, PHASE_MINUS_X),
            _rot(pi / 2, PHASE_MINUS_X),
            _free(gap),
            _rot(pi / 2, PHASE_Y),
            _rot(pi / 2, PHASE_X),
            _free(gap),
            _rot(pi / 2, PHASE_Y),
            _rot(pi / 2, PHASE_Y),
            _free(gap),
            _rot(pi / 2, PHASE_X),
        ]
    else:
        d_half = (pi / 2) / pulse_mode.rabi
        d_pi = pi / pulse_mode.rabi
        gap = tau / 2.0 - d_half - d_pi / 2.0
        if gap < 0:
            raise InvalidTau(
                f"tau = {tau} cannot fit finite pulses; need tau >= {2 * pi / pulse_mode.rabi:.6g}"
            )
        half = [
            _rot(pi / 2, PHASE_Y, d_half),
            _free(gap),
            _rot(pi, PHASE_MINUS_X, d_pi),
            _free(gap),
            _rot(pi / 2, PHASE_Y, d_half),
            _rot(pi / 2, PHASE_X, d_half),
            _free(gap),
            _rot(pi, PHASE_Y, d_pi),
            _free(gap),
            _rot(pi / 2, PHASE_X, d_half),
        ]
    return PulseSequence(
        events=tuple(half + half),
        period=4.0 * tau,
        harmonic=harmonic,
        label="pulsepol",
    )


def cpmg_sequence(
    tau: float, pulse_mode: PulseMode = IDEAL, harmonic: int = 1
) -> PulseSequence:
    """Build one refocusing period [tau/2, pi_X, tau/2] x2, T = 2 tau."""
    if not 0 < tau < inf:
        raise InvalidTau(f"tau must be finite and > 0, got {tau}")
    if isinstance(pulse_mode, Ideal):
        half = [_free(tau / 2), _rot(pi, PHASE_X), _free(tau / 2)]
    else:
        d_pi = pi / pulse_mode.rabi
        gap = tau / 2 - d_pi / 2
        if gap < 0:
            raise InvalidTau(
                f"tau = {tau} cannot fit a finite pi pulse; need tau >= {pi / pulse_mode.rabi:.6g}"
            )
        half = [_free(gap), _rot(pi, PHASE_X, d_pi), _free(gap)]
    return PulseSequence(
        events=tuple(half + half), period=2.0 * tau, harmonic=harmonic, label="cpmg"
    )


def _electron_rotation(angle: float, phase: float) -> np.ndarray:
    """exp(-i angle S_phi) on the electron alone, as a 2x2 matrix."""
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    return np.array(
        [
            [c, -1j * s * (cos(phase) - 1j * sin(phase))],
            [-1j * s * (cos(phase) + 1j * sin(phase)), c],
        ],
        dtype=complex,
    )


def free_propagator(register: SpinRegister, duration: float) -> np.ndarray:
    """exp(-i H0 t) over the joint space, from the cached H0 eigensystem.

    H0 is block-diagonal in the electron basis, so block [r, r] is the
    nuclear precession with the electron held in basis state r.
    """
    return static_hamiltonian_eig(register).propagator(duration)


def period_unitary(seq: PulseSequence, register: SpinRegister) -> np.ndarray:
    """Ordered product of the event propagators over one period.

    Free segments contribute exp(-i H0 d); ideal rotations exp(-i theta
    S_phi); finite rotations exp(-i (H0 d + theta S_phi)). The result's
    ``linalg.unitarity_defect`` is checked to be at most 1e-10, which a
    map with a non-finite entry fails.

    An all-ideal sequence is multiplied out on (2, 2, d, d) electron
    blocks (d = D / 2, the nuclear dimension): H0 is block-diagonal in the
    electron basis, so a free gap multiplies each block row by one of the
    two diagonal d x d blocks of exp(-i H0 d), and the rotations between
    two gaps merge into one 2x2 matrix that mixes block rows with scalars.
    A sequence with a finite rotation takes dense D x D products.

    A warning is emitted for finite pulses whose Rabi frequency is not
    large against the strongest transverse coupling (the pulses then tilt
    the nuclei noticeably and the ideal-pulse analysis drifts).
    """
    ops = build_operators(register)
    dim = ops.dim

    finite = [e for e in seq.events if e.kind is EventKind.ROTATION and e.duration > 0]
    if finite and register.nuclei:
        rabi = finite[0].angle / finite[0].duration
        max_perp = max(n.a_perp for n in register.nuclei)
        if max_perp > 0 and rabi < 100.0 * max_perp:
            warnings.warn(
                f"finite-pulse rabi {rabi:.3g} rad/us is below 100x the strongest "
                f"transverse coupling {max_perp:.3g}; pulse errors will be visible",
                ValidityWarning,
                stacklevel=2,
            )

    if finite:
        u = _dense_period(seq, register, ops)
    else:
        d = dim // 2
        u = _block_period(seq, register, d).transpose(0, 2, 1, 3).reshape(dim, dim)

    dev = unitarity_defect(u)
    if dev > UNITARY_TOL:
        raise NotUnitary(f"period propagator drifted off unitarity by {dev:.3e}")
    return u


def _block_period(seq: PulseSequence, register: SpinRegister, d: int) -> np.ndarray:
    """Period map of an all-ideal sequence as electron blocks u[r, s] (d x d)."""
    u = np.multiply.outer(np.eye(2, dtype=complex), np.eye(d, dtype=complex))
    mix = np.eye(2, dtype=complex)
    gaps: dict[float, np.ndarray] = {}
    for event in seq.events:
        if event.kind is EventKind.ROTATION:
            mix = _electron_rotation(event.angle, event.phase) @ mix
            continue
        gap = gaps.get(event.duration)
        if gap is None:
            full = free_propagator(register, event.duration).reshape(2, d, 2, d)
            gap = gaps[event.duration] = np.stack((full[0, :, 0], full[1, :, 1]))[:, None]
        u = gap @ (mix @ u.reshape(2, -1)).reshape(u.shape)
        mix = np.eye(2, dtype=complex)
    return (mix @ u.reshape(2, -1)).reshape(u.shape)


def _dense_period(seq: PulseSequence, register: SpinRegister, ops) -> np.ndarray:
    """Period map as dense products of every event's D x D propagator,
    each distinct event's propagator built once."""
    h0 = static_hamiltonian(register, ops)
    steps: dict[PulseEvent, np.ndarray] = {}
    u = np.eye(ops.dim, dtype=complex)
    for event in seq.events:
        step = steps.get(event)
        if step is None:
            if event.kind is EventKind.FREE_EVOLUTION:
                step = free_propagator(register, event.duration)
            elif event.duration == 0.0:
                rotation = _electron_rotation(event.angle, event.phase)
                step = kron(rotation, np.eye(ops.dim // 2, dtype=complex))
            else:
                s_phi = cos(event.phase) * ops.electron.x + sin(event.phase) * ops.electron.y
                step = matrix_exponential_hermitian(h0 * event.duration + event.angle * s_phi, 1.0)
            steps[event] = step
        u = step @ u
    return u


# Half-tau window values of the toggled S_x (f1) and S_y (f2) coefficients
# over [0, 4 tau). f2 is f1 delayed by tau: the second half of each bracket
# repeats the first half's envelope with the X and Y roles exchanged.
_F1_WINDOWS = (1.0, -1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0)
_F2_WINDOWS = (0.0, 0.0, 1.0, -1.0, 0.0, 0.0, -1.0, 1.0)


class FourierCoefficients(NamedTuple):
    """cos/sin coefficients of f1 and f2 on the basis cos/sin(k pi t / 2 tau)."""

    a1: float
    b1: float
    a2: float
    b2: float


@dataclass(frozen=True)
class ModulationFunctions:
    """Evaluators and Fourier data for the modulation functions of one period.

    Both functions are piecewise constant in {-1, 0, +1} with period
    T = 4 tau, have disjoint supports (f1 f2 = 0 pointwise), and are
    anti-periodic over half a period, so only odd harmonics survive.
    """

    tau: float

    def _eval(self, t, table) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.floor(np.mod(t, 4.0 * self.tau) / (self.tau / 2.0)).astype(int)
        idx = np.clip(idx, 0, 7)
        return np.asarray(table)[idx]

    def f1(self, t) -> np.ndarray:
        return self._eval(t, _F1_WINDOWS)

    def f2(self, t) -> np.ndarray:
        return self._eval(t, _F2_WINDOWS)

    @staticmethod
    def fourier(k: int) -> FourierCoefficients:
        """Closed-form coefficients at harmonic k (zero for even k).

        a1/b1 integrate the f1 window table directly; the f2 coefficients
        follow from the same table through the tau time shift, which works
        out to a2 = a1, b2 = -b1 at every odd harmonic.
        """
        if k < 1:
            raise ValidationError(f"harmonic: must be >= 1, got {k}")
        if k % 2 == 0:
            return FourierCoefficients(0.0, 0.0, 0.0, 0.0)
        a1 = (4.0 * sin(k * pi / 4.0) - 2.0 * sin(k * pi / 2.0)) / (k * pi)
        b1 = (2.0 - 4.0 * cos(k * pi / 4.0)) / (k * pi)
        return FourierCoefficients(a1, b1, a1, -b1)

    def coefficient_table(self, k_max: int) -> np.ndarray:
        """Array of shape (k_max, 4): rows k = 1..k_max, columns a1 b1 a2 b2."""
        return np.array([self.fourier(k) for k in range(1, k_max + 1)])

    def partial_sum(self, t, k_max: int, which: int = 1) -> np.ndarray:
        """Fourier reconstruction of f1 or f2 truncated at k_max."""
        if which not in (1, 2):
            raise ValidationError(f"which: must be 1 or 2, got {which}")
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        w0 = pi / (2.0 * self.tau)
        for k in range(1, k_max + 1):
            c = self.fourier(k)
            a, b = (c.a1, c.b1) if which == 1 else (c.a2, c.b2)
            if a == 0.0 and b == 0.0:
                continue
            out += a * np.cos(k * w0 * t) + b * np.sin(k * w0 * t)
        return out


def modulation_functions(tau: float) -> ModulationFunctions:
    if not 0 < tau < inf:
        raise InvalidTau(f"tau must be finite and > 0, got {tau}")
    return ModulationFunctions(tau=tau)


def average_hamiltonian_numeric(
    seq: PulseSequence,
    register: SpinRegister,
    frame_frequency: float | None = None,
    n_steps: int = 10_000,
) -> np.ndarray:
    """First-order average Hamiltonian of the ideal polarisation period.

    The integrand per nucleus, in the pulse toggling frame and a nuclear
    interaction frame rotating at ``frame_frequency`` w, is

        (f1(t) Sx + f2(t) Sy) (x) [A_par Iz + A_perp (cos(wt) Ix - sin(wt) Iy)]
        + (omega_I - w) Iz

    where omega_I is the nucleus's dressed precession frequency, so the
    leftover Iz coefficient is the detuning from the chosen frame. The
    default frame is the protocol frequency 2 pi k / T, which coincides
    with omega_I exactly on resonance. Integration is a midpoint rule with
    ``n_steps`` uniform steps over one period.

    Raises
    ------
    NotIdealPulses
        If the sequence is not the 4 tau polarisation bracket, or carries
        finite-duration pulses.
    """
    if seq.label != "pulsepol":
        raise NotIdealPulses(
            f"average Hamiltonian is defined for the 4 tau polarisation bracket, got {seq.label!r}"
        )
    if not seq.is_ideal():
        raise NotIdealPulses("sequence has finite-duration pulses")

    period = seq.period
    omega = frame_frequency if frame_frequency is not None else 2.0 * pi * seq.harmonic / period
    mf = modulation_functions(seq.tau)

    t = (np.arange(n_steps) + 0.5) * (period / n_steps)
    f1 = mf.f1(t)
    f2 = mf.f2(t)
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    m10, m20 = float(f1.mean()), float(f2.mean())
    m1c, m1s = float((f1 * c).mean()), float((f1 * s).mean())
    m2c, m2s = float((f2 * c).mean()), float((f2 * s).mean())

    ops = build_operators(register)
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    sx, sy = ops.electron.x, ops.electron.y
    for spin, site in zip(register.nuclei, ops.nuclei):
        omega_i = precession_frequency(spin, register.larmor)
        h += spin.a_parallel * (m10 * (sx @ site.z) + m20 * (sy @ site.z))
        h += spin.a_perp * (
            m1c * (sx @ site.x)
            - m1s * (sx @ site.y)
            + m2c * (sy @ site.x)
            - m2s * (sy @ site.y)
        )
        h += (omega_i - omega) * site.z
    return (h + h.conj().T) / 2.0


def resonant_period(omega_i: float, harmonic: int = 3) -> float:
    """Period T putting the given precession frequency on the k-th harmonic."""
    if harmonic < 1:
        raise ValidationError(f"harmonic: must be >= 1, got {harmonic}")
    return 2.0 * pi * harmonic / omega_i


SequenceBuilder = Callable[[float], PulseSequence]


def pulsepol_for_period(
    period: float, harmonic: int = 3, rabi: float | None = None
) -> PulseSequence:
    """Polarisation sequence whose full period is the given value."""
    mode: PulseMode = IDEAL if rabi is None else Finite(rabi)
    return pulsepol_sequence(period / 4.0, mode, harmonic=harmonic)


def cpmg_for_period(
    period: float, harmonic: int = 1, rabi: float | None = None
) -> PulseSequence:
    """Refocusing sequence whose full period is the given value."""
    mode: PulseMode = IDEAL if rabi is None else Finite(rabi)
    return cpmg_sequence(period / 2.0, mode, harmonic=harmonic)
