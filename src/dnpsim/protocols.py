"""Protocol period construction and the toggling-frame modulation machinery.

A protocol period is an ordered list of pulse events (rotations about axes
in the electron x-y plane, and free-evolution gaps). Two builders are
provided, both taking the period: the polarisation bracket with T = 4 tau,
and the refocusing train with T = 2 tau. Each is one table of pulse groups
per half period. ``rabi`` None gives ideal (zero-duration) rotations; a
Rabi frequency Omega gives finite ones that evolve the full Hamiltonian
plus drive for theta/Omega.

``period_roots`` builds the root maps of a stack of periods (the half
period when the second half repeats the first) with one kernel on electron
block rows, whose free gaps are the two d x d electron blocks of
exp(-i H0 t) from ``free_propagator``; ``period_unitary`` squares and
checks them, and the Floquet solve squares their sector blocks.
``conserved_parity`` names the parity a period's event pattern conserves;
``parity_sectors`` lists the basis states of each of its two sectors, and
``sector_blocks`` cuts a map into its blocks between them.

The modulation functions f1, f2 are the piecewise-constant coefficients the
toggled electron S_x and S_y acquire over one 4 tau period; their Fourier
coefficients fix the effective flip-flop rate at each harmonic.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import cos, inf, isfinite, pi, sin
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidTau, NotIdealPulses, NotUnitary, SectorLeak, ValidationError
from .errors import ValidityWarning
from .linalg import UNITARY_TOL, hermitian_eigensolve, unitarity_defect
from .spins import (
    SpinRegister,
    build_operators,
    precession_frequency,
    require_joint_space,
    static_hamiltonian,
    static_hamiltonian_eig,
)

PHASE_X = 0.0
PHASE_Y = pi / 2
PHASE_MINUS_X = pi

DURATION_TOL = 1e-12

#: Largest entry between two parity sectors a map of a conserving pattern may have.
SECTOR_TOL = 1e-12


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


def free_propagator(register: SpinRegister, duration) -> np.ndarray:
    """exp(-i H0 t) as its two d x d electron blocks, shape (2, d, d) with
    d = D / 2, or ``duration.shape + (2, d, d)`` for an array of durations.
    H0 is block-diagonal in the electron basis; block r is the nuclear
    precession with the electron held in basis state r."""
    return static_hamiltonian_eig(register).propagator(duration)


def period_unitary(seqs, register: SpinRegister) -> np.ndarray:
    """Ordered product of the event propagators over one period.

    ``seqs`` is one PulseSequence, giving a (D, D) map, or a sequence of
    them, giving a (P, D, D) stack. Free segments contribute exp(-i H0 d);
    ideal rotations exp(-i theta S_phi); finite rotations
    exp(-i (H0 d + theta S_phi)). Each map is its ``period_roots`` root,
    squared where that is the half period, and its ``unitarity_defect`` is
    checked to be at most 1e-10, which a map with a non-finite entry fails.
    """
    single = isinstance(seqs, PulseSequence)
    u, squared = period_roots((seqs,) if single else seqs, register)
    u[squared] = u[squared] @ u[squared]
    dev = unitarity_defect(u)
    if dev > UNITARY_TOL:
        raise NotUnitary(f"period propagator drifted off unitarity by {dev:.3e}")
    return u[0] if single else u


def period_roots(seqs, register: SpinRegister) -> tuple[np.ndarray, np.ndarray]:
    """The unchecked (P, D, D) root maps of P PulseSequences and the (P,)
    mask of those whose period map is the root squared: the half-period map
    when the second half repeats the first event for event, else the whole
    period map. Roots that share one event pattern (the same events up to
    the gap durations) are multiplied out together by ``_pattern_maps``.

    A warning is emitted for finite pulses whose Rabi frequency is not
    large against the strongest transverse coupling (the pulses then tilt
    the nuclei noticeably and the ideal-pulse analysis drifts).
    """
    stack = tuple(seqs)
    if not stack:
        raise ValidationError("seqs: need at least one pulse sequence")
    require_joint_space(register)

    squared = np.empty(len(stack), dtype=bool)
    groups: dict[tuple, list[int]] = {}
    for i, seq in enumerate(stack):
        events, half = seq.events, len(seq.events) // 2
        squared[i] = len(events) % 2 == 0 and events[:half] == events[half:]
        groups.setdefault(_pulses(events[:half] if squared[i] else events), []).append(i)
    u = np.empty((len(stack), register.dim, register.dim), dtype=complex)
    for pattern, members in groups.items():
        _warn_weak_drive(pattern, register)
        u[members] = _pattern_maps(pattern, [stack[i] for i in members], register)
    return u, squared


def _pulses(events: tuple[PulseEvent, ...]) -> tuple:
    """The event pattern: the events with each free event replaced by None."""
    return tuple(None if e.kind is EventKind.FREE_EVOLUTION else e for e in events)


def _warn_weak_drive(pattern: tuple, register: SpinRegister) -> None:
    """Warn when the pattern's finite pulses are weak against the couplings."""
    finite = [e for e in pattern if e is not None and e.duration > 0]
    if finite and register.nuclei:
        rabi = finite[0].angle / finite[0].duration
        max_perp = max(n.a_perp for n in register.nuclei)
        if max_perp > 0 and rabi < 100.0 * max_perp:
            warnings.warn(
                f"finite-pulse rabi {rabi:.3g} rad/us is below 100x the strongest "
                f"transverse coupling {max_perp:.3g}; pulse errors will be visible",
                ValidityWarning,
                stacklevel=4,
            )


def _pattern_maps(pattern: tuple, seqs: list[PulseSequence], register: SpinRegister) -> np.ndarray:
    """(P, D, D) maps of the sequences sharing ``pattern``.

    The maps are multiplied out as (P, 2, d, D) electron block rows: block
    row r is the d x D slab of rows r d to r d + d - 1. A free gap
    multiplies block row r by block r of ``free_propagator``. Consecutive
    ideal rotations merge into one pending 2x2 electron rotation, which
    mixes the block rows with scalars before the next gap or finite
    rotation. A finite rotation is one D x D product. While the map is
    still the identity, a gap places its blocks times the pending
    rotation's scalars, with no matrix product.
    """
    p, dim = len(seqs), register.dim
    d = dim // 2
    gaps = np.array(
        [[e.duration for e in seq.events[: len(pattern)] if e.kind is EventKind.FREE_EVOLUTION]
         for seq in seqs]
    )
    times, which = np.unique(gaps, return_inverse=True)
    blocks = free_propagator(register, times)
    gap_blocks = (blocks[w] for w in which.reshape(gaps.shape).T)
    u = None  # the identity
    mix = np.eye(2, dtype=complex)
    for event in pattern:
        if event is None:
            gap = next(gap_blocks)
            if u is None:
                u = (mix[:, None, :, None] * gap[:, :, :, None, :]).reshape(p, 2, d, dim)
            else:
                u = gap @ mix_electron_rows(mix, u)
        elif event.duration == 0.0:
            mix = _electron_rotation(event.angle, event.phase) @ mix
            continue
        else:
            rows = mix_electron_rows(mix, np.eye(dim).reshape(1, 2, d, dim) if u is None else u)
            u = (_finite_step(event, register) @ rows.reshape(-1, dim, dim)).reshape(-1, 2, d, dim)
        mix = np.eye(2, dtype=complex)
    return np.broadcast_to(mix_electron_rows(mix, u).reshape(-1, dim, dim), (p, dim, dim))


def mix_electron_rows(mix: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The electron block rows of a (P, 2, d, D) or (P, D, m) stack mixed by ``mix``."""
    return (mix @ u.reshape(len(u), 2, -1)).reshape(u.shape)


def conserved_parity(seq: PulseSequence) -> str | None:
    """The parity sigma_axis^e (x) prod_n sigma_z^n a period of this pattern
    conserves: "z" for the ideal polarisation bracket (any gaps), "x" when
    every rotation is about +/-x (Q_x commutes with H0 and S_x), else None."""
    pattern = _pulses(seq.events)
    if pattern == _IDEAL_PULSEPOL:
        return "z"
    if all(e.phase % pi == 0.0 for e in pattern if e is not None):
        return "x"
    return None


@lru_cache(maxsize=16)
def parity_sectors(dim: int, count: int = 2) -> np.ndarray:
    """The read-only (count, dim/count) basis states of each sector of a
    dim-state register: even, then odd, popcount (the +1 and -1 eigenspaces
    of prod sigma_z over every qubit), or all states as one sector."""
    states = np.arange(dim)
    odd = np.array([bin(i).count("1") % 2 == 1 for i in states])
    index = np.stack((states[~odd], states[odd])) if count == 2 else states[None]
    index.setflags(write=False)
    return index


def sector_blocks(u: np.ndarray, index: np.ndarray, shift: int, name: str, of: str) -> np.ndarray:
    """The (..., S, h, h) blocks of a (..., n, n) stack that map each sector s
    of ``index`` (one or two sectors) to sector s + shift mod S. Raises
    SectorLeak ("``name`` leaks ... out of its ``of`` sectors") if an entry
    outside them exceeds SECTOR_TOL; a non-finite entry is left to the
    unitarity checks."""
    s = len(index)
    rows, cols = index[(np.arange(s) + shift) % s, :, None], index[:, None]
    leak = np.max(np.abs(u[..., rows[::-1], cols]), initial=0.0) if s == 2 else 0.0
    if leak > SECTOR_TOL:
        raise SectorLeak(f"{name} leaks {leak:.1e} out of its {of} sectors")
    return u[..., rows, cols]


@lru_cache(maxsize=16)
def _finite_step(event: PulseEvent, register: SpinRegister) -> np.ndarray:
    """exp(-i (H0 d + theta S_phi)) of a finite rotation, D x D; read-only."""
    ops = build_operators(register)
    s_phi = cos(event.phase) * ops.electron.x + sin(event.phase) * ops.electron.y
    h0 = static_hamiltonian(register, ops)
    step = hermitian_eigensolve(h0 * event.duration + event.angle * s_phi).propagator(1.0)
    step.setflags(write=False)
    return step


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
    ``n_steps`` uniform steps over one period, which reads only the period
    and harmonic of ``seq``. Raises NotIdealPulses unless ``seq`` is exactly
    ``pulsepol_for_period(seq.period, seq.harmonic)``, the ideal 4 tau
    polarisation bracket with equal gaps.
    """
    if seq != pulsepol_for_period(seq.period, seq.harmonic):
        raise NotIdealPulses(f"{seq.label!r} is not the ideal 4 tau polarisation bracket")

    period = seq.period
    omega = frame_frequency if frame_frequency is not None else 2.0 * pi * seq.harmonic / period
    mf = modulation_functions(period / 4.0)

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
    if not 0 < omega_i < inf:
        raise ValidationError(f"omega_i: must be finite and > 0, got {omega_i}")
    return 2.0 * pi * harmonic / omega_i


SequenceBuilder = Callable[[float], PulseSequence]


# One half period of each protocol as its pulse groups, each pulse an
# (angle, phase) pair; ``_periodic`` puts equal free gaps between the groups.
# The polarisation bracket
# [(pi/2)_Y tau/2 (pi)_-X tau/2 (pi/2)_Y (pi/2)_X tau/2 (pi)_Y tau/2 (pi/2)_X]
# writes each pi as two pi/2 of one phase, so an ideal period has 16
# rotation and 8 free events, and each pi is centred on an odd multiple of
# tau/2 for finite pulses too. The refocusing train is [tau/2, pi_X, tau/2].
_PULSEPOL = (
    ((pi / 2, PHASE_Y),),
    ((pi / 2, PHASE_MINUS_X), (pi / 2, PHASE_MINUS_X)),
    ((pi / 2, PHASE_Y), (pi / 2, PHASE_X)),
    ((pi / 2, PHASE_Y), (pi / 2, PHASE_Y)),
    ((pi / 2, PHASE_X),),
)
_CPMG = ((), ((pi, PHASE_X),), ())

#: tau / T per protocol: the polarisation bracket spans 4 tau, the refocusing train 2 tau.
TAU_PER_PERIOD = {"pulsepol": 0.25, "cpmg": 0.5}


def _periodic(
    table: tuple, period: float, harmonic: int, rabi: float | None, label: str
) -> PulseSequence:
    """One period: the half-period ``table`` twice, with equal free gaps
    between its pulse groups. A pulse lasts 0 with ``rabi`` None (ideal)
    and angle / rabi otherwise. Raises ValidationError for ``rabi`` not None
    and not finite and > 0, and InvalidTau for a period not finite and > 0,
    or too short to fit the pulses.
    """
    if rabi is not None and not 0 < rabi < inf:
        raise ValidationError(f"rabi: must be finite and > 0, got {rabi}")
    if not 0 < period < inf:
        raise InvalidTau(f"period must be finite and > 0, got {period}")
    groups, pulsed = _pulse_groups(table, rabi)
    gap = (period / 2.0 - pulsed) / (len(groups) - 1)
    if gap < 0:
        raise InvalidTau(
            f"period = {period} cannot fit {label} pulses; need period >= {2 * pulsed:.6g}"
        )
    free = _free(gap)
    half = groups[0]
    for group in groups[1:]:
        half += (free, *group)
    return PulseSequence(half + half, period, harmonic, label)


@lru_cache(maxsize=16)
def _pulse_groups(table: tuple, rabi: float | None) -> tuple[tuple, float]:
    """The pulse events of each group of a half-period ``table``, lasting 0
    with ``rabi`` None and angle / rabi otherwise, and their total duration;
    cached, so every period of one protocol shares its pulse events."""
    groups = tuple(
        tuple(_rot(angle, phase, 0.0 if rabi is None else angle / rabi) for angle, phase in group)
        for group in table
    )
    return groups, sum(e.duration for group in groups for e in group)


def pulsepol_for_period(
    period: float, harmonic: int = 3, rabi: float | None = None
) -> PulseSequence:
    """Polarisation period T = 4 tau, with finite pulses at Rabi frequency
    ``rabi`` (rad/us) or ideal ones if None."""
    return _periodic(_PULSEPOL, period, harmonic, rabi, "pulsepol")


def cpmg_for_period(
    period: float, harmonic: int = 1, rabi: float | None = None
) -> PulseSequence:
    """Refocusing period T = 2 tau, with finite pulses at Rabi frequency
    ``rabi`` (rad/us) or ideal ones if None."""
    return _periodic(_CPMG, period, harmonic, rabi, "cpmg")


_IDEAL_PULSEPOL = _pulses(pulsepol_for_period(1.0).events)
