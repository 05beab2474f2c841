"""Protocol period construction and the toggling-frame modulation machinery.

A protocol period is an ordered list of pulse events (rotations about axes
in the electron x-y plane, and free-evolution gaps). Two builders are
provided, both taking the period: the polarisation bracket with T = 4 tau,
and the refocusing train with T = 2 tau. Each is one table of pulse groups
per half period. ``rabi`` None gives ideal (zero-duration) rotations; a
Rabi frequency Omega gives finite ones that evolve the full Hamiltonian
plus drive for theta/Omega.

``period_roots`` builds the root maps of a stack of periods (the half
period when the second half repeats the first) with one kernel on their
d = D / 2 electron-up columns in H0's real eigenframe (``_eigenframe``),
where a free gap is a diagonal phase and a finite pulse a step built there;
the other d columns are their image under the antiunitary spin flip every
event commutes with. The engine's waits, ``free_propagator``, come from the
same frame. ``period_unitary`` squares and checks the roots, and the
Floquet solve their sector blocks.
``conserved_parity`` names the parity a period's event pattern conserves;
``parity_sectors`` lists the basis states of each of its two sectors, and
``sector_blocks`` cuts a map into its blocks between them.

``fourier_coefficients`` gives the closed-form Fourier coefficients of the
modulation functions f1, f2, the piecewise-constant coefficients the
toggled electron S_x and S_y acquire over one 4 tau period; they fix the
effective flip-flop rate at each harmonic.
"""

from __future__ import annotations

import enum
import warnings
from functools import lru_cache
from math import cos, inf, isfinite, pi, sin
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidTau, NotUnitary, SectorLeak, ValidationError, ValidityWarning
from .errors import checked_record
from .linalg import UNITARY_TOL, hermitian_eigensolve, unitarity_defect
from .spins import SpinRegister, require_joint_space, static_hamiltonian_eig

PHASE_X = 0.0
PHASE_Y = pi / 2
PHASE_MINUS_X = pi

DURATION_TOL = 1e-12

#: Largest entry between two parity sectors a map of a conserving pattern may have.
SECTOR_TOL = 1e-12


class EventKind(enum.Enum):
    ROTATION = "rotation"
    FREE_EVOLUTION = "free"


class PulseEvent(checked_record("PulseEvent", "kind angle phase duration")):
    """One element of a protocol period.

    Rotations carry an angle (radians) and a phase phi defining the axis
    S_phi = cos(phi) S_x + sin(phi) S_y; duration is 0 for ideal pulses.
    Free evolution carries only a duration.
    """

    __slots__ = ()

    def __new__(
        cls, kind: EventKind, angle: float | None = None, phase: float | None = None,
        duration: float = 0.0,
    ):
        if not 0 <= duration < inf:
            raise ValidationError(f"duration: must be finite and >= 0, got {duration}")
        if kind is EventKind.ROTATION:
            if angle is None or phase is None:
                raise ValidationError("angle/phase: required for rotation events")
            if not (isfinite(angle) and isfinite(phase)):
                raise ValidationError(f"angle/phase: must be finite, got {angle}, {phase}")
        else:
            if angle is not None or phase is not None:
                raise ValidationError("angle/phase: not allowed on free evolution")
        return super().__new__(cls, kind, angle, phase, duration)


class PulseSequence(checked_record("PulseSequence", "events period harmonic label")):
    """One protocol period: events, total period (us), harmonic index, label."""

    __slots__ = ()

    def __new__(cls, events: tuple[PulseEvent, ...], period: float, harmonic: int, label: str):
        events = tuple(events)
        if not 0 < period < inf:
            raise ValidationError(f"period: must be finite and > 0, got {period}")
        if harmonic < 1:
            raise ValidationError(f"harmonic: must be >= 1, got {harmonic}")
        if not label:
            raise ValidationError("label: must be non-empty")
        total = sum(e.duration for e in events)
        if abs(total - period) > DURATION_TOL * max(1.0, period):
            raise ValidationError(f"events: durations sum to {total!r}, period is {period!r}")
        return super().__new__(cls, events, period, harmonic, label)


def _rot(angle: float, phase: float, duration: float = 0.0) -> PulseEvent:
    return PulseEvent(EventKind.ROTATION, angle=angle, phase=phase, duration=duration)


def _free(duration: float) -> PulseEvent:
    return PulseEvent(EventKind.FREE_EVOLUTION, duration=duration)


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


def _eigenframe(register: SpinRegister, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H0's real eigenframe and its generator over an array of durations:
    the (2, d, d) eigenvectors V_r of H0's electron blocks, d = D/2, V_0 from
    ``static_hamiltonian_eig`` and its flip image V_1 = V_0[::-1]
    (w_1 = -w_0); the (2, d, d) overlaps (V_1^T V_0, V_0^T V_1), which carry
    frame rows from one block to the other; and the angles w_r t, shape
    ``times.shape + (2, d)``, exp(-i w_r t) being a free gap's evolution."""
    w, v0 = static_hamiltonian_eig(register)
    v = np.stack((v0, v0[::-1]))
    overlap = v0.T @ v[1]
    angles = np.stack((w, -w)) * np.asarray(times, dtype=float)[..., None, None]
    return v, np.stack((overlap.T, overlap)), angles


def free_propagator(register: SpinRegister, duration: float) -> np.ndarray:
    """exp(-i H0 t) over one scalar wait t as its two d x d electron blocks,
    shape (2, d, d) with d = D / 2: V_r exp(-i w_r t) V_r^T in the frame of
    ``_eigenframe``."""
    v, _, angles = _eigenframe(register, float(duration))
    return (v * np.exp(-1j * angles)[:, None, :]) @ v.swapaxes(-1, -2)


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
    the gap durations) are multiplied out together by ``_pattern_maps``,
    which builds each root's D/2 electron-up columns and mirrors the other
    D/2 from them; the callers' unitarity checks run on the full map.

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
    u = None if len(groups) == 1 else np.empty((len(stack),) + (register.dim,) * 2, dtype=complex)
    for pattern, members in groups.items():
        _warn_weak_drive(pattern, register)
        maps = _pattern_maps(pattern, [stack[i] for i in members], register)
        if u is None:
            return maps, squared
        u[members] = maps
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
    """The new, writable (P, D, D) maps of the sequences sharing ``pattern``.

    Only the d = D / 2 electron-up columns are multiplied out, in the frame
    of ``_eigenframe``: block row r (rows r d to r d + d - 1) is carried as
    V_r^T times it, all P maps side by side in one (2, d, P, d) array. A
    free gap scales the frame rows of block r by exp(-i w_r t). Consecutive
    ideal rotations merge into one 2x2 rotation m (``_merged_rotations``)
    that mixes the blocks through the overlaps, m_rr u_r + m_rs V_r^T V_s
    u_s, as one real product on the array's float64 view. A finite rotation
    is its ``_finite_step``, built in the frame, times the (D, P d) array.
    The first event acts on the identity's frame rows m_r0 V_r^T, with no
    product. The map returns to the computational basis once, through V_r,
    where the last rotation mixes its block rows. The electron-down columns
    are the mirror image under the spin flip T = (i Y_e (x) X^(x)N) K that
    every event commutes with:
    R[i, d + j] = s_i conj(R[D - 1 - i, d - 1 - j]), s_i = -1 on the
    electron-up rows and +1 on the electron-down ones. Were T broken, the
    rebuilt map would not be unitary and the callers' checks would refuse it.
    """
    p, dim = len(seqs), register.dim
    d = dim // 2
    gaps = np.array(
        [[e.duration for e in seq.events[: len(pattern)] if e.kind is EventKind.FREE_EVOLUTION]
         for seq in seqs]
    )
    v, overlaps, angles = _eigenframe(register, gaps.T)
    gap_phases = iter(np.exp(-1j * np.ascontiguousarray(angles.transpose(0, 2, 3, 1)[..., None])))
    vt = np.ascontiguousarray(v.swapaxes(1, 2))
    steps, last = _merged_rotations(pattern)
    u = None
    for mix, event in steps:
        if u is None:  # the identity's frame rows, m_r0 V_r^T
            first = np.eye(2, dtype=complex)[:, 0] if mix is None else mix[:, 0]
            u = first[:, None, None, None] * vt[:, :, None, :]
        elif mix is not None:
            turned = (overlaps @ u.reshape(2, d, -1).view(float)).view(complex).reshape(u.shape)
            turned *= mix[[1, 0], [0, 1]].reshape(2, 1, 1, 1)
            u *= mix.diagonal().reshape(2, 1, 1, 1)
            u += turned[::-1]
        if event is None:
            u = u * next(gap_phases)
        else:
            u = (_finite_step(event, register) @ u.reshape(dim, -1)).reshape(2, d, -1, d)
    rows = (v @ u.reshape(2, d, -1).view(float)).view(complex)
    if last is not None:
        rows = last @ rows.reshape(2, -1)
    full = np.empty((p, 2, d, 2, d), dtype=complex)
    full[..., 0, :] = rows.reshape(u.shape).transpose(2, 0, 1, 3)
    np.conjugate(full[:, ::-1, ::-1, 0, ::-1], out=full[..., 1, :])
    np.negative(full[:, 0, :, 1], out=full[:, 0, :, 1])
    return full.reshape(p, dim, dim)


@lru_cache(maxsize=16)
def _merged_rotations(pattern: tuple) -> tuple[tuple, np.ndarray | None]:
    """The pattern's steps, each a gap (None) or a finite rotation with the
    read-only 2x2 product of the ideal rotations before it (None for none),
    and the product of those after the last step."""
    steps, mix = [], None
    for event in pattern:
        if event is not None and event.duration == 0.0:
            rotation = _electron_rotation(event.angle, event.phase)
            mix = rotation if mix is None else rotation @ mix
            mix.setflags(write=False)
        else:
            steps.append((mix, event))
            mix = None
    return tuple(steps), mix


def mix_electron_rows(mix: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The electron block rows of a (P, D, m) stack mixed by ``mix``."""
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
    s, n = len(index), u.shape[-1]
    rows, cols = index[(np.arange(s) + shift) % s, :, None] * n, index[:, None]
    u = u.reshape(*u.shape[:-2], n * n)  # entries taken by their row-major flat index
    leak = np.max(np.abs(np.take(u, rows[::-1] + cols, axis=-1)), initial=0.0) if s == 2 else 0.0
    if leak > SECTOR_TOL:
        raise SectorLeak(f"{name} leaks {leak:.1e} out of its {of} sectors")
    return np.take(u, rows + cols, axis=-1)


@lru_cache(maxsize=16)
def _finite_step(event: PulseEvent, register: SpinRegister) -> np.ndarray:
    """exp(-i (H0 d + theta S_phi)) of a finite rotation in the frame of
    ``_eigenframe``, D x D with block r's rows and columns carried by V_r;
    read-only. There the generator is diag(w_r d) on the blocks and, off
    them, theta S_phi's (theta/2) e^{-i phi} V_0^T V_1 and its adjoint."""
    _, overlaps, angles = _eigenframe(register, event.duration)
    drive = overlaps[1] * (event.angle / 2.0 * (cos(event.phase) - 1j * sin(event.phase)))
    g = np.block([[np.diag(angles[0]), drive], [drive.conj().T, np.diag(angles[1])]])
    step = hermitian_eigensolve(g).propagator(1.0)
    step.setflags(write=False)
    return step


class FourierCoefficients(NamedTuple):
    """cos/sin coefficients of f1 and f2 on the basis cos/sin(k pi t / 2 tau)."""

    a1: float
    b1: float
    a2: float
    b2: float


def fourier_coefficients(k: int) -> FourierCoefficients:
    """Closed-form coefficients of f1 and f2 at harmonic k (zero for even k).

    f1 and f2 are piecewise constant in {-1, 0, +1} with period T = 4 tau,
    have disjoint supports and are anti-periodic over half a period, so only
    odd harmonics survive. a1/b1 integrate f1's half-tau windows
    (+1, -1, 0, 0, -1, +1, 0, 0) directly; f2 is f1 delayed by tau, which
    works out to a2 = a1, b2 = -b1 at every odd harmonic.
    """
    if k < 1:
        raise ValidationError(f"harmonic: must be >= 1, got {k}")
    if k % 2 == 0:
        return FourierCoefficients(0.0, 0.0, 0.0, 0.0)
    a1 = (4.0 * sin(k * pi / 4.0) - 2.0 * sin(k * pi / 2.0)) / (k * pi)
    b1 = (2.0 - 4.0 * cos(k * pi / 4.0)) / (k * pi)
    return FourierCoefficients(a1, b1, a1, -b1)


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
