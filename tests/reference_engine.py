"""Joint-space reference engine: the oracle for the nuclear-space Kraus loop.

Every repetition conjugates the full electron-nuclei density matrix with the
burst propagator, traces the electron out, lets the nuclei precess through
the wait and re-tensors the reset electron back on, one grid point at a
time. It is slow and simple on purpose; the package engine must reproduce
it to 1e-10. ``dense_period_unitary`` is the matching oracle for the
period map: one dense D x D product per event, with its free evolution
taken from its own eigensolve of H0 and its finite pulses from scipy's
``expm``. H0 itself is the dense operator sum ``static_hamiltonian``, which
the closed-form eigensystem of ``spins.static_hamiltonian_eig`` must
rebuild. ``average_hamiltonian_numeric`` integrates the first-order average
Hamiltonian of the ideal bracket from the window tables of the modulation
functions ``f1`` and ``f2``, against which ``protocols.fourier_coefficients``
and the closed forms of ``analytic`` are checked; it raises the oracle's own
``NotIdealPulses`` for anything but the ideal bracket.
"""

from __future__ import annotations

from math import cos, pi, sin

import numpy as np
import scipy.linalg

from dnpsim import DensityState, EventKind, build_operators, initial_state, period_unitary
from dnpsim import precession_frequency, pulsepol_for_period
from dnpsim.engine import STATE_TOL
from dnpsim.errors import DimensionMismatch


class NotIdealPulses(ValueError):
    """``average_hamiltonian_numeric`` was given anything but the ideal
    bracket; an oracle error, outside the package's error families."""


# Half-tau window values of the toggled S_x (f1) and S_y (f2) coefficients
# over [0, 4 tau). f2 is f1 delayed by tau: the second half of each bracket
# repeats the first half's envelope with the X and Y roles exchanged.
_F1_WINDOWS = (1.0, -1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0)
_F2_WINDOWS = (0.0, 0.0, 1.0, -1.0, 0.0, 0.0, -1.0, 1.0)


def _windowed(t, tau: float, table) -> np.ndarray:
    idx = np.floor(np.mod(np.asarray(t, dtype=float), 4.0 * tau) / (tau / 2.0)).astype(int)
    return np.asarray(table)[np.clip(idx, 0, 7)]


def f1(t, tau: float) -> np.ndarray:
    """The toggled S_x coefficient at times t of a 4 tau period, in {-1, 0, +1}."""
    return _windowed(t, tau, _F1_WINDOWS)


def f2(t, tau: float) -> np.ndarray:
    """The toggled S_y coefficient at times t of a 4 tau period, in {-1, 0, +1}."""
    return _windowed(t, tau, _F2_WINDOWS)


def static_hamiltonian(register) -> np.ndarray:
    """Rotating-frame static Hamiltonian, as a dense D x D operator sum:

    H0 = sum_n (omega_L - A_par_n / 2) Iz_n + Sz sum_n A_perp_n Ix_n.

    The parallel coupling dresses the nuclear Zeeman term so that every
    nucleus precesses at its resonant frequency omega_I in both electron
    branches; only the transverse coupling is conditioned on the electron.
    """
    ops = build_operators(register)
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    sz = ops.electron.z
    for spin, site in zip(register.nuclei, ops.nuclei):
        h += (register.larmor - spin.a_parallel / 2.0) * site.z
        h += spin.a_perp * (sz @ site.x)
    h.setflags(write=False)
    return h


def average_hamiltonian_numeric(seq, register, frame_frequency: float | None = None) -> np.ndarray:
    """First-order average Hamiltonian of the ideal polarisation period.

    The integrand per nucleus, in the pulse toggling frame and a nuclear
    interaction frame rotating at ``frame_frequency`` w, is

        (f1(t) Sx + f2(t) Sy) (x) [A_par Iz + A_perp (cos(wt) Ix - sin(wt) Iy)]
        + (omega_I - w) Iz

    where omega_I is the nucleus's dressed precession frequency, so the
    leftover Iz coefficient is the detuning from the chosen frame. The
    default frame is the protocol frequency 2 pi k / T, which coincides
    with omega_I exactly on resonance. Integration is a midpoint rule with
    10 000 uniform steps over one period, which reads only the period
    and harmonic of ``seq``. Raises NotIdealPulses unless ``seq`` is exactly
    ``pulsepol_for_period(seq.period, seq.harmonic)``, the ideal 4 tau
    polarisation bracket with equal gaps.
    """
    if seq != pulsepol_for_period(seq.period, seq.harmonic):
        raise NotIdealPulses(f"{seq.label!r} is not the ideal 4 tau polarisation bracket")

    period = seq.period
    omega = frame_frequency if frame_frequency is not None else 2.0 * pi * seq.harmonic / period

    t = (np.arange(10_000) + 0.5) * (period / 10_000)
    g1, g2 = f1(t, period / 4.0), f2(t, period / 4.0)
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    m10, m20 = float(g1.mean()), float(g2.mean())
    m1c, m1s = float((g1 * c).mean()), float((g1 * s).mean())
    m2c, m2s = float((g2 * c).mean()), float((g2 * s).mean())

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


def partial_trace(rho, subsystem_dims, traced_index: int) -> np.ndarray:
    """Trace one tensor factor (slow index first, 0-based) out of rho.

    Raises DimensionMismatch if the dims do not multiply to the matrix
    size or the index is out of range.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in subsystem_dims)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"rho must be a square matrix, got shape {rho.shape}")
    if any(d <= 0 for d in dims) or int(np.prod(dims)) != rho.shape[0]:
        raise DimensionMismatch(f"dims {dims} do not match matrix dim {rho.shape[0]}")
    if not 0 <= traced_index < len(dims):
        raise DimensionMismatch(
            f"traced_index {traced_index} out of range for {len(dims)} subsystems"
        )
    n = len(dims)
    out = np.trace(rho.reshape(dims + dims), axis1=traced_index, axis2=n + traced_index)
    keep = int(np.prod([d for i, d in enumerate(dims) if i != traced_index]))
    return out.reshape(keep, keep)


def dense_period_unitary(seq, register) -> np.ndarray:
    """Ordered product of dense D x D event propagators over one period,
    ideal or finite: exp(-i H0 d) from its own eigensolve of H0 for a gap,
    exp(-i theta S_phi) (x) 1 for an ideal rotation and
    ``scipy.linalg.expm(-i (H0 d + theta S_phi))`` for a finite one."""
    dim = 2 ** (1 + len(register.nuclei))
    h0 = static_hamiltonian(register)
    w0, v0 = np.linalg.eigh(h0)
    half_x = np.array([[0.0, 0.5], [0.5, 0.0]])
    half_y = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    u = np.eye(dim, dtype=complex)
    steps = {}
    for event in seq.events:
        if event in steps:
            step = steps[event]
        elif event.kind is EventKind.FREE_EVOLUTION:
            step = (v0 * np.exp(-1j * w0 * event.duration)) @ v0.conj().T
        elif event.duration == 0.0:
            c, s = cos(event.angle / 2.0), sin(event.angle / 2.0)
            phi = event.phase
            u2 = np.array(
                [[c, -1j * s * np.exp(-1j * phi)], [-1j * s * np.exp(1j * phi), c]]
            )
            step = np.kron(u2, np.eye(dim // 2))
        else:
            s_phi = np.kron(
                cos(event.phase) * half_x + sin(event.phase) * half_y, np.eye(dim // 2)
            )
            step = scipy.linalg.expm(-1j * (h0 * event.duration + event.angle * s_phi))
        steps[event] = step
        u = step @ u
    return u


def _nuclear_embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2, dtype=complex))
    return out


def wait_unitary(register, reinit_state: int, wait_us: float) -> np.ndarray:
    """exp(-i H_n t) with the electron parked in its reset state."""
    n = len(register.nuclei)
    s = 0.5 if reinit_state == 0 else -0.5
    iz2 = np.diag([0.5, -0.5]).astype(complex)
    ix2 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i, spin in enumerate(register.nuclei):
        h += (register.larmor - spin.a_parallel / 2.0) * _nuclear_embed(iz2, i, n)
        h += s * spin.a_perp * _nuclear_embed(ix2, i, n)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * wait_us)) @ v.conj().T


def check_state(rho: np.ndarray) -> None:
    """The oracle's own state check, kept apart from the engine's: finite,
    Hermitian, unit trace and ``eigvalsh`` minimum at least -STATE_TOL."""
    if not np.isfinite(rho).all():
        raise AssertionError("reference state is not finite")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > STATE_TOL:
        raise AssertionError(f"reference state hermiticity defect {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > STATE_TOL:
        raise AssertionError(f"reference state trace drifted to {tr:.12g}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -STATE_TOL:
        raise AssertionError(f"reference state lost positivity: min eigenvalue {min_eig:.3e}")


def run_protocol(run, register, state=None):
    """(final DensityState, history) exactly as the engine's contract defines them."""
    if state is None:
        state = initial_state(register, run.reinit_state)
    n = len(register.nuclei)
    u_burst = np.linalg.matrix_power(period_unitary(run.sequence, register), run.n_periods)
    electron = np.zeros((2, 2), dtype=complex)
    electron[run.reinit_state, run.reinit_state] = 1.0
    iz2 = np.diag([0.5, -0.5]).astype(complex)
    z_ops = [_nuclear_embed(iz2, i, n) for i in range(n)]
    u_wait = (
        wait_unitary(register, run.reinit_state, run.wait_us)
        if run.wait_us > 0 and n
        else None
    )
    rho = state.rho
    history = np.empty((run.repetitions, n))
    for rep in range(run.repetitions):
        rho = u_burst @ rho @ u_burst.conj().T
        rho_nuc = partial_trace(rho, (2,) * (n + 1), 0)
        if u_wait is not None:
            rho_nuc = u_wait @ rho_nuc @ u_wait.conj().T
        rho = np.kron(electron, rho_nuc)
        check_state(rho)
        for i, z in enumerate(z_ops):
            history[rep, i] = float(np.real(np.trace(rho_nuc @ z)))
    return DensityState(rho=rho, register=register), history
