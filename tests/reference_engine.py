"""Joint-space reference engine: the oracle for the nuclear-space Kraus loop.

Every repetition conjugates the full electron-nuclei density matrix with the
burst propagator, traces the electron out, lets the nuclei precess through
the wait and re-tensors the reset electron back on, one grid point at a
time. It is slow and simple on purpose; the package engine must reproduce
it to 1e-10. ``dense_period_unitary`` is the matching oracle for the
period map: one dense D x D product per event, with its free evolution
taken from its own eigensolve of H0.
"""

from __future__ import annotations

from math import cos, sin

import numpy as np

from dnpsim import DensityState, EventKind, initial_state, period_unitary
from dnpsim.engine import STATE_TOL
from dnpsim.errors import DimensionMismatch, NotIdealPulses
from dnpsim.linalg import kron
from dnpsim.spins import static_hamiltonian


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
    """Ordered product of dense D x D event propagators over one ideal period."""
    dim = 2 ** (1 + len(register.nuclei))
    w0, v0 = np.linalg.eigh(static_hamiltonian(register))
    u = np.eye(dim, dtype=complex)
    for event in seq.events:
        if event.kind is EventKind.FREE_EVOLUTION:
            step = (v0 * np.exp(-1j * w0 * event.duration)) @ v0.conj().T
        elif event.duration == 0.0:
            c, s = cos(event.angle / 2.0), sin(event.angle / 2.0)
            phi = event.phase
            u2 = np.array(
                [[c, -1j * s * np.exp(-1j * phi)], [-1j * s * np.exp(1j * phi), c]]
            )
            step = kron(u2, np.eye(dim // 2))
        else:
            raise NotIdealPulses("the dense oracle covers ideal pulses only")
        u = step @ u
    return u


def _nuclear_embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = kron(out, op if k == site else np.eye(2, dtype=complex))
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
        rho = kron(electron, rho_nuc)
        check_state(rho)
        for i, z in enumerate(z_ops):
            history[rep, i] = float(np.real(np.trace(rho_nuc @ z)))
    return DensityState(rho=rho, register=register), history
