"""Joint-space reference engine: the oracle for the nuclear-space Kraus loop.

Every repetition conjugates the full electron-nuclei density matrix with the
burst propagator, traces the electron out, lets the nuclei precess through
the wait and re-tensors the reset electron back on, one grid point at a
time. It is slow and simple on purpose; the package engine must reproduce
it to 1e-10.
"""

from __future__ import annotations

import numpy as np

from dnpsim import DensityState, initial_state, period_unitary
from dnpsim.linalg import kron, partial_trace


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
        DensityState(rho=rho, register=register).validate()
        for i, z in enumerate(z_ops):
            history[rep, i] = float(np.real(np.trace(rho_nuc @ z)))
    return DensityState(rho=rho, register=register), history
