"""Density-matrix engine for repeated protocol bursts with electron reset.

One repetition applies n_periods protocol periods coherently, discards the
electron (optical reinitialisation), lets the nuclei precess for a wait
interval with the electron held in its reset state r and re-tensors that
electron state back on. The wait propagator is the [r, r] block of
exp(-i H0 t), which is block-diagonal in the electron basis; it comes from
the same cached H0 eigensystem as the free gaps of a period. Nuclear
polarisations are recorded once per repetition at the end of that cycle.

Because the electron always enters a burst in its reset state r, a
repetition acts on the nuclear state alone as the two-operator Kraus map

    rho_n -> sum_a K_a rho_n K_a^dag,   K_a = u_wait U_burst[a, r],

where U_burst[a, r] is the nuclear block of the burst propagator taking
electron state r to a (operator-sum form, Nielsen & Chuang ch. 8). The
loop carries only the 2^N-dim nuclear state, batched over a stack of
independent runs; the joint electron-nuclei ``DensityState`` is built at
the API boundary. The pair is checked once per run for completeness,
sum_a K_a^dag K_a = I to 1e-10, and every repetition's nuclear state for
finite entries, hermiticity, unit trace and positivity to 1e-9, which is
the same check as on the joint state |r><r| (x) rho_n: its spectrum is
that of rho_n plus zeros, and its hermiticity defect and trace are those
of rho_n. Positivity is certified by a Cholesky factorisation of the
state shifted by half the tolerance, at a fraction of the cost of an
eigensolve; only a state that fails it gets ``eigvalsh``, which decides.

A sweep runs the same burst pattern at many periods from a fresh thermal
state each time, all grid points in one batched loop; a schedule chains
stages at different periods on one evolving state. Both are written as
CSV through ``dnpsim.table.write_csv``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import (
    ConvergenceCap,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    ValidationError,
)
from .linalg import kron, unitarity_defect
from .protocols import PulseSequence, SequenceBuilder, free_propagator, period_unitary
from .spins import SpinRegister, require_joint_space
from .table import fmt, write_csv

STATE_TOL = 1e-9

#: Bound on max |sum_a K_a^dag K_a - I| for a burst's Kraus pair.
KRAUS_TOL = 1e-10

#: Bytes a sweep may hold in Kraus stacks, states and their products at
#: once; the grid is run in chunks of as many points as fit.
_CHUNK_BYTES = 4 * 2**20


def _check_states(rho: np.ndarray) -> None:
    """Check a stack of density matrices for finite entries, hermiticity,
    unit trace and positivity to 1e-9; the first condition violated
    anywhere is raised.

    Positivity is certified by a Cholesky factorisation of every
    rho + (STATE_TOL/2) I. A finite factor bounds the minimum eigenvalue
    below by -STATE_TOL/2 less the factorisation's backward error, about
    d * 1e-16 (Higham, Accuracy and Stability, Thm 10.3), so the
    eigenvalue test would pass too. When the factorisation fails,
    ``eigvalsh`` decides and names the minimum eigenvalue. Both read only
    the lower triangle.
    """
    if not np.isfinite(rho).all():
        raise NoConvergence("density matrix is not finite")
    herm = float(np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))))
    if herm > STATE_TOL:
        raise NotHermitian(f"density matrix hermiticity defect {herm:.3e}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    worst = int(np.argmax(np.abs(tr - 1.0)))
    if abs(tr[worst] - 1.0) > STATE_TOL:
        raise NoConvergence(f"density matrix trace drifted to {fmt(tr[worst])}")
    try:
        factor = np.linalg.cholesky(rho + STATE_TOL / 2 * np.eye(rho.shape[-1]))
        if np.isfinite(factor).all():
            return
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.min(np.linalg.eigvalsh(rho)[..., 0]))
    if min_eig < -STATE_TOL:
        raise NoConvergence(f"density matrix lost positivity: min eigenvalue {min_eig:.3e}")


@dataclass(frozen=True)
class DensityState:
    """A density matrix over the electron-nuclei space of a register,
    held as a read-only copy."""

    rho: np.ndarray
    register: SpinRegister

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=complex)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        dim = self.register.dim
        if rho.shape != (dim, dim):
            raise ValidationError(
                f"rho: expected shape {(dim, dim)} for this register, got {rho.shape}"
            )

    def validate(self) -> None:
        """Check hermiticity, unit trace and positivity to 1e-9."""
        _check_states(self.rho[None])


@dataclass(frozen=True)
class ProtocolRun:
    """Burst pattern of one repetition loop.

    reinit_state selects which electron basis state the reset prepares:
    0 for the upper branch (m_s = +1/2 here), 1 for the lower.
    """

    sequence: PulseSequence
    n_periods: int
    repetitions: int
    wait_us: float = 0.0
    reinit_state: int = 0

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ValidationError(f"n_periods: must be >= 1, got {self.n_periods}")
        if self.repetitions < 1:
            raise ValidationError(f"repetitions: must be >= 1, got {self.repetitions}")
        if not 0 <= self.wait_us < inf:
            raise ValidationError(f"wait_us: must be finite and >= 0, got {self.wait_us}")
        if self.reinit_state not in (0, 1):
            raise ValidationError(f"reinit_state: must be 0 or 1, got {self.reinit_state}")


def initial_state(register: SpinRegister, reinit_state: int = 0) -> DensityState:
    """Electron in the reset state, nuclei maximally mixed (room temperature)."""
    if reinit_state not in (0, 1):
        raise ValidationError(f"reinit_state: must be 0 or 1, got {reinit_state}")
    require_joint_space(register)
    n_dim = register.dim // 2
    rho = _reset_product(np.eye(n_dim, dtype=complex) / n_dim, reinit_state)
    return DensityState(rho=rho, register=register)


def _reset_product(rho_n: np.ndarray, reinit_state: int) -> np.ndarray:
    """The joint density matrix |r><r| (x) rho_n."""
    electron = np.zeros((2, 2), dtype=complex)
    electron[reinit_state, reinit_state] = 1.0
    return kron(electron, rho_n)


def _wait_unitary(run: ProtocolRun, register: SpinRegister) -> np.ndarray | None:
    """Nuclear propagator of the wait interval, the reset-state block of
    exp(-i H0 t), or None when there is no wait."""
    if run.wait_us > 0:
        d, r = register.dim // 2, run.reinit_state
        return free_propagator(register, run.wait_us).reshape(2, d, 2, d)[r, :, r, :]
    return None


def _burst_unitary(run: ProtocolRun, register: SpinRegister) -> np.ndarray:
    return np.linalg.matrix_power(period_unitary(run.sequence, register), run.n_periods)


def _kraus_pair(
    u_burst: np.ndarray, reinit_state: int, u_wait: np.ndarray | None
) -> np.ndarray:
    """The pair (K_0, K_1) as a (2, d, d) array owning its memory."""
    d = u_burst.shape[0] // 2
    blocks = u_burst.reshape(2, d, 2, d)[:, :, reinit_state, :]
    return blocks.copy() if u_wait is None else u_wait @ blocks


def _check_completeness(kraus: np.ndarray) -> None:
    """Raise NotUnitary unless sum_a K_a^dag K_a = I to 1e-10 for every
    pair in a (P, 2, d, d) stack; a pair with a non-finite entry fails.
    The pair stacked as [K_0; K_1] is a 2d x d isometry exactly then."""
    p, _, d, _ = kraus.shape
    dev = unitarity_defect(kraus.reshape(p, 2 * d, d))
    if dev > KRAUS_TOL:
        raise NotUnitary(f"Kraus pair is incomplete: max |sum K^dag K - I| = {dev:.3e}")


def _polarisations(rho: np.ndarray) -> np.ndarray:
    """<I_z> of every nucleus for a (..., d, d) stack of nuclear states.

    I_z of nucleus i is diagonal: +1/2 where bit i of the basis index,
    counted from the most significant of n bits, is 0, and -1/2 where it is 1.
    """
    d = rho.shape[-1]
    n = d.bit_length() - 1
    bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.real(np.diagonal(rho, axis1=-2, axis2=-1)) @ (0.5 - bits)


def _repeat(
    kraus: np.ndarray,
    rho: np.ndarray,
    repetitions: int,
    history: np.ndarray | None = None,
) -> np.ndarray:
    """Apply each run's Kraus map ``repetitions`` times to its nuclear state.

    ``kraus`` is a (P, 2, d, d) stack of pairs and ``rho`` a (P, d, d) stack
    of states; every state is checked and the final ones are returned. With
    ``history`` given, a (P, repetitions, n) array, the polarisations after
    every repetition are written into it.
    """
    p, _, d, _ = kraus.shape
    # sum_a K_a (rho K_a^dag) as one product: the row block [K_0 K_1] times
    # the column block [rho K_0^dag; rho K_1^dag].
    k_row = kraus.transpose(0, 2, 1, 3).reshape(p, d, 2 * d)
    k_dag = np.ascontiguousarray(kraus.conj().swapaxes(-1, -2))
    for rep in range(repetitions):
        rho = k_row @ (rho[:, None] @ k_dag).reshape(p, 2 * d, d)
        _check_states(rho)
        if history is not None:
            history[:, rep] = _polarisations(rho)
    return rho


def run_protocol(
    run: ProtocolRun,
    register: SpinRegister,
    state: DensityState | None = None,
) -> tuple[DensityState, np.ndarray]:
    """Execute the repetition loop; return the final state and the history.

    The history has shape (repetitions, n_nuclei): <I_z> of every nucleus
    at the end of each repetition, after the wait and electron reset. The
    first repetition is one joint-space step, which takes any start state;
    the others run on the nuclear state alone.
    """
    if state is None:
        state = initial_state(register, run.reinit_state)
    elif state.register != register:
        raise ValidationError("state was built for a different register")

    u_burst = _burst_unitary(run, register)
    u_wait = _wait_unitary(run, register)
    kraus = _kraus_pair(u_burst, run.reinit_state, u_wait)[None]
    _check_completeness(kraus)

    history = np.empty((1, run.repetitions, len(register.nuclei)))
    d = u_burst.shape[0] // 2
    joint = u_burst @ state.rho @ u_burst.conj().T
    rho = joint[:d, :d] + joint[d:, d:]
    if u_wait is not None:
        rho = u_wait @ rho @ u_wait.conj().T
    _check_states(rho[None])
    history[0, 0] = _polarisations(rho)
    rho = _repeat(kraus, rho[None], run.repetitions - 1, history[:, 1:])
    final = DensityState(rho=_reset_product(rho[0], run.reinit_state), register=register)
    return final, history[0]


@dataclass(frozen=True)
class PolarisationTrace:
    """Final per-spin polarisations across a sweep of protocol periods,
    held as read-only copies."""

    periods: np.ndarray
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        periods = np.array(self.periods, dtype=float)
        values = np.array(self.values, dtype=float)
        periods.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        if values.shape != (periods.size, len(self.labels)):
            raise ValidationError(
                f"values: expected shape {(periods.size, len(self.labels))}, got {values.shape}"
            )
        if values.size and (values.min() < -0.5 - STATE_TOL or values.max() > 0.5 + STATE_TOL):
            raise ValidationError("values: spin-1/2 polarisations must lie in [-1/2, 1/2]")

    @property
    def total(self) -> np.ndarray:
        return self.values.sum(axis=1)


def sweep_trace(
    builder: SequenceBuilder,
    register: SpinRegister,
    periods: np.ndarray,
    n_periods: int,
    repetitions: int,
    wait_us: float = 0.0,
    reinit_state: int = 0,
    workers: int = 1,
) -> PolarisationTrace:
    """Run the repetition loop from a fresh thermal state at every period.

    ``builder`` maps each grid value to a PulseSequence; the trace axis
    records the period of the sequence actually built. All points run in
    one batched repetition loop in this process, in chunks that fit
    ``_CHUNK_BYTES``; ``workers`` is validated but does not change the
    work or the result.
    """
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 1 or periods.size == 0:
        raise ValidationError("periods: need a non-empty 1-d grid")
    if workers < 1:
        raise ValidationError(f"workers: must be >= 1, got {workers}")
    runs = [
        ProtocolRun(
            sequence=builder(float(t)),
            n_periods=n_periods,
            repetitions=repetitions,
            wait_us=wait_us,
            reinit_state=reinit_state,
        )
        for t in periods
    ]
    d = register.dim // 2
    u_wait = _wait_unitary(runs[0], register)
    # Per point: the pair, its row-block and adjoint copies (two d x d
    # complex matrices each), the state, the intermediate product (two) and
    # the next state: ten matrices of 16 d^2 bytes.
    chunk = max(1, _CHUNK_BYTES // (10 * 16 * d * d))
    values = []
    for start in range(0, len(runs), chunk):
        kraus = np.stack(
            [
                _kraus_pair(_burst_unitary(run, register), reinit_state, u_wait)
                for run in runs[start : start + chunk]
            ]
        )
        _check_completeness(kraus)
        rho = np.broadcast_to(np.eye(d, dtype=complex) / d, kraus.shape[:1] + (d, d))
        values.append(_polarisations(_repeat(kraus, rho, repetitions)))
    axis = np.array([run.sequence.period for run in runs])
    labels = tuple(s.label for s in register.nuclei)
    return PolarisationTrace(periods=axis, labels=labels, values=np.vstack(values))


@dataclass(frozen=True)
class ScheduleStage:
    """One leg of a staged protocol: a period, how many repetitions, and an
    optional override of the burst length."""

    period: float
    repetitions: int
    n_periods: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.period < inf:
            raise ValidationError(f"period: must be finite and > 0, got {self.period}")
        if self.repetitions < 1:
            raise ValidationError(f"repetitions: must be >= 1, got {self.repetitions}")
        if self.n_periods is not None and self.n_periods < 1:
            raise ValidationError(f"n_periods: must be >= 1, got {self.n_periods}")


@dataclass(frozen=True)
class ScheduleResult:
    """Per-repetition record of a staged run on one evolving state."""

    times: np.ndarray
    stage_index: np.ndarray
    periods: np.ndarray
    labels: tuple[str, ...]
    values: np.ndarray
    final_state: DensityState

    @property
    def total(self) -> np.ndarray:
        return self.values.sum(axis=1)


def run_schedule(
    builder: SequenceBuilder,
    register: SpinRegister,
    stages: tuple[ScheduleStage, ...],
    n_periods: int,
    wait_us: float = 0.0,
    reinit_state: int = 0,
) -> ScheduleResult:
    """Chain stages at different periods, carrying the nuclear state over.

    The recorded time axis accumulates repetitions * (burst + wait) wall
    time per stage; polarisations are logged once per repetition as in
    run_protocol.
    """
    if not stages:
        raise ValidationError("stages: need at least one stage")
    state = initial_state(register, reinit_state)
    rows = []
    times = []
    stage_idx = []
    stage_periods = []
    t_now = 0.0
    for idx, stage in enumerate(stages):
        n_p = stage.n_periods if stage.n_periods is not None else n_periods
        seq = builder(stage.period)
        run = ProtocolRun(
            sequence=seq,
            n_periods=n_p,
            repetitions=stage.repetitions,
            wait_us=wait_us,
            reinit_state=reinit_state,
        )
        state, history = run_protocol(run, register, state)
        rep_time = n_p * seq.period + wait_us
        for r in range(stage.repetitions):
            t_now += rep_time
            times.append(t_now)
            stage_idx.append(idx)
            stage_periods.append(seq.period)
        rows.append(history)
    return ScheduleResult(
        times=np.array(times),
        stage_index=np.array(stage_idx, dtype=int),
        periods=np.array(stage_periods),
        labels=tuple(s.label for s in register.nuclei),
        values=np.vstack(rows),
        final_state=state,
    )


#: Consecutive repetitions whose change must stay below tolerance before the
#: envelope is declared converged.
_ENVELOPE_WINDOW = 10


def asymptotic_envelope(
    run: ProtocolRun,
    register: SpinRegister,
    tol: float = 1e-8,
    max_repetitions: int = 100_000,
) -> tuple[float, int, bool]:
    """Drive the repetition loop until the summed polarisation stalls.

    Returns (summed polarisation, repetitions used, converged). The Kraus
    pair is built once; the loop runs from the thermal state in blocks of
    the run's own repetition count. If the cap is hit first a warning is
    emitted and converged is False.
    """
    if tol <= 0:
        raise ValidationError(f"tol: must be > 0, got {tol}")
    if max_repetitions < 1:
        raise ValidationError(f"max_repetitions: must be >= 1, got {max_repetitions}")
    u_burst = _burst_unitary(run, register)
    kraus = _kraus_pair(u_burst, run.reinit_state, _wait_unitary(run, register))[None]
    _check_completeness(kraus)
    d = u_burst.shape[0] // 2
    rho = np.eye(d, dtype=complex)[None] / d
    block = min(run.repetitions, max_repetitions)
    history = np.empty((1, block, len(register.nuclei)))
    total_prev = None
    below = 0
    done = 0
    while done < max_repetitions:
        reps = min(block, max_repetitions - done)
        rho = _repeat(kraus, rho, reps, history[:, :reps])
        for value in history[0, :reps].sum(axis=1):
            if total_prev is not None and abs(value - total_prev) < tol:
                below += 1
            else:
                below = 0
            total_prev = value
            done += 1
            if below >= _ENVELOPE_WINDOW:
                return float(value), done, True
    warnings.warn(
        f"asymptotic envelope not settled after {max_repetitions} repetitions",
        ConvergenceCap,
        stacklevel=2,
    )
    return float(total_prev), done, False


def write_trace_csv(trace: PolarisationTrace, path: str) -> None:
    """Write a sweep as CSV: tau_us, period_us, one column per spin, total."""
    write_csv(
        path,
        ["tau_us", "period_us", *trace.labels, "total"],
        ([t / 4.0, t, *v, v.sum()] for t, v in zip(trace.periods, trace.values)),
    )


def write_schedule_csv(result: ScheduleResult, path: str) -> None:
    """Write a staged run as CSV: time_us, stage, period_us, spins, total."""
    write_csv(
        path,
        ["time_us", "stage", "period_us", *result.labels, "total"],
        (
            [t, int(i), p, *v, v.sum()]
            for t, i, p, v in zip(result.times, result.stage_index, result.periods, result.values)
        ),
    )
