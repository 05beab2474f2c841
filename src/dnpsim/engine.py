"""Density-matrix engine for repeated protocol bursts with electron reset.

One repetition applies n_periods protocol periods coherently, discards the
electron (optical reinitialisation), lets the nuclei precess for a wait
with the electron held in its reset state r (block r of
``protocols.free_propagator``) and re-tensors that electron state back on;
nuclear polarisations are recorded at the end of each repetition. As the
electron always enters a burst in state r, a repetition acts on the
nuclear state alone as the two-operator Kraus map

    rho_n -> sum_a K_a rho_n K_a^dag,   K_a = u_wait U_burst[a, r],

U_burst[a, r] being the nuclear block of the burst propagator taking
electron state r to a (operator-sum form, Nielsen & Chuang ch. 8). The loop
carries only nuclear states, batched over independent runs; the joint
``DensityState`` is built at the API boundary, and ``run_protocol`` takes
its first repetition as one joint-space step, so it accepts any start
state. Every pair comes from ``_kraus_stack`` and is checked once for
completeness (sum_a K_a^dag K_a = I to 1e-10); every state passes
``_check_states``, whose verdict is that on |r><r| (x) rho_n.

When every burst conserves Q_z (``protocols.conserved_parity``: ideal
PulsePol) and no wait follows it, K_r keeps each nuclear parity sector and
K_{1-r} swaps the two, so a thermal start stays block-diagonal: sweeps,
schedules and ``asymptotic_envelope`` then carry states as their two d/2
parity blocks, at a quarter of the flops, and a pair with an entry above
1e-12 outside its blocks raises SectorLeak. Otherwise, and in
``run_protocol``, whose start state may hold parity coherences, the whole
space is one sector.

Schedules, ``run_protocol`` and ``asymptotic_envelope`` check the state
after every repetition; a schedule chains stages at different periods on
one evolving state. A sweep runs every grid point from a thermal state in
batched chunks and keeps only final states: where ``_powered`` finds it
cheaper (at 1000 repetitions, d <= 16 on parity blocks and d <= 8 on one
sector) it applies S^R, S = sum_a K_a (x) conj(K_a) on the d^2/S entries of
the blocks, by repeated squaring, checking the state after each set bit of
R; other sweeps loop. Sweeps and schedules are written as CSV through
``dnpsim.table.write_csv``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import ConvergenceCap, NoConvergence, NotHermitian, NotUnitary, ValidationError
from .linalg import chunk_points, unitarity_defect
from .protocols import PulseSequence, SequenceBuilder, conserved_parity, free_propagator
from .protocols import parity_sectors, period_unitary, sector_blocks
from .spins import SpinRegister, require_joint_space
from .table import fmt, write_csv

STATE_TOL = 1e-9

#: Bound on max |sum_a K_a^dag K_a - I| for a burst's Kraus pair.
KRAUS_TOL = 1e-10


def _check_states(rho: np.ndarray) -> None:
    """Check a (P, d, d) stack of density matrices, or the (P, S, h, h)
    sector blocks of block-diagonal ones, for finite entries, hermiticity,
    unit trace (summed over the blocks) and positivity to 1e-9; the first
    condition violated anywhere is raised.

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
    tr = np.trace(rho, axis1=-2, axis2=-1).reshape(len(rho), -1).sum(axis=1)
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
    rho = _reset_product(_thermal(register.dim // 2, 1)[0], reinit_state)
    return DensityState(rho=rho, register=register)


def _thermal(d: int, p: int, sectors: int = 1) -> np.ndarray:
    """The read-only (p, S, d/S, d/S) sector blocks of maximally mixed states."""
    h = d // sectors
    return np.broadcast_to(np.eye(h, dtype=complex) / d, (p, sectors, h, h))


def _sectors(seqs, wait_us: float, d: int) -> int:
    """How many sectors the Kraus channel of these bursts keeps apart: the
    two nuclear parity sectors when every burst conserves Q_z and no wait
    follows it (K_r is then parity-even and K_{1-r} parity-odd), else one."""
    return 2 if d > 1 and wait_us == 0 and all(conserved_parity(q) == "z" for q in seqs) else 1


def _reset_product(blocks: np.ndarray, reinit_state: int) -> np.ndarray:
    """The joint density matrix |r><r| (x) rho_n of the (S, h, h) blocks of rho_n."""
    s, h, _ = blocks.shape
    index = parity_sectors(s * h, s)
    rho_n = np.zeros((s * h, s * h), dtype=complex)
    rho_n[index[:, :, None], index[:, None, :]] = blocks
    return np.kron(np.diag(np.eye(2, dtype=complex)[reinit_state]), rho_n)


def _kraus_stack(
    seqs, run: ProtocolRun, register: SpinRegister, sectors: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators of each burst of ``seqs``, with the burst length,
    wait and reset state of ``run``, on ``sectors`` nuclear sectors.

    Returns ``(rows, kraus)``. ``rows`` is the (P, 2, d, D) stack of
    V_a = u_wait U_burst[a, :], U_burst a period map of ``seqs`` to the power
    n_periods and u_wait the reset-state block of ``free_propagator`` (the
    identity without a wait), which maps a joint state to the nuclear state
    after a repetition. ``kraus`` is a copy of the (P, 2, S, h, h) sector
    blocks of the pair (K_r, K_{1-r}), K_a = V_a[:, r], block (a, s) mapping
    sector s to sector s + a mod S. The pair is checked for completeness,
    then every entry the blocks drop against SECTOR_TOL. Period maps are
    built in sub-chunks that fit ``linalg.CHUNK_BYTES``.
    """
    require_joint_space(register)
    d, dim, r = register.dim // 2, register.dim, run.reinit_state
    # Period maps take eight D x D matrices per point, as in the Floquet grid.
    size = chunk_points(8 * 16 * dim**2)
    rows = np.empty((len(seqs), 2, d, dim), dtype=complex)
    for i in range(0, len(seqs), size):
        u_burst = period_unitary(seqs[i : i + size], register)
        rows[i : i + size] = np.linalg.matrix_power(u_burst, run.n_periods).reshape(-1, 2, d, dim)
    if run.wait_us > 0:
        rows = free_propagator(register, run.wait_us)[r] @ rows
    kraus = rows[:, [r, 1 - r], :, r * d : (r + 1) * d]
    _check_completeness(kraus)
    index = parity_sectors(d, sectors)
    blocks = [sector_blocks(kraus[:, a], index, a, "Kraus pair", "nuclear parity") for a in (0, 1)]
    return rows, np.stack(blocks, axis=1)


def _check_completeness(kraus: np.ndarray) -> None:
    """Raise NotUnitary unless sum_a K_a^dag K_a = I to 1e-10 for every
    pair in a (P, 2, d, d) stack, or for every sector of a (P, 2, S, h, h)
    stack of blocks; a pair with a non-finite entry fails. The pair's
    blocks from one sector stacked as [K_0; K_1] are an isometry exactly then."""
    dev = unitarity_defect(np.concatenate((kraus[:, 0], kraus[:, 1]), axis=-2))
    if dev > KRAUS_TOL:
        raise NotUnitary(f"Kraus pair is incomplete: max |sum K^dag K - I| = {dev:.3e}")


def _polarisations(rho: np.ndarray) -> np.ndarray:
    """<I_z> of every nucleus for a (..., S, h, h) stack of the sector blocks
    of nuclear states. I_z of nucleus i is diagonal: +1/2 where bit i of the
    basis index, counted from the most significant of n bits, is 0, and -1/2
    where it is 1."""
    s, h = rho.shape[-3:-1]
    n = (s * h).bit_length() - 1
    bits = (parity_sectors(s * h, s).reshape(-1, 1) >> np.arange(n - 1, -1, -1)) & 1
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return diag.reshape(*diag.shape[:-2], -1) @ (0.5 - bits)


def _repeat(kraus: np.ndarray, rho: np.ndarray, repetitions: int, history=None) -> np.ndarray:
    """Apply each run's Kraus map ``repetitions`` times to its nuclear state.

    ``kraus`` is a (P, 2, S, h, h) stack of pairs from ``_kraus_stack`` and
    ``rho`` the (P, S, h, h) blocks of the states; every state is checked
    and the final ones are returned. With ``history`` given, a
    (P, repetitions, n) array, the polarisations after every repetition are
    written into it. A single repetition also takes (P, 2, 1, d, D) block
    rows from ``_kraus_stack`` with (P, 1, D, D) joint states.
    """
    p, _, s, h, m = kraus.shape
    # src[t, a] is the sector K_a maps into sector t. Block t of the next
    # state, sum_a K_a rho K_a^dag over those sources, is one product: the
    # row block [K_0 K_1] times the column block [rho K_0^dag; rho K_1^dag].
    src = (np.arange(s)[:, None] - np.arange(2)) % s
    into = kraus[:, np.arange(2), src]
    k_row = into.transpose(0, 1, 3, 2, 4).reshape(p, s, h, 2 * m)
    k_dag = np.ascontiguousarray(into.conj().swapaxes(-1, -2))
    for rep in range(repetitions):
        rho = k_row @ (rho[:, src] @ k_dag).reshape(p, s, 2 * m, h)
        _check_states(rho)
        if history is not None:
            history[:, rep] = _polarisations(rho)
    return rho


#: Flop-equivalents of one loop repetition, Python overhead included.
_LOOP_FLOPS = 2**15


def _powered(d: int, repetitions: int, sectors: int = 1) -> bool:
    """Whether ``_power`` beats ``_repeat`` on a d-dim nuclear state kept as
    ``sectors`` blocks: the n^3 squarings and n^2 build of its n x n
    superoperator, n = d^2 / sectors, against the loop."""
    n = d * d // sectors
    return (repetitions.bit_length() - 1) * n**3 + n**2 < _LOOP_FLOPS * repetitions


def _power(kraus: np.ndarray, rho: np.ndarray, repetitions: int) -> np.ndarray:
    """The final states of ``_repeat`` without history: S^repetitions, by
    square-and-multiply on the vector, checking the state after each set
    bit. S = sum_a K_a (x) conj(K_a) acts on the row-major vec of the
    blocks, block (a, s) of the pair feeding sector s + a mod S."""
    p, _, s, h, _ = kraus.shape
    n = s * h * h
    hop = (np.arange(s)[:, None] - np.arange(s)) % s == np.arange(2)[:, None, None] % s
    sup = np.einsum("ats,pasij,paskl->ptiksjl", hop, kraus, kraus.conj()).reshape(p, n, n)
    vec = rho.reshape(p, n, 1)
    while True:
        if repetitions & 1:
            vec = sup @ vec
            _check_states(vec.reshape(p, s, h, h))
        repetitions >>= 1
        if not repetitions:
            return vec.reshape(p, s, h, h)
        sup = sup @ sup


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
    rows, kraus = _kraus_stack([run.sequence], run, register)
    history = np.empty((1, run.repetitions, len(register.nuclei)))
    rho = _repeat(rows[:, :, None], state.rho[None, None], 1, history)
    rho = _repeat(kraus, rho, run.repetitions - 1, history[:, 1:])
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


def sweep_trace(
    builder: SequenceBuilder,
    register: SpinRegister,
    periods: np.ndarray,
    n_periods: int,
    repetitions: int,
    wait_us: float = 0.0,
    reinit_state: int = 0,
) -> PolarisationTrace:
    """Run the repetition loop from a fresh thermal state at every period.

    ``builder`` maps each grid value to a PulseSequence; the trace axis
    records the period of the sequence actually built. Points run batched
    in this process, in chunks that fit ``linalg.CHUNK_BYTES``, through
    ``_power`` where ``_powered`` says so and the loop otherwise; bursts
    come from stacked period maps in sub-chunks that fit the same budget.
    """
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 1 or periods.size == 0:
        raise ValidationError("periods: need a non-empty 1-d grid")
    seqs = [builder(float(t)) for t in periods]
    run = ProtocolRun(seqs[0], n_periods, repetitions, wait_us, reinit_state)
    d = register.dim // 2
    sectors = _sectors(seqs, wait_us, d)
    powered = _powered(d, repetitions, sectors)
    # Per point, in entries: powered, the n x n superoperator, n = d^2 / S,
    # its square and temporaries (8 n^2); looping, at most 12 d^2, held by
    # the Kraus build (rows, pair and blocks) or by the loop (pair, its row
    # and adjoint copies, gathered state and product, state and next state).
    n = d * d // sectors
    chunk = chunk_points(16 * (8 * n * n if powered else 12 * d * d))
    step = _power if powered else _repeat
    values = []
    for start in range(0, len(seqs), chunk):
        part = seqs[start : start + chunk]
        _, kraus = _kraus_stack(part, run, register, sectors)
        values.append(_polarisations(step(kraus, _thermal(d, len(part), sectors), repetitions)))
    axis = np.array([seq.period for seq in seqs])
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
    run_protocol, from the same thermal start.
    """
    if not stages:
        raise ValidationError("stages: need at least one stage")
    require_joint_space(register)
    runs = [
        ProtocolRun(
            builder(st.period), st.n_periods or n_periods, st.repetitions, wait_us, reinit_state
        )
        for st in stages
    ]
    reps = [run.repetitions for run in runs]
    history = np.empty((1, sum(reps), len(register.nuclei)))
    d = register.dim // 2
    sectors = _sectors([run.sequence for run in runs], wait_us, d)
    rho = _thermal(d, 1, sectors)
    done = 0
    for run in runs:
        _, kraus = _kraus_stack([run.sequence], run, register, sectors)
        rho = _repeat(kraus, rho, run.repetitions, history[:, done : done + run.repetitions])
        done += run.repetitions
    periods = [run.sequence.period for run in runs]
    rep_times = [run.n_periods * run.sequence.period + wait_us for run in runs]
    return ScheduleResult(
        times=np.cumsum(np.repeat(rep_times, reps)),
        stage_index=np.repeat(np.arange(len(runs)), reps),
        periods=np.repeat(periods, reps),
        labels=tuple(s.label for s in register.nuclei),
        values=history[0],
        final_state=DensityState(rho=_reset_product(rho[0], reinit_state), register=register),
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
    if not 0 < tol < inf:
        raise ValidationError(f"tol: must be finite and > 0, got {tol}")
    if max_repetitions < 1:
        raise ValidationError(f"max_repetitions: must be >= 1, got {max_repetitions}")
    d = register.dim // 2
    sectors = _sectors([run.sequence], run.wait_us, d)
    _, kraus = _kraus_stack([run.sequence], run, register, sectors)
    rho = _thermal(d, 1, sectors)
    block = min(run.repetitions, max_repetitions)
    history = np.empty((1, block, len(register.nuclei)))
    total_prev = None
    below = done = 0
    while done < max_repetitions:
        reps = min(block, max_repetitions - done)
        rho = _repeat(kraus, rho, reps, history[:, :reps])
        for value in history[0, :reps].sum(axis=1):
            stalled = total_prev is not None and abs(value - total_prev) < tol
            below = below + 1 if stalled else 0
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


def write_trace_csv(
    trace: PolarisationTrace, path: str, tau_per_period: float, scale: float = 1.0
) -> None:
    """Write a sweep as CSV: tau_us, period_us, one column per spin, total;
    tau is the period times the protocol's ``protocols.TAU_PER_PERIOD`` and
    every polarisation is multiplied by ``scale``."""
    write_csv(
        path,
        ["tau_us", "period_us", *trace.labels, "total"],
        ([t * tau_per_period, t, *v, v.sum()] for t, v in zip(trace.periods, scale * trace.values)),
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
