"""Density-matrix propagation: repetitions, sweeps, schedules, CSV output."""
from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnpsim import (
    DensityState,
    ProtocolRun,
    ScheduleStage,
    asymptotic_envelope,
    build_operators,
    initial_state,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    run_protocol,
    run_schedule,
    sweep_trace,
    write_schedule_csv,
    write_trace_csv,
)
from dnpsim import engine, linalg
from dnpsim.engine import STATE_TOL
from dnpsim.errors import ConvergenceCap, DnpsimError, NoConvergence, NotUnitary, ValidationError

from conftest import LARMOR, make_register, shipped_register


def t_resonance(reg, label, harmonic=3):
    return resonant_period(precession_frequency(reg.nucleus(label), LARMOR), harmonic)


def test_initial_state_layout(reg_c3_c21):
    ops = build_operators(reg_c3_c21)
    state = initial_state(reg_c3_c21)
    rho = state.rho
    assert np.isclose(np.trace(rho), 1.0)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
    # electron polarised in the reset state, nuclei fully mixed
    assert np.real(np.trace(rho @ ops.electron.z)) == pytest.approx(0.5)
    for site in ops.nuclei:
        assert np.real(np.trace(rho @ site.z)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        initial_state(reg_c3_c21, reinit_state=2)


def test_repetitions_pump_the_nucleus(reg_c3):
    period = t_resonance(reg_c3, "C3")
    run = ProtocolRun(
        sequence=pulsepol_for_period(period),
        n_periods=3,
        repetitions=12,
        wait_us=0.0,
        reinit_state=0,
    )
    state, history = run_protocol(run, reg_c3)
    assert history.shape == (12, 1)
    assert history[0, 0] > 0
    assert history[-1, 0] > history[0, 0]
    assert history[-1, 0] <= 0.5 + 1e-9
    state.validate()


def test_opposite_reset_state_pumps_down(reg_c3):
    period = t_resonance(reg_c3, "C3")
    run = ProtocolRun(
        sequence=pulsepol_for_period(period),
        n_periods=3,
        repetitions=12,
        wait_us=0.0,
        reinit_state=1,
    )
    _, history = run_protocol(run, reg_c3)
    assert history[-1, 0] < -0.1


def test_saturation_approaches_full_polarisation(reg_c3):
    period = t_resonance(reg_c3, "C3")
    run = ProtocolRun(
        sequence=pulsepol_for_period(period), n_periods=3, repetitions=1
    )
    value, reps, converged = asymptotic_envelope(run, reg_c3, tol=1e-9)
    assert converged
    assert value == pytest.approx(0.5, abs=1e-3)
    assert reps < 100_000


def test_envelope_warns_when_capped(reg_c21):
    period = t_resonance(reg_c21, "C21")
    run = ProtocolRun(sequence=pulsepol_for_period(period), n_periods=4, repetitions=1)
    with pytest.warns(ConvergenceCap):
        value, reps, converged = asymptotic_envelope(
            run, reg_c21, tol=1e-10, max_repetitions=30
        )
    assert not converged
    assert reps == 30
    assert 0 < value < 0.5


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
def test_envelope_refuses_a_tolerance_it_cannot_meet(reg_c3, tol):
    """A nan tolerance never stalls the loop, so it would run to the cap."""
    run = ProtocolRun(pulsepol_for_period(t_resonance(reg_c3, "C3")), n_periods=3, repetitions=1)
    with pytest.raises(ValidationError, match="^tol: must be finite and > 0"):
        asymptotic_envelope(run, reg_c3, tol=tol)


def test_envelope_builds_one_period_map(reg_c3, monkeypatch):
    calls = []
    real_period_unitary = engine.period_unitary

    def counted(seqs, reg):
        calls.append(len(seqs))
        return real_period_unitary(seqs, reg)

    monkeypatch.setattr(engine, "period_unitary", counted)
    run = ProtocolRun(
        sequence=pulsepol_for_period(t_resonance(reg_c3, "C3")), n_periods=3, repetitions=1
    )
    _, reps, converged = asymptotic_envelope(run, reg_c3, tol=1e-9)
    assert converged and reps > 1
    assert calls == [1]


def test_sweep_blockade_grid_makes_one_period_map_call(reg_c3_c4_c8, monkeypatch):
    """The 21 points of the criterion-9 window at dim 16 fit one stacked
    period map."""
    calls = []
    real_period_unitary = engine.period_unitary

    def counted(seqs, reg):
        calls.append(len(seqs))
        return real_period_unitary(seqs, reg)

    monkeypatch.setattr(engine, "period_unitary", counted)
    grid = np.linspace(25.4, 27.0, 21)
    sweep_trace(partial(pulsepol_for_period, harmonic=11), reg_c3_c4_c8, grid, 8, 2)
    assert calls == [21]


def test_sweep_peaks_on_resonance(reg_c21):
    period = t_resonance(reg_c21, "C21")
    periods = np.linspace(period - 0.25, period + 0.25, 51)
    trace = sweep_trace(pulsepol_for_period, reg_c21, periods, 4, 100)
    assert trace.labels == ("C21",)
    assert trace.values.shape == (51, 1)
    assert np.all(trace.values >= -0.5 - 1e-9)
    assert np.all(trace.values <= 0.5 + 1e-9)
    peak = periods[np.argmax(trace.values[:, 0])]
    step = periods[1] - periods[0]
    assert abs(peak - period) <= step


def test_trace_csv_format(reg_c3_c21, tmp_path):
    periods = np.linspace(6.6, 7.0, 5)
    trace = sweep_trace(pulsepol_for_period, reg_c3_c21, periods, 2, 1)
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, str(out), 0.25)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_us,period_us,C3,C21,total"
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(first[1] / 4)  # tau column is period/4
    assert first[-1] == pytest.approx(first[2] + first[3], abs=1e-9)


def test_schedule_bookkeeping(reg_c3_c16):
    t2 = t_resonance(reg_c3_c16, "C16")
    stages = (ScheduleStage(7.2, 5), ScheduleStage(t2, 7))
    result = run_schedule(pulsepol_for_period, reg_c3_c16, stages, n_periods=8)
    assert result.labels == ("C3", "C16")
    assert result.values.shape == (12, 2)
    assert list(result.stage_index) == [0] * 5 + [1] * 7
    assert np.all(np.diff(result.times) > 0)
    # each row advances by one repetition of its stage period
    assert result.times[0] == pytest.approx(8 * 7.2)
    assert result.times[4] == pytest.approx(5 * 8 * 7.2)
    assert result.times[-1] == pytest.approx(5 * 8 * 7.2 + 7 * 8 * t2)
    assert np.all(result.periods[:5] == 7.2)
    result.final_state.validate()


def test_schedule_stage_override_and_wait(reg_c3):
    t1 = t_resonance(reg_c3, "C3")
    stages = (ScheduleStage(t1, 3, n_periods=2), ScheduleStage(t1, 2))
    result = run_schedule(pulsepol_for_period, reg_c3, stages, n_periods=4, wait_us=1.5)
    assert result.times[0] == pytest.approx(2 * t1 + 1.5)
    assert result.times[-1] == pytest.approx(3 * (2 * t1 + 1.5) + 2 * (4 * t1 + 1.5))


def test_schedule_equals_chained_protocol_runs(reg_c3_c16):
    """The schedule's nuclear loop gives what chaining run_protocol per
    stage gives through its joint-space step on the carried state."""
    t2 = t_resonance(reg_c3_c16, "C16")
    stages = (ScheduleStage(7.2, 4), ScheduleStage(t2, 5, n_periods=3), ScheduleStage(6.9, 3))
    result = run_schedule(
        pulsepol_for_period, reg_c3_c16, stages, n_periods=8, wait_us=0.7, reinit_state=1
    )
    state = initial_state(reg_c3_c16, reinit_state=1)
    histories = []
    for stage in stages:
        n_p = stage.n_periods if stage.n_periods is not None else 8
        run = ProtocolRun(pulsepol_for_period(stage.period), n_p, stage.repetitions, 0.7, 1)
        state, history = run_protocol(run, reg_c3_c16, state)
        histories.append(history)
    assert np.max(np.abs(result.values - np.vstack(histories))) <= 1e-12
    assert np.max(np.abs(result.final_state.rho - state.rho)) <= 1e-12


def test_schedule_csv_format(reg_c3_c16, tmp_path):
    stages = (ScheduleStage(7.2, 2), ScheduleStage(6.8, 2))
    result = run_schedule(pulsepol_for_period, reg_c3_c16, stages, n_periods=2)
    out = tmp_path / "sched.csv"
    write_schedule_csv(result, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time_us,stage,period_us,C3,C16,total"
    assert len(lines) == 5
    stage_col = [line.split(",")[1] for line in lines[1:]]
    assert stage_col == ["0", "0", "1", "1"]


def test_wait_interval_dephases_transverse_coherence(reg_c21):
    period = t_resonance(reg_c21, "C21")
    base = ProtocolRun(sequence=pulsepol_for_period(period), n_periods=4, repetitions=40)
    waited = ProtocolRun(
        sequence=pulsepol_for_period(period), n_periods=4, repetitions=40, wait_us=5.0
    )
    _, h0 = run_protocol(base, reg_c21)
    _, h1 = run_protocol(waited, reg_c21)
    # both pump; the interleaved precession changes the trajectory
    assert h1[-1, 0] > 0.2
    assert not np.allclose(h0, h1)


def test_run_validation():
    with pytest.raises(ValidationError):
        ProtocolRun(sequence=pulsepol_for_period(6.8), n_periods=0, repetitions=1)
    with pytest.raises(ValidationError):
        ProtocolRun(sequence=pulsepol_for_period(6.8), n_periods=1, repetitions=0)
    with pytest.raises(ValidationError):
        ScheduleStage(period=-1.0, repetitions=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="wait_us"):
            ProtocolRun(pulsepol_for_period(6.8), n_periods=1, repetitions=1, wait_us=bad)
        with pytest.raises(ValidationError, match="period"):
            ScheduleStage(period=bad, repetitions=1)


def test_completeness_check_rejects_a_non_finite_pair():
    with pytest.raises(NotUnitary, match="incomplete"):
        engine._check_completeness(np.full((1, 2, 2, 2), np.nan + 0j))


def test_state_and_trace_keep_their_own_copies(reg_c3):
    """The caller's arrays stay writable, and writing to them later leaves
    the stored state and trace as they were."""
    rho = initial_state(reg_c3).rho.copy()
    want_rho = rho.copy()
    state = DensityState(rho=rho, register=reg_c3)
    rho[0, 0] = 5.0
    assert np.array_equal(state.rho, want_rho)
    assert not state.rho.flags.writeable

    periods, values = np.array([6.8, 6.9]), np.array([[0.1], [0.2]])
    trace = engine.PolarisationTrace(periods=periods, labels=("C3",), values=values)
    periods[0] = 5.0
    values[0, 0] = 0.4
    assert trace.periods.tolist() == [6.8, 6.9]
    assert trace.values.tolist() == [[0.1], [0.2]]
    assert not (trace.periods.flags.writeable or trace.values.flags.writeable)


# Minimum eigenvalues planted in one state of a stack, in units of
# STATE_TOL: a pure state, two either side of the certificate's shift of
# -1/2 and two either side of the tolerance itself.
PLANTED = (0.0, -0.4, -0.6, -0.99, -1.01, -2.0)


def planted_stack(seed: int, p: int, d: int, bad: int, planted: float) -> np.ndarray:
    """p random unit-trace states of dim d; state ``bad`` has minimum
    eigenvalue planted * STATE_TOL (a pure state when planted is 0), the
    others are positive definite."""
    rng = np.random.default_rng(seed)
    out = np.empty((p, d, d), dtype=complex)
    for k in range(p):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        w = rng.uniform(0.1, 1.0, d)
        if k == bad and planted == 0.0:
            w = np.eye(d)[0]
        elif k == bad:
            w[0] = 0.0
            w *= (1.0 - planted * STATE_TOL) / w.sum()
            w[0] = planted * STATE_TOL
        else:
            w /= w.sum()
        rho = (q * w) @ q.conj().T
        out[k] = (rho + rho.conj().T) / 2
    return out


def assert_verdict_of_eigvalsh(rho: np.ndarray) -> None:
    """_check_states raises exactly when eigvalsh puts the minimum below
    -STATE_TOL, with the message that names it."""
    min_eig = float(np.min(np.linalg.eigvalsh(rho)[..., 0]))
    if min_eig < -STATE_TOL:
        with pytest.raises(NoConvergence) as err:
            engine._check_states(rho)
        assert str(err.value) == f"density matrix lost positivity: min eigenvalue {min_eig:.3e}"
    else:
        engine._check_states(rho)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 16),
    p=st.integers(1, 4),
    planted=st.sampled_from(PLANTED),
)
def test_positivity_verdict_matches_eigvalsh(seed, d, p, planted):
    bad = seed % p
    assert_verdict_of_eigvalsh(planted_stack(seed, p, d, bad, planted))


@pytest.mark.parametrize("planted", PLANTED)
def test_positivity_verdict_matches_eigvalsh_at_dim_128(planted):
    assert_verdict_of_eigvalsh(planted_stack(7, 1, 128, 0, planted))


@pytest.mark.parametrize("d", [16, 128])
@pytest.mark.parametrize("planted", [0.0, -0.4])
def test_certificate_alone_passes_near_singular_states(monkeypatch, planted, d):
    """Pure states and states within half the tolerance of positive need
    no eigensolve."""
    rho = planted_stack(5, 3, d, 1, planted)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    engine._check_states(rho)


def test_one_bad_state_among_twenty_good():
    engine._check_states(planted_stack(11, 21, 8, 13, -0.6))
    with pytest.raises(NoConvergence, match="lost positivity: min eigenvalue -2.000e-09"):
        engine._check_states(planted_stack(11, 21, 8, 13, -2.0))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("entry", [(1, 1), (2, 1), (1, 2)], ids=["diag", "lower", "upper"])
def test_non_finite_state_raises_first(value, entry):
    rho = np.broadcast_to(np.eye(4, dtype=complex) / 4, (5, 4, 4)).copy()
    rho[1, 0, 1] = 1e-3  # a hermiticity defect elsewhere in the stack
    rho[3][entry] = value
    with pytest.raises(NoConvergence, match="^density matrix is not finite$"):
        engine._check_states(rho)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite_state(reg_c3, value):
    rho = initial_state(reg_c3).rho.copy()
    rho[1, 0] = value
    with pytest.raises(NoConvergence, match="^density matrix is not finite$"):
        DensityState(rho=rho, register=reg_c3).validate()


def test_sweep_needs_no_eigensolve(monkeypatch):
    """Every state of a healthy sweep passes the Cholesky certificate, so
    eigvalsh never runs; a corrupted state still fails validation."""
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    register = shipped_register("c3_c4_c8.yaml")
    periods = np.linspace(25.4, 27.0, 21)
    trace = sweep_trace(
        lambda t: pulsepol_for_period(t, harmonic=11), register, periods, 8, 50
    )
    assert trace.values.shape == (21, 3)
    assert calls == []

    # criterion 10's corruption (a trace error) and a negative eigenvalue
    bad = initial_state(register).rho.copy()
    bad[0, 0] += 0.5
    with pytest.raises(DnpsimError):
        DensityState(rho=bad, register=register).validate()
    bad = bad.copy()
    bad[1, 1] -= 0.5
    with pytest.raises(NoConvergence, match="lost positivity"):
        DensityState(rho=bad, register=register).validate()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "labels", [("C3",), ("C3", "C21"), ("C3", "C4", "C8")], ids=["d2", "d4", "d8"]
)
def test_powered_channel_matches_the_loop(labels):
    """S^R by repeated squaring gives the loop's final states on the same
    Kraus stack, here with a wait, the lower reset state and finite pulses."""
    register = make_register(*labels)
    seqs = [pulsepol_for_period(t, rabi=300.0) for t in (6.7, 6.8, 6.9)]
    run = ProtocolRun(seqs[0], n_periods=4, repetitions=1, wait_us=1.5, reinit_state=1)
    _, kraus = engine._kraus_stack(seqs, run, register)
    start = engine._thermal(register.dim // 2, len(seqs))
    for reps in (1, 2, 3, 64, 1000, 1023, 1024):
        got = engine._power(kraus, start, reps)
        assert np.max(np.abs(got - engine._repeat(kraus, start, reps))) <= 1e-12
    # The rule sweep_trace picks its path by.
    assert engine._powered(8, 1000)
    assert not engine._powered(8, 20)
    assert not engine._powered(16, 1000)


@pytest.mark.parametrize("reinit_state", [0, 1])
@pytest.mark.parametrize(
    "labels", [("C3",), ("C3", "C21"), ("C3", "C4", "C8")], ids=["d2", "d4", "d8"]
)
def test_parity_blocks_give_the_whole_final_state(labels, reinit_state):
    """Whole final states, not polarisations: the parity-block channel,
    looped and powered, and the one-sector powered channel give the joint
    state |r><r| (x) rho_n of the one-sector loop to 1e-12, so an error that
    keeps the diagonal of rho (conj(rho), say) cannot pass."""
    register = make_register(*labels)
    d = register.dim // 2
    seqs = [pulsepol_for_period(t) for t in (6.7, 6.8, 6.9)]
    run = ProtocolRun(seqs[0], n_periods=4, repetitions=1, reinit_state=reinit_state)
    assert engine._sectors(seqs, run.wait_us, d) == 2
    pairs = {s: engine._kraus_stack(seqs, run, register, s)[1] for s in (1, 2)}
    assert pairs[2].shape == (3, 2, 2, d // 2, d // 2)

    def joint(states):
        return np.stack([engine._reset_product(rho, reinit_state) for rho in states])

    imag = 0.0
    for reps in (1, 2, 3, 64, 1000, 1023, 1024):
        want = joint(engine._repeat(pairs[1], engine._thermal(d, 3), reps))
        imag = max(imag, np.max(np.abs(want.imag)))
        for sectors, step in ((2, engine._repeat), (2, engine._power), (1, engine._power)):
            got = joint(step(pairs[sectors], engine._thermal(d, 3, sectors), reps))
            assert np.max(np.abs(got - want)) <= 1e-12, (sectors, step.__name__, reps)
    # Past d = 2, whose states stay diagonal, conj(rho) is not rho.
    assert (imag > 1e-3) == (d > 2)


def test_block_sweep_chunks_do_not_change_the_trace(monkeypatch):
    """Sweeps on the parity blocks, powered (d = 8) and looped (d = 16), give
    the same trace whatever the chunk budget: one point per chunk, or the
    nine points split into powered chunks of 3, or into loop chunks of 4
    whose period maps are built one at a time."""
    periods = np.linspace(6.6, 7.0, 9)
    for labels, budget in ((("C3", "C4", "C8"), 400_000), (("C3", "C4", "C8", "C21"), 200_000)):
        register = make_register(*labels)
        d = register.dim // 2
        assert engine._powered(d, 5, 2) == (d == 8)
        whole = sweep_trace(pulsepol_for_period, register, periods, 4, 5)
        for split_budget in (1, budget):
            monkeypatch.setattr(linalg, "CHUNK_BYTES", split_budget)
            split = sweep_trace(pulsepol_for_period, register, periods, 4, 5)
            assert np.max(np.abs(whole.values - split.values)) <= 1e-12
        monkeypatch.undo()


@pytest.mark.parametrize("step", [engine._repeat, engine._power], ids=["loop", "powered"])
def test_powered_and_looped_verdicts_agree(reg_c3_c21, step):
    """A pair that passes the completeness check but gains 8e-11 of trace
    per repetition drifts past the state tolerance in 1000 repetitions and
    not in 5; a NaN pair fails the state check on either path, on the
    whole nuclear space and on its two parity blocks."""
    run = ProtocolRun(pulsepol_for_period(6.8), n_periods=4, repetitions=1)
    for sectors in (1, 2):
        _, kraus = engine._kraus_stack([run.sequence], run, reg_c3_c21, sectors)
        start = engine._thermal(4, 1, sectors)
        drifting = kraus * (1 + 4e-11)
        engine._check_completeness(drifting)
        step(drifting, start, 5)
        with pytest.raises(NoConvergence, match="trace drifted"):
            step(drifting, start, 1000)
        broken = kraus.copy()
        broken[0, 1, 0, 1, 0] = np.nan
        with pytest.raises(NoConvergence, match="^density matrix is not finite$"):
            step(broken, start, 1000)
