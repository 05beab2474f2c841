"""Density-matrix propagation: repetitions, sweeps, schedules, CSV output."""
from __future__ import annotations

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnpsim import (
    DensityState,
    NuclearSpin,
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
from dnpsim.errors import DimensionOverflow, DnpsimError, NoConvergence, NotUnitary
from dnpsim.errors import ValidationError

import reference_engine as ref
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
    values, relaxation = asymptotic_envelope(run, reg_c3)
    assert values.shape == (1,)
    assert values[0] == pytest.approx(0.5, abs=1e-3)
    assert 0 < relaxation < 1


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
    asymptotic_envelope(run, reg_c3)
    assert calls == [1]


def envelope_cases():
    c3, triple = make_register("C3"), make_register("C3", "C4", "C8")
    t3 = t_resonance(c3, "C3")
    return {
        "c3-k3": (c3, ProtocolRun(pulsepol_for_period(t3), 3, 1)),
        "c3-k3-wait": (c3, ProtocolRun(pulsepol_for_period(t3), 3, 1, wait_us=1.3)),
        "c3_c4_c8-k11": (triple, ProtocolRun(pulsepol_for_period(26.4, harmonic=11), 8, 1)),
    }


@pytest.mark.parametrize("case", ["c3-k3", "c3-k3-wait", "c3_c4_c8-k11"])
def test_envelope_is_the_fixed_point_the_oracle_reaches(case, monkeypatch):
    """The joint-space oracle, run for 25 e-folds of the slowest mode,
    lands on the fixed point; and that state's real coordinates x satisfy
    S x = x for the channel's real superoperator S."""
    register, run = envelope_cases()[case]
    checked, check_states = [], engine._check_states

    def kept(rho):
        check_states(rho)
        checked.append(rho[0])

    monkeypatch.setattr(engine, "_check_states", kept)
    values, relaxation = asymptotic_envelope(run, register)
    (rho,) = checked

    reps = max(50, math.ceil(25 * relaxation))
    _, history = ref.run_protocol(run._replace(repetitions=reps), register)
    assert np.max(np.abs(history[-1] - values)) <= 1e-10

    d = register.dim // 2
    sectors = engine._sectors([run.sequence], run.wait_us, d)
    _, kraus = engine._kraus_stack([run.sequence], run, register, sectors)
    alpha = engine._hermitian_weights(d // sectors)
    x = (alpha * rho + alpha.conj() * rho.swapaxes(-1, -2)).real.reshape(-1)
    assert np.max(np.abs(engine._real_superoperator(kraus)[0] @ x - x)) <= 1e-12


@pytest.mark.parametrize("count, wait_us, n", [(7, 0.0, 8192), (6, 0.5, 4096)])
def test_envelope_refuses_a_channel_above_the_dense_bound(count, wait_us, n, monkeypatch):
    """d = 128 on two parity sectors, and d = 64 on one (a wait), give
    n = d^2 / S above 2048: refused before any Kraus pair is built."""

    def unbuilt(*args):
        raise AssertionError("built past the dense bound")

    monkeypatch.setattr(engine, "_kraus_stack", unbuilt)
    monkeypatch.setattr(engine, "_real_superoperator", unbuilt)
    register = make_register(*(f"C{i}" for i in range(count)))
    run = ProtocolRun(pulsepol_for_period(7.0), 1, 1, wait_us=wait_us)
    with pytest.raises(DimensionOverflow, match=f"dimension {n} exceeds 2048"):
        asymptotic_envelope(run, register)


def test_envelope_refuses_a_conserved_nucleus(reg_c3):
    """With a_perp = 0 the channel conserves that nucleus's I_z, so the
    eigenvalue 1 is not simple and the limit depends on the start state."""
    dark = reg_c3._replace(nuclei=(*reg_c3.nuclei, NuclearSpin("D", 0.1, 0.0)))
    run = ProtocolRun(pulsepol_for_period(t_resonance(reg_c3, "C3")), 3, 1)
    with pytest.raises(NoConvergence, match="second eigenvalue of modulus 1.0000"):
        asymptotic_envelope(run, dark)


def test_a_long_powered_sweep_keeps_its_trace_and_reaches_the_fixed_point():
    """2^19 repetitions of ``sweep_trace`` on c4_c8 at k = 11, np 8 (the
    powered path, 19 squarings of S): the trace-preserving correction after
    each squaring keeps every state inside ``_check_states``, and every
    point with R >= 25 x relaxation (20 of the 21) is its
    ``asymptotic_envelope`` fixed point to 1e-9."""
    register = shipped_register("c4_c8.yaml")
    builder = partial(pulsepol_for_period, harmonic=11)
    grid, repetitions = np.linspace(25.4, 27.0, 21), 2**19
    trace = sweep_trace(builder, register, grid, 8, repetitions)
    settled = 0
    for period, values in zip(grid, trace.values):
        limit, relaxation = asymptotic_envelope(ProtocolRun(builder(period), 8, 1), register)
        if repetitions >= 25 * relaxation:
            settled += 1
            assert np.max(np.abs(values - limit)) <= 1e-9
    assert settled == 20


def test_blocker_lowers_the_c8_limit_but_speeds_its_build_up(reg_c4_c8, reg_c3_c4_c8):
    """Why acceptance criterion 9 measures the other way (k = 11, np 8):
    C8's fixed point and repetitions per e-fold, pinned as measured to
    5e-4 relative, in the pair and with C3 added."""

    def c8(register, period):
        run = ProtocolRun(pulsepol_for_period(period, harmonic=11), 8, 1)
        values, relaxation = asymptotic_envelope(run, register)
        return values[-1], relaxation  # C8 is the last nucleus of both registers

    bare = t_resonance(reg_c4_c8, "C8", harmonic=11)
    assert bare == pytest.approx(25.726, abs=1e-3)
    pair_bare, triple_bare = c8(reg_c4_c8, bare), c8(reg_c3_c4_c8, bare)
    pair_peak, triple_peak = c8(reg_c4_c8, 26.4), c8(reg_c3_c4_c8, 26.4)
    assert pair_bare == pytest.approx((0.2756, 1101.8), rel=5e-4)
    assert triple_bare == pytest.approx((0.2461, 596.9), rel=5e-4)
    assert pair_peak == pytest.approx((0.4577, 248.2), rel=5e-4)
    assert triple_peak == pytest.approx((0.4821, 184.6), rel=5e-4)
    # At the bare resonance C3 lowers C8's limit, but builds it up 1.8x faster.
    assert triple_bare[0] < pair_bare[0] and 1.8 < pair_bare[1] / triple_bare[1] < 1.9
    # At the pair's 1000-repetition peak both build up fast; the triple's limit is higher.
    assert triple_peak[0] > pair_peak[0] and triple_peak[1] < pair_peak[1]


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


def _hermitian_basis(s, h):
    """The dense (n, n) map B of ``engine._hermitian_weights`` on the
    row-major vec of S blocks of h x h, n = S h^2."""
    alpha = engine._hermitian_weights(h).ravel()
    swap = np.arange(h * h).reshape(h, h).T.ravel()  # vec index of the transposed entry
    one = np.diag(alpha)
    one[np.arange(h * h), swap] += alpha.conj()
    return np.kron(np.eye(s), one)


@pytest.mark.parametrize("s", [1, 2])
def test_hermitian_coordinates_are_a_real_unitary_change_of_basis(s):
    """B is unitary and B vec(rho) is real for Hermitian blocks, so
    B S B^dag is real: ``_real_superoperator`` is it to rounding, against
    the complex S = sum_a K_a (x) conj(K_a) built term by term."""
    rng = np.random.default_rng(s)
    h = 8 // s
    b = _hermitian_basis(s, h)
    assert np.max(np.abs(b @ b.conj().T - np.eye(s * h * h))) <= 1e-15
    z = rng.normal(size=(5, s, h, h)) + 1j * rng.normal(size=(5, s, h, h))
    rho = z + z.conj().swapaxes(-1, -2)
    x = b @ rho.reshape(5, -1, 1)
    assert np.max(np.abs(x.imag)) <= 1e-15
    assert np.max(np.abs((b.conj().T @ x).reshape(rho.shape) - rho)) <= 1e-14
    assert np.max(np.abs((b @ z.reshape(5, -1, 1)).imag)) > 0.1  # not real off Hermitian blocks

    register = make_register("C3", "C4", "C8")
    seqs = [pulsepol_for_period(t, harmonic=11) for t in (25.6, 25.7, 26.4)]
    _, kraus = engine._kraus_stack(seqs, ProtocolRun(seqs[0], 8, 1), register, s)
    sup = np.zeros((3, s, h, h, s, h, h), dtype=complex)
    for a in range(2):
        for u in range(s):
            k = kraus[:, a, u]
            sup[:, (u + a) % s, :, :, u] += np.einsum("pij,pkl->pikjl", k, k.conj())
    want = b @ sup.reshape(3, s * h * h, -1) @ b.conj().T
    assert np.max(np.abs(want.imag)) <= 1e-15
    assert np.max(np.abs(engine._real_superoperator(kraus) - want.real)) <= 1e-15


def test_powered_channel_peak_memory_at_the_blockade_sweep_shape():
    """``sweep-blockade``'s chunk, 21 points of 2 parity blocks of 4 x 4
    (n = 32), powered over 1000 repetitions: a real S is half the size of
    the complex one, and the peak stays at or below the 684 KiB of
    squaring the complex S."""
    register = shipped_register("c3_c4_c8.yaml")
    seqs = [pulsepol_for_period(t, harmonic=11) for t in np.linspace(25.4, 27.0, 21)]
    _, kraus = engine._kraus_stack(seqs, ProtocolRun(seqs[0], 8, 1000), register, 2)
    start = engine._thermal(8, 21, 2)
    assert kraus.shape == (21, 2, 2, 4, 4)
    engine._power(kraus, start, 1000)
    tracemalloc.start()
    try:
        engine._power(kraus, start, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 684 * 1024


#: (d, sectors, repetitions): whether the powered sweep was the faster, timed
#: on 21 ideal PulsePol points (6.6-7.2 us, 4 periods per repetition) of the
#: first log2(d) ``register27`` nuclei, in-process, best of 3-5, BLAS on one
#: thread, 2-core Intel Xeon, with S squared in real coordinates (which made
#: (16, 1, 2048) and (16, 2, 300) powered). (8, 2, 1000) is ``sweep-blockade``'s
#: shape and (128, 2, 20) ``sweep-register7``'s (not timed: S would be 2^26
#: entries). Cells the timing could not separate over three or four runs
#: (d = 16 at R = 1000 on one sector, d = 4 at R = 5 on one sector and d = 8
#: at R = 5 on blocks) are left out.
CROSSOVER_GRID = {
    (2, 1, 10): True, (4, 1, 10): True, (8, 1, 20): False, (8, 1, 60): False,
    (8, 1, 100): True, (8, 1, 1000): True, (16, 1, 2048): True, (16, 1, 4000): True,
    (2, 2, 10): True, (4, 2, 10): True, (8, 2, 10): True, (8, 2, 20): True,
    (8, 2, 60): True, (8, 2, 1000): True, (16, 2, 20): False, (16, 2, 100): False,
    (16, 2, 300): True, (16, 2, 600): True, (16, 2, 1000): True, (128, 2, 20): False,
}


def test_powered_rule_picks_the_faster_path_on_the_timed_grid():
    """A loop repetition is priced per entry of the state's blocks plus a
    fixed overhead, and the build of S per entry of its block products, so
    the rule follows the timings on both sides of each crossover, where the
    squarings alone would power d = 8 at R = 60 on one sector."""
    got = {cell: engine._powered(cell[0], cell[2], cell[1]) for cell in CROSSOVER_GRID}
    assert got == CROSSOVER_GRID


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
        assert engine._powered(d, 20, 2) == (d == 8)
        whole = sweep_trace(pulsepol_for_period, register, periods, 4, 20)
        for split_budget in (1, budget):
            monkeypatch.setattr(linalg, "CHUNK_BYTES", split_budget)
            split = sweep_trace(pulsepol_for_period, register, periods, 4, 20)
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
