"""The nuclear-space Kraus loop against the joint-space reference engine."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as ref
from dnpsim import (
    DensityState,
    NuclearSpin,
    ProtocolRun,
    PulseSequence,
    SpinRegister,
    cpmg_for_period,
    load_register_file,
    period_unitary,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    run_protocol,
    sweep_trace,
)
from dnpsim import engine, linalg
from dnpsim.protocols import free_propagator
from dnpsim.errors import DimensionMismatch, NotUnitary

from conftest import CONFIG_DIR, LARMOR, SHIPPED_CONFIGS, shipped_register

TOL = 1e-10

registers = st.lists(
    st.tuples(st.floats(-0.4, 0.4), st.floats(0.0, 0.4)), min_size=1, max_size=3
).map(
    lambda rows: SpinRegister(
        larmor=LARMOR,
        nuclei=tuple(NuclearSpin(f"N{i}", a_par, a_perp) for i, (a_par, a_perp) in enumerate(rows)),
    )
)
# Finite pulses at 100 rad/us stay above 100x the largest a_perp drawn, so
# the period map emits no validity warning.
pulse_rabi = st.sampled_from([None, 100.0])
waits = st.one_of(st.just(0.0), st.floats(0.1, 5.0))


@st.composite
def runs(draw):
    return ProtocolRun(
        sequence=pulsepol_for_period(draw(st.floats(5.0, 8.0)), rabi=draw(pulse_rabi)),
        n_periods=draw(st.integers(1, 6)),
        repetitions=draw(st.integers(1, 20)),
        wait_us=draw(waits),
        reinit_state=draw(st.integers(0, 1)),
    )


def assert_matches(got, want):
    (state, history), (ref_state, ref_history) = got, want
    assert np.max(np.abs(history - ref_history)) <= TOL
    assert np.max(np.abs(state.rho - ref_state.rho)) <= TOL
    assert abs(np.trace(state.rho) - 1.0) <= TOL
    assert np.all(np.abs(history) <= 0.5 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(register=registers, run=runs())
def test_fresh_run_matches_reference(register, run):
    assert_matches(run_protocol(run, register), ref.run_protocol(run, register))


@settings(max_examples=30, deadline=None)
@given(register=registers, first=runs(), second=runs())
def test_run_from_previous_state_matches_reference(register, first, second):
    state, _ = run_protocol(first, register)
    assert_matches(run_protocol(second, register, state), ref.run_protocol(second, register, state))


@settings(max_examples=30, deadline=None)
@given(register=registers, run=runs(), seed=st.integers(0, 2**32 - 1))
def test_joint_start_state_matches_reference(register, run, seed):
    """A start state with electron coherence is not in reset-product form."""
    rng = np.random.default_rng(seed)
    dim = register.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    state = DensityState(rho=rho / np.trace(rho), register=register)
    assert_matches(run_protocol(run, register, state), ref.run_protocol(run, register, state))


@settings(max_examples=20, deadline=None)
@given(
    register=registers,
    periods=st.lists(st.floats(5.0, 8.0), min_size=2, max_size=4),
    n_periods=st.integers(1, 6),
    repetitions=st.integers(1, 20),
    wait_us=waits,
    reinit_state=st.integers(0, 1),
    rabi=pulse_rabi,
)
def test_sweep_matches_per_point_reference(
    register, periods, n_periods, repetitions, wait_us, reinit_state, rabi
):
    def builder(t):
        return pulsepol_for_period(t, rabi=rabi)

    trace = sweep_trace(
        builder, register, np.array(periods), n_periods, repetitions, wait_us, reinit_state
    )
    for t, values in zip(periods, trace.values):
        run = ProtocolRun(builder(t), n_periods, repetitions, wait_us, reinit_state)
        _, history = ref.run_protocol(run, register)
        assert np.max(np.abs(values - history[-1])) <= TOL
    assert np.all(np.abs(trace.values) <= 0.5 + 1e-12)


def test_sweep_chunks_do_not_change_the_trace(monkeypatch):
    periods = np.linspace(6.6, 7.0, 9)
    # At 5 repetitions two nuclei (d = 4) take the powered path and three
    # (d = 8) the loop. The first budget gives one point per chunk on both
    # paths; the second splits the 9 points into powered chunks of 3, or
    # into loop chunks of 4 whose period maps are built one at a time.
    for config, budget in (("c3_c21.yaml", 100_000), ("c3_c4_c8.yaml", 50_000)):
        register = shipped_register(config)
        assert engine._powered(register.dim // 2, 5) == (config == "c3_c21.yaml")
        whole = sweep_trace(pulsepol_for_period, register, periods, 4, 5, wait_us=1.0)
        for split_budget in (1, budget):
            monkeypatch.setattr(linalg, "CHUNK_BYTES", split_budget)
            split = sweep_trace(pulsepol_for_period, register, periods, 4, 5, wait_us=1.0)
            assert np.max(np.abs(whole.values - split.values)) <= 1e-12
        monkeypatch.undo()


def test_incomplete_kraus_pair_is_caught(reg_c3_c21, monkeypatch):
    run = ProtocolRun(pulsepol_for_period(6.8), n_periods=4, repetitions=3)
    _, kraus = engine._kraus_stack([run.sequence], run, reg_c3_c21)
    engine._check_completeness(kraus)
    bad = kraus.copy()
    bad[0, 0] += 1e-6 * np.eye(bad.shape[-1])
    with pytest.raises(NotUnitary):
        engine._check_completeness(bad)

    # a slightly non-unitary period map must stop both entry points
    real_period_unitary = engine.period_unitary
    monkeypatch.setattr(
        engine, "period_unitary", lambda seq, reg: real_period_unitary(seq, reg) * (1 + 1e-8)
    )
    with pytest.raises(NotUnitary):
        run_protocol(run, reg_c3_c21)
    with pytest.raises(NotUnitary):
        sweep_trace(pulsepol_for_period, reg_c3_c21, np.array([6.8, 6.9]), 4, 3)


def test_reference_checks_states_on_its_own(monkeypatch):
    """The oracle's state check is an eigvalsh test of its own: it keeps
    working with the engine's check switched off."""
    monkeypatch.setattr(engine, "_check_states", lambda rho: None)
    ref.check_state(np.diag([1 + 0.6e-9, -0.6e-9, 0, 0]).astype(complex))
    for rho in (
        np.diag([1 + 2e-9, -2e-9, 0, 0]),
        np.diag([1, np.nan, 0, 0]),
        np.diag([1 + 2e-9, 0, 0, 0]),
        np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) * 1e-6,
    ):
        with pytest.raises(AssertionError, match="^reference state"):
            ref.check_state(rho.astype(complex))


@pytest.mark.parametrize("reinit_state", [0, 1])
def test_wait_block_matches_reference(reinit_state):
    """The reset-state block of exp(-i H0 t), which the engine applies after
    each burst, is the nuclear wait propagator."""
    full = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    register = full.subset([s.label for s in full.nuclei[:7]])
    for wait_us in (0.3, 1.0, 5.5, 37.0):
        got = free_propagator(register, wait_us)[reinit_state]
        want = ref.wait_unitary(register, reinit_state, wait_us)
        assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("harmonic", [3, 11])
@pytest.mark.parametrize("builder", [pulsepol_for_period, cpmg_for_period])
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_block_period_map_matches_dense_product(config, builder, harmonic):
    """The eigenframe product of an ideal period, at k = 3 and 11, is the
    dense ordered product of its event propagators."""
    register = shipped_register(config)
    t_r = resonant_period(precession_frequency(register.nuclei[0], register.larmor), harmonic)
    for period in (t_r, 0.93 * t_r):
        seq = builder(period, harmonic=harmonic)
        want = ref.dense_period_unitary(seq, register)
        assert np.max(np.abs(period_unitary(seq, register) - want)) <= 1e-12


@pytest.mark.parametrize("harmonic", [3, 11])
@pytest.mark.parametrize("rabi", [300.0, 2000.0])
@pytest.mark.parametrize("builder", [pulsepol_for_period, cpmg_for_period])
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_finite_period_map_matches_dense_product(config, builder, rabi, harmonic):
    """The finite-pulse period map at k = 3 and 11, built as its
    half-period squared, is the dense ordered product of scipy exponentials."""
    register = shipped_register(config)
    t_r = resonant_period(precession_frequency(register.nuclei[0], register.larmor), harmonic)
    for period in (t_r, 0.93 * t_r):
        seq = builder(period, harmonic=harmonic, rabi=rabi)
        want = ref.dense_period_unitary(seq, register)
        assert np.max(np.abs(period_unitary(seq, register) - want)) <= 1e-12


@pytest.mark.parametrize("rabi", [None, 300.0])
def test_period_map_with_unequal_halves_matches_dense_product(rabi):
    """A period whose halves differ in one gap is multiplied out whole."""
    register = shipped_register("c3_c4_c8.yaml")
    first = pulsepol_for_period(6.8, rabi=rabi).events
    second = pulsepol_for_period(6.9, rabi=rabi).events
    half = len(first) // 2
    events = first[:half] + second[half:]
    seq = PulseSequence(events, sum(e.duration for e in events), 3, "uneven")
    want = ref.dense_period_unitary(seq, register)
    assert np.max(np.abs(period_unitary(seq, register) - want)) <= 1e-12


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_partial_trace_recovers_factors(seed):
    rng = np.random.default_rng(seed)
    r1 = random_density(2, rng)
    r2 = random_density(3, rng)
    rho = np.kron(r1, r2)
    assert np.allclose(ref.partial_trace(rho, (2, 3), 1), r1, atol=1e-12)
    assert np.allclose(ref.partial_trace(rho, (2, 3), 0), r2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(16)
    rho = random_density(8, rng)
    red = ref.partial_trace(rho, (2, 2, 2), 1)
    assert red.shape == (4, 4)
    assert np.isclose(np.trace(red), 1.0)


def test_partial_trace_rejects_bad_dims():
    rho = np.eye(6) / 6
    with pytest.raises(DimensionMismatch):
        ref.partial_trace(rho, (2, 2), 0)
    with pytest.raises(DimensionMismatch):
        ref.partial_trace(rho, (2, 3), 5)
