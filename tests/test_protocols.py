"""Sequence construction, modulation functions and the averaged generator."""
from __future__ import annotations

import math

import numpy as np
import pytest

from dnpsim import (
    EventKind,
    Finite,
    PulseEvent,
    PulseSequence,
    average_hamiltonian_numeric,
    build_operators,
    cpmg_for_period,
    cpmg_sequence,
    free_sequence,
    is_unitary,
    modulation_functions,
    period_unitary,
    precession_frequency,
    pulsepol_for_period,
    pulsepol_sequence,
    resonant_period,
)
from dnpsim import protocols
from dnpsim.errors import InvalidTau, NotIdealPulses, NotUnitary, ValidationError, ValidityWarning

from conftest import LARMOR, make_register

G_COEFF = (math.sqrt(2.0) + 2.0) / (6.0 * math.pi)


def test_polarisation_period_structure():
    seq = pulsepol_sequence(1.7)
    assert seq.label == "pulsepol"
    assert seq.period == pytest.approx(4 * 1.7)
    kinds = [e.kind for e in seq.events]
    assert kinds.count(EventKind.ROTATION) == 16
    assert kinds.count(EventKind.FREE_EVOLUTION) == 8
    free_total = sum(e.duration for e in seq.events if e.kind is EventKind.FREE_EVOLUTION)
    assert free_total == pytest.approx(seq.period)  # ideal pulses take no time
    assert seq.is_ideal()


def test_refocusing_period_structure():
    seq = cpmg_sequence(0.9)
    assert seq.label == "cpmg"
    assert seq.period == pytest.approx(1.8)
    kinds = [e.kind for e in seq.events]
    assert kinds.count(EventKind.ROTATION) == 2
    assert kinds.count(EventKind.FREE_EVOLUTION) == 4


def test_for_period_helpers():
    assert pulsepol_for_period(6.8).period == pytest.approx(6.8)
    assert pulsepol_for_period(6.8).harmonic == 3
    assert cpmg_for_period(4.2, harmonic=1).period == pytest.approx(4.2)


def test_invalid_tau():
    with pytest.raises(InvalidTau):
        pulsepol_sequence(0.0)
    with pytest.raises(InvalidTau):
        cpmg_sequence(-1.0)
    with pytest.raises(InvalidTau):
        free_sequence(-0.1)
    for bad in (math.nan, math.inf):
        for build in (pulsepol_sequence, cpmg_sequence, free_sequence, modulation_functions):
            with pytest.raises(InvalidTau, match="finite"):
                build(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_event_fields_are_rejected(bad):
    with pytest.raises(ValidationError, match="duration"):
        PulseEvent(EventKind.FREE_EVOLUTION, duration=bad)
    with pytest.raises(ValidationError, match="angle/phase"):
        PulseEvent(EventKind.ROTATION, angle=bad, phase=0.0)
    with pytest.raises(ValidationError, match="angle/phase"):
        PulseEvent(EventKind.ROTATION, angle=math.pi, phase=bad)
    with pytest.raises(ValidationError, match="period"):
        PulseSequence(events=(), period=bad, harmonic=1, label="free")
    with pytest.raises(ValidationError, match="rabi"):
        Finite(rabi=bad)


def test_finite_pulses_must_fit():
    # a pi/2 pulse at rabi=1 rad/us lasts pi/2 us, far longer than tau/4
    with pytest.raises(InvalidTau):
        pulsepol_sequence(0.5, Finite(rabi=1.0))


def test_finite_sequence_keeps_period():
    seq = pulsepol_sequence(1.7, Finite(rabi=500.0))
    assert not seq.is_ideal()
    total = sum(e.duration for e in seq.events)
    assert total == pytest.approx(seq.period)


def test_period_unitary_is_unitary(reg_c3_c21):
    for period in (5.6, 6.85, 7.4):
        u = period_unitary(pulsepol_for_period(period), reg_c3_c21)
        assert is_unitary(u, tol=1e-10)


@pytest.mark.parametrize("rabi", [None, 500.0], ids=["ideal", "finite"])
def test_period_unitary_rejects_a_non_finite_map(reg_c3, monkeypatch, rabi):
    monkeypatch.setattr(
        protocols, "free_propagator", lambda register, t: np.full((4, 4), np.nan + 0j)
    )
    with pytest.raises(NotUnitary):
        period_unitary(pulsepol_for_period(6.8, rabi=rabi), reg_c3)


def test_finite_pulses_converge_to_ideal(reg_c3):
    target = period_unitary(pulsepol_for_period(6.85), reg_c3)
    devs = []
    for rabi in (80.0, 320.0, 1280.0):
        seq = pulsepol_sequence(6.85 / 4, Finite(rabi=rabi))
        devs.append(np.max(np.abs(period_unitary(seq, reg_c3) - target)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3


def test_weak_drive_warns(reg_c3):
    # C3's transverse coupling is ~0.372 rad/us; 100x that is the guard line
    seq = pulsepol_sequence(6.85 / 4, Finite(rabi=30.0))
    with pytest.warns(ValidityWarning):
        period_unitary(seq, reg_c3)


def test_strong_drive_does_not_warn(recwarn, reg_c3):
    seq = pulsepol_sequence(6.85 / 4, Finite(rabi=80.0))
    period_unitary(seq, reg_c3)
    assert not [w for w in recwarn if issubclass(w.category, ValidityWarning)]


def test_modulation_window_values():
    mf = modulation_functions(2.0)
    # first quarter: f1 = +1, f2 = 0; third quarter: f1 = -1
    assert mf.f1(np.array([0.5]))[0] == pytest.approx(1.0)
    assert mf.f2(np.array([0.5]))[0] == pytest.approx(0.0)
    assert mf.f1(np.array([4.5]))[0] == pytest.approx(-1.0)
    t = np.linspace(0.0, 8.0, 4001)
    f1, f2 = mf.f1(t), mf.f2(t)
    assert set(np.unique(f1)) <= {-1.0, 0.0, 1.0}
    # the two windows never overlap and jointly cover the period
    assert np.all(np.abs(f1) + np.abs(f2) >= 1 - 1e-12)
    assert np.max(np.abs(f1 * f2)) == pytest.approx(0.0)


def test_fourier_coefficients_match_quadrature():
    tau = 1.7
    mf = modulation_functions(tau)
    period = 4 * tau
    t = (np.arange(200_000) + 0.5) * (period / 200_000)
    for k in range(1, 22):
        w = 2 * math.pi * k / period
        ref_a1 = 2 * np.mean(mf.f1(t) * np.cos(w * t))
        ref_b1 = 2 * np.mean(mf.f1(t) * np.sin(w * t))
        ref_a2 = 2 * np.mean(mf.f2(t) * np.cos(w * t))
        ref_b2 = 2 * np.mean(mf.f2(t) * np.sin(w * t))
        coeff = mf.fourier(k)
        assert coeff.a1 == pytest.approx(ref_a1, abs=1e-8)
        assert coeff.b1 == pytest.approx(ref_b1, abs=1e-8)
        assert coeff.a2 == pytest.approx(ref_a2, abs=1e-8)
        assert coeff.b2 == pytest.approx(ref_b2, abs=1e-8)


def test_fourier_selection_rule():
    mf = modulation_functions(1.0)
    for k in (2, 4, 6, 1, 5, 9):  # even harmonics and the 4m+1 family carry no weight
        coeff = mf.fourier(k)
        assert abs(coeff.a1 + coeff.b1) == pytest.approx(0.0, abs=1e-12)
    for k in (3, 7, 11):
        assert abs(mf.fourier(k).a1 + mf.fourier(k).b1) > 0.05


def test_coefficient_table_matches_single_calls():
    mf = modulation_functions(1.3)
    table = mf.coefficient_table(9)
    assert table.shape == (9, 4)
    for k, row in enumerate(table, start=1):
        assert tuple(row) == tuple(mf.fourier(k))


def test_partial_sum_converges_pointwise():
    mf = modulation_functions(2.0)
    # stay away from the switching instants, where the series rings
    t = np.array([0.7, 1.3, 2.7, 4.6, 6.9])
    approx = mf.partial_sum(t, 201, which=1)
    assert np.max(np.abs(approx - mf.f1(t))) < 0.02


def test_averaged_generator_reproduces_flip_flop_rate(reg_c3):
    spin = reg_c3.nuclei[0]
    omega = precession_frequency(spin, LARMOR)
    seq = pulsepol_for_period(resonant_period(omega))
    ops = build_operators(reg_c3)
    h = average_hamiltonian_numeric(seq, reg_c3)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    flip = ops.electron.plus @ ops.nuclei[0].minus
    g_num = abs(np.trace(flip.conj().T @ h))
    assert g_num == pytest.approx(G_COEFF * spin.a_perp, rel=1e-3)


def test_averaged_generator_detuning_term(reg_c3):
    spin = reg_c3.nuclei[0]
    omega = precession_frequency(spin, LARMOR)
    seq = pulsepol_for_period(resonant_period(omega))
    ops = build_operators(reg_c3)
    offset = 0.013
    h = average_hamiltonian_numeric(seq, reg_c3, frame_frequency=omega - offset)
    cz = np.real(np.trace(h @ ops.nuclei[0].z)) / np.real(
        np.trace(ops.nuclei[0].z @ ops.nuclei[0].z)
    )
    assert cz == pytest.approx(offset, rel=1e-9)


def test_averaged_generator_requires_ideal_polarisation_block(reg_c3):
    with pytest.raises(NotIdealPulses):
        average_hamiltonian_numeric(cpmg_sequence(1.7), reg_c3)
    with pytest.raises(NotIdealPulses):
        average_hamiltonian_numeric(pulsepol_sequence(1.7, Finite(rabi=500.0)), reg_c3)


def test_resonant_period_definition():
    assert resonant_period(2.0, harmonic=3) == pytest.approx(3 * math.pi)
    assert resonant_period(2.0, harmonic=1) == pytest.approx(math.pi)
