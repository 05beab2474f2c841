"""Closed-form transfer, satellite-dip and resonance-displacement formulas."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnpsim import (
    blockade_pair,
    effective_params,
    excitation_manifold,
    optimal_pulse_count,
    polarisation_ceiling,
    precession_frequency,
    resonant_period,
    side_dips,
    single_spin_polarisation,
)
from dnpsim.errors import DegenerateSpins, ValidationError, ZeroCoupling

from conftest import LARMOR, make_register

G_COEFF = (math.sqrt(2.0) + 2.0) / (6.0 * math.pi)


def params_for(label, period=None, harmonic=3):
    reg = make_register(label)
    spin = reg.nuclei[0]
    if period is None:
        period = resonant_period(precession_frequency(spin, LARMOR), harmonic)
    return effective_params(spin, LARMOR, period, harmonic)


def pair_for(strong, weak, harmonic=3):
    """The blockade pair of two labels at the weak spin's resonant period."""
    target = params_for(weak, harmonic=harmonic)
    return blockade_pair(params_for(strong, target.period, harmonic), target)


def test_effective_params_on_resonance():
    p = params_for("C3")
    assert p.label == "C3"
    assert p.omega_i == pytest.approx(2.7525843, abs=1e-6)
    assert p.detuning == pytest.approx(0.0, abs=1e-12)
    assert p.g == pytest.approx(0.0673852, abs=1e-6)
    assert p.harmonic == 3


def test_coupling_scales_with_transverse_component():
    for label in ("C3", "C16", "C21", "C25"):
        reg = make_register(label)
        spin = reg.nuclei[0]
        p = params_for(label)
        assert p.g == pytest.approx(G_COEFF * spin.a_perp, rel=1e-9)


def test_detuning_sign_convention():
    # shrinking the period raises the protocol frequency past the spin
    p = params_for("C3", period=6.6)
    q = params_for("C3", period=7.1)
    assert p.detuning < 0 < q.detuning
    assert p.detuning == pytest.approx(p.omega_i - 6 * math.pi / 6.6, rel=1e-12)


def test_silent_harmonics_warn_and_vanish():
    for k in (2, 5):
        with pytest.warns(ZeroCoupling):
            p = params_for("C3", harmonic=k)
        assert p.g == pytest.approx(0.0, abs=1e-15)


def test_off_harmonic_coupling_ratio():
    # the odd-harmonic weight falls off as 3/k between the k=3 and k=11 lines
    p3 = params_for("C3", harmonic=3)
    p11 = params_for("C3", harmonic=11)
    assert p11.g / p3.g == pytest.approx(3.0 / 11.0, rel=1e-9)


def test_transfer_formula_values():
    p = params_for("C3", period=6.9)
    omega_r = math.hypot(p.detuning, 2 * p.g)
    for n in (1, 4, 9):
        expected = (2 * p.g / omega_r) ** 2 * math.sin(omega_r * n * p.period / 2) ** 2
        assert single_spin_polarisation(p, n) == pytest.approx(expected, rel=1e-12)


def test_transfer_bounds_and_ceiling():
    p = params_for("C3", period=6.9)
    ceiling = polarisation_ceiling(p)
    assert 0 < ceiling < 1
    omega_r = math.hypot(p.detuning, 2 * p.g)
    assert ceiling == pytest.approx((2 * p.g / omega_r) ** 2, rel=1e-12)
    for n in range(1, 30):
        assert 0.0 <= single_spin_polarisation(p, n) <= ceiling + 1e-12


def test_optimal_pulse_count_anchors():
    assert optimal_pulse_count(params_for("C3")) == 3
    assert optimal_pulse_count(params_for("C21")) == 40


def test_side_dip_anchor_positions():
    p = params_for("C3")
    dips = side_dips(p, 4)
    assert [d.order for d in dips] == [1, 2, 3]
    expected = {
        1: (6.370055, 7.293089),
        2: (5.741788, 7.921355),
        3: (5.154666, 8.508477),
    }
    for d in dips:
        lo, hi = expected[d.order]
        assert d.lower == pytest.approx(lo, abs=1e-5)
        assert d.upper == pytest.approx(hi, abs=1e-5)


def test_side_dips_drop_swallowed_orders():
    p = params_for("C3")
    # at 40 periods the first-order satellites sit inside the linewidth
    dips = side_dips(p, 40, orders=(1, 8))
    assert [d.order for d in dips] == [8]
    with pytest.raises(ValidationError):
        side_dips(p, 0)


def test_blockade_shift_anchors():
    down = pair_for("C3", "C21")
    up = pair_for("C3", "C16")
    assert down.ratio == pytest.approx(-0.1487411, abs=1e-6)
    assert up.ratio == pytest.approx(0.0804136, abs=1e-6)
    assert down.weak.resonant_period == pytest.approx(6.875765, abs=1e-5)
    assert up.weak.resonant_period == pytest.approx(6.797659, abs=1e-5)
    assert down.shifted_period == pytest.approx(
        down.weak.resonant_period * (1 + down.ratio), rel=1e-12
    )
    # a blockade spin below the target in frequency pushes the dip up instead
    assert up.shifted_period > up.weak.resonant_period


def test_blockade_shift_rejects_degenerate_pair():
    reg = make_register("C4", "C8")
    c4, c8 = reg.nuclei
    near = c4.__class__(label="C4b", a_parallel=c4.a_parallel, a_perp=c4.a_perp)
    period = resonant_period(precession_frequency(near, LARMOR))
    with pytest.raises(DegenerateSpins):
        blockade_pair(effective_params(c4, LARMOR, period), effective_params(near, LARMOR, period))
    # C4 and C8 are close but sit just outside the guard band
    assert pair_for("C4", "C8").ratio != 0


def test_blockade_pair_requires_common_period():
    reg = make_register("C3", "C21")
    c3, c21 = reg.nuclei
    a = effective_params(c3, LARMOR, 6.8)
    b = effective_params(c21, LARMOR, 6.9)
    with pytest.raises(ValidationError):
        blockade_pair(a, b)


def test_blockade_rabi_attenuation():
    pair = pair_for("C3", "C21")
    bare = 2 * pair.weak.g
    assert pair.rabi == pytest.approx(bare * math.sin(pair.theta_p / 2), rel=1e-12)
    # deep in the blockade the mixing angle tends to pi/2, so the width
    # settles near 1/sqrt(2) of the bare splitting rather than collapsing
    assert 0.5 * bare < pair.rabi < bare
    assert pair.rabi == pytest.approx(0.0077, abs=0.0005)


def test_shifted_crossing_anchors():
    assert pair_for("C3", "C21").crossing_frequency == pytest.approx(3.1492146, abs=1e-6)
    assert pair_for("C3", "C16").crossing_frequency == pytest.approx(2.5499653, abs=1e-6)


@pytest.mark.parametrize("strong, weak", [("C3", "C21"), ("C3", "C16"), ("C4", "C8")])
def test_crossing_period_is_the_exact_form_of_the_shift(strong, weak):
    """2 pi k / crossing_frequency is T_r / (1 - ratio) exactly, and the
    first-order shifted_period falls short of it by T_r ratio^2 / (1 - ratio)."""
    pair = pair_for(strong, weak)
    t_r, ratio = pair.weak.resonant_period, pair.ratio
    exact = 2 * math.pi * pair.weak.harmonic / pair.crossing_frequency
    assert exact == pytest.approx(t_r / (1 - ratio), rel=1e-12)
    assert (exact - pair.shifted_period) / t_r == pytest.approx(ratio**2 / (1 - ratio), rel=1e-12)


def crossing_pair():
    """C3 and C21 at the period where C21's blockaded line crosses."""
    reg = make_register("C3", "C21")
    period = 6 * math.pi / pair_for("C3", "C21").crossing_frequency
    return [effective_params(spin, LARMOR, period) for spin in reg.nuclei]


def test_manifold_of_a_pair_is_the_three_level_matrix():
    """Ordered (strong flip, electron flip, weak flip), the two-spin manifold
    is the blockade matrix with dm = delta_B - delta_t, dp = delta_B + delta_t."""
    strong, weak = crossing_pair()
    manifold = excitation_manifold([strong, weak])
    big_g, small_g = strong.g, weak.g
    dm, dp = strong.detuning - weak.detuning, strong.detuning + weak.detuning
    three_level = np.array(
        [[-dm / 2, big_g, 0.0], [big_g, dp / 2, small_g], [0.0, small_g, dm / 2]]
    )
    order = [1, 0, 2]
    h = manifold.hamiltonian[np.ix_(order, order)]
    np.testing.assert_allclose(h, three_level, rtol=0, atol=1e-14)
    np.testing.assert_allclose(manifold.energies, np.linalg.eigvalsh(three_level), atol=1e-14)
    assert np.all(np.diff(manifold.energies) >= 0)
    np.testing.assert_allclose(
        manifold.hamiltonian @ manifold.states, manifold.states * manifold.energies, atol=1e-14
    )


def test_manifold_levels_cross_at_the_crossing_frequency():
    strong, weak = crossing_pair()
    bare = excitation_manifold([strong, weak._replace(g=0.0)]).energies
    w = math.hypot(strong.detuning, 2 * strong.g)
    dm = strong.detuning - weak.detuning
    expected = np.sort([(weak.detuning - w) / 2, (weak.detuning + w) / 2, dm / 2])
    np.testing.assert_allclose(bare, expected, atol=1e-14)
    # at the shifted crossing two unperturbed levels coincide
    assert np.min(np.diff(bare)) == pytest.approx(0.0, abs=1e-9)


def test_manifold_of_one_spin_splits_by_the_rabi_frequency():
    p = params_for("C3", period=6.9)
    energies = excitation_manifold([p]).energies
    assert energies[1] - energies[0] == pytest.approx(math.hypot(p.detuning, 2 * p.g), abs=1e-12)


def test_manifold_of_an_equal_pair_has_a_dark_mode():
    """The antisymmetric flip has no electron amplitude; the symmetric one is
    bright and splits with the collective rate sqrt(2) g."""
    p = params_for("C21", period=6.9)
    manifold = excitation_manifold([p, p])
    dark = np.argmin(np.abs(manifold.states[0]))
    assert manifold.states[0, dark] == pytest.approx(0.0, abs=1e-12)
    nuclear = manifold.states[1:, dark] * np.sign(manifold.states[2, dark])
    np.testing.assert_allclose(nuclear, np.array([-1.0, 1.0]) / math.sqrt(2), atol=1e-12)
    lo, hi = np.delete(manifold.energies, dark)
    assert hi - lo == pytest.approx(math.hypot(p.detuning, 2 * math.sqrt(2) * p.g), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0))
def test_manifold_dark_mode_is_scale_free(scale):
    """At a common detuning the dark mode is (g2, -g1) / hypot(g1, g2),
    whatever the common scale of the couplings."""
    base = params_for("C3", period=6.9)
    other = params_for("C21", period=6.9)._replace(detuning=base.detuning)
    g1, g2 = base.g * scale, other.g * scale
    states = excitation_manifold(
        [base._replace(g=g1), other._replace(g=g2)]
    ).states
    dark = np.argmin(np.abs(states[0]))
    assert states[0, dark] == pytest.approx(0.0, abs=1e-12)
    expected = np.array([g2, -g1]) / math.hypot(g1, g2)
    assert abs(states[1:, dark] @ expected) == pytest.approx(1.0, abs=1e-12)


def test_a_decoupled_spin_leaves_the_rest_of_the_manifold_shifted():
    """With C8's coupling off at k = 11, C3/C4/C8 holds C8's bare flip at
    c - delta_C8 and the C3/C4 levels raised by delta_C8 / 2."""
    c4_c8 = pair_for("C4", "C8", harmonic=11)
    c3 = params_for("C3", period=c4_c8.weak.period, harmonic=11)
    c8 = c4_c8.weak._replace(g=0.0)
    triple = excitation_manifold([c3, c4_c8.strong, c8])
    pair = excitation_manifold([c3, c4_c8.strong]).energies
    bare = 0.5 * (c3.detuning + c4_c8.strong.detuning + c8.detuning) - c8.detuning
    expected = np.sort(np.append(pair + c8.detuning / 2, bare))
    np.testing.assert_allclose(triple.energies, expected, rtol=0, atol=1e-12)


def test_manifold_requires_a_common_period():
    with pytest.raises(ValidationError, match="common period"):
        excitation_manifold([params_for("C3", period=6.8), params_for("C21", period=6.9)])
    with pytest.raises(ValidationError, match="common period"):
        excitation_manifold([params_for("C3", 6.9), params_for("C21", 6.9, harmonic=11)])
    with pytest.raises(ValidationError):
        excitation_manifold([])
