"""Stroboscopic eigenphase spectra and avoided-crossing detection."""
from __future__ import annotations

import numpy as np
import pytest

from dnpsim import (
    compute_spectrum,
    effective_params,
    find_crossings,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    write_spectrum_csv,
)
from dnpsim import floquet
from dnpsim.errors import ValidationError, ValidityWarning

from conftest import LARMOR, make_register


@pytest.fixture(scope="module")
def c21_spectrum():
    reg = make_register("C21")
    omega = precession_frequency(reg.nuclei[0], LARMOR)
    t_r = resonant_period(omega)
    periods = np.linspace(t_r - 0.12, t_r + 0.12, 41)
    return reg, t_r, compute_spectrum(pulsepol_for_period, reg, periods)


def test_spectrum_shapes(c21_spectrum):
    reg, _, spec = c21_spectrum
    assert spec.phases.shape == (41, 4)
    assert spec.vectors.shape == (41, 4, 4)
    assert spec.register is reg
    assert np.all(np.isfinite(spec.phases))


def test_branches_stay_continuous(c21_spectrum):
    _, _, spec = c21_spectrum
    steps = np.abs(np.diff(spec.phases, axis=0))
    assert np.max(steps) < 0.1  # no branch swaps even through the crossing


def test_single_spin_crossing_position_and_gap(c21_spectrum):
    reg, t_r, spec = c21_spectrum
    crossings = find_crossings(spec, gap_threshold=0.5)
    assert len(crossings) == 1
    cr = crossings[0]
    assert cr.period == pytest.approx(t_r, abs=5e-4)
    g = effective_params(reg.nuclei[0], LARMOR, t_r).g
    # the avoided-crossing phase gap is the flip-flop splitting over one period
    assert cr.gap == pytest.approx(2 * g * t_r, rel=1e-3)
    labels = [label for label, _ in cr.participants]
    assert labels == ["C21"]
    assert cr.participants[0][1] == pytest.approx(1 / np.sqrt(2), abs=0.05)


def test_gap_threshold_filters(c21_spectrum):
    _, _, spec = c21_spectrum
    assert find_crossings(spec, gap_threshold=0.01) == ()
    with pytest.raises(ValidationError):
        find_crossings(spec, gap_threshold=0.0)


def test_high_participation_cut_drops_crossing(c21_spectrum):
    _, _, spec = c21_spectrum
    assert find_crossings(spec, gap_threshold=0.5, participation_min=0.99) == ()


def test_blockade_pair_suppresses_bare_weak_spin_crossing():
    """Next to a strongly coupled neighbour the weak spin loses its own
    bright crossing; what remains near the bare period is the neighbour's."""
    reg = make_register("C3", "C21")
    bare = resonant_period(precession_frequency(reg.nucleus("C21"), LARMOR))
    periods = np.linspace(bare - 0.28, bare + 0.23, 52)
    spec = compute_spectrum(pulsepol_for_period, reg, periods)
    crossings = find_crossings(spec, gap_threshold=0.8, participation_min=0.05)
    assert crossings
    for cr in crossings:
        weights = dict(cr.participants)
        assert weights.get("C21", 0.0) < 0.3  # alone, this weight is ~0.71
        assert weights.get("C3", 0.0) > weights.get("C21", 0.0)


def test_blockade_pair_leaves_mixed_crossing_in_displaced_window():
    reg = make_register("C3", "C21")
    periods = np.linspace(5.4, 6.2, 81)
    spec = compute_spectrum(pulsepol_for_period, reg, periods)
    crossings = find_crossings(spec, gap_threshold=0.8, participation_min=0.05)
    # the transfer resonance the engine finds near 5.72 shows up as a
    # narrow mixed-character anticrossing in the same neighbourhood
    near = [cr for cr in crossings if 5.6 <= cr.period <= 5.85]
    assert near
    assert min(cr.gap for cr in near) < 0.05


def test_stitching_warns_once_at_the_depth_cap(monkeypatch):
    """Three points across the C21 crossing leave both intervals below the
    overlap threshold; with refinement switched off both are accepted at
    the cap, and one warning reports them."""
    reg = make_register("C21")
    t_r = resonant_period(precession_frequency(reg.nuclei[0], LARMOR))
    monkeypatch.setattr(floquet, "MAX_REFINE_DEPTH", 0)
    with pytest.warns(ValidityWarning) as record:
        compute_spectrum(pulsepol_for_period, reg, np.linspace(t_r - 0.12, t_r + 0.12, 3))
    assert len(record) == 1
    message = str(record[0].message)
    assert message.startswith("2 stitch interval(s) reached refinement depth 0")
    assert "overlap down to 0.78" in message


def test_spectrum_csv(tmp_path, c21_spectrum):
    _, _, spec = c21_spectrum
    out = tmp_path / "spec.csv"
    write_spectrum_csv(spec, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_us,period_us," + ",".join(f"branch_{i}" for i in range(4))
    assert len(lines) == 42
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == pytest.approx(row[1] / 4)
