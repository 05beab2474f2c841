"""Stroboscopic eigenphase spectra and avoided-crossing detection."""
from __future__ import annotations

import numpy as np
import pytest

from dnpsim import (
    compute_spectrum,
    effective_params,
    find_crossings,
    load_register_file,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    write_spectrum_csv,
)
import reference_floquet as ref
from dnpsim import floquet
from dnpsim.errors import ValidationError, ValidityWarning

from conftest import CONFIG_DIR, LARMOR, make_register


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
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="gap_threshold"):
            find_crossings(spec, gap_threshold=bad)


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


@pytest.fixture(scope="module")
def five_spin_spectrum():
    table = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    register = table.subset(["C3", "C1", "C4", "C5", "C8"])
    return compute_spectrum(pulsepol_for_period, register, np.linspace(6.6, 7.2, 61))


def assert_same_crossings(got, want):
    """Same branch pairs and participants; periods, gaps and weights to 1e-9.

    Crossings whose periods differ by rounding may come in either order,
    so both lists are compared sorted by branch pair, then period."""
    def key(c):
        return c.branch_a, c.branch_b, c.period

    assert len(got) == len(want)
    for g, w in zip(sorted(got, key=key), sorted(want, key=key)):
        assert (g.branch_a, g.branch_b) == (w.branch_a, w.branch_b)
        assert g.period == pytest.approx(w.period, abs=1e-9)
        assert g.gap == pytest.approx(w.gap, abs=1e-9)
        assert [label for label, _ in g.participants] == [label for label, _ in w.participants]
        for (_, gw), (_, ww) in zip(g.participants, w.participants):
            assert gw == pytest.approx(ww, abs=1e-9)


@pytest.mark.parametrize("threshold, participation", [(0.5, 0.2), (2.0, 0.05)])
def test_crossings_match_loop_reference_single_spin(c21_spectrum, threshold, participation):
    _, _, spec = c21_spectrum
    got = floquet.find_crossings(spec, threshold, participation)
    assert_same_crossings(got, ref.find_crossings(spec, threshold, participation))
    assert [c.period for c in got] == sorted(c.period for c in got)


def test_crossings_match_loop_reference_five_spins(five_spin_spectrum):
    got = find_crossings(five_spin_spectrum, gap_threshold=0.2)
    assert len(got) > 100
    assert_same_crossings(got, ref.find_crossings(five_spin_spectrum, 0.2))
    keys = [(c.period, c.branch_a, c.branch_b) for c in got]
    assert keys == sorted(keys)


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("seed", range(6))
def test_greedy_match_near_identity(seed):
    """Neighbouring eigenbases: every row's best overlap clears 1/sqrt(2)."""
    rng = np.random.default_rng(seed)
    prev = _random_unitary(16, rng)
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    drift = (v * np.exp(-0.05j * w)) @ v.conj().T
    nxt = (prev @ drift)[:, rng.permutation(16)] * np.exp(1j * rng.uniform(0, 6, 16))
    assert np.all(np.abs(prev.conj().T @ nxt).max(axis=1) > np.sqrt(0.5))
    perm, worst = floquet._greedy_match(prev, nxt)
    want_perm, want_worst = ref.greedy_match(prev, nxt)
    assert np.array_equal(perm, want_perm)
    assert worst == want_worst


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_match_with_rows_below_one_over_root_two(seed):
    """Three branches mixed evenly: two rows' best overlaps share a column,
    and the greedy loop decides the order."""
    rng = np.random.default_rng(seed)
    prev = _random_unitary(8, rng)
    mix = np.eye(8, dtype=complex)
    mix[:3, :3] = np.array([[2, 2, 1], [2, -1, -2], [1, -2, 2]]) / 3
    tilt = np.linalg.qr(np.eye(8) + 0.02 * rng.normal(size=(8, 8)))[0]
    nxt = prev @ mix @ tilt
    overlap = np.abs(prev.conj().T @ nxt)
    assert overlap.max(axis=1).min() < np.sqrt(0.5)
    assert np.unique(overlap.argmax(axis=1)).size < 8
    perm, worst = floquet._greedy_match(prev, nxt)
    want_perm, want_worst = ref.greedy_match(prev, nxt)
    assert np.array_equal(perm, want_perm)
    assert worst == want_worst


def test_crossings_at_one_period_sort_by_branch_pair(c21_spectrum):
    """Three copies of the C21 crossing's two branches cross at exactly the
    same period; they come out ordered by (branch_a, branch_b)."""
    reg, _, spec = c21_spectrum
    (single,) = find_crossings(spec, gap_threshold=0.5)
    cols = [single.branch_a, single.branch_b] * 3
    copies = floquet.FloquetSpectrum(
        periods=spec.periods,
        phases=spec.phases[:, cols],
        vectors=spec.vectors[:, :, cols],
        register=reg,
    )
    got = find_crossings(copies, gap_threshold=0.5)
    assert {c.period for c in got} == {single.period}
    assert [(c.branch_a, c.branch_b) for c in got] == [
        (0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)
    ]
    assert_same_crossings(got, ref.find_crossings(copies, 0.5))


def test_gap_threshold_is_strict(c21_spectrum):
    """A minimum whose sampled gap equals the threshold is not a crossing."""
    _, _, spec = c21_spectrum
    (single,) = find_crossings(spec, gap_threshold=0.5)
    gap = floquet._circular_gap(spec.phases[:, single.branch_a] - spec.phases[:, single.branch_b])
    assert find_crossings(spec, gap_threshold=float(gap.min())) == ()
    assert len(find_crossings(spec, gap_threshold=float(np.nextafter(gap.min(), 1.0)))) == 1


def test_spectrum_is_the_same_with_two_workers(c21_spectrum):
    reg, t_r, _ = c21_spectrum
    periods = np.linspace(t_r - 0.12, t_r + 0.12, 9)
    serial = compute_spectrum(pulsepol_for_period, reg, periods, workers=1)
    pooled = compute_spectrum(pulsepol_for_period, reg, periods, workers=2)
    assert np.array_equal(serial.phases, pooled.phases)
    assert np.array_equal(serial.periods, pooled.periods)
