"""Stroboscopic eigenphase spectra and avoided-crossing detection."""
from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np
import pytest

from dnpsim import (
    EventKind,
    PulseEvent,
    PulseSequence,
    compute_spectrum,
    cpmg_for_period,
    effective_params,
    find_crossings,
    load_register_file,
    period_unitary,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    write_spectrum_csv,
)
import reference_floquet as ref
from dnpsim import floquet, linalg, protocols
from dnpsim.errors import NotUnitary, ValidationError, ValidityWarning
from dnpsim.protocols import conserved_parity

from conftest import CONFIG_DIR, LARMOR, SHIPPED_CONFIGS, make_register, shipped_register


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_participation_floor_must_be_finite(c21_spectrum, bad):
    """A nan floor would keep no participant and so drop every crossing."""
    _, _, spec = c21_spectrum
    with pytest.raises(ValidationError, match="^participation_min: must be finite"):
        find_crossings(spec, gap_threshold=0.5, participation_min=bad)


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


def test_grid_is_built_in_chunks(monkeypatch, c21_spectrum):
    """On a coarse 41-point grid around the C21 resonance, with chunks of
    8 points, the period map and the eigensolve run once per chunk, the
    bisection midpoints of one refinement level within a chunk are built
    together, every map is built and solved once, and the spectrum is the
    one-chunk spectrum."""
    reg, t_r, _ = c21_spectrum
    grid = np.linspace(t_r - 2.4, t_r + 2.4, 41)
    want = compute_spectrum(pulsepol_for_period, reg, grid)
    maps, eigs, matches = [], [], []
    real_map, real_eig, real_match = (
        floquet.period_roots, floquet.unitary_eigensolve, floquet._greedy_match
    )

    def count_maps(seqs, register):
        maps.append([seq.period for seq in seqs])
        return real_map(seqs, register)

    def count_eigs(u):
        eigs.append(len(u))
        return real_eig(u)

    def count_matches(prev, nxt):
        matches.append(1)
        return real_match(prev, nxt)

    monkeypatch.setattr(floquet, "period_roots", count_maps)
    monkeypatch.setattr(floquet, "unitary_eigensolve", count_eigs)
    monkeypatch.setattr(floquet, "_greedy_match", count_matches)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 8 * 8 * 16 * reg.dim**2)
    got = compute_spectrum(pulsepol_for_period, reg, grid)

    # Each bisection adds one midpoint and turns one stitch into two.
    midpoints = (len(matches) - (grid.size - 1)) // 2
    assert midpoints > 0
    chunks = [c for c in maps if c[0] in got.periods]
    assert [len(c) for c in chunks] == [8] * 5 + [1]
    assert np.array_equal([t for c in chunks for t in c], got.periods)
    mids = [t for c in maps if c not in chunks for t in c]
    assert len(mids) == len(set(mids)) == midpoints
    assert len(maps) - len(chunks) < midpoints
    # Ideal PulsePol conserves Q_z: each map is solved as its two sector blocks.
    assert eigs == [2 * len(c) for c in maps]
    assert np.array_equal(got.phases, want.phases)
    assert np.array_equal(got.vectors, want.vectors)


def test_midpoints_are_solved_in_chunks_of_the_chunk_size(monkeypatch, c21_spectrum):
    """With every interval taken as ambiguous and two refinement levels, a
    level's midpoints within a grid chunk outnumber the 8 points a chunk
    holds and are solved in chunks of at most 8; the spectrum is the one
    of one grid chunk, whose levels are solved whole."""
    reg, t_r, _ = c21_spectrum
    grid = np.linspace(t_r - 0.12, t_r + 0.12, 17)
    monkeypatch.setattr(floquet, "STITCH_OVERLAP", 2.0)
    monkeypatch.setattr(floquet, "MAX_REFINE_DEPTH", 2)
    with pytest.warns(ValidityWarning, match="^64 stitch interval"):
        want = compute_spectrum(pulsepol_for_period, reg, grid)
    maps = []
    real_map = floquet.period_roots

    def count_maps(seqs, register):
        maps.append(len(seqs))
        return real_map(seqs, register)

    monkeypatch.setattr(floquet, "period_roots", count_maps)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 8 * 8 * 16 * reg.dim**2)
    with pytest.warns(ValidityWarning, match="^64 stitch interval"):
        got = compute_spectrum(pulsepol_for_period, reg, grid)
    # Per grid chunk: its points, then level 0's midpoints, then level 1's.
    assert maps == [8, 7, 8, 6] + [8, 8, 8, 8] + [1, 1, 2]
    assert np.array_equal(got.phases, want.phases)
    assert np.array_equal(got.vectors, want.vectors)


def test_finite_spectrum_builds_each_finite_rotation_once(monkeypatch, c21_spectrum):
    """A 41-point finite-pulse spectrum, in six chunks of up to 8 points,
    exponentiates each distinct finite rotation once."""
    reg, t_r, _ = c21_spectrum
    builder = partial(pulsepol_for_period, rabi=300.0)
    maps, built = [], []
    real_map, real_eig = floquet.period_roots, protocols.hermitian_eigensolve

    def count_maps(seqs, register):
        maps.append(len(seqs))
        return real_map(seqs, register)

    def count_eigs(h):
        built.append(h)
        return real_eig(h)

    monkeypatch.setattr(floquet, "period_roots", count_maps)
    monkeypatch.setattr(protocols, "hermitian_eigensolve", count_eigs)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 8 * 8 * 16 * reg.dim**2)
    protocols._finite_step.cache_clear()
    compute_spectrum(builder, reg, np.linspace(t_r - 0.12, t_r + 0.12, 41))
    rotations = {e for e in builder(t_r).events if e.kind is EventKind.ROTATION}
    assert len(maps) >= 6
    assert len(built) == len(rotations) == 3


def test_spectrum_csv(tmp_path, c21_spectrum):
    _, _, spec = c21_spectrum
    out = tmp_path / "spec.csv"
    write_spectrum_csv(spec, str(out), 0.25)
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
        blocks=spec.vectors[:, None],
        columns=np.tile(cols, (spec.periods.size, 1)),
        basis=floquet._Sectors(None, protocols.parity_sectors(reg.dim, 1), None),
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


SECTOR_BUILDERS = {
    "pulsepol": pulsepol_for_period,
    "cpmg": partial(cpmg_for_period, harmonic=1),
    "cpmg-rabi2000": partial(cpmg_for_period, harmonic=1, rabi=2000.0),
}


def _full_vectors(point, sectors):
    """A point's eigenvectors in block-column order as one D x D matrix."""
    d = point.phases.size
    one = floquet.FloquetSpectrum(
        np.array([point.period]), point.phases[None], point.vectors[None], np.arange(d)[None],
        sectors, register=None,
    )
    return one.eigenvectors(np.zeros(d, dtype=int), np.arange(d)).T


def test_conserved_parity_follows_the_event_pattern():
    """Ideal PulsePol conserves Q_z, +/-x rotations Q_x, finite PulsePol
    nothing."""
    assert conserved_parity(pulsepol_for_period(6.8)) == "z"
    assert conserved_parity(cpmg_for_period(2.2)) == "x"
    assert conserved_parity(cpmg_for_period(2.2, rabi=2000.0)) == "x"
    assert conserved_parity(pulsepol_for_period(6.8, rabi=300.0)) is None


def _random_gaps(seq, rng):
    """``seq`` with each free gap of its first half drawn from [0.2, 2] us,
    and the second half repeating the first."""
    half = tuple(
        PulseEvent(EventKind.FREE_EVOLUTION, duration=rng.uniform(0.2, 2.0))
        if e.kind is EventKind.FREE_EVOLUTION else e
        for e in seq.events[: len(seq.events) // 2]
    )
    period = sum(e.duration for e in half + half)
    return PulseSequence(half + half, period, seq.harmonic, seq.label)


@pytest.mark.parametrize("protocol", SECTOR_BUILDERS)
@pytest.mark.parametrize("config", ["c3_c16.yaml", "c3_c4_c8.yaml", "c4_c8.yaml"])
def test_half_period_roots_keep_the_period_parity(config, protocol):
    """The half-period root of ideal PulsePol commutes with Q_z, and the
    CPMG roots, ideal and finite, commute with Q_x, to 1e-12 at random
    unequal gaps: so the Floquet solve may cut the root into sector blocks
    before it squares them."""
    register = shipped_register(config)
    rng = np.random.default_rng(7)
    seqs = [_random_gaps(SECTOR_BUILDERS[protocol](6.8), rng) for _ in range(4)]
    assert len({e.duration for e in seqs[0].events if e.kind is EventKind.FREE_EVOLUTION}) > 1
    roots, squared = protocols.period_roots(seqs, register)
    assert squared.all()
    d = register.dim // 2
    nuclear = np.diag([(-1.0) ** bin(i).count("1") for i in range(d)])
    electron = np.diag([1.0, -1.0]) if protocol == "pulsepol" else np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.kron(electron, nuclear)
    assert conserved_parity(seqs[0]) == ("z" if protocol == "pulsepol" else "x")
    assert np.max(np.abs(roots @ q - q @ roots)) <= 1e-12
    assert np.array_equal(period_unitary(seqs, register), roots @ roots)


def test_a_chunk_of_whole_and_half_period_roots():
    """A chunk whose periods alternate between a repeated half and two
    unequal halves squares only the half-period roots: every point's
    eigenphases are those of its whole period map."""
    register = shipped_register("c3_c4_c8.yaml")
    rng = np.random.default_rng(3)

    def builder(t):
        seq = pulsepol_for_period(t)
        if round(10 * t) % 2 == 0:
            return seq
        first, second = (_random_gaps(seq, rng).events for _ in range(2))
        events = first[: len(first) // 2] + second[len(second) // 2 :]
        return PulseSequence(events, sum(e.duration for e in events), 3, "pulsepol")

    grid = np.array([6.6, 6.7, 6.8, 6.9])
    seqs = [builder(t) for t in grid]
    assert protocols.period_roots(seqs, register)[1].tolist() == [True, False, True, False]
    sectors = floquet._Sectors.of(seqs[0], register.dim)
    points = floquet._spectrum_points(lambda t: seqs[list(grid).index(t)], register, grid, sectors)
    for point, seq in zip(points, seqs):
        want = -np.angle(np.linalg.eigvals(period_unitary(seq, register)))
        gap = np.abs(np.exp(1j * point.phases[:, None]) - np.exp(1j * want[None, :]))
        assert np.max(np.min(gap, axis=1)) <= 1e-10
        assert np.max(np.min(gap, axis=0)) <= 1e-10


@pytest.mark.parametrize("protocol", [*SECTOR_BUILDERS, "pulsepol-rabi300"])
def test_each_map_is_checked_for_unitarity_once(monkeypatch, c21_spectrum, protocol):
    """Every chunk, bisection midpoints included, builds its roots once and
    checks unitarity once, on the squared sector blocks that it solves; a
    root whose square is off unitarity by ~4e-10 ends the spectrum with
    NotUnitary."""
    reg, t_r, _ = c21_spectrum
    builder = SECTOR_BUILDERS.get(protocol, partial(pulsepol_for_period, rabi=300.0))
    sectors = floquet._Sectors.of(builder(t_r), reg.dim).index.shape
    roots, checked = [], []
    real_roots, real_defect = floquet.period_roots, linalg.unitarity_defect

    def count_roots(seqs, register):
        roots.append(len(seqs))
        return real_roots(seqs, register)

    def count_checks(u):
        checked.append(u.shape)
        return real_defect(u)

    monkeypatch.setattr(floquet, "period_roots", count_roots)
    monkeypatch.setattr(linalg, "unitarity_defect", count_checks)
    monkeypatch.setattr(protocols, "unitarity_defect", count_checks)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 8 * 8 * 16 * reg.dim**2)
    grid = np.linspace(t_r - 0.12, t_r + 0.12, 41)
    compute_spectrum(builder, reg, grid)
    assert len(roots) >= 6
    assert checked == [(p * sectors[0], sectors[1], sectors[1]) for p in roots]

    def scaled_roots(seqs, register):
        u, squared = real_roots(seqs, register)
        return u * (1.0 + 1e-10), squared

    monkeypatch.setattr(floquet, "period_roots", scaled_roots)
    with pytest.raises(NotUnitary):
        compute_spectrum(builder, reg, grid)


@pytest.mark.parametrize("protocol", SECTOR_BUILDERS)
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_blocked_eigensolve_matches_the_grouped_solver(config, protocol):
    """The eigenphases from the sector blocks agree with the theta = 0
    grouped solver of ``reference_floquet`` on the whole map to 1e-12, and
    so does the projector
    onto every eigenspace, up to what the two residuals allow.

    An eigenspace gathers eigenvalues within 1e-8 (ideal CPMG is doubly
    degenerate throughout). Two solves whose residuals are r_1 and r_2
    give projectors that differ by at most (r_1 + r_2) / gap, the gap being
    the eigenspace's distance to the rest of the spectrum (Davis-Kahan);
    the allowance below is twice that, plus 1e-12. It matters only for
    eigenphases ~1e-5 apart, where no two solvers agree to 1e-12 and the
    grouped solver's own residual reaches 1e-10. The blocked residual is
    held to the eigensolver's own gate. register27 is cut to 7 nuclei.
    """
    register = shipped_register(config)
    builder = SECTOR_BUILDERS[protocol]
    grid = np.array([2.13, 2.41]) if protocol.startswith("cpmg") else np.array([6.71, 6.93])
    sectors = floquet._Sectors.of(builder(grid[0]), register.dim)
    assert sectors.axis is not None
    points = floquet._spectrum_points(builder, register, grid, sectors)
    maps = period_unitary([builder(t) for t in grid], register)
    for point, u in zip(points, maps):
        lam, v = ref.grouped_eigensolve(u)
        order = np.argsort(-point.phases, kind="stable")
        assert np.max(np.abs(point.phases[order] + np.angle(lam))) <= 1e-12
        got = _full_vectors(point, sectors)[:, order]
        mine = np.exp(-1j * point.phases[order])
        assert np.max(np.abs(u @ got - got * mine)) <= linalg.EIG_RESIDUAL_TOL
        seen = np.zeros(lam.size, dtype=bool)
        for j in range(lam.size):
            if seen[j]:
                continue
            group = np.abs(lam - lam[j]) <= 1e-8
            seen |= group
            gap = np.min(np.abs(lam[~group, None] - lam[group]), initial=2.0)
            residual = sum(
                np.linalg.norm(u @ w[:, group] - w[:, group] * e[group], 2)
                for w, e in ((got, mine), (v, lam))
            )
            want = v[:, group] @ v[:, group].conj().T
            have = got[:, group] @ got[:, group].conj().T
            assert np.max(np.abs(have - want)) <= 1e-12 + 2.0 * residual / gap


@pytest.mark.parametrize("protocol", SECTOR_BUILDERS)
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_symmetric_maps_take_the_real_path(config, protocol):
    """Ideal PulsePol blocks, after the electron phase of ``_Sectors``, and
    CPMG blocks, ideal and finite, are symmetric: each is solved in real
    arithmetic, and its eigenvectors are real. register27 is cut to 7
    nuclei."""
    register = shipped_register(config)
    builder = SECTOR_BUILDERS[protocol]
    grid = np.array([2.13, 2.41]) if protocol.startswith("cpmg") else np.array([6.71, 6.93])
    sectors = floquet._Sectors.of(builder(grid[0]), register.dim)
    for point in floquet._spectrum_points(builder, register, grid, sectors):
        assert point.vectors.dtype == np.float64


@pytest.mark.parametrize("protocol", [*SECTOR_BUILDERS, "pulsepol-rabi300"])
def test_spectrum_vectors_are_eigenvectors_of_the_map(protocol):
    """Every stored vector v_j of a spectrum, in the computational basis, has
    U v_j = exp(-i phase_j) v_j for the period map U at its point, and the
    vectors are orthonormal: the dense view, and ``eigenvectors`` gathering
    (point, branch) pairs in any order from the stored blocks, which are
    phased for Q_z, in the Hadamard basis for Q_x and one complex
    whole-space block for finite PulsePol. Wherever the real path runs the
    blocks are P D^2 / 2 float64."""
    register = shipped_register("c3_c4_c8.yaml")
    builder = SECTOR_BUILDERS.get(protocol, partial(pulsepol_for_period, rabi=300.0))
    grid = np.linspace(2.1, 2.5, 5) if protocol.startswith("cpmg") else np.linspace(6.6, 7.0, 5)
    spec = compute_spectrum(builder, register, grid)
    maps = period_unitary([builder(t) for t in spec.periods], register)
    lam = np.exp(-1j * spec.phases)[:, None, :]
    assert np.max(np.abs(maps @ spec.vectors - spec.vectors * lam)) <= linalg.EIG_RESIDUAL_TOL
    gram = spec.vectors.conj().swapaxes(1, 2) @ spec.vectors
    assert np.max(np.abs(gram - np.eye(register.dim))) <= 1e-12

    p, d = spec.phases.shape
    axis = {"pulsepol": "z", "pulsepol-rabi300": None}.get(protocol, "x")
    assert spec.basis.axis == axis
    if axis is None:
        assert spec.blocks.dtype == np.complex128 and spec.blocks.shape == (p, 1, d, d)
    else:
        assert spec.blocks.dtype == np.float64 and spec.blocks.nbytes == p * d**2 // 2 * 8
    m, c = np.divmod(np.random.default_rng(5).permutation(p * d), d)
    v = spec.eigenvectors(m, c)
    uv = np.einsum("kij,kj->ki", maps[m], v)
    assert np.max(np.abs(uv - v * np.exp(-1j * spec.phases[m, c])[:, None])) <= linalg.EIG_RESIDUAL_TOL
    same = m[:, None] == m[None, :]
    gram = v.conj() @ v.T - (c[:, None] == c[None, :])
    assert np.max(np.abs(gram[same])) <= 1e-12


def test_a_complex_solve_after_real_ones_loses_nothing(monkeypatch):
    """A chunk solved in complex arithmetic after real ones turns the stored
    blocks complex: with every chunk after the first returning its
    eigenvectors times exp(i/3), the phases are unchanged and so are the
    vectors, up to that factor from the second point on."""
    register = shipped_register("c3_c4_c8.yaml")
    grid = np.linspace(6.6, 7.0, 5)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 8 * 16 * register.dim**2)  # one point per chunk
    want = compute_spectrum(pulsepol_for_period, register, grid)
    real_eig, calls = floquet.unitary_eigensolve, []

    def turned(u):
        calls.append(len(u))
        eig = real_eig(u)
        return eig if len(calls) == 1 else eig._replace(eigenvectors=eig.eigenvectors * np.exp(1j / 3))

    monkeypatch.setattr(floquet, "unitary_eigensolve", turned)
    got = compute_spectrum(pulsepol_for_period, register, grid)
    assert len(calls) >= grid.size and got.blocks.dtype == np.complex128
    assert np.array_equal(got.phases, want.phases)
    assert np.array_equal(got.vectors[0], want.vectors[0])
    assert np.max(np.abs(got.vectors[1:] - want.vectors[1:] * np.exp(1j / 3))) <= 1e-15


@pytest.fixture(scope="module")
def ideal_cpmg_spectrum():
    register = shipped_register("c3_c4_c8.yaml")
    return compute_spectrum(SECTOR_BUILDERS["cpmg"], register, np.linspace(2.0, 2.6, 121))


@pytest.mark.parametrize("name", ["five_spin_spectrum", "ideal_cpmg_spectrum"])
def test_crossings_do_not_depend_on_the_chunk_size(monkeypatch, request, name):
    """With one branch pair per gap chunk and one minimum per weight chunk,
    ``find_crossings`` returns exactly the crossings of the default chunks,
    in the same order."""
    spec = request.getfixturevalue(name)
    want = find_crossings(spec, gap_threshold=0.3)
    assert len(want) > 50
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 1)
    assert find_crossings(spec, gap_threshold=0.3) == want


@pytest.mark.parametrize("protocol", SECTOR_BUILDERS)
def test_half_size_solve_engages_on_odd_registers(solves, protocol):
    """With five nuclei the spin flip keeps each parity sector, and at
    least 99% of the real-path matrices pass the gate at half size (the
    rest are solved again at the offset); with two (c3_c21, c3_c16) it
    swaps the sectors, and every matrix takes the full real solve."""
    table = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    builder = SECTOR_BUILDERS[protocol]
    grid = np.linspace(2.0, 2.6, 61) if protocol.startswith("cpmg") else np.linspace(6.6, 7.2, 61)
    compute_spectrum(builder, table.subset(["C3", "C1", "C4", "C5", "C8"]), grid)
    assert len(solves["paired"]) >= 61 * 2
    assert len(solves["theta"]) <= 0.01 * len(solves["paired"])
    for config in ("c3_c21.yaml", "c3_c16.yaml"):
        solves.update(paired=[], theta=[])
        compute_spectrum(builder, shipped_register(config), grid[:9])
        assert solves["paired"] == [] and len(solves["theta"]) >= 9 * 2


SPECTRUM_BUILDERS = {
    **SECTOR_BUILDERS, "pulsepol-rabi300": partial(pulsepol_for_period, rabi=300.0)
}


# Finite PulsePol on the cut register27 reaches the stitch depth cap with
# either solve; the warning is not what this test compares.
@pytest.mark.filterwarnings("ignore:.*refinement depth:dnpsim.errors.ValidityWarning")
@pytest.mark.parametrize("protocol", SPECTRUM_BUILDERS)
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_half_size_solve_gives_the_full_solve_spectrum(monkeypatch, config, protocol):
    """The branch phases the CSV holds agree to 1e-12, and the crossings
    match, with the half-size solve and without it (every stack then
    taking the full-size real solve). register27 is cut to its first five
    nuclei, an odd count. Ideal CPMG is doubly degenerate: which of its
    gap-0 partner pairs dips below the threshold, and the weights of a
    degenerate pair, are set by rounding, so only its phases are compared."""
    register = shipped_register(config)
    if config == "register27.yaml":
        register = register.subset([s.label for s in register.nuclei[:5]])
    builder = SPECTRUM_BUILDERS[protocol]
    grid = np.linspace(2.0, 2.6, 13) if protocol.startswith("cpmg") else np.linspace(6.6, 7.2, 13)
    got = compute_spectrum(builder, register, grid)
    monkeypatch.setattr(linalg, "_flip_defect", lambda stack: np.inf)
    want = compute_spectrum(builder, register, grid)
    assert np.array_equal(got.periods, want.periods)
    assert np.max(np.abs(got.phases - want.phases)) <= 1e-12
    if protocol != "cpmg":
        assert_same_crossings(find_crossings(got, 0.3), find_crossings(want, 0.3))


def test_finite_pulsepol_takes_the_full_path(monkeypatch, c21_spectrum):
    """Finite PulsePol conserves no parity: each eigensolve gets whole
    D x D maps, and the spectrum carries no sector labels."""
    reg, t_r, _ = c21_spectrum
    shapes = []
    real_eig = floquet.unitary_eigensolve

    def record(u):
        shapes.append(u.shape[1:])
        return real_eig(u)

    monkeypatch.setattr(floquet, "unitary_eigensolve", record)
    spec = compute_spectrum(
        partial(pulsepol_for_period, rabi=300.0), reg, np.linspace(t_r - 0.12, t_r + 0.12, 41)
    )
    assert spec.sectors is None
    assert set(shapes) == {(reg.dim, reg.dim)}


def test_sector_stitching_equals_the_full_greedy_match(five_spin_spectrum):
    """Matching inside each sector gives the permutation and worst overlap
    of the greedy match on the whole eigenvector matrices of the phased map
    P U P* (P diagonal, so its overlaps are those of U's eigenvectors), both
    as maps between block columns. The full rows are taken in the sectors'
    state order, so that both overlaps sum the same products in the same
    order."""
    register = five_spin_spectrum.register
    grid = np.linspace(6.6, 7.2, 61)
    sectors = floquet._Sectors.of(pulsepol_for_period(grid[0]), register.dim)
    points = floquet._spectrum_points(pulsepol_for_period, register, grid, sectors)
    unphased = sectors._replace(phase=None)
    rows = sectors.index.ravel()
    for a, b in zip(points, points[1:]):
        local, worst = floquet._greedy_match(a.vectors, b.vectors)
        capped = []
        (perm,) = floquet._stitch([(0.0, a, 1.0, b)], None, floquet.MAX_REFINE_DEPTH, capped)
        full, full_worst = floquet._greedy_match(
            _full_vectors(a, unphased)[rows], _full_vectors(b, unphased)[rows]
        )
        assert np.array_equal(perm, full)
        assert worst == full_worst


def test_branches_keep_their_sector(five_spin_spectrum):
    """Each branch is an eigenvector of Q_z with the eigenvalue it is
    labelled with, at every grid point."""
    q = 1 - 2 * (np.array([bin(i).count("1") for i in range(five_spin_spectrum.dim)]) % 2)
    expect = np.einsum("pij,i,pij->pj", five_spin_spectrum.vectors.conj(), q,
                       five_spin_spectrum.vectors).real
    assert np.max(np.abs(expect - five_spin_spectrum.sectors)) <= 1e-12
    assert sorted(five_spin_spectrum.sectors) == [-1] * 32 + [1] * 32


@pytest.mark.parametrize("name", ["five_spin_spectrum", "ideal_cpmg_spectrum"])
def test_sector_labels_hold_at_every_grid_point(request, name):
    """The labels are read from the first point's columns alone; at every
    later point each branch's column still lies in that sector's block."""
    spec = request.getfixturevalue(name)
    assert spec.sectors is not None
    assert np.all(1 - 2 * (spec.columns // spec.blocks.shape[-1]) == spec.sectors)


def test_spectrum_memory_stays_within_two_chunks():
    """Neither ``compute_spectrum`` nor ``find_crossings`` builds a dense
    (P, D, D) eigenvector array (10.7 MB at D = 128 over 41 points): by
    tracemalloc, the spectrum's peak stays within two ``CHUNK_BYTES`` of
    its P D^2 / 2 float64 real blocks, and the crossing search's peak
    within two ``CHUNK_BYTES`` of what it leaves allocated."""
    table = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    register = table.subset([s.label for s in table.nuclei[:6]])
    grid = np.linspace(6.6, 7.0, 41)
    find_crossings(compute_spectrum(pulsepol_for_period, register, grid[:3]), 0.2)  # fill caches
    tracemalloc.start()
    try:
        spec = compute_spectrum(pulsepol_for_period, register, grid)
        spectrum_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        found = find_crossings(spec, gap_threshold=0.2)
        held, crossings_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert register.dim == 128 and len(found) > 1000
    assert spectrum_peak <= grid.size * register.dim**2 // 2 * 8 + 2 * linalg.CHUNK_BYTES
    assert crossings_peak <= held + 2 * linalg.CHUNK_BYTES
