"""Stroboscopic eigenphase spectra and avoided-crossing detection."""
from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace
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
from dnpsim.table import fmt

from conftest import (
    CONFIG_DIR, LARMOR, SHIPPED_CONFIGS, dense_vectors, make_register, shipped_register
)


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
    assert spec.blocks.shape == (41, 2, 2, 2)
    assert dense_vectors(spec).shape == (41, 4, 4)
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


def _chunk_sizes(count, size):
    """The lengths of ``count`` items taken in chunks of ``size``."""
    return [min(size, count - i) for i in range(0, count, size)]


def test_grid_is_built_in_chunks(monkeypatch, c21_spectrum):
    """On a coarse 41-point grid around the C21 resonance, with chunks of
    8 points, the period map and the eigensolve run once per grid chunk,
    all grid chunks first; then the 40 intervals, whose half overlaps fit
    the same bytes 256 times over, are stitched as one stack, each
    ``_stitch`` call matching its whole stack with one ``_greedy_match``
    and solving the next level's midpoints together, in chunks of 8. Every
    map is built and solved once, and the spectrum is the one-chunk
    spectrum."""
    reg, t_r, _ = c21_spectrum
    grid = np.linspace(t_r - 2.4, t_r + 2.4, 41)
    want = compute_spectrum(pulsepol_for_period, reg, grid)
    maps, eigs, matches, stitches = [], [], [], []
    real_map, real_eig, real_match, real_stitch = (
        floquet.period_roots, floquet.unitary_eigensolve, floquet._greedy_match, floquet._stitch
    )

    def count_maps(seqs, register):
        maps.append([seq.period for seq in seqs])
        return real_map(seqs, register)

    def count_eigs(u):
        eigs.append(len(u))
        return real_eig(u)

    def count_matches(prev, nxt, half):
        matches.append(prev.shape)
        return real_match(prev, nxt, half)

    def count_stitches(t_a, a, t_b, b, half, solve, depth, capped):
        stitches.append((depth, len(t_a)))
        return real_stitch(t_a, a, t_b, b, half, solve, depth, capped)

    monkeypatch.setattr(floquet, "period_roots", count_maps)
    monkeypatch.setattr(floquet, "unitary_eigensolve", count_eigs)
    monkeypatch.setattr(floquet, "_greedy_match", count_matches)
    monkeypatch.setattr(floquet, "_stitch", count_stitches)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 8 * 8 * 16 * reg.dim**2)
    got = compute_spectrum(pulsepol_for_period, reg, grid)

    chunks, mids = maps[:6], [t for c in maps[6:] for t in c]
    assert [len(c) for c in chunks] == [8] * 5 + [1]
    assert np.array_equal([t for c in chunks for t in c], got.periods)
    # Each bisection adds one midpoint and turns one interval into two.
    assert len(mids) == len(set(mids)) > 0 and not set(mids) & set(grid)
    assert len(maps) - len(chunks) < len(mids)
    assert sum(k for _, k in stitches) == grid.size - 1 + 2 * len(mids)
    assert [s for s in stitches if s[0] == 0] == [(0, 40)]
    # A call at depth d + 1 stitches the two halves of each interval split at depth d.
    assert [len(c) for c in maps[6:]] == [
        n for depth, k in stitches if depth for n in _chunk_sizes(k // 2, 8)
    ]
    assert matches == [(k, 2, 2, 2) for _, k in stitches]
    # Ideal PulsePol conserves Q_z: each map is solved as its two sector blocks.
    assert eigs == [2 * len(c) for c in maps]
    assert np.array_equal(got.phases, want.phases)
    assert np.array_equal(got.columns, want.columns)
    assert np.array_equal(got.blocks, want.blocks)


def test_midpoints_are_solved_in_chunks_of_the_chunk_size(monkeypatch, c21_spectrum):
    """With every interval taken as ambiguous and two refinement levels, the
    16 intervals of a 17-point grid are stitched as one stack: its 16
    level-0 midpoints, which outnumber the 8 points a solve chunk holds, are
    solved as two chunks, and its 32 level-1 midpoints as four. The
    spectrum is the one-chunk spectrum."""
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
    # The grid's chunks, then level 0's midpoints and level 1's.
    assert maps == [8, 8, 1] + [8, 8] + [8, 8, 8, 8]
    assert np.array_equal(got.phases, want.phases)
    assert np.array_equal(got.columns, want.columns)
    assert np.array_equal(got.blocks, want.blocks)


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


def _near_identity_pair(seed, dim):
    """Neighbouring eigenbases, the second's columns shuffled and phased."""
    rng = np.random.default_rng(seed)
    prev = _random_unitary(dim, rng)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    drift = (v * np.exp(-0.05j * w)) @ v.conj().T
    nxt = (prev @ drift)[:, rng.permutation(dim)] * np.exp(1j * rng.uniform(0, 6, dim))
    return prev, nxt


def _mixed_pair(seed):
    """Two 8 x 8 eigenbases whose first three branches are mixed evenly."""
    rng = np.random.default_rng(seed)
    prev = _random_unitary(8, rng)
    mix = np.eye(8, dtype=complex)
    mix[:3, :3] = np.array([[2, 2, 1], [2, -1, -2], [1, -2, 2]]) / 3
    tilt = np.linalg.qr(np.eye(8) + 0.02 * rng.normal(size=(8, 8)))[0]
    return prev, prev @ mix @ tilt


@pytest.mark.parametrize("seed", range(6))
def test_greedy_match_near_identity(seed):
    """Neighbouring eigenbases: every row's best overlap clears 1/sqrt(2)."""
    prev, nxt = _near_identity_pair(seed, 16)
    assert np.all(np.abs(prev.conj().T @ nxt).max(axis=1) > np.sqrt(0.5))
    perm, worst = floquet._greedy_match(prev, nxt, np.array(False))
    want_perm, want_worst = ref.greedy_match(prev, nxt)
    assert np.array_equal(perm, want_perm)
    assert worst == want_worst


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_match_with_rows_below_one_over_root_two(seed):
    """Three branches mixed evenly: two rows' best overlaps share a column,
    and the greedy loop decides the order."""
    prev, nxt = _mixed_pair(seed)
    overlap = np.abs(prev.conj().T @ nxt)
    assert overlap.max(axis=1).min() < np.sqrt(0.5)
    assert np.unique(overlap.argmax(axis=1)).size < 8
    perm, worst = floquet._greedy_match(prev, nxt, np.array(False))
    want_perm, want_worst = ref.greedy_match(prev, nxt)
    assert np.array_equal(perm, want_perm)
    assert worst == want_worst


def test_greedy_match_on_a_stack_of_blocks():
    """One (K, S, n, n) = (3, 2, 8, 8) stack, near-identity and evenly mixed
    blocks alternating, is matched block by block: every (k, s) block gets
    the loop reference's permutation and worst overlap, the mixed ones by
    the greedy loop."""
    pairs = [_mixed_pair(k + 1) if (k + s) % 2 else _near_identity_pair(k, 8)
             for k in range(3) for s in range(2)]
    prev, nxt = (np.array(side).reshape(3, 2, 8, 8) for side in zip(*pairs))
    overlap = np.abs(prev.conj().swapaxes(-1, -2) @ nxt)
    mixed = [[False, True], [True, False], [False, True]]
    assert np.array_equal(overlap.max(axis=-1).min(axis=-1) < np.sqrt(0.5), mixed)
    clash = [[np.unique(block.argmax(axis=1)).size < 8 for block in row] for row in overlap]
    assert clash == mixed
    perm, worst = floquet._greedy_match(prev, nxt, np.zeros((3, 2), dtype=bool))
    assert perm.shape == (3, 2, 8) and worst.shape == (3, 2)
    for k in range(3):
        for s in range(2):
            want_perm, want_worst = ref.greedy_match(prev[k, s], nxt[k, s])
            assert np.array_equal(perm[k, s], want_perm)
            assert worst[k, s] == want_worst


def _paired_real(z):
    """The real 2m x 2m eigenvector block of m complex columns z as the
    half-size solve builds it: (Re z_k; Im z_k) in column k and its flip
    partner (-Im z_k; Re z_k) in column 2m - 1 - k."""
    return np.concatenate((np.vstack((z.real, z.imag)), np.vstack((-z.imag, z.real))[:, ::-1]), 1)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_match_on_partnered_blocks(seed):
    """Blocks of flip partners, near-identity from one point to the next,
    are ``_partnered``; matched from their first n/2 columns alone (the
    rest of ``prev`` is NaN), they get the loop reference's permutation and
    worst overlap. In a stack that marks only its first block, the second,
    two unpartnered real bases whose columns 8 and 9 trade places, still
    gets the reference's match, which the mirror of its first rows misses."""
    rng = np.random.default_rng(seed)
    z = _random_unitary(8, rng)
    w, v = np.linalg.eigh((lambda h: h + h.conj().T)(rng.normal(size=(8, 8)) + 0j))
    moved = z @ (v * np.exp(-0.02j * w)) @ v.conj().T * np.exp(0.1j * rng.uniform(-1, 1, 8))
    prev, nxt = _paired_real(z), _paired_real(moved[:, rng.permutation(8)])
    assert floquet._partnered(np.array([prev, nxt])).all()
    blind = prev.copy()
    blind[:, 8:] = np.nan
    perm, worst = floquet._greedy_match(blind, nxt, np.array(True))
    want_perm, want_worst = ref.greedy_match(prev, nxt)
    assert np.array_equal(perm, want_perm) and worst == pytest.approx(want_worst, abs=1e-15)
    tilt = np.linalg.qr(np.eye(16) + 0.02 * rng.normal(size=(16, 16)))[0]
    other = np.linalg.qr(rng.normal(size=(16, 16)))[0]
    other = np.array([other, (other @ tilt)[:, [*range(8), 9, 8, *range(10, 16)]]])
    assert not floquet._partnered(other).any()
    perm, worst = floquet._greedy_match(
        np.array([prev, other[0]]), np.array([nxt, other[1]]), np.array([True, False])
    )
    for k, pair in enumerate([(prev, nxt), other]):
        want_perm, want_worst = ref.greedy_match(*pair)
        assert np.array_equal(perm[k], want_perm)
        assert worst[k] == pytest.approx(want_worst, abs=1e-15)
    assert perm[1, 8] == 9


def test_crossings_at_one_period_sort_by_branch_pair(c21_spectrum):
    """Three copies of the C21 crossing's two branches cross at exactly the
    same period; they come out ordered by (branch_a, branch_b)."""
    reg, _, spec = c21_spectrum
    (single,) = find_crossings(spec, gap_threshold=0.5)
    cols = [single.branch_a, single.branch_b] * 3
    copies = floquet.FloquetSpectrum(
        periods=spec.periods,
        phases=spec.phases[:, cols],
        blocks=dense_vectors(spec)[:, None],
        columns=np.tile(cols, (spec.periods.size, 1)),
        basis=floquet._Sectors(None, protocols.parity_sectors(reg.dim, 1), None, False),
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


def _full_vectors(phases, blocks, sectors):
    """One point's eigenvectors, from its eigenphases (D,) and (S, n, n)
    eigenvector blocks, in block-column order as one D x D matrix."""
    d = phases.size
    one = floquet.FloquetSpectrum(
        np.zeros(1), phases[None], blocks[None], np.arange(d)[None], sectors, register=None
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
    periods, phases, blocks, _ = floquet._spectrum_points(
        lambda t: seqs[list(grid).index(t)], register, grid, sectors
    )
    assert np.array_equal(periods, [seq.period for seq in seqs])
    assert phases.shape == (4, register.dim) and len(blocks) == 4
    for point_phases, seq in zip(phases, seqs):
        want = -np.angle(np.linalg.eigvals(period_unitary(seq, register)))
        gap = np.abs(np.exp(1j * point_phases[:, None]) - np.exp(1j * want[None, :]))
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
    _, phases, blocks, _ = floquet._spectrum_points(builder, register, grid, sectors)
    maps = period_unitary([builder(t) for t in grid], register)
    assert len(phases) == len(blocks) == len(maps) == 2
    for point_phases, point_blocks, u in zip(phases, blocks, maps):
        lam, v = ref.grouped_eigensolve(u)
        order = np.argsort(-point_phases, kind="stable")
        assert np.max(np.abs(point_phases[order] + np.angle(lam))) <= 1e-12
        got = _full_vectors(point_phases, point_blocks, sectors)[:, order]
        mine = np.exp(-1j * point_phases[order])
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
    _, _, blocks, _ = floquet._spectrum_points(builder, register, grid, sectors)
    assert blocks.dtype == np.float64 and len(blocks) == 2


@pytest.mark.parametrize("protocol", [*SECTOR_BUILDERS, "pulsepol-rabi300"])
def test_spectrum_vectors_are_eigenvectors_of_the_map(protocol):
    """Every stored vector v_j of a spectrum, in the computational basis, has
    U v_j = exp(-i phase_j) v_j for the period map U at its point, and the
    vectors are orthonormal: all of them gathered point by point, and
    ``eigenvectors`` gathering
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
    vectors = dense_vectors(spec)
    assert np.max(np.abs(maps @ vectors - vectors * lam)) <= linalg.EIG_RESIDUAL_TOL
    gram = vectors.conj().swapaxes(1, 2) @ vectors
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
    got, want = dense_vectors(got), dense_vectors(want)
    assert np.array_equal(got[0], want[0])
    assert np.max(np.abs(got[1:] - want[1:] * np.exp(1j / 3))) <= 1e-15


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


def _offset_pulsepol(received, t):
    """Ideal PulsePol built for the period t + 0.0013 us, recording each t."""
    received.append(t)
    return pulsepol_for_period(t + 0.0013)


CHUNKED_SPECTRA = {
    "c3_c21": ("c3_c21.yaml", pulsepol_for_period),
    "c3_c4_c8-rabi300": ("c3_c4_c8.yaml", partial(pulsepol_for_period, rabi=300.0)),
    "c3_c21-offset": ("c3_c21.yaml", None),
}


@pytest.mark.parametrize("case", CHUNKED_SPECTRA)
def test_the_spectrum_does_not_depend_on_the_chunk_size(monkeypatch, case):
    """At 1, 3 and 8 points per chunk, and at the default chunk size, the
    spectrum has the same periods, phases, columns and blocks, and the same
    depth-cap warning. The overlap threshold is raised to 0.999, so that a
    21-point grid is bisected at many intervals, and finite PulsePol on
    c3_c4_c8, the complex path, reaches the depth cap. The offset builder
    builds the period t + 0.0013 us for t: the spectrum stores the built
    periods, while the builder is given grid values and means of two
    values it was given, never means of built periods."""
    config, builder = CHUNKED_SPECTRA[case]
    register = shipped_register(config)
    received = []
    builder = builder or partial(_offset_pulsepol, received)
    grid = np.linspace(5.4, 7.4, 21)
    monkeypatch.setattr(floquet, "STITCH_OVERLAP", 0.999)

    def spectrum():
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            spec = compute_spectrum(builder, register, grid)
        return spec, [str(w.message) for w in record]

    want, warned = spectrum()
    for points in (1, 3, 8):
        monkeypatch.setattr(linalg, "CHUNK_BYTES", points * 8 * 16 * register.dim**2)
        got, got_warned = spectrum()
        assert got_warned == warned
        for name in ("periods", "phases", "columns", "blocks"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert want.blocks.dtype == (complex if case.endswith("rabi300") else float)
    assert len(warned) == case.endswith("rabi300")
    if received:
        assert np.max(np.abs(want.periods - grid - 0.0013)) <= 1e-12
        means, level = set(grid), list(zip(grid[:-1], grid[1:]))
        for _ in range(floquet.MAX_REFINE_DEPTH):
            mids = [0.5 * (a + b) for a, b in level]
            means.update(mids)
            level = [half for (a, b), m in zip(level, mids) for half in ((a, m), (m, b))]
        assert set(received) <= means and len(set(received) - set(grid)) > 10


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
    order. Matching one member of each flip pair, where both ends are
    ``_partnered``, gives the same permutations."""
    register = five_spin_spectrum.register
    grid = np.linspace(6.6, 7.2, 61)
    sectors = floquet._Sectors.of(pulsepol_for_period(grid[0]), register.dim)
    _, phases, blocks, partnered = floquet._spectrum_points(
        pulsepol_for_period, register, grid, sectors
    )
    unphased = sectors._replace(phase=None)
    rows = sectors.index.ravel()
    whole = np.zeros((grid.size - 1, 2), dtype=bool)
    _, worst = floquet._greedy_match(blocks[:-1], blocks[1:], whole)

    def stitch(half):
        return floquet._stitch(
            grid[:-1], blocks[:-1], grid[1:], blocks[1:], half, None, floquet.MAX_REFINE_DEPTH, []
        )

    perms = stitch(whole)
    assert perms.shape == (grid.size - 1, register.dim) and worst.shape == (grid.size - 1, 2)
    for k in range(grid.size - 1):
        full, full_worst = floquet._greedy_match(
            _full_vectors(phases[k], blocks[k], unphased)[rows],
            _full_vectors(phases[k + 1], blocks[k + 1], unphased)[rows],
            np.array(False),
        )
        assert np.array_equal(perms[k], full)
        assert worst[k].min() == full_worst
    half = partnered[:-1] & partnered[1:]
    assert half.mean() > 0.9
    assert np.array_equal(stitch(half), perms)


def test_branches_keep_their_sector(five_spin_spectrum):
    """Each branch is an eigenvector of Q_z with the eigenvalue it is
    labelled with, at every grid point."""
    q = 1 - 2 * (np.array([bin(i).count("1") for i in range(five_spin_spectrum.dim)]) % 2)
    vectors = dense_vectors(five_spin_spectrum)
    expect = np.einsum("pij,i,pij->pj", vectors.conj(), q, vectors).real
    assert np.max(np.abs(expect - five_spin_spectrum.sectors)) <= 1e-12
    assert sorted(five_spin_spectrum.sectors) == [-1] * 32 + [1] * 32


@pytest.mark.parametrize("name", ["five_spin_spectrum", "ideal_cpmg_spectrum"])
def test_sector_labels_hold_at_every_grid_point(request, name):
    """The labels are read from the first point's columns alone; at every
    later point each branch's column still lies in that sector's block."""
    spec = request.getfixturevalue(name)
    assert spec.sectors is not None
    assert np.all(1 - 2 * (spec.columns // spec.blocks.shape[-1]) == spec.sectors)


@pytest.mark.parametrize(
    "n_nuclei, steps, chunk_bytes, min_found",
    [(6, 41, linalg.CHUNK_BYTES, 1000), (5, 121, 2**18, 500)],
    ids=["dim128", "blocks-outgrow-chunks"],
)
def test_spectrum_memory_stays_within_two_chunks(
    monkeypatch, n_nuclei, steps, chunk_bytes, min_found
):
    """Neither ``compute_spectrum`` nor ``find_crossings`` builds a dense
    (P, D, D) eigenvector array (10.7 MB at D = 128 over 41 points): by
    tracemalloc, the spectrum's peak stays within two ``CHUNK_BYTES`` of
    its P D^2 / 2 float64 real blocks, and the crossing search's peak
    within two ``CHUNK_BYTES`` of what it leaves allocated. Each grid
    chunk is written into the one blocks array, so blocks that outgrow
    the chunks (1.98 MB against 256 KiB) are not held twice."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    table = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    register = table.subset([s.label for s in table.nuclei[:n_nuclei]])
    grid = np.linspace(6.6, 7.0, steps)
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
    assert spec.blocks.dtype == np.float64 and len(found) > min_found
    assert spectrum_peak <= grid.size * register.dim**2 // 2 * 8 + 2 * linalg.CHUNK_BYTES
    assert crossings_peak <= held + 2 * linalg.CHUNK_BYTES


def _mirrors(spec):
    """Whether branch D - 1 - j holds, at every point, the block column
    n - 1 - k of branch j's column k: the pairing the crossing search reads."""
    c, n = spec.columns, spec.blocks.shape[-1]
    return np.array_equal(c[:, ::-1], c + n - 1 - 2 * (c % n))


def _unpartnered(blocks):
    """``floquet._partnered`` that marks no block: the whole greedy everywhere."""
    return np.zeros(blocks.shape[:-2], dtype=bool)


def _full_search(spec):
    """A copy of ``spec`` whose sectors are not marked paired: every pair is searched."""
    return replace(spec, basis=spec.basis._replace(paired=False))


def test_every_crossing_has_its_mirror_with_the_same_text():
    """On c3_c4_c8 at k = 11 (the criterion-9 window, 81 points, gap 0.2),
    the mirror (D - 1 - b, D - 1 - a) of every crossing (a, b) is listed
    with the same period, gap and weights as the CLI prints them; searching
    every pair gives two of the 41 a mirror whose gap differs in its 12th
    digit."""
    register = shipped_register("c3_c4_c8.yaml")
    spec = compute_spectrum(
        partial(pulsepol_for_period, harmonic=11), register, np.linspace(25.4, 27.0, 81)
    )
    assert _mirrors(spec)

    def unmirrored(found):
        text = {(c.branch_a, c.branch_b): (fmt(c.period), fmt(c.gap), [
            (label, f"{w:.3f}") for label, w in c.participants
        ]) for c in found}
        d = spec.dim
        return [k for k, line in text.items() if text.get((d - 1 - k[1], d - 1 - k[0])) != line]

    found = find_crossings(spec, gap_threshold=0.2)
    assert len(found) == 41 and unmirrored(found) == []
    everything = find_crossings(_full_search(spec), gap_threshold=0.2)
    assert_same_crossings(found, everything)
    assert len(unmirrored(everything)) == 2


# Finite PulsePol on the cut register27 reaches the stitch depth cap; the
# warning is not what this test compares.
@pytest.mark.filterwarnings("ignore:.*refinement depth:dnpsim.errors.ValidityWarning")
@pytest.mark.parametrize("protocol", SPECTRUM_BUILDERS)
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_mirrored_stitch_and_search_give_the_full_paths_result(monkeypatch, config, protocol):
    """Stitching one member of each flip pair and searching one pair of each
    mirror orbit give the spectrum and the crossings of the whole greedy
    and the search over every pair: periods exactly, phases to 1e-12, and
    crossings as ``assert_same_crossings``. Both engage on every odd
    register for ideal PulsePol. register27 is cut to its first five
    nuclei. Ideal CPMG's gap-0 partner crossings are rounding noise, so
    only its phases are compared."""
    register = shipped_register(config)
    if config == "register27.yaml":
        register = register.subset([s.label for s in register.nuclei[:5]])
    builder = SPECTRUM_BUILDERS[protocol]
    grid = np.linspace(2.0, 2.6, 13) if protocol.startswith("cpmg") else np.linspace(6.6, 7.2, 13)
    got = compute_spectrum(builder, register, grid)
    monkeypatch.setattr(floquet, "_partnered", _unpartnered)
    want = compute_spectrum(builder, register, grid)
    assert np.array_equal(got.periods, want.periods)
    assert np.max(np.abs(got.phases - want.phases)) <= 1e-12
    odd = len(register.nuclei) % 2 == 1
    if protocol == "pulsepol":
        assert _mirrors(got) == got.basis.paired == odd
    if protocol != "cpmg":
        assert_same_crossings(find_crossings(got, 0.3), find_crossings(_full_search(want), 0.3))


def test_a_spectrum_whose_branches_do_not_mirror_takes_the_full_search(
    monkeypatch, five_spin_spectrum
):
    """With branches 0 and 1 swapped at every point, branch 63 no longer
    holds branch 0's partner: the search sees every pair, and gives what
    the search over every pair gives."""
    spec = five_spin_spectrum
    assert _mirrors(spec)
    swap = [1, 0, *range(2, spec.dim)]
    swapped = replace(spec, phases=spec.phases[:, swap], columns=spec.columns[:, swap])
    assert not _mirrors(swapped)
    pairs = []
    real = floquet.local_minima

    def count_pairs(t, v, below):
        pairs.append(v.shape[1])
        return real(t, v, below)

    monkeypatch.setattr(floquet, "local_minima", count_pairs)
    got = find_crossings(swapped, gap_threshold=0.2)
    assert sum(pairs) == spec.dim * (spec.dim - 1) // 2
    assert len(got) > 100 and got == find_crossings(_full_search(swapped), gap_threshold=0.2)


def test_a_point_solved_off_the_paired_path_stitches_in_full(monkeypatch):
    """On the benchmark's seed-0 register (C3, C8, C21, C24, C9), block 0
    of the map at 6.9325 us fails the half-size gate and is solved at full
    size: its partner columns match V times the others only to ~1e-11, so
    it is not ``_partnered``, and both intervals that touch it take the
    whole greedy there while the other sector matches half. The columns
    are those of the whole greedy everywhere."""
    table = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    register = table.subset(["C3", "C8", "C21", "C24", "C9"])
    grid = np.array([6.93, 6.9325, 6.935])
    sectors = floquet._Sectors.of(pulsepol_for_period(grid[0]), register.dim)
    _, _, blocks, partnered = floquet._spectrum_points(pulsepol_for_period, register, grid, sectors)
    assert partnered.tolist() == [[True, True], [False, True], [True, True]]
    v, m = blocks[1, 0], register.dim // 4
    flip, w = np.concatenate((v[m:, :m], -v[:m, :m])), v[:, : m - 1 : -1]
    defect = np.max(np.minimum(np.abs(w - flip).max(axis=0), np.abs(w + flip).max(axis=0)))
    assert 0 < defect <= 1e-10
    halves = []
    real = floquet._greedy_match

    def record(prev, nxt, half):
        halves.append(half.tolist())
        return real(prev, nxt, half)

    monkeypatch.setattr(floquet, "_greedy_match", record)
    got = compute_spectrum(pulsepol_for_period, register, grid)
    assert halves[0] == [[False, True], [False, True]]
    monkeypatch.setattr(floquet, "_partnered", _unpartnered)
    want = compute_spectrum(pulsepol_for_period, register, grid)
    assert np.array_equal(got.columns, want.columns)


class _AbsRecorder:
    """numpy, but recording the shape of every ``abs`` argument."""

    def __init__(self, shapes):
        self.shapes = shapes

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, x, *args, **kwargs):
        self.shapes.append(x.shape)
        return np.abs(x, *args, **kwargs)


@pytest.mark.parametrize("config, mirrored", [("c3_c4_c8.yaml", True), ("c3_c21.yaml", False)])
def test_mirrored_spectra_stitch_and_search_half(monkeypatch, config, mirrored):
    """With an odd number of nuclei (c3_c4_c8, D = 16) every overlap the
    stitch forms has n/2 rows of n columns and the gap search sees the
    D^2/4 pairs a + b <= D - 1; with an even number (c3_c21, D = 8) the
    overlaps have n rows and the search sees all D(D - 1)/2 pairs."""
    register = shipped_register(config)
    shapes, pairs = [], []
    real = floquet.local_minima

    def count_pairs(t, v, below):
        pairs.append(v.shape[1])
        return real(t, v, below)

    monkeypatch.setattr(floquet, "np", _AbsRecorder(shapes))
    spec = compute_spectrum(pulsepol_for_period, register, np.linspace(6.6, 7.2, 61))
    monkeypatch.setattr(floquet, "np", np)
    monkeypatch.setattr(floquet, "local_minima", count_pairs)
    found = find_crossings(spec, gap_threshold=0.3)
    d, n = spec.dim, spec.blocks.shape[-1]
    overlaps = {shape[-2:] for shape in shapes if np.prod(shape)}
    assert overlaps == {(n // 2, n) if mirrored else (n, n)}
    assert sum(pairs) == (d * d // 4 if mirrored else d * (d - 1) // 2)
    assert len(found) > 5
