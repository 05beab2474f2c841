"""Dense linear-algebra kernel checks."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from dnpsim import (
    EigenDecomposition,
    hermitian_eigensolve,
    load_register_file,
    period_unitary,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    unitary_eigensolve,
)
import reference_floquet as ref
from dnpsim import floquet, linalg, protocols
from dnpsim.errors import DimensionMismatch, NoConvergence, NotHermitian, NotUnitary

from conftest import CONFIG_DIR, SHIPPED_CONFIGS, shipped_register


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_hermitian_roundtrip():
    rng = np.random.default_rng(11)
    h = random_hermitian(6, rng)
    w, v = hermitian_eigensolve(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_hermitian_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        hermitian_eigensolve(m)


def test_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        hermitian_eigensolve(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [2, 16, 128])
def test_stacked_hermitian_eigensolve_equals_per_matrix_calls(dim):
    """A (P, n, n) stack and its propagators, at one time and at an array
    of times, give each matrix's own results bit for bit."""
    rng = np.random.default_rng(dim)
    stack = np.stack([random_hermitian(dim, rng) for _ in range(3)])
    eig = hermitian_eigensolve(stack)
    times = np.array([[0.0, 0.3], [1.7, 25.0]])
    assert eig.propagator(times).shape == (2, 2, 3, dim, dim)
    for i, h in enumerate(stack):
        one = hermitian_eigensolve(h)
        assert np.array_equal(eig.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(eig.eigenvectors[i], one.eigenvectors)
        assert np.array_equal(eig.propagator(0.3)[i], one.propagator(0.3))
        assert np.array_equal(eig.propagator(times)[:, :, i], one.propagator(times))


def test_one_matrix_results_are_the_plain_formulas_bit_for_bit():
    """eigh of the matrix, and (v * exp(-i w t)) @ v^dag at one time or an
    array of times."""
    rng = np.random.default_rng(17)
    h = random_hermitian(32, rng)
    w, v = np.linalg.eigh(h)
    eig = hermitian_eigensolve(h)
    assert np.array_equal(eig.eigenvalues, w) and np.array_equal(eig.eigenvectors, v)
    for t in (0.0, 0.37, 12.5):
        assert np.array_equal(eig.propagator(t), (v * np.exp(-1j * w * t)) @ v.conj().T)
    times = np.array([0.1, 2.0, 7.5])
    old = (v * np.exp(-1j * w * times[:, None, None])) @ v.conj().T
    assert np.array_equal(EigenDecomposition(w, v).propagator(times), old)


def test_stack_with_one_non_hermitian_slice_is_refused():
    rng = np.random.default_rng(18)
    stack = np.stack([random_hermitian(4, rng) for _ in range(3)])
    stack[1, 0, 3] += 1e-6
    with pytest.raises(NotHermitian):
        hermitian_eigensolve(stack)


def test_unitary_roundtrip():
    rng = np.random.default_rng(12)
    u = random_unitary(5, rng)
    lam, v = unitary_eigensolve(u)
    assert np.allclose(np.abs(lam), 1.0, atol=1e-12)
    assert np.allclose(v @ np.diag(lam) @ v.conj().T, u, atol=1e-10)
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-10)


def test_unitary_degenerate_eigenvalues():
    # an exactly repeated eigenphase exercises the subspace re-orthogonalisation
    rng = np.random.default_rng(13)
    w = random_unitary(4, rng)
    phases = np.array([0.7, 0.7, -1.1, 2.4])
    u = w @ np.diag(np.exp(1j * phases)) @ w.conj().T
    lam, v = unitary_eigensolve(u)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-10)
    assert np.allclose(v @ np.diag(lam) @ v.conj().T, u, atol=1e-10)
    got = np.sort(np.angle(lam))
    assert np.allclose(got, np.sort(phases), atol=1e-10)


def with_phases(phases, seed):
    w = random_unitary(len(phases), np.random.default_rng(seed))
    return w @ np.diag(np.exp(1j * np.asarray(phases))) @ w.conj().T


@pytest.fixture
def fallbacks(monkeypatch):
    """The dimension of every matrix solved again at theta + pi/2."""
    calls = []
    solve = linalg._offset_eigensolve

    def counted(stack, theta):
        if theta != linalg.EIG_PHASE_OFFSET:
            calls.extend([stack.shape[-1]] * len(stack))
        return solve(stack, theta)

    monkeypatch.setattr(linalg, "_offset_eigensolve", counted)
    return calls


def assert_sound_eigensystem(u, lam, v):
    """Residual, unitary basis and eigenphases sorted in (-pi, pi]."""
    assert np.max(np.abs(u @ v - v * lam)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(lam.size))) <= 1e-12
    phases = np.angle(lam)
    assert np.all(phases > -np.pi) and np.all(phases <= np.pi)
    assert np.all(np.diff(phases) >= 0)


def test_unitary_exact_degeneracy(fallbacks):
    phases = [0.7, 0.7, 0.7, -1.1, 2.4, 2.4]
    u = with_phases(phases, 21)
    lam, v = unitary_eigensolve(u)
    assert_sound_eigensystem(u, lam, v)
    assert np.allclose(np.angle(lam), np.sort(phases), atol=1e-12)
    assert fallbacks == []


def test_unitary_plus_minus_pairs_stay_on_the_fast_path(fallbacks):
    # the spectrum of a time-symmetric period map: at theta = 0 every pair
    # would share one cosine
    phases = [0.4, -0.4, 1.3, -1.3, 2.9, -2.9, 1e-3, -1e-3]
    u = with_phases(phases, 22)
    lam, v = unitary_eigensolve(u)
    assert_sound_eigensystem(u, lam, v)
    assert np.allclose(np.angle(lam), np.sort(phases), atol=1e-12)
    assert fallbacks == []


@pytest.mark.parametrize("seed", range(12))
def test_unitary_eigenvalue_at_minus_one(seed):
    # exp(-i pi) = -1 - 1.2e-16 i sits just below the branch cut
    phases = [-np.pi, np.pi, 0.5, -2.0, 1.0]
    u = with_phases(phases, seed)
    lam, v = unitary_eigensolve(u)
    assert_sound_eigensystem(u, lam, v)
    assert np.allclose(np.angle(lam), [-2.0, 0.5, 1.0, np.pi, np.pi], atol=1e-12)


def test_unitary_eigenvalue_just_below_the_branch_cut():
    u = np.diag([complex(-1.0, -1e-17), 1j, complex(0.6, 0.8)])
    lam, v = unitary_eigensolve(u)
    assert_sound_eigensystem(u, lam, v)
    assert np.angle(lam)[-1] == np.pi


def test_unitary_pair_mirrored_about_the_offset_falls_back(fallbacks):
    theta = linalg.EIG_PHASE_OFFSET
    phases = [theta + 0.3, theta - 0.3, 2.5, -0.9]
    u = with_phases(phases, 23)
    lam, v = unitary_eigensolve(u)
    assert fallbacks == [4]
    assert_sound_eigensystem(u, lam, v)
    assert np.allclose(np.angle(lam), np.sort(phases), atol=1e-12)


def test_unitary_pairs_mirrored_about_both_offsets_raise(fallbacks):
    """A pair mirrored about theta fails the first solve and a pair
    mirrored about theta + pi/2 the retry: the solver says so."""
    theta = linalg.EIG_PHASE_OFFSET
    phases = [theta + 0.3, theta - 0.3, theta + np.pi / 2 + 0.4, theta + np.pi / 2 - 0.4]
    with pytest.raises(NoConvergence, match="at both phase offsets"):
        unitary_eigensolve(with_phases(phases, 24))
    assert fallbacks == [4]


def test_unitary_stack_equals_per_matrix_calls(fallbacks):
    """One stacked call gives each matrix's own result bit for bit; only
    the matrix with a pair mirrored about the offset falls back."""
    theta = linalg.EIG_PHASE_OFFSET
    stack = np.stack(
        [
            with_phases([0.4, -0.4, 1.3, -1.3, 2.9], 31),
            with_phases([theta + 0.3, theta - 0.3, 2.5, -0.9, 1.7], 32),
            with_phases([-np.pi, np.pi, 0.5, -2.0, 1.0], 33),
            random_unitary(5, np.random.default_rng(34)),
        ]
    )
    lam, v = unitary_eigensolve(stack)
    assert lam.shape == (4, 5) and v.shape == (4, 5, 5)
    assert fallbacks == [5]
    for i, u in enumerate(stack):
        assert_sound_eigensystem(u, lam[i], v[i])
        one = unitary_eigensolve(u)
        assert np.array_equal(one.eigenvalues, lam[i])
        assert np.array_equal(one.eigenvectors, v[i])
    assert np.angle(lam[2])[-2:].tolist() == [np.pi, np.pi]


def symmetric_with_phases(phases, seed):
    """Q diag(e^{i phi}) Q^T for a random real orthogonal Q: a symmetric unitary."""
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(phases),) * 2))[0]
    return q @ np.diag(np.exp(1j * np.asarray(phases))) @ q.T


def offset_path(u, real=False):
    """The one-eigh solve at the offset, complex or, with ``real``, on
    (Re U, Im U), taken whatever the structure."""
    stack = u.reshape(-1, *u.shape[-2:])
    if real:
        stack = np.stack((stack.real, stack.imag), axis=1)
    lam, v, residual = linalg._offset_eigensolve(stack, linalg.EIG_PHASE_OFFSET)
    assert np.all(residual <= linalg.EIG_RESIDUAL_TOL)
    lam, v = linalg._phase_sorted(lam, v)
    return lam.reshape(u.shape[:-1]), v.reshape(u.shape)


def test_symmetric_stack_is_solved_in_real_arithmetic(fallbacks):
    """Symmetric unitaries, degenerate and +/- paired phases among them,
    get real orthogonal eigenvectors that meet the gate."""
    phases = [[0.4, -0.4, 1.3, -1.3, 2.9, 0.7], [0.7, 0.7, -1.1, 2.4, 2.4, -np.pi]]
    stack = np.stack([symmetric_with_phases(p, 40 + i) for i, p in enumerate(phases)])
    lam, v = unitary_eigensolve(stack)
    assert v.dtype == np.float64
    assert fallbacks == []
    for u, p, w, x in zip(stack, phases, lam, v):
        assert_sound_eigensystem(u, w, x)
        assert np.allclose(np.angle(w), np.sort(np.where(np.array(p) == -np.pi, np.pi, p)), atol=1e-12)


def test_nearly_symmetric_stack_keeps_the_complex_path():
    """A symmetric stack turned by exp(-i 1e-9 H), unitary still but 1e-9
    off symmetric, is solved by the complex path, bit for bit."""
    rng = np.random.default_rng(41)
    stack = np.stack([symmetric_with_phases(rng.uniform(-3, 3, 6), 42 + i) for i in range(3)])
    assert unitary_eigensolve(stack).eigenvectors.dtype == np.float64
    stack = stack @ hermitian_eigensolve(random_hermitian(6, rng)).propagator(1e-9)
    assert 1e-10 < np.max(np.abs(stack - stack.swapaxes(1, 2))) < 1e-8
    lam, v = unitary_eigensolve(stack)
    want = offset_path(stack)
    assert v.dtype == complex
    assert np.array_equal(lam, want[0]) and np.array_equal(v, want[1])


def test_finite_pulsepol_map_keeps_the_complex_path():
    """Finite PulsePol maps are not symmetric: their solve is the complex
    one, bit for bit."""
    register = shipped_register("c3_c4_c8.yaml")
    stack = period_unitary([pulsepol_for_period(t, rabi=300.0) for t in (6.7, 6.9)], register)
    lam, v = unitary_eigensolve(stack)
    want = offset_path(stack)
    assert v.dtype == complex
    assert np.array_equal(lam, want[0]) and np.array_equal(v, want[1])


def test_symmetric_pair_mirrored_about_the_offset_falls_back(fallbacks):
    theta = linalg.EIG_PHASE_OFFSET
    phases = [theta + 0.3, theta - 0.3, 2.5, -0.9]
    u = symmetric_with_phases(phases, 43)
    lam, v = unitary_eigensolve(u)
    assert fallbacks == [4]
    assert v.dtype == np.float64
    assert_sound_eigensystem(u, lam, v)
    assert np.allclose(np.angle(lam), np.sort(phases), atol=1e-12)


def test_symmetric_pairs_mirrored_about_both_offsets_raise(fallbacks):
    theta = linalg.EIG_PHASE_OFFSET
    phases = [theta + 0.3, theta - 0.3, theta + np.pi / 2 + 0.4, theta + np.pi / 2 - 0.4]
    with pytest.raises(NoConvergence, match="at both phase offsets"):
        unitary_eigensolve(symmetric_with_phases(phases, 44))
    assert fallbacks == [4]


def paired_with_phases(phases, seed):
    """A symmetric unitary with max |V conj(U) V^T - U| = 0 up to rounding,
    V = [[0, I], [-I, 0]], and eigenphases +/- phases: O diag(e^{i phi},
    e^{-i phi}) O^T, O = [[Re W, -Im W], [Im W, Re W]] real orthogonal for
    a random unitary W."""
    w = random_unitary(len(phases), np.random.default_rng(seed))
    o = np.block([[w.real, -w.imag], [w.imag, w.real]])
    phases = np.asarray(phases)
    return o @ np.diag(np.exp(1j * np.concatenate((phases, -phases)))) @ o.T


def test_paired_stack_is_solved_at_half_size(solves, fallbacks):
    """Stacks with the flip symmetry, +/- pi and 0 pairs among them, take
    one m x m eigh and pass the gate: real orthonormal eigenvectors, the
    eigenphases of the full real solve to 1e-12."""
    phases = [[0.4, 1.3, 2.9, 1e-3], [0.7, -2.4, np.pi, 0.0], [0.2, 0.5, 0.8, 1.1]]
    stack = np.stack([paired_with_phases(p, 50 + i) for i, p in enumerate(phases)])
    assert linalg._flip_defect(stack) <= 1e-14
    lam, v = unitary_eigensolve(stack)
    assert solves == {"paired": [8, 8, 8], "theta": []} and fallbacks == []
    assert v.dtype == np.float64
    want, _ = offset_path(stack, real=True)
    for u, p, w, x, ref_w in zip(stack, phases, lam, v, want):
        assert_sound_eigensystem(u, w, x)
        assert np.max(np.abs(np.angle(w) - np.angle(ref_w))) <= 1e-12
        expect = np.concatenate((p, np.negative(p)))
        expect = np.sort(np.where(np.abs(expect) == np.pi, np.pi, expect))
        assert np.allclose(np.angle(w), expect, atol=1e-12)


def test_paired_stack_equals_per_matrix_calls():
    """One stacked half-size solve gives each matrix's own result bit for bit."""
    phases = np.linspace(0.3, 2.7, 5)
    stack = np.stack([paired_with_phases(phases + i / 10, 60 + i) for i in range(3)])
    lam, v = unitary_eigensolve(stack)
    for i, u in enumerate(stack):
        one = unitary_eigensolve(u)
        assert np.array_equal(one.eigenvalues, lam[i]) and np.array_equal(one.eigenvectors, v[i])


def test_half_size_gate_is_the_real_form_gate():
    """``_paired_eigensolve`` gates at half size, from H z and M conj(z):
    on its own real eigenvectors ``_real_gate`` gives the same residuals to
    1e-15 and the same eigenvalues to 1e-14, and each pair's eigenvalues
    are exact conjugates. Checked on the flip-paired sector blocks of the
    benchmark's seed-0 register (C3, C8, C21, C24, C9 of register27) over
    its 241-point grid, and on random paired stacks."""
    table = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    register = table.subset(["C3", "C8", "C21", "C24", "C9"])
    sectors = floquet._Sectors.of(pulsepol_for_period(6.6), register.dim)
    seqs = [pulsepol_for_period(t) for t in np.linspace(6.6, 7.2, 241)]
    blocks = sectors.blocks(protocols.period_roots(seqs, register)[0])
    blocks = (blocks @ blocks).reshape(-1, 32, 32)
    phases = np.linspace(0.2, 3.0, 6)
    random = np.stack([paired_with_phases(phases + i / 7, 90 + i) for i in range(5)])
    for u in (blocks, random):
        stack = np.stack((u.real, u.imag), axis=1)
        lam, v, residual = linalg._paired_eigensolve(stack)
        want_lam, _, want_residual = linalg._real_gate(stack, v)
        assert np.max(np.abs(residual - want_residual)) <= 1e-15
        assert np.max(np.abs(lam - want_lam)) <= 1e-14
        m = u.shape[-1] // 2
        assert np.array_equal(lam[:, m:], lam[:, :m].conj())


def test_paired_matrix_with_a_shared_cosine_falls_back(solves, fallbacks):
    """Two pairs at the same |phi| leave the half-size eigh a degenerate
    eigenspace whose vectors the flip does not map onto themselves: that
    matrix alone fails the gate and is solved again at the offset, soundly."""
    stack = np.stack(
        [paired_with_phases([0.4, 0.4, 1.3, 2.0], 70), paired_with_phases([0.4, 1.3, 2.0, 2.5], 71)]
    )
    lam, v = unitary_eigensolve(stack)
    assert solves == {"paired": [8, 8], "theta": [8]} and fallbacks == []
    for u, w, x in zip(stack, lam, v):
        assert_sound_eigensystem(u, w, x)
    want = offset_path(stack[0], real=True)
    assert np.array_equal(lam[0], want[0]) and np.array_equal(v[0], want[1])


def test_symmetric_stacks_without_the_pair_shape_keep_the_real_path(solves, reg_c3_c21):
    """Random symmetric unitaries, and the sector blocks of ideal PulsePol
    on two nuclei (where the flip swaps the two sectors), are solved by
    the full-size real path, bit for bit."""
    phases = np.linspace(-2.5, 2.9, 8)
    random = np.stack([symmetric_with_phases(phases + i / 10, 80 + i) for i in range(3)])
    sectors = floquet._Sectors.of(pulsepol_for_period(6.8), reg_c3_c21.dim)
    roots, _ = protocols.period_roots([pulsepol_for_period(t) for t in (6.7, 6.8, 6.9)], reg_c3_c21)
    blocks = sectors.blocks(roots)
    blocks = (blocks @ blocks).reshape(-1, 4, 4)
    for stack in (random, blocks):
        assert linalg._flip_defect(stack) > 1e-3
        lam, v = unitary_eigensolve(stack)
        want = offset_path(stack, real=True)
        assert np.array_equal(lam, want[0]) and np.array_equal(v, want[1])
    assert solves["paired"] == []


@pytest.mark.parametrize("bad, error", [(np.nan, DimensionMismatch), (1.001, NotUnitary)])
def test_unitary_stack_with_one_bad_matrix_raises(bad, error):
    """The finite-entry check comes first, then the unitarity check."""
    stack = np.stack([random_unitary(4, np.random.default_rng(k)) for k in range(3)])
    stack[1, 2, 3] *= bad
    with pytest.raises(error):
        unitary_eigensolve(stack)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 3), (2, 2, 2, 2)])
def test_unitary_rejects_shapes_other_than_a_matrix_or_a_stack(shape):
    with pytest.raises(DimensionMismatch):
        unitary_eigensolve(np.ones(shape, dtype=complex))


def test_unitary_register27_period_map():
    """The 256-dim period map of the first seven tabulated nuclei."""
    register = shipped_register("register27.yaml")
    u = period_unitary(pulsepol_for_period(6.85), register)
    lam, v = unitary_eigensolve(u)
    assert lam.size == 256
    assert_sound_eigensystem(u, lam, v)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_unitary_eigensolve_agrees_with_grouped_solver(config):
    register = shipped_register(config)
    t_r = resonant_period(precession_frequency(register.nuclei[0], register.larmor))
    u = period_unitary(pulsepol_for_period(t_r), register)
    fast = unitary_eigensolve(u)
    grouped = ref.grouped_eigensolve(u)
    assert np.max(np.abs(np.angle(fast.eigenvalues) - np.angle(grouped.eigenvalues))) <= 1e-12


def test_unitary_rejects_contraction():
    with pytest.raises(NotUnitary):
        unitary_eigensolve(0.5 * np.eye(3, dtype=complex))


def test_matrix_exponential_matches_scipy():
    rng = np.random.default_rng(14)
    h = random_hermitian(5, rng)
    t = 0.37
    u = hermitian_eigensolve(h).propagator(t)
    assert np.allclose(u, scipy.linalg.expm(-1j * h * t), atol=1e-12)
    assert linalg.unitarity_defect(u) <= linalg.UNITARY_TOL


def test_matrix_exponential_composes():
    rng = np.random.default_rng(15)
    h = random_hermitian(4, rng)
    eig = hermitian_eigensolve(h)
    assert np.allclose(eig.propagator(0.2) @ eig.propagator(0.5), eig.propagator(0.7), atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_unitarity_defect_of_a_non_finite_matrix_is_inf(value):
    u = np.eye(3, dtype=complex)
    u[2, 0] = value
    assert linalg.unitarity_defect(u) == np.inf
    assert linalg.unitarity_defect(np.stack([np.eye(3), u])) == np.inf
    assert not linalg.unitarity_defect(u) <= linalg.UNITARY_TOL


def test_unitarity_defect_of_stacked_isometries():
    rng = np.random.default_rng(16)
    q = np.stack(
        [np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0] for _ in range(4)]
    )
    assert linalg.unitarity_defect(q) <= 1e-14
    q[2] *= 1 + 1e-6
    assert linalg.unitarity_defect(q) == pytest.approx(2e-6, rel=1e-5)


def test_tolerance_predicates():
    assert linalg.unitarity_defect(np.eye(3)) <= linalg.UNITARY_TOL
    assert not linalg.unitarity_defect(np.eye(3) * (1 + 1e-6)) <= linalg.UNITARY_TOL
    # a drift just under the tolerance still counts as unitary
    assert linalg.unitarity_defect(np.eye(3) * (1 + 1e-12)) <= linalg.UNITARY_TOL
