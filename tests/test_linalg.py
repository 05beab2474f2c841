"""Dense linear-algebra kernel checks."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dnpsim import (
    hermitian_eigensolve,
    period_unitary,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
    is_hermitian,
    is_unitary,
    kron,
    matrix_exponential_hermitian,
    unitary_eigensolve,
)
from dnpsim import linalg
from dnpsim.errors import DimensionMismatch, NotHermitian, NotUnitary

from conftest import SHIPPED_CONFIGS, shipped_register


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
    """Count the calls of the grouped theta = 0 solver."""
    calls = []
    grouped = linalg._grouped_eigensolve

    def counted(u):
        calls.append(u.shape[0])
        return grouped(u)

    monkeypatch.setattr(linalg, "_grouped_eigensolve", counted)
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
    grouped = linalg._grouped_eigensolve(u)
    assert np.max(np.abs(np.angle(fast.eigenvalues) - np.angle(grouped.eigenvalues))) <= 1e-12


def test_unitary_rejects_contraction():
    with pytest.raises(NotUnitary):
        unitary_eigensolve(0.5 * np.eye(3, dtype=complex))


def test_matrix_exponential_matches_scipy():
    rng = np.random.default_rng(14)
    h = random_hermitian(5, rng)
    t = 0.37
    u = matrix_exponential_hermitian(h, t)
    assert np.allclose(u, scipy.linalg.expm(-1j * h * t), atol=1e-12)
    assert is_unitary(u)


def test_matrix_exponential_composes():
    rng = np.random.default_rng(15)
    h = random_hermitian(4, rng)
    u1 = matrix_exponential_hermitian(h, 0.2)
    u2 = matrix_exponential_hermitian(h, 0.5)
    assert np.allclose(u1 @ u2, matrix_exponential_hermitian(h, 0.7), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 3))
def test_kron_mixed_product(seed, da, db):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(da, da)) for _ in range(2))
    c, d = (rng.normal(size=(db, db)) for _ in range(2))
    assert np.allclose(kron(a @ b, c @ d), kron(a, c) @ kron(b, d), atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_unitarity_defect_of_a_non_finite_matrix_is_inf(value):
    u = np.eye(3, dtype=complex)
    u[2, 0] = value
    assert linalg.unitarity_defect(u) == np.inf
    assert linalg.unitarity_defect(np.stack([np.eye(3), u])) == np.inf
    assert not is_unitary(u)


def test_unitarity_defect_of_stacked_isometries():
    rng = np.random.default_rng(16)
    q = np.stack(
        [np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0] for _ in range(4)]
    )
    assert linalg.unitarity_defect(q) <= 1e-14
    q[2] *= 1 + 1e-6
    assert linalg.unitarity_defect(q) == pytest.approx(2e-6, rel=1e-5)


def test_tolerance_predicates():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_unitary(np.eye(3))
    assert not is_unitary(np.eye(3) * (1 + 1e-6))
    # a drift just under the tolerance still counts as unitary
    assert is_unitary(np.eye(3) * (1 + 1e-12))
