"""Dense complex linear algebra for joint spin spaces up to dimension 256.

All operators live in plain ``numpy.ndarray`` matrices of ``complex128``.
Angles are radians, times are microseconds, angular frequencies rad/us.
Every function validates its numerical preconditions explicitly and raises
the typed errors from :mod:`dnpsim.errors` so callers can map failures to
exit codes without parsing numpy messages.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotUnitary

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10

#: Phase offset theta of the one-eigh unitary eigensolve (the golden-ratio
#: fraction): an irrational angle no symmetric spectrum is mirrored about.
EIG_PHASE_OFFSET = 0.6180339887498949

#: Largest max |U V - V diag(lambda)| the one-eigh path may leave.
EIG_RESIDUAL_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Spectral decomposition ``A = V diag(w) V^dag``.

    eigenvalues
        1-D array. Real ascending for Hermitian input; on the unit circle
        for unitary input.
    eigenvectors
        Unitary matrix whose columns are the eigenvectors, ordered to match
        ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """``exp(-i A t) = V diag(exp(-i w t)) V^dag`` for Hermitian ``A``."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return a


def is_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    h = np.asarray(h)
    return bool(np.max(np.abs(h - h.conj().T)) <= tol)


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I| over a (..., n, m) stack, or inf if any entry of
    ``u`` is not finite, so that a NaN matrix fails every tolerance test.
    A stack of isometries (n >= m) has defect 0."""
    u = np.asarray(u)
    if not np.isfinite(u).all():
        return inf
    gram = u.conj().swapaxes(-1, -2) @ u
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return unitarity_defect(u) <= tol


def hermitian_eigensolve(h: np.ndarray) -> EigenDecomposition:
    """Diagonalise a Hermitian matrix.

    Parameters
    ----------
    h
        Hermitian matrix (checked to 1e-10 in max-entry norm).

    Returns
    -------
    EigenDecomposition
        Real eigenvalues in ascending order with orthonormal eigenvectors.

    Raises
    ------
    NotHermitian
        If the symmetry check fails.
    NoConvergence
        If the underlying iteration does not converge.
    """
    h = _as_square(h, "H")
    if not is_hermitian(h):
        raise NotHermitian(
            f"max |H - H^dag| = {np.max(np.abs(h - h.conj().T)):.3e} exceeds {HERMITIAN_TOL}"
        )
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(w, v)


def unitary_eigensolve(u: np.ndarray) -> EigenDecomposition:
    """Diagonalise a unitary matrix through one Hermitian eigensolve.

    A unitary is normal, so every Hermitian part of e^{-i theta} U shares
    its eigenbasis, with eigenvalues cos(phi - theta) for the eigenphases
    phi of U. The fast path diagonalises that part once at the fixed
    irrational offset theta = ``EIG_PHASE_OFFSET``: at theta = 0 the
    +/- phi pairs of a time-symmetric period map collide exactly, at theta
    they stay apart. Eigenvalues are the per-column Rayleigh quotients
    ``v^dag U v``. The basis is accepted when the residual
    max |U V - V diag(lambda)| is at most ``EIG_RESIDUAL_TOL``; a pair of
    eigenphases mirrored about theta (or theta + pi) fails that gate, and
    the grouped solver at theta = 0 runs instead, unchanged: it
    diagonalises (U + U^dag)/2 and sub-diagonalises the anti-Hermitian part
    (U - U^dag)/(2i) inside each degenerate group.

    Returns eigenvalues sorted by eigenphase in (-pi, pi].

    Raises
    ------
    NotUnitary
        If ``U^dag U`` deviates from identity by more than 1e-10.
    NoConvergence
        Propagated from the Hermitian solver, or from the grouped solver
        when its eigenvalues leave the unit circle.
    """
    u = _as_square(u, "U")
    dev = unitarity_defect(u)
    if dev > UNITARY_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {dev:.3e} exceeds {UNITARY_TOL}")

    rotated = np.exp(-1j * EIG_PHASE_OFFSET) * u
    _, v = hermitian_eigensolve((rotated + rotated.conj().T) / 2)
    uv = u @ v
    lam = np.einsum("ij,ij->j", v.conj(), uv)
    if np.max(np.abs(uv - v * lam)) <= EIG_RESIDUAL_TOL:
        return _phase_sorted(lam, v)
    return _grouped_eigensolve(u)


def _grouped_eigensolve(u: np.ndarray) -> EigenDecomposition:
    """The theta = 0 solver: Hermitian part first, then the anti-Hermitian
    part inside each degenerate group of it."""
    h_re = (u + u.conj().T) / 2
    h_im = (u - u.conj().T) / (2j)
    w_re, v = hermitian_eigensolve(h_re)

    # Sub-diagonalise the anti-Hermitian part inside each degenerate group
    # of the real part; tolerance a bit looser than machine precision so
    # nearly-coincident cosines are treated as one group.
    group_tol = 1e-7
    start = 0
    n = u.shape[0]
    while start < n:
        stop = start + 1
        while stop < n and w_re[stop] - w_re[start] < group_tol:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            sub = block.conj().T @ h_im @ block
            sub = (sub + sub.conj().T) / 2
            _, v_sub = hermitian_eigensolve(sub)
            v[:, start:stop] = block @ v_sub
        start = stop

    lam = np.einsum("ij,jk,ki->i", v.conj().T, u, v)
    if np.max(np.abs(np.abs(lam) - 1.0)) > 1e-9:
        raise NoConvergence("eigenvalues left the unit circle; input may be ill-conditioned")
    return _phase_sorted(lam, v)


def _phase_sorted(lam: np.ndarray, v: np.ndarray) -> EigenDecomposition:
    # An eigenvalue at -1 with an imaginary part of -1e-16 or so has angle
    # -pi, outside (-pi, pi]; its conjugate, at most 1e-16 away, has +pi.
    lam = np.where(np.angle(lam) == -np.pi, lam.conj(), lam)
    order = np.argsort(np.angle(lam), kind="stable")
    return EigenDecomposition(lam[order], v[:, order])


def matrix_exponential_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Return ``exp(-i H t)`` for Hermitian ``H`` via eigendecomposition.

    Raises
    ------
    NotHermitian
        Propagated from the eigensolver.
    """
    return hermitian_eigensolve(h).propagator(t)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor on the slow index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
