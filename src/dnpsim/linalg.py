"""Dense linear algebra for joint spin spaces up to dimension 256.

Operators are plain ``numpy.ndarray`` matrices of ``complex128``; the
unitary eigensolve works in ``float64`` where a stack's symmetry allows.
Angles are radians, times are microseconds, angular frequencies rad/us.
Every function validates its numerical preconditions explicitly and raises
the typed errors from :mod:`dnpsim.errors` so callers can map failures to
exit codes without parsing numpy messages.
"""

from __future__ import annotations

from math import inf, pi
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

#: Largest max |U - U^T| of a stack the unitary eigensolve solves in real arithmetic.
SYMMETRY_TOL = 1e-12

#: Bytes of working set a batched computation over a grid may hold at once.
CHUNK_BYTES = 4 * 2**20


def chunk_points(bytes_per_point: int) -> int:
    """Grid points per chunk: as many as fit ``CHUNK_BYTES``, at least one."""
    return max(1, CHUNK_BYTES // bytes_per_point)


class EigenDecomposition(NamedTuple):
    """Spectral decomposition ``A = V diag(w) V^dag``, or one per matrix
    of a (P, n, n) stack.

    eigenvalues
        (n,) array, or (P, n). Real ascending for Hermitian input; on the
        unit circle for unitary input.
    eigenvectors
        Unitary (n, n) matrix, or (P, n, n), whose columns are the
        eigenvectors, ordered to match ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """``exp(-i A t) = V diag(exp(-i w t)) V^dag`` at one time t for
        Hermitian ``A``, or for each matrix of a decomposed stack."""
        v, w = self.eigenvectors, self.eigenvalues
        return (v * np.exp(-1j * w * float(t))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _as_square(a: np.ndarray, name: str, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """``a`` as a complex array of ``ndims`` dimensions whose last two are
    equal, with every entry finite."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return a


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I| over a (..., n, m) stack, or inf if any entry of
    ``u`` is not finite, so that a NaN matrix fails every tolerance test.
    A stack of isometries (n >= m) has defect 0."""
    u = np.asarray(u)
    if not np.isfinite(u).all():
        return inf
    gram = u.conj().swapaxes(-1, -2) @ u
    np.einsum("...ii->...i", gram)[...] -= 1.0  # minus I, in place on the diagonal view
    return float(np.max(np.abs(gram)))


def hermitian_eigensolve(h: np.ndarray) -> EigenDecomposition:
    """Diagonalise a Hermitian matrix, or each matrix of a (P, n, n) stack:
    real eigenvalues in ascending order with orthonormal eigenvectors, of
    shapes (n,) and (n, n), or (P, n) and (P, n, n) for a stack. Raises
    NotHermitian if max |H - H^dag| exceeds 1e-10, and NoConvergence if the
    underlying iteration does not converge."""
    h = _as_square(h, "H", ndims=(2, 3))
    dev = np.max(np.abs(h - h.conj().swapaxes(-1, -2)))
    if dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e} exceeds {HERMITIAN_TOL}")
    return EigenDecomposition(*_eigh(h))


def unitary_eigensolve(u: np.ndarray) -> EigenDecomposition:
    """Diagonalise a unitary matrix, or a (P, n, n) stack of them, through
    one stacked Hermitian eigensolve, of half size where the stack allows.

    A unitary is normal, so every Hermitian part of e^{-i theta} U shares
    its eigenbasis, with eigenvalues cos(phi - theta) for the eigenphases
    phi of U. The solve diagonalises that part once at the fixed irrational
    offset theta = ``EIG_PHASE_OFFSET``: at theta = 0 the +/- phi pairs of a
    time-symmetric period map collide exactly, at theta they stay apart.
    Eigenvalues are the per-column Rayleigh quotients ``v^dag U v``. The
    basis is accepted when the residual max |U V - V diag(lambda)| is at
    most ``EIG_RESIDUAL_TOL``. A pair mirrored about theta or theta + pi
    (phi_1 + phi_2 = 2 theta mod 2 pi) fails that gate, and cannot also sum
    to 2 theta + pi: the matrices of a stack that fail are solved again, as
    one stack, at theta + pi/2 under the same gate.

    A stack with max |U - U^T| <= ``SYMMETRY_TOL`` is solved in real
    arithmetic: U = A + iB with A, B real symmetric and commuting, so U has
    a real orthogonal eigenbasis (Takagi), and the Hermitian part is the
    real symmetric cos(theta) A + sin(theta) B. Its eigenvectors come back
    real. Any other stack is solved in complex arithmetic.

    A symmetric stack of even n with max |V conj(U) V^T - U| <= ``SYMMETRY_TOL``,
    V = [[0, I], [-I, 0]], has A = [[P, -Q], [Q, P]], the real form of the
    Hermitian H = P + iQ, and B = [[R, S], [S, -R]], that of z -> M conj(z)
    for M = R + iS. Its eigenphases come in +/- pairs, and one m x m
    ``eigh`` of H (m = n / 2) gives each pair's cos(phi) and a vector z.
    Turned by sqrt(mu / |mu|), mu = z^dag M conj(z), z gives the pair's real
    eigenvectors (Re z; Im z) and (-Im z; Re z), at sin(phi) = +|mu| and
    -|mu|. The gate runs at half size too, on H z and M conj(z), so each
    pair gets one residual and exactly conjugate eigenvalues. Matrices that
    fail it (as two pairs sharing a cos(phi) may) are solved again at
    theta, then at theta + pi/2.

    Returns eigenvalues sorted by eigenphase in (-pi, pi], of shape (n,)
    for one matrix and (P, n) for a stack, with the matching eigenvectors.
    Raises NotUnitary if ``U^dag U`` deviates from identity by more than
    1e-10 for any matrix of the stack, and NoConvergence from the Hermitian
    solver, or when a matrix fails the gate at both offsets.
    """
    u = _as_square(u, "U", ndims=(2, 3))
    dev = unitarity_defect(u)
    if dev > UNITARY_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {dev:.3e} exceeds {UNITARY_TOL}")

    stack = u.reshape((-1,) + u.shape[-2:])
    symmetric = np.max(np.abs(stack - stack.swapaxes(1, 2))) <= SYMMETRY_TOL
    paired = symmetric and stack.shape[-1] % 2 == 0 and _flip_defect(stack) <= SYMMETRY_TOL
    if symmetric:
        stack = np.stack((stack.real, stack.imag), axis=1)
    thetas = [EIG_PHASE_OFFSET, EIG_PHASE_OFFSET + pi / 2]
    if paired:
        lam, v, residual = _paired_eigensolve(stack)
    else:
        lam, v, residual = _offset_eigensolve(stack, thetas.pop(0))
    for theta in thetas:
        fail = np.flatnonzero(~(residual <= EIG_RESIDUAL_TOL))
        if fail.size:
            lam[fail], v[fail], residual[fail] = _offset_eigensolve(stack[fail], theta)
    if not np.all(residual <= EIG_RESIDUAL_TOL):
        raise NoConvergence(
            f"unitary eigensolve residual {np.max(residual):.3e} > {EIG_RESIDUAL_TOL} "
            "at both phase offsets"
        )
    lam, v = _phase_sorted(lam, v)
    return EigenDecomposition(lam.reshape(u.shape[:-1]), v.reshape(u.shape))


def _offset_eigensolve(stack: np.ndarray, theta: float) -> tuple[np.ndarray, ...]:
    """The Rayleigh quotients (P, n), eigenvectors (P, n, n) and residuals
    max |U V - V diag(lambda)| (P,) of a (P, n, n) unitary stack, from one
    stacked ``eigh`` of the Hermitian parts of e^{-i theta} U. A real
    (P, 2, n, n) stack holds (Re U, Im U) of symmetric maps: the Hermitian
    parts are then cos(theta) Re U + sin(theta) Im U, the eigenvectors are
    real, and the gate is ``_real_gate``."""
    pair = stack.ndim == 4
    if pair:
        h = stack[:, 0] * np.cos(theta)
        h += stack[:, 1] * np.sin(theta)
    else:
        h = stack * np.exp(-1j * theta)
        h += h.conj().swapaxes(-1, -2)
        h *= 0.5
    _, v = _eigh(h)
    if pair:
        return _real_gate(stack, v)
    uv = stack @ v
    lam = np.einsum("pij,pij->pj", v.conj(), uv)
    uv -= v * lam[:, None, :]
    return lam, v, np.max(np.abs(uv), axis=(1, 2))


def _flip_defect(stack: np.ndarray) -> float:
    """max |V conj(U) V^T - U| over a (P, n, n) stack of even n, V = [[0, I], [-I, 0]]."""
    m = stack.shape[-1] // 2
    top, bottom = stack[:, :m], stack[:, m:].conj()
    diag, off = np.abs(top[..., :m] - bottom[..., m:]), np.abs(top[..., m:] + bottom[..., :m])
    return max(np.max(diag), np.max(off))


def _paired_eigensolve(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_offset_eigensolve``'s results for a real (P, 2, n, n) stack whose
    maps have the flip symmetry, from a half-size ``eigh`` and gate (see
    ``unitary_eigensolve``). With z = a + i b, A (a; b) is H z and B (a; b)
    is M conj(z): the residuals of (Re z; Im z) are the real parts of
    H z - c z and M conj(z) - s z, and those of (-Im z; Re z) their
    imaginary parts, for c = Re z^dag H z and s = |z^dag M conj(z)|."""
    m = stack.shape[-1] // 2
    h = stack[:, 0, :m, :m] + 1j * stack[:, 0, m:, :m]
    z = _eigh(h)[1]
    mz = (stack[:, 1, :m, :m] + 1j * stack[:, 1, :m, m:]) @ z.conj()
    mu = np.einsum("pij,pij->pj", z.conj(), mz)
    turn = np.exp(0.5j * np.angle(mu))[:, None, :]
    z *= turn
    mz *= turn.conj()
    hz = h @ z
    lam = np.einsum("pij,pij->pj", z.conj(), hz).real + 1j * np.abs(mu)
    hz -= lam.real[:, None, :] * z
    mz -= lam.imag[:, None, :] * z
    residual = np.maximum(np.hypot(hz.real, mz.real), np.hypot(hz.imag, mz.imag)).max(axis=(1, 2))
    v = np.block([[z.real, -z.imag], [z.imag, z.real]])
    return np.concatenate((lam, lam.conj()), axis=1), v, residual


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a Hermitian matrix or stack; NoConvergence where it fails."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _real_gate(stack: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Rayleigh quotients, ``v`` and residuals of real eigenvectors v
    (P, n, n) of a (P, 2, n, n) stack (Re U, Im U), U v formed as (Re U) v
    and (Im U) v."""
    uv = stack @ v[:, None]
    parts = np.einsum("pij,pkij->pkj", v, uv)
    uv -= v[:, None] * parts[..., None, :]
    return parts[:, 0] + 1j * parts[:, 1], v, np.max(np.hypot(uv[:, 0], uv[:, 1]), axis=(1, 2))


def _phase_sorted(lam: np.ndarray, v: np.ndarray) -> EigenDecomposition:
    """Eigenvalues (..., n) and eigenvectors (..., n, n) in eigenphase order."""
    # An eigenvalue at -1 with an imaginary part of -1e-16 or so has angle
    # -pi, outside (-pi, pi]; its conjugate, at most 1e-16 away, has +pi.
    lam = np.where(np.angle(lam) == -np.pi, lam.conj(), lam)
    order = np.argsort(np.angle(lam), axis=-1, kind="stable")
    at = (*np.indices(order.shape, sparse=True)[:-1], order)  # each matrix's column order
    v = v.swapaxes(-1, -2)[at].swapaxes(-1, -2)  # as rows: ~5x faster than take_along_axis
    return EigenDecomposition(lam[at], np.ascontiguousarray(v))  # C order: products round alike
