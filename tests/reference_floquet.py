"""Loop references for the Floquet layer: the greedy branch match and the
crossing search, one branch pair and one candidate at a time.

They are slow and simple on purpose; ``floquet._greedy_match`` must return
what ``greedy_match`` returns, and ``floquet.find_crossings`` the same
branch pairs and participants with periods and gaps within 1e-9.
``grouped_eigensolve`` is an independent unitary eigensolver for the
eigenphases that ``linalg.unitary_eigensolve`` returns.
"""

from __future__ import annotations

import numpy as np

from dnpsim import AvoidedCrossing, EigenDecomposition, build_operators, hermitian_eigensolve
from dnpsim.linalg import _phase_sorted


def grouped_eigensolve(u: np.ndarray) -> EigenDecomposition:
    """The theta = 0 solver of one unitary: the Hermitian part (U + U^dag)/2
    first, then the anti-Hermitian part (U - U^dag)/(2i) inside each group
    of its eigenvalues closer than 1e-7. Its residual can exceed 1e-10 for
    eigenphases ~1e-5 apart, whose cosines the grouping cannot resolve."""
    h_re = (u + u.conj().T) / 2
    h_im = (u - u.conj().T) / (2j)
    w_re, v = hermitian_eigensolve(h_re)
    start, n = 0, u.shape[0]
    while start < n:
        stop = start + 1
        while stop < n and w_re[stop] - w_re[start] < 1e-7:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            sub = block.conj().T @ h_im @ block
            _, v_sub = hermitian_eigensolve((sub + sub.conj().T) / 2)
            v[:, start:stop] = block @ v_sub
        start = stop
    lam = np.einsum("ij,jk,ki->i", v.conj().T, u, v)
    assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-9
    return _phase_sorted(lam, v)


def greedy_match(prev: np.ndarray, nxt: np.ndarray) -> tuple[np.ndarray, float]:
    """(permutation, worst overlap), picking the largest overlap first."""
    overlap = np.abs(prev.conj().T @ nxt)
    dim = overlap.shape[0]
    perm = np.empty(dim, dtype=int)
    worst = 1.0
    work = overlap.copy()
    for _ in range(dim):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        worst = min(worst, overlap[i, j])
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm, worst


def _circular_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi)


def find_crossings(spectrum, gap_threshold: float, participation_min: float = 0.2):
    """Every pair's gap minima below the threshold, each refined by a
    least-squares parabola and tagged by dense flip-flop expectations."""
    ops = build_operators(spectrum.register)
    s_plus = ops.electron.plus
    s_minus = ops.electron.minus
    flip_ops = [s_plus @ site.minus + s_minus @ site.plus for site in ops.nuclei]
    labels = [s.label for s in spectrum.register.nuclei]

    t = spectrum.periods
    found = []
    dim = spectrum.dim
    for a in range(dim):
        for b in range(a + 1, dim):
            gap = _circular_gap(spectrum.phases[:, a], spectrum.phases[:, b])
            for m in range(1, t.size - 1):
                if not (gap[m] < gap[m - 1] and gap[m] <= gap[m + 1]):
                    continue
                if gap[m] >= gap_threshold:
                    continue
                coeff = np.polyfit(t[m - 1 : m + 2], gap[m - 1 : m + 2], 2)
                if coeff[0] > 0:
                    t_star = float(np.clip(-coeff[1] / (2 * coeff[0]), t[m - 1], t[m + 1]))
                    gap_star = float(np.polyval(coeff, t_star))
                else:
                    t_star, gap_star = float(t[m]), float(gap[m])
                gap_star = max(gap_star, 0.0)

                pair = spectrum.eigenvectors(np.array([m, m]), np.array([a, b]))
                weights = []
                for n, flip in enumerate(flip_ops):
                    w = max(abs(np.vdot(v, flip @ v)) for v in pair)
                    weights.append((labels[n], float(w)))
                participants = tuple(
                    sorted(
                        (p for p in weights if p[1] >= participation_min),
                        key=lambda p: -p[1],
                    )
                )
                if not participants:
                    continue
                found.append(
                    AvoidedCrossing(
                        period=t_star,
                        gap=gap_star,
                        branch_a=a,
                        branch_b=b,
                        participants=participants,
                    )
                )
    found.sort(key=lambda c: c.period)
    return tuple(found)
