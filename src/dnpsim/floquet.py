"""Stroboscopic spectroscopy of the protocol period map.

The eigenphases of the one-period propagator, followed along a sweep of
the period, form quasi-energy branches; nuclear resonances show up as
avoided crossings between branches. Branch identity across the sweep is
recovered by eigenvector overlap, with local grid refinement wherever the
overlap assignment becomes ambiguous.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from math import inf
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, ValidityWarning
from .linalg import unitary_eigensolve
from .protocols import SequenceBuilder, period_unitary
from .spins import SpinRegister, build_operators
from .table import write_csv

#: Overlap below which branch assignment between neighbouring grid points is
#: considered ambiguous and the interval is bisected.
STITCH_OVERLAP = 0.9

#: Maximum bisection depth per grid interval.
MAX_REFINE_DEPTH = 6


class _Point(NamedTuple):
    period: float
    phases: np.ndarray
    vectors: np.ndarray


def _spectrum_point(
    builder: SequenceBuilder, register: SpinRegister, t: float
) -> _Point:
    seq = builder(t)
    u = period_unitary(seq, register)
    eig = unitary_eigensolve(u)
    phases = -np.angle(eig.eigenvalues)
    return _Point(period=seq.period, phases=phases, vectors=eig.eigenvectors)


def _greedy_match(prev: np.ndarray, nxt: np.ndarray) -> tuple[np.ndarray, float]:
    """Assign next-point eigenvectors to previous branches by overlap.

    Returns (permutation, worst assigned overlap): permutation[j] is the
    column of ``nxt`` continuing branch j of ``prev``. Pairs are picked
    greedily, largest overlap first, masking used rows and columns.

    When the rows' maxima fall in distinct columns, the greedy picks
    exactly those maxima, so no loop runs. With orthonormal bases this
    holds whenever every row's best overlap exceeds 1/sqrt(2), which is then
    the unique maximum of its row and of its column.
    """
    overlap = np.abs(prev.conj().T @ nxt)
    dim = overlap.shape[0]
    perm = np.argmax(overlap, axis=1)
    if np.unique(perm).size == dim:
        return perm, float(overlap[np.arange(dim), perm].min())
    worst = 1.0
    work = overlap.copy()
    for _ in range(dim):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        worst = min(worst, overlap[i, j])
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm, worst


def _stitch(
    a: _Point,
    b: _Point,
    builder: SequenceBuilder,
    register: SpinRegister,
    t_a: float,
    t_b: float,
    depth: int,
    capped: list[float],
) -> np.ndarray:
    """Branch permutation from a to b; the worst overlap of every interval
    accepted at the depth cap below STITCH_OVERLAP is appended to capped."""
    perm, worst = _greedy_match(a.vectors, b.vectors)
    if worst >= STITCH_OVERLAP:
        return perm
    if depth >= MAX_REFINE_DEPTH:
        capped.append(worst)
        return perm
    t_mid = 0.5 * (t_a + t_b)
    mid = _spectrum_point(builder, register, t_mid)
    left = _stitch(a, mid, builder, register, t_a, t_mid, depth + 1, capped)
    right = _stitch(mid, b, builder, register, t_mid, t_b, depth + 1, capped)
    return right[left]


@dataclass(frozen=True)
class FloquetSpectrum:
    """Branch-ordered eigenphases of the period map along a period sweep.

    phases[i, j] is branch j's eigenphase in (-pi, pi] at periods[i];
    vectors[i][:, j] the matching eigenvector. Branch order is fixed by
    the phase ordering at the first grid point.
    """

    periods: np.ndarray
    phases: np.ndarray
    vectors: np.ndarray
    register: SpinRegister

    @property
    def dim(self) -> int:
        return self.phases.shape[1]


def compute_spectrum(
    builder: SequenceBuilder,
    register: SpinRegister,
    periods: np.ndarray,
    workers: int = 1,
) -> FloquetSpectrum:
    """Diagonalise the period map over a grid and stitch branches together.

    The stored period axis holds each built sequence's own period, which
    tracks the grid as long as the builder does. Neighbouring points whose
    greedy overlap assignment dips below 0.9 are refined by bisection up
    to 6 levels before the assignment is accepted; if any interval is
    still ambiguous at that depth, one ValidityWarning gives their number
    and the worst overlap accepted.
    """
    grid = np.asarray(periods, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("periods: need a 1-d grid of at least two points")
    if workers < 1:
        raise ValidationError(f"workers: must be >= 1, got {workers}")

    # Points are stitched as they arrive, so only two neighbours are held
    # besides the branch-ordered arrays.
    with ExitStack() as stack:
        if workers == 1:
            points = (_spectrum_point(builder, register, t) for t in grid)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            points = pool.map(
                _spectrum_point, [builder] * grid.size, [register] * grid.size, grid
            )
        prev = next(points)
        dim = prev.phases.size
        axis = np.empty(grid.size)
        phases = np.empty((grid.size, dim))
        vectors = np.empty((grid.size, dim, dim), dtype=complex)
        axis[0], phases[0], vectors[0] = prev
        prev_perm = np.arange(dim)
        capped: list[float] = []
        for i, point in enumerate(points, start=1):
            step = _stitch(prev, point, builder, register, grid[i - 1], grid[i], 0, capped)
            perm = step[prev_perm]
            axis[i] = point.period
            phases[i] = point.phases[perm]
            vectors[i] = point.vectors[:, perm]
            prev = point
            prev_perm = perm
    if capped:
        warnings.warn(
            f"{len(capped)} stitch interval(s) reached refinement depth "
            f"{MAX_REFINE_DEPTH} with eigenvector overlap down to {min(capped):.3f} "
            f"< {STITCH_OVERLAP}; branch assignment there is a greedy guess",
            ValidityWarning,
            stacklevel=2,
        )
    return FloquetSpectrum(periods=axis, phases=phases, vectors=vectors, register=register)


class AvoidedCrossing(NamedTuple):
    """A near-degeneracy of two branches, with the spins taking part in it.

    participants lists (label, weight) pairs with weight >= the requested
    floor, strongest first; the weight is the flip-flop expectation value
    on the hybridised branch states at the crossing.
    """

    period: float
    gap: float
    branch_a: int
    branch_b: int
    participants: tuple[tuple[str, float], ...]


def _circular_gap(diff: np.ndarray) -> np.ndarray:
    """|diff| wrapped onto [0, pi], computed in place."""
    diff += np.pi
    np.mod(diff, 2.0 * np.pi, out=diff)
    diff -= np.pi
    return np.abs(diff, out=diff)


def find_crossings(
    spectrum: FloquetSpectrum,
    gap_threshold: float,
    participation_min: float = 0.2,
) -> tuple[AvoidedCrossing, ...]:
    """Locate avoided crossings below a phase-gap threshold.

    Local minima of every branch pair's circular phase gap are refined by
    a parabola through the three surrounding samples. Each crossing is
    tagged with the nuclei whose electron-nuclear flip-flop operator has
    expectation weight >= participation_min on either branch state there;
    minima in which no nucleus takes part are dropped. Crossings come
    sorted by (period, branch_a, branch_b).
    """
    if not 0 < gap_threshold < inf:
        raise ValidationError(f"gap_threshold: must be finite and > 0, got {gap_threshold}")
    t = spectrum.periods
    branch_a, branch_b = np.triu_indices(spectrum.dim, 1)
    # The (points, pairs) gaps are the largest temporary here; build them in place.
    gap = spectrum.phases[:, branch_a]
    gap -= spectrum.phases[:, branch_b]
    gap = _circular_gap(gap)
    inner = gap[1:-1]
    is_min = (inner < gap[:-2]) & (inner <= gap[2:]) & (inner < gap_threshold)
    m, pair = np.nonzero(is_min)
    m += 1
    a, b = branch_a[pair], branch_b[pair]

    # Vertex of the parabola through (t[m +- 1], gap), in Newton form.
    t0, t1, t2 = t[m - 1], t[m], t[m + 1]
    g0, g1, g2 = gap[m - 1, pair], gap[m, pair], gap[m + 1, pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope0 = (g1 - g0) / (t1 - t0)
        curv = ((g2 - g1) / (t2 - t1) - slope0) / (t2 - t0)
        up = curv > 0
        t_star = np.where(up, np.clip(0.5 * (t0 + t1) - slope0 / (2.0 * curv), t0, t2), t1)
        gap_star = np.where(up, g0 + (t_star - t0) * (slope0 + curv * (t_star - t1)), g1)
    gap_star = np.maximum(gap_star, 0.0)

    weights = _flip_flop_weights(spectrum, m, a, b)
    labels = [s.label for s in spectrum.register.nuclei]
    strongest = np.argsort(-weights, axis=1, kind="stable")
    found = []
    for k in np.lexsort((m, b, a, t_star)):
        participants = tuple(
            (labels[n], float(weights[k, n]))
            for n in strongest[k]
            if weights[k, n] >= participation_min
        )
        if participants:
            found.append(
                AvoidedCrossing(
                    period=float(t_star[k]),
                    gap=float(gap_star[k]),
                    branch_a=int(a[k]),
                    branch_b=int(b[k]),
                    participants=participants,
                )
            )
    return tuple(found)


def _flip_flop_weights(
    spectrum: FloquetSpectrum, m: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(candidates, nuclei) array of max over c in (a, b) of |<v_c|F_n|v_c>|,
    with v_c = spectrum.vectors[m][:, c] and F_n = S+ I-_n + S- I+_n.

    Each F_n has at most one nonzero per row, so F_n v is a gather:
    (F_n v)[i] = F_n[i, src[i]] v[src[i]].
    """
    ops = build_operators(spectrum.register)
    rows = np.arange(ops.dim)
    gathers = []
    for site in ops.nuclei:
        flip = ops.electron.plus @ site.minus + ops.electron.minus @ site.plus
        src = np.argmax(np.abs(flip), axis=1)
        gathers.append((src, flip[rows, src]))
    weights = np.zeros((m.size, len(gathers)))
    for c in (a, b):
        v = spectrum.vectors[m, :, c]
        v_conj = v.conj()
        for n, (src, val) in enumerate(gathers):
            flipped = v[:, src]
            flipped *= val
            w = np.abs(np.einsum("ki,ki->k", v_conj, flipped))
            np.maximum(weights[:, n], w, out=weights[:, n])
    return weights


def write_spectrum_csv(spectrum: FloquetSpectrum, path: str) -> None:
    """Write the stitched branches as CSV: tau_us, period_us, branch columns."""
    write_csv(
        path,
        ["tau_us", "period_us", *(f"branch_{j}" for j in range(spectrum.dim))],
        ([t / 4.0, t, *phases] for t, phases in zip(spectrum.periods, spectrum.phases)),
    )
