"""Stroboscopic spectroscopy of the protocol period map.

The eigenphases of the one-period propagator, followed along a sweep of
the period, form quasi-energy branches; nuclear resonances show up as
avoided crossings between branches. Branch identity across the sweep is
recovered by eigenvector overlap, with local grid refinement wherever the
overlap assignment becomes ambiguous.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, ValidityWarning
from .linalg import unitary_eigensolve
from .protocols import SequenceBuilder, period_unitary
from .spins import SpinRegister, build_operators

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
    """
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

    if workers == 1:
        points = [_spectrum_point(builder, register, t) for t in grid]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(
                pool.map(
                    _spectrum_point,
                    [builder] * grid.size,
                    [register] * grid.size,
                    grid,
                )
            )

    dim = points[0].phases.size
    phases = np.empty((grid.size, dim))
    vectors = np.empty((grid.size, dim, dim), dtype=complex)
    phases[0] = points[0].phases
    vectors[0] = points[0].vectors
    prev = points[0]
    prev_perm = np.arange(dim)
    capped: list[float] = []
    for i in range(1, grid.size):
        step = _stitch(prev, points[i], builder, register, grid[i - 1], grid[i], 0, capped)
        perm = step[prev_perm]
        phases[i] = points[i].phases[perm]
        vectors[i] = points[i].vectors[:, perm]
        prev = points[i]
        prev_perm = perm
    if capped:
        warnings.warn(
            f"{len(capped)} stitch interval(s) reached refinement depth "
            f"{MAX_REFINE_DEPTH} with eigenvector overlap down to {min(capped):.3f} "
            f"< {STITCH_OVERLAP}; branch assignment there is a greedy guess",
            ValidityWarning,
            stacklevel=2,
        )
    axis = np.array([p.period for p in points])
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


def _circular_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi)


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
    minima in which no nucleus takes part are dropped.
    """
    if gap_threshold <= 0:
        raise ValidationError(f"gap_threshold: must be > 0, got {gap_threshold}")
    ops = build_operators(spectrum.register)
    s_plus = ops.electron.plus
    s_minus = ops.electron.minus
    flip_ops = [
        s_plus @ site.minus + s_minus @ site.plus for site in ops.nuclei
    ]
    labels = [s.label for s in spectrum.register.nuclei]

    t = spectrum.periods
    found: list[AvoidedCrossing] = []
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

                weights = []
                for n, flip in enumerate(flip_ops):
                    w = max(
                        abs(
                            np.vdot(
                                spectrum.vectors[m][:, c],
                                flip @ spectrum.vectors[m][:, c],
                            )
                        )
                        for c in (a, b)
                    )
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


def write_spectrum_csv(spectrum: FloquetSpectrum, path: str) -> None:
    """Write the stitched branches as CSV: tau_us, period_us, branch columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["tau_us", "period_us"]
        header.extend(f"branch_{j}" for j in range(spectrum.dim))
        writer.writerow(header)
        for i, period in enumerate(spectrum.periods):
            row = [format(period / 4.0, ".12g"), format(period, ".12g")]
            row.extend(format(p, ".12g") for p in spectrum.phases[i])
            writer.writerow(row)
