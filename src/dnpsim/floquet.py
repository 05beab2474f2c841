"""Stroboscopic spectroscopy of the protocol period map.

The eigenphases of the one-period propagator, followed along a sweep of
the period, form quasi-energy branches; nuclear resonances show up as
avoided crossings between branches. Each map is solved as the sector
blocks of the parity its period conserves, squared from the blocks of its
half-period root. Branch identity across the sweep is recovered inside
each sector by eigenvector overlap, with local grid refinement wherever
the overlap assignment becomes ambiguous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count
from math import inf
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError, ValidityWarning
from .linalg import chunk_points, unitary_eigensolve
from .protocols import SequenceBuilder, conserved_parity, mix_electron_rows, parity_sectors
# period_unitary is not called here; perfbench/child.py traces it under this name.
from .protocols import period_roots, period_unitary, sector_blocks  # noqa: F401
from .spins import SpinRegister, build_operators, require_joint_space
from .table import write_csv

#: Overlap below which branch assignment between neighbouring grid points is
#: considered ambiguous and the interval is bisected.
STITCH_OVERLAP = 0.9

#: Maximum bisection depth per grid interval.
MAX_REFINE_DEPTH = 6

#: The Hadamard on the electron, which maps Q_z onto Q_x.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


#: The phase on electron-down states that makes every ideal PulsePol map
#: complex symmetric (found, not derived: ``unitary_eigensolve`` checks it).
_DOWN_PHASE = np.exp(0.75j * np.pi)


class _Sectors(NamedTuple):
    """The eigenspaces of the parity a period conserves, or the whole space
    as one sector (axis None). Q_z is (-1)^popcount(i) on basis state i, the
    electron being its top bit, and Q_x = H_e Q_z H_e; index[s] lists the
    states of sector s, Q = +1 then -1, taken after H_e for Q_x. phase[s]
    is the diagonal of the phase P on sector s: ``_DOWN_PHASE`` on the
    electron-down states of Q_z, None (P = 1) for Q_x and the whole space.
    The blocks are those of P U P*, symmetric for ideal PulsePol and CPMG
    maps, so ``unitary_eigensolve`` solves them in real arithmetic."""

    axis: str | None
    index: np.ndarray
    phase: np.ndarray | None

    @classmethod
    def of(cls, seq, dim: int) -> _Sectors:
        axis = conserved_parity(seq)
        index = parity_sectors(dim, 1 if axis is None else 2)
        phase = np.where(index >= dim // 2, _DOWN_PHASE, 1.0) if axis == "z" else None
        return cls(axis, index, phase)

    def blocks(self, u: np.ndarray) -> np.ndarray:
        """The (P, S, n, n) sector blocks of P U P* for a (P, D, D) stack U,
        through ``protocols.sector_blocks``: SectorLeak above SECTOR_TOL."""
        if self.axis is None:
            return u[:, None]
        if self.axis == "x":
            for _ in range(2):  # H_e U, then (H_e (H_e U)^T)^T = H_e U H_e
                u = mix_electron_rows(_HADAMARD, u).swapaxes(1, 2)
        blocks = sector_blocks(u, self.index, 0, "period map", f"Q_{self.axis}")
        if self.phase is not None:
            blocks *= self.phase[:, :, None] * self.phase[:, None, :].conj()
        return blocks


class _Point(NamedTuple):
    """Eigenphases in phase order and (S, n, n) eigenvector blocks: the
    phase-order column j is column k of block s for order[j] = s n + k."""

    period: float
    phases: np.ndarray
    vectors: np.ndarray
    order: np.ndarray


def _spectrum_points(
    builder: SequenceBuilder, register: SpinRegister, grid: Sequence[float], sectors: _Sectors
) -> list[_Point]:
    """The points of a grid chunk, from the sector blocks of its stacked
    ``period_roots``, squared where a root is a half period, and one stacked
    eigensolve of them, which checks their unitarity; phase orders merged."""
    seqs = [builder(t) for t in grid]
    roots, squared = period_roots(seqs, register)
    blocks = sectors.blocks(roots)
    if squared.all():  # as every periodic builder's roots are; a masked product costs more
        blocks = blocks @ blocks
    else:
        blocks[squared] = blocks[squared] @ blocks[squared]
    eig = unitary_eigensolve(blocks.reshape(-1, *blocks.shape[-2:]))
    lam = eig.eigenvalues.reshape(len(seqs), -1)
    order = np.argsort(np.angle(lam), axis=-1, kind="stable")
    phases = -np.angle(np.take_along_axis(lam, order, -1))
    vectors = eig.eigenvectors.reshape(blocks.shape)
    periods = (s.period for s in seqs)
    return [_Point(*point) for point in zip(periods, phases, vectors, order)]


def _greedy_match(prev: np.ndarray, nxt: np.ndarray) -> tuple[np.ndarray, float]:
    """Assign next-point eigenvectors to previous branches by overlap.

    Returns (permutation, worst assigned overlap): permutation[j] is the
    column of ``nxt`` continuing branch j of ``prev``. Pairs are picked
    greedily, largest overlap first, masking used rows and columns. A
    (S, n, n) stack of sector blocks is matched block by block, giving an
    (S, n) permutation and the worst overlap of all blocks.

    When the rows' maxima fall in distinct columns, the greedy picks
    exactly those maxima, so no loop runs. With orthonormal bases this
    holds whenever every row's best overlap exceeds 1/sqrt(2), which is then
    the unique maximum of its row and of its column.
    """
    overlap = np.abs(prev.conj().swapaxes(-1, -2) @ nxt)
    perm = np.argmax(overlap, axis=-1)
    best = np.max(overlap, axis=-1)
    clash = (np.diff(np.sort(perm, axis=-1), axis=-1) == 0).any(axis=-1)
    for s in map(tuple, np.argwhere(clash)):
        work = overlap[s].copy()
        for _ in range(perm.shape[-1]):
            i, j = np.unravel_index(np.argmax(work), work.shape)
            perm[s][i] = j
            best[s][i] = overlap[s][i, j]
            work[i, :] = -1.0
            work[:, j] = -1.0
    return perm, float(best.min())


def _stitch(
    intervals: list[tuple[float, _Point, float, _Point]],
    solve: Callable[[Sequence[float]], list[_Point]],
    depth: int,
    capped: list[float],
) -> list[np.ndarray]:
    """The branch permutation from a to b of each (t_a, a, t_b, b) interval,
    matched inside each sector. Intervals whose worst overlap is below
    STITCH_OVERLAP are bisected, and the midpoints of one level are solved
    together by ``solve``, which maps a list of periods to their points; the
    worst overlap of every interval accepted at the depth cap below
    STITCH_OVERLAP is appended to capped."""
    perms, split = [], []
    for i, (_, a, _, b) in enumerate(intervals):
        local, worst = _greedy_match(a.vectors, b.vectors)
        flat = (local + local.shape[1] * np.arange(len(local))[:, None]).ravel()
        perms.append(np.argsort(b.order)[flat[a.order]])
        if worst >= STITCH_OVERLAP:
            continue
        if depth >= MAX_REFINE_DEPTH:
            capped.append(worst)
        else:
            split.append(i)
    if split:
        t_mid = [0.5 * (intervals[i][0] + intervals[i][2]) for i in split]
        halves = []
        for i, t, mid in zip(split, t_mid, solve(t_mid)):
            t_a, a, t_b, b = intervals[i]
            halves += [(t_a, a, t, mid), (t, mid, t_b, b)]
        refined = _stitch(halves, solve, depth + 1, capped)
        for j, i in enumerate(split):
            perms[i] = refined[2 * j + 1][refined[2 * j]]
    return perms


@dataclass(frozen=True)
class FloquetSpectrum:
    """Branch-ordered eigenphases of the period map along a period sweep.

    phases[i, j] is branch j's eigenphase in (-pi, pi] at periods[i]; its
    eigenvector is column k of block s of blocks[i], the (S, n, n) blocks of
    the ``basis`` sectors as solved (float64 on the real path), for
    columns[i, j] = s n + k. Branch order is fixed by the phase ordering at
    the first grid point. When the period conserves a parity Q, sectors[j]
    is branch j's eigenvalue of Q (+1 or -1); a branch never leaves its
    sector. Otherwise sectors is None.
    """

    periods: np.ndarray
    phases: np.ndarray
    blocks: np.ndarray
    columns: np.ndarray
    basis: _Sectors
    register: SpinRegister
    sectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.phases.shape[1]

    def eigenvectors(self, points: np.ndarray, branches: np.ndarray) -> np.ndarray:
        """The (K, D) complex eigenvectors of branches[k] at points[k], for
        1-d index arrays: each pair's one block column, times P*, placed at
        its sector's states, then mixed by H_e for Q_x."""
        s, k = np.divmod(self.columns[points, branches], self.blocks.shape[-1])
        cols = self.blocks[points, s, :, k].T
        if self.basis.phase is not None:
            cols = cols * self.basis.phase[s].T.conj()
        out = np.zeros((self.basis.index.size, k.size), dtype=complex)
        out[self.basis.index[s].T, np.arange(k.size)] = cols
        if self.basis.axis == "x":
            out = mix_electron_rows(_HADAMARD, out[None])[0]
        return out.T.copy()

    @property
    def vectors(self) -> np.ndarray:
        """The dense (P, D, D) eigenvectors, vectors[i][:, j] branch j's at
        periods[i]; built from ``blocks`` on each access, in O(P D^2)."""
        p, d = self.phases.shape
        return self.eigenvectors(*np.divmod(np.arange(p * d), d)).reshape(p, d, -1).swapaxes(1, 2)


def compute_spectrum(
    builder: SequenceBuilder, register: SpinRegister, periods: np.ndarray
) -> FloquetSpectrum:
    """Diagonalise the period map over a grid and stitch branches together.

    The stored period axis holds each built sequence's own period, which
    tracks the grid as long as the builder does. Neighbouring points whose
    greedy overlap assignment dips below 0.9 are refined by bisection up
    to 6 levels before the assignment is accepted; if any interval is
    still ambiguous at that depth, one ValidityWarning gives their number
    and the worst overlap accepted.

    Grid points are built in chunks that fit ``linalg.CHUNK_BYTES``, and
    the bisection midpoints of one refinement level within a chunk are built
    together, in chunks of the same size. A chunk's stacked ``period_roots``
    are cut into the sector blocks of the parity the first period conserves
    (``protocols.conserved_parity``; SectorLeak above SECTOR_TOL), or kept
    whole, squared where a root is a half period, and solved by one stacked
    ``unitary_eigensolve``, which checks each map's blocks once for
    unitarity, and solves them in real arithmetic when they are symmetric
    (ideal PulsePol after the phase of ``_Sectors``, and CPMG). Branches are
    stitched inside their sector. Chunks are solved one after another in
    this process and stitched as they arrive; each point's eigenvector
    blocks are copied as solved into the result's (P, S, n, n) ``blocks``,
    P D^2 / 2 floats on the real path, complex once any map is not.
    """
    grid = np.asarray(periods, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("periods: need a 1-d grid of at least two points")
    require_joint_space(register)
    sectors = _Sectors.of(builder(grid[0]), register.dim)

    # Per point: the gap propagators, the root and its intermediate, then
    # blocks: the squared map, the Hermitian part, its eigenvectors, U V and
    # the residual: at most eight D x D complex matrices of 16 D^2 bytes.
    size = chunk_points(8 * 16 * register.dim**2)

    def solve(times: Sequence[float]) -> list[_Point]:
        chunks = (times[i : i + size] for i in range(0, len(times), size))
        return [p for chunk in chunks for p in _spectrum_points(builder, register, chunk, sectors)]

    dim = register.dim
    axis = np.empty(grid.size)
    phases = np.empty((grid.size, dim))
    columns = np.empty((grid.size, dim), dtype=int)

    def record(i: int, point: _Point, perm: np.ndarray) -> None:
        nonlocal blocks
        blocks = blocks.astype(np.result_type(blocks, point.vectors), copy=False)
        axis[i] = point.period
        phases[i] = point.phases[perm]
        columns[i] = point.order[perm]
        blocks[i] = point.vectors

    # Points are stitched as they arrive, so only one chunk and its
    # midpoints are held besides the branch-ordered arrays.
    perm = np.arange(dim)
    tail: list[_Point] = []  # the last point of the previous chunk
    capped: list[float] = []
    for start in range(0, grid.size, size):
        points = tail + solve(grid[start : start + size])
        t = grid[start - len(tail) : start + size]
        if not tail:
            labels = None if sectors.axis is None else 1 - 2 * (points[0].order // (dim // 2))
            blocks = np.empty((grid.size, *points[0].vectors.shape), points[0].vectors.dtype)
            record(0, points[0], perm)
        steps = _stitch(list(zip(t, points, t[1:], points[1:])), solve, 0, capped)
        for i, step, point in zip(count(start - len(tail) + 1), steps, points[1:]):
            perm = step[perm]
            record(i, point, perm)
        tail = points[-1:]
    if capped:
        warnings.warn(
            f"{len(capped)} stitch interval(s) reached refinement depth "
            f"{MAX_REFINE_DEPTH} with eigenvector overlap down to {min(capped):.3f} "
            f"< {STITCH_OVERLAP}; branch assignment there is a greedy guess",
            ValidityWarning,
            stacklevel=2,
        )
    return FloquetSpectrum(axis, phases, blocks, columns, sectors, register, labels)


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


def local_minima(
    t: np.ndarray, v: np.ndarray, below: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Interior local minima of every column of a (points, k) array v
    sampled at the points t.

    A minimum is a sample below ``below`` that is smaller than the sample
    before it and no larger than the one after. Returns (m, column, t_star,
    v_star), ordered by (m, column): the sample index, its column, and the
    vertex of the parabola through the samples m - 1, m and m + 1, taken in
    Newton form and clamped to [t[m - 1], t[m + 1]]; a minimum whose
    parabola does not open upward keeps its sample.
    """
    inner = v[1:-1]
    m, col = np.nonzero((inner < v[:-2]) & (inner <= v[2:]) & (inner < below))
    m += 1
    t0, t1, t2 = t[m - 1], t[m], t[m + 1]
    v0, v1, v2 = v[m - 1, col], v[m, col], v[m + 1, col]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope0 = (v1 - v0) / (t1 - t0)
        curv = ((v2 - v1) / (t2 - t1) - slope0) / (t2 - t0)
        up = curv > 0
        t_star = np.where(up, np.clip(0.5 * (t0 + t1) - slope0 / (2.0 * curv), t0, t2), t1)
        v_star = np.where(up, v0 + (t_star - t0) * (slope0 + curv * (t_star - t1)), v1)
    return m, col, t_star, v_star


def find_crossings(
    spectrum: FloquetSpectrum, gap_threshold: float, participation_min: float = 0.2
) -> tuple[AvoidedCrossing, ...]:
    """Locate avoided crossings below a phase-gap threshold.

    Local minima of every branch pair's circular phase gap below the
    threshold are refined by ``local_minima``. Each crossing is tagged
    with the nuclei whose electron-nuclear flip-flop operator has
    expectation weight >= participation_min on either branch state there;
    minima in which no nucleus takes part are dropped. Gaps and weights
    are built in chunks of branch pairs and of minima that fit
    ``linalg.CHUNK_BYTES``; crossings come sorted by (period, branch_a, branch_b).
    """
    if not 0 < gap_threshold < inf:
        raise ValidationError(f"gap_threshold: must be finite and > 0, got {gap_threshold}")
    branch_a, branch_b = np.triu_indices(spectrum.dim, 1)
    # The (points, pairs) gaps and their subtrahend are built in chunks of pairs.
    size = chunk_points(2 * 8 * spectrum.periods.size)
    minima = []
    for i in range(0, branch_a.size, size):
        a, b = branch_a[i : i + size], branch_b[i : i + size]
        gap = spectrum.phases[:, a]
        gap -= spectrum.phases[:, b]
        m, pair, *minimum = local_minima(spectrum.periods, _circular_gap(gap), gap_threshold)
        minima.append((m, a[pair], b[pair], *minimum))
    m, a, b, t_star, gap_star = map(np.concatenate, zip(*minima))
    gap_star = np.maximum(gap_star, 0.0)

    weights = _flip_flop_weights(spectrum, m, a, b)
    labels = [s.label for s in spectrum.register.nuclei]
    strongest = np.argsort(-weights, axis=1, kind="stable")
    found = []
    for k in np.lexsort((m, b, a, t_star)):
        keep = [n for n in strongest[k] if weights[k, n] >= participation_min]
        if keep:
            participants = tuple((labels[n], float(weights[k, n])) for n in keep)
            period, gap = float(t_star[k]), float(gap_star[k])
            found.append(AvoidedCrossing(period, gap, int(a[k]), int(b[k]), participants))
    return tuple(found)


def _flip_flop_weights(
    spectrum: FloquetSpectrum, m: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(candidates, nuclei) array of max over c in (a, b) of |<v_c|F_n|v_c>|,
    with v_c = spectrum.eigenvectors(m, c) and F_n = S+ I-_n + S- I+_n,
    gathered in chunks of candidates that fit ``linalg.CHUNK_BYTES``.

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
    # Per candidate, at most eight complex D-vectors: v scattered, mixed and
    # copied, v_conj and F_n v, with room to spare.
    size = chunk_points(8 * 16 * ops.dim)
    for part in (slice(i, i + size) for i in range(0, m.size, size)):
        for c in (a[part], b[part]):
            v = spectrum.eigenvectors(m[part], c)
            v_conj = v.conj()
            for n, (src, val) in enumerate(gathers):
                flipped = v[:, src]
                flipped *= val
                w = np.abs(np.einsum("ki,ki->k", v_conj, flipped))
                np.maximum(weights[part, n], w, out=weights[part, n])
    return weights


def write_spectrum_csv(spectrum: FloquetSpectrum, path: str, tau_per_period: float) -> None:
    """Write the stitched branches as CSV: tau_us, period_us, branch columns;
    tau is the period times the protocol's ``protocols.TAU_PER_PERIOD``."""
    write_csv(
        path,
        ["tau_us", "period_us", *(f"branch_{j}" for j in range(spectrum.dim))],
        ([t * tau_per_period, t, *phases] for t, phases in zip(spectrum.periods, spectrum.phases)),
    )
