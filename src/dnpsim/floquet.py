"""Stroboscopic spectroscopy of the protocol period map.

The eigenphases of the one-period propagator, followed along a sweep of
the period, form quasi-energy branches; nuclear resonances show up as
avoided crossings between branches. Each map is solved as the sector
blocks of the parity its period conserves, squared from the blocks of its
half-period root. The grid is solved in chunks; then as many intervals
as their overlaps fit are stitched at once, inside each sector by
eigenvector overlap, and an ambiguous interval is bisected, each level's
midpoints solved together. For an odd number of nuclei the spin flip
pairs branch j with D - 1 - j: stitching and the crossing search then do
the work of one member of each pair where they can check the pairing.
"""

from __future__ import annotations

import warnings
from math import inf
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, ValidityWarning
from .linalg import chunk_points, unitary_eigensolve
from .protocols import SequenceBuilder, conserved_parity, mix_electron_rows, parity_sectors
# period_unitary is not called here; perfbench/child.py traces it under this name.
from .protocols import period_roots, period_unitary, sector_blocks  # noqa: F401
from .spins import SpinRegister, require_joint_space
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
    maps, so ``unitary_eigensolve`` solves them in real arithmetic.

    T = (i Y_e (x) X^(x)N) K, K complex conjugation, commutes with every
    event propagator. Its flip i -> D - 1 - i keeps each sector when the
    register has an odd number of nuclei; then ``paired``, and index[s]
    lists the sector's electron-up states, then their partners in the same
    order: the paired shape ``unitary_eigensolve`` solves at half size."""

    axis: str | None
    index: np.ndarray
    phase: np.ndarray | None
    paired: bool

    @classmethod
    def of(cls, seq, dim: int) -> _Sectors:
        axis = conserved_parity(seq)
        index = parity_sectors(dim, 1 if axis is None else 2)
        up = index[:, : index.shape[1] // 2]  # the electron-up half: each sector ascends
        paired = axis is not None and np.array_equal(dim - 1 - up[:, ::-1], index[:, up.shape[1] :])
        index = np.concatenate((up, dim - 1 - up), axis=1) if paired else index
        phase = np.where(index >= dim // 2, _DOWN_PHASE, 1.0) if axis == "z" else None
        return cls(axis, index, phase, paired)

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


def _spectrum_points(
    builder: SequenceBuilder, register: SpinRegister, grid: np.ndarray, sectors: _Sectors
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The built periods (P,), eigenphases (P, D) by block column (phases[i,
    s n + k] belongs to column k of block s), (P, S, n, n) eigenvector
    blocks and their (P, S) ``_partnered`` mask, of a grid chunk, from one
    stacked eigensolve, which checks their unitarity, of the sector blocks
    of its ``period_roots``, squared where a root is a half period."""
    seqs = [builder(t) for t in grid]
    roots, squared = period_roots(seqs, register)
    blocks = sectors.blocks(roots)
    if squared.all():  # as every periodic builder's roots are; a masked product costs more
        blocks = blocks @ blocks
    else:
        blocks[squared] = blocks[squared] @ blocks[squared]
    eig = unitary_eigensolve(blocks.reshape(-1, *blocks.shape[-2:]))
    phases = -np.angle(eig.eigenvalues.reshape(len(seqs), -1))
    vectors = eig.eigenvectors.reshape(blocks.shape)
    return np.array([s.period for s in seqs]), phases, vectors, _partnered(vectors)


def _partnered(blocks: np.ndarray) -> np.ndarray:
    """(...,) True where an (n, n) block of n > 1 holds in each column
    n - 1 - k exactly +/- V times column k, V = [[0, I], [-I, 0]], as the
    half-size solve builds them: V is orthogonal, so such blocks' overlaps
    mirror, |<n-1-j|n-1-l>| = |<j|l>|."""
    m = blocks.shape[-1] // 2
    v, w = blocks[..., :m], blocks[..., : m - 1 : -1]  # columns k < m and n - 1 - k
    flip = np.concatenate((v[..., m:, :], -v[..., :m, :]), axis=-2)  # V v
    return ((w == flip).all(axis=-2) | (w == -flip).all(axis=-2)).all(axis=-1) & (m > 0)


def _greedy_match(prev: np.ndarray, nxt: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, ...]:
    """Assign next-point eigenvectors to previous branches by overlap, for
    each (n, n) block of two (..., n, n) stacks: (permutation, worst
    assigned overlap), of shapes (..., n) and (...), where permutation[...,
    j] is the column of ``nxt`` continuing branch j of ``prev``. Pairs are
    picked greedily, largest overlap first, masking used rows and columns.

    When the rows' maxima fall in distinct columns, the greedy picks exactly
    those maxima, so no loop runs: with orthonormal bases, whenever every
    row's best overlap exceeds 1/sqrt(2). Where ``half`` (...) holds, both
    blocks are ``_partnered``, so only the first n/2 overlap rows are formed
    and perm[n - 1 - k] = n - 1 - perm[k]; a block that clashes, or that
    ``half`` leaves out while marking others, takes the loop on its whole overlap.
    """
    n = prev.shape[-1]
    rows = n // 2 if half.any() else n
    if np.iscomplexobj(prev) or np.iscomplexobj(nxt):
        # In eighths of the stack, into one real array: a part's conj copy and
        # complex product, four times its share of the overlap, stay within half of it.
        a, b = prev.reshape(-1, n, n), nxt.reshape(-1, n, n)
        overlap, step = np.empty((len(a), rows, n)), len(a) // 8 + 1
        for at in (slice(i, i + step) for i in range(0, len(a), step)):
            np.abs(a[at, :, :rows].conj().swapaxes(-1, -2) @ b[at], out=overlap[at])
        overlap = overlap.reshape(*prev.shape[:-2], rows, n)
    else:  # real: the modulus in place
        overlap = prev[..., :rows].conj().swapaxes(-1, -2) @ nxt
        np.abs(overlap, out=overlap)
    perm = np.argmax(overlap, axis=-1)
    best = np.take_along_axis(overlap, perm[..., None], -1)[..., 0]
    if rows < n:
        perm = np.concatenate((perm, n - 1 - perm[..., ::-1]), axis=-1)
        best = np.concatenate((best, best[..., ::-1]), axis=-1)
    clash = (np.diff(np.sort(perm, axis=-1), axis=-1) == 0).any(axis=-1) | (rows < n) & ~half
    overlaps = np.abs(prev[clash].conj().swapaxes(-1, -2) @ nxt[clash])
    for s, overlap in zip(map(tuple, np.argwhere(clash)), overlaps):
        work = overlap.copy()
        for _ in range(n):
            i, j = np.unravel_index(np.argmax(work), work.shape)
            perm[s][i], best[s][i] = j, overlap[i, j]
            work[i, :], work[:, j] = -1.0, -1.0
    return perm, best.min(axis=-1)


def _stitch(
    t_a: np.ndarray, a: np.ndarray, t_b: np.ndarray, b: np.ndarray, half: np.ndarray, solve,
    depth: int, capped: list,
) -> np.ndarray:
    """The (K, D) column maps of K intervals from the periods t_a (K,) the
    builder was given, with blocks a (K, S, n, n), to t_b with b, matched inside
    each sector by ``_greedy_match`` with ``half`` (K, S): b's column perm[k, c]
    continues a's column c. Intervals whose worst overlap is below
    STITCH_OVERLAP are bisected: one level's midpoints are solved together
    by ``solve``, which maps periods to their ``_spectrum_points``, and the
    next level stitches the split intervals' first halves, then their second
    halves, as one stack. The worst overlap of every interval accepted at
    the depth cap below STITCH_OVERLAP is appended to capped."""
    local, worst = _greedy_match(a, b, half)
    perms = (local + local.shape[-1] * np.arange(local.shape[1])[:, None]).reshape(len(a), -1)
    split = np.flatnonzero(worst.min(axis=1) < STITCH_OVERLAP)
    if depth >= MAX_REFINE_DEPTH:
        capped.extend(worst[split].min(axis=1))
    elif split.size:
        t_mid = 0.5 * (t_a[split] + t_b[split])
        _, _, mid, partnered = solve(t_mid)
        half = half[split] & partnered
        halves = _stitch(
            np.concatenate((t_a[split], t_mid)), np.concatenate((a[split], mid)),
            np.concatenate((t_mid, t_b[split])), np.concatenate((mid, b[split])),
            np.concatenate((half, half)), solve, depth + 1, capped,
        )
        perms[split] = np.take_along_axis(halves[split.size :], halves[: split.size], axis=1)
    return perms


class FloquetSpectrum(NamedTuple):
    """Branch-ordered eigenphases of the period map along a period sweep.

    phases[i, j] is branch j's eigenphase in (-pi, pi] at periods[i]; its
    eigenvector is column k of block s of blocks[i], the (S, n, n) blocks of
    the ``basis`` sectors as solved (float64 on the real path), for
    columns[i, j] = s n + k. Branch order is fixed by the phase ordering at
    the first grid point, and a branch never leaves its sector.
    """

    periods: np.ndarray
    phases: np.ndarray
    blocks: np.ndarray
    columns: np.ndarray
    basis: _Sectors
    register: SpinRegister

    @property
    def sectors(self) -> np.ndarray | None:
        """Branch j's eigenvalue of the conserved parity Q (block 0 is +1), or None."""
        return None if self.basis.axis is None else 1 - 2 * (self.columns[0] // (self.dim // 2))

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

    Points are solved in chunks that fit ``linalg.CHUNK_BYTES``: a chunk's
    stacked ``period_roots``, cut into the sector blocks of the parity the
    first period conserves (``protocols.conserved_parity``; SectorLeak
    above SECTOR_TOL) or kept whole, and squared where a root is a half
    period, go to one ``unitary_eigensolve``, which checks their unitarity
    and solves symmetric blocks (ideal PulsePol after the phase of
    ``_Sectors``, and CPMG) in real arithmetic, at half size for odd N.
    Each chunk is written into one ``blocks`` array. The intervals are then
    stitched inside each sector, as many at once as their ``_greedy_match``
    overlaps fit ``CHUNK_BYTES``, so that a refinement level's midpoints
    are solved together; each column map carries ``columns`` on one point.
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

    def solve(times: np.ndarray) -> list[np.ndarray]:
        out = []  # preallocated by the first chunk, promoted if a later one is complex
        for i in range(0, times.size, size):
            chunk = _spectrum_points(builder, register, times[i : i + size], sectors)
            out = out or [np.empty((times.size, *x.shape[1:]), x.dtype) for x in chunk]
            for j, x in enumerate(chunk):
                out[j] = out[j].astype(np.result_type(out[j], x), copy=False)
                out[j][i : i + size] = x
        return out

    axis, raw, blocks, partnered = solve(grid)  # raw: eigenphases by block column
    columns = np.empty((grid.size, register.dim), dtype=int)
    columns[0] = np.argsort(-raw[0], kind="stable")
    capped: list[float] = []
    t_a, a, t_b, b = grid[:-1], blocks[:-1], grid[1:], blocks[1:]  # interval k: points k, k + 1
    half = partnered[:-1] & partnered[1:]
    # Per interval: the complex overlap of ``_greedy_match``, n/2 rows of each block when paired.
    span = chunk_points(16 * register.dim * blocks.shape[-1] // (1 + sectors.paired))
    for start in range(0, grid.size - 1, span):
        at = slice(start, start + span)
        steps = _stitch(t_a[at], a[at], t_b[at], b[at], half[at], solve, 0, capped)
        for i, step in enumerate(steps, start + 1):
            columns[i] = step[columns[i - 1]]
    if capped:
        warnings.warn(
            f"{len(capped)} stitch interval(s) reached refinement depth "
            f"{MAX_REFINE_DEPTH} with eigenvector overlap down to {min(capped):.3f} "
            f"< {STITCH_OVERLAP}; branch assignment there is a greedy guess",
            ValidityWarning,
            stacklevel=2,
        )
    phases = np.take_along_axis(raw, columns, 1)
    return FloquetSpectrum(axis, phases, blocks, columns, sectors, register)


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
    """min(|diff|, 2 pi - |diff|), in place: the gap on the circle of two
    phases in (-pi, pi], whose difference lies in (-2 pi, 2 pi); a small
    gap keeps every bit of |diff|."""
    np.abs(diff, out=diff)
    return np.minimum(diff, 2.0 * np.pi - diff, out=diff)


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
    Where the sectors pair and branch D - 1 - j holds the flip partner of
    branch j at every point (an integer check on real blocks' columns), only
    pairs a + b <= D - 1 are searched, and each crossing's mirror (D - 1 - b,
    D - 1 - a) is emitted with its period, gap and participants.
    """
    if not 0 < gap_threshold < inf:
        raise ValidationError(f"gap_threshold: must be finite and > 0, got {gap_threshold}")
    if not abs(participation_min) < inf:
        raise ValidationError(f"participation_min: must be finite, got {participation_min}")
    dim, n, c = spectrum.dim, spectrum.blocks.shape[-1], spectrum.columns
    paired = spectrum.basis.paired and spectrum.blocks.dtype == float
    mirrored = paired and np.array_equal(c[:, ::-1], c + n - 1 - 2 * (c % n))  # k <-> n - 1 - k
    branch_a, branch_b = np.triu_indices(dim, 1)
    if mirrored:  # one pair of each mirror orbit {(a, b), (D - 1 - b, D - 1 - a)}
        branch_a, branch_b = (x[branch_a + branch_b < dim] for x in (branch_a, branch_b))
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
    if mirrored:  # each crossing's mirror, but a branch's crossing with its own partner
        twin = a + b < dim - 1
        grown = [(x, x) for x in (m, t_star, gap_star, weights)]
        grown += [(a, dim - 1 - b), (b, dim - 1 - a)]
        m, t_star, gap_star, weights, a, b = (np.concatenate((x, y[twin])) for x, y in grown)
    order = np.lexsort((m, b, a, t_star))
    rows = [x[order].tolist() for x in (t_star, gap_star, a, b, weights)]
    rows.append(np.argsort(-weights[order], axis=1, kind="stable").tolist())
    labels, found = [s.label for s in spectrum.register.nuclei], []
    for period, gap, i, j, w, strongest in zip(*rows):
        participants = tuple((labels[k], w[k]) for k in strongest if w[k] >= participation_min)
        if participants:
            found.append(AvoidedCrossing(period, gap, i, j, participants))
    return tuple(found)


def _flip_flop_weights(
    spectrum: FloquetSpectrum, m: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(candidates, nuclei) array of max over c in (a, b) of |<v_c|F_n|v_c>|,
    with v_c = spectrum.eigenvectors(m, c) and F_n = S+ I-_n + S- I+_n,
    gathered in chunks of candidates that fit ``linalg.CHUNK_BYTES``.

    Each F_n is a gather, (F_n v)[i] = val[i] v[src[i]]: it flips the
    electron bit D/2 and nucleus n's bit 2^(N-1-n) together, src = i ^ both,
    and val is 1 where the two bits of i differ, else 0.
    """
    n_nuclei, dim = len(spectrum.register.nuclei), spectrum.register.dim
    rows, half = np.arange(dim), dim // 2
    bits = [1 << (n_nuclei - 1 - n) for n in range(n_nuclei)]
    gathers = [(rows ^ (half | bit), (rows >= half) != ((rows & bit) > 0)) for bit in bits]
    weights = np.zeros((m.size, n_nuclei))
    # Per candidate, at most eight complex D-vectors: v scattered, mixed and
    # copied, v_conj and F_n v, with room to spare.
    size = chunk_points(8 * 16 * dim)
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
