"""Closed-form predictions for the polarisation protocol.

Everything here is derived from the first-order average Hamiltonian of the
4 tau bracket: per-spin flip-flop rates and detunings, the transfer
probability and its ceiling, side-dip locations, the blockade shift of a
weak spin's resonance by a stronger one, and the single-flip manifold of
N spins behind both the blockade and the dark/bright modes of a pair.

All frequencies are rad/us and all times us, as everywhere else.
"""

from __future__ import annotations

import warnings
from math import atan2, hypot, pi, sin, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSpins, ValidationError, ZeroCoupling
from .protocols import ModulationFunctions, resonant_period
from .spins import NuclearSpin, precession_frequency

#: Two spins within this distance in precession frequency (rad/us) cannot be
#: told apart by the blockade-shift formula; its denominator blows up.
DEGENERACY_TOL = 1e-4


class EffectiveSpinParams(NamedTuple):
    """Per-spin knobs of the average Hamiltonian at a given period.

    Attributes
    ----------
    label : str
        Nucleus label, carried through for reporting.
    omega_i : float
        Dressed precession frequency of the nucleus.
    period : float
        Protocol period T the parameters refer to.
    harmonic : int
        Harmonic index k of the resonance being addressed.
    detuning : float
        omega_i - 2 pi k / T; zero exactly on resonance.
    g : float
        Effective flip-flop rate (half the coupling matrix element).
    """

    label: str
    omega_i: float
    period: float
    harmonic: int
    detuning: float
    g: float

    @property
    def resonant_period(self) -> float:
        """Period putting this spin exactly on its k-th harmonic."""
        return resonant_period(self.omega_i, self.harmonic)


def effective_params(
    spin: NuclearSpin, larmor: float, period: float, harmonic: int = 3
) -> EffectiveSpinParams:
    """Evaluate the average-Hamiltonian parameters of one spin.

    The flip-flop matrix element at harmonic k is assembled from the
    modulation-function Fourier coefficients,

        c = (A_perp / 8) [(a1 - b2) - i (b1 + a2)],   g = |c|,

    which vanishes at even k and at k = 1 mod 4 (those harmonics drive the
    double-quantum transition instead); a warning is emitted in that case.
    """
    if not period > 0:
        raise ValidationError(f"period: must be > 0, got {period}")
    omega_i = precession_frequency(spin, larmor)
    coeff = ModulationFunctions.fourier(harmonic)
    re = coeff.a1 - coeff.b2
    im = -(coeff.b1 + coeff.a2)
    amp = hypot(re, im)
    if amp < 1e-12:  # the k = 1 mod 4 family cancels only to rounding
        amp = 0.0
    g = (spin.a_perp / 8.0) * amp
    if g == 0.0:
        warnings.warn(
            f"harmonic k = {harmonic} gives zero flip-flop rate for {spin.label}"
            " (even harmonics and k = 1 mod 4 do not drive the flip-flop)",
            ZeroCoupling,
            stacklevel=2,
        )
    detuning = omega_i - 2.0 * pi * harmonic / period
    return EffectiveSpinParams(spin.label, omega_i, period, harmonic, detuning, g)


def single_spin_polarisation(params: EffectiveSpinParams, n_periods: int) -> float:
    """Transfer probability after one burst of n_periods periods.

        P = (2g / Omega_r)^2 sin^2(Omega_r n_periods T / 2),
        Omega_r = sqrt(detuning^2 + 4 g^2).
    """
    if n_periods < 1:
        raise ValidationError(f"n_periods: must be >= 1, got {n_periods}")
    t = n_periods * params.period
    omega_r = hypot(params.detuning, 2.0 * params.g)
    if omega_r == 0.0:
        return 0.0
    return (2.0 * params.g / omega_r) ** 2 * sin(omega_r * t / 2.0) ** 2


def polarisation_ceiling(params: EffectiveSpinParams) -> float:
    """Envelope of the transfer probability over all pulse counts.

    Equals 1 / (1 + (detuning / 2g)^2); zero when the coupling vanishes.
    """
    if params.g == 0.0:
        return 0.0
    return 4.0 * params.g**2 / (params.detuning**2 + 4.0 * params.g**2)


def optimal_pulse_count(params: EffectiveSpinParams) -> int:
    """Number of periods per burst maximising the transfer probability.

    The probability peaks when Omega_r n T / 2 = pi / 2, so the best
    integer burst length is the nearest integer to pi / (Omega_r T).
    """
    omega_r = hypot(params.detuning, 2.0 * params.g)
    if omega_r == 0.0:
        raise ValidationError("cannot optimise a burst with zero coupling and detuning")
    return max(1, round(pi / (omega_r * params.period)))


class SideDip(NamedTuple):
    """One pair of finite-burst satellite dips flanking the main resonance."""

    order: int
    lower: float
    upper: float


def side_dips(
    params: EffectiveSpinParams, n_periods: int, orders: tuple[int, ...] = (1, 2, 3)
) -> tuple[SideDip, ...]:
    """Periods of the satellite dips of a burst of n_periods periods.

    The transfer of a finite burst vanishes where Omega_r n_periods T
    equals a multiple of 2 pi; solving that condition for the period gives

        T = T_r (1 +- (n / (k N_p)) sqrt(1 - mu^2 (k^2 N_p^2 / n^2 - 1)))
            / (1 + mu^2),        mu = 2 g / omega_i.

    Orders whose square root turns negative (dips swallowed by the
    resonance linewidth) are omitted from the result.
    """
    if n_periods < 1:
        raise ValidationError(f"n_periods: must be >= 1, got {n_periods}")
    k = params.harmonic
    t_r = params.resonant_period
    mu_sq = (2.0 * params.g / params.omega_i) ** 2
    out = []
    for n in orders:
        if n < 1:
            raise ValidationError(f"orders: must be >= 1, got {n}")
        disc = 1.0 - mu_sq * ((k * n_periods / n) ** 2 - 1.0)
        if disc <= 0.0:
            continue
        r = (n / (k * n_periods)) * sqrt(disc)
        out.append(SideDip(n, t_r * (1.0 - r) / (1.0 + mu_sq), t_r * (1.0 + r) / (1.0 + mu_sq)))
    return tuple(out)


def _require_common_period(params: Sequence[EffectiveSpinParams]) -> None:
    """ValidationError unless every parameter set has the first one's period
    and harmonic: the formulas combining spins need one drive frame."""
    first = params[0]
    if any(abs(p.period - first.period) > 1e-12 or p.harmonic != first.harmonic for p in params):
        raise ValidationError("spins need a common period and harmonic")


class BlockadePair(NamedTuple):
    """A strongly coupled blockade spin shadowing a weaker target spin.

    delta_minus is the precession-frequency split omega_B - omega_target;
    theta_p the mixing angle of the electron-blockade doublet at the pair's
    period, theta_p = atan2(2 G, delta_B) in (0, pi). Only ``rabi`` reads
    theta_p; the other properties do not depend on the period.
    """

    strong: EffectiveSpinParams
    weak: EffectiveSpinParams
    delta_minus: float
    theta_p: float

    @property
    def rabi(self) -> float:
        """Attenuated flip-flop rate of the target, 2 g sin(theta_p / 2): the
        electron transition it rides along is shared with the blockade doublet."""
        return 2.0 * self.weak.g * sin(self.theta_p / 2.0)

    @property
    def ratio(self) -> float:
        """Relative displacement of the target resonance, -G^2 / (omega_target
        delta_minus). A blockade spin above the target in frequency pushes
        the dip to shorter periods; 0, without a sign, when G is 0."""
        return 0.0 - self.strong.g**2 / (self.weak.omega_i * self.delta_minus)

    @property
    def shifted_period(self) -> float:
        """First-order displaced resonant period, T_r (1 + ratio)."""
        return self.weak.resonant_period * (1.0 + self.ratio)

    @property
    def crossing_frequency(self) -> float:
        """Exact drive frequency omega_target + G^2 / delta_minus at which the
        blockaded target line crosses: with g = 0, two levels of
        ``excitation_manifold([strong, weak])`` are degenerate there. Its period
        2 pi k / crossing_frequency is exactly T_r / (1 - ratio), which differs
        from ``shifted_period`` by T_r ratio^2 / (1 - ratio); the two part for
        large |ratio|: 5.985 against 5.853 us for C3 over C21, 22.97 against
        11.89 us for C4 over C8 at k = 3.
        """
        return self.weak.omega_i + self.strong.g**2 / self.delta_minus


def blockade_pair(strong: EffectiveSpinParams, weak: EffectiveSpinParams) -> BlockadePair:
    """Pair up a blockade spin with the target it detunes.

    Both parameter sets must refer to the same period and harmonic; the
    natural choice is the target's resonant period, where the target
    detuning vanishes. DegenerateSpins when the precession frequencies
    coincide within DEGENERACY_TOL.
    """
    _require_common_period((strong, weak))
    delta_minus = strong.omega_i - weak.omega_i
    if abs(delta_minus) < DEGENERACY_TOL:
        raise DegenerateSpins(
            f"{strong.label} and {weak.label} differ by {delta_minus:.2e} rad/us; "
            "the blockade formulas diverge for coinciding precession frequencies"
        )
    return BlockadePair(strong, weak, delta_minus, atan2(2.0 * strong.g, strong.detuning))


class ExcitationManifold(NamedTuple):
    """Hamiltonian of the single-flip manifold with its eigenvalues in
    ascending order and its eigenvectors as the columns of ``states``."""

    hamiltonian: np.ndarray
    energies: np.ndarray
    states: np.ndarray


def excitation_manifold(params: Sequence[EffectiveSpinParams]) -> ExcitationManifold:
    """Diagonalise the single-flip manifold of N >= 1 spins at one period.

    Index 0 is the electron flip and index j + 1 the flip of spin j. In the
    frame of the drive the electron flip sits at c = sum_j delta_j / 2,
    spin j's flip at c - delta_j, and the flip-flop rate g_j couples the
    two. One spin splits by Omega_r = sqrt(delta^2 + 4 g^2); a strong spin
    dresses the electron flip and displaces a weaker spin's crossing (the
    blockade); spins at a common detuning leave one dark mode per extra
    spin, orthogonal to (g_1, ..., g_N), with no electron amplitude. The
    g_j = 0 spectrum is the manifold of ``p._replace(g=0.0)``.
    """
    if not params:
        raise ValidationError("excitation manifold needs at least one spin")
    _require_common_period(params)
    detunings = np.array([p.detuning for p in params])
    c = 0.5 * detunings.sum()
    h = np.diag(np.concatenate(([c], c - detunings)))
    h[0, 1:] = h[1:, 0] = [p.g for p in params]
    energies, states = np.linalg.eigh(h)
    return ExcitationManifold(h, energies, states)
