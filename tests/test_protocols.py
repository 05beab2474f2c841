"""Sequence construction, modulation functions and the averaged generator."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from dnpsim import (
    EventKind,
    PulseEvent,
    PulseSequence,
    build_operators,
    cpmg_for_period,
    fourier_coefficients,
    period_unitary,
    precession_frequency,
    pulsepol_for_period,
    resonant_period,
)
from dnpsim import protocols
from dnpsim.errors import DimensionMismatch, InvalidTau, NotIdealPulses, NotUnitary, ValidationError
from dnpsim.errors import ValidityWarning
from dnpsim.linalg import unitarity_defect

import reference_engine as ref
from conftest import LARMOR, SHIPPED_CONFIGS, broken_frame, make_register
from conftest import shipped_register

G_COEFF = (math.sqrt(2.0) + 2.0) / (6.0 * math.pi)


def test_polarisation_period_structure():
    seq = pulsepol_for_period(4 * 1.7)
    assert seq.label == "pulsepol"
    assert seq.period == pytest.approx(4 * 1.7)
    kinds = [e.kind for e in seq.events]
    assert kinds.count(EventKind.ROTATION) == 16
    assert kinds.count(EventKind.FREE_EVOLUTION) == 8
    free_total = sum(e.duration for e in seq.events if e.kind is EventKind.FREE_EVOLUTION)
    assert free_total == pytest.approx(seq.period)  # ideal pulses take no time
    assert all(e.duration == 0.0 for e in seq.events if e.kind is EventKind.ROTATION)
    # Finite pulses keep the layout: each pi is two pi/2 events of one phase.
    kinds = [e.kind for e in pulsepol_for_period(4 * 1.7, rabi=500.0).events]
    assert kinds.count(EventKind.ROTATION) == 16
    assert kinds.count(EventKind.FREE_EVOLUTION) == 8


def test_refocusing_period_structure():
    seq = cpmg_for_period(2 * 0.9)
    assert seq.label == "cpmg"
    assert seq.period == pytest.approx(1.8)
    kinds = [e.kind for e in seq.events]
    assert kinds.count(EventKind.ROTATION) == 2
    assert kinds.count(EventKind.FREE_EVOLUTION) == 4


def test_for_period_helpers():
    assert pulsepol_for_period(6.8).period == pytest.approx(6.8)
    assert pulsepol_for_period(6.8).harmonic == 3
    assert cpmg_for_period(4.2, harmonic=1).period == pytest.approx(4.2)


def _rot(angle, phase, duration=0.0):
    return PulseEvent(EventKind.ROTATION, angle=angle, phase=phase, duration=duration)


def _free(duration):
    return PulseEvent(EventKind.FREE_EVOLUTION, duration=duration)


X, Y, MINUS_X = 0.0, math.pi / 2, math.pi
HALF_PI, PI = math.pi / 2, math.pi


def written_pulsepol(period, rabi=None):
    """The polarisation period as a list written out by hand per pulse
    mode; in finite mode each pi is one event lasting pi / rabi."""
    tau = period / 4.0
    if rabi is None:
        gap = tau / 2.0
        half = [
            _rot(HALF_PI, Y), _free(gap), _rot(HALF_PI, MINUS_X), _rot(HALF_PI, MINUS_X),
            _free(gap), _rot(HALF_PI, Y), _rot(HALF_PI, X), _free(gap),
            _rot(HALF_PI, Y), _rot(HALF_PI, Y), _free(gap), _rot(HALF_PI, X),
        ]
    else:
        d_half, d_pi = HALF_PI / rabi, PI / rabi
        gap = tau / 2.0 - d_half - d_pi / 2.0
        half = [
            _rot(HALF_PI, Y, d_half), _free(gap), _rot(PI, MINUS_X, d_pi), _free(gap),
            _rot(HALF_PI, Y, d_half), _rot(HALF_PI, X, d_half), _free(gap),
            _rot(PI, Y, d_pi), _free(gap), _rot(HALF_PI, X, d_half),
        ]
    return tuple(half + half)


def written_cpmg(period, rabi=None):
    """The refocusing period written out by hand per pulse mode."""
    tau = period / 2.0
    if rabi is None:
        half = [_free(tau / 2), _rot(PI, X), _free(tau / 2)]
    else:
        d_pi = PI / rabi
        gap = tau / 2 - d_pi / 2
        half = [_free(gap), _rot(PI, X, d_pi), _free(gap)]
    return tuple(half + half)


@pytest.mark.parametrize("period", [0.37, 1.8, 6.85, 7.123456789, 25.7])
def test_builders_emit_the_written_events(period):
    """Ideal polarisation, ideal and finite refocusing periods are event
    for event the hand-written lists, durations included."""
    assert pulsepol_for_period(period).events == written_pulsepol(period)
    assert cpmg_for_period(period).events == written_cpmg(period)
    for rabi in (300.0, 2000.0):
        assert cpmg_for_period(period, rabi=rabi).events == written_cpmg(period, rabi)


@pytest.mark.parametrize("rabi", [300.0, 2000.0])
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_finite_polarisation_map_equals_the_written_one(config, rabi):
    """Splitting each finite pi into two pi/2 events of one phase leaves
    the period map unchanged to rounding."""
    register = shipped_register(config)
    t_r = resonant_period(precession_frequency(register.nuclei[0], register.larmor))
    for period in (t_r, 0.93 * t_r):
        written = PulseSequence(written_pulsepol(period, rabi), period, 3, "written")
        got = period_unitary(pulsepol_for_period(period, rabi=rabi), register)
        assert np.max(np.abs(got - period_unitary(written, register))) <= 1e-12


def test_invalid_tau():
    with pytest.raises(InvalidTau):
        pulsepol_for_period(0.0)
    with pytest.raises(InvalidTau):
        cpmg_for_period(-1.0)
    for bad in (math.nan, math.inf):
        for build in (pulsepol_for_period, cpmg_for_period):
            with pytest.raises(InvalidTau, match="finite"):
                build(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_event_fields_are_rejected(bad):
    with pytest.raises(ValidationError, match="duration"):
        PulseEvent(EventKind.FREE_EVOLUTION, duration=bad)
    with pytest.raises(ValidationError, match="angle/phase"):
        PulseEvent(EventKind.ROTATION, angle=bad, phase=0.0)
    with pytest.raises(ValidationError, match="angle/phase"):
        PulseEvent(EventKind.ROTATION, angle=math.pi, phase=bad)
    with pytest.raises(ValidationError, match="period"):
        PulseSequence(events=(), period=bad, harmonic=1, label="free")
    with pytest.raises(ValidationError, match="rabi"):
        pulsepol_for_period(6.8, rabi=bad)


def test_finite_pulses_must_fit():
    # a pi/2 pulse at rabi=1 rad/us lasts pi/2 us, far longer than tau/4
    with pytest.raises(InvalidTau):
        pulsepol_for_period(4 * 0.5, rabi=1.0)


def test_finite_sequence_keeps_period():
    seq = pulsepol_for_period(4 * 1.7, rabi=500.0)
    assert all(e.duration > 0.0 for e in seq.events if e.kind is EventKind.ROTATION)
    total = sum(e.duration for e in seq.events)
    assert total == pytest.approx(seq.period)


def test_period_unitary_is_unitary(reg_c3_c21):
    for period in (5.6, 6.85, 7.4):
        u = period_unitary(pulsepol_for_period(period), reg_c3_c21)
        assert unitarity_defect(u) <= 1e-10


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_free_propagator_is_the_diagonal_blocks_of_expm(config):
    """Block r of ``free_propagator`` is block [r, r] of scipy's
    exp(-i H0 t), whose other blocks are zero."""
    register = shipped_register(config)
    d = register.dim // 2
    for t in (0.05, 1.7, 6.85):
        got = protocols.free_propagator(register, t)
        assert got.shape == (2, d, d)
        want = scipy.linalg.expm(-1j * t * ref.static_hamiltonian(register)).reshape(2, d, 2, d)
        assert not want[0, :, 1].any() and not want[1, :, 0].any()
        for r in (0, 1):
            assert np.max(np.abs(got[r] - want[r, :, r])) <= 1e-12


SMALL_CONFIGS = [name for name in SHIPPED_CONFIGS if name != "register27.yaml"]


def spin_flip(dim: int) -> np.ndarray:
    """V = i Y_e (x) X^(x)N: the all-spin flip i -> D - 1 - i, with -1 on
    the electron-down rows (the electron is the top bit)."""
    v = np.zeros((dim, dim))
    v[np.arange(dim), dim - 1 - np.arange(dim)] = np.where(np.arange(dim) < dim // 2, 1.0, -1.0)
    return v


@pytest.mark.parametrize("rabi", [None, 300.0, 2000.0], ids=["ideal", "rabi300", "rabi2000"])
@pytest.mark.parametrize(
    "builder", [pulsepol_for_period, cpmg_for_period], ids=["pulsepol", "cpmg"]
)
@pytest.mark.parametrize("config", SMALL_CONFIGS)
def test_every_map_commutes_with_the_antiunitary_spin_flip(config, builder, rabi):
    """max |V conj(R) V^T - R| <= 1e-12 for every root and period map, at
    k = 3 and 11, ideal and finite, the root the full-width product of
    ``reference_engine.dense_period_unitary`` and the map its square:
    ``period_roots`` builds half of every map from the other half by this
    symmetry, so it would pass by construction.

    Take V = i Y_e (x) X^(x)N, real and orthogonal, and T = V K with K
    complex conjugation. X Z X = -Z, X X X = X, and (iY) Z (iY)^T = -Z,
    (iY) X (iY)^T = -X, (iY) Y (iY)^T = Y. H0 = sum_n w_n Iz_n + Sz sum_n
    A_perp_n Ix_n is real, so V conj(H0) V^T = -H0; and conj(S_phi) =
    cos(phi) Sx - sin(phi) Sy gives V conj(S_phi) V^T = -S_phi. Every event
    propagator E = exp(-i (H0 d + theta S_phi)), the free gaps (theta = 0)
    and ideal pulses (d = 0) among them, then has V conj(E) V^T =
    exp(+i V conj(H0 d + theta S_phi) V^T) = E, and so has every product
    of them: T commutes with every root and period map, with T^2 = -1, and
    pairs each eigenvalue e^{i phi} with e^{-i phi}. The Floquet solve
    orders its sectors so that this gives each block the shape
    ``linalg.unitary_eigensolve`` solves at half size; a change to
    ``static_hamiltonian_eig`` or ``_electron_rotation`` that breaks T fails
    here rather than silently in the count of fallbacks.
    """
    register = shipped_register(config)
    v = spin_flip(register.dim)
    omega = precession_frequency(register.nuclei[0], register.larmor)
    for k in (3, 11):
        t_r = resonant_period(omega, k)
        for seq in (builder(t, harmonic=k, rabi=rabi) for t in (0.98 * t_r, t_r, 1.03 * t_r)):
            half = seq.events[: len(seq.events) // 2]
            root = ref.dense_period_unitary(
                PulseSequence(half, sum(e.duration for e in half), k, seq.label), register
            )
            for u in (root, root @ root):  # the root and the period map
                assert np.max(np.abs(v @ u.conj() @ v.T - u)) <= 1e-12


def test_a_one_pattern_chunk_gets_its_maps_as_built(reg_c3_c21, monkeypatch):
    """``period_roots`` hands a chunk of one event pattern the array
    ``_pattern_maps`` built, with no copy; it is writable, as
    ``period_unitary`` squares it in place, and holds the same maps as
    when another pattern shares the chunk."""
    built = []
    build = protocols._pattern_maps
    monkeypatch.setattr(protocols, "_pattern_maps", lambda *a: built.append(build(*a)) or built[-1])
    seqs = [pulsepol_for_period(t) for t in (6.7, 6.8, 6.9)]
    alone, squared = protocols.period_roots(seqs, reg_c3_c21)
    assert alone is built[0] and alone.flags.writeable and squared.all()
    mixed, _ = protocols.period_roots(seqs + [cpmg_for_period(6.8)], reg_c3_c21)
    assert len(built) == 3 and np.array_equal(mixed[:3], alone)


@pytest.mark.parametrize(
    "rabi, defect", [(None, r"1\.4\d\de-06"), (500.0, r"2\.05\de-06")], ids=["ideal", "finite"]
)
def test_a_map_mirrored_across_a_broken_spin_flip_is_not_unitary(
    reg_c3_c21, patch_frame, rabi, defect
):
    """Free gaps and finite steps that break T (both blocks of
    H0 + eps S_z I_z, eps = 1e-3, in the eigenframe of each) make the
    mirrored half of each map miss the other half's orthogonal complement
    by 1.4e-6 with ideal pulses and 2.05e-6 with finite ones, linear in
    eps: the unitarity check refuses it."""
    patch_frame(broken_frame)
    with pytest.raises(NotUnitary, match="drifted off unitarity by " + defect):
        period_unitary(pulsepol_for_period(6.8, rabi=rabi), reg_c3_c21)


@pytest.mark.parametrize("rabi", [None, 500.0], ids=["ideal", "finite"])
@pytest.mark.parametrize("builder", [pulsepol_for_period, cpmg_for_period], ids=["pulsepol", "cpmg"])
def test_pattern_maps_carry_half_the_columns(reg_c3_c4_c8, monkeypatch, patch_frame, builder, rabi):
    """Every product of ``_pattern_maps`` multiplies the D/2 electron-up
    columns alone: the frame's operands from ``_eigenframe`` (its overlaps
    and eigenvectors, which act on float64 views) and the ``_finite_step``
    built in the frame record the width of the map columns they multiply,
    in complex columns: the three maps' D/2 side by side, or one set of D/2
    while the map is still the identity."""
    widths = []

    class Spy(np.ndarray):
        def __matmul__(self, other):
            widths.append(np.shape(other)[-1] // (1 if np.iscomplexobj(other) else 2))
            return np.asarray(self) @ other

    real_frame, real_step = protocols._eigenframe, protocols._finite_step

    def spied_frame(register, times):
        v, overlaps, angles = real_frame(register, times)
        return v.view(Spy), overlaps.view(Spy), angles

    patch_frame(spied_frame)
    monkeypatch.setattr(protocols, "_finite_step", lambda e, reg: real_step(e, reg).view(Spy))
    period_unitary([builder(t, rabi=rabi) for t in (6.7, 6.8, 6.9)], reg_c3_c4_c8)
    d = reg_c3_c4_c8.dim // 2
    assert set(widths) <= {d, 3 * d} and 3 * d in widths


@pytest.mark.parametrize("rabi", [None, 500.0], ids=["ideal", "finite"])
def test_period_unitary_rejects_a_non_finite_map(reg_c3, patch_frame, rabi):
    """A NaN frame makes an ideal map non-finite, which the unitarity check
    refuses; a finite pulse's step, built in that frame, is refused first,
    by the Hermitian eigensolve of its generator."""

    def nan_frame(register, t):
        nan = np.full((2, 2, 2), np.nan)
        return nan, nan, np.full(np.shape(t) + (2, 2), np.nan)

    patch_frame(nan_frame)
    with pytest.raises(NotUnitary if rabi is None else DimensionMismatch):
        period_unitary(pulsepol_for_period(6.8, rabi=rabi), reg_c3)


def _uneven(period: float) -> PulseSequence:
    """A polarisation period whose second half has other gaps."""
    first, second = pulsepol_for_period(period).events, pulsepol_for_period(period + 0.1).events
    events = first[:12] + second[12:]
    return PulseSequence(events, sum(e.duration for e in events), 3, "uneven")


STACKS = {
    "ideal": lambda: [pulsepol_for_period(t) for t in (6.6, 6.75, 6.9, 7.05)],
    "finite": lambda: [cpmg_for_period(t, rabi=500.0) for t in (6.6, 6.75, 6.9)],
    "mixed": lambda: [
        pulsepol_for_period(6.7),
        cpmg_for_period(6.7),
        pulsepol_for_period(6.8, rabi=500.0),
        _uneven(6.8),
        pulsepol_for_period(6.9),
        PulseSequence((PulseEvent(EventKind.FREE_EVOLUTION, duration=2.0),), 2.0, 1, "free"),
        _uneven(6.9),
    ],
}


@pytest.mark.parametrize("kind", STACKS)
def test_period_unitary_stack_equals_per_sequence_calls(kind, reg_c3_c21):
    seqs = STACKS[kind]()
    stacked = period_unitary(tuple(seqs), reg_c3_c21)
    assert stacked.shape == (len(seqs), 8, 8)
    for seq, u in zip(seqs, stacked):
        assert np.array_equal(period_unitary(seq, reg_c3_c21), u)


@pytest.mark.parametrize("kind", STACKS)
@pytest.mark.parametrize("bad", [np.nan, 1.001])
def test_period_unitary_stack_with_one_bad_map_raises(kind, bad, reg_c3_c21, patch_frame):
    """Corrupting the free evolution of one sequence's first gap, in the
    middle of the stack, makes the stacked call raise."""
    seqs = STACKS[kind]()
    target = next(e.duration for e in seqs[1].events if e.kind is EventKind.FREE_EVOLUTION)
    real = protocols._eigenframe

    def corrupt(register, durations):
        v, overlaps, angles = real(register, durations)
        angles = angles + 0j
        angles[np.asarray(durations) == target] += 1j * np.log(bad)  # its phases times bad
        return v, overlaps, angles

    patch_frame(corrupt)
    with pytest.raises(NotUnitary):
        period_unitary(seqs, reg_c3_c21)


def test_period_unitary_squares_a_repeated_half(reg_c3_c21):
    """Every builder emits a period whose halves repeat; the map is the
    half-period map squared."""
    for seq in (pulsepol_for_period(6.8), cpmg_for_period(6.8, rabi=500.0)):
        half = len(seq.events) // 2
        assert seq.events[:half] == seq.events[half:]
        first = PulseSequence(seq.events[:half], seq.period / 2, seq.harmonic, "half")
        u_half = period_unitary(first, reg_c3_c21)
        assert np.array_equal(period_unitary(seq, reg_c3_c21), u_half @ u_half)


def test_period_unitary_rejects_an_empty_stack(reg_c3):
    with pytest.raises(ValidationError):
        period_unitary((), reg_c3)


def test_finite_pulses_converge_to_ideal(reg_c3):
    target = period_unitary(pulsepol_for_period(6.85), reg_c3)
    devs = []
    for rabi in (80.0, 320.0, 1280.0):
        seq = pulsepol_for_period(6.85, rabi=rabi)
        devs.append(np.max(np.abs(period_unitary(seq, reg_c3) - target)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3


def test_weak_drive_warns(reg_c3):
    # C3's transverse coupling is ~0.372 rad/us; 100x that is the guard line
    seq = pulsepol_for_period(6.85, rabi=30.0)
    with pytest.warns(ValidityWarning) as record:
        period_unitary(seq, reg_c3)
    assert record[0].filename == __file__  # the warning names the caller's line


def test_strong_drive_does_not_warn(recwarn, reg_c3):
    seq = pulsepol_for_period(6.85, rabi=80.0)
    period_unitary(seq, reg_c3)
    assert not [w for w in recwarn if issubclass(w.category, ValidityWarning)]


def test_modulation_window_values():
    tau = 2.0
    # first quarter: f1 = +1, f2 = 0; third quarter: f1 = -1
    assert ref.f1(np.array([0.5]), tau)[0] == pytest.approx(1.0)
    assert ref.f2(np.array([0.5]), tau)[0] == pytest.approx(0.0)
    assert ref.f1(np.array([4.5]), tau)[0] == pytest.approx(-1.0)
    t = np.linspace(0.0, 8.0, 4001)
    f1, f2 = ref.f1(t, tau), ref.f2(t, tau)
    assert set(np.unique(f1)) <= {-1.0, 0.0, 1.0}
    # the two windows never overlap and jointly cover the period
    assert np.all(np.abs(f1) + np.abs(f2) >= 1 - 1e-12)
    assert np.max(np.abs(f1 * f2)) == pytest.approx(0.0)


def test_fourier_coefficients_match_quadrature():
    tau = 1.7
    period = 4 * tau
    t = (np.arange(200_000) + 0.5) * (period / 200_000)
    for k in range(1, 22):
        w = 2 * math.pi * k / period
        ref_a1 = 2 * np.mean(ref.f1(t, tau) * np.cos(w * t))
        ref_b1 = 2 * np.mean(ref.f1(t, tau) * np.sin(w * t))
        ref_a2 = 2 * np.mean(ref.f2(t, tau) * np.cos(w * t))
        ref_b2 = 2 * np.mean(ref.f2(t, tau) * np.sin(w * t))
        coeff = fourier_coefficients(k)
        assert coeff.a1 == pytest.approx(ref_a1, abs=1e-8)
        assert coeff.b1 == pytest.approx(ref_b1, abs=1e-8)
        assert coeff.a2 == pytest.approx(ref_a2, abs=1e-8)
        assert coeff.b2 == pytest.approx(ref_b2, abs=1e-8)


def test_fourier_selection_rule():
    for k in (2, 4, 6, 1, 5, 9):  # even harmonics and the 4m+1 family carry no weight
        coeff = fourier_coefficients(k)
        assert abs(coeff.a1 + coeff.b1) == pytest.approx(0.0, abs=1e-12)
    for k in (3, 7, 11):
        assert abs(fourier_coefficients(k).a1 + fourier_coefficients(k).b1) > 0.05


def test_partial_sum_converges_pointwise():
    """The odd-harmonic Fourier series of f1, truncated at k = 201,
    reconstructs f1 away from its switching instants, where it rings."""
    tau = 2.0
    t = np.array([0.7, 1.3, 2.7, 4.6, 6.9])
    w0 = np.pi / (2.0 * tau)
    approx = np.zeros_like(t)
    for k in range(1, 202):
        c = fourier_coefficients(k)
        approx += c.a1 * np.cos(k * w0 * t) + c.b1 * np.sin(k * w0 * t)
    assert np.max(np.abs(approx - ref.f1(t, tau))) < 0.02


def test_averaged_generator_reproduces_flip_flop_rate(reg_c3):
    spin = reg_c3.nuclei[0]
    omega = precession_frequency(spin, LARMOR)
    seq = pulsepol_for_period(resonant_period(omega))
    ops = build_operators(reg_c3)
    h = ref.average_hamiltonian_numeric(seq, reg_c3)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    flip = ops.electron.plus @ ops.nuclei[0].minus
    g_num = abs(np.trace(flip.conj().T @ h))
    assert g_num == pytest.approx(G_COEFF * spin.a_perp, rel=1e-3)


def test_averaged_generator_detuning_term(reg_c3):
    spin = reg_c3.nuclei[0]
    omega = precession_frequency(spin, LARMOR)
    seq = pulsepol_for_period(resonant_period(omega))
    ops = build_operators(reg_c3)
    offset = 0.013
    h = ref.average_hamiltonian_numeric(seq, reg_c3, frame_frequency=omega - offset)
    cz = np.real(np.trace(h @ ops.nuclei[0].z)) / np.real(
        np.trace(ops.nuclei[0].z @ ops.nuclei[0].z)
    )
    assert cz == pytest.approx(offset, rel=1e-9)


def test_averaged_generator_requires_ideal_polarisation_block(reg_c3):
    with pytest.raises(NotIdealPulses):
        ref.average_hamiltonian_numeric(cpmg_for_period(2 * 1.7), reg_c3)
    with pytest.raises(NotIdealPulses):
        ref.average_hamiltonian_numeric(pulsepol_for_period(4 * 1.7, rabi=500.0), reg_c3)


def test_averaged_generator_reads_the_events_not_the_label(reg_c3):
    """Only the ideal, equally spaced bracket passes: CPMG events labelled
    "pulsepol", and the bracket with unequal gaps, are both refused."""
    cpmg = cpmg_for_period(4 * 1.7, harmonic=3)
    with pytest.raises(NotIdealPulses):
        ref.average_hamiltonian_numeric(
            PulseSequence(cpmg.events, cpmg.period, 3, "pulsepol"), reg_c3
        )
    seq = pulsepol_for_period(4 * 1.7)
    gaps = [i for i, e in enumerate(seq.events) if e.kind is EventKind.FREE_EVOLUTION]
    events = list(seq.events)
    events[gaps[0]] = PulseEvent(EventKind.FREE_EVOLUTION, duration=seq.events[gaps[0]].duration + 0.1)
    events[gaps[1]] = PulseEvent(EventKind.FREE_EVOLUTION, duration=seq.events[gaps[1]].duration - 0.1)
    with pytest.raises(NotIdealPulses):
        ref.average_hamiltonian_numeric(
            PulseSequence(tuple(events), seq.period, 3, "pulsepol"), reg_c3
        )


def test_resonant_period_definition():
    assert resonant_period(2.0, harmonic=3) == pytest.approx(3 * math.pi)
    assert resonant_period(2.0, harmonic=1) == pytest.approx(math.pi)


@pytest.mark.parametrize("omega_i", [0.0, -1.0, np.nan, np.inf])
def test_resonant_period_needs_a_finite_positive_frequency(omega_i):
    with pytest.raises(ValidationError, match="^omega_i: must be finite and > 0"):
        resonant_period(omega_i)
