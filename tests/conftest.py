"""Shared fixtures: the bundled coupling table and registers built from it."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from dnpsim import build_operators, linalg, load_register, load_register_file, protocols

from reference_engine import static_hamiltonian

LARMOR = 2.7106474  # rad/us at the working field

# label, A_par/2pi (kHz), A_perp/2pi (kHz), tabulated precession (rad/us)
TABLE27 = [
    ("C0", 213.153, 3.0, 2.04),
    ("C1", -36.308, 26.62, 2.83),
    ("C2", 20.569, 41.51, 2.65),
    ("C3", -11.346, 59.21, 2.75),
    ("C4", 8.029, 21.0, 2.69),
    ("C5", 24.399, 24.81, 2.64),
    ("C6", -48.58, 9.0, 2.86),
    ("C7", 14.58, 10.0, 2.67),
    ("C8", 7.683, 4.0, 2.69),
    ("C9", -20.72, 12.0, 2.78),
    ("C10", -23.22, 13.0, 2.78),
    ("C11", -13.961, 9.0, 2.75),
    ("C12", -31.25, 8.0, 2.81),
    ("C13", -14.07, 13.0, 2.76),
    ("C15", -5.62, 5.0, 2.73),
    ("C16", -19.815, 5.3, 2.77),
    ("C17", -4.66, 7.0, 2.73),
    ("C18", 17.643, 8.6, 2.66),
    ("C20", -8.32, 3.0, 2.74),
    ("C21", -9.79, 5.0, 2.74),
    ("C22", 1.212, 13.0, 2.71),
    ("C23", 2.69, 11.0, 2.70),
    ("C24", -3.177, 2.0, 2.72),
    ("C25", -4.039, 0.5, 2.72),
    ("C26", -4.225, 0.771, 2.72),
    ("C27", -3.873, 1.247, 2.72),
    ("C28", -3.618, 9.472, 2.72),
]

COUPLINGS = {label: (az, ax) for label, az, ax, _ in TABLE27}

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SHIPPED_CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.yaml"))


def shipped_register(name: str):
    """A shipped config's register, cut to its first 7 nuclei (the joint-space cap)."""
    register = load_register_file(str(CONFIG_DIR / name))
    return register.subset([s.label for s in register.nuclei[:7]])


def register_text(labels, larmor: float = LARMOR) -> str:
    lines = [f"larmor_rad_per_us: {larmor}", "nuclei:"]
    for label in labels:
        az, ax = COUPLINGS[label]
        lines.append(f"  - {{label: {label}, a_parallel_khz: {az}, a_perp_khz: {ax}}}")
    return "\n".join(lines) + "\n"


def dense_vectors(spectrum) -> np.ndarray:
    """A spectrum's (P, D, D) eigenvectors, [i][:, j] branch j's at
    periods[i], gathered by ``FloquetSpectrum.eigenvectors``."""
    p, d = spectrum.phases.shape
    points, branches = np.divmod(np.arange(p * d), d)
    return spectrum.eigenvectors(points, branches).reshape(p, d, d).swapaxes(1, 2)


def make_register(*labels, larmor: float = LARMOR):
    return load_register(register_text(labels, larmor))


def broken_frame(register, times):
    """A stand-in for ``protocols._eigenframe`` whose two blocks are those
    of an H0 that carries 1e-3 S_z (x) I_z on the first nucleus (+5e-4 I_z
    in the electron-up block, -5e-4 in the other), each from its own
    eigensolve, so the blocks are no longer each other's spin-flip images."""
    ops = build_operators(register)
    d = register.dim // 2
    h = (static_hamiltonian(register) + 1e-3 * ops.electron.z @ ops.nuclei[0].z).reshape(2, d, 2, d)
    w, v = np.linalg.eigh(np.stack((h[0, :, 0], h[1, :, 1])).real)
    t = np.asarray(times, dtype=float)
    return v, np.stack((v[1].T @ v[0], v[0].T @ v[1])), w * t[..., None, None]


@pytest.fixture
def patch_frame(monkeypatch):
    """Puts a stand-in for ``protocols._eigenframe``; ``_finite_step``'s
    cache is emptied when it goes in and after the test, so that no step
    built in the stand-in's frame outlives it or predates it."""

    step = protocols._finite_step  # the cached one, should a test patch it too

    def patch(frame):
        step.cache_clear()
        monkeypatch.setattr(protocols, "_eigenframe", frame)

    yield patch
    step.cache_clear()


@pytest.fixture(scope="session")
def reg_c3():
    return make_register("C3")


@pytest.fixture(scope="session")
def reg_c21():
    return make_register("C21")


@pytest.fixture(scope="session")
def reg_c3_c21():
    return make_register("C3", "C21")


@pytest.fixture(scope="session")
def reg_c3_c16():
    return make_register("C3", "C16")


@pytest.fixture(scope="session")
def reg_c4_c8():
    return make_register("C4", "C8")


@pytest.fixture(scope="session")
def reg_c3_c4_c8():
    return make_register("C3", "C4", "C8")


@pytest.fixture(scope="session")
def reg_twins():
    """Two spins with identical couplings (the degenerate-pair scenario)."""
    az, ax = COUPLINGS["C21"]
    text = (
        f"larmor_rad_per_us: {LARMOR}\n"
        "nuclei:\n"
        f"  - {{label: D1, a_parallel_khz: {az}, a_perp_khz: {ax}}}\n"
        f"  - {{label: D2, a_parallel_khz: {az}, a_perp_khz: {ax}}}\n"
    )
    return load_register(text)


@pytest.fixture
def solves(monkeypatch):
    """The dimension of every matrix each path of ``linalg.unitary_eigensolve``
    is given: "paired" for the half-size solve, "theta" for the real or
    complex solve at the offset, first or as the half-size solve's fallback."""
    calls = {"paired": [], "theta": []}
    paired, offset = linalg._paired_eigensolve, linalg._offset_eigensolve

    def counted_paired(stack):
        calls["paired"].extend([stack.shape[-1]] * len(stack))
        return paired(stack)

    def counted_offset(stack, theta):
        if theta == linalg.EIG_PHASE_OFFSET:
            calls["theta"].extend([stack.shape[-1]] * len(stack))
        return offset(stack, theta)

    monkeypatch.setattr(linalg, "_paired_eigensolve", counted_paired)
    monkeypatch.setattr(linalg, "_offset_eigensolve", counted_offset)
    return calls
