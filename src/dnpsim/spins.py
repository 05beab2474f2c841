"""Spin register, embedded operators, and the static rotating-frame Hamiltonian.

The joint space is electron (x) nucleus_1 (x) ... (x) nucleus_N with the
electron factor first. The electron is the {|0>, |-1>} two-level subspace
with S_z eigenvalues +1/2 and -1/2; the hyperfine term is conditioned on
S_z, so the model is pure dephasing for the electron (no electron flips in
the static Hamiltonian). H0 is therefore block-diagonal in the electron
basis, and each d x d block (d = 2^N) is a Kronecker sum of one 2 x 2
precession per nucleus: ``static_hamiltonian_eig`` builds its eigensystem,
whence every propagator, from those factors' closed form. No verb builds a
dense operator; ``build_operators`` embeds them for callers that want them.

Config ingestion converts kHz coupling columns to rad/us (x 2 pi 1e-3) and
derives the Larmor frequency from the field when it is not given directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import yaml

from .errors import DimensionOverflow, ParseError, ValidationError, checked_record

KHZ_TO_RAD_PER_US = 2.0 * np.pi * 1e-3
GYROMAGNETIC_13C_KHZ_PER_G = 1.0705
DEFAULT_B_FIELD_GAUSS = 403.0
MAX_NUCLEI_IN_JOINT_SPACE = 7
#: pyyaml's libyaml parser where it was built with it (~8x faster), else the Python one.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: S_z, S_x, S_y, S_+ and S_- of one spin-1/2.
_SITE_OPS = np.array(
    [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]], [[0.0, -0.5j], [0.5j, 0.0]],
     [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    dtype=complex,
)


def larmor_from_field(b_field_gauss: float) -> float:
    """Larmor frequency in rad/us for a 13C nucleus at the given field."""
    return KHZ_TO_RAD_PER_US * GYROMAGNETIC_13C_KHZ_PER_G * b_field_gauss


class NuclearSpin(checked_record("NuclearSpin", "label a_parallel a_perp")):
    """One spin-1/2 nucleus: label plus hyperfine components in rad/us.

    a_parallel is the component along the quantisation axis (may be
    negative); a_perp is the transverse component and is non-negative by
    convention (its azimuth is a free gauge).
    """

    __slots__ = ()

    def __new__(cls, label: str, a_parallel: float, a_perp: float):
        if not label:
            raise ValidationError("label: must be a non-empty string")
        if not np.isfinite(a_parallel):
            raise ValidationError(f"{label}.a_parallel: must be finite, got {a_parallel}")
        if not 0 <= a_perp < np.inf:
            raise ValidationError(f"{label}.a_perp: must be finite, >= 0, got {a_perp}")
        return super().__new__(cls, label, a_parallel, a_perp)


class SpinRegister(checked_record("SpinRegister", "larmor nuclei")):
    """Larmor frequency plus an ordered tuple of nuclei; equality reads
    nothing else, however the Larmor frequency was given.

    The joint Hilbert dimension is 2**(1+N); operator construction (not the
    register itself) enforces the N <= 7 cap so that large coupling tables
    remain loadable for per-nucleus frequency work.
    """

    __slots__ = ()

    def __new__(cls, larmor: float, nuclei: tuple[NuclearSpin, ...]):
        nuclei = tuple(nuclei)
        if not 0 < larmor < np.inf:
            raise ValidationError(f"larmor: must be finite and > 0, got {larmor}")
        labels = [n.label for n in nuclei]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise ValidationError(f"nuclei labels: duplicated {dupes}")
        for n in nuclei:
            if abs(n.a_parallel) >= larmor:
                raise ValidationError(
                    f"{n.label}.a_parallel: |{n.a_parallel}| must stay below larmor {larmor}"
                )
            if n.a_perp >= larmor:
                raise ValidationError(
                    f"{n.label}.a_perp: {n.a_perp} must stay below larmor {larmor}"
                )
        return super().__new__(cls, larmor, nuclei)

    @property
    def dim(self) -> int:
        return 2 ** (1 + len(self.nuclei))

    def nucleus(self, label: str) -> NuclearSpin:
        for n in self.nuclei:
            if n.label == label:
                return n
        raise ValidationError(f"label: no nucleus named {label!r} in register")

    def subset(self, labels: list[str] | tuple[str, ...]) -> "SpinRegister":
        """New register keeping only the named nuclei, in the given order."""
        nuclei = tuple(self.nucleus(lb) for lb in labels)
        return SpinRegister(self.larmor, nuclei)


class SiteOperators(NamedTuple):
    """Spin-1/2 operators for one site, embedded in the joint space."""

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


class SpinOperatorSet(NamedTuple):
    electron: SiteOperators
    nuclei: tuple[SiteOperators, ...]
    dim: int


def _site_operators(site: int, n_sites: int) -> SiteOperators:
    """The site's five operators as one product, I_L (x) [S_z, S_x, S_y, S_+, S_-] (x) I_R;
    the last site skips I_R = 1, whose product would flip the sign of some of S_y's zeros."""
    ops = np.kron(np.eye(2**site, dtype=complex), _SITE_OPS)
    if site < n_sites - 1:
        ops = np.kron(ops, np.eye(2 ** (n_sites - 1 - site), dtype=complex))
    ops.setflags(write=False)
    return SiteOperators(*ops)


def require_joint_space(register: SpinRegister) -> None:
    """Raise DimensionOverflow if the register holds more than 7 nuclei
    (dim > 256); allocates nothing, so callers check before they build."""
    n = len(register.nuclei)
    if n > MAX_NUCLEI_IN_JOINT_SPACE:
        raise DimensionOverflow(
            f"{n} nuclei would need dimension {2 ** (1 + n)}; the joint-space cap is 256"
        )


# No module calls it; it stays because the benchmark's set-up times it (spins.operators_s).
@lru_cache(maxsize=64)
def build_operators(register: SpinRegister) -> SpinOperatorSet:
    """Embed all single-site operators into the joint space; DimensionOverflow
    if the register holds more than 7 nuclei (dim > 256)."""
    require_joint_space(register)
    n_sites = 1 + len(register.nuclei)
    return SpinOperatorSet(
        electron=_site_operators(0, n_sites),
        nuclei=tuple(_site_operators(k, n_sites) for k in range(1, n_sites)),
        dim=2**n_sites,
    )


def precession_frequency(nucleus: NuclearSpin, larmor: float) -> float:
    """Resonant precession frequency omega_I in rad/us.

    omega_I = sqrt((omega_L - A_par/2)^2 + (A_perp/2)^2), the splitting of
    the nuclear sub-Hamiltonian conditioned on the electron lower state.
    """
    if not larmor > 0:
        raise ValidationError(f"larmor: must be > 0, got {larmor}")
    return float(np.hypot(larmor - nucleus.a_parallel / 2.0, nucleus.a_perp / 2.0))


@lru_cache(maxsize=256)
def static_hamiltonian_eig(register: SpinRegister) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only eigensystem (w, V) of H0's d x d block with the
    electron in basis state 0, d = dim / 2; the other block has
    (-w, V[::-1]), as H_1 = -X^(x)N H_0 X^(x)N. Nucleus n's factor
    (omega_L - A_par/2) Iz + (A_perp/2) Ix has eigenvalues +/- omega_I/2
    (``precession_frequency``) on the columns of the rotation by
    atan2(A_perp, 2 omega_L - A_par) / 2: w sums one of them per nucleus and
    V is the Kronecker product of the rotations, nucleus 1 leading.
    DimensionOverflow above 7 nuclei, before anything is built."""
    require_joint_space(register)
    w, v = np.zeros(1), np.ones((1, 1))
    for spin in register.nuclei:
        half = precession_frequency(spin, register.larmor) / 2.0
        beta = 0.5 * np.arctan2(spin.a_perp, 2.0 * register.larmor - spin.a_parallel)
        c, s = np.cos(beta), np.sin(beta)
        w = np.add.outer(w, (half, -half)).ravel()
        v = np.kron(v, ((c, -s), (s, c)))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


_TOP_LEVEL_KEYS = {"larmor_rad_per_us", "b_field_gauss", "nuclei"}
_NUCLEUS_KEYS = {"label", "a_parallel_khz", "a_perp_khz"}


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field}: expected a number, got {value!r}")
    if not abs(value) <= float(np.finfo(float).max):  # nan, inf, ints past float range
        raise ValidationError(f"{field}: must be finite, got {value!r}")
    return float(value)


def load_register(source: str) -> SpinRegister:
    """Parse a YAML register config into a SpinRegister.

    Top-level fields: ``larmor_rad_per_us`` or ``b_field_gauss`` (at most
    one; the field gives the Larmor frequency, default 403 G), and
    ``nuclei`` (list of ``{label, a_parallel_khz, a_perp_khz}``). Couplings
    are given in kHz and converted to rad/us.

    Raises
    ------
    ParseError
        Malformed YAML; the message carries the line number.
    ValidationError
        A missing, unknown, or out-of-range field; the message names it.
    """
    try:
        data = yaml.load(source, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ParseError(f"config parse failed at {line}: {exc}") from exc

    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(f"config root: expected a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ValidationError(f"unknown top-level field(s): {', '.join(unknown)}")

    if "larmor_rad_per_us" in data and "b_field_gauss" in data:
        raise ValidationError("larmor_rad_per_us, b_field_gauss: give one or the other, not both")
    key = "larmor_rad_per_us" if "larmor_rad_per_us" in data else "b_field_gauss"
    value = data.get(key)
    if value is None and key == "b_field_gauss":  # absent or null
        value = DEFAULT_B_FIELD_GAUSS
    value = _require_number(value, key)
    if value <= 0:
        raise ValidationError(f"{key}: must be > 0, got {value}")
    larmor = value if key == "larmor_rad_per_us" else larmor_from_field(value)

    raw_nuclei = data.get("nuclei", [])
    if raw_nuclei is None:
        raw_nuclei = []
    if not isinstance(raw_nuclei, list):
        raise ValidationError("nuclei: expected a list")
    nuclei = []
    for i, row in enumerate(raw_nuclei):
        where = f"nuclei[{i}]"
        if not isinstance(row, dict):
            raise ValidationError(f"{where}: expected a mapping")
        unknown = sorted(set(row) - _NUCLEUS_KEYS)
        if unknown:
            raise ValidationError(f"{where}: unknown field(s): {', '.join(unknown)}")
        missing = sorted(_NUCLEUS_KEYS - set(row))
        if missing:
            raise ValidationError(f"{where}: missing field(s): {', '.join(missing)}")
        label = row["label"]
        if not isinstance(label, str) or not label:
            raise ValidationError(f"{where}.label: expected a non-empty string")
        a_par = _require_number(row["a_parallel_khz"], f"{where}.a_parallel_khz")
        a_perp = _require_number(row["a_perp_khz"], f"{where}.a_perp_khz")
        if a_perp < 0:
            raise ValidationError(f"{where}.a_perp_khz: must be >= 0, got {a_perp}")
        nuclei.append(NuclearSpin(label, a_par * KHZ_TO_RAD_PER_US, a_perp * KHZ_TO_RAD_PER_US))

    return SpinRegister(larmor=larmor, nuclei=tuple(nuclei))


def load_register_file(path: str) -> SpinRegister:
    with open(path, "r", encoding="utf-8") as fh:
        return load_register(fh.read())
