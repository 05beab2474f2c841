"""Register parsing, operator construction and precession frequencies."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import yaml

from dnpsim import (
    KHZ_TO_RAD_PER_US,
    NuclearSpin,
    ProtocolRun,
    SpinRegister,
    build_operators,
    larmor_from_field,
    load_register,
    load_register_file,
    precession_frequency,
    pulsepol_for_period,
    run_protocol,
)
from dnpsim import spins
from dnpsim.errors import DimensionOverflow, ParseError, ValidationError

from conftest import CONFIG_DIR, LARMOR, SHIPPED_CONFIGS, TABLE27, make_register, register_text
from conftest import shipped_register
from reference_engine import static_hamiltonian


def test_precession_matches_quadrature_formula():
    for label, az_khz, ax_khz, _ in TABLE27:
        reg = make_register(label)
        az = az_khz * KHZ_TO_RAD_PER_US
        ax = ax_khz * KHZ_TO_RAD_PER_US
        expected = math.hypot(LARMOR - az / 2, ax / 2)
        assert precession_frequency(reg.nuclei[0], LARMOR) == pytest.approx(expected)


def test_precession_anchor_values():
    anchors = {"C3": 2.7525843, "C21": 2.7414486, "C16": 2.7729480}
    for label, expected in anchors.items():
        reg = make_register(label)
        assert precession_frequency(reg.nuclei[0], LARMOR) == pytest.approx(expected, abs=1e-6)


def test_larmor_from_field():
    assert larmor_from_field(403.0) == pytest.approx(LARMOR, abs=1e-4)
    assert larmor_from_field(806.0) == pytest.approx(2 * larmor_from_field(403.0))


def test_loader_reads_kilohertz():
    reg = make_register("C3")
    spin = reg.nuclei[0]
    assert spin.a_parallel == pytest.approx(-11.346 * KHZ_TO_RAD_PER_US)
    assert spin.a_perp == pytest.approx(59.21 * KHZ_TO_RAD_PER_US)
    assert reg.larmor == pytest.approx(LARMOR)


def test_loader_derives_larmor_from_field():
    text = "b_field_gauss: 403.0\nnuclei:\n  - {label: X, a_parallel_khz: 1, a_perp_khz: 1}\n"
    reg = load_register(text)
    assert reg.larmor == pytest.approx(larmor_from_field(403.0))
    # and with no field either, the default working field applies
    bare = load_register("nuclei:\n  - {label: X, a_parallel_khz: 1, a_perp_khz: 1}\n")
    assert bare.larmor == pytest.approx(larmor_from_field(403.0))


@pytest.mark.parametrize("larmor", ["2.7", repr(larmor_from_field(806.0))])
def test_loader_refuses_both_the_larmor_frequency_and_the_field(larmor):
    """The field only derives the Larmor frequency, so a config that gives
    both is refused, naming both keys, whether they disagree (2.7 rad/us
    against the 5.42 rad/us of 806 G) or agree; null counts as given."""
    for field in ("806", "null"):
        text = f"larmor_rad_per_us: {larmor}\nb_field_gauss: {field}\nnuclei: []\n"
        with pytest.raises(ValidationError, match="^larmor_rad_per_us, b_field_gauss: give one"):
            load_register(text)


def test_a_register_given_by_its_field_equals_one_given_by_its_larmor():
    """The field only derives ``larmor``, so the two registers are equal, and
    a state built on one runs on the other."""
    nuclei = "nuclei:\n  - {label: C3, a_parallel_khz: -11.346, a_perp_khz: 59.21}\n"
    by_field = load_register("b_field_gauss: 403\n" + nuclei)
    by_larmor = load_register(f"larmor_rad_per_us: {larmor_from_field(403.0)!r}\n" + nuclei)
    assert by_field == by_larmor and hash(by_field) == hash(by_larmor)
    run = ProtocolRun(pulsepol_for_period(6.85), n_periods=2, repetitions=3)
    state, _ = run_protocol(run, by_field)
    _, history = run_protocol(run, by_larmor, state)
    assert history.shape == (3, 1)


def test_loader_rejects_unknown_top_level_field():
    text = "larmor_rad_per_us: 2.7\nfrequency_units: kHz\nnuclei: []\n"
    with pytest.raises(ValidationError, match="frequency_units"):
        load_register(text)


def test_loader_rejects_unknown_nucleus_field():
    text = (
        "larmor_rad_per_us: 2.7\n"
        "nuclei:\n  - {label: X, a_parallel_khz: 1, a_perp_khz: 1, a_iso_khz: 3}\n"
    )
    with pytest.raises(ValidationError, match="a_iso_khz"):
        load_register(text)


def test_loader_rejects_missing_coupling():
    text = "larmor_rad_per_us: 2.7\nnuclei:\n  - {label: X, a_parallel_khz: 1}\n"
    with pytest.raises(ValidationError, match="a_perp_khz"):
        load_register(text)


def test_loader_rejects_duplicate_labels():
    text = (
        "larmor_rad_per_us: 2.7\n"
        "nuclei:\n"
        "  - {label: X, a_parallel_khz: 1, a_perp_khz: 1}\n"
        "  - {label: X, a_parallel_khz: 2, a_perp_khz: 2}\n"
    )
    with pytest.raises(ValidationError, match="label"):
        load_register(text)


def test_loader_rejects_coupling_at_larmor_scale():
    # the dressed-frame bookkeeping assumes couplings well below the Zeeman term
    text = "larmor_rad_per_us: 0.005\nnuclei:\n  - {label: X, a_parallel_khz: 10, a_perp_khz: 1}\n"
    with pytest.raises(ValidationError):
        load_register(text)


def test_parse_error_carries_line_number():
    text = "larmor_rad_per_us: 2.7\nnuclei:\n  - {label: X, a_parallel_khz: 1,\n"
    with pytest.raises(ParseError, match="line"):
        load_register(text)


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_parse_error_names_the_line_of_a_malformed_file(monkeypatch, tmp_path, loader):
    """The libyaml parser, used when pyyaml has it, and the Python one
    report the same line: the unclosed flow mapping opened on line 3 fails
    at the bad token on line 4."""
    if not hasattr(yaml, loader):
        pytest.skip(f"this pyyaml has no {loader}")
    monkeypatch.setattr(spins, "_YAML_LOADER", getattr(yaml, loader))
    path = tmp_path / "bad.yaml"
    path.write_text(
        "larmor_rad_per_us: 2.7\nnuclei:\n  - {label: X, a_parallel_khz: 1,\n"
        "     a_perp_khz: 2]\n"
    )
    with pytest.raises(ParseError, match=r"^config parse failed at line 4: "):
        load_register_file(str(path))


def test_configs_parse_with_libyaml_where_pyyaml_has_it():
    assert spins._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def test_loader_rejects_non_mapping_root():
    with pytest.raises(ValidationError, match="mapping"):
        load_register("- 1\n- 2\n")


NUCLEUS = "nuclei:\n  - {label: %s, a_parallel_khz: %s, a_perp_khz: %s}\n"


@pytest.mark.parametrize(
    "text, field",
    [
        ("larmor_rad_per_us: fast\n", "larmor_rad_per_us: expected a number"),
        (NUCLEUS % ("X", "one", "1"), r"nuclei\[0\]\.a_parallel_khz: expected a number"),
        (NUCLEUS % ("X", "1", "true"), r"nuclei\[0\]\.a_perp_khz: expected a number"),
        ("b_field_gauss: 0\n", "b_field_gauss: must be > 0"),
        ("larmor_rad_per_us: 0\n", "larmor_rad_per_us: must be > 0"),
        ("nuclei: 5\n", "nuclei: expected a list"),
        ("nuclei: [5]\n", r"nuclei\[0\]: expected a mapping"),
        (NUCLEUS % ("''", "1", "1"), r"nuclei\[0\]\.label: expected a non-empty string"),
        (NUCLEUS % ("X", "1", "-1"), r"nuclei\[0\]\.a_perp_khz: must be >= 0"),
        (NUCLEUS % ("X", "1" + "0" * 400, "1"), r"nuclei\[0\]\.a_parallel_khz: must be finite"),
    ],
    ids=["not-a-number", "row-not-a-number", "bool-is-not-a-number", "zero-field",
         "zero-larmor", "nuclei-not-a-list", "row-not-a-mapping", "empty-label",
         "negative-a-perp", "int-past-float-range"],
)
def test_loader_names_the_field_it_refuses(text, field):
    """Each check of the file's own fields answers in the file's terms
    (``nuclei[0].a_perp_khz``, not the converted ``X.a_perp``)."""
    with pytest.raises(ValidationError, match=f"^{field}"):
        load_register(text)


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize(
    "field", ["a_parallel_khz", "a_perp_khz", "larmor_rad_per_us", "b_field_gauss"]
)
def test_loader_refuses_non_finite_numbers(field, value):
    """A non-finite number is refused where it is read, with its field named,
    before it can reach the Hamiltonian or a period."""
    if field.startswith("a_"):
        row = {"a_parallel_khz": "1", "a_perp_khz": "1", field: value}
        text = NUCLEUS % ("X", row["a_parallel_khz"], row["a_perp_khz"])
        field = rf"nuclei\[0\]\.{field}"
    else:
        text = f"{field}: {value}\n"
    with pytest.raises(ValidationError, match=rf"^{field}: must be finite, got -?(nan|inf)$"):
        load_register(text)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda bad: NuclearSpin("X", bad, 0.1), "X.a_parallel"),
        (lambda bad: NuclearSpin("X", 0.1, bad), "X.a_perp"),
        (lambda bad: SpinRegister(larmor=bad, nuclei=()), "larmor"),
    ],
    ids=["a_parallel", "a_perp", "larmor"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_registers_built_in_code_refuse_non_finite_numbers(build, field, bad):
    with pytest.raises(ValidationError, match=rf"^{field}: must be finite"):
        build(bad)


@pytest.mark.parametrize("text", ["", "# no fields\n", "nuclei: null\n"])
def test_loader_reads_an_empty_document_as_an_empty_register(text):
    reg = load_register(text)
    assert reg.nuclei == ()
    assert reg.larmor == pytest.approx(larmor_from_field(403.0))


def test_load_register_file(tmp_path):
    p = tmp_path / "reg.yaml"
    p.write_text(register_text(["C3", "C21"]))
    reg = load_register_file(str(p))
    assert [n.label for n in reg.nuclei] == ["C3", "C21"]


def test_bundled_table_config_loads():
    reg = load_register_file(str(CONFIG_DIR / "register27.yaml"))
    assert len(reg.nuclei) == 27
    assert reg.larmor == pytest.approx(LARMOR, abs=1e-4)


def test_register_lookup_and_subset():
    reg = make_register("C3", "C21", "C16")
    assert reg.nucleus("C21").label == "C21"
    sub = reg.subset(("C16", "C3"))
    assert [n.label for n in sub.nuclei] == ["C16", "C3"]
    assert sub.larmor == reg.larmor
    with pytest.raises(ValidationError, match="C99"):
        reg.nucleus("C99")


def test_dimension_cap():
    labels = ["C3", "C21", "C16", "C4", "C8", "C20", "C24", "C25"]
    reg = make_register(*labels)  # loading 8 nuclei is fine
    assert reg.dim == 2**9
    with pytest.raises(DimensionOverflow):
        build_operators(reg)


def test_operator_cache_returns_same_object():
    reg = make_register("C3")
    assert build_operators(reg) is build_operators(reg)


def test_registers_loaded_from_one_text_share_the_h0_eigensystem():
    """Equal registers hash equal, so a second load hits the eigensystem cache."""
    text = (CONFIG_DIR / "c3_c4_c8.yaml").read_text()
    first, second = load_register(text), load_register(text)
    assert first is not second
    eig = spins.static_hamiltonian_eig(first)
    hits = spins.static_hamiltonian_eig.cache_info().hits
    assert spins.static_hamiltonian_eig(second) is eig
    assert spins.static_hamiltonian_eig.cache_info().hits == hits + 1


def _closed_form_register(name: str) -> SpinRegister:
    """A shipped config (register27 cut to its first 7 nuclei, D = 256), a
    nucleus with a_perp = 0 beside C3, or two nuclei with equal couplings."""
    c3, c21 = make_register("C3", "C21").nuclei
    if name == "a_perp=0":
        return SpinRegister(LARMOR, (NuclearSpin("Z", 0.3, 0.0), c3))
    if name == "equal":
        return SpinRegister(LARMOR, (c21, c21._replace(label="C21b")))
    return shipped_register(name)


@pytest.mark.parametrize("name", SHIPPED_CONFIGS + ["a_perp=0", "equal"])
def test_closed_form_eigensystem_equals_the_dense_blocks(name):
    """(w, V) from the per-nucleus closed form rebuild H0's two electron
    blocks of the dense ``static_hamiltonian`` to 1e-12: V diag(w) V^T is
    block 0 and V[::-1] diag(-w) V[::-1]^T block 1, V is orthogonal, and
    both arrays are read-only."""
    register = _closed_form_register(name)
    w, v = spins.static_hamiltonian_eig(register)
    d = register.dim // 2
    h = static_hamiltonian(register).reshape(2, d, 2, d)
    assert w.shape == (d,) and v.shape == (d, d) and v.dtype == w.dtype == np.float64
    assert np.max(np.abs((v * w) @ v.T - h[0, :, 0])) <= 1e-12
    assert np.max(np.abs((v[::-1] * -w) @ v[::-1].T - h[1, :, 1])) <= 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(d))) <= 1e-12
    assert not w.flags.writeable and not v.flags.writeable


def test_closed_form_eigensystem_refuses_eight_nuclei_before_building(monkeypatch):
    """Eight nuclei (D = 512) raise DimensionOverflow before any factor is
    formed: no precession frequency is read and nothing is allocated."""
    register = make_register("C3", "C21", "C16", "C4", "C8", "C20", "C24", "C25")
    monkeypatch.setattr(spins, "precession_frequency", lambda *a: pytest.fail("factor formed"))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow, match="cap is 256"):
            spins.static_hamiltonian_eig(register)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # one (256, 256) float block would be 512 KiB


def _nested_kron(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """``op`` on one site as the chain of one kron per site, identities elsewhere."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_sites):
        out = np.kron(out, op if k == site else np.eye(2, dtype=complex))
    return out


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_operators_equal_the_nested_kron_embedding(name):
    """Each site's five operators, built as one product, hold the bytes of
    the one-kron-per-site chain, signs of zeros included, and so does H0."""
    reg = shipped_register(name)
    ops, n_sites = build_operators(reg), 1 + len(reg.nuclei)
    single = [[[0.5, 0], [0, -0.5]], [[0, 0.5], [0.5, 0]], [[0, -0.5j], [0.5j, 0]],
              [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    single = [np.array(op, dtype=complex) for op in single]
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    for site, built in enumerate((ops.electron, *ops.nuclei)):
        want = [_nested_kron(op, site, n_sites) for op in single]
        assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(built, want))
        if site:
            spin = reg.nuclei[site - 1]
            h += (reg.larmor - spin.a_parallel / 2.0) * want[0]
            h += spin.a_perp * (_nested_kron(single[0], 0, n_sites) @ want[1])
    assert static_hamiltonian(reg).tobytes() == h.tobytes()


def test_spin_operator_algebra():
    ops = build_operators(make_register("C3", "C21"))
    eye = np.eye(ops.dim)
    for site in ops.nuclei:
        comm = site.z @ site.x - site.x @ site.z
        assert np.allclose(comm, 1j * site.y, atol=1e-12)
        assert np.allclose(site.x @ site.x, eye / 4, atol=1e-12)
    # electron and nuclear operators live on different factors
    assert np.allclose(
        ops.electron.x @ ops.nuclei[0].z, ops.nuclei[0].z @ ops.electron.x, atol=1e-12
    )
    # distinct nuclei commute as well
    assert np.allclose(
        ops.nuclei[0].x @ ops.nuclei[1].z, ops.nuclei[1].z @ ops.nuclei[0].x, atol=1e-12
    )


def test_static_hamiltonian_commutes_with_electron():
    reg = make_register("C3", "C21")
    ops = build_operators(reg)
    h = static_hamiltonian(reg)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    assert np.allclose(h @ ops.electron.z, ops.electron.z @ h, atol=1e-12)


def test_static_hamiltonian_branch_coefficients():
    """Each electron branch sees (larmor - a_par/2) Iz +- (a_perp/2) Ix."""
    reg = make_register("C3")
    spin = reg.nuclei[0]
    ops = build_operators(reg)
    h = static_hamiltonian(reg)
    eye = np.eye(ops.dim)
    for sign, projector in ((+1, ops.electron.z + eye / 2), (-1, eye / 2 - ops.electron.z)):
        hb = projector @ h @ projector
        # tr(Iz^2) = tr(Ix^2) = 1/2 inside one electron branch
        cz = 2 * np.real(np.trace(hb @ ops.nuclei[0].z))
        cx = 2 * np.real(np.trace(hb @ ops.nuclei[0].x))
        assert cz == pytest.approx(reg.larmor - spin.a_parallel / 2, abs=1e-12)
        assert cx == pytest.approx(sign * spin.a_perp / 2, abs=1e-12)


def test_branch_splitting_equals_precession_frequency():
    for label in ("C3", "C16", "C0"):
        reg = make_register(label)
        ops = build_operators(reg)
        h = static_hamiltonian(reg)
        eye = np.eye(ops.dim)
        omega = precession_frequency(reg.nuclei[0], LARMOR)
        for projector in (ops.electron.z + eye / 2, eye / 2 - ops.electron.z):
            hb = projector @ h @ projector
            w = np.sort(np.linalg.eigvalsh(hb))
            # two zero modes from the complementary branch, then -w/2 and +w/2
            assert w[-1] - w[0] == pytest.approx(omega, rel=1e-12)
