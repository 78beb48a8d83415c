"""Band-limited torus backend: grids, synthesis, aliasing guards, io."""

import numpy as np
import pytest

from hsgeom import _basis
from hsgeom.forms import (
    Form,
    coeff_norm,
    conjugate,
    differential,
    flat_metric_form,
    integrate_top,
    is_real,
    wedge,
)
from hsgeom.torus import (
    AliasingError,
    GridError,
    load_form,
    make_torus_model,
    refine,
    resample,
    save_form,
    standard_fixture,
    standard_potential,
    synthesize_form,
)

from conftest import random_band_form


def test_mask_controls_resolutions():
    m = make_torus_model(16, ("x1", "x2"))
    assert m.resolutions == (16, 16, 1, 1, 1, 1)
    assert m.active == (0, 1)
    m2 = make_torus_model(8, ("x3", "x5"))
    assert m2.resolutions == (1, 1, 8, 1, 8, 1)


def test_grid_guards():
    with pytest.raises(GridError):
        make_torus_model(12, ("x1",))  # not a power of two
    with pytest.raises(GridError):
        make_torus_model(2, ("x1",))  # too coarse
    with pytest.raises(GridError):
        make_torus_model(1, ("x1", "x2"))  # 1 would read as masked
    assert make_torus_model(1, ()).active == ()  # an empty mask stays legal
    with pytest.raises(GridError):
        make_torus_model(16, ("x1", "x1"))
    with pytest.raises(GridError):
        make_torus_model(16, ("t",))


def test_describe(two_coord):
    d = two_coord[0].describe()
    assert d["backend"] == "torus"
    assert d["mask"] == ["x1", "x2"]
    assert d["scope"] == "band-limited-grid"


def test_headroom():
    m = make_torus_model(16, ("x1",))
    assert m.headroom(0) == 3
    assert m.headroom(1) == 0


# -- synthesis ----------------------------------------------------------------


def test_synthesis_channel_labels(two_coord):
    m = two_coord[0]
    by_pos = synthesize_form(m, 1, 0, [(1, (1, 0, 0, 0, 0, 0), 2.0)])
    by_label = synthesize_form(m, 1, 0, [(((2,), ()), (1, 0, 0, 0, 0, 0), 2.0)])
    assert coeff_norm(by_pos - by_label) == 0


def test_aliasing_guards(two_coord):
    m = two_coord[0]
    with pytest.raises(AliasingError):
        synthesize_form(m, 1, 0, [(0, (4, 0, 0, 0, 0, 0), 1.0)])
    with pytest.raises(AliasingError):
        # masked coordinate cannot oscillate
        synthesize_form(m, 1, 0, [(0, (0, 0, 1, 0, 0, 0), 1.0)])
    with pytest.raises(GridError):
        synthesize_form(m, 1, 0, [(0, (1, 0), 1.0)])


def test_real_synthesis(two_coord):
    m = two_coord[0]
    a = synthesize_form(m, 1, 1, [(0, (1, 0, 0, 0, 0, 0), 1 + 2j)], real=True)
    assert is_real(a, 1e-14)
    with pytest.raises(ValueError):
        synthesize_form(m, 1, 0, [(0, (1, 0, 0, 0, 0, 0), 1.0)], real=True)


@pytest.mark.parametrize("part", ["del", "dbar"])
@pytest.mark.parametrize("axis", range(6))
def test_spectral_derivative_is_exact(part, axis):
    """On a fully active six-axis torus, d/dz_j of e^{i x_{2j-1}} is
    (i/2) e^{i x_{2j-1}} and of e^{i x_{2j}} is (1/2) e^{i x_{2j}}; d/dzbar_j
    gives i/2 and -1/2.  Every other channel is zero: one FFT round trip,
    no stencil error."""
    m = make_torus_model(8, ("x1", "x2", "x3", "x4", "x5", "x6"))
    k = tuple(int(a == axis) for a in range(6))
    j = axis // 2 + 1
    f = synthesize_form(m, 0, 0, [(0, k, 1.0)])
    if part == "del":
        value, label, bidegree = (0.5j, 0.5)[axis % 2], ((j,), ()), (1, 0)
    else:
        value, label, bidegree = (0.5j, -0.5)[axis % 2], ((), (j,)), (0, 1)
    want = synthesize_form(m, *bidegree, [(label, k, value)])
    assert np.abs(differential(part, f).coeffs - want.coeffs).max() < 1e-14


@pytest.mark.parametrize("p, q", [(2, 0), (1, 1), (0, 1)])
def test_dbar_preimage_is_exact(p, q):
    """dbar of the preimage of v = dbar x gives v back, mode by mode: on a
    grid with both axes of z1 and one of z2 and z3 active, so that the
    symbols are complex on one axis pair and real on the others."""
    m = make_torus_model(8, ("x1", "x2", "x3", "x6"))
    rng = np.random.default_rng(10 * p + q)
    v = differential("dbar", random_band_form(m, p, q, rng, terms=8))
    x = Form(m, p, q, m.dbar_preimage(p, q, v.coeffs))
    assert coeff_norm(v) > 0.1
    assert coeff_norm(differential("dbar", x) - v) <= 1e-13 * coeff_norm(v)


@pytest.mark.parametrize("part", ["del", "dbar"])
def test_spectral_adjoint_is_the_flat_adjoint(part):
    """<D x, y> = <x, D^H y> for random spectra x, y of every (p,q) with a
    nonzero target, D = spectral_differential and D^H = spectral_adjoint,
    on the grid of test_dbar_preimage_is_exact."""
    m = make_torus_model(8, ("x1", "x2", "x3", "x6"))
    rng = np.random.default_rng(1)
    shape = lambda p, q: (_basis.degree_dims(3, p, q),) + m.grid_shape
    spec = lambda p, q: rng.standard_normal(shape(p, q)) \
        + 1j * rng.standard_normal(shape(p, q))
    for p in range(4):
        for q in range(4):
            tgt = (p + 1, q) if part == "del" else (p, q + 1)
            if max(tgt) > 3:
                continue
            x, y = spec(p, q), spec(*tgt)
            Dx = m.spectral_differential(part, p, q, x)
            DHy = m.spectral_adjoint(part, p, q, y)
            assert abs(np.vdot(y, Dx) - np.vdot(DHy, x)) \
                <= 1e-13 * np.linalg.norm(Dx) * np.linalg.norm(y)


@pytest.mark.parametrize("part", ["del", "dbar"])
def test_fully_masked_differential_is_exactly_zero(part):
    m = make_torus_model(8, ())
    assert m.grid_shape == (1,) * 6
    coeffs = np.random.default_rng(4).standard_normal((9, 1, 1, 1, 1, 1, 1))
    df = differential(part, Form(m, 1, 1, coeffs.astype(complex)))
    assert df.coeffs.shape == (9,) + m.grid_shape
    assert not np.any(df.coeffs)


def test_product_of_band_limited_fields_integrates_exactly(two_coord):
    """Quarter-band headroom keeps pairwise products below Nyquist."""
    m = two_coord[0]
    f = synthesize_form(m, 3, 3, [(0, (3, 0, 0, 0, 0, 0), 1.0)])
    g = synthesize_form(m, 3, 3, [(0, (-3, 0, 0, 0, 0, 0), 1.0)])
    # <f, conj g> style integral via pointwise product of the two channels
    prod = np.mean(f.coeffs[0] * g.coeffs[0])
    assert abs(prod - 1.0) < 1e-14


# -- refinement and resampling --------------------------------------------------


def test_refine_and_resample(two_coord):
    m, u, omega0, omega = two_coord
    m2 = refine(m, 2)
    assert m2.resolutions == (32, 32, 1, 1, 1, 1)
    omega_fine = resample(omega, m2)
    # integrals of the trilinear volume agree across grids to roundoff
    v1 = integrate_top(wedge(wedge(omega, omega), omega))
    v2 = integrate_top(wedge(wedge(omega_fine, omega_fine), omega_fine))
    assert abs(v1 - v2) < 1e-12 * abs(v1)
    # resampling back recovers the original samples
    back = resample(omega_fine, m)
    assert coeff_norm(back - omega) < 1e-13


def test_resample_rejects_incompatible_mask(two_coord):
    m = two_coord[0]
    other = make_torus_model(16, ("x3",))
    with pytest.raises(GridError):
        resample(two_coord[3], other)


# -- io -------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, two_coord):
    m, u, _, omega = two_coord
    prefix = str(tmp_path / "omega")
    save_form(omega, prefix)
    again = load_form(m, prefix)
    assert again.bidegree == (1, 1)
    assert np.array_equal(again.coeffs, omega.coeffs)


def test_failed_export_leaves_the_earlier_pair(tmp_path, two_coord,
                                              monkeypatch):
    """An export whose np.save raises writes no header and no partial
    payload, and leaves an earlier pair under the prefix as it was."""
    m, u, _, omega = two_coord
    fresh, prefix = str(tmp_path / "fresh"), str(tmp_path / "omega")
    save_form(omega, prefix)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing_save(fh, arr):
        fh.write(b"partial")
        raise OSError("disk full")
    monkeypatch.setattr(np, "save", failing_save)
    for target, form in ((prefix, u), (fresh, omega)):
        with pytest.raises(OSError, match="disk full"):
            save_form(form, target)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    assert np.array_equal(load_form(m, prefix).coeffs, omega.coeffs)


def test_load_checks_grid(tmp_path, two_coord):
    _, u, _, _ = two_coord
    prefix = str(tmp_path / "u")
    save_form(u, prefix)
    with pytest.raises(GridError):
        load_form(make_torus_model(32, ("x1", "x2")), prefix)


# -- standard fixtures ------------------------------------------------------------


def test_standard_fixture_shape(two_coord):
    model, u, omega0, omega = two_coord
    assert u.bidegree == (1, 0)
    assert omega.bidegree == (1, 1)
    assert is_real(omega, 1e-12)
    assert coeff_norm(omega0 - flat_metric_form(model)) == 0
    pert = omega - omega0
    want = differential("del", conjugate(u)) + differential("dbar", u)
    assert coeff_norm(pert - want) == 0


def test_three_coord_mask(three_coord):
    model = three_coord[0]
    assert model.describe()["mask"] == ["x1", "x3", "x5"]


def test_unknown_potential(two_coord):
    with pytest.raises(ValueError):
        standard_potential(two_coord[0], "four_coord")
