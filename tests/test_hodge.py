"""Metric layer: Gram data, star, adjoints, Laplacians, Green operators."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgeom import _basis, hodge, make_torus_model, standard_fixture
from hsgeom.forms import (
    BidegreeError,
    Form,
    basis_form,
    coeff_norm,
    differential,
    flat_metric_form,
    integrate_top,
    wedge,
    zero_form,
)
from hsgeom.hodge import (
    LAPLACIAN_KINDS,
    Metric,
    NotPositiveError,
    SolveDiverged,
    adjoint_diff,
    contract,
    contract_trace,
    decompose_3space,
    form_of_11,
    green_solve,
    harmonic_basis,
    harmonic_project,
    inner,
    laplacian,
    norm,
    pointwise_inner,
    primitive_part,
    primitive_star_reference,
    star,
)

from conftest import random_band_form, random_form, random_metric

seeds = st.integers(0, 2**32 - 1)


# -- constructor guards -------------------------------------------------------


def test_metric_requires_11(torus3):
    with pytest.raises(BidegreeError):
        Metric(zero_form(torus3, 2, 0))


def test_metric_requires_real(torus3):
    omega = flat_metric_form(torus3) + 0.3 * basis_form(torus3, 1, 1, (1,), (2,))
    with pytest.raises(ValueError):
        Metric(omega)


def test_metric_requires_positive(torus3):
    omega = flat_metric_form(torus3) - 0.5j * basis_form(torus3, 1, 1, (1,), (1,))
    with pytest.raises(NotPositiveError):
        Metric(omega)


def test_flat_metric_data(torus3_metric):
    g = torus3_metric
    assert abs(g.volume - 1.0) < 1e-14
    assert abs(g.min_eigenvalue - 0.5) < 1e-14
    assert np.allclose(g.H, 0.5 * np.eye(3))


def test_scaled_metric_volume(torus3):
    g = Metric(2.0 * flat_metric_form(torus3))
    # H = identity, density = 2^3 * det H = 8
    assert abs(g.volume - 8.0) < 1e-13


# -- inner products ------------------------------------------------------------


def _minor_determinant_pairing(g, p, q):
    """Reference pairing, one det(M1[I,K]) * det(M2[J,L]) per Gram entry."""
    bas = _basis.basis(g.n, p, q)
    M1 = np.swapaxes(g.Hinv, -1, -2)
    M2 = g.Hinv
    P = np.empty(g.model.grid_shape + (len(bas), len(bas)), dtype=np.complex128)
    for u, (I, J) in enumerate(bas):
        for w, (K, L) in enumerate(bas):
            i0, k0 = np.array(I, dtype=int) - 1, np.array(K, dtype=int) - 1
            j0, l0 = np.array(J, dtype=int) - 1, np.array(L, dtype=int) - 1
            d1 = np.linalg.det(M1[..., i0[:, None], k0[None, :]])
            d2 = np.linalg.det(M2[..., j0[:, None], l0[None, :]])
            P[..., u, w] = d1 * d2
    return np.moveaxis(P, (-2, -1), (0, 1))


def test_pairing_matches_minor_determinants(heis3, eps_metric):
    metrics = [random_metric(heis3, np.random.default_rng(3)), eps_metric]
    for g in metrics:
        for p in range(4):
            for q in range(4):
                P = g.pairing(p, q)
                assert np.array_equal(P, _minor_determinant_pairing(g, p, q)), (p, q)
        for p, q in [(-1, 0), (4, 1), (1, 4)]:
            assert g.pairing(p, q).shape == (0, 0) + g.model.grid_shape


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_inner_is_hermitian(lie_models, seed):
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    a = random_form(model, 1, 1, rng)
    b = random_form(model, 1, 1, rng)
    assert abs(inner(g, a, b) - np.conj(inner(g, b, a))) < 1e-12
    assert inner(g, a, a).real >= 0


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_pointwise_inner_positive(two_coord, seed):
    model = two_coord[0]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    a = random_form(model, 2, 1, rng)
    vals = pointwise_inner(g, a, a)
    assert float(np.min(vals.real)) >= -1e-12 * float(np.max(np.abs(vals)))


def test_norm_of_omega(torus3_metric):
    # <omega, omega> = n pointwise for any metric against itself
    g = torus3_metric
    assert abs(norm(g, g.omega) ** 2 - 3.0) < 1e-13


# -- star ------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    bidegree=st.sampled_from([(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]),
    seed=seeds,
)
def test_star_isometry_and_involution(lie_models, bidegree, seed):
    model = lie_models["heis3"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    a = random_form(model, *bidegree, rng)
    sa = star(g, a)
    assert sa.bidegree == (3 - a.q, 3 - a.p)
    assert abs(norm(g, sa) - norm(g, a)) < 1e-10 * max(1.0, norm(g, a))
    ss = star(g, sa)
    sign = (-1.0) ** a.degree
    assert coeff_norm(ss - sign * a) < 1e-10 * max(1.0, coeff_norm(a))


def test_star_of_one_is_volume(eps_metric):
    model = eps_metric.model
    one = zero_form(model, 0, 0)
    one.coeffs[...] = 1.0
    dv = star(eps_metric, one)
    val = integrate_top(dv)
    assert abs(val - eps_metric.volume) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    bidegree=st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2)]),
    seed=seeds,
)
def test_primitive_star_formula(lie_models, bidegree, seed):
    """star on primitive forms against the sign/phase wedge-power formula."""
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    v = primitive_part(g, random_form(model, *bidegree, rng))
    lhs = star(g, v)
    rhs = primitive_star_reference(g, v)
    assert coeff_norm(lhs - rhs) < 1e-10 * max(1.0, coeff_norm(v))


# -- adjoints ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    bidegree=st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2)]),
    part=st.sampled_from(["del", "dbar"]),
    seed=seeds,
)
def test_adjointness_lie(lie_models, bidegree, part, seed):
    model = lie_models["heis3"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    p, q = bidegree
    src = (p - 1, q) if part == "del" else (p, q - 1)
    a = random_form(model, *src, rng)
    b = random_form(model, p, q, rng)
    lhs = inner(g, differential(part, a), b)
    rhs = inner(g, a, adjoint_diff(g, part, b))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=10, deadline=None)
@given(part=st.sampled_from(["del", "dbar"]), seed=seeds)
def test_adjointness_torus(two_coord, part, seed):
    model = two_coord[0]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng, wobble=0.05)
    a = random_form(model, 1, 0, rng)
    b = random_form(model, 2, 0, rng) if part == "del" else random_form(model, 1, 1, rng)
    lhs = inner(g, differential(part, a), b)
    rhs = inner(g, a, adjoint_diff(g, part, b))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# -- Laplacians and harmonic spaces --------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["del", "dbar", "bc"]), seed=seeds)
def test_laplacian_self_adjoint_nonnegative(lie_models, kind, seed):
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    a = random_form(model, 1, 1, rng)
    b = random_form(model, 1, 1, rng)
    La = laplacian(g, kind, a)
    assert abs(inner(g, La, b) - inner(g, a, laplacian(g, kind, b))) < 1e-9
    assert inner(g, La, a).real >= -1e-10


def test_laplacian_kind_guard(torus3_metric):
    with pytest.raises(ValueError):
        laplacian(torus3_metric, "hodge", torus3_metric.omega)


def test_harmonic_dims_torus3(torus3_metric):
    # flat abelian model: every invariant form is harmonic
    import math

    for p in range(4):
        for q in range(4):
            want = math.comb(3, p) * math.comb(3, q)
            assert len(harmonic_basis(torus3_metric, "dbar", p, q)) == want


def test_harmonic_dims_iwasawa(iwasawa):
    g = Metric(flat_metric_form(iwasawa))
    assert len(harmonic_basis(g, "dbar", 1, 0)) == 3
    assert len(harmonic_basis(g, "dbar", 0, 1)) == 2


def test_harmonic_project_idempotent(eps_metric):
    rng = np.random.default_rng(7)
    a = random_form(eps_metric.model, 2, 0, rng)
    h = harmonic_project(eps_metric, "dbar", a)
    hh = harmonic_project(eps_metric, "dbar", h)
    assert coeff_norm(hh - h) < 1e-9 * max(1.0, coeff_norm(h))


# -- Green operators -------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(["del", "dbar", "bc"]), seed=seeds)
def test_green_solve_lie(lie_models, kind, seed):
    model = lie_models["heis3"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    b = random_form(model, 1, 1, rng)
    x, info = green_solve(g, kind, b, with_info=True)
    target = b - harmonic_project(g, kind, b)
    res = norm(g, laplacian(g, kind, x) - target)
    assert res < 1e-9 * max(1.0, norm(g, b))
    assert info.method == "direct"
    # solution is orthogonal to the harmonic space
    for v in harmonic_basis(g, kind, b.p, b.q):
        assert abs(inner(g, x, v)) < 1e-9


# On heis3 the tilde Laplacian vanishes identically on these bidegrees; at a
# random metric its eigenvalues there are round-off (about 1e-33), which the
# relative eigenvalue cut keeps as range (ROADMAP item 1).
_ROUND_OFF_TILDE = ((0, 1), (0, 2), (3, 1), (3, 2))


@pytest.fixture(scope="module")
def heis3_random(heis3):
    return random_metric(heis3, np.random.default_rng(3))


def _assert_green_annihilates_harmonic(g, kind, p, q):
    for h in harmonic_basis(g, kind, p, q):
        x, info = green_solve(g, kind, h, with_info=True)
        assert norm(g, x) < 1e-12
        assert abs(info.discarded_mass - 1.0) < 1e-12


@pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
def test_green_solve_annihilates_harmonic_basis(heis3_random, kind):
    # harmonic_basis and green_solve share one eigenvalue cut on the lie
    # backend, so every harmonic vector is all discarded mass
    for p in range(4):
        for q in range(4):
            if kind == "tilde" and (p, q) in _ROUND_OFF_TILDE:
                continue
            _assert_green_annihilates_harmonic(heis3_random, kind, p, q)


@pytest.mark.xfail(strict=True, reason="round-off eigenvalues pass the "
                   "relative cut (ROADMAP item 1)")
@pytest.mark.parametrize("bidegree", _ROUND_OFF_TILDE)
def test_green_solve_annihilates_harmonic_basis_round_off(heis3_random,
                                                          bidegree):
    _assert_green_annihilates_harmonic(heis3_random, "tilde", *bidegree)


def test_green_solve_torus(eps_metric):
    rng = np.random.default_rng(11)
    b = random_form(eps_metric.model, 2, 0, rng)
    x, info = green_solve(eps_metric, "dbar", b, tol=1e-11, with_info=True)
    target = b - harmonic_project(eps_metric, "dbar", b)
    res = norm(eps_metric, laplacian(eps_metric, "dbar", x) - target)
    assert res < 1e-8 * max(1.0, norm(eps_metric, b))
    assert info.method == "pcg"
    assert info.iterations > 0
    assert info.relative_residual < 1e-10


def test_green_solve_diverges_on_tiny_cap(eps_metric):
    from hsgeom.hodge import SolveDiverged

    rng = np.random.default_rng(13)
    b = random_form(eps_metric.model, 2, 0, rng)
    with pytest.raises(SolveDiverged):
        green_solve(eps_metric, "dbar", b, tol=1e-13, max_iter=2)


def test_green_solve_converges_at_its_own_iteration_count(eps_metric):
    # the iterate after the last allowed update is checked before the cap
    # is declared hit
    rng = np.random.default_rng(11)
    b = random_form(eps_metric.model, 2, 0, rng)
    x, info = green_solve(eps_metric, "dbar", b, with_info=True)
    y, again = green_solve(eps_metric, "dbar", b, max_iter=info.iterations,
                           with_info=True)
    assert again.iterations == info.iterations
    assert np.array_equal(x.coeffs, y.coeffs)


def test_green_solve_cap_zero_checks_only_the_right_hand_side(two_coord8):
    # max_iter=0 makes no update: it raises unless the projected right-hand
    # side already meets tol; None is the default cap, a negative cap an error
    b = random_form(two_coord8.model, 2, 0, np.random.default_rng(13))
    with pytest.raises(SolveDiverged, match="cap 0 "):
        green_solve(two_coord8, "dbar", b, max_iter=0)
    x, info = green_solve(two_coord8, "dbar", b, tol=2.0, max_iter=0,
                          with_info=True)
    assert info.iterations == 0 and not np.any(x.coeffs)
    with pytest.raises(ValueError, match="max_iter"):
        green_solve(two_coord8, "dbar", b, max_iter=-1)


# -- grid preconditioner and kernels ----------------------------------------------------


@pytest.fixture(scope="module")
def skew_constant_metric():
    """A constant, non-diagonal metric on a 4-axis N=8 grid (z1, z2 active),
    eigenvalues 0.003, 0.24 and 0.93 in a random unitary frame."""
    model = make_torus_model(8, ("x1", "x2", "x3", "x4"))
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    H = Q @ np.diag([0.003, 0.24, 0.93]) @ Q.conj().T
    return Metric(form_of_11(model, 0.5 * (H + H.conj().T)))


def _sampled_symbol(g, kind, p, q):
    """The symbol (*grid, d, d) of a constant-coefficient Laplacian, one
    column per delta-at-the-origin channel field."""
    model = g.model
    d = _basis.degree_dims(g.n, p, q)
    axes = tuple(1 + a for a in model.active)
    M = np.empty(model.grid_shape + (d, d), dtype=np.complex128)
    for j in range(d):
        x = np.zeros((d,) + model.grid_shape, dtype=np.complex128)
        x[(j,) + (0,) * len(model.grid_shape)] = 1.0
        y = laplacian(g, kind, Form(model, p, q, x)).coeffs
        M[..., :, j] = np.moveaxis(np.fft.fftn(y, axes=axes), 0, -1)
    return M


@pytest.mark.parametrize("kind", ["del", "dbar", "tilde"])
def test_closed_form_symbol_matches_sampled(skew_constant_metric, kind):
    g = skew_constant_metric
    inv, opnorm, _ = hodge._symbol_pinv(g, kind)
    for p in range(4):
        for q in range(4):
            M = _sampled_symbol(g, kind, p, q)
            # pseudo-inverse with a cut relative to the whole frequency range
            U, s, Vh = np.linalg.svd(M)
            assert abs(s.max() - opnorm) < 1e-12 * opnorm
            keep = s > hodge._SYMBOL_RCOND * s.max()
            sinv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
            pinv = np.swapaxes(Vh, -1, -2).conj() @ (
                sinv[..., :, None] * np.swapaxes(U, -1, -2).conj())
            want = inv[..., None, None] * np.eye(M.shape[-1])
            assert np.abs(pinv - want).max() < 1e-10


def test_bc_symbol_within_bracket(skew_constant_metric):
    # at a Kaehler metric sigma^2 <= sigma_BC <= sigma^2 + 2 sigma
    g = skew_constant_metric
    inv, _, _ = hodge._symbol_pinv(g, "dbar")
    sigma = np.where(inv > 0, 1.0 / np.where(inv > 0, inv, 1.0), 0.0)
    top = float(np.max(sigma ** 2 + 2 * sigma))
    assert abs(hodge._symbol_pinv(g, "bc")[1] - top) < 1e-12 * top
    for p in range(4):
        for q in range(4):
            lam = np.linalg.eigvals(_sampled_symbol(g, "bc", p, q))
            assert np.abs(lam.imag).max() < 1e-9 * top
            lo = (sigma ** 2)[..., None]
            hi = (sigma ** 2 + 2 * sigma)[..., None]
            assert np.all(lam.real >= lo - 1e-9 * top)
            assert np.all(lam.real <= hi + 1e-9 * top)


@pytest.fixture(scope="module")
def two_coord8():
    return Metric(standard_fixture("two_coord", resolution=8, eps=0.05)[3])


@pytest.mark.parametrize("flavor", ["bc", "tilde"])
def test_decompose_3space_torus(two_coord8, flavor):
    g = two_coord8
    a = random_band_form(g.model, 1, 1, np.random.default_rng(5))
    h, mid, co = decompose_3space(g, flavor, a)
    na = norm(g, a)
    assert coeff_norm(h + mid + co - a) < 1e-12 * coeff_norm(a)
    assert abs(inner(g, h, mid)) < 1e-9 * na ** 2
    assert abs(inner(g, h, co)) < 1e-9 * na ** 2
    assert abs(inner(g, mid, co)) < 1e-9 * na ** 2
    assert norm(g, laplacian(g, flavor, h)) < 1e-9 * na


def test_bc_kernel_and_decomposition_on_scaled_metric(two_coord8):
    # 4 omega puts the lowest symbol value at 1/8, below the 1/2 of the
    # fixtures, where the scalar bc preconditioner is slower per sweep
    g = Metric(4.0 * two_coord8.omega)
    assert float(hodge._symbol_pinv(g, "dbar")[0].max()) == pytest.approx(8.0)
    kernel = harmonic_basis(g, "bc", 1, 1)
    assert len(kernel) == len(harmonic_basis(two_coord8, "bc", 1, 1))
    a = random_band_form(g.model, 1, 1, np.random.default_rng(5))
    h, mid, co = decompose_3space(g, "bc", a)
    na = norm(g, a)
    assert abs(inner(g, h, mid)) < 1e-9 * na ** 2
    assert abs(inner(g, h, co)) < 1e-9 * na ** 2
    assert abs(inner(g, mid, co)) < 1e-9 * na ** 2
    assert norm(g, laplacian(g, "bc", h)) < 1e-9 * na


@pytest.mark.xfail(strict=True, raises=SolveDiverged,
                   reason="the scalar bc preconditioner slows as 1/(1 + "
                   "sigma_min) per sweep, so large metrics exhaust "
                   "_KERNEL_SWEEPS (ROADMAP item 3)")
def test_bc_kernel_on_large_metric(two_coord8):
    g = Metric(64.0 * two_coord8.omega)
    assert len(harmonic_basis(g, "bc", 1, 3)) == len(
        harmonic_basis(two_coord8, "bc", 1, 3))


def test_tilde_kernel_inside_dbar_kernel(two_coord8):
    g = two_coord8
    for p in range(4):
        for q in range(4):
            tilde = harmonic_basis(g, "tilde", p, q)
            assert len(tilde) == len(harmonic_basis(g, "dbar", p, q))
            for w in tilde:
                off = w - harmonic_project(g, "dbar", w)
                assert norm(g, off) < 1e-10


def test_deflated_kernel_applies_laplacian_once_per_vector(monkeypatch):
    g = Metric(standard_fixture("two_coord", resolution=8, eps=0.05)[3])
    applied = collections.Counter()
    real = hodge.laplacian

    def counting(metric, kind, a):
        applied[(kind, a.p, a.q, a.coeffs.tobytes())] += 1
        return real(metric, kind, a)

    monkeypatch.setattr(hodge, "laplacian", counting)
    for kind in ("del", "dbar", "tilde"):
        for p, q in ((1, 0), (1, 1), (0, 2), (1, 2)):
            harmonic_basis(g, kind, p, q)
    assert applied and max(applied.values()) == 1


# -- three-space decomposition -----------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(flavor=st.sampled_from(["bc", "tilde"]), seed=seeds)
def test_decompose_3space(lie_models, flavor, seed):
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    a = random_form(model, 1, 1, rng)
    h, mid, co = decompose_3space(g, flavor, a)
    total = h + mid + co
    assert coeff_norm(total - a) < 1e-8 * max(1.0, coeff_norm(a))
    assert abs(inner(g, h, mid)) < 1e-8
    assert abs(inner(g, h, co)) < 1e-8
    assert abs(inner(g, mid, co)) < 1e-8


def test_decompose_flavor_guard(torus3_metric):
    with pytest.raises(ValueError):
        decompose_3space(torus3_metric, "dolbeault", torus3_metric.omega)


# -- contraction and primitivity ------------------------------------------------------------


def test_contract_trace_of_omega(eps_metric):
    tr = contract_trace(eps_metric, eps_metric.omega)
    assert float(np.max(np.abs(tr - 3.0))) < 1e-12


def test_contract_adjoint_to_wedge(eps_metric):
    rng = np.random.default_rng(5)
    a = random_form(eps_metric.model, 1, 0, rng)
    b = random_form(eps_metric.model, 2, 1, rng)
    lhs = inner(eps_metric, wedge(eps_metric.omega, a), b)
    rhs = inner(eps_metric, a, contract(eps_metric, b))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_primitive_part_annihilated(eps_metric):
    rng = np.random.default_rng(9)
    for bidegree in [(1, 1), (2, 0), (2, 1), (1, 2)]:
        a = random_form(eps_metric.model, *bidegree, rng)
        prim = primitive_part(eps_metric, a)
        assert coeff_norm(contract(eps_metric, prim)) < 1e-10 * max(
            1.0, coeff_norm(a)
        )


def test_omega_has_no_primitive_part(eps_metric):
    prim = primitive_part(eps_metric, eps_metric.omega)
    assert coeff_norm(prim) < 1e-12
