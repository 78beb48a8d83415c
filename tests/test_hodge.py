"""Metric layer: Gram data, star, adjoints, Laplacians, Green operators."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgeom import (_basis, analysis, hodge, make_torus_model,
                    standard_fixture, synthesize_form)
from hsgeom.forms import (
    BidegreeError,
    Form,
    basis_form,
    coeff_norm,
    conjugate,
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
    form_of_11,
    green_solve,
    harmonic_basis,
    harmonic_project,
    inner,
    laplacian,
    norm,
    pointwise_inner,
    primitive_part,
    star,
)

from conftest import (bc_symbol_pinv, lapack_compound, laplacian_reference,
                      primitive_star_reference, random_band_form,
                      random_form, random_metric, reference_green,
                      reference_pcg, reference_root, root_apply, weigh)

seeds = st.integers(0, 2**32 - 1)


# -- constructor guards -------------------------------------------------------


def test_metric_requires_11(torus3):
    with pytest.raises(BidegreeError):
        Metric(zero_form(torus3, 2, 0))


@pytest.mark.parametrize("backend", ["lie", "torus"])
def test_coefficient_codecs_match_channel_loops(torus3, backend):
    # the codecs are reshapes of the I-major channels; the per-entry channel
    # lookups they replaced are the reference, to the bit
    from hsgeom.analysis import _matrix_of_22

    model = torus3 if backend == "lie" else make_torus_model(8, ("x1", "x4"))
    rng = np.random.default_rng(3)
    grid = model.grid_shape
    a11, a22 = (random_form(model, p, p, rng) for p in (1, 2))
    idx11, idx22 = (_basis.channel_index(3, p, p) for p in (1, 2))
    M = np.empty(grid + (3, 3), np.complex128)
    K = np.empty(grid + (3, 3), np.complex128)
    comp = {0: (2, 3), 1: (1, 3), 2: (1, 2)}
    for j in range(3):
        for k in range(3):
            M[..., j, k] = a11.coeffs[idx11[((j + 1,), (k + 1,))]] / 1j
            K[..., j, k] = a22.coeffs[idx22[(comp[j], comp[k])]]
    got = hodge._matrix_of_11(a11)
    assert got.flags.c_contiguous and got.tobytes() == M.tobytes()
    got = _matrix_of_22(a22)
    assert got.flags.c_contiguous and got.tobytes() == K.tobytes()
    for G in (M, M[(0,) * len(grid)]):            # per point and constant
        want = np.zeros((9,) + grid, np.complex128)
        for j in range(3):
            for k in range(3):
                want[idx11[((j + 1,), (k + 1,))]] = 1j * G[..., j, k]
        assert form_of_11(model, G).coeffs.tobytes() == want.tobytes()


def test_metric_requires_real(torus3):
    omega = flat_metric_form(torus3) + 0.3 * basis_form(torus3, 1, 1, (1,), (2,))
    with pytest.raises(ValueError):
        Metric(omega)


def test_metric_requires_positive(torus3):
    omega = flat_metric_form(torus3) - 0.5j * basis_form(torus3, 1, 1, (1,), (1,))
    with pytest.raises(NotPositiveError):
        Metric(omega)


def test_positivity_by_pivots_matches_eigvalsh():
    # Sylvester's criterion on H - tau I decides lambda_min > tau as
    # eigvalsh does: at random, and at lambda_min = tau (1 +- 1e-6)
    tau, rng, n = hodge._POS_TOL, np.random.default_rng(2), 400
    for low in (rng.uniform(-1, 1, n), rng.uniform(0, 2 * tau, n),
                np.full(n, tau * (1 + 1e-6)), np.full(n, tau * (1 - 1e-6))):
        lam = np.column_stack([low, rng.uniform(tau, 1, (n, 2))])
        U = np.linalg.qr(rng.standard_normal((n, 3, 3))
                         + 1j * rng.standard_normal((n, 3, 3)))[0]
        H = (U * lam[:, None]) @ np.conj(np.swapaxes(U, -1, -2))
        H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
        want = np.linalg.eigvalsh(H)[:, 0] > tau
        assert want.tolist() == (low > tau).tolist()
        assert [hodge._positive(h, tau) for h in H] == want.tolist()
        assert hodge._positive(H, tau) == want.all()


def test_grid_metric_runs_no_eigvalsh(monkeypatch):
    # positivity is decided by pivots; eigvalsh runs for the report's
    # min_eigenvalue and on the NotPositiveError path only
    omega = standard_fixture("three_coord", resolution=8, eps=0.05)[3]
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda H: calls.append(H.shape) or eigvalsh(H))
    g = Metric(omega)
    assert not calls
    least = eigvalsh(g.H)[..., 0]
    assert g.min_eigenvalue == least.min() and len(calls) == 1
    bad = omega - form_of_11(g.model, least.min() * np.eye(3))
    with pytest.raises(NotPositiveError) as err:
        Metric(bad)
    H = hodge._matrix_of_11(bad)
    least = eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, -1, -2))))[..., 0]
    assert err.value.worst == least.min() < hodge._POS_TOL
    assert err.value.location == np.unravel_index(np.argmin(least),
                                                  least.shape)


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
    """Reference pairing, one det(M1[I,K]) * det(M2[J,L]) per Gram entry,
    with H^{-1} from LAPACK: a second route to the closed-form compounds."""
    bas = _basis.basis(g.n, p, q)
    M2 = np.linalg.inv(g.H)
    M1 = np.swapaxes(M2, -1, -2)
    P = np.empty(g.model.grid_shape + (len(bas), len(bas)), dtype=np.complex128)
    for u, (I, J) in enumerate(bas):
        for w, (K, L) in enumerate(bas):
            i0, k0 = np.array(I, dtype=int) - 1, np.array(K, dtype=int) - 1
            j0, l0 = np.array(J, dtype=int) - 1, np.array(L, dtype=int) - 1
            d1 = np.linalg.det(M1[..., i0[:, None], k0[None, :]])
            d2 = np.linalg.det(M2[..., j0[:, None], l0[None, :]])
            P[..., u, w] = d1 * d2
    return np.moveaxis(P, (-2, -1), (0, 1))


@pytest.mark.parametrize("name", ["two_coord", "three_coord", "heis3"])
def test_closed_form_algebra_matches_lapack(heis3, name):
    """det H, H^{-1} and every compound of H^{-T} and H^{-1} against LAPACK;
    each "inverse" factor times its "pairing" factor is the identity."""
    if name == "heis3":
        g = random_metric(heis3, np.random.default_rng(7))
    else:
        g = Metric(standard_fixture(name, resolution=8, eps=0.05)[3])
    Hinv = np.linalg.inv(g.H)
    _assert_close(g.detH, np.linalg.det(g.H).real)
    _assert_close(g.Hinv, Hinv)
    for side, M in (("H^-T", np.swapaxes(Hinv, -1, -2)), ("H^-1", Hinv)):
        for k in range(4):
            _assert_close(g.compound(side, k), lapack_compound(M, k))
    for k in range(1, 4):
        for A, Ainv in zip(g.factors("pairing", k, k),
                           g.factors("inverse", k, k)):
            eye = np.eye(len(A))[..., None] + 0 * A
            _assert_close(np.einsum("ijg,jkg->ikg", Ainv, A), eye)


def test_closed_form_inverse_of_ill_conditioned_metric(heis3):
    """H with eigenvalues 1e-6 .. 1e2: H^{-1} within kappa * 1e-15 of
    LAPACK."""
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    lam = np.array([1e-6, 1e-2, 1e2])
    g = Metric(form_of_11(heis3, (U * lam) @ U.conj().T))
    want = np.linalg.inv(g.H)
    err = np.abs(g.Hinv - want).max()
    assert err <= lam[-1] / lam[0] * 1e-15 * np.abs(want).max(), err


def test_metric_algebra_calls_no_batched_det_or_inv(monkeypatch):
    """A grid Metric, its compounds, the pairing, inverse and star factors
    and root_of_22 are closed forms: np.linalg.det, np.linalg.inv and
    np.linalg.cholesky never run.  (The Cholesky roots are LAPACK's.)"""
    from hsgeom.analysis import root_of_22
    omega = standard_fixture("three_coord", resolution=8, eps=0.05)[3]
    calls = collections.Counter()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    spy("det", np.linalg.det)
    spy("inv", np.linalg.inv)
    spy("cholesky", np.linalg.cholesky)
    g = Metric(omega)
    for side in ("H^-T", "H^-1"):
        for k in range(4):
            g.compound(side, k)
    for kind in ("pairing", "inverse", "star"):
        for p in range(4):
            for q in range(4):
                g.factors(kind, p, q)
    root_of_22(wedge(omega, omega))
    assert not calls, dict(calls)


@pytest.mark.parametrize("kind", ["chol", "chol_inverse", "gram"])
def test_unknown_channel_map_raises(eps_metric, kind):
    # the root of the Gram is Metric.gram_cholesky, not a factor kind
    with pytest.raises(ValueError, match="unknown channel map"):
        eps_metric.factors(kind, 1, 1)
    assert not [key for key in eps_metric._memo if key[:2] == ("factor", kind)]


def test_pairing_matches_minor_determinants(heis3, eps_metric):
    metrics = [random_metric(heis3, np.random.default_rng(3)), eps_metric]
    for g in metrics:
        for p in range(4):
            for q in range(4):
                _assert_close(g.pairing(p, q),
                              _minor_determinant_pairing(g, p, q))
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
@given(kind=st.sampled_from(LAPLACIAN_KINDS), seed=seeds)
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


@pytest.mark.parametrize("name", ["torus3", "heis3", "two_coord"])
@pytest.mark.parametrize("kind", ["hodge", "bc", "del"])
def test_unknown_kernel_and_green_kinds_raise(lie_models, name, kind):
    # on torus3 the invariant scale is 0, so a Ritz split returns before any
    # Laplacian runs; on the grid every kernel search images Delta''.  The
    # kind is checked at the entry of both, never answered silently
    if name == "two_coord":
        g = Metric(standard_fixture(name, resolution=8, eps=0.05)[3])
    else:
        g = random_metric(lie_models[name], np.random.default_rng(5))
    b = random_form(g.model, 1, 1, np.random.default_rng(6))
    with pytest.raises(ValueError, match="unknown Laplacian kind"):
        harmonic_basis(g, kind, 1, 1)
    with pytest.raises(ValueError, match="unknown Laplacian kind"):
        green_solve(g, kind, b)
    assert not g._kernel_cache


def test_grid_green_solve_is_p0_only():
    # the grid solves dbar on (p,0), the one Green operator its objects
    # invert; any other solve is refused before a kernel or a Gram root is
    # built
    g = Metric(standard_fixture("two_coord", resolution=8, eps=0.05)[3])
    rng = np.random.default_rng(6)
    cases = [("dbar", 1, 1), ("dbar", 0, 2), ("dbar", 3, 2), ("tilde", 2, 0)]
    for kind, p, q in cases:
        b = random_band_form(g.model, p, q, rng)
        with pytest.raises(ValueError, match=r"dbar on \(p,0\) only"):
            green_solve(g, kind, b)
    assert not g._kernel_cache
    assert not [key for key in g._memo if key[0] == "chol"]


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


def _stack(forms):
    return np.stack([f.coeffs for f in forms])


def test_gram_matches_pointwise_inner(lie_models, two_coord8):
    rng = np.random.default_rng(23)
    for g in (random_metric(lie_models["iwasawa"], rng), two_coord8):
        for p, q in ((1, 1), (2, 1)):
            X = [random_form(g.model, p, q, rng) for _ in range(3)]
            Y = [random_form(g.model, p, q, rng) for _ in range(2)]
            G = hodge._gram(g, p, q, _stack(X), _stack(Y))
            assert G.shape == (3, 2)
            for i, x in enumerate(X):
                for j, y in enumerate(Y):
                    want = g.model.mean(pointwise_inner(g, x, y) * g.density)
                    assert abs(G[i, j] - want) < 1e-13 * norm(g, x) * norm(g, y)


def _tensordot_gram(g, p, q, X, Y):
    """_gram by its former route: one tensordot over the (d, *grid) axes."""
    if g.model.kind == "lie":
        T = np.einsum("ju...,uw...->jw...", X, g.pairing(p, q))
    else:
        T = hodge._apply(g, "pairing", p, q, X)
    axes = tuple(range(1, X.ndim))
    return np.tensordot(T * g.density, np.conj(Y), axes=(axes, axes)) \
        / math.prod(g.model.grid_shape)


def test_gram_matches_tensordot_route(lie_models, two_coord8):
    # blocks of k and m forms, among them k = 0 and bidegree (4, 2) with d = 0
    rng = np.random.default_rng(37)
    for g in (random_metric(lie_models["heis3"], rng), two_coord8):
        for (p, q), k, m in (((1, 1), 3, 2), ((2, 1), 0, 2), ((3, 2), 2, 0),
                             ((4, 2), 2, 3)):
            shape = (_basis.degree_dims(g.n, p, q),) + g.model.grid_shape
            X, Y = (rng.standard_normal((n,) + shape)
                    + 1j * rng.standard_normal((n,) + shape) for n in (k, m))
            G = hodge._gram(g, p, q, X, Y)
            want = _tensordot_gram(g, p, q, X, Y)
            assert G.shape == want.shape == (k, m)
            assert np.abs(G - want).max(initial=0.0) \
                <= 1e-13 * np.abs(want).max(initial=1.0)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 8, 8), (0, 4), (3, 0, 8)])
def test_combine_matches_tensordot(shape):
    rng = np.random.default_rng(41)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for A in (rng.standard_normal((2, shape[0])), rng.standard_normal(shape[0]),
              np.zeros((0, shape[0]))):
        got = hodge._combine(A, X)
        want = np.tensordot(A, X, axes=1)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) < 1e-13


def test_orth_drops_repeated_vector(lie_models, two_coord8):
    rng = np.random.default_rng(29)
    for g in (random_metric(lie_models["heis3"], rng), two_coord8):
        a, b = (random_form(g.model, 1, 1, rng) for _ in range(2))
        Q = hodge._orth(g, 1, 1, _stack([a, b, a - 2.0 * b, a]))
        assert len(Q) == 2
        assert np.abs(hodge._gram(g, 1, 1, Q, Q) - np.eye(2)).max() < 1e-13
        for f in (a, b):     # f lies in the span: Bessel is an equality
            c = hodge._gram(g, 1, 1, f.coeffs[None], Q)[0]
            assert abs(norm(g, f) ** 2 - np.sum(np.abs(c) ** 2)) \
                < 1e-12 * norm(g, f) ** 2


def test_scale_reads_the_model_constant_once(monkeypatch):
    """_scale's c, the largest entry of the model's del and dbar matrices,
    is memoised on the model: the scale of a second metric on the same
    model reads no operator matrix and is c^2 lam_max(H^{-1})."""
    from hsgeom.lie import load_model

    model = load_model("name heis\ndim 3\nd phi3 = 1 * phi1^phibar1\n")
    rng = np.random.default_rng(35)
    lam_max = lambda g: float(np.linalg.eigvalsh(g.Hinv)[-1])
    g = random_metric(model, rng)
    c2 = hodge._scale(g) / lam_max(g)
    read = []
    monkeypatch.setattr(model, "operator_matrix",
                        lambda *a: read.append(a) or None)
    g = random_metric(model, rng)
    assert hodge._scale(g) == pytest.approx(c2 * lam_max(g), rel=1e-15)
    assert read == []


@pytest.mark.parametrize("name", ["heis3", "iwasawa"])
@pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
def test_ritz_matches_dense_pencil(lie_models, name, kind):
    # oracle: the generalised eigenvalues of the pencil (G A, G), with A the
    # Laplacian's columns on the channel basis and G its L2 Gram matrix
    g = random_metric(lie_models[name], np.random.default_rng(31))
    scale = hodge._scale(g)
    for p in range(4):
        for q in range(4):
            d = _basis.degree_dims(g.n, p, q)
            A = np.stack([laplacian(g, kind, Form(g.model, p, q, e)).coeffs
                          for e in np.eye(d, dtype=np.complex128)], axis=1)
            G = g.gram(p, q) * g.density
            Linv = np.linalg.inv(np.linalg.cholesky(G))
            C = Linv @ G @ A @ Linv.conj().T
            assert np.abs(C - C.conj().T).max() < 1e-10 * scale
            want = np.linalg.eigvalsh(0.5 * (C + C.conj().T))
            lam, _, kernel = hodge._lie_ritz(g, kind, p, q)
            assert np.abs(lam - want).max() < 1e-10 * scale
            dim = int(np.sum(want <= hodge._EIG_CUTOFF * scale))
            assert int(kernel.sum()) == dim
            assert len(harmonic_basis(g, kind, p, q)) == dim


# -- Green operators -------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(LAPLACIAN_KINDS), seed=seeds)
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
    # harmonic_basis and green_solve share one Ritz split on the lie
    # backend, so every harmonic vector is all discarded mass
    for p in range(4):
        for q in range(4):
            _assert_green_annihilates_harmonic(heis3_random, kind, p, q)


# On heis3 the tilde Laplacian vanishes identically on these bidegrees; at a
# random metric its Ritz values there are round-off (about 1e-33), which a
# cut relative to the operator's own spectrum would keep as range.
@pytest.mark.parametrize("bidegree", ((0, 1), (0, 2), (3, 1), (3, 2)))
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


def test_green_solve_diverges_on_tiny_cap():
    # a (2,0) right-hand side that needs tens of iterations: on two_coord
    # the weak form solves a random one in two
    g = Metric(standard_fixture("three_coord", resolution=16, eps=0.2)[3])
    b = random_band_form(g.model, 2, 0, np.random.default_rng(13))
    with pytest.raises(SolveDiverged):
        green_solve(g, "dbar", b, tol=1e-13, max_iter=2)


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
        y = laplacian_reference(g, kind, Form(model, p, q, x)).coeffs
        M[..., :, j] = np.moveaxis(np.fft.fftn(y, axes=axes), 0, -1)
    return M


@pytest.mark.parametrize("kind", ["del", "dbar", "tilde"])
def test_closed_form_symbol_matches_sampled(skew_constant_metric, kind):
    g = skew_constant_metric
    inv, opnorm, _ = hodge._symbol_pinv(g)
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


def test_flat_symbol_and_laplacian_are_half_k_squared():
    # flat H = I/2 on a fully active torus: Delta'' e^{i k.x} = |k|^2/2
    # e^{i k.x}, so the dbar symbol inverse is 2/|k|^2, independently of the
    # model's derivative symbols
    model = make_torus_model(8, ("x1", "x2", "x3", "x4", "x5", "x6"))
    g = Metric(flat_metric_form(model))
    k = (1, 0, 0, 1, 0, 0)
    f = synthesize_form(model, 0, 0, [(0, k, 1.0)])
    lap = laplacian(g, "dbar", f)
    assert np.abs(lap.coeffs - 0.5 * sum(np.square(k)) * f.coeffs).max() \
        < 1e-14
    ks = np.meshgrid(*[np.fft.fftfreq(8, 1.0 / 8)] * 6, indexing="ij")
    ksq = sum(np.square(kx) for kx in ks)
    want = np.where(ksq > 0, 2.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    inv = hodge._symbol_pinv(g)[0]
    assert inv[k] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(inv - want).max() < 1e-14


def test_fully_masked_symbol_is_zero():
    model = make_torus_model(8, ())
    g = Metric(flat_metric_form(model))
    inv, opnorm, axes = hodge._symbol_pinv(g)
    assert opnorm == 0.0 and not np.any(inv) and axes == ()


def test_bc_symbol_within_bracket(skew_constant_metric):
    # at a Kaehler metric sigma^2 <= sigma_BC <= sigma^2 + 2 sigma: the
    # bracket of the preconditioner of the Bott-Chern Green reference
    g = skew_constant_metric
    inv, _, _ = hodge._symbol_pinv(g)
    sigma = np.where(inv > 0, 1.0 / np.where(inv > 0, inv, 1.0), 0.0)
    top = float(np.max(sigma ** 2 + 2 * sigma))
    assert abs(bc_symbol_pinv(g)[1] - top) < 1e-12 * top
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


def _decompose_tilde(g, a):
    """Orthogonal splitting (harmonic, middle, co-part) of a by the tilde
    Laplacian, from one tilde Green solve x: harmonic + (image of dbar +
    del(ker dbar)) + (image of del*-after-projection + dbar*)."""
    h = harmonic_project(g, "tilde", a)
    x = reference_green(g, "tilde", a)[0]
    mid = differential("del", harmonic_project(g, "dbar", adjoint_diff(
        g, "del", x))) + differential("dbar", adjoint_diff(g, "dbar", x))
    return h, mid, a - h - mid


@pytest.mark.parametrize("flavor", ["tilde"])
def test_decompose_3space_torus(two_coord8, flavor):
    g = two_coord8
    a = random_band_form(g.model, 1, 1, np.random.default_rng(5))
    h, mid, co = _decompose_tilde(g, a)
    na = norm(g, a)
    assert coeff_norm(h + mid + co - a) < 1e-12 * coeff_norm(a)
    assert abs(inner(g, h, mid)) < 1e-9 * na ** 2
    assert abs(inner(g, h, co)) < 1e-9 * na ** 2
    assert abs(inner(g, mid, co)) < 1e-9 * na ** 2
    assert norm(g, laplacian(g, flavor, h)) < 1e-9 * na


def test_grid_kernels_are_the_constants():
    # the torus has E_2 = E_1 and constant harmonic forms, so the dbar and
    # tilde kernels each have one vector per channel
    for name in ("two_coord", "three_coord"):
        g = Metric(standard_fixture(name, resolution=8, eps=0.05)[3])
        scale = hodge._scale(g)
        for p in range(4):
            for q in range(4):
                d = _basis.degree_dims(3, p, q)
                for kind in LAPLACIAN_KINDS:
                    assert len(harmonic_basis(g, kind, p, q)) == d
                for h in harmonic_basis(g, "tilde", p, q):
                    assert norm(g, laplacian(g, "tilde", h)) \
                        <= hodge._KERNEL_RESIDUAL * scale


def test_deflated_kernel_applies_laplacian_once_per_vector(monkeypatch):
    g = Metric(standard_fixture("two_coord", resolution=8, eps=0.05)[3])
    applied = collections.Counter()
    real = hodge.laplacian

    def counting(metric, kind, a):
        applied[(kind, a.p, a.q, a.coeffs.tobytes())] += 1
        return real(metric, kind, a)

    monkeypatch.setattr(hodge, "laplacian", counting)
    bidegrees = ((1, 0), (1, 1), (0, 2), (1, 2))
    for p, q in bidegrees:
        harmonic_basis(g, "dbar", p, q)
    assert applied and max(applied.values()) == 1
    # with the dbar kernels cached, a grid tilde kernel applies none
    applied.clear()
    for p, q in bidegrees:
        harmonic_basis(g, "tilde", p, q)
    assert not applied


def test_constant_holomorphic_forms_are_exactly_harmonic():
    # stands in for the check sweep that a (p,0) dbar kernel no longer runs:
    # its basis is the orthonormalised constants as they are
    for name in ("two_coord", "three_coord"):
        for resolution in (8, 16):
            g = Metric(standard_fixture(name, resolution=resolution,
                                        eps=0.05)[3])
            for p in range(4):
                K = harmonic_basis(g, "dbar", p, 0)
                assert np.array_equal(K.block, hodge._channels(g, p, 0))
                for h in K:
                    assert not np.any(laplacian(g, "dbar", h).coeffs)


@pytest.mark.parametrize("resolution", [8, 16])
def test_built_kernels_span_the_searched_ones(resolution, monkeypatch):
    # the dbar kernels built from the constants against the Richardson
    # search started from the constants, on a fresh metric: all singular
    # values of the cross Gram matrix are 1
    search = lambda metric, p, q: hodge._channels(metric, p, q)
    for name in ("two_coord", "three_coord"):
        omega = standard_fixture(name, resolution=resolution, eps=0.05)[3]
        g, ref = Metric(omega), Metric(omega)
        built = {(p, q): harmonic_basis(g, "dbar", p, q).block
                 for p in range(4) for q in range(4)}
        with monkeypatch.context() as m:
            m.setattr(hodge, "_start_block", search)
            for (p, q), K in built.items():
                R = hodge._deflated_kernel(ref, p, q)
                assert len(K) == len(R) == _basis.degree_dims(3, p, q)
                s = np.linalg.svd(hodge._gram(g, p, q, K, R), compute_uv=False)
                assert np.abs(s - 1).max(initial=0.0) <= 1e-10, (name, p, q)


def test_out_of_range_kernels_are_empty(two_coord8):
    for kind in LAPLACIAN_KINDS:
        for p, q in ((-1, 1), (1, -1), (4, 2), (2, 4)):
            assert harmonic_basis(two_coord8, kind, p, q).block.shape[:2] \
                == (0, 0)


@pytest.fixture(scope="module")
def three_coord8():
    return Metric(standard_fixture("three_coord", resolution=8, eps=0.05)[3])


# the ids number the bidegrees as they were with the (3,2) and (1,1) cases
# of the whitened physical route, which the grid solves no more
@pytest.mark.parametrize("p", [2, 3, 0, 1],
                         ids=[f"bidegree{i}-dbar" for i in (0, 3, 4, 5)])
def test_whitened_laplacian_is_hermitian(three_coord8, p):
    # <A x, y> = <x, A y> in the flat inner product, A the weak form
    # Q Delta'' of dbar on (p,0) on spectra, as conjugate gradients needs
    g, q = three_coord8, 0
    rhs, _, image, *_ = hodge._weak_form(g, p)
    rng = np.random.default_rng(7)
    x, y = (rhs(random_band_form(g.model, p, q, rng, terms=12).coeffs)[0]
            for _ in range(2))
    Ax, Ay = image(x), image(y)
    assert abs(np.vdot(y, Ax) - np.vdot(Ay, x)) \
        <= 1e-12 * np.linalg.norm(Ax) * np.linalg.norm(y)


# the ids number the bidegrees as they were with the Bott-Chern (1,1) case
# and the (3,2), (0,2) and (1,1) cases of the whitened physical route, whose
# solves are test references now (reference_pcg, reference_green)
@pytest.mark.parametrize("kind, bidegree", [
    ("dbar", (2, 0)), ("dbar", (3, 0)), ("dbar", (0, 0))],
    ids=[f"dbar-bidegree{i}" for i in (0, 5, 6)])
def test_whitened_pcg_matches_the_metric_route(three_coord8, kind, bidegree):
    # against the exact-arithmetic twin of the weak form: the same
    # iterations and the same residuals ||Q r||
    g, (p, q) = three_coord8, bidegree
    b = random_band_form(g.model, p, q, np.random.default_rng(5), terms=12)
    x, info = green_solve(g, kind, b, with_info=True)
    ref, history = reference_pcg(
        g, b, lambda f: laplacian(g, kind, f),
        lambda f: f - harmonic_project(g, kind, f), hodge._symbol_pinv(g)[0],
        hodge._CG_TOL, 100, weak=q == 0)
    assert info.iterations == len(history) - 1
    np.testing.assert_allclose(info.residual_history, history, rtol=1e-8)
    assert norm(g, x - ref) <= 1e-10 * norm(g, ref)


def _physical_whitened(g, p):
    """The maps of hodge._weak_form for dbar on (p,0) on whitened physical
    coefficients, with the root of reference_root: the reference of the
    weak form on spectra."""
    pts, kind, q = math.prod(g.model.grid_shape), "dbar", 0
    F, F_inv = (reference_root(g, p, q, inverse) for inverse in (False, True))
    white = lambda X: root_apply(F, X)
    unwhite = lambda Y: root_apply(F_inv, Y)
    flat_norm = lambda u: math.sqrt(np.vdot(u, u).real / pts)
    K = white(harmonic_basis(g, kind, p, q).block)
    K = K.reshape(len(K), -1)
    proj = lambda y: y - (np.conj(K @ np.conj(y.ravel())) / pts @ K
                          ).reshape(y.shape)

    def rhs(b):
        bw = white(b[None])[0]
        return proj(bw), flat_norm(bw), flat_norm(bw - proj(bw)) / flat_norm(bw)
    image = lambda y: proj(white(laplacian(g, kind, Form(
        g.model, p, q, unwhite(y[None])[0])).coeffs[None])[0])
    return (rhs, lambda y: unwhite(proj(y)[None])[0], image,
            lambda r: proj(hodge._symbol_apply(g, r)), pts)


def _offdiagonal_metric():
    """A constant non-diagonal H_0 plus the band-limited three_coord
    potential, at N = 8."""
    model, u = standard_fixture("three_coord", resolution=8, eps=0.1)[:2]
    H0 = np.array([[0.6, 0.1 + 0.05j, 0.05],
                   [0.1 - 0.05j, 0.5, -0.08j],
                   [0.05, 0.08j, 0.7]])
    return Metric(form_of_11(model, H0) + differential("del", conjugate(u))
                  + differential("dbar", u))


@pytest.fixture(scope="module",
                params=["8-0.05", "8-0.2", "16-0.05", "16-0.2", "offdiag"])
def spectral_case(request):
    """three_coord metrics at N = 8, 16 and eps = 0.05, 0.2, and
    _offdiagonal_metric."""
    if request.param == "offdiag":
        return _offdiagonal_metric()
    N, eps = request.param.split("-")
    return Metric(standard_fixture("three_coord", resolution=int(N),
                                   eps=float(eps))[3])


def test_30_whitening_and_star_are_grid_constants(spectral_case):
    # the premise of the (3,0) twins of hodge._weak_form: the
    # whitening F, the root of the volume-weighted Gram, is 2 sqrt 2 and the
    # star is -i at every point, while H itself varies
    g = spectral_case
    one = np.ones((1, 1) + g.model.grid_shape)
    F = root_apply(reference_root(g, 3, 0), one)[0, 0]
    S = hodge._apply(g, "star", 3, 0, one)[0, 0]
    assert np.abs(F - math.sqrt(8.0)).max() <= 1e-14 * math.sqrt(8.0)
    assert np.abs(S + 1j).max() <= 1e-14
    assert np.ptp(g.H.real, axis=tuple(range(6))).max() > 1e-2


@pytest.mark.parametrize("p", [0, 3, 1, 2])
def test_weak_form_is_the_weighted_laplacian(spectral_case, p):
    # the premise of hodge._weak_form: on (p,0) Delta'' =
    # dbar* dbar, so dbar^H Q_(p,1) dbar x = Q Delta'' x, dbar^H the flat
    # adjoint, whether or not Q is a grid constant
    g, model = spectral_case, spectral_case.model
    x = random_band_form(model, p, 0, np.random.default_rng(3), terms=12)
    axes = model.spectral_axes
    weak = np.fft.ifftn(model.spectral_adjoint("dbar", p, 0, np.fft.fftn(
        weigh(g, differential("dbar", x)), axes=axes)), axes=axes)
    want = weigh(g, laplacian(g, "dbar", x))
    assert np.abs(weak - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("p", [0, 3, 1, 2])
def test_weak_form_solves_remove_the_metric_harmonic_part(spectral_case, p,
                                                          monkeypatch):
    # a right-hand side with a harmonic part: the weak form solves
    # Delta'' x = b - H''b, H'' the metric harmonic projection, not the
    # flat mean of Q b; x is metric-orthogonal to the constants, and the
    # discarded mass is the metric fraction of the physical route
    g, model = spectral_case, spectral_case.model
    d = _basis.degree_dims(3, p, 0)
    b = random_band_form(model, p, 0, np.random.default_rng(9), terms=12) \
        + Form(model, p, 0, np.full((d,) + model.grid_shape, 0.7 - 0.2j))
    x, info = green_solve(g, "dbar", b, tol=1e-13, with_info=True)
    target = b - harmonic_project(g, "dbar", b)
    assert norm(g, laplacian(g, "dbar", x) - target) <= 1e-10 * norm(g, target)
    for h in harmonic_basis(g, "dbar", p, 0):
        assert abs(inner(g, x, h)) <= 1e-12 * norm(g, x)
    monkeypatch.setattr(hodge, "_weak_form", _physical_whitened)
    _, ref_info = green_solve(g, "dbar", b, tol=1e-13, with_info=True)
    assert 0.1 < info.discarded_mass < 0.9
    assert abs(info.discarded_mass - ref_info.discarded_mass) <= 1e-12


def test_spectral_30_solves_match_the_physical_route(spectral_case,
                                                      monkeypatch):
    # the start-block solves of dbar* c for the constant (p,1) channels c:
    # in the weak form on spectra, and on the whitened physical
    # coefficients.  On (3,0), those of the (0,2) block, Q = 8, so the
    # iterations agree and the weak residual is 2 sqrt 2 times the metric
    # one; on (1,0) and (2,0), of the test-only (1,1) and (2,1) blocks, Q
    # varies over the grid, so only the solutions are compared
    g = spectral_case
    rhs = {p: [adjoint_diff(g, "dbar", Form(g.model, p, 1, c))
               for c in hodge._channels(g, p, 1)] for p in (3, 1, 2)}
    solve = lambda b: green_solve(g, "dbar", b, tol=hodge._START_TOL,
                                  with_info=True)
    spectral = {p: [solve(b) for b in bs] for p, bs in rhs.items()}
    monkeypatch.setattr(hodge, "_weak_form", _physical_whitened)
    assert [len(rhs[p]) for p in (3, 1, 2)] == [3, 9, 9]
    for b, (x, info) in zip(rhs[3], spectral[3]):
        ref, ref_info = solve(b)
        assert info.iterations == ref_info.iterations > 0
        h, h_ref = (np.array(i.residual_history) for i in (info, ref_info))
        h_ref = math.sqrt(8.0) * h_ref
        assert np.abs(h - h_ref).max() <= 1e-12 * h_ref[0]
        assert norm(g, x - ref) <= 1e-12 * norm(g, ref)
    for p in (1, 2):
        for b, (x, info) in zip(rhs[p], spectral[p]):
            ref = solve(b)[0]
            assert info.iterations > 0
            assert norm(g, x - ref) <= 1e-10 * norm(g, ref)


def test_spectral_30_solves_take_two_transforms_per_iteration(monkeypatch):
    # one ifftn and one fftn per weak-form iteration, one of each around
    # the loop: the three (3,0) solves, which dominate the transforms of the
    # (0,2) basis, and a (0,0) solve like that of the E_2 potential
    g = Metric(standard_fixture("three_coord", resolution=16, eps=0.05)[3])
    count, solves, pcg = collections.Counter(), [], hodge._pcg
    for name in ("fftn", "ifftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _t=transform, **k: (
            count.update(["all"]), _t(*a, **k))[1])

    def spy(metric, b, *rest):
        before = count["all"]
        x, info = pcg(metric, b, *rest)
        solves.append(((b.p, b.q), info.iterations, count["all"] - before))
        return x, info

    monkeypatch.setattr(hodge, "_pcg", spy)
    harmonic_basis(g, "dbar", 0, 2)
    assert [s[0] for s in solves] == [(3, 0)] * 3
    # besides: 2 per right-hand side dbar* c and per h_c = c + dbar beta_c,
    # and 8 per Laplacian of the (0,2) block, checked once
    its = sum(s[1] for s in solves)
    assert count["all"] <= 2 * (its + 3) + 36, (count, solves)
    b = random_band_form(g.model, 0, 0, np.random.default_rng(4), terms=12)
    green_solve(g, "dbar", b)
    assert solves[-1][0] == (0, 0)
    assert all(its > 0 and n <= 2 * its + 2 for _, its, n in solves), solves


def test_preconditioner_root_factors_the_gram(three_coord8):
    # F^H F = Q pointwise, Q the volume-weighted Gram, for the reference
    # root F of reference_root in column form and F^{-1} its inverse; and
    # for the weights of hodge.min_norm_lstsq, F = L^H with (L, L^{-H}) the
    # pair of Metric.gram_cholesky
    g, grid = three_coord8, three_coord8.model.grid_shape
    for p in range(4):
        for q in range(4):
            if not _basis.degree_dims(3, p, q):
                continue
            Q = hodge._trailing(g.gram(p, q)) * g.density[..., None, None]
            eye = np.eye(len(Q[(0,) * len(grid)]))
            L, L_inv = (hodge._trailing(M) for M in g.gram_cholesky(p, q))
            F, Finv = (np.swapaxes(hodge._trailing(reference_root(
                g, p, q, inverse)), -1, -2) for inverse in (False, True))
            for F, Finv in ((F, Finv), (np.conj(np.swapaxes(L, -1, -2)),
                                        L_inv)):
                FhF = np.conj(np.swapaxes(F, -1, -2)) @ F
                assert np.abs(FhF - Q).max() <= 1e-13 * np.abs(Q).max()
                assert np.abs(Finv @ F - eye).max() <= 1e-13


def test_report_green_solves_converge_fast(monkeypatch, three_coord):
    # the Green solves a grid report runs, wherever they are called from:
    # the (0,0) one of the E_2 potential and the three (3,0) ones of the
    # (0,2) start block; measured at 7, 9, 10 and 10 PCG iterations
    solves, solve = [], green_solve

    def spy(metric, kind, b, *, with_info=False, **kw):
        x, info = solve(metric, kind, b, with_info=True, **kw)
        solves.append((kind, b.p, b.q, info.iterations))
        return (x, info) if with_info else x

    monkeypatch.setattr(hodge, "green_solve", spy)
    monkeypatch.setattr(analysis, "green_solve", spy)
    analysis.energy_and_volume(Metric(three_coord[3]))
    assert sorted(s[:3] for s in solves) == (
        [("dbar", 0, 0)] + [("dbar", 3, 0)] * 3), solves
    assert all(its <= 12 for *_, its in solves), solves


def test_strongly_gauduchon_solve_converges_fast():
    # a gate on the reference Green route, on solves no report runs: the
    # (3,2) solve of del omega^2 took 26 iterations with the symbol alone
    # as preconditioner; the (0,2) solve of dbar(conj star del omega^2),
    # its Serre dual, is as fast.  The tests keep the (3,2) one as the sG
    # reference.
    g = Metric(standard_fixture("three_coord", resolution=16, eps=0.05)[3])
    d_pow = differential("del", wedge(g.omega, g.omega))
    _, history = reference_green(g, "dbar", d_pow)
    assert len(history) - 1 <= 12
    w = conjugate(star(g, d_pow))
    _, history = reference_green(g, "dbar", differential("dbar", w))
    assert len(history) - 1 <= 12


# -- three-space decomposition -----------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_decompose_3space(lie_models, seed):
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    g = random_metric(model, rng)
    a = random_form(model, 1, 1, rng)
    h, mid, co = _decompose_tilde(g, a)
    total = h + mid + co
    assert coeff_norm(total - a) < 1e-8 * max(1.0, coeff_norm(a))
    assert abs(inner(g, h, mid)) < 1e-8
    assert abs(inner(g, h, co)) < 1e-8
    assert abs(inner(g, mid, co)) < 1e-8


# -- minimal-norm least squares ---------------------------------------------------------


@pytest.mark.parametrize("backend", ["lie", "grid"])
def test_min_norm_lstsq(backend, lie_models, two_coord8):
    rng = np.random.default_rng(31)
    g = (random_metric(lie_models["iwasawa"], rng) if backend == "lie"
         else two_coord8)
    pts = int(np.prod(g.model.grid_shape))
    src = (1, 0)
    m = _basis.degree_dims(3, *src) * pts
    rank = m // 2                  # a rank-deficient, inconsistent system

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    C = cplx(rank, m)
    rows = [(t, cplx(_basis.degree_dims(3, *t) * pts, rank) @ C,
             random_form(g.model, *t, rng).coeffs) for t in ((1, 1), (2, 0))]
    x, resid, nb, _ = hodge.min_norm_lstsq(g, src, rows)

    # the residual and the right-hand side norms are metric norms
    r = [norm(g, Form(g.model, *t, (A @ x.coeffs.ravel()).reshape(b.shape)
                      - b)) for t, A, b in rows]
    assert resid > 0.1 * nb
    assert abs(resid - np.hypot(*r)) < 1e-12 * nb
    assert abs(nb - np.hypot(*(norm(g, Form(g.model, *t, b))
                               for t, _, b in rows))) < 1e-12 * nb

    # x is metric-orthogonal to the null space of the stacked matrix
    _, s, vh = np.linalg.svd(np.vstack([A for _, A, _ in rows]))
    assert s[rank - 1] > 1e6 * s[rank]
    for v in vh[rank:].conj():
        n = Form(g.model, *src, v.reshape(x.coeffs.shape))
        assert abs(inner(g, x, n)) < 1e-10 * norm(g, x) * norm(g, n)

    # a zero right-hand side gives x = 0
    x0, r0, nb0, _ = hodge.min_norm_lstsq(
        g, src, [(t, A, None) for t, A, _ in rows])
    assert not np.any(x0.coeffs) and r0 == nb0 == 0.0


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


# -- factored channel maps against the dense matrices ---------------------------


def _dense_star_matrix(g, p, q):
    """Star matrix by its defining formula: the (q,p) pairing, permuted by
    conjugation, each (q,p) channel wedged with the complementary channels
    against the top one, times i det H."""
    d = _basis.degree_dims(3, p, q)
    W = np.zeros((d, d))
    for c1, c2, _, sign in _basis.wedge_table(3, q, p, 3 - q, 3 - p):
        W[c1, c2] = sign
    perm, csign = _basis.conjugation(3, q, p)
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(d)
    P = g.pairing(q, p)[:, inv_perm]
    return np.einsum("vw,vu...->wu...", W, P) * (1j * csign) * g.detH


def _dense_contract(g, a):
    p, q = a.p - 1, a.q - 1
    if not _basis.degree_dims(3, p, q):
        return zero_form(g.model, p, q).coeffs
    t = np.einsum("uv...,v...->u...", g.gram(a.p, a.q), a.coeffs)
    s = np.einsum("uw...,u...->w...", np.conj(g.wedge_omega_matrix(p, q)), t)
    Ginv = np.linalg.inv(np.moveaxis(g.gram(p, q), (0, 1), (-2, -1)))
    return np.einsum("uv...,v...->u...", np.moveaxis(Ginv, (-2, -1), (0, 1)), s)


def _assert_close(x, want):
    assert x.shape == want.shape
    err = np.abs(x - want).max(initial=0.0)
    assert err <= 1e-13 * np.abs(want).max(initial=0.0), err


@pytest.mark.parametrize("name", ["two_coord", "three_coord", "heis3"])
def test_factored_routes_match_dense(heis3, name):
    """star, _gram, pointwise_inner and contract against the dense pairing
    and star matrices, in all 16 bidegrees; the factored block maps
    (_apply) on the invariant backend too, which itself uses the dense
    matrices.  The LAPACK pair (L, L^{-H}) of gram_cholesky against the
    per-side compound root of reference_root: L its conjugate, L^{-H} the
    transpose of its inverse."""
    rng = np.random.default_rng(31)
    if name == "heis3":
        g = random_metric(heis3, rng)
    else:       # a fresh metric: the references fill its dense caches
        g = Metric(standard_fixture(name, resolution=8, eps=0.05)[3])
    grid = g.model.grid_shape
    axes = tuple(range(1, 1 + 1 + len(grid)))
    for p in range(4):
        for q in range(4):
            a, b, *X = (random_form(g.model, p, q, rng) for _ in range(5))
            X = _stack(X)
            P = g.pairing(p, q)
            S = _dense_star_matrix(g, p, q)
            Pinv = np.moveaxis(np.linalg.inv(np.moveaxis(P, (0, 1), (-2, -1))),
                               (-2, -1), (0, 1))
            for kind, M in (("pairing", P), ("inverse", Pinv),
                            ("star", S.swapaxes(0, 1))):
                _assert_close(hodge._apply(g, kind, p, q, X),
                              np.einsum("ju...,uw...->jw...", X, M))
            _assert_close(g.star_matrix(p, q), S)
            _assert_close(star(g, a).coeffs,
                          np.einsum("wu...,u...->w...", S, a.coeffs))
            _assert_close(np.asarray(pointwise_inner(g, a, b)), np.einsum(
                "u...,uw...,w...->...", a.coeffs, P, np.conj(b.coeffs)))
            T = np.einsum("ju...,uw...->jw...", X, P) * g.density
            _assert_close(hodge._gram(g, p, q, X, X[:2]), np.tensordot(
                T, np.conj(X[:2]), axes=(axes, axes)) / max(1, T[0, 0].size))
            _assert_close(contract(g, a).coeffs, _dense_contract(g, a))
            L, L_inv = g.gram_cholesky(p, q)
            _assert_close(L, np.conj(reference_root(g, p, q)))
            _assert_close(L_inv, np.swapaxes(
                reference_root(g, p, q, inverse=True), 0, 1))
            _assert_close(np.einsum("ju...,wu...->jw...", root_apply(
                np.conj(L), X), L_inv), X)
