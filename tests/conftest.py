"""Shared fixtures: catalogue models, perturbed-torus fixtures, random forms."""

import math

import numpy as np
import pytest

from hsgeom import catalogue_model, make_torus_model, standard_fixture, synthesize_form
from hsgeom import _basis, hodge
from hsgeom.forms import Form, differential, flat_metric_form, wedge, zero_form
from hsgeom.hodge import Metric, adjoint_diff, inner, norm

RESOLUTION = 16
EPS = 0.05


@pytest.fixture(scope="session")
def torus3():
    return catalogue_model("torus3")


@pytest.fixture(scope="session")
def iwasawa():
    return catalogue_model("iwasawa")


@pytest.fixture(scope="session")
def heis3():
    return catalogue_model("heis3")


@pytest.fixture(scope="session")
def lie_models(torus3, iwasawa, heis3):
    return {"torus3": torus3, "iwasawa": iwasawa, "heis3": heis3}


@pytest.fixture(scope="session")
def two_coord():
    """(model, u, omega0, omega): the eps e^{i x1} dz^2 perturbed torus."""
    return standard_fixture("two_coord", resolution=RESOLUTION, eps=EPS)


@pytest.fixture(scope="session")
def three_coord():
    """Same with an extra eps e^{i(x3+x5)} dz^3 term (mask x1, x3, x5)."""
    return standard_fixture("three_coord", resolution=RESOLUTION, eps=EPS)


@pytest.fixture(scope="session")
def eps_metric(two_coord):
    return Metric(two_coord[3])


@pytest.fixture(scope="session")
def flat16(two_coord):
    return Metric(flat_metric_form(two_coord[0]))


@pytest.fixture(scope="session")
def torus3_metric(torus3):
    return Metric(flat_metric_form(torus3))


def random_band_form(model, p, q, rng, terms=4, scale=1.0):
    """Random torus form with frequencies inside the aliasing headroom."""
    d = _basis.degree_dims(model.n, p, q)
    if d == 0:
        return zero_form(model, p, q)
    rows = []
    for _ in range(terms):
        ch = int(rng.integers(d))
        freqs = []
        for ax in range(2 * model.n):
            h = model.headroom(ax)
            freqs.append(int(rng.integers(-h, h + 1)) if h else 0)
        c = scale * complex(rng.standard_normal(), rng.standard_normal())
        rows.append((ch, tuple(freqs), c))
    return synthesize_form(model, p, q, rows)


def random_lie_form(model, p, q, rng, scale=1.0):
    """Random invariant form on a Lie model (constant channels)."""
    out = zero_form(model, p, q)
    d = out.coeffs.shape[0]
    if d:
        vals = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        out.coeffs[...] = vals.reshape((d,) + (1,) * (out.coeffs.ndim - 1))
    return out


def random_form(model, p, q, rng, scale=1.0):
    if model.kind == "lie":
        return random_lie_form(model, p, q, rng, scale=scale)
    return random_band_form(model, p, q, rng, scale=scale)


def random_metric(model, rng, wobble=0.1):
    """A positive metric form: flat + a small random real (1,1) perturbation.

    The perturbation is rescaled so its largest coefficient stays at
    `wobble`, keeping the matrix safely inside the positivity cone
    (flat eigenvalues sit at 1/2).
    """
    from hsgeom.forms import conjugate

    omega = flat_metric_form(model)
    pert = random_form(model, 1, 1, rng)
    pert = 0.5 * (pert + conjugate(pert))
    peak = float(np.abs(pert.coeffs).max())
    if peak > 0:
        pert = (wobble / peak) * pert
    return Metric(omega + pert)


def primitive_star_reference(metric, v):
    """Closed-form star of a primitive k-form v: the sign and phase
    (-1)^(k(k+1)/2) i^(p-q) / (3-k)! times omega^(3-k) ^ v; the test oracle
    for hodge.star."""
    k = v.p + v.q
    sign = (-1) ** ((k * (k + 1)) // 2)
    phase = 1j ** (v.p - v.q)
    out = v
    for _ in range(metric.n - k):
        out = wedge(metric.omega, out)
    return (sign * phase / math.factorial(metric.n - k)) * out


# -- references for the Laplacians that src does not carry --------------------


def laplacian_reference(metric, kind, a):
    """The del (kind "del") and fourth-order Bott-Chern (kind "bc")
    Laplacians, composed of the public differential and adjoint_diff; any
    other kind is hodge.laplacian's."""
    d = lambda f: differential("del", f)
    dbar = lambda f: differential("dbar", f)
    ds = lambda f: adjoint_diff(metric, "del", f)
    dbs = lambda f: adjoint_diff(metric, "dbar", f)
    if kind == "del":
        return d(ds(a)) + ds(d(a))
    if kind == "bc":
        return (ds(d(a)) + dbs(dbar(a)) + dbs(ds(d(dbar(a))))
                + d(dbar(dbs(ds(a)))) + dbs(d(ds(dbar(a))))
                + ds(dbar(dbs(d(a)))))
    return hodge.laplacian(metric, kind, a)


def bc_symbol_pinv(metric):
    """(inv, opnorm) of the Bott-Chern symbol at the grid-mean metric: it
    lies between sigma^2 and sigma^2 + 2 sigma, sigma the Delta'' symbol of
    hodge._symbol_pinv, so inv = 1 / (sigma^2 + sigma), zero where sigma's
    inverse is, and opnorm = max sigma^2 + 2 sigma.  The preconditioned
    spectrum is inside [sigma/(sigma+1), (sigma+2)/(sigma+1)]."""
    inv = hodge._symbol_pinv(metric)[0]
    kept = inv > 0
    sigma = np.where(kept, 1.0 / np.where(kept, inv, 1.0), 0.0)
    bc = np.where(kept, 1.0 / np.where(kept, sigma ** 2 + sigma, 1.0), 0.0)
    return bc, float(np.max(sigma ** 2 + 2 * sigma))


def bott_chern_20(metric):
    """ker del ^ ker dbar on (2,0), found without the metric and
    orthonormalised in it, as harmonic_basis returns a kernel: on an
    invariant model the SVD null space of the stacked del and dbar matrices;
    on the torus, whose holomorphic (2,0)-forms are the constants, the
    constant channels."""
    model = metric.model
    if model.kind == "lie":
        A = np.vstack([model.operator_matrix(part, 2, 0)
                       for part in ("del", "dbar")])
        _, s, Vh = np.linalg.svd(A)
        rank = int(np.sum(s > 1e-10 * max(1.0, s.max(initial=0.0))))
        block = hodge._orth(metric, 2, 0, np.conj(Vh[rank:]))
    else:
        block = hodge._channels(metric, 2, 0)
    return hodge._Kernel(model, 2, 0, block)


def lapack_compound(M, k):
    """k-th compound of the (*grid, 3, 3) stack M, one batched det per
    minor, channel-first."""
    S = _basis.subsets(3, k)
    return np.moveaxis(np.linalg.det(M[..., S[:, None, :, None],
                                       S[None, :, None, :]]), (-2, -1), (0, 1))


def weigh(g, a):
    """Q a for a (p,q)-form a, Q the volume-weighted pointwise Gram."""
    return hodge._apply(g, "pairing", a.p, a.q, a.coeffs[None])[0] * g.density


def reference_root(g, p, q, inverse=False):
    """The pointwise root F of the volume-weighted Gram Q on (p,q)-forms,
    built apart from hodge, as a dense (d, d, *grid) matrix
    acting on rows of channels: (a F) . conj(b F) = <a, b>_pt density.  With
    H = U U^H, U upper triangular (LAPACK's Cholesky factor of H with rows
    and columns reversed, reversed back), H^{-1} = U^{-H} U^{-1} and
    compounds are multiplicative, so F = (C_p(U^{-1})^T (x) C_q(U^{-1})^H)
    sqrt(density), one compound per side, by LAPACK determinants, and their
    Kronecker product by one einsum; its conjugate is lower triangular, the
    Cholesky factor of Q.  inverse: F^{-1}, the same from U over
    sqrt(density)."""
    U = np.linalg.cholesky(g.H[..., ::-1, ::-1])[..., ::-1, ::-1]
    M = U if inverse else np.linalg.inv(U)
    A, B = (lapack_compound(M, k).swapaxes(0, 1) for k in (p, q))
    d = len(A) * len(B)
    F = np.einsum("IK...,JL...->IJKL...", A, np.conj(B)).reshape(
        (d, d) + g.model.grid_shape)
    root = np.sqrt(g.density)
    return F / root if inverse else F * root


def root_apply(F, X):
    """The rows of the block X of (p,q)-forms times the dense root F."""
    return np.einsum("ju...,uw...->jw...", X, F)


def reference_pcg(g, b, operator, project, inv, rtol, cap, weak=False):
    """Kernel-deflated PCG in the metric inner product for a Laplacian:
    `operator` applies it to a Form, `project` takes a Form's kernel part
    off, and `inv` is its symbol inverse on the model's spectral axes.  The
    preconditioner is F^{-1} S F, S the multiplier inv and F the pointwise
    root of the volume-weighted Gram Q (reference_root): the route that
    hodge._pcg runs on whitened coefficients, as Q F^{-1} S F = F^H S F is
    Hermitian.  weak: S Q, the exact-arithmetic twin of its weak form on
    spectra (Q S Q is Hermitian).  Returns the solution and the residual
    history: metric norms, or (weak) the flat norms of Q r."""
    axes = g.model.spectral_axes
    symbol = lambda X: np.fft.ifftn(np.fft.fftn(X, axes=axes) * inv, axes=axes)
    if weak:
        apply = lambda r: symbol(weigh(g, r)[None])[0]
        measure = lambda r: math.sqrt(np.vdot(*(weigh(g, r),) * 2).real
                                      / math.prod(g.model.grid_shape))
    else:
        F, F_inv = (reference_root(g, b.p, b.q, inverse)
                    for inverse in (False, True))
        apply = lambda r: root_apply(F_inv, symbol(root_apply(
            F, r.coeffs[None])))[0]
        measure = lambda r: norm(g, r)
    precondition = lambda r: project(Form(g.model, r.p, r.q, apply(r)))
    r = project(b)
    nb, x = measure(r), zero_form(g.model, b.p, b.q)
    z = pdir = precondition(r)
    rz = inner(g, r, z).real
    history = [nb]
    while history[-1] > rtol * nb and len(history) <= cap:
        Ap = project(operator(pdir))
        alpha = rz / inner(g, Ap, pdir).real
        x, r = x + alpha * pdir, r - alpha * Ap
        z = precondition(r)
        rz, rz_old = inner(g, r, z).real, rz
        pdir = z + (rz / rz_old) * pdir
        history.append(measure(r))
    return project(x), history


def reference_green(g, kind, b):
    """(x, residual history) of the Green solve of a hodge.laplacian kind
    on b, for the solves that the grid's green_solve, dbar on (p,0) only,
    does not run: hodge.green_solve on an invariant model (no history), and
    on the grid the metric route of reference_pcg, off the kernel of
    harmonic_project and preconditioned by the symbol of _symbol_pinv."""
    if g.model.kind == "lie":
        return hodge.green_solve(g, kind, b), []
    return reference_pcg(g, b, lambda f: hodge.laplacian(g, kind, f),
                         lambda f: f - hodge.harmonic_project(g, kind, f),
                         hodge._symbol_pinv(g)[0], hodge._CG_TOL, 500)
