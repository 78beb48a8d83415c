"""Metric-dependent operators on the bicomplex.

Inner products, the complex-linear Hodge star, adjoint differentials, the
four Laplacians (holomorphic, antiholomorphic, the six-term fourth-order
one, and the projector-twisted second-order one), harmonic projection,
Green operators, orthogonal three-space splittings, and the Lefschetz
contraction.

Conventions, locked by the test suite:

* omega = i * sum_{j,k} H_{jk} phi^j ^ phibar^k with H Hermitian positive
  definite; the flat reference omega0 = (i/2) sum phi^k ^ phibar^k has
  H = I/2, so |phi^k|^2 = 2.
* <phi^j, phi^k> = (H^{-1})_{kj}; dV_omega = 2^n det(H) dV_0 where dV_0 is
  the unit-mass reference volume form.
* star is complex-linear, (p,q) -> (n-q,n-p), characterized by
  a ^ star(conj b) = <a,b>_pt dV_omega pointwise; hence star(star a) =
  (-1)^{p+q} a and the adjoints are del* = -star dbar star,
  dbar* = -star del star.
* <phi^I ^ phibar^J, phi^K ^ phibar^L> = det(H^{-T}[I,K]) det(H^{-1}[J,L]),
  an entry of the Kronecker product of the p-th and q-th compound matrices
  (Metric.pairing).

Green operators: the finite invariant backend uses an eigendecomposition in
metric-orthonormal coordinates with a relative singular-value cutoff; the
grid backend runs kernel-deflated conjugate gradients preconditioned by
1/sigma(k), sigma the closed-form scalar symbol of the Laplacians at the
grid-mean metric (bc: 1/(sigma^2 + sigma)); see _symbol_pinv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _basis
from .forms import (BidegreeError, Form, differential, is_real, wedge,
                    zero_form)

LAPLACIAN_KINDS = ("del", "dbar", "bc", "tilde")

_EIG_CUTOFF = 1e-10        # relative eigenvalue cutoff, finite backend
_SYMBOL_RCOND = 1e-8       # relative cutoff for symbol pseudoinverses
_CG_TOL = 1e-9             # default relative residual for iterative solves
_KERNEL_RESIDUAL = 1e-9    # relative residual demanded of deflated kernels
_KERNEL_SWEEPS = 400       # Richardson sweeps allowed to a deflated kernel


class NotPositiveError(ValueError):
    """The candidate metric form fails pointwise positive-definiteness."""

    def __init__(self, worst, location):
        super().__init__(
            f"(1,1)-form is not positive: min eigenvalue {worst:.6e} "
            f"at grid index {location}"
        )
        self.worst = worst
        self.location = location


class SolveDiverged(RuntimeError):
    """Iterative Green solve failed to reach its residual target."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


@dataclass
class GreenInfo:
    method: str
    iterations: int
    residual: float
    relative_residual: float
    discarded_mass: float
    residual_history: tuple = field(default_factory=tuple)


def _trailing(mat):
    """(d1, d2, *grid) -> (*grid, d1, d2) for batched linalg."""
    return np.moveaxis(mat, (0, 1), (-2, -1))


def _leading(mat):
    return np.moveaxis(mat, (-2, -1), (0, 1))


def _compound(M, p):
    """p-th compound of (*grid, n, n) M: C[..., a, b] = det M[..., S_a, S_b]
    over the p-subsets S of range(n), all minors in one batched det."""
    S = _basis.subsets(M.shape[-1], p)
    return np.linalg.det(M[..., S[:, None, :, None], S[None, :, None, :]])


class Metric:
    """A positive (1,1)-form with cached pointwise linear-algebra data."""

    def __init__(self, omega: Form, pos_tol: float = 1e-9):
        if (omega.p, omega.q) != (1, 1):
            raise BidegreeError("a metric form must have bidegree (1,1)")
        if not is_real(omega, 1e-8):
            raise ValueError("metric form must be real")
        self.model = omega.model
        self.omega = omega
        n = self.model.n
        self.n = n

        H = _matrix_of_11(omega)           # (*grid, n, n)
        herm_dev = np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2))))
        if herm_dev > 1e-8 * max(1.0, np.max(np.abs(H))):
            raise ValueError(f"coefficient matrix not Hermitian ({herm_dev:.2e})")
        H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
        eigs = np.linalg.eigvalsh(H)
        worst = float(eigs[..., 0].min())
        if worst <= pos_tol:
            loc = np.unravel_index(int(np.argmin(eigs[..., 0])),
                                   eigs[..., 0].shape)
            raise NotPositiveError(worst, loc)

        self.H = H
        self.Hinv = np.linalg.inv(H)
        det = np.linalg.det(H)
        self.detH = det.real
        self.density = (2.0 ** n) * self.detH    # dV_omega / dV_0, pointwise
        self.volume = float(np.real(self.model.mean(self.density)))
        self.min_eigenvalue = worst

        self._pairing_cache: dict = {}
        self._chol_cache: dict = {}
        self._star_cache: dict = {}
        self._lmat_cache: dict = {}
        self._gram_inv_cache: dict = {}
        self._eig_cache: dict = {}
        self._kernel_cache: dict = {}
        self._symbol_cache: dict = {}
        self._torsion_cache: dict = {}     # analysis.torsion_form reports

    # -- pointwise Gram data -------------------------------------------------

    def pairing(self, p, q):
        """Matrix P with P[u, w] = <e_u, e_w> pointwise, channel-first.

        For e_u = phi^I ^ phibar^J and e_w = phi^K ^ phibar^L the entry is
        C_p(M1)[I, K] * C_q(M2)[J, L], with M1 = H^{-T}, M2 = H^{-1} and
        C_p the p-th compound, built by one batched det.  Channels run
        I-major, so P is the Kronecker product of the two compounds.

        P is bitwise equal to one det(M1[I, K]) * det(M2[J, L]) per entry:
        a batched det gives the same bits as a det per minor, and the
        product is formed as numpy multiplies those factors, as complex
        arrays (with fused multiply-adds) on a grid and as complex scalars
        (rounded real products) on the invariant backend.  Out-of-range
        bidegrees give an empty (0, 0, *grid) matrix.
        """
        key = (p, q)
        if key not in self._pairing_cache:
            grid = self.model.grid_shape
            d = _basis.degree_dims(self.n, p, q)
            if d == 0:
                P = np.empty(grid + (0, 0), dtype=np.complex128)
            else:
                M1 = np.swapaxes(self.Hinv, -1, -2)   # <phi^j, phi^k>
                M2 = self.Hinv                        # <phibar^j, phibar^k>
                A = _compound(M1, p)[..., :, None, :, None]
                B = _compound(M2, q)[..., None, :, None, :]
                if grid:
                    P = (A * B).reshape(grid + (d, d))
                else:
                    P = np.empty((d, d), dtype=np.complex128)
                    P.real = (A.real * B.real - A.imag * B.imag).reshape(d, d)
                    P.imag = (A.real * B.imag + A.imag * B.real).reshape(d, d)
            self._pairing_cache[key] = _leading(P)
        return self._pairing_cache[key]

    def gram(self, p, q):
        """Numpy-convention Gram: pointwise <a,b> = b^H G a."""
        return np.conj(self.pairing(p, q))

    def gram_cholesky(self, p, q):
        """Pointwise Cholesky factor L of the volume-weighted Gram.

        ||a||^2_{L2} = mean over the grid of |L(x)^H a(x)|^2.
        """
        key = (p, q)
        if key not in self._chol_cache:
            G = _trailing(self.gram(p, q)) * self.density[..., None, None]
            self._chol_cache[key] = _leading(np.linalg.cholesky(G))
        return self._chol_cache[key]

    def _gram_inverse(self, p, q):
        key = (p, q)
        if key not in self._gram_inv_cache:
            self._gram_inv_cache[key] = _leading(
                np.linalg.inv(_trailing(self.gram(p, q)))
            )
        return self._gram_inv_cache[key]

    # -- star ----------------------------------------------------------------

    def star_matrix(self, p, q):
        """Channel matrix of star: (p,q) -> (n-q, n-p)."""
        key = (p, q)
        if key not in self._star_cache:
            n = self.n
            d = _basis.degree_dims(n, p, q)
            d_out = _basis.degree_dims(n, n - q, n - p)
            grid = self.model.grid_shape
            if d == 0 or d_out == 0:
                self._star_cache[key] = np.zeros(
                    (d_out, d) + grid, dtype=np.complex128
                )
                return self._star_cache[key]
            W = _basis.wedge_pairing(n, q, p)          # (d, d_out) signed perm
            perm, csign = _basis.conjugation(n, q, p)  # conj: (p,q) -> (q,p)
            inv_perm = np.empty_like(perm)
            inv_perm[perm] = np.arange(d)
            P = self.pairing(q, p)[:, inv_perm]        # (d, d, *grid)
            sigma = (-1) ** ((n * (n - 1)) // 2)
            factor = (1j ** n) * sigma * csign
            S = np.einsum("vw,vu...->wu...", W, P) * factor
            S = S * self.detH
            self._star_cache[key] = S
        return self._star_cache[key]

    # -- Lefschetz -----------------------------------------------------------

    def wedge_omega_matrix(self, p, q):
        """Channel matrix of a -> omega ^ a, (p,q) -> (p+1,q+1)."""
        key = (p, q)
        if key not in self._lmat_cache:
            n = self.n
            d_in = _basis.degree_dims(n, p, q)
            d_out = _basis.degree_dims(n, p + 1, q + 1)
            grid = self.model.grid_shape
            L = np.zeros((d_out, d_in) + grid, dtype=np.complex128)
            for c1, c2, c_out, sign in _basis.wedge_table(n, 1, 1, p, q):
                L[c_out, c2] += sign * self.omega.coeffs[c1]
            self._lmat_cache[key] = L
        return self._lmat_cache[key]

    # -- misc ----------------------------------------------------------------

    def volume_form(self) -> Form:
        n = self.n
        sigma = (-1) ** ((n * (n - 1)) // 2)
        coeffs = np.zeros((1,) + self.model.grid_shape, dtype=np.complex128)
        coeffs[0] = (1j ** n) * sigma * self.detH
        return Form(self.model, n, n, coeffs)


def _matrix_of_11(a: Form):
    """Coefficient matrix M with a = i * sum M_{jk} phi^j ^ phibar^k."""
    n = a.model.n
    if (a.p, a.q) != (1, 1):
        raise BidegreeError("expected a (1,1)-form")
    idx = _basis.channel_index(n, 1, 1)
    grid = a.model.grid_shape
    M = np.empty(grid + (n, n), dtype=np.complex128)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            M[..., j - 1, k - 1] = a.coeffs[idx[((j,), (k,))]] / 1j
    return M


def form_of_11(model, M) -> Form:
    """The (1,1)-form i * sum M_{jk} phi^j ^ phibar^k; the inverse of
    _matrix_of_11.  M is (*grid, n, n), or (n, n) for constant coefficients."""
    n = model.n
    idx = _basis.channel_index(n, 1, 1)
    coeffs = np.zeros((_basis.degree_dims(n, 1, 1),) + model.grid_shape,
                      dtype=np.complex128)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            coeffs[idx[((j,), (k,))]] = 1j * M[..., j - 1, k - 1]
    return Form(model, 1, 1, coeffs)


def metric_from_form(omega: Form, pos_tol: float = 1e-9) -> Metric:
    return Metric(omega, pos_tol=pos_tol)


# ---------------------------------------------------------------------------
# inner products


def pointwise_inner(metric: Metric, a: Form, b: Form):
    if a.model is not metric.model or b.model is not metric.model:
        raise ValueError("forms live on a different model than the metric")
    if (a.p, a.q) != (b.p, b.q):
        raise BidegreeError("pointwise inner product needs equal bidegrees")
    P = metric.pairing(a.p, a.q)
    return np.einsum("u...,uw...,w...->...", a.coeffs, P, np.conj(b.coeffs))


def inner(metric: Metric, a: Form, b: Form) -> complex:
    """L2 inner product <<a, b>> with the metric volume form."""
    return complex(metric.model.mean(pointwise_inner(metric, a, b)
                                     * metric.density))


def norm(metric: Metric, a: Form) -> float:
    val = inner(metric, a, a).real
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# star, adjoints, Laplacians


def star(metric: Metric, a: Form) -> Form:
    S = metric.star_matrix(a.p, a.q)
    n = metric.n
    out = np.einsum("wu...,u...->w...", S, a.coeffs)
    return Form(metric.model, n - a.q, n - a.p, out)


def adjoint_diff(metric: Metric, part: str, a: Form) -> Form:
    """Adjoint of del (part='del') or dbar (part='dbar')."""
    if part == "del":
        return -1.0 * star(metric, differential("dbar", star(metric, a)))
    if part == "dbar":
        return -1.0 * star(metric, differential("del", star(metric, a)))
    raise ValueError(f"unknown part {part!r}")


def laplacian(metric: Metric, kind: str, a: Form) -> Form:
    """Apply one of the four Laplacians."""
    d, dbar = (lambda f: differential("del", f)), (lambda f: differential("dbar", f))
    ds = lambda f: adjoint_diff(metric, "del", f)
    dbs = lambda f: adjoint_diff(metric, "dbar", f)
    if kind == "del":
        return d(ds(a)) + ds(d(a))
    if kind == "dbar":
        return dbar(dbs(a)) + dbs(dbar(a))
    if kind == "bc":
        return (
            ds(d(a))
            + dbs(dbar(a))
            + dbs(ds(d(dbar(a))))
            + d(dbar(dbs(ds(a))))
            + dbs(d(ds(dbar(a))))
            + ds(dbar(dbs(d(a))))
        )
    if kind == "tilde":
        proj = lambda f: harmonic_project(metric, "dbar", f)
        return (
            d(proj(ds(a)))
            + ds(proj(d(a)))
            + dbar(dbs(a))
            + dbs(dbar(a))
        )
    raise ValueError(f"unknown Laplacian kind {kind!r}")


# ---------------------------------------------------------------------------
# finite-backend eigendecompositions


def _operator_matrix(metric: Metric, kind: str, p, q):
    """Dense matrix of the Laplacian on the finite invariant complex."""
    model = metric.model
    d = _basis.degree_dims(metric.n, p, q)
    A = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        e = np.zeros((d,), dtype=np.complex128)
        e[j] = 1.0
        A[:, j] = laplacian(metric, kind, Form(model, p, q, e)).coeffs
    return A


def _lie_eig(metric: Metric, kind: str, p, q):
    """Eigendecomposition of the Laplacian on the finite invariant complex.

    Returns (LH, lam, U, kept): LH = L^H for the Cholesky factor L of the
    volume-weighted Gram, so y = LH x are metric-orthonormal coordinates;
    lam ascending and U the eigenvectors of the operator in those
    coordinates; and kept = lam > _EIG_CUTOFF * max(lam[-1], 1e-300), the
    one cut between the operator's range (kept) and its kernel (~kept)
    shared by harmonic_basis and green_solve.  Cached on the metric.
    """
    key = (kind, p, q)
    if key not in metric._eig_cache:
        d = _basis.degree_dims(metric.n, p, q)
        if d == 0:
            metric._eig_cache[key] = (np.zeros((0, 0)), np.zeros(0),
                                      np.zeros((0, 0)), np.zeros(0, bool))
            return metric._eig_cache[key]
        A = _operator_matrix(metric, kind, p, q)
        L = metric.gram_cholesky(p, q)
        LH = L.conj().T
        # operator in metric-orthonormal coordinates y = L^H x
        Aon = LH @ A @ np.linalg.inv(LH)
        Aon = 0.5 * (Aon + Aon.conj().T)
        lam, U = np.linalg.eigh(Aon)
        kept = lam > _EIG_CUTOFF * max(float(lam[-1]), 1e-300)
        metric._eig_cache[key] = (LH, lam, U, kept)
    return metric._eig_cache[key]


# ---------------------------------------------------------------------------
# harmonic bases


def _mgs(metric: Metric, forms, drop_tol=1e-8):
    """Modified Gram-Schmidt in the metric L2 inner product."""
    out = []
    for f in forms:
        for g in out:
            f = f - inner(metric, f, g) * g
        nf = norm(metric, f)
        if nf > drop_tol:
            out.append((1.0 / nf) * f)
    return out


def _symbol_pinv(metric: Metric, kind: str):
    """Closed-form inverse of the Fourier symbol: (inv, opnorm, axes).

    At the constant (so Kaehler) metric Hbar, the grid mean of H, the del,
    dbar and tilde Laplacians act on each channel as the scalar
    sigma(k) = -sum_{j,l} (Hbar^{-1})_{lj} zh_j zbh_l >= 0, where
    zh_j = (i/2)(k_{2j-1} - i k_{2j}) and zbh_j = (i/2)(k_{2j-1} + i k_{2j})
    are the symbols of d/dz_j and d/dzbar_j (harmonic projection there
    removes only k=0).  The Bott-Chern symbol lies between sigma^2 and
    sigma^2 + 2 sigma, so bc takes 1/(sigma^2 + sigma): the preconditioned
    spectrum is inside [sigma/(sigma+1), (sigma+2)/(sigma+1)], [1/3, 5/3]
    where sigma >= 1/2 as on the fixtures; on larger metrics it is slower.
    inv is zero where the symbol is at most _SYMBOL_RCOND * opnorm (k=0 in
    particular); opnorm is max sigma (bc: max sigma^2 + 2 sigma).
    """
    bc = kind == "bc"
    if bc not in metric._symbol_cache:
        k, n = metric.model._freqs, metric.n
        Hinv = np.linalg.inv(np.mean(metric.H, axis=tuple(range(len(k)))))
        zh = [0.5j * (k[2 * j] - 1j * k[2 * j + 1]) for j in range(n)]
        zbh = [0.5j * (k[2 * j] + 1j * k[2 * j + 1]) for j in range(n)]
        sigma = -sum(Hinv[l, j] * zh[j] * zbh[l]
                     for j in range(n) for l in range(n)).real
        if bc:
            sym, top = sigma ** 2 + sigma, sigma ** 2 + 2 * sigma
        else:
            sym = top = sigma
        opnorm = float(np.max(top))
        cut = sym > _SYMBOL_RCOND * max(opnorm, 1e-300)
        inv = np.where(cut, 1.0 / np.where(cut, sym, 1.0), 0.0)
        axes = tuple(1 + a for a in metric.model.active)
        metric._symbol_cache[bc] = (inv, opnorm, axes)
    return metric._symbol_cache[bc]


def _symbol_apply(metric: Metric, kind: str, b: Form) -> Form:
    inv, _, axes = _symbol_pinv(metric, kind)
    spec = np.fft.fftn(b.coeffs, axes=axes)
    return Form(b.model, b.p, b.q, np.fft.ifftn(spec * inv, axes=axes))


def _deflated_kernel(metric: Metric, kind: str, p, q, scale):
    """Kernel basis by preconditioned Richardson deflation.

    From the constant channel basis, v <- v - sigma^{-1} Laplacian v and
    re-orthonormalize, until the relative residual is below 1e-12, a sweep
    changes no vector, or _KERNEL_SWEEPS sweeps have run; then _ritz_kernel.
    The Laplacian is applied once per changed vector per sweep: a sweep's
    residual images are the next sweep's (and the Ritz step's).
    """
    d = _basis.degree_dims(metric.n, p, q)
    E = np.zeros((d, d) + metric.model.grid_shape, dtype=np.complex128)
    E[np.arange(d), np.arange(d)] = 1.0
    V = _mgs(metric, [Form(metric.model, p, q, e) for e in E])
    if scale <= 0 or not V:
        return tuple(V)    # a zero operator (or an empty bidegree)
    images = [laplacian(metric, kind, v) for v in V]
    for _ in range(_KERNEL_SWEEPS):
        W = _mgs(metric, [v - _symbol_apply(metric, kind, a)
                          for v, a in zip(V, images)])
        same = [i < len(V) and np.array_equal(w.coeffs, V[i].coeffs)
                for i, w in enumerate(W)]
        if len(W) == len(V) and all(same):
            break          # a fixed point: every further sweep repeats it
        images = [images[i] if same[i] else laplacian(metric, kind, w)
                  for i, w in enumerate(W)]
        V = W
        if not V or max(norm(metric, a) for a in images) / scale < 1e-12:
            break
    return _ritz_kernel(metric, kind, p, q, V, images, scale)


def _ritz_kernel(metric: Metric, kind: str, p, q, V, images, scale):
    """Rayleigh-Ritz cut of the orthonormal forms V to the kernel.

    Keeps the eigenvectors of <Laplacian V_j, V_i> with Ritz value below
    1e-8 * scale (all of V if scale <= 0: a zero operator); images, if
    given, are the Laplacians of V.  The same combination of images is the
    Laplacian of a kept vector, whose relative residual must be at most
    _KERNEL_RESIDUAL (SolveDiverged otherwise).
    """
    if scale <= 0 or not V:
        return tuple(V)
    images = images or [laplacian(metric, kind, v) for v in V]
    R = np.array([[inner(metric, a, v) for a in images] for v in V])
    lam, U = np.linalg.eigh(0.5 * (R + R.conj().T))
    U = U[:, lam < 1e-8 * scale]
    rotate = lambda forms: [Form(metric.model, p, q, c) for c in np.tensordot(
        U.T, np.stack([f.coeffs for f in forms]), axes=1)]
    for w in rotate(images):
        r = norm(metric, w) / scale
        if r > _KERNEL_RESIDUAL:
            raise SolveDiverged(
                f"harmonic basis for {kind} on ({p},{q}) stalled at relative "
                f"residual {r:.2e}"
            )
    return tuple(rotate(V))


def harmonic_basis(metric: Metric, kind: str, p, q):
    """Metric-orthonormal basis of ker(Laplacian) in bidegree (p,q).

    The invariant backend reads it off _lie_eig.  On the grid, del, dbar and
    bc run _deflated_kernel with opnorm of _symbol_pinv as residual scale.
    As <tilde h, h> = |p''del* h|^2 + |p''del h|^2 + |dbar h|^2 + |dbar* h|^2,
    the tilde kernel is {h in ker Delta'' : p''del h = 0 = p''del* h}
    (Popovici's pseudo-Laplacian): the Ritz cut of the dbar kernel.
    """
    key = (kind, p, q)
    if key not in metric._kernel_cache:
        if metric.model.kind == "lie":
            LH, _, U, kept = _lie_eig(metric, kind, p, q)
            X = np.linalg.solve(LH, U[:, ~kept])
            metric._kernel_cache[key] = tuple(
                Form(metric.model, p, q, x) for x in X.T)
        elif kind == "tilde":
            metric._kernel_cache[key] = _ritz_kernel(
                metric, kind, p, q, harmonic_basis(metric, "dbar", p, q),
                None, _symbol_pinv(metric, kind)[1])
        else:
            metric._kernel_cache[key] = _deflated_kernel(
                metric, kind, p, q, _symbol_pinv(metric, kind)[1])
    return metric._kernel_cache[key]


def harmonic_project(metric: Metric, kind: str, a: Form) -> Form:
    out = zero_form(metric.model, a.p, a.q)
    for v in harmonic_basis(metric, kind, a.p, a.q):
        out = out + inner(metric, a, v) * v
    return out


# ---------------------------------------------------------------------------
# Green operators


def _pcg(metric, kind, b, kernel, rtol, cap):
    def proj(f):
        for v in kernel:
            f = f - inner(metric, f, v) * v
        return f

    nb_full = norm(metric, b)
    bp = proj(b)
    nb = norm(metric, bp)
    discarded = 0.0
    if nb_full > 0:
        discarded = math.sqrt(max(nb_full ** 2 - nb ** 2, 0.0)) / nb_full
    if nb <= 1e-13 * max(nb_full, 1.0):
        # nothing left of the right-hand side after removing harmonic mass
        info = GreenInfo("pcg", 0, nb, 0.0, discarded)
        return zero_form(metric.model, b.p, b.q), info

    x = zero_form(metric.model, b.p, b.q)
    r = bp
    z = proj(_symbol_apply(metric, kind, r))
    pdir = z
    rz = inner(metric, r, z).real
    history = []
    for it in range(cap + 1):
        res = norm(metric, r)
        history.append(res)
        if res <= rtol * nb:
            info = GreenInfo("pcg", it, res, res / nb, discarded,
                             tuple(history))
            return proj(x), info
        if it == cap:
            raise SolveDiverged(
                f"cg hit the iteration cap {cap} at relative residual "
                f"{res / nb:.2e}", history
            )
        Ap = proj(laplacian(metric, kind, pdir))
        pAp = inner(metric, Ap, pdir).real
        if pAp <= 0.0:
            raise SolveDiverged(
                f"indefinite curvature in cg ({pAp:.2e})", history
            )
        alpha = rz / pAp
        x = x + alpha * pdir
        r = r - alpha * Ap
        z = proj(_symbol_apply(metric, kind, r))
        rz_new = inner(metric, r, z).real
        beta = rz_new / rz
        rz = rz_new
        pdir = z + beta * pdir


def green_solve(metric: Metric, kind: str, b: Form, *, tol: float = None,
                max_iter: int = None, with_info: bool = False):
    """Solve Laplacian x = (b minus its harmonic part), x orthogonal to ker.

    The right-hand side is projected onto the operator's range first; the
    discarded harmonic mass is reported in the info record.  The invariant
    backend solves directly in the eigenbasis of the operator; the grid
    backend runs kernel-deflated PCG to relative residual `tol`, preconditioned
    by the closed-form Fourier symbol (_symbol_pinv), and raises SolveDiverged
    if the iterate after `max_iter` updates still misses it.
    """
    model = metric.model
    if model.kind == "lie":
        LH, lam, U, kept = _lie_eig(metric, kind, b.p, b.q)
        y = U.conj().T @ (LH @ b.coeffs)
        invlam = np.where(kept, 1.0 / np.where(kept, lam, 1.0), 0.0)
        nfull = float(np.linalg.norm(y))
        nkept = float(np.linalg.norm(y[kept]))
        discarded = 0.0
        if nfull > 0:
            discarded = math.sqrt(max(nfull ** 2 - nkept ** 2, 0.0)) / nfull
        x = np.linalg.solve(LH, U @ (invlam * y))
        out = Form(model, b.p, b.q, x)
        info = GreenInfo("direct", 0, 0.0, 0.0, discarded)
        return (out, info) if with_info else out

    rtol = _CG_TOL if tol is None else tol
    kernel = harmonic_basis(metric, kind, b.p, b.q)
    active = 1
    for a in model.active:
        active *= model.resolutions[a]
    cap = max_iter or max(50, int(10 * math.sqrt(active)))
    out, info = _pcg(metric, kind, b, kernel, rtol, cap)
    return (out, info) if with_info else out


# ---------------------------------------------------------------------------
# three-space decompositions


def decompose_3space(metric: Metric, flavor: str, a: Form):
    """Orthogonal splitting (harmonic, middle, co-part) of a bidegree slice.

    flavor 'bc':    harmonic + image of deldbar + (image of del* + dbar*)
    flavor 'tilde': harmonic + (image of dbar + del(ker dbar))
                    + (image of del*-after-projection + dbar*)
    """
    if flavor not in ("bc", "tilde"):
        raise ValueError(f"unknown decomposition flavor {flavor!r}")
    kind = flavor
    h = harmonic_project(metric, kind, a)
    g = green_solve(metric, kind, a)
    d = lambda f: differential("del", f)
    dbar = lambda f: differential("dbar", f)
    ds = lambda f: adjoint_diff(metric, "del", f)
    dbs = lambda f: adjoint_diff(metric, "dbar", f)
    if flavor == "bc":
        mid = d(dbar(dbs(ds(g))))
    else:
        pr = lambda f: harmonic_project(metric, "dbar", f)
        mid = d(pr(ds(g))) + dbar(dbs(g))
    co = a - h - mid
    return h, mid, co


# ---------------------------------------------------------------------------
# Lefschetz contraction and primitive parts


def contract(metric: Metric, a: Form) -> Form:
    """Pointwise adjoint of omega ^ (.) : the Lefschetz contraction."""
    p, q = a.p - 1, a.q - 1
    model = metric.model
    d_lo = _basis.degree_dims(metric.n, p, q)
    if d_lo == 0:
        return zero_form(model, p, q)
    G_hi = metric.gram(a.p, a.q)
    Lm = metric.wedge_omega_matrix(p, q)
    t = np.einsum("uv...,v...->u...", G_hi, a.coeffs)
    s = np.einsum("uw...,u...->w...", np.conj(Lm), t)
    Ginv = metric._gram_inverse(p, q)
    x = np.einsum("uv...,v...->u...", Ginv, s)
    return Form(model, p, q, x)


def contract_trace(metric: Metric, gamma: Form):
    """The contraction of a (1,1)-form against the metric: tr(H^{-1} G)."""
    G = _matrix_of_11(gamma)
    return np.einsum("...jk,...kj->...", metric.Hinv, G)


def primitive_part(metric: Metric, a: Form) -> Form:
    """Orthogonal projection onto primitive forms (degree <= min(n, 3))."""
    n = metric.n
    k = a.p + a.q
    if k > min(n, 3):
        raise ValueError("primitive projection implemented for degree "
                         "<= min(n, 3)")
    if k <= 1:
        return a
    # for k <= 3 the contraction is itself primitive, so one Lefschetz
    # correction suffices
    return a - (1.0 / (n - k + 2)) * wedge(metric.omega, contract(metric, a))


def primitive_star_reference(metric: Metric, v: Form) -> Form:
    """Closed-form star of a primitive form; test oracle for star()."""
    n = metric.n
    k = v.p + v.q
    sign = (-1) ** ((k * (k + 1)) // 2)
    phase = 1j ** (v.p - v.q)
    out = v
    for _ in range(n - k):
        out = wedge(metric.omega, out)
    return (sign * phase / math.factorial(n - k)) * out
