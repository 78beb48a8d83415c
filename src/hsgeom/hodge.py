"""Metric-dependent operators on the bicomplex.

Inner products, the complex-linear Hodge star, adjoint differentials, the
two Laplacians (the antiholomorphic Delta'' and Popovici's
projector-twisted second-order one), harmonic projection, Green
operators, and the Lefschetz contraction.

Conventions, locked by the test suite:

* omega = i * sum_{j,k} H_{jk} phi^j ^ phibar^k with H Hermitian positive
  definite; the flat reference omega0 = (i/2) sum phi^k ^ phibar^k has
  H = I/2, so |phi^k|^2 = 2.
* <phi^j, phi^k> = (H^{-1})_{kj}; dV_omega = 2^3 det(H) dV_0 where dV_0 is
  the unit-mass reference volume form.
* star is complex-linear, (p,q) -> (3-q,3-p), characterized by
  a ^ star(conj b) = <a,b>_pt dV_omega pointwise; hence star(star a) =
  (-1)^{p+q} a and the adjoints are del* = -star dbar star,
  dbar* = -star del star.
* <phi^I ^ phibar^J, phi^K ^ phibar^L> = det(H^{-T}[I,K]) det(H^{-1}[J,L]),
  an entry of the Kronecker product P = C_p(H^{-T}) (x) C_q(H^{-1}) of the
  p-th and q-th compound matrices.  Channels run I-major, so a block of
  (p,q)-forms splits for free into (I, J) axes: on a grid the pairing, its
  inverse and the star act as two small contractions, one per side
  (Metric.factors, _kron), and no grid report forms a (d, d, *grid)
  pairing or star matrix.  The invariant backend has no grid and applies
  the dense Kronecker products (Metric.pairing, Metric.star_matrix) in
  inner products and the star; the contraction applies the factors on
  both.
* The pointwise 3x3 algebra on the report path is closed-form (_adjugate):
  H^{-1}, det H, every compound of H^{-T} and H^{-1} and every inverse
  factor come from H and its 2x2 minors, with no batched det or inv.
  Positivity is Sylvester's criterion on the same pivots (_positive);
  eigvalsh runs only for the reported least eigenvalue and on the failure
  path.  No route takes a root of the volume-weighted Gram: the Green
  solves are in the weak form below, and the least squares of the torsion
  oracles are lie.torsion_solve and the CGLS of
  analysis.torsion_least_squares, which apply the pairing and its inverse.

Harmonic bases and Green operators: k forms of one bidegree are one
(k, d, *grid) block, whose Gram matrices are one contraction (_gram).  The
invariant backend cuts kernel from range by one Rayleigh-Ritz step on the
whole space (_lie_ritz): Ritz value <= _EIG_CUTOFF times a scale taken from
outside the spectrum (_scale); it solves directly.  A grid kernel is the
block a Richardson loop returns once every vector's Laplacian is small
(_deflated_kernel), preconditioned by S = 1/sigma(k), the closed-form
symbol at the grid-mean metric (_symbol_pinv).  The loop starts from a
block built from the constants (_start_block), which it locks at once or
polishes.  The tilde kernel is the dbar one (E_2 = E_1 on the torus).
A grid solve is dbar on (p,0), the one Green operator the grid objects
invert: kernel-deflated conjugate gradients preconditioned by the bare
symbol S, in the weak form on spectra (_weak_form): on (p,0) Delta'' =
dbar* dbar, so Q Delta'' = dbar^H Q dbar, Q the volume-weighted Gram, is
Hermitian in the flat inner product and needs no whitening; S is diagonal
on spectra, and an image takes two transforms.  These are the iterates of
PCG in the metric inner product preconditioned by S Q, which is
self-adjoint there as S alone is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _basis
from .forms import (BidegreeError, Form, differential, is_real, wedge,
                    zero_form)

LAPLACIAN_KINDS = ("dbar", "tilde")

_POS_TOL = 1e-9           # least eigenvalue of a positive (1,1) or (2,2) form
_EIG_CUTOFF = 1e-10        # Ritz values <= this * scale are kernel
_RANK_RCOND = 1e-12        # relative Gram eigenvalue of a dependent direction
_SYMBOL_RCOND = 1e-8       # relative cutoff for symbol pseudoinverses
_CG_TOL = 1e-9             # default relative residual for iterative solves
_KERNEL_RESIDUAL = 1e-9    # relative residual a checked kernel must meet
_KERNEL_SWEEPS = 400       # Richardson sweeps allowed to a deflated kernel
_START_TOL = 1e-11         # relative residual of the kernel start solves


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


_ALT = (-1.0) ** np.add.outer(np.arange(3), np.arange(3))
_S2 = _basis.subsets(3, 2)
# flat (row-major 3x3) entries H[i,j], H[k,l], H[i,l], H[k,j] of the minor
# with rows (i, k) and columns (j, l), for every pair of pairs
_MINOR = np.stack([3 * _S2[:, r, None] + _S2[None, :, c]
                   for r, c in ((0, 0), (1, 1), (0, 1), (1, 0))]).reshape(4, 9)


def _minors(H):
    """C_2(H): the nine 2x2 minors ad - bc of a (*, 3, 3) stack, rows and
    columns in _basis.subsets(3, 2) order, as four gathers of the flat
    entries (one numpy call each, so a single 3x3 costs a few microseconds)."""
    M = H.reshape(-1, 9)
    C2 = M.take(_MINOR[0], 1)
    C2 *= M.take(_MINOR[1], 1)
    T = M.take(_MINOR[2], 1)
    T *= M.take(_MINOR[3], 1)
    C2 -= T
    return C2.reshape(H.shape)


def _complement(X):
    """(alt o X[::-1, ::-1])^T over the last two axes, alt[i, j] =
    (-1)^(i+j).  Pair index a and single index 2 - a are complements in
    range(3), so this maps C_2(H) to adj H, and H to det H C_2(H^{-1}) by
    Jacobi's complementary-minor identity."""
    return np.swapaxes(_ALT * X[..., ::-1, ::-1], -1, -2)


def _adjugate(H):
    """(det H, adj H) of a Hermitian positive definite (*, 3, 3) stack, in
    closed form: adj H = _complement(C_2(H)) and det H = C2[0,0] d2, d2 the
    last pivot of H = L D L^H, d2 = H22 - |H20|^2 / H00 - |w|^2 H00 / C2[0,0]
    with w = H21 - H20 conj(H10) / H00.  Each term taken from H22 is at most
    H22, so det H is as accurate as a Cholesky one; a row's cofactor
    expansion cancels terms of size |H|^3 (4e-6 relative error at
    eigenvalues 1e-6, 1e-2, 1e2, against 6e-10 here)."""
    C2 = _minors(H)
    lead = C2[..., 0, 0].real
    _, w, d2 = _pivots(H, lead)
    return lead * d2, _complement(C2)


def _pivots(H, lead):
    """(H00, w, d2) of _adjugate, given the leading 2x2 minor `lead`: the
    L D L^H pivots of H are H00, lead / H00 and d2."""
    h00 = H[..., 0, 0].real
    w = H[..., 2, 1] - H[..., 2, 0] * np.conj(H[..., 1, 0]) / h00
    d2 = H[..., 2, 2].real - abs(H[..., 2, 0]) ** 2 / h00 \
        - abs(w) ** 2 * h00 / lead
    return h00, w, d2


def _positive(H, tau):
    """Whether lambda_min(H) > tau at every point of a Hermitian (*, 3, 3)
    stack, by Sylvester's criterion: every L D L^H pivot of H - tau I
    (_pivots) is positive."""
    S = H - tau * np.eye(3)
    lead = (S[..., 0, 0] * S[..., 1, 1]).real - abs(S[..., 1, 0]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        h00, _, d2 = _pivots(S, lead)
    return bool(np.all((h00 > 0) & (lead > 0) & (d2 > 0)))


def _channel_first(side, C):
    """A (*grid, d, d) compound as a contiguous complex (d, d, *grid) array,
    transposed on side "H^-T"."""
    if side == "H^-T":
        C = np.swapaxes(C, -1, -2)
    return np.ascontiguousarray(_leading(C), dtype=np.complex128)


class Metric:
    """A positive (1,1)-form with cached pointwise linear-algebra data.

    H^{-1}, det H, the compounds and the pairing, inverse and star factors
    are closed forms in H (_adjugate), and positivity is decided by pivots
    (_positive); the one batched eigvalsh gives min_eigenvalue, on first
    access.

    Per-metric results go through `memo(key, build)`, one dict keyed by
    tagged tuples: min_eigenvalue, compounds and the per-side factors built
    from them, wedge-omega matrices, _lie_ritz, _scale, _symbol_pinv, the
    torsion verdict, core and reports, del omega, dbar omega, ||del omega||
    and ||del dbar omega||, the descent gradient and its norms, and the
    Lefschetz split.  Dense pairings, stars and kernels keep their own
    _pairing_cache, _star_cache and _kernel_cache, because the benchmark
    tracer (perfbench/spans.py) wraps `pairing` and `star_matrix` by name
    and counts the misses of those caches.  Only the invariant backend reads
    the dense pairing and star; a grid report or descent applies `factors`
    and leaves both caches empty.
    """

    def __init__(self, omega: Form):
        if (omega.p, omega.q) != (1, 1):
            raise BidegreeError("a metric form must have bidegree (1,1)")
        if not is_real(omega, 1e-8):
            raise ValueError("metric form must be real")
        self.model = omega.model
        self.omega = omega
        self.n = self.model.n

        H = _matrix_of_11(omega)           # (*grid, 3, 3)
        herm_dev = np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2))))
        if herm_dev > 1e-8 * max(1.0, np.max(np.abs(H))):
            raise ValueError(f"coefficient matrix not Hermitian ({herm_dev:.2e})")
        H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
        if not _positive(H, _POS_TOL):
            least = np.linalg.eigvalsh(H)[..., 0]
            raise NotPositiveError(float(least.min()), np.unravel_index(
                int(np.argmin(least)), least.shape))

        self.H = H
        self.detH, adj = _adjugate(H)
        self.Hinv = adj / self.detH[..., None, None]
        self.density = 8.0 * self.detH    # dV_omega / dV_0 = 2^3 det H
        self.volume = float(np.real(self.model.mean(self.density)))

        self._pairing_cache: dict = {}
        self._star_cache: dict = {}
        self._kernel_cache: dict = {}
        self._memo: dict = {}

    def memo(self, key, build):
        """build() memoised on the metric under the tagged tuple `key`."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def min_eigenvalue(self):
        """Least eigenvalue of H over the grid (a report field)."""
        return self.memo(("min_eigenvalue",), lambda: float(
            np.linalg.eigvalsh(self.H)[..., 0].min()))

    # -- pointwise channel maps ----------------------------------------------

    def compound(self, side, k):
        """k-th compound C_k(M) of M = H^{-T} (side "H^-T") or H^{-1} (side
        "H^-1"), channel-first: C[a, b, ...] = det M[..., S_a, S_b] over the
        k-subsets S of range(3), memoised per k.  Closed forms from H
        (_adjugate): C_0 = 1, C_1 = H^{-1}, C_2 = _complement(H) / det H
        (Jacobi's complementary minors), C_3 = 1 / det H; the H^-T side is
        their transposes, and the H^-1 side a transposed view of it."""
        if side == "H^-1":
            return self.compound("H^-T", k).swapaxes(0, 1)

        def build():
            det = self.detH[..., None, None]
            if k == 1:
                return _channel_first(side, self.Hinv)
            if k == 2:
                return _channel_first(side, _complement(self.H) / det)
            return _channel_first(side, 1.0 / det if k else np.ones_like(det))
        return self.memo(("compound", k), build)

    def factors(self, kind, p, q):
        """Per-side factors (A, B) of a pointwise channel map on (p,q)-forms:
        flat (d, d, points) arrays, None for C_0 = 1, applied by _kron.

        "pairing": P = A (x) B with A = C_p(H^{-T}), B = C_q(H^{-1}).
        "inverse": P^{-1} = A^{-1} (x) B^{-1}, with C_k(H^{-T})^{-1} =
                   C_k(H^T) and C_k(H^{-1})^{-1} = C_k(H): H, its minors
                   and det H, no inversion.
        "star":    star(a) is the I <-> J swap of a times A (x) B, with
                   A[J, K'] = (-1)^K' C_q(H^{-T})[rev K', J] and
                   B[I, L'] = (-1)^L' C_p(H^{-1})[rev L', I] i (-1)^p det H.
        The star is a ^ star(conj b) = <a, b>_pt dV_omega solved: the (q,p)
        pairing of conj b (conjugation sign (-1)^(pq)), each channel wedged
        with its complement to the top channel (sign (-1)^(p(3-q) + K' + L');
        at n = 3, rev, the reversed subset index, is the complement), times
        i det H.  Any other kind is a ValueError.
        """
        if kind == "star":
            return self._factor(kind, "H^-T", q), self._factor(kind, "H^-1", p)
        return self._factor(kind, "H^-T", p), self._factor(kind, "H^-1", q)

    def _factor(self, kind, side, k):
        if kind not in ("pairing", "inverse", "star"):
            raise ValueError(f"unknown channel map {kind!r}")
        if k == 0 and (kind != "star" or side == "H^-T"):
            return None
        flat = lambda C: C.reshape(len(C), len(C), -1)
        if kind == "pairing":
            return flat(self.compound(side, k))

        def build():
            if kind == "inverse":
                C = (self.H if k == 1 else _minors(self.H) if k == 2
                     else self.detH[..., None, None])
                return flat(_channel_first(side, C))
            C = flat(self.compound(side, k))
            d = len(C)
            F = (C[::-1] * (-1.0) ** np.arange(d)[:, None, None]).swapaxes(0, 1)
            if side == "H^-1":
                F = F * (1j * (-1) ** k * self.detH.reshape(-1))
            return np.ascontiguousarray(F)
        return self.memo(("factor", kind, side, k), build)

    def pairing(self, p, q):
        """Matrix P with P[u, w] = <e_u, e_w> pointwise, channel-first.

        For e_u = phi^I ^ phibar^J and e_w = phi^K ^ phibar^L the entry is
        C_p(M1)[I, K] * C_q(M2)[J, L], with M1 = H^{-T}, M2 = H^{-1} and
        C_p the p-th compound (Metric.compound).  Channels run I-major, so
        P is the Kronecker product of the two.

        The compounds are closed forms (Metric.compound), equal to one
        det(M1[I, K]) * det(M2[J, L]) per entry up to round-off.
        Out-of-range bidegrees give an empty (0, 0, *grid) matrix.
        """
        key = (p, q)
        if key not in self._pairing_cache:
            grid = self.model.grid_shape
            d = _basis.degree_dims(self.n, p, q)
            if d == 0:
                P = np.empty((0, 0) + grid, dtype=np.complex128)
            else:
                # <phi^j, phi^k> = H^{-T}, <phibar^j, phibar^k> = H^{-1}
                A = self.compound("H^-T", p)[:, None, :, None]
                B = self.compound("H^-1", q)[None, :, None, :]
                if grid:
                    P = (A * B).reshape((d, d) + grid)
                else:
                    P = np.empty((d, d), dtype=np.complex128)
                    P.real = (A.real * B.real - A.imag * B.imag).reshape(d, d)
                    P.imag = (A.real * B.imag + A.imag * B.real).reshape(d, d)
            self._pairing_cache[key] = P
        return self._pairing_cache[key]

    def star_matrix(self, p, q):
        """Channel matrix of star, (p,q) -> (3-q, 3-p): the Kronecker
        product of the two star factors of `factors`."""
        key = (p, q)
        if key not in self._star_cache:
            d, grid = _basis.degree_dims(3, p, q), self.model.grid_shape
            if d == 0:
                S = np.zeros((0, 0) + grid, np.complex128)
            else:
                A, B = self.factors("star", p, q)
                A = np.ones((1, 1, 1)) if A is None else A
                S = np.einsum("JKg,ILg->KLIJg", A, B).reshape((d, d) + grid)
            self._star_cache[key] = S
        return self._star_cache[key]

    # -- Lefschetz -----------------------------------------------------------

    def wedge_omega_matrix(self, p, q):
        """Channel matrix of a -> omega ^ a, (p,q) -> (p+1,q+1)."""
        def build():
            L = np.zeros((_basis.degree_dims(3, p + 1, q + 1),
                          _basis.degree_dims(3, p, q)) + self.model.grid_shape,
                         dtype=np.complex128)
            for c1, c2, c_out, sign in _basis.wedge_table(3, 1, 1, p, q):
                L[c_out, c2] += sign * self.omega.coeffs[c1]
            return L
        return self.memo(("wedge_omega", p, q), build)

    # -- misc ----------------------------------------------------------------

    def volume_form(self) -> Form:
        """dV_omega = i^n (-1)^{n(n-1)/2} det H phi^123 ^ phibar^123, n = 3."""
        return Form(self.model, 3, 3, np.asarray(1j * self.detH)[None])


def _matrix_of_11(a: Form):
    """Coefficient matrix M with a = i * sum M_{jk} phi^j ^ phibar^k, as
    (*grid, 3, 3): channels are I-major, ((j,), (k,)) at 3(j-1) + (k-1)."""
    if (a.p, a.q) != (1, 1):
        raise BidegreeError("expected a (1,1)-form")
    return np.ascontiguousarray(
        _trailing(a.coeffs.reshape((3, 3) + a.model.grid_shape)) / 1j)


def form_of_11(model, M) -> Form:
    """The (1,1)-form i * sum M_{jk} phi^j ^ phibar^k; the inverse of
    _matrix_of_11.  M is (*grid, 3, 3), or (3, 3) for constant coefficients."""
    grid = model.grid_shape
    C = np.broadcast_to(1j * np.asarray(M), grid + (3, 3))
    return Form(model, 1, 1, np.ascontiguousarray(
        _leading(C).reshape((9,) + grid), dtype=np.complex128))


# ---------------------------------------------------------------------------
# inner products


def _check_pair(metric: Metric, a: Form, b: Form):
    if a.model is not metric.model or b.model is not metric.model:
        raise ValueError("forms live on a different model than the metric")
    if (a.p, a.q) != (b.p, b.q):
        raise BidegreeError("inner products need equal bidegrees")


def _kron(X, A, B):
    """Y[k, K, L] = sum_{I,J} X[k, I, J] A[I, K] B[J, L] at each point, for
    a block X (k, dA, dB, points) and factors (d, d, points) or None (the
    1x1 identity): the rows of X times A (x) B, one small contraction per
    side, unrolled over its summed index."""
    if A is not None:
        Y = X[:, 0, None] * A[0, :, None]
        for i in range(1, len(A)):
            Y += X[:, i, None] * A[i, :, None]
        X = Y
    if B is not None:
        Y = X[:, :, 0, None] * B[0]
        for j in range(1, len(B)):
            Y += X[:, :, j, None] * B[j]
        X = Y
    return X


def _apply(metric: Metric, kind, p, q, X):
    """The rows of the block X, k (p,q)-forms as (k, d, *grid), times the
    pointwise channel map `kind` of Metric.factors, by _kron."""
    if not X.shape[1]:
        return X
    grid = X.shape[2:]
    Y = X.reshape(len(X), _basis.degree_dims(3, p, 0),
                  _basis.degree_dims(3, 0, q), math.prod(grid))
    if kind == "star":
        Y = Y.swapaxes(1, 2)
    Y = _kron(Y, *metric.factors(kind, p, q))
    return Y.reshape((len(X), Y.shape[1] * Y.shape[2]) + grid)  # k may be 0


def pointwise_inner(metric: Metric, a: Form, b: Form):
    _check_pair(metric, a, b)
    if metric.model.kind == "lie":
        return np.einsum("u...,uw...,w...->...", a.coeffs,
                         metric.pairing(a.p, a.q), np.conj(b.coeffs))
    T = _apply(metric, "pairing", a.p, a.q, a.coeffs[None])[0]
    return np.einsum("u...,u...->...", T, np.conj(b.coeffs))


def _gram(metric: Metric, p, q, X, Y):
    """L2 Gram matrix G[i, j] = <<X_i, Y_j>> of two blocks of (p,q)-forms,
    each k forms held as one (k, d, *grid) coefficient array: the pairing
    by one contraction (the two factors of _apply on a grid), the channel
    sum and grid mean by one matmul over the flattened (d, *grid) axes."""
    if metric.model.kind == "lie":
        T = np.einsum("ju...,uw...->jw...", X, metric.pairing(p, q))
    else:
        T = _apply(metric, "pairing", p, q, X)
    size = math.prod(X.shape[1:])      # explicit: k or d may be 0
    return (T * metric.density).reshape(len(X), size) \
        @ np.conj(Y).reshape(len(Y), size).T \
        / math.prod(metric.model.grid_shape)


def _combine(A, X):
    """sum_j A[..., j] X_j for the (k, d, *grid) block X: one matmul over
    its flattened (d, *grid) axes; A is a vector or a matrix."""
    size = math.prod(X.shape[1:])
    return (A @ X.reshape(len(X), size)).reshape(A.shape[:-1] + X.shape[1:])


def inner(metric: Metric, a: Form, b: Form) -> complex:
    """L2 inner product <<a, b>> with the metric volume form."""
    _check_pair(metric, a, b)
    G = _gram(metric, a.p, a.q, a.coeffs[None], b.coeffs[None])
    return complex(G[0, 0])


def norm(metric: Metric, a: Form) -> float:
    return math.sqrt(max(inner(metric, a, a).real, 0.0))


def _orth(metric: Metric, p, q, X):
    """Metric-orthonormal basis of the span of the block X: eigh of the
    Gram matrix, twice (the second pass restores the orthogonality the first
    loses); Gram eigenvalues at most _RANK_RCOND times the largest drop."""
    for _ in range(2):
        lam, U = np.linalg.eigh(_gram(metric, p, q, X, X))
        keep = lam > _RANK_RCOND * lam.max(initial=0.0)
        X = _combine((U[:, keep].conj() / np.sqrt(lam[keep])).T, X)
    return X


# ---------------------------------------------------------------------------
# star, adjoints, Laplacians


def star(metric: Metric, a: Form) -> Form:
    """Complex-linear Hodge star, (p,q) -> (3-q, 3-p): the star factors of
    Metric.factors, through their dense Kronecker product (star_matrix) on
    the invariant backend."""
    if metric.model.kind == "lie":
        out = np.einsum("wu...,u...->w...", metric.star_matrix(a.p, a.q),
                        a.coeffs)
    else:
        out = _apply(metric, "star", a.p, a.q, a.coeffs[None])[0]
    return Form(metric.model, 3 - a.q, 3 - a.p, out)


def adjoint_diff(metric: Metric, part: str, a: Form) -> Form:
    """Adjoint of del (part='del') or dbar (part='dbar')."""
    if part == "del":
        return -1.0 * star(metric, differential("dbar", star(metric, a)))
    if part == "dbar":
        return -1.0 * star(metric, differential("del", star(metric, a)))
    raise ValueError(f"unknown part {part!r}")


def laplacian(metric: Metric, kind: str, a: Form) -> Form:
    """Apply one of the two Laplacians of LAPLACIAN_KINDS."""
    d, dbar = (lambda f: differential("del", f)), (lambda f: differential("dbar", f))
    ds = lambda f: adjoint_diff(metric, "del", f)
    dbs = lambda f: adjoint_diff(metric, "dbar", f)
    if kind == "dbar":
        return dbar(dbs(a)) + dbs(dbar(a))
    if kind == "tilde":
        proj = lambda f: harmonic_project(metric, "dbar", f)
        return (
            d(proj(ds(a)))
            + ds(proj(d(a)))
            + dbar(dbs(a))
            + dbs(dbar(a))
        )
    raise ValueError(f"unknown Laplacian kind {kind!r}")


def _images(metric: Metric, kind: str, p, q, X):
    """The block of Laplacians of the forms of the block X."""
    images = [laplacian(metric, kind, Form(metric.model, p, q, x)) for x in X]
    return np.array([a.coeffs for a in images], np.complex128).reshape(X.shape)


# ---------------------------------------------------------------------------
# harmonic bases


def _symbol_pinv(metric: Metric):
    """Closed-form inverse of the Fourier symbol: (inv, opnorm, axes).

    At the constant (so Kaehler) metric Hbar, the grid mean of H, the dbar
    and tilde Laplacians act on each channel as the scalar
    sigma(k) = -sum_{j,l} (Hbar^{-1})_{lj} zh_j zbh_l >= 0, where zh_j and
    zbh_j are the torus model's symbols of d/dz_j and d/dzbar_j (harmonic
    projection there removes only k=0).  inv is zero where sigma is at most
    _SYMBOL_RCOND * opnorm (k=0 in particular); opnorm is max sigma.  The
    axes are the model's spectral axes, counted from the end of a form's or
    a block's coefficients.  The kernel Richardson sweeps apply inv as it
    is (_symbol_apply), and the conjugate gradients of _weak_form to
    spectra, with no transform.
    """
    def build():
        model, n = metric.model, metric.n
        zh, zbh, grid = model.zh, model.zbh, model.grid_shape
        Hinv = np.linalg.inv(np.mean(metric.H, axis=tuple(range(len(grid)))))
        sigma = -sum((Hinv[l, j] * zh[j] * zbh[l]
                      for j in range(n) for l in range(n)
                      if zh[j] is not None and zbh[l] is not None),
                     np.zeros(grid)).real
        opnorm = float(np.max(sigma))
        cut = sigma > _SYMBOL_RCOND * max(opnorm, 1e-300)
        inv = np.where(cut, 1.0 / np.where(cut, sigma, 1.0), 0.0)
        return inv, opnorm, model.spectral_axes
    return metric.memo(("symbol",), build)


def _symbol_apply(metric: Metric, x):
    inv, _, axes = _symbol_pinv(metric)
    return np.fft.ifftn(np.fft.fftn(x, axes=axes) * inv, axes=axes)


def _scale(metric: Metric):
    """Size of the Laplacians, from outside the spectrum they cut: the
    opnorm of _symbol_pinv on the grid; on the invariant backend
    s = c^2 lam_max(H^{-1}), c the largest entry of the model's del and dbar
    matrices, memoised on the model, so s = 0 (torus3) is a zero
    operator."""
    if metric.model.kind != "lie":
        return _symbol_pinv(metric)[1]

    def build():
        n, ops = metric.n, metric.model.operator_matrix
        c = metric.model.memo(("largest_entry",), lambda: max(
            float(np.abs(ops(part, p, q)).max(initial=0.0))
            for part in ("del", "dbar")
            for p in range(n + 1) for q in range(n + 1)))
        return c * c * float(np.linalg.eigvalsh(metric.Hinv)[-1])
    return metric.memo(("scale",), build)


def _channels(metric: Metric, p, q):
    """Orthonormalised constant (p,q) channels: all of an invariant space."""
    d = _basis.degree_dims(metric.n, p, q)
    E = np.zeros((d, d) + metric.model.grid_shape, dtype=np.complex128)
    E[np.arange(d), np.arange(d)] = 1.0
    return _orth(metric, p, q, E)


def _start_block(metric: Metric, p, q):
    """Orthonormal start block of the grid Delta'' kernel search, already
    harmonic up to the solve tolerance and round-off, built from the
    constants.  q = 0: the constants themselves.  q = 1: h_c = c + dbar
    beta_c for each constant c, with beta_c = -G''(dbar* c) a Green solve on
    (p,0), whose kernel is the constants (weak-form conjugate gradients on
    spectra, _weak_form).  q = 2, 3: conj star of the (3-p, 3-q) block
    (Serre duality: conj o star maps (3-p, 3-q) to (p,q) and commutes with
    Delta''), so the constants of (p,q) are never built there."""
    if q == 0 or not _basis.degree_dims(metric.n, p, q):
        return _channels(metric, p, q)
    model = metric.model
    if q == 1:
        V = [c - differential("dbar", green_solve(metric, "dbar", adjoint_diff(
            metric, "dbar", Form(model, p, q, c)), tol=_START_TOL)).coeffs
             for c in _channels(metric, p, q)]
    else:
        perm, sign = _basis.conjugation(3, q, p)
        V = sign * np.conj(_apply(metric, "star", 3 - p, 3 - q, _start_block(
            metric, 3 - p, 3 - q))[:, perm])
    return _orth(metric, p, q, np.asarray(V))


def _deflated_kernel(metric: Metric, p, q):
    """Grid Delta'' kernel basis by preconditioned Richardson on a block.

    From the start block of _start_block, V <- orth(V - sigma^{-1} AV), AV
    the Laplacians of V, checked before each sweep.  A row with ||AV_j|| <=
    1e-12 * scale is locked: kept as it is, never imaged again, and
    projected out of the rows still updated.  SolveDiverged if
    _KERNEL_SWEEPS sweeps leave a row unlocked.  The rule is stricter than
    _KERNEL_RESIDUAL, so the locked block needs no Rayleigh-Ritz.  A built
    block locks at sweep 0 where the grid resolves the metric (N >= 16 on
    the fixtures); at N = 8 the star route misses the rule, because
    conj(dbar x) = del(conj x) fails at the Nyquist mode, and the sweeps
    polish it.  The constants of a (p,0) kernel are returned with no sweep:
    dbar kills them exactly and dbar* vanishes on (p,0)."""
    V, scale = _start_block(metric, p, q), _scale(metric)
    if q == 0:                          # dbar kills constants exactly
        # constant fields: one grid point is held, broadcast (read-only)
        point = (slice(None),) * 2 + (slice(1),) * len(metric.model.grid_shape)
        return np.broadcast_to(V[point].copy(), V.shape)
    locked = V[:0].copy()       # not a view: V's first block is freed
    for sweep in range(_KERNEL_SWEEPS + 1):
        AV = _images(metric, "dbar", p, q, V)
        r = np.sqrt(np.maximum(np.diag(_gram(metric, p, q, AV, AV)).real, 0))
        done = r <= 1e-12 * scale
        if done.all():
            return np.concatenate([locked, V]) if len(locked) else V
        if done.any():
            locked = np.concatenate([locked, V[done]])
            V, AV = V[~done], AV[~done]
        if sweep == _KERNEL_SWEEPS:
            raise SolveDiverged(f"harmonic basis for dbar on ({p},{q}) "
                                f"stalled at relative residual "
                                f"{r.max() / scale:.2e}")
        V = V - _symbol_apply(metric, AV)
        if len(locked):
            V -= _combine(_gram(metric, p, q, V, locked), locked)
        V = _orth(metric, p, q, V)


def _lie_ritz(metric: Metric, kind: str, p, q):
    """Memoised Rayleigh-Ritz on a whole invariant space: ascending Ritz
    values lam, Ritz vectors W, kernel mask lam <= _EIG_CUTOFF * _scale.
    SolveDiverged if a kernel vector's Laplacian tops _KERNEL_RESIDUAL."""
    def build():
        V, scale = _channels(metric, p, q), _scale(metric)
        if scale <= 0 or not len(V):
            return np.zeros(len(V)), V, np.ones(len(V), bool)
        AV = _images(metric, kind, p, q, V)
        R = _gram(metric, p, q, AV, V).T    # R[i, j] = <<Laplacian V_j, V_i>>
        lam, U = np.linalg.eigh(0.5 * (R + R.conj().T))
        W, AW = (_combine(U.T, X) for X in (V, AV))
        kernel = lam <= _EIG_CUTOFF * scale
        AK = AW[kernel]
        r = math.sqrt(np.diag(_gram(metric, p, q, AK, AK)).real.max(
            initial=0.0)) / scale
        if r > _KERNEL_RESIDUAL:
            raise SolveDiverged(f"harmonic basis for {kind} on ({p},{q}) "
                                f"stalled at relative residual {r:.2e}")
        return lam, W, kernel
    return metric.memo(("ritz", kind, p, q), build)


def harmonic_basis(metric: Metric, kind: str, p, q):
    """Metric-orthonormal basis of ker(Laplacian) in bidegree (p,q).

    The kernel Ritz vectors of _lie_ritz, or the Richardson block of
    _deflated_kernel on the grid (started from a block built from the
    constants, _start_block), as a tuple of Forms whose
    `block` holds their coefficients (harmonic_project reads it; a grid
    (p,0) dbar block, constant, is one point broadcast read-only); empty
    outside 0 <= p, q <= 3.  As <tilde h, h> = |p''del* h|^2 +
    |p''del h|^2 + |dbar h|^2 + |dbar* h|^2, ker tilde (of Popovici's
    pseudo-Laplacian; dimension dim E_2) lies in ker Delta''.  On the torus
    every nonzero Fourier mode has an exact dbar-Koszul complex, so the
    constants, which del kills, span H_dbar: E_2 = E_1, ker tilde = ker dbar.
    Any kind outside LAPLACIAN_KINDS is a ValueError, checked here because
    a zero invariant scale (torus3) returns before any Laplacian runs.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    if kind == "tilde" and metric.model.kind != "lie":
        kind = "dbar"
    key = (kind, p, q)
    if key not in metric._kernel_cache:
        if metric.model.kind == "lie":
            _, W, kernel = _lie_ritz(metric, kind, p, q)
            K = W[kernel]
        else:
            K = _deflated_kernel(metric, p, q)
        metric._kernel_cache[key] = _Kernel(metric.model, p, q, K)
    return metric._kernel_cache[key]


class _Kernel(tuple):
    """Harmonic basis Forms, viewing the rows of their (k, d, *grid) block."""

    def __new__(cls, model, p, q, block):
        self = super().__new__(cls, (Form(model, p, q, w) for w in block))
        self.block = block
        return self


def harmonic_project(metric: Metric, kind: str, a: Form) -> Form:
    K = harmonic_basis(metric, kind, a.p, a.q).block
    c = _gram(metric, a.p, a.q, a.coeffs[None], K)[0]
    return Form(metric.model, a.p, a.q, _combine(c, K))


# ---------------------------------------------------------------------------
# Green operators


def _weak_form(metric: Metric, p):
    """Conjugate gradients' coordinates for dbar on (p,0)-forms: (rhs,
    solution, image, precondition, scale).  rhs maps the coefficients of b
    to (f, the norm of b in these coordinates, the metric fraction of b that
    is harmonic), f the right-hand side with the harmonic part H''b of b
    removed; solution maps an iterate to x, metric-orthogonal to the
    kernel; the operator A (image) and the symbol inverse S (precondition,
    _symbol_pinv) are Hermitian in the flat inner product u . conj(v) /
    scale, and zero on the kernel.

    On (p,0) dbar* vanishes, so Delta'' = dbar* dbar, <<Delta'' x, y>> =
    <<dbar x, dbar y>>, and A = Q Delta'' = dbar^H Q_(p,1) dbar, Q the
    volume-weighted pointwise Gram and dbar^H the flat adjoint
    (TorusModel.spectral_adjoint), is Hermitian in the flat inner product
    whether or not Q is a grid constant.  The iterate is the spectrum of x
    and f that of Q (b - H''b) (not Q b with its zero mode cut, as Q varies
    over the grid but on (3,0), where Q = 8); scale is the squared number
    of points (Parseval), the kernel of A the zero mode, and A one ifftn
    and one fftn of a block of fields.  These are the iterates of PCG in
    the metric inner product preconditioned by S Q, and the residual is
    ||Q (b - H''b - Delta'' x)||: 2 sqrt 2 times the metric one on (3,0)."""
    model, pts = metric.model, math.prod(metric.model.grid_shape)
    K = harmonic_basis(metric, "dbar", p, 0).block
    flat_norm = lambda u: math.sqrt(np.vdot(u, u).real / pts)
    axes, inv = model.spectral_axes, _symbol_pinv(metric)[0]
    weigh = lambda X, q: _apply(metric, "pairing", p, q, X) * metric.density
    QK = weigh(K, 0)

    def harmonic(Qx):                   # <<x, K_j>> from Q x
        return np.conj(K.reshape(len(K), -1)) @ Qx.ravel() / pts

    def rhs(b):
        Qb = weigh(b[None], 0)[0]
        c = harmonic(Qb)
        mass = math.sqrt(max(np.vdot(b, Qb).real / pts, 0.0))
        f = np.fft.fftn(Qb - _combine(c, QK), axes=axes)
        f[(Ellipsis,) + (0,) * len(model.grid_shape)] = 0.0
        return f, flat_norm(Qb), \
            float(np.linalg.norm(c)) / mass if mass else 0.0

    def solution(y):
        x = np.fft.ifftn(y, axes=axes)
        return x - _combine(harmonic(weigh(x[None], 0)[0]), K)

    def image(y):
        v = np.fft.ifftn(model.spectral_differential("dbar", p, 0, y),
                         axes=axes)
        w = np.fft.fftn(weigh(v[None], 1)[0], axes=axes)
        return model.spectral_adjoint("dbar", p, 0, w)
    return rhs, solution, image, lambda r: inv * r, pts * pts


def _pcg(metric, b, rtol, cap):
    """Kernel-deflated PCG for dbar on the (p,0)-form b, in the coordinates
    of _weak_form, with the symbol inverse S as preconditioner."""
    _check_pair(metric, b, b)
    model, p, q = metric.model, b.p, b.q
    rhs, solution, image, precondition, scale = _weak_form(metric, p)
    dot = lambda u, v: np.vdot(v, u).real / scale       # Re <u, v>
    norm_ = lambda u: math.sqrt(dot(u, u))

    r, nb_full, discarded = rhs(b.coeffs)
    nb = norm_(r)
    if nb <= 1e-13 * max(nb_full, 1.0):
        # nothing left of the right-hand side after removing harmonic mass
        info = GreenInfo("pcg", 0, nb, 0.0, discarded)
        return zero_form(model, p, q), info

    x = np.zeros_like(r)
    z = precondition(r)
    pdir = z
    rz = dot(r, z)
    history = []
    for it in range(cap + 1):
        res = norm_(r)
        history.append(res)
        if res <= rtol * nb:
            info = GreenInfo("pcg", it, res, res / nb, discarded,
                             tuple(history))
            return Form(model, p, q, solution(x)), info
        if it == cap:
            raise SolveDiverged(
                f"cg hit the iteration cap {cap} at relative residual "
                f"{res / nb:.2e}", history
            )
        Ap = image(pdir)
        pAp = dot(Ap, pdir)
        if pAp <= 0.0:
            raise SolveDiverged(
                f"indefinite curvature in cg ({pAp:.2e})", history
            )
        alpha = rz / pAp
        x = x + alpha * pdir
        r = r - alpha * Ap
        z = precondition(r)
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        pdir = z + beta * pdir


def green_solve(metric: Metric, kind: str, b: Form, *, tol: float = None,
                max_iter: int = None, with_info: bool = False):
    """Solve Laplacian x = (b minus its harmonic part), x orthogonal to ker.

    The right-hand side is projected onto the operator's range first; the
    discarded harmonic mass is reported in the info record.  The invariant
    backend solves directly in the Ritz basis of _lie_ritz, whose kernel
    harmonic_basis reads.  The grid backend solves only dbar on (p,0), the
    one Green operator its objects invert (the torsion, the co-closed E_2
    potential and the kernel start blocks): kernel-deflated PCG to relative
    residual `tol` in the weak form on spectra (_pcg, _weak_form),
    preconditioned by the closed-form Fourier symbol, where the residual is
    that of Q Delta'' x = Q (b - H''b).  discarded_mass is the metric
    fraction of b that is harmonic.  SolveDiverged if the iterate after
    `max_iter` updates still misses `tol`.  `max_iter` None is a cap growing
    with the grid; 0 only checks the projected right-hand side.  A kind
    outside LAPLACIAN_KINDS, any other grid solve (checked before a kernel
    is built) and a negative cap are ValueErrors.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    model = metric.model
    p, q = b.p, b.q
    if model.kind != "lie" and (kind, q) != ("dbar", 0):
        raise ValueError(f"the grid solves dbar on (p,0) only, not {kind} "
                         f"on ({p},{q})")
    if model.kind == "lie":
        lam, W, kernel = _lie_ritz(metric, kind, p, q)
        y = _gram(metric, p, q, b.coeffs[None], W)[0]
        nfull = float(np.linalg.norm(y))
        discarded = float(np.linalg.norm(y[kernel])) / nfull if nfull else 0.0
        out = Form(model, p, q, _combine(y[~kernel] / lam[~kernel],
                                         W[~kernel]))
        info = GreenInfo("direct", 0, 0.0, 0.0, discarded)
        return (out, info) if with_info else out

    rtol = _CG_TOL if tol is None else tol
    if max_iter is None:
        active = math.prod(model.resolutions[a] for a in model.active)
        max_iter = max(50, int(10 * math.sqrt(active)))
    out, info = _pcg(metric, b, rtol, max_iter)
    return (out, info) if with_info else out


# ---------------------------------------------------------------------------
# Lefschetz contraction and primitive parts


def contract(metric: Metric, a: Form) -> Form:
    """Pointwise adjoint of omega ^ (.) : the Lefschetz contraction.  The
    pairing of a, the conjugate wedge-omega matrix, then the pairing
    inverse one degree down: both pairings as factors (_apply), on either
    backend."""
    p, q = a.p - 1, a.q - 1
    if not _basis.degree_dims(metric.n, p, q):
        return zero_form(metric.model, p, q)
    t = _apply(metric, "pairing", a.p, a.q, a.coeffs[None])[0]
    Lm = np.conj(metric.wedge_omega_matrix(p, q))
    s = np.einsum("uw...,u...->w...", Lm, t)
    x = _apply(metric, "inverse", p, q, s[None])[0]
    return Form(metric.model, p, q, x)


def contract_trace(metric: Metric, gamma: Form):
    """The contraction of a (1,1)-form against the metric: tr(H^{-1} G)."""
    G = _matrix_of_11(gamma)
    return np.einsum("...jk,...kj->...", metric.Hinv, G)


def primitive_part(metric: Metric, a: Form) -> Form:
    """Orthogonal projection onto primitive forms (degree <= 3)."""
    k = a.p + a.q
    if k > 3:
        raise ValueError("primitive projection implemented for degree <= 3")
    if k <= 1:
        return a
    # for k <= 3 the contraction is itself primitive, so one Lefschetz
    # correction suffices
    return a - (1.0 / (5 - k)) * wedge(metric.omega, contract(metric, a))
