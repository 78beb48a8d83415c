"""Linear-algebra cohomology of the invariant subcomplex.

Everything here runs on the lie backend only: the spaces involved are
finite-dimensional (at most 9 channels per bidegree), so kernels, images and
subquotients are ordinary numpy rank computations.  On the grid backend the
corresponding function-space objects reduce to the constants and add no
information, so those models are rejected.

Contents: the classical groups, the spectral-filtration pages with their
differentials (pure-form subquotient model), the page-2 torsion obstruction
class of a metric, the two-tower closed/exact membership solvers, the
higher-page Bott-Chern/Aeppli groups with the identity-induced comparison
maps, and the intersection-number computation of the generalized volume.
The classical Dolbeault, Bott-Chern and Aeppli groups are the r = 1 groups
(E_1 = H_dbar, E_{1,BC} = H_BC, E_{1,A} = H_A), so they come from the page
builders; the Betti numbers come from the ranks of the total d.

All subquotients carry explicit orthonormal bases with respect to the flat
reference metric of the model, so class coordinates are reproducible across
calls and across metrics.

Each page-r condition (the page ladder, page-r closedness, page-r
exactness) is written once, as one homogeneous `_BlockSystem` whose first
variable is the form, with its zig-zag towers laid out by one builder,
`_zigzag`.  The tables read the system's span, the first block of its null
space; the membership tests fix that block to the given form and solve for
the other blocks, which are the witnesses.
The metric-free objects (operator complex, page data and page summary per
r, page-r Bott-Chern/Aeppli tables, Betti numbers) are memoised on the
model, so a report builds each of them once; treat them as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _basis
from .analysis import NotFeasibleError, _dbar_preimage, torsion_form
from .forms import Form, conjugate, differential, integrate_top, wedge
from .hodge import Metric, NotPositiveError, harmonic_project, norm
from .lie import LieModel, _kept, _nullspace, _pinv

_ER_TOL = 1e-8     # relative residual of a page-r tower membership


class NotHSError(RuntimeError):
    """Operation requires a Hermitian-symplectic metric."""


class HypothesisFailed(RuntimeError):
    def __init__(self, which, certificate=None):
        super().__init__(f"hypothesis not satisfied: {which}")
        self.which = which
        self.certificate = certificate


class StageUnsolvable(RuntimeError):
    def __init__(self, stage, residual):
        super().__init__(f"{stage} has no solution (residual {residual:.3e})")
        self.stage = stage
        self.residual = residual


def _require_lie(model):
    if getattr(model, "kind", None) != "lie":
        raise ValueError(
            "cohomology routines run on the lie backend only; grid models "
            "carry no invariant cohomology beyond the constants"
        )


# ---------------------------------------------------------------------------
# dense linear algebra over channel coordinates


def _rank(M):
    return int(np.sum(_kept(np.linalg.svd(M, compute_uv=False))))


class _BlockSystem:
    """Homogeneous linear system over several form-valued unknowns.

    Each variable is declared with its bidegree, the first one being the
    form the system constrains; each equation is a list of (variable name,
    coefficient matrix) pairs that sum to zero in a target bidegree.  One
    system gives both readings of its condition: `span()` is the first
    block of its null space (the `_nullspace` rank rule), and `member(A)`
    fixes that block to the columns of A and solves for the others.
    """

    def __init__(self, cx):
        self.cx = cx
        self.pq = {}
        self.dims = {}
        self.rows = []

    def variable(self, name, pq):
        self.pq[name] = pq
        self.dims[name] = self.cx.dim(*pq)

    def equation(self, entries, pq):
        self.rows.append((dict(entries), self.cx.dim(*pq)))

    def assemble(self):
        return np.vstack([np.zeros((0, sum(self.dims.values())), complex)] + [
            np.hstack([row.get(nm, np.zeros((rdim, d), dtype=complex))
                       for nm, d in self.dims.items()])
            for row, rdim in self.rows])

    def split(self, x):
        out, off = {}, 0
        for nm, d in self.dims.items():
            out[nm] = x[off: off + d]
            off += d
        return out

    def kernel(self):
        """The null space, split into its blocks."""
        return self.split(_nullspace(self.assemble()))

    def span(self):
        """Column span of the forms that satisfy the condition."""
        return next(iter(self.kernel().values()))

    def member(self, A):
        """Fix the first block to the (d, k) columns A and solve for the
        other blocks by `_pinv`.  Returns those blocks (the witnesses) and
        one residual per column."""
        A = np.asarray(A, dtype=np.complex128)
        M = self.assemble()
        d = A.shape[0]
        X = _pinv(M[:, d:]) @ -(M[:, :d] @ A)
        resid = np.linalg.norm(M[:, :d] @ A + M[:, d:] @ X, axis=0)
        parts = self.split(np.vstack([A, X]))
        del parts[next(iter(self.pq))]
        return parts, resid


def _target(part, p, q):
    return (p + 1, q) if part == "del" else (p, q + 1)


def _step(part, p, q):
    """Bidegree one zig-zag step on from (p,q) along a tower of `part`."""
    return (p + 1, q - 1) if part == "del" else (p - 1, q + 1)


_BACK = {"del": "dbar", "dbar": "del"}


def _zigzag(sys, x0, pq, names, part):
    """Append the tower part(x_{i-1}) = back(x_i) to a _BlockSystem.

    back is the other half of d.  x_0 is a declared variable in bidegree
    pq; x_1, x_2, ... are declared here under `names`, one zig-zag step
    apart.  Returns the name and bidegree of the last tower form.
    """
    cx, back = sys.cx, _BACK[part]
    for name in names:
        nxt = _step(part, *pq)
        sys.variable(name, nxt)
        sys.equation([(x0, cx.op(part, *pq)), (name, -cx.op(back, *nxt))],
                     _target(part, *pq))
        x0, pq = name, nxt
    return x0, pq


def _ladder(cx, pq, steps):
    """The page condition on x0 in bidegree pq: dbar x0 = 0 plus a
    `steps`-long tower del x_{i-1} = dbar x_i with blocks x1, x2, ...  Its
    span is the numerator of E_{steps+1}, and its last witness carries the
    page differential."""
    sys = _BlockSystem(cx)
    sys.variable("x0", pq)
    sys.equation([("x0", cx.op("dbar", *pq))], _target("dbar", *pq))
    _zigzag(sys, "x0", pq, [f"x{i}" for i in range(1, steps + 1)], "del")
    return sys


def _side_image(cx, p, q, r):
    """del (into bidegree (p,q)) of the forms that end an (r-2)-step ladder:
    for r=3, del x1 with dbar x0 = 0, del x0 = dbar x1."""
    tower = _ladder(cx, (p - r + 1, q + r - 2), r - 2).kernel()
    return cx.op("del", p - 1, q) @ tower[f"x{r - 2}"]


def _closed_system(cx, p, q, r):
    """Page-r closedness of alpha in (p,q): del dbar alpha = 0, a
    del-absorbing tower eta_i in (p+i, q-i) and a dbar-absorbing tower
    rho_i in (p-i, q+i), r-1 steps each."""
    sys = _BlockSystem(cx)
    sys.variable("alpha", (p, q))
    sys.equation([("alpha", cx.op("del", p, q + 1) @ cx.op("dbar", p, q))],
                 (p + 1, q + 1))
    for nm, part in (("eta", "del"), ("rho", "dbar")):
        _zigzag(sys, "alpha", (p, q), [f"{nm}{i}" for i in range(1, r)], part)
    return sys


def _exact_system(cx, p, q, r):
    """Page-r exactness of alpha in (p,q): alpha = del zeta + del dbar xi +
    dbar eta, where zeta -> v0 and eta -> u0 are side towers of r-2 steps,
    each ending closed.

    For r = 1 only the deldbar-image is left: the side witnesses carry r-1
    closedness conditions each and disappear entirely on the first page,
    so E_{1,BC} is the classical Bott-Chern group.
    """
    sys = _BlockSystem(cx)
    sys.variable("alpha", (p, q))
    at = {"zeta": (p - 1, q), "xi": (p - 1, q - 1), "eta": (p, q - 1)}
    ops = {"zeta": cx.op("del", p - 1, q),
           "xi": cx.op("del", p - 1, q) @ cx.op("dbar", p - 1, q - 1),
           "eta": cx.op("dbar", p, q - 1)}
    names = ("zeta", "xi", "eta") if r > 1 else ("xi",)
    for nm in names:
        sys.variable(nm, at[nm])
    sys.equation([("alpha", -np.eye(cx.dim(p, q)))]
                 + [(nm, ops[nm]) for nm in names], (p, q))
    if r > 1:
        for x0, side, part in (("zeta", "v0", "dbar"), ("eta", "u0", "del")):
            last, pq = _zigzag(sys, x0, at[x0], [side][:r - 2], part)
            sys.equation([(last, cx.op(part, *pq))], _target(part, *pq))
    return sys


def _quotient(cx, N, D, p, q):
    """Reference-orthonormal basis of span N / span D, for D inside span N."""
    Do = cx.orth(D, p, q)
    return cx.orth(cx.project_out(N, Do, p, q), p, q)


def _memo(model, key, build):
    """build() memoised on the lie model (LieModel.memo)."""
    _require_lie(model)
    return model.memo(key, build)


def _complex(model):
    return _memo(model, "complex", lambda: _Complex(model))


def _page(model, r):
    return _memo(model, ("page", r), lambda: _PageData(model, r))


class _Complex:
    """Operator matrices and the reference inner product of one model.  The
    flat reference metric has H = I/2 and density 1, so its Gram on
    (p,q)-forms is 2^(p+q) I and its Cholesky factor 2^((p+q)/2) I."""

    def __init__(self, model: LieModel):
        self.model = model
        self.n = model.n

    def dim(self, p, q):
        return _basis.degree_dims(self.n, p, q)

    def op(self, part, p, q):
        return self.model.operator_matrix(part, p, q)

    def orth(self, cols, p, q):
        """Reference-orthonormal basis of the column span, rank-revealed."""
        root = math.sqrt(2.0 ** (p + q))
        u, s, _ = np.linalg.svd(root * np.asarray(cols, np.complex128),
                                full_matrices=False)
        return u[:, _kept(s)] / root

    def project_out(self, cols, onb, p, q):
        """Remove the span of reference-orthonormal `onb` from each column."""
        return cols - onb @ (onb.conj().T @ (2.0 ** (p + q) * cols))

    def coords_against(self, onb, vecs, p, q):
        return onb.conj().T @ (2.0 ** (p + q) * vecs)


# ---------------------------------------------------------------------------
# classical groups


@dataclass
class ClassicalTable:
    de_rham: list          # b_0 .. b_{2n}
    dolbeault: np.ndarray  # [p, q] dims
    bott_chern: np.ndarray
    aeppli: np.ndarray
    duality_ok: bool

    def to_json(self):
        return {
            "de_rham": [int(x) for x in self.de_rham],
            "dolbeault": self.dolbeault.tolist(),
            "bott_chern": self.bott_chern.tolist(),
            "aeppli": self.aeppli.tolist(),
            "duality_ok": self.duality_ok,
        }


def classical_groups(model: LieModel) -> ClassicalTable:
    """Dimension table of the four classical groups on the invariant complex.

    The Dolbeault, Bott-Chern and Aeppli groups are the r = 1 groups:
    E_1 = H_dbar, E_{1,BC} = H_BC and E_{1,A} = H_A, read from
    `higher_page_groups(model, 1)` and its page data.  The Betti numbers
    are memoised on the model (_betti_numbers).
    """
    hp = higher_page_groups(model, 1)
    return ClassicalTable(
        de_rham=list(_memo(model, "betti", lambda: _betti_numbers(model))),
        dolbeault=hp.page_dims.copy(),
        bott_chern=hp.bc_dims.copy(), aeppli=hp.a_dims.copy(),
        duality_ok=bool(np.array_equal(hp.bc_dims, hp.a_dims[::-1, ::-1])))


def _betti_numbers(model):
    """b_k = dim A^k - rank d_k - rank d_{k-1} of the total d, one rank per
    degree."""
    cx = _complex(model)
    n = cx.n
    dims, ranks = [], []
    for k in range(2 * n + 1):
        sys = _BlockSystem(cx)         # d: A^k -> A^{k+1}, blocks by p
        for p in range(max(0, k - n), min(n, k) + 1):
            sys.variable(p, (p, k - p))
        for p in range(max(0, k + 1 - n), min(n, k + 1) + 1):
            sys.equation([(s, cx.op(part, s, k - s))
                           for part, s in (("del", p - 1), ("dbar", p))
                           if s in sys.pq], (p, k + 1 - p))
        M = sys.assemble()
        dims.append(M.shape[1])
        ranks.append(_rank(M))
    return tuple(dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
                 for k in range(2 * n + 1))


# ---------------------------------------------------------------------------
# spectral pages (pure-form subquotient model)


@dataclass(frozen=True)
class PageSummary:
    r: int
    dims: dict                  # (p,q) -> int
    d_maps: dict                # (p,q) -> matrix into page (p+r, q-r+1)
    degenerates: bool           # all d_r vanish

    def total(self, k):
        return sum(v for (p, q), v in self.dims.items() if p + q == k)

    def to_json(self):
        return {
            "r": self.r,
            "dims": {f"{p},{q}": int(v) for (p, q), v in self.dims.items()},
            "degenerates": self.degenerates,
        }


class _PageData:
    """Orthonormal representatives of one spectral page of one model.

    E_r^{p,q} is modelled on pure (p,q)-forms: the numerator consists of
    dbar-closed forms whose del can be chained through r-1 dbar-images, the
    denominator adds dbar-images and del of chains arriving from the left.
    Representatives are orthonormal against the flat reference metric and
    orthogonal to the denominator.  The methods take a (d, k) block A of
    (p,q) coefficients, one form per column, and solve one ladder for all.
    """

    def __init__(self, model: LieModel, r: int):
        if r not in (1, 2, 3):
            raise ValueError("pages r = 1, 2, 3 are supported")
        self.cx = cx = _complex(model)
        self.r = r
        self.basis = {}
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                X = _ladder(cx, (p, q), r - 1).span()
                D = [cx.op("dbar", p, q - 1)]
                if r > 1:
                    D.append(_side_image(cx, p, q, r))
                self.basis[(p, q)] = _quotient(cx, X, np.hstack(D), p, q)

    # -- classes ---------------------------------------------------------

    def dim(self, p, q):
        return self.basis[(p, q)].shape[1]

    def ladder_witnesses(self, p, q, A):
        """The witness blocks x_1 .. x_{r-1} of the ladder of A;
        ValueError if a column is not page-closed (the residual of the
        whole ladder, its dbar row included, above 1e-8 of the column)."""
        A = np.asarray(A, dtype=np.complex128)
        parts, resid = _ladder(self.cx, (p, q), self.r - 1).member(A)
        bad = resid > 1e-8 * np.maximum(1.0, np.linalg.norm(A, axis=0))
        if np.any(bad):
            raise ValueError(f"form is not page-{self.r}-closed "
                             f"(ladder residual {resid[bad].max():.2e})")
        return list(parts.values())

    def coordinates(self, p, q, A):
        """Class coordinates of the page-closed columns of A, column by
        column."""
        self.ladder_witnesses(p, q, A)     # ValueError unless page-closed
        return self.cx.coords_against(self.basis[(p, q)], A, p, q)

    def differential(self, p, q, A):
        """Pure-form representatives of d_r applied to the classes of the
        columns of A, as a block in bidegree (p + r, q - r + 1)."""
        if self.r == 1:
            return self.cx.op("del", p, q) @ A
        last = self.ladder_witnesses(p, q, A)[-1]
        return self.cx.op("del", p + self.r - 1, q - self.r + 1) @ last


def spectral_page(model: LieModel, r: int) -> PageSummary:
    """One page of the filtration spectral sequence with its differential,
    memoised on the model per r: frozen, with read-only d_r matrices."""
    return _memo(model, ("spectral", r), lambda: _spectral_page(model, r))


def _spectral_page(model, r):
    data = _page(model, r)
    dims = {pq: Q.shape[1] for pq, Q in data.basis.items()}
    d_maps = {}
    for (p, q), Q in data.basis.items():
        tgt = (p + r, q - r + 1)
        D = (data.coordinates(*tgt, data.differential(p, q, Q))
             if dims.get(tgt) else np.zeros((0, Q.shape[1]), np.complex128))
        D.setflags(write=False)
        d_maps[(p, q)] = D
    degenerate = not any(D.size and np.max(np.abs(D)) > 1e-9
                         for D in d_maps.values())
    return PageSummary(r=r, dims=dims, d_maps=d_maps, degenerates=degenerate)


# ---------------------------------------------------------------------------
# the page-2 torsion class of a Hermitian-symplectic metric


@dataclass
class CohomClass:
    group: str
    bidegree: tuple
    representative: Form
    coordinates: np.ndarray

    def to_json(self):
        return {
            "group": self.group,
            "bidegree": list(self.bidegree),
            "coordinates": [[float(c.real), float(c.imag)]
                            for c in np.asarray(self.coordinates).ravel()],
        }


def e2_torsion_class(metric: Metric, torsion_report=None,
                     perturbation_seed: int = 11):
    """The obstruction class of the conjugate torsion form, with certificate.

    Returns (CohomClass, certificate dict).  The certificate holds either an
    explicit potential xi with dbar xi = rho02 (vanishing case), the
    metric-minimal one (the co-closed preimage of e2_obstruction minus its
    harmonic part), or a
    reference-orthogonal witness pairing nontrivially with rho02; plus the
    image of the class under the page-2 differential (must vanish) and a
    recomputation of the coordinates after a random admissible perturbation
    of the metric.  A precomputed torsion analysis may be injected through
    `torsion_report`; the perturbation recheck is skipped in that case,
    and its drift is None, as when no halving of the random bump keeps the
    metric positive.
    """
    model = metric.model
    _require_lie(model)
    injected = torsion_report is not None
    if not injected:
        try:
            torsion_report = torsion_form(metric)
        except NotFeasibleError as exc:
            raise NotHSError(str(exc)) from exc
    rho02 = torsion_report.rho02
    page, coords, vanishing = _e2_coordinates(metric, rho02)

    cx = page.cx
    certificate = {"vanishing": vanishing}
    if vanishing:
        xi, certificate["xi_residual"] = _dbar_preimage(metric, rho02,
                                                        coclosed=True)
        certificate["xi"] = xi - harmonic_project(metric, "dbar", xi)
    else:
        img = cx.orth(cx.op("dbar", 0, 1), 0, 2)
        w = cx.project_out(rho02.coeffs.reshape(-1, 1), img, 0, 2)[:, 0]
        w = w / max(np.linalg.norm(w), 1e-300)
        certificate["witness"] = Form(model, 0, 2, w)
        certificate["witness_pairing"] = complex(
            cx.coords_against(w.reshape(-1, 1), rho02.coeffs, 0, 2)[0])

    d2_rep = page.differential(0, 2, rho02.coeffs[:, None])
    d2_coords = (page.coordinates(2, 1, d2_rep) if page.dim(2, 1)
                 else np.zeros((0,), dtype=complex))
    certificate["d2_image_norm"] = float(np.linalg.norm(d2_coords))

    # independence of the representative metric inside the fixed class
    certificate["perturbed_coordinate_drift"] = None
    if not injected:
        rng = np.random.default_rng(perturbation_seed)
        d10 = cx.dim(1, 0)
        eta = Form(model, 1, 0,
                   0.05 * (rng.standard_normal(d10)
                           + 1j * rng.standard_normal(d10)))
        bump = differential("del", conjugate(eta)) + differential("dbar", eta)
        for _ in range(8):
            try:
                m2 = Metric(metric.omega + bump)
            except NotPositiveError:
                bump = 0.5 * bump
                continue
            coords2 = _e2_coordinates(m2, torsion_form(m2).rho02)[1]
            certificate["perturbed_coordinate_drift"] = float(
                np.linalg.norm(coords2 - coords))
            break

    return CohomClass("E_2", (0, 2), rho02, coords), certificate


def _e2_coordinates(metric: Metric, rho02: Form):
    """(page 2, page-2 coordinates of rho02, whether they vanish)."""
    page = _page(metric.model, 2)
    coords = page.coordinates(0, 2, rho02.coeffs[:, None])[:, 0]
    scale = max(1.0, norm(metric, rho02))
    return page, coords, bool(np.linalg.norm(coords) <= 1e-8 * scale)


# ---------------------------------------------------------------------------
# two-tower closedness / exactness


def er_closed_exact(form: Form, r: int = 2):
    """Joint tower membership: is the form page-r closed and/or exact?

    Closedness: deldbar-closed plus one del-absorbing tower and one
    dbar-absorbing tower of length r-1 each.  Exactness: a presentation
    form = del zeta + del dbar xi + dbar eta where zeta and eta carry their
    own (r-2)-step side towers ending in closedness.  Each is `member` of
    the system whose span gives the page-r tables (`_closed_system`,
    `_exact_system`): a residual of the whole system, the deldbar row of
    closedness included, at most _ER_TOL times the form's scale; the other
    blocks are returned as witnesses.
    """
    model = form.model
    _require_lie(model)
    if r not in (2, 3):
        raise ValueError("r = 2 or 3")
    cx = _complex(model)
    a = np.asarray(form.coeffs, dtype=np.complex128)[:, None]
    scale = max(1.0, float(np.linalg.norm(a)))
    out = {}
    for kind, build in (("closed", _closed_system), ("exact", _exact_system)):
        sys = build(cx, form.p, form.q, r)
        parts, res = sys.member(a)
        out[kind] = bool(res[0] <= _ER_TOL * scale)
        out[f"{kind}_residual"] = float(res[0]) / scale
        out[f"{kind}_witnesses"] = {
            nm: Form(model, *sys.pq[nm], x[:, 0]) for nm, x in parts.items()}
    return out


# ---------------------------------------------------------------------------
# higher-page Bott-Chern / Aeppli groups


@dataclass
class HigherPageTable:
    r: int
    bc_dims: np.ndarray
    a_dims: np.ndarray
    page_dims: np.ndarray
    t_iso: np.ndarray       # bool per (p,q): E_{r,BC} -> E_r bijective
    s_iso: np.ndarray       # bool per (p,q): E_r -> E_{r,A} bijective
    page_diagnostic: bool   # all comparison maps isomorphisms

    def to_json(self):
        return {
            "r": self.r,
            "bc_dims": self.bc_dims.tolist(),
            "a_dims": self.a_dims.tolist(),
            "page_dims": self.page_dims.tolist(),
            "page_diagnostic": self.page_diagnostic,
        }


def higher_page_groups(model: LieModel, r: int = 2) -> HigherPageTable:
    """Dims of the page-r Bott-Chern/Aeppli groups and the comparison maps.

    E_{r,BC} is the d-closed forms modulo the span of `_exact_system`, and
    E_{r,A} the span of `_closed_system` modulo im del + im dbar: the same
    systems `er_closed_exact` decides membership with.
    Memoised on the model per r; treat the table as read-only.
    """
    return _memo(model, ("higher", r), lambda: _higher_page_groups(model, r))


def _higher_page_groups(model, r):
    cx = _complex(model)
    n = cx.n
    page = _page(model, r)
    bc = np.zeros((n + 1, n + 1), dtype=int)
    ae = np.zeros((n + 1, n + 1), dtype=int)
    pg = np.zeros((n + 1, n + 1), dtype=int)
    t_iso = np.zeros((n + 1, n + 1), dtype=bool)
    s_iso = np.zeros((n + 1, n + 1), dtype=bool)
    for p in range(n + 1):
        for q in range(n + 1):
            pg[p, q] = page.dim(p, q)
            Z = _nullspace(np.vstack([cx.op("del", p, q),
                                      cx.op("dbar", p, q)]))
            Qbc = _quotient(cx, Z, _exact_system(cx, p, q, r).span(), p, q)
            bc[p, q] = Qbc.shape[1]
            Ba = np.hstack([cx.op("del", p - 1, q), cx.op("dbar", p, q - 1)])
            Qa = _quotient(cx, _closed_system(cx, p, q, r).span(), Ba, p, q)
            ae[p, q] = Qa.shape[1]
            # comparison maps on representatives
            T = page.coordinates(p, q, Qbc)
            S = cx.coords_against(Qa, page.basis[(p, q)], p, q)
            t_iso[p, q] = bc[p, q] == pg[p, q] == _rank(T)
            s_iso[p, q] = ae[p, q] == pg[p, q] == _rank(S)
    return HigherPageTable(
        r=r, bc_dims=bc, a_dims=ae, page_dims=pg,
        t_iso=t_iso, s_iso=s_iso,
        page_diagnostic=bool(np.all(t_iso) and np.all(s_iso)),
    )


# ---------------------------------------------------------------------------
# intersection number


@dataclass
class IntersectionResult:
    omega_tilde: Form          # d-closed (2,2)-representative
    u12: Form
    integral: float            # int omega_tilde ^ omega
    a_value: float
    residual: float            # |integral - 6 A|
    closure_residual: float
    stage2_residual: float

    def to_json(self):
        return {
            "integral": self.integral,
            "a_value": self.a_value,
            "residual": self.residual,
            "closure_residual": self.closure_residual,
            "stage2_residual": self.stage2_residual,
        }


def e2_intersection(metric: Metric, torsion_report=None) -> IntersectionResult:
    """Generalized volume as an intersection number (lie backend).

    Lifts the square completion Omega to a d-closed (2,2)-form in two steps,
    u12 of del dbar u12 = dbar Omega minimal in the reference norm (`_pinv`,
    memoised on the model), and integrates against the metric form: six
    times the generalized volume, whatever u12 (Stokes).  `torsion_report`
    may supply a precomputed torsion analysis to reuse (or to inject).
    """
    model = metric.model
    _require_lie(model)
    table = higher_page_groups(model, 2)
    if not table.page_diagnostic:
        raise HypothesisFailed("page-1 identity-map isomorphisms", table)
    if torsion_report is None:
        try:
            torsion_report = torsion_form(metric)
        except NotFeasibleError as exc:
            raise HypothesisFailed("hermitian-symplectic metric") from exc
    rho, rho02 = torsion_report.rho20, torsion_report.rho02
    page, coords, vanishing = _e2_coordinates(metric, rho02)
    if not vanishing:
        raise HypothesisFailed(
            "vanishing page-2 torsion class",
            CohomClass("E_2", (0, 2), rho02, coords),
        )

    cx = page.cx
    omega = metric.omega
    Omega = wedge(omega, omega) + 2.0 * wedge(rho, rho02)
    b = differential("dbar", Omega)
    u12 = Form(model, 1, 2, model.memo(("ddbar_pinv", 1, 2), lambda: _pinv(
        cx.op("del", 1, 3) @ cx.op("dbar", 1, 2))) @ b.coeffs)
    resid = norm(metric, differential("del", differential("dbar", u12)) - b)
    if resid > 1e-10 * max(1.0, norm(metric, b)):
        raise StageUnsolvable("stage-1 potential equation", resid)
    u21 = conjugate(u12)
    # the conjugated potential solves the second lift automatically
    stage2_res = float(np.linalg.norm(
        (differential("del", differential("dbar", u21))
         + differential("del", Omega)).coeffs))

    omega_tilde = Omega + differential("del", u12) + differential("dbar", u21)
    closure = float(np.linalg.norm(np.concatenate([
        differential("del", omega_tilde).coeffs.ravel(),
        differential("dbar", omega_tilde).coeffs.ravel(),
    ])))
    if closure > 1e-8 * max(1.0, float(np.linalg.norm(omega_tilde.coeffs))):
        raise RuntimeError(
            f"lifted representative is not d-closed (residual {closure:.2e})")

    val = integrate_top(wedge(omega_tilde, omega))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
        raise RuntimeError(f"intersection number unexpectedly complex: {val}")
    A = torsion_report.generalized_volume
    return IntersectionResult(
        omega_tilde=omega_tilde, u12=u12,
        integral=float(val.real), a_value=A,
        residual=abs(float(val.real) - 6.0 * A),
        closure_residual=closure,
        stage2_residual=stage2_res,
    )
