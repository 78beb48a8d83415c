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

Every zig-zag tower (the page ladders, the side towers of page-exact forms,
the closed/exact membership towers) is laid out by one builder, `_zigzag`.
The metric-free objects (operator complex, page data and page summary per
r, page-r Bott-Chern/Aeppli tables, Betti numbers) are memoised on the
model, so a report builds each of them once; treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _basis
from .analysis import NotFeasibleError, torsion_form
from .forms import (Form, conjugate, differential, flat_metric_form,
                    integrate_top, wedge)
from .hodge import Metric, NotPositiveError, min_norm_lstsq, norm
from .lie import LieModel, _kept, _nullspace

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


def _lstsq(M, B):
    """Minimum-norm least squares M X = B with one residual per column."""
    M = np.asarray(M, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    X, *_ = np.linalg.lstsq(M, B, rcond=None)
    return X, np.linalg.norm(M @ X - B, axis=0)


class _BlockSystem:
    """Linear system over several form-valued unknowns.

    Variables are declared with their channel dimensions; each equation is a
    list of (variable name, coefficient matrix) pairs plus a right-hand side
    of k columns.  The assembled matrix acts on the concatenated variables.
    """

    def __init__(self, k=1):
        self.k = k
        self.names = []
        self.dims = {}
        self.rows = []
        self.rhs = []

    def variable(self, name, dim):
        self.names.append(name)
        self.dims[name] = dim

    def equation(self, entries, rhs_dim, rhs=None):
        row = {}
        for name, M in entries:
            row[name] = M if name not in row else row[name] + M
        self.rows.append((row, rhs_dim))
        self.rhs.append(np.zeros((rhs_dim, self.k), dtype=np.complex128)
                        if rhs is None else
                        np.asarray(rhs, dtype=np.complex128))

    def assemble(self):
        mats = []
        for row, rdim in self.rows:
            mats.append(np.hstack([
                row.get(nm, np.zeros((rdim, self.dims[nm]), dtype=complex))
                for nm in self.names
            ]))
        M = np.vstack([np.zeros((0, sum(self.dims.values())), complex)] + mats)
        return M, np.vstack([np.zeros((0, self.k), complex)] + self.rhs)

    def split(self, x):
        out, off = {}, 0
        for nm in self.names:
            d = self.dims[nm]
            out[nm] = x[off: off + d]
            off += d
        return out


def _target(part, p, q):
    return (p + 1, q) if part == "del" else (p, q + 1)


def _step(part, p, q, i=1):
    """Bidegree i zig-zag steps on from (p,q) along a tower of `part`."""
    return (p + i, q - i) if part == "del" else (p - i, q + i)


_BACK = {"del": "dbar", "dbar": "del"}


def _zigzag(sys, cx, x0, pq, names, part):
    """Append the tower part(x_{i-1}) = back(x_i) to a _BlockSystem.

    back is the other half of d.  x_0 sits in bidegree pq and is either a
    declared variable name or known coefficients, which go to the right-hand
    side; x_1, x_2, ... are declared here under `names`, one zig-zag step
    apart.  Returns the name and bidegree of the last tower form.
    """
    back = _BACK[part]
    for name in names:
        nxt = _step(part, *pq)
        sys.variable(name, cx.dim(*nxt))
        entries = [(name, -cx.op(back, *nxt))]
        rhs = None
        if isinstance(x0, str):
            entries.insert(0, (x0, cx.op(part, *pq)))
        else:
            rhs = -(cx.op(part, *pq) @ x0)
        sys.equation(entries, cx.dim(*_target(part, *pq)), rhs=rhs)
        x0, pq = name, nxt
    return x0, pq


def _ladder(cx, pq, steps, part):
    """Kernel of back(x_0) = 0 plus a `steps`-long tower of `part` from
    x_0 in bidegree pq, split into its blocks x0, x1, ..."""
    sys = _BlockSystem()
    sys.variable("x0", cx.dim(*pq))
    back = _BACK[part]
    sys.equation([("x0", cx.op(back, *pq))], cx.dim(*_target(back, *pq)))
    _zigzag(sys, cx, "x0", pq, [f"x{i}" for i in range(1, steps + 1)], part)
    return sys.split(_nullspace(sys.assemble()[0]))


def _side_image(cx, p, q, r, part):
    """Image under `part` (into bidegree (p,q)) of the forms that end a tower
    of r-2 steps of `part` started from a form killed by the other half of d.

    For part='del' and r=3: del x1 with dbar x0 = 0, del x0 = dbar x1.
    """
    src = (p - 1, q) if part == "del" else (p, q - 1)
    tower = _ladder(cx, _step(part, *src, 2 - r), r - 2, part)
    return cx.op(part, *src) @ tower[f"x{r - 2}"]


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
    """Operator matrices and the reference inner product of one model."""

    def __init__(self, model: LieModel):
        self.model = model
        self.n = model.n
        self.ref = Metric(flat_metric_form(model))

    def dim(self, p, q):
        return _basis.degree_dims(self.n, p, q)

    def op(self, part, p, q):
        return self.model.operator_matrix(part, p, q)

    def orth(self, cols, p, q):
        """Reference-orthonormal basis of the column span, rank-revealed."""
        L = self.ref.gram_cholesky(p, q)
        u, s, _ = np.linalg.svd(L.conj().T @ np.asarray(cols, np.complex128),
                                full_matrices=False)
        return np.linalg.solve(L.conj().T, u[:, _kept(s)])

    def project_out(self, cols, onb, p, q):
        """Remove the span of reference-orthonormal `onb` from each column."""
        return cols - onb @ (onb.conj().T @ (self.ref.gram(p, q) @ cols))

    def coords_against(self, onb, vecs, p, q):
        return onb.conj().T @ (self.ref.gram(p, q) @ vecs)


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
        sys = _BlockSystem()           # d: A^k -> A^{k+1}, blocks by p
        for p in range(max(0, k - n), min(n, k) + 1):
            sys.variable(p, cx.dim(p, k - p))
        for p in range(max(0, k + 1 - n), min(n, k + 1) + 1):
            sys.equation([(s, cx.op(part, s, k - s))
                           for part, s in (("del", p - 1), ("dbar", p))
                           if s in sys.dims], cx.dim(p, k + 1 - p))
        M = sys.assemble()[0]
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
                X = _ladder(cx, (p, q), r - 1, "del")["x0"]
                D = [cx.op("dbar", p, q - 1)]
                if r > 1:
                    D.append(_side_image(cx, p, q, r, "del"))
                self.basis[(p, q)] = _quotient(cx, X, np.hstack(D), p, q)

    # -- classes ---------------------------------------------------------

    def dim(self, p, q):
        return self.basis[(p, q)].shape[1]

    def ladder_witnesses(self, p, q, A):
        """The witness blocks eta_1 .. eta_{r-1} of the ladder of A;
        ValueError if a column is not page-closed."""
        cx = self.cx
        A = np.asarray(A, dtype=np.complex128)
        sys = _BlockSystem(A.shape[1])
        names = [f"eta{i}" for i in range(1, self.r)]
        _zigzag(sys, cx, A, (p, q), names, "del")
        X, resid = _lstsq(*sys.assemble())
        resid = np.maximum(resid, np.linalg.norm(cx.op("dbar", p, q) @ A,
                                                 axis=0))
        bad = resid > 1e-8 * np.maximum(1.0, np.linalg.norm(A, axis=0))
        if np.any(bad):
            raise ValueError(f"form is not page-{self.r}-closed "
                             f"(ladder residual {resid[bad].max():.2e})")
        parts = sys.split(X)
        return [parts[nm] for nm in names]

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
    explicit potential xi with dbar xi = rho02 (vanishing case) or a
    reference-orthogonal witness pairing nontrivially with rho02; plus the
    image of the class under the page-2 differential (must vanish) and a
    recomputation of the coordinates after a random admissible perturbation
    of the metric.  A precomputed torsion analysis may be injected through
    `torsion_report`; the perturbation recheck is skipped in that case.
    """
    model = metric.model
    _require_lie(model)
    injected = torsion_report is not None
    if not injected:
        try:
            torsion_report = torsion_form(metric, mode="dim3")
        except NotFeasibleError as exc:
            raise NotHSError(str(exc)) from exc
    rho02 = torsion_report.rho02
    page, coords, vanishing = _e2_coordinates(metric, rho02)

    cx = page.cx
    certificate = {"vanishing": vanishing}
    if vanishing:
        certificate["xi"], certificate["xi_residual"], *_ = min_norm_lstsq(
            metric, (0, 1), [((0, 2), cx.op("dbar", 0, 1), rho02.coeffs)])
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
    if injected:
        certificate["perturbed_coordinate_drift"] = None
    else:
        rng = np.random.default_rng(perturbation_seed)
        d10 = cx.dim(1, 0)
        eta = Form(model, 1, 0,
                   0.05 * (rng.standard_normal(d10)
                           + 1j * rng.standard_normal(d10)))
        bump = differential("del", conjugate(eta)) + differential("dbar", eta)
        m2 = metric
        for _ in range(8):
            try:
                m2 = Metric(metric.omega + bump)
                break
            except NotPositiveError:
                bump = 0.5 * bump
        report2 = torsion_form(m2, mode="dim3")
        coords2 = page.coordinates(0, 2, report2.rho02.coeffs[:, None])[:, 0]
        certificate["perturbed_coordinate_drift"] = float(
            np.linalg.norm(coords2 - coords))

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
    own (r-2)-step side towers ending in closedness.  Both memberships are
    decided by stacked least-squares feasibility, a residual at most
    _ER_TOL times the form's scale; witnesses are returned.
    """
    model = form.model
    _require_lie(model)
    if r not in (2, 3):
        raise ValueError("r = 2 or 3")
    cx = _complex(model)
    p, q = form.p, form.q
    a = np.asarray(form.coeffs, dtype=np.complex128)[:, None]
    scale = max(1.0, float(np.linalg.norm(a)))

    ddbar_res = float(np.linalg.norm(
        cx.op("del", p, q + 1) @ cx.op("dbar", p, q) @ a))

    # -- closedness: eta_i in (p+i, q-i), rho_i in (p-i, q+i)
    towers = {"eta": "del", "rho": "dbar"}
    sys = _BlockSystem()
    for nm, part in towers.items():
        _zigzag(sys, cx, a, (p, q), [f"{nm}{i}" for i in range(1, r)], part)
    x, res = _lstsq(*sys.assemble())
    tower_res = float(res[0])
    tol = _ER_TOL * scale
    closed = ddbar_res <= tol and tower_res <= tol
    parts = sys.split(x[:, 0])
    closed_witnesses = {
        f"{nm}{i}": Form(model, *_step(part, p, q, i), parts[f"{nm}{i}"])
        for nm, part in towers.items() for i in range(1, r)
    }

    # -- exactness: alpha = del zeta + del dbar xi + dbar eta, side towers
    # zeta -> v0 and eta -> u0 of r-2 steps, each ending closed
    bidegrees = {"zeta": (p - 1, q), "xi": (p - 1, q - 1), "eta": (p, q - 1),
                 "v0": (p - 2, q + 1), "u0": (p + 1, q - 2)}
    sys = _BlockSystem()
    for nm in ("zeta", "xi", "eta"):
        sys.variable(nm, cx.dim(*bidegrees[nm]))
    sys.equation(
        [("zeta", cx.op("del", p - 1, q)),
         ("xi", cx.op("del", p - 1, q) @ cx.op("dbar", p - 1, q - 1)),
         ("eta", cx.op("dbar", p, q - 1))],
        cx.dim(p, q), rhs=a,
    )
    for x0, side, part in (("zeta", "v0", "dbar"), ("eta", "u0", "del")):
        last, pq = _zigzag(sys, cx, x0, bidegrees[x0], [side][:r - 2], part)
        sys.equation([(last, cx.op(part, *pq))], cx.dim(*_target(part, *pq)))
    x2, res = _lstsq(*sys.assemble())
    exact_res = float(res[0])
    parts2 = sys.split(x2[:, 0])
    exact_witnesses = {
        nm: Form(model, *bidegrees[nm], vec) for nm, vec in parts2.items()
    }

    return {
        "closed": bool(closed),
        "closed_residual": max(ddbar_res, tower_res) / scale,
        "closed_witnesses": closed_witnesses,
        "exact": bool(exact_res <= tol),
        "exact_residual": exact_res / scale,
        "exact_witnesses": exact_witnesses,
    }


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


def _er_exact_span(cx: _Complex, p, q, r):
    """Column span of the page-r exact forms in bidegree (p,q)."""
    # r = 1 keeps only the deldbar-image: the side witnesses carry r-1
    # closedness conditions each and disappear entirely on the first page,
    # so E_{1,BC} is the classical Bott-Chern group.
    parts = [cx.op("del", p - 1, q) @ cx.op("dbar", p - 1, q - 1)]
    if r > 1:
        parts += [_side_image(cx, p, q, r, "del"),
                  _side_image(cx, p, q, r, "dbar")]
    return np.hstack(parts)


def _er_closed_span(cx: _Complex, p, q, r):
    """Column span of the page-r closed forms in bidegree (p,q)."""
    d = cx.dim(p, q)
    sys = _BlockSystem()
    sys.variable("alpha", d)
    sys.equation([("alpha", cx.op("del", p, q + 1) @ cx.op("dbar", p, q))],
                 cx.dim(p + 1, q + 1))
    for nm, part in (("eta", "del"), ("rho", "dbar")):
        _zigzag(sys, cx, "alpha", (p, q), [f"{nm}{i}" for i in range(1, r)],
                part)
    M, _ = sys.assemble()
    return _nullspace(M)[:d, :]


def higher_page_groups(model: LieModel, r: int = 2) -> HigherPageTable:
    """Dims of the page-r Bott-Chern/Aeppli groups and the comparison maps.

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
            Qbc = _quotient(cx, Z, _er_exact_span(cx, p, q, r), p, q)
            bc[p, q] = Qbc.shape[1]
            Ba = np.hstack([cx.op("del", p - 1, q), cx.op("dbar", p, q - 1)])
            Qa = _quotient(cx, _er_closed_span(cx, p, q, r), Ba, p, q)
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

    Lifts the square completion of the metric to a d-closed (2,2)-form in two
    minimal steps and integrates against the metric form; the result must be
    six times the generalized volume.  `torsion_report` may supply a
    precomputed torsion analysis to reuse (or to inject in tests).
    """
    model = metric.model
    _require_lie(model)
    table = higher_page_groups(model, 2)
    if not table.page_diagnostic:
        raise HypothesisFailed("page-1 identity-map isomorphisms", table)
    if torsion_report is None:
        try:
            torsion_report = torsion_form(metric, mode="dim3")
        except NotFeasibleError as exc:
            raise HypothesisFailed("hermitian-symplectic metric",
                                   exc.certificate) from exc
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
    ddb = cx.op("del", 1, 3) @ cx.op("dbar", 1, 2)
    u12, resid, nb, _ = min_norm_lstsq(metric, (1, 2),
                                       [((2, 3), ddb, b.coeffs)])
    if resid > 1e-10 * max(1.0, nb):
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
