"""Linear-algebra cohomology of the invariant subcomplex.

Everything here runs on the lie backend only: the spaces involved are
finite-dimensional (at most 9 channels per bidegree), so kernels, images and
subquotients are ordinary numpy rank computations.  On the grid backend the
corresponding function-space objects reduce to the constants and add no
information, so those models are rejected.

Contents: the classical groups (de Rham, Dolbeault, Bott-Chern, Aeppli), the
spectral-filtration pages with their differentials (pure-form subquotient
model), the page-2 torsion obstruction class of a metric, the two-tower
closed/exact membership solvers, the higher-page Bott-Chern/Aeppli groups
with the identity-induced comparison maps, and the intersection-number
computation of the generalized volume.

All subquotients carry explicit orthonormal bases with respect to the flat
reference metric of the model, so class coordinates are reproducible across
calls and across metrics.

Every zig-zag tower (the page ladders, the side towers of page-exact forms,
the closed/exact membership towers) is laid out by one builder, `_zigzag`.
The metric-free objects (operator complex, page data per r, page-r
Bott-Chern/Aeppli tables) are memoised on the model, so a report builds
each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _basis
from .analysis import NotFeasibleError, torsion_form
from .forms import (Form, conjugate, differential, flat_metric_form,
                    integrate_top, wedge)
from .hodge import Metric, NotPositiveError, norm
from .lie import LieModel

_RANK_TOL = 1e-10


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


def _kept(s):
    """Mask of the singular values `s` (descending) counted into a rank."""
    return s > _RANK_TOL * max(1.0, s[0] if s.size else 0.0)


def _nullspace(M):
    M = np.asarray(M, dtype=np.complex128)
    if M.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(M)
    return vh[int(np.sum(_kept(s))):].conj().T


def _rank(M):
    M = np.asarray(M)
    if M.size == 0 or min(M.shape) == 0:
        return 0
    return int(np.sum(_kept(np.linalg.svd(M, compute_uv=False))))


def _lstsq(M, b):
    """Minimum-norm least squares with the achieved residual."""
    M = np.asarray(M, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if M.shape[1] == 0:
        return np.zeros((0,), dtype=np.complex128), float(np.linalg.norm(b))
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    return x, float(np.linalg.norm(M @ x - b))


class _BlockSystem:
    """Linear system over several form-valued unknowns.

    Variables are declared with their channel dimensions; each equation is a
    list of (variable name, coefficient matrix) pairs plus a right-hand side.
    The assembled matrix acts on the concatenation of the variables.
    """

    def __init__(self):
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
        self.rhs.append(np.zeros(rhs_dim, dtype=np.complex128)
                        if rhs is None else np.asarray(rhs, dtype=np.complex128))

    def assemble(self):
        mats = []
        for row, rdim in self.rows:
            mats.append(np.hstack([
                row.get(nm, np.zeros((rdim, self.dims[nm]), dtype=complex))
                for nm in self.names
            ]))
        M = (np.vstack(mats) if mats else
             np.zeros((0, sum(self.dims.values())), dtype=complex))
        return M, np.concatenate(self.rhs) if self.rhs else np.zeros(0, dtype=complex)

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
        tgt = _target(part, p, q)
        if self.dim(p, q) == 0 or self.dim(*tgt) == 0:
            return np.zeros((self.dim(*tgt), self.dim(p, q)),
                            dtype=np.complex128)
        return self.model.operator_matrix(part, p, q)

    def gram(self, p, q):
        d = self.dim(p, q)
        if d == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        return self.ref.gram(p, q)

    def orth(self, cols, p, q):
        """Reference-orthonormal basis of the column span, rank-revealed."""
        d = self.dim(p, q)
        cols = np.asarray(cols, dtype=np.complex128)
        if cols.ndim == 1:
            cols = cols[:, None]
        if d == 0 or cols.shape[1] == 0:
            return np.zeros((d, 0), dtype=np.complex128)
        L = np.linalg.cholesky(self.gram(p, q))
        u, s, _ = np.linalg.svd(L.conj().T @ cols, full_matrices=False)
        keep = _kept(s)
        if not np.any(keep):
            return np.zeros((d, 0), dtype=np.complex128)
        return np.linalg.solve(L.conj().T, u[:, keep])

    def project_out(self, cols, onb, p, q):
        """Remove the span of reference-orthonormal `onb` from each column."""
        if onb.shape[1] == 0 or cols.shape[1] == 0:
            return cols
        return cols - onb @ (onb.conj().T @ (self.gram(p, q) @ cols))

    def coords_against(self, onb, vec, p, q):
        if onb.shape[1] == 0:
            return np.zeros((0,), dtype=np.complex128)
        return onb.conj().T @ (self.gram(p, q) @ vec)


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
    """Dimension table of the four classical groups on the invariant complex."""
    cx = _complex(model)
    n = cx.n

    def total_d(k):
        """Matrix of d: A^k -> A^{k+1} in the concatenated channel basis."""
        src = [(p, k - p) for p in range(max(0, k - n), min(n, k) + 1)]
        tgt = [(p, k + 1 - p) for p in range(max(0, k + 1 - n), min(n, k + 1) + 1)]
        tpos = {pq: i for i, pq in enumerate(tgt)}
        cols = []
        for (p, q) in src:
            if not tgt:
                cols.append(np.zeros((0, cx.dim(p, q)), dtype=complex))
                continue
            blocks = [np.zeros((cx.dim(*t), cx.dim(p, q)), dtype=complex)
                      for t in tgt]
            if (p + 1, q) in tpos:
                blocks[tpos[(p + 1, q)]] = cx.op("del", p, q)
            if (p, q + 1) in tpos:
                blocks[tpos[(p, q + 1)]] = cx.op("dbar", p, q)
            cols.append(np.vstack(blocks))
        if not cols:
            return np.zeros((0, 0), dtype=complex)
        return np.hstack(cols)

    de_rham = []
    for k in range(2 * n + 1):
        dk = total_d(k)
        rank_prev = _rank(total_d(k - 1)) if k else 0
        de_rham.append(dk.shape[1] - _rank(dk) - rank_prev)

    dol = np.zeros((n + 1, n + 1), dtype=int)
    bc = np.zeros((n + 1, n + 1), dtype=int)
    ae = np.zeros((n + 1, n + 1), dtype=int)
    for p in range(n + 1):
        for q in range(n + 1):
            dol[p, q] = _quotient(
                cx, _nullspace(cx.op("dbar", p, q)),
                cx.op("dbar", p, q - 1), p, q).shape[1]
            ker_d = _nullspace(np.vstack([cx.op("del", p, q),
                                          cx.op("dbar", p, q)]))
            im_ddb = cx.op("del", p - 1, q) @ cx.op("dbar", p - 1, q - 1)
            bc[p, q] = _quotient(cx, ker_d, im_ddb, p, q).shape[1]
            ker_ddb = _nullspace(cx.op("del", p, q + 1) @ cx.op("dbar", p, q))
            im_sum = np.hstack([cx.op("del", p - 1, q),
                                cx.op("dbar", p, q - 1)])
            ae[p, q] = _quotient(cx, ker_ddb, im_sum, p, q).shape[1]

    duality = all(
        bc[p, q] == ae[n - p, n - q]
        for p in range(n + 1) for q in range(n + 1)
    )
    return ClassicalTable(de_rham=de_rham, dolbeault=dol, bott_chern=bc,
                          aeppli=ae, duality_ok=duality)


# ---------------------------------------------------------------------------
# spectral pages (pure-form subquotient model)


@dataclass
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
    orthogonal to the denominator.
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

    def ladder_witnesses(self, form: Form):
        """Solve the ladder for a concrete form; (None, residual) if the form
        is not page-closed."""
        p, q = form.p, form.q
        cx = self.cx
        a = np.asarray(form.coeffs, dtype=np.complex128)
        scale = max(1.0, float(np.linalg.norm(a)))
        dbar_res = float(np.linalg.norm(cx.op("dbar", p, q) @ a))
        sys = _BlockSystem()
        _zigzag(sys, cx, a, (p, q), [f"eta{i}" for i in range(1, self.r)],
                "del")
        M, b = sys.assemble()
        x, resid = _lstsq(M, b)
        resid = max(resid, dbar_res)
        if resid > 1e-8 * scale:
            return None, resid
        parts = sys.split(x)
        out = [Form(cx.model, p + i, q - i, parts[f"eta{i}"])
               for i in range(1, self.r)]
        return out, resid

    def coordinates(self, form: Form):
        """Coordinates of the class of a page-closed pure form."""
        witnesses, resid = self.ladder_witnesses(form)
        if witnesses is None:
            raise ValueError(
                f"form is not page-{self.r}-closed (ladder residual {resid:.2e})"
            )
        p, q = form.p, form.q
        return self.cx.coords_against(self.basis[(p, q)], form.coeffs, p, q)

    def differential(self, form: Form):
        """Pure-form representative of d_r applied to the class of `form`."""
        if self.r == 1:
            return differential("del", form)
        witnesses, resid = self.ladder_witnesses(form)
        if witnesses is None:
            raise ValueError(
                f"form is not page-{self.r}-closed (ladder residual {resid:.2e})"
            )
        return differential("del", witnesses[-1])


def spectral_page(model: LieModel, r: int) -> PageSummary:
    """One page of the filtration spectral sequence with its differential."""
    data = _page(model, r)
    dims = {pq: Q.shape[1] for pq, Q in data.basis.items()}
    d_maps = {}
    degenerate = True
    for (p, q), Q in data.basis.items():
        tgt = (p + r, q - r + 1)
        m_out = dims.get(tgt, 0)
        D = np.zeros((m_out, Q.shape[1]), dtype=np.complex128)
        if m_out:
            for j in range(Q.shape[1]):
                rep = data.differential(Form(model, p, q, Q[:, j].copy()))
                D[:, j] = data.coordinates(rep)
        d_maps[(p, q)] = D
        if D.size and np.max(np.abs(D)) > 1e-9:
            degenerate = False
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


def _min_norm_solve(metric: Metric, A, b, p_src, q_src):
    """Least-squares solve of A x = b with minimal metric-norm x."""
    if A.shape[1] == 0:
        return np.zeros((0,), dtype=complex), float(np.linalg.norm(b))
    L = np.linalg.cholesky(metric.gram(p_src, q_src))
    Aw = A @ np.linalg.inv(L.conj().T)
    y, resid = _lstsq(Aw, b)
    return np.linalg.solve(L.conj().T, y), resid


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
        x, resid = _min_norm_solve(metric, cx.op("dbar", 0, 1),
                                   rho02.coeffs, 0, 1)
        certificate["xi"] = Form(model, 0, 1, x)
        certificate["xi_residual"] = resid
    else:
        img = cx.orth(cx.op("dbar", 0, 1), 0, 2)
        w = cx.project_out(rho02.coeffs.reshape(-1, 1), img, 0, 2)[:, 0]
        w = w / max(np.linalg.norm(w), 1e-300)
        certificate["witness"] = Form(model, 0, 2, w)
        certificate["witness_pairing"] = complex(
            cx.coords_against(w.reshape(-1, 1), rho02.coeffs, 0, 2)[0])

    d2_rep = page.differential(rho02)
    d2_coords = (page.coordinates(d2_rep) if page.dim(2, 1)
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
        coords2 = page.coordinates(report2.rho02)
        certificate["perturbed_coordinate_drift"] = float(
            np.linalg.norm(coords2 - coords))

    return CohomClass("E_2", (0, 2), rho02, coords), certificate


def _e2_coordinates(metric: Metric, rho02: Form):
    """(page 2, page-2 coordinates of rho02, whether they vanish)."""
    page = _page(metric.model, 2)
    coords = page.coordinates(rho02)
    scale = max(1.0, norm(metric, rho02))
    return page, coords, bool(np.linalg.norm(coords) <= 1e-8 * scale)


# ---------------------------------------------------------------------------
# two-tower closedness / exactness


def er_closed_exact(form: Form, r: int = 2, tol: float = 1e-8):
    """Joint tower membership: is the form page-r closed and/or exact?

    Closedness: deldbar-closed plus one del-absorbing tower and one
    dbar-absorbing tower of length r-1 each.  Exactness: a presentation
    form = del zeta + del dbar xi + dbar eta where zeta and eta carry their
    own (r-2)-step side towers ending in closedness.  Both memberships are
    decided by stacked least-squares feasibility; witnesses are returned.
    """
    model = form.model
    _require_lie(model)
    if r not in (2, 3):
        raise ValueError("r = 2 or 3")
    cx = _complex(model)
    p, q = form.p, form.q
    a = np.asarray(form.coeffs, dtype=np.complex128)
    scale = max(1.0, float(np.linalg.norm(a)))

    ddbar_res = float(np.linalg.norm(
        cx.op("del", p, q + 1) @ cx.op("dbar", p, q) @ a))

    # -- closedness: eta_i in (p+i, q-i), rho_i in (p-i, q+i)
    towers = {"eta": "del", "rho": "dbar"}
    sys = _BlockSystem()
    for nm, part in towers.items():
        _zigzag(sys, cx, a, (p, q), [f"{nm}{i}" for i in range(1, r)], part)
    M, b = sys.assemble()
    x, tower_res = _lstsq(M, b)
    closed = (ddbar_res <= tol * scale) and (tower_res <= tol * scale)
    parts = sys.split(x)
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
    M2, b2 = sys.assemble()
    x2, exact_res = _lstsq(M2, b2)
    parts2 = sys.split(x2)
    exact_witnesses = {
        nm: Form(model, *bidegrees[nm], vec) for nm, vec in parts2.items()
    }

    return {
        "closed": bool(closed),
        "closed_residual": max(ddbar_res, tower_res) / scale,
        "closed_witnesses": closed_witnesses,
        "exact": bool(exact_res <= tol * scale),
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
            T = np.zeros((pg[p, q], bc[p, q]), dtype=complex)
            for j in range(bc[p, q]):
                T[:, j] = page.coordinates(Form(model, p, q, Qbc[:, j].copy()))
            PQ = page.basis[(p, q)]
            S = np.zeros((ae[p, q], pg[p, q]), dtype=complex)
            for j in range(pg[p, q]):
                S[:, j] = cx.coords_against(Qa, PQ[:, j], p, q)
            t_iso[p, q] = bool(bc[p, q] == pg[p, q] == _rank(T)) \
                if (bc[p, q] or pg[p, q]) else True
            s_iso[p, q] = bool(ae[p, q] == pg[p, q] == _rank(S)) \
                if (ae[p, q] or pg[p, q]) else True
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
    u_coef, resid = _min_norm_solve(metric, ddb, b.coeffs, 1, 2)
    if resid > 1e-10 * max(1.0, float(np.linalg.norm(b.coeffs))):
        raise StageUnsolvable("stage-1 potential equation", resid)
    u12 = Form(model, 1, 2, u_coef)
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
