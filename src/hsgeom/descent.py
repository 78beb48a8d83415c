"""Energy descent over an Aeppli class.

The torsion energy F of a hermitian-symplectic metric decreases fastest in
the direction u = dbar* omega: perturbing omega by t (del ubar + dbar u)
keeps the generalized volume A fixed and changes F at first order by
-2 t ||dbar* omega||^2.  Critical points of the descent are exactly the
Kahler metrics in the class, so the trace (energy, volume, gradient norm,
Kahler defect per step) is the deliverable, not a convergence theorem.

The step is closed-form.  A is constant along an admissible ray, so by
F + Vol = A minimizing F is maximizing Vol(t) = (1/6) int (omega + t gamma)^3.
With H and G the coefficient matrices of omega and gamma, polarisation of
the 3x3 determinant gives

    det(H + t G) = det H + t tr(adj H G) + t^2 tr(H adj G) + t^3 det G,

so Vol is a cubic whose coefficients are grid means of 8 times those terms,
each a closed form in the entries (hodge._minors, hodge._complement); no
pointwise LAPACK runs.  det(H + t G) = det H prod (1 + t lambda) over the
eigenvalues lambda of H^{-1} G, roots of the monic cubic
lambda^3 - a1 lambda^2 + a2 lambda - a3 with a_k the terms over det H, and
the positive cone ends at t_pos = min(-1/lambda) over lambda < 0.  The
least root is taken in Viete's trigonometric form and polished by one
Newton step, kept only where it lowers |p(lambda)|, because p' vanishes at
a repeated root.  There the cubic is ill-conditioned: round-off in its
coefficients moves the root by about sqrt(eps) of its size, so t_pos is
good to about 1e-8 relative at a repeated least root and to round-off
where it is simple, far inside the margin STEP_CAP leaves.  The step
maximizes Vol on (0, STEP_CAP * t_pos]; F is then recomputed from the
torsion system, which makes the conservation law a per-step check.

The gradient u, its norm and the Kahler defect ||d omega|| are memoised on
each metric, so a trace row and the closing certificate share them;
||del omega|| is the one analysis.del_omega_norm of the metric, and del
omega and dbar omega are its analysis.omega_differential.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis
from .forms import Form, conjugate, differential, real_part
from .hodge import (Metric, NotPositiveError, SolveDiverged, _complement,
                    _matrix_of_11, _minors, adjoint_diff, inner, norm)


class _LineSearchError(RuntimeError):
    def __init__(self, message, state=None, trace=None):
        super().__init__(message)
        self.state = state or {}
        self.trace = trace


class LineSearchStalled(_LineSearchError):
    """The best step along the ray gains no volume above round-off."""


class PositivityBoundary(_LineSearchError):
    """The metric form at the chosen step is not positive."""


STEP_CAP = 0.9             # largest step, as a fraction of the cone edge t_pos
_STALL_ULPS = 64           # volume gains below this many ulps of Vol stall
_KAHLER_BRIDGE = 10.0      # Kahler defect allowance per unit tol


@dataclass
class DescentOptions:
    tol: float = 1e-6                # stop when ||dbar* omega|| drops below
    max_iters: int = 200
    torsion_mode: str = "dim3"


@dataclass
class DescentTrace:
    iterates: list = field(default_factory=list)
    termination: str = "running"
    options: dict = field(default_factory=dict)

    def append(self, row):
        self.iterates.append(row)

    @property
    def final(self):
        return self.iterates[-1]

    _COLUMNS = ("k", "F", "vol", "gen_vol", "grad_norm", "d_omega_norm",
                "step", "armijo_trials", "slope_formula", "slope_secant",
                "slope_rel_err")

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self._COLUMNS)
        for row in self.iterates:
            w.writerow(["" if row.get(c) is None else repr(row.get(c))
                        for c in self._COLUMNS])
        return buf.getvalue()

    def to_json(self):
        return {
            "schema": 1,
            "termination": self.termination,
            "options": self.options,
            "iterates": self.iterates,
        }


@dataclass
class CriticalityCertificate:
    balanced_defect: float   # ||dbar* omega||
    skt_residual: float      # ||del dbar omega||
    kahler_defect: float     # ||d omega||
    tol: float
    kahler_tol: float
    critical: bool
    kahler: bool

    def to_json(self):
        return asdict(self)


@dataclass
class DescentResult:
    trace: DescentTrace
    metric: Metric
    certificate: CriticalityCertificate


def gradient_direction(metric: Metric) -> Form:
    """Steepest-descent direction u = dbar* omega (a (1,0)-form), memoised
    on the metric."""
    return metric.memo(("gradient",), lambda: adjoint_diff(
        metric, "dbar", metric.omega))


def _gradient_norm(metric: Metric) -> float:
    """||dbar* omega||, memoised on the metric."""
    return metric.memo(("gradient_norm",), lambda: float(
        norm(metric, gradient_direction(metric))))


def _d_norm(metric: Metric) -> float:
    """||d omega||, memoised on the metric."""
    return metric.memo(("d_norm",), lambda: float(np.sqrt(
        analysis.del_omega_norm(metric) ** 2
        + norm(metric, analysis.omega_differential(metric, "dbar")) ** 2)))


def certify_critical(metric: Metric,
                     tol: float = 1e-6) -> CriticalityCertificate:
    """Defect report at a candidate critical point.

    Criticality of the energy is equivalent to the balanced condition
    dbar* omega = 0; combined with the SKT identity (automatic for a
    hermitian-symplectic metric) it forces d omega = 0.  The Kahler defect
    is therefore asserted against _KAHLER_BRIDGE * tol rather than
    independently.
    """
    balanced = _gradient_norm(metric)
    skt = analysis.deldbar_omega_norm(metric)
    kahler = _d_norm(metric)
    kahler_tol = _KAHLER_BRIDGE * tol
    return CriticalityCertificate(
        balanced_defect=float(balanced),
        skt_residual=float(skt),
        kahler_defect=float(kahler),
        tol=float(tol),
        kahler_tol=float(kahler_tol),
        critical=bool(balanced < tol),
        kahler=bool(balanced < tol and kahler < kahler_tol),
    )


def _trace_product(A, B):
    """Re tr(A B) pointwise over two (*, 3, 3) stacks."""
    return np.einsum("...ij,...ji->...", A, B).real


def _least_root(a1, a2, a3):
    """Least root of the monic cubic p(x) = x^3 - a1 x^2 + a2 x - a3 with
    three real roots, pointwise: Viete's trigonometric form about the mean
    root s = a1 / 3, then one Newton step, kept only where it lowers |p|
    (a step dividing by p' ~ 0 at a repeated root is dropped)."""
    s = a1 / 3.0
    P = a2 - a1 * s                    # x = s + y: y^3 + P y + Q = 0
    Q = s * (a2 - 2.0 * s * s) - a3
    r = np.sqrt(np.maximum(-P / 3.0, 0.0))
    r3 = r ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        cos3 = np.clip(np.where(r3 > 0, -Q / (2.0 * r3), 0.0), -1.0, 1.0)
        x = s + 2.0 * r * np.cos((np.arccos(cos3) + 2.0 * np.pi) / 3.0)
        p = ((x - a1) * x + a2) * x - a3
        y = x - p / ((3.0 * x - 2.0 * a1) * x + a2)
        lower = np.abs(((y - a1) * y + a2) * y - a3) < np.abs(p)
    return np.where(lower, y, x)


def _cubic_terms(H, G):
    """tr(adj H G), tr(H adj G) and det G over two Hermitian (*, 3, 3)
    stacks: the coefficients of t, t^2 and t^3 in det(H + t G).  adj G is
    the complement of G's minors and det G a cofactor expansion along row
    0, because the pivots of hodge._adjugate need a positive definite
    matrix and G is indefinite."""
    adj_G = _complement(_minors(G))
    det_G = np.einsum("...j,...j->...", G[..., 0, :], adj_G[..., :, 0]).real
    return (_trace_product(_complement(_minors(H)), G),
            _trace_product(H, adj_G), det_G)


def _volume_polynomial(metric: Metric, gamma: Form):
    """Coefficients c_0..c_3 of Vol(omega + t gamma) in t, and t_pos (inf
    if gamma is nowhere negative), by polarisation (_cubic_terms) and the
    least root of the lambda-cubic (_least_root); see the module docstring.
    Where the least lambda is a repeated root, t_pos is good to about
    sqrt(eps) relative."""
    terms = (metric.detH, *_cubic_terms(metric.H, _matrix_of_11(gamma)))
    coeffs = np.array([metric.model.mean(8.0 * term).real for term in terms])
    lam = _least_root(*(term / metric.detH for term in terms[1:]))
    neg = lam[lam < 0]
    return coeffs, (float(np.min(-1.0 / neg)) if neg.size else np.inf)


def _best_step(coeffs, t_max):
    """(gain, t), the best volume gain on (0, t_max] at t_max or a critical
    point (real parts: near-double ones may be complex), else (0, 0)."""
    gain = np.polynomial.Polynomial(np.r_[0.0, coeffs[1:]])
    ts = [t for t in gain.deriv().roots().real if 0 < t <= t_max]
    ts += [t_max] if np.isfinite(t_max) else []
    return max(((float(gain(t)), float(t)) for t in ts), default=(0.0, 0.0))


def _row(k, metric, opts):
    """Trace row of iterate k, step columns blank."""
    rep = analysis.torsion_form(metric, mode=opts.torsion_mode)
    return {"k": k, "F": rep.energy, "vol": rep.volume,
            "gen_vol": rep.generalized_volume,
            "grad_norm": _gradient_norm(metric),
            "d_omega_norm": _d_norm(metric),
            "step": None, "armijo_trials": None, "slope_formula": None,
            "slope_secant": None, "slope_rel_err": None}


def descend(metric0: Metric, opts: DescentOptions = None) -> DescentResult:
    """Closed-form-step descent of the torsion energy in one Aeppli class.

    Rows record F, Vol, A, the gradient norm, the Kahler defect, the step
    and a secant/trapezoid check of the first-variation formula over it;
    `armijo_trials` (name kept) counts the one Metric each step builds.  A
    step that cannot be taken raises with the partial trace and state:
    LineSearchStalled if its volume gain is round-off, PositivityBoundary if
    its metric form is not positive.  A NotFeasibleError, or a SolveDiverged
    of the dbar (2,0) kernel that its torsion's minimality reads (a Ritz
    check on the invariant backend; the grid kernel is the constants), from
    a later iterate carries the trace too.
    """
    opts = opts or DescentOptions()
    trace = DescentTrace(options=asdict(opts))

    metric = metric0
    row = _row(0, metric, opts)
    trace.append(row)

    for k in range(opts.max_iters):
        if row["grad_norm"] < opts.tol:
            break
        u = gradient_direction(metric)
        # del ubar + dbar u is real identically; resymmetrising here keeps
        # roundoff skew from feeding back through u = dbar* omega, which
        # amplifies it geometrically along the iteration otherwise
        direction = real_part(differential("del", conjugate(u))
                              + differential("dbar", u))
        slope = -2.0 * float(np.real(inner(metric, u, u)))   # dF/dt at t=0

        coeffs, t_pos = _volume_polynomial(metric, direction)
        gain, t = _best_step(coeffs, STEP_CAP * t_pos)
        state = {"k": k, "grad_norm": row["grad_norm"], "step": t,
                 "t_pos": t_pos, "gain": gain, "slope": slope,
                 **{c: row[c] for c in ("F", "vol", "gen_vol")}}
        if not gain > _STALL_ULPS * np.finfo(float).eps * coeffs[0]:
            raise LineSearchStalled(
                f"volume gain {gain:.3e} is round-off at iterate {k}",
                state=state, trace=trace)
        try:
            accepted = Metric(real_part(metric.omega + t * direction))
        except NotPositiveError as exc:
            raise PositivityBoundary(
                f"step {t:.3e} leaves the positive cone at iterate {k}",
                state=state, trace=trace) from exc

        try:
            new_row = _row(k + 1, accepted, opts)
        except (analysis.NotFeasibleError, SolveDiverged) as exc:
            exc.trace = trace
            raise
        # slope of F along the old direction at the endpoint; the trapezoid
        # matches the secant exactly when Vol is quadratic along the ray
        slope_end = -2.0 * float(np.real(inner(
            accepted, u, gradient_direction(accepted))))
        secant = (new_row["F"] - row["F"]) / t
        trapezoid = 0.5 * (slope + slope_end)
        denom = max(abs(trapezoid), abs(secant), 1e-300)
        row.update(step=float(t), armijo_trials=1,
                   slope_formula=float(slope), slope_secant=float(secant),
                   slope_rel_err=float(abs(secant - trapezoid) / denom))

        metric, row = accepted, new_row
        trace.append(row)

    trace.termination = ("converged" if row["grad_norm"] < opts.tol
                         else "max_iters")
    cert = certify_critical(metric, opts.tol)
    return DescentResult(trace=trace, metric=metric, certificate=cert)
