"""Energy descent over an Aeppli class.

The torsion energy F of a hermitian-symplectic metric decreases fastest in
the direction u = dbar* omega: perturbing omega by t (del ubar + dbar u)
keeps the generalized volume A fixed and changes F at first order by
-2 t ||dbar* omega||^2.  Critical points of the descent are exactly the
Kahler metrics in the class, so the trace (energy, volume, gradient norm,
Kahler defect per step) is the deliverable, not a convergence theorem.

The line search exploits the conservation law F + Vol = A: along an
admissible direction A is constant, so minimizing F is the same as
maximizing the ordinary volume, which costs one determinant per trial
instead of a torsion solve.  Accepted iterates recompute F from the torsion
system, which turns the conservation law into a per-step cross-check.

Positivity is handled by the same backtracking: a trial step whose metric
form is not positive is shrunk like one that fails the Armijo test.  The
search gives up below a step of _MIN_STEP, with PositivityBoundary if no
trial at all was positive (the iterate sits on the boundary of the cone
along its descent direction) and LineSearchStalled otherwise.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis
from .forms import Form, conjugate, differential, real_part
from .hodge import Metric, NotPositiveError, adjoint_diff, inner, norm


class _LineSearchError(RuntimeError):
    def __init__(self, message, state=None, trace=None):
        super().__init__(message)
        self.state = state or {}
        self.trace = trace


class LineSearchStalled(_LineSearchError):
    """Some trial steps were positive, but none passed the Armijo test."""


class PositivityBoundary(_LineSearchError):
    """No trial step down to _MIN_STEP gave a positive metric form."""


_MIN_STEP = 1e-12          # smallest trial step of the line search
_KAHLER_BRIDGE = 10.0      # Kahler defect allowance per unit tol


@dataclass
class DescentOptions:
    tol: float = 1e-6                # stop when ||dbar* omega|| drops below
    max_iters: int = 200
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    torsion_mode: str = "dim3"

    def initial_step(self, grad_norm):
        return 1.0 / (1.0 + grad_norm)


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

    def column(self, key):
        return [row.get(key) for row in self.iterates]

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
    """Steepest-descent direction u = dbar* omega (a (1,0)-form)."""
    return adjoint_diff(metric, "dbar", metric.omega)


def _d_norm(metric: Metric) -> float:
    do = differential("del", metric.omega)
    dbo = differential("dbar", metric.omega)
    return float(np.sqrt(norm(metric, do) ** 2 + norm(metric, dbo) ** 2))


def certify_critical(metric: Metric,
                     tol: float = 1e-6) -> CriticalityCertificate:
    """Defect report at a candidate critical point.

    Criticality of the energy is equivalent to the balanced condition
    dbar* omega = 0; combined with the SKT identity (automatic for a
    hermitian-symplectic metric) it forces d omega = 0.  The Kahler defect
    is therefore asserted against _KAHLER_BRIDGE * tol rather than
    independently.
    """
    u = gradient_direction(metric)
    balanced = norm(metric, u)
    skt = norm(metric, differential(
        "del", differential("dbar", metric.omega)))
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


def _row(k, metric, opts):
    """Trace row of iterate k, step columns blank, with u and ||u||."""
    rep = analysis.torsion_form(metric, mode=opts.torsion_mode)
    u = gradient_direction(metric)
    g = norm(metric, u)
    row = {"k": k, "F": rep.energy, "vol": rep.volume,
           "gen_vol": rep.generalized_volume, "grad_norm": float(g),
           "d_omega_norm": _d_norm(metric),
           "step": None, "armijo_trials": None, "slope_formula": None,
           "slope_secant": None, "slope_rel_err": None}
    return row, u, g


def descend(metric0: Metric, opts: DescentOptions = None) -> DescentResult:
    """Backtracking descent of the torsion energy inside one Aeppli class.

    Each iterate records energy, volume, generalized volume, gradient norm,
    Kahler defect, the accepted step, and a secant/derivative cross-check of
    the first-variation formula over the accepted step.  The line search
    opens at opts.initial_step and multiplies by opts.backtrack after every
    trial that is not positive or fails the Armijo test.  When no trial down
    to _MIN_STEP is accepted it raises, with the partial trace attached:
    PositivityBoundary if none of the trials was positive, LineSearchStalled
    if some were but none passed the Armijo test.
    """
    opts = opts or DescentOptions()
    trace = DescentTrace(options={
        "tol": opts.tol, "max_iters": opts.max_iters,
        "armijo_c1": opts.armijo_c1, "backtrack": opts.backtrack,
        "min_step": _MIN_STEP, "torsion_mode": opts.torsion_mode,
    })

    metric = metric0
    row, u, g = _row(0, metric, opts)
    trace.append(row)

    for k in range(opts.max_iters):
        if g < opts.tol:
            break
        # del ubar + dbar u is real identically; resymmetrising here keeps
        # roundoff skew from feeding back through u = dbar* omega, which
        # amplifies it geometrically along the iteration otherwise
        direction = real_part(differential("del", conjugate(u))
                              + differential("dbar", u))
        slope = -2.0 * float(np.real(inner(metric, u, u)))   # dF/dt at t=0

        # Armijo on the volume surrogate: A is constant along the direction,
        # so F(t) <= F - c1 t |slope|  <=>  Vol(t) >= Vol + c1 t |slope|.
        t = opts.initial_step(g)
        trials = 0
        positive = False
        accepted = None
        while t >= _MIN_STEP:
            trials += 1
            try:
                cand = Metric(real_part(metric.omega + t * direction))
            except (NotPositiveError, ValueError):
                t *= opts.backtrack
                continue
            positive = True
            if cand.volume >= row["vol"] - opts.armijo_c1 * t * slope:
                accepted = cand
                break
            t *= opts.backtrack
        if accepted is None:
            error, why = ((LineSearchStalled, "no Armijo step") if positive
                          else (PositivityBoundary, "no positive step"))
            raise error(
                f"{why} above {_MIN_STEP:.3e} at iterate {k}",
                state={"k": k, "grad_norm": g, "t_last": t, "slope": slope,
                       "F": row["F"], "vol": row["vol"],
                       "gen_vol": row["gen_vol"]},
                trace=trace,
            )

        new_row, new_u, new_g = _row(k + 1, accepted, opts)
        # slope of F along the *old* direction at the accepted endpoint;
        # the trapezoid of the endpoint slopes matches the secant exactly
        # for the cubic volume restricted to the ray
        slope_end = -2.0 * float(np.real(inner(accepted, u, new_u)))
        secant = (new_row["F"] - row["F"]) / t
        trapezoid = 0.5 * (slope + slope_end)
        denom = max(abs(trapezoid), abs(secant), 1e-300)
        row.update(step=float(t), armijo_trials=trials,
                   slope_formula=float(slope), slope_secant=float(secant),
                   slope_rel_err=float(abs(secant - trapezoid) / denom))

        metric, row, u, g = accepted, new_row, new_u, new_g
        trace.append(row)

    trace.termination = "converged" if g < opts.tol else "max_iters"
    cert = certify_critical(metric, opts.tol)
    return DescentResult(trace=trace, metric=metric, certificate=cert)
