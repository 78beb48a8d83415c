"""Torsion analysis of Hermitian-symplectic and pluriclosed metrics.

The central objects: for a metric form omega whose associated d-closed
completion exists, the (2,0) torsion form rho solves

    del rho = 0,   dbar rho = -del omega,

with minimal metric L2 norm.  On top of rho sit the torsion energy
F = ||rho||^2, the generalized volume A = F + Vol, the co-closedness energy
of the conjugate torsion, a metric classification with its pointwise sign
field, the positive square-root completion of omega^2 + 2 rho ^ conj(rho),
perturbations which move omega inside its generalized-volume class, and the
first variation of all three functionals.

Every derived number that admits two independent formulas is computed both
ways and cross-asserted; disagreement raises instead of warning.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _basis
from .forms import (Form, coeff_norm, conjugate, differential,
                    integrate_top, wedge)
from .hodge import (_POS_TOL, Metric, SolveDiverged, _adjugate, _apply,
                    _positive, _trailing, adjoint_diff, contract,
                    contract_trace, form_of_11, green_solve, harmonic_basis,
                    harmonic_project, inner, laplacian, norm, pointwise_inner)
from .lie import torsion_solve

TORSION_MODES = ("dim3", "skt")


class NotFeasibleError(RuntimeError):
    """No torsion form satisfies the constraints at tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class NotSKTError(NotFeasibleError):
    """skt torsion mode called on a metric with deldbar omega != 0: the
    pluriclosed gate fails, an honest negative like any infeasible torsion
    system, with the norm of deldbar omega as its residual."""


class RootFailure(RuntimeError):
    """Positive square root of a (2,2)-form does not exist."""

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


def _default_tol(model) -> float:
    return 1e-9 if model.kind == "lie" else 1e-7


def _real_integral(value: complex, tol=1e-8, what="integral") -> float:
    if abs(value.imag) > tol * max(1.0, abs(value.real)):
        raise RuntimeError(f"{what} unexpectedly complex: {value}")
    return float(value.real)


# ---------------------------------------------------------------------------
# torsion


@dataclass
class TorsionReport:
    mode: str
    rho20: Form
    rho02: Form
    energy: float                     # F = ||rho||^2
    volume: float
    generalized_volume: float         # A = F + Vol
    dv_mass: float | None
    g_energy: float | None
    g_marker: str | None
    residuals: dict
    diagnostics: dict
    tolerances: dict

    def to_json(self):
        return {
            "mode": self.mode,
            "F": self.energy,
            "Vol": self.volume,
            "A": self.generalized_volume,
            "dv_mass": self.dv_mass,
            "G": self.g_energy,
            "G_marker": self.g_marker,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "diagnostics": {
                k: (float(v) if np.isscalar(v) else v)
                for k, v in self.diagnostics.items()
            },
            "tolerances": self.tolerances,
        }


def torsion_least_squares(metric: Metric) -> Form:
    """Minimal-norm least squares of A rho = b = (0, -del omega), A = (del,
    dbar) on (2,0), in the metric norms: the oracle for torsion_form.  Exact
    on the invariant backend (lie.torsion_solve); on the grid CGLS from rho
    = 0, with A* = P^{-1} A^H Q (Q the "pairing" factor times the density on
    a target, A^H the flat adjoint by spectral_adjoint, P^{-1} the "inverse"
    factor over the density), to ||A*(b - A rho)|| <= 1e-14 ||A* b||, else
    SolveDiverged after max(50, 10 sqrt(points)) steps or on a curvature
    <= 0.  No Green operator, harmonic projection, star or 1/|zbh|^2 runs."""
    model = metric.model
    if model.kind == "lie":
        return torsion_solve(metric)[0]
    axes, pts = model.spectral_axes, math.prod(model.grid_shape)
    targets = (("del", 3, 0), ("dbar", 2, 1))

    def weigh(ys):                      # Q y on each target
        return [_apply(metric, "pairing", p, q, y[None])[0] * metric.density
                for (_, p, q), y in zip(targets, ys)]

    def normal(Qr):                     # A* r from Q r, and ||A* r||^2
        u = np.fft.ifftn(sum(model.spectral_adjoint(
            part, 2, 0, np.fft.fftn(y, axes=axes))
            for (part, *_), y in zip(targets, Qr)), axes=axes)
        s = _apply(metric, "inverse", 2, 0, u[None])[0] / metric.density
        return s, np.vdot(s, u).real / pts

    Qr = weigh([np.zeros((1,) + model.grid_shape),
                -omega_differential(metric, "del").coeffs])
    direction, gamma = normal(Qr)
    x, gamma0 = np.zeros_like(direction), gamma
    cap = max(50, int(10 * math.sqrt(pts)))
    for it in range(cap + 1):
        if gamma <= 1e-28 * gamma0:     # ||A* r|| <= 1e-14 ||A* b||
            return Form(model, 2, 0, x)
        if it == cap:
            raise SolveDiverged(f"cgls hit the iteration cap {cap} at "
                                f"{math.sqrt(gamma / gamma0):.2e} relative")
        Ad = [model.apply_differential(part, 2, 0, direction)
              for part, *_ in targets]
        QAd = weigh(Ad)
        curvature = sum(np.vdot(y, Qy).real for y, Qy in zip(Ad, QAd)) / pts
        if not curvature > 0.0:
            raise SolveDiverged(f"cgls curvature {curvature:.2e} <= 0")
        x = x + gamma / curvature * direction
        Qr = [Qy - gamma / curvature * Qz for Qy, Qz in zip(Qr, QAd)]
        s, gamma_new = normal(Qr)
        direction, gamma = s + gamma_new / gamma * direction, gamma_new


def torsion_form(metric: Metric, mode: str = "dim3",
                 tol: float = None) -> TorsionReport:
    """Minimal torsion form: one extraction, one verdict, two modes.

    The verdict, one on both backends, comes before any kernel: the
    constraint residuals of _torsion_start must be at most tol.  A metric
    that passes goes on to _torsion_core, and minimality is read against
    the dbar (2,0) kernel in both modes.  In dimension 3 this rho is also
    the Bott-Chern-minimal torsion (_torsion_core).  The modes differ in
    their gate:

    dim3:   none
    skt:    the metric must be pluriclosed first, and only
            Im(dbar*)-minimality is claimed.

    A successful report is memoised on the metric per (mode, tol), tol
    resolved to the backend default first: treat it as read-only.  A failure
    is raised on every call, from the one memoised first stage.
    """
    if mode not in TORSION_MODES:
        raise ValueError(f"unknown torsion mode {mode!r}")
    if tol is None:
        tol = _default_tol(metric.model)
    return metric.memo(("torsion", mode, tol),
                       lambda: _torsion_form(metric, mode, tol))


def omega_differential(metric: Metric, part: str) -> Form:
    """del omega (part "del") or dbar omega (part "dbar"), memoised on the
    metric, so that every report section and descent step shares one
    differential of omega per part: treat it as read-only."""
    return metric.memo(("d_omega", part),
                       lambda: differential(part, metric.omega))


def del_omega_norm(metric: Metric) -> float:
    """||del omega||, memoised on the metric."""
    return metric.memo(("del_omega_norm",), lambda: norm(
        metric, omega_differential(metric, "del")))


def deldbar_omega_norm(metric: Metric) -> float:
    """||del dbar omega||, memoised on the metric: the pluriclosed residual
    of the classification, of the skt gate and of a descent certificate."""
    return metric.memo(("deldbar_omega_norm",), lambda: norm(
        metric, differential("del", omega_differential(metric, "dbar"))))


def _torsion_start(metric: Metric):
    """(rho0, residuals), memoised on the metric: rho0 = -x, x the dbar
    preimage of del omega (_dbar_preimage), with ||del rho0|| and
    ||dbar rho0 + del omega||, each over max(1, ||del omega||).  dbar on
    (2,0) is metric-free, so no kernel, Gram root or least squares runs."""
    def build():
        x, r_dbar = _dbar_preimage(metric, omega_differential(metric, "del"))
        scale = max(1.0, del_omega_norm(metric))
        return -x, {"del_rho": norm(metric, differential("del", x)) / scale,
                    "dbar_rho_plus_del_omega": r_dbar / scale}
    return metric.memo(("torsion_start",), build)


def _torsion_core(metric: Metric) -> TorsionReport:
    """rho = rho0 - H''(rho0) of _torsion_start, with F and the residuals of
    rho0, which are those of rho: in dimension 3 every holomorphic 2-form is
    d-closed.  None depends on the mode or on tol (left empty).  For the
    same reason rho is also the Bott-Chern-minimal torsion: a del-exact
    holomorphic (3,0)-form has zero L2 norm, so del rho = 0, and
    ker del ^ ker dbar = ker dbar on (2,0)."""
    rho0, residuals = _torsion_start(metric)
    rho = rho0 - harmonic_project(metric, "dbar", rho0)
    F = inner(metric, rho, rho).real
    return TorsionReport(
        mode=None, rho20=rho, rho02=conjugate(rho),
        energy=F, volume=metric.volume, generalized_volume=F + metric.volume,
        dv_mass=None, g_energy=None, g_marker=None, residuals=residuals,
        diagnostics={}, tolerances={})


def _torsion_form(metric: Metric, mode: str, tol: float) -> TorsionReport:
    if mode == "skt":
        r = deldbar_omega_norm(metric)
        if r > tol * max(1.0, norm(metric, metric.omega)):
            raise NotSKTError(
                f"deldbar omega has norm {r:.3e}; not pluriclosed at {tol:.1e}",
                residuals={"deldbar_omega": r})

    constraints = _torsion_start(metric)[1]
    if max(constraints.values()) > tol:
        raise NotFeasibleError(
            "torsion constraints violated (del: {del_rho:.3e}, dbar: "
            "{dbar_rho_plus_del_omega:.3e})".format(**constraints),
            residuals=constraints)

    core = metric.memo(("torsion_core",), lambda: _torsion_core(metric))
    residuals = dict(core.residuals,
                     minimality=_harmonic_norm_20(metric, core.rho20))
    dn = del_omega_norm(metric)
    return dataclasses.replace(
        core, mode=mode, residuals=residuals, tolerances={"constraint": tol},
        diagnostics={"del_omega_norm": dn, "f_zero_implies_del_omega":
                     dn if core.energy < tol else None})


def _harmonic_norm_20(metric: Metric, a: Form) -> float:
    """||harmonic part of the (2,0)-form a|| = |(<<a, h_j>>)_j| over the
    orthonormal dbar-harmonic basis h_j, by the wedge route, independent of
    the Gram pairing that harmonic_project uses: a (2,0)-form is primitive,
    so star conj h = omega ^ conj h and <<a, h>> = int a ^ omega ^ conj h.  One
    wedge b = a ^ omega, its (3,1) channels laid on the (0,2) channels of
    conj h by the wedge table, and one contraction with the basis block."""
    K = harmonic_basis(metric, "dbar", 2, 0).block
    b = wedge(a, metric.omega).coeffs
    perm, s = _basis.conjugation(3, 2, 0)   # (conj h)[c] = s conj(h[perm[c]])
    B = np.zeros_like(b)
    for c1, c2, _, sign in _basis.wedge_table(3, 3, 1, 0, 2):
        B[perm[c2]] = s * sign * b[c1]
    pairs = np.conj(K).reshape(len(K), -1) @ B.ravel() \
        * (_basis.top_channel_integral(3) / math.prod(metric.model.grid_shape))
    return float(np.linalg.norm(pairs))


def _dbar_preimage(metric: Metric, v: Form, coclosed: bool = False):
    """(x, ||dbar x - v||) for a (p,q)-form v, x the backend's metric-free
    dbar preimage of v: the one dbar-exactness test, of del omega^2 for the
    strongly Gauduchon class and of rho02 for the page-2 torsion class.  The
    residual is 0 exactly when v is dbar-exact, and never below the metric
    distance of v from im dbar.

    coclosed makes x co-closed by one Green solve on (p,0), so v is a
    (p,2)-form: x - dbar G''(dbar* x), dbar x unchanged, and dbar* of the
    result is the harmonic part of dbar* x, which is 0, as im dbar* is
    orthogonal to ker Delta''.  So Delta'' x = dbar* dbar x for the
    returned x."""
    model = metric.model
    x = Form(model, v.p, v.q - 1, model.dbar_preimage(v.p, v.q - 1, v.coeffs))
    if coclosed:
        x = x - differential("dbar", green_solve(
            metric, "dbar", adjoint_diff(metric, "dbar", x)))
    return x, norm(metric, differential("dbar", x) - v)


def e2_obstruction(metric: Metric, rho02: Form, tol: float = None):
    """Co-closedness energy of a (0,2)-form, when it is dbar-exact.

    Returns (value, marker, diagnostics): value = ||dbar* rho02||^2 when
    rho02 lies in the image of dbar, else None with an explanatory marker.
    The potential xi (dbar xi = rho02, dbar* xi = 0) is the backend's
    metric-free dbar preimage made co-closed by one Green solve on (0,0)
    (_dbar_preimage), so no solve runs on (0,2).  membership_residual
    is ||dbar xi - rho02|| / max(1, ||rho02||) for that xi: 0 exactly when
    rho02 is dbar-exact, and never below the metric distance of rho02 from
    im dbar.  Three independent routes to the value are cross-checked:
    ||dbar* rho02||^2, <<Delta'' rho02, rho02>> - ||dbar rho02||^2 and
    ||Delta'' xi||^2 (Delta'' xi = dbar* rho02).
    """
    if tol is None:
        tol = _default_tol(metric.model)
    nr = norm(metric, rho02)
    dbs = adjoint_diff(metric, "dbar", rho02)
    xi, member_res = _dbar_preimage(metric, rho02, coclosed=True)
    member_res /= max(1.0, nr)
    diagnostics = {"membership_residual": member_res,
                   "dbar_star_rho_norm": norm(metric, dbs)}
    if member_res > max(tol, 1e3 * _default_tol(metric.model)) and nr > tol:
        return None, "page-2 torsion class nonzero", diagnostics
    g1 = norm(metric, dbs) ** 2
    g2 = inner(metric, laplacian(metric, "dbar", rho02), rho02).real \
        - norm(metric, differential("dbar", rho02)) ** 2
    g3 = norm(metric, laplacian(metric, "dbar", xi)) ** 2
    s = max(1.0, g1)
    if abs(g1 - g2) > 1e-6 * s or abs(g1 - g3) > 1e-6 * s:
        raise RuntimeError(
            f"co-closedness energy routes disagree: {g1}, {g2}, {g3}"
        )
    diagnostics["g_routes"] = (g1, g2, g3)
    return g1, None, diagnostics


def energy_and_volume(metric: Metric, mode: str = "dim3",
                      tol: float = None) -> TorsionReport:
    """Complete torsion report with dual-route energies and diagnostics."""
    report = torsion_form(metric, mode=mode, tol=tol)
    rho, rho02 = report.rho20, report.rho02

    # energy again, by the wedge formula (different code path)
    f_wedge = _real_integral(
        integrate_top(wedge(wedge(rho, rho02), metric.omega)),
        what="wedge energy",
    )
    if abs(f_wedge - report.energy) > 1e-9 * max(1.0, report.energy):
        raise RuntimeError(
            f"energy routes disagree: pointwise {report.energy!r} vs "
            f"wedge {f_wedge!r}"
        )

    # mass of the completed volume form (1 + |rho|^2) dV
    dens = (1.0 + pointwise_inner(metric, rho, rho).real) * metric.density
    dv_mass = float(np.real(metric.model.mean(dens)))

    g_val, g_marker, g_diag = e2_obstruction(metric, rho02, tol=tol)

    tilde_kernel = harmonic_basis(metric, "tilde", 0, 2)
    tilde_pairings = [abs(inner(metric, rho02, h)) for h in tilde_kernel]

    # a new report: the one from torsion_form is memoised on the metric
    return dataclasses.replace(
        report, dv_mass=dv_mass, g_energy=g_val, g_marker=g_marker,
        residuals=dict(report.residuals, dv_mass_vs_A=abs(
            dv_mass - report.generalized_volume)),
        diagnostics=dict(report.diagnostics, **g_diag,
                         energy_wedge_route=f_wedge,
                         tilde_harmonic_pairings=tilde_pairings,
                         rho_norm=math.sqrt(max(report.energy, 0.0))),
    )


# ---------------------------------------------------------------------------
# classification


@dataclass
class MetricClassification:
    kahler: bool
    skt: bool
    gauduchon: bool
    balanced: bool
    strongly_gauduchon: bool
    hs_feasible: bool
    residuals: dict
    sign_field: np.ndarray
    set_fractions: dict
    tolerance: float

    def to_json(self):
        s = np.asarray(self.sign_field, dtype=float)
        return {
            "kahler": self.kahler,
            "skt": self.skt,
            "gauduchon": self.gauduchon,
            "balanced": self.balanced,
            "strongly_gauduchon": self.strongly_gauduchon,
            "hs_feasible": self.hs_feasible,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "sign_field": {
                "min": float(s.min()), "max": float(s.max()),
                "mean": float(s.mean()),
            },
            "set_fractions": {k: float(v)
                              for k, v in self.set_fractions.items()},
            "tolerance": self.tolerance,
        }


def classify_metric(metric: Metric, tol: float = None) -> MetricClassification:
    """Decide the standard metric classes by residual tests.

    Strongly Gauduchon means del omega^2 is dbar-exact: sg_membership is the
    relative residual ||dbar x - del omega^2|| / ||del omega^2|| of its
    metric-free preimage x (_dbar_preimage), so no Green solve runs.  The HS
    verdict is whether the dim3 torsion_form exists, one test on both
    backends; hs is the larger of its two constraint residuals, feasible or
    not.
    """
    model = metric.model
    if tol is None:
        tol = _default_tol(model)
    omega = metric.omega
    omega_pow = wedge(omega, omega)              # omega^{n-1} = omega^2

    scale = max(1.0, norm(metric, omega))
    r_kahler = del_omega_norm(metric) / scale
    r_skt = deldbar_omega_norm(metric) / scale
    d_pow = differential("del", omega_pow)
    n_pow = norm(metric, d_pow)
    r_bal = n_pow / scale
    r_gau = norm(metric, differential("dbar", d_pow)) / scale
    r_sg = _dbar_preimage(metric, d_pow)[1] / n_pow if n_pow else 0.0
    try:
        rep = torsion_form(metric, tol=tol)
        hs_ok = True
        r_hs = max(rep.residuals["del_rho"],
                   rep.residuals["dbar_rho_plus_del_omega"])
    except NotFeasibleError as exc:
        hs_ok = False
        r_hs = max(exc.residuals.values())

    s_arr = np.asarray(_lefschetz_split(metric)[2])
    total = s_arr.size
    frac_u = float(np.count_nonzero(s_arr > tol)) / total
    frac_v = float(np.count_nonzero(s_arr < -tol)) / total
    frac_z = 1.0 - frac_u - frac_v

    return MetricClassification(
        kahler=r_kahler <= tol,
        skt=r_skt <= tol,
        gauduchon=r_gau <= tol,
        balanced=r_bal <= tol,
        strongly_gauduchon=r_sg <= max(tol, 1e2 * _default_tol(model)),
        hs_feasible=hs_ok,
        residuals={
            "d_omega": r_kahler,
            "deldbar_omega": r_skt,
            "d_omega_power": r_bal,
            "deldbar_omega_power": r_gau,
            "sg_membership": r_sg,
            "hs": r_hs,
        },
        sign_field=s_arr,
        set_fractions={"positive": frac_u, "negative": frac_v,
                       "null": frac_z},
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# Lefschetz splitting of del omega


def lefschetz_alpha(metric: Metric):
    """Split del omega = prim + alpha ^ omega with prim primitive.

    Returns (alpha, prim, residual of the pointwise sign-field identity
    i del omega ^ dbar omega = s dV).  The split is memoised on the metric
    and shared with classify_metric, which reads its sign field s.
    """
    alpha, prim, _, residual = _lefschetz_split(metric)
    return alpha, prim, residual


def _lefschetz_split(metric: Metric):
    """(alpha, prim, s, residual) of lefschetz_alpha, memoised on the metric."""
    def build():
        omega, d_omega = metric.omega, omega_differential(metric, "del")
        alpha = 0.5 * contract(metric, d_omega)
        prim = d_omega - wedge(alpha, omega)
        # postcondition: prim really is primitive
        lp = contract(metric, prim)
        if norm(metric, lp) > 1e-8 * max(1.0, norm(metric, d_omega)):
            raise RuntimeError("primitive part failed the contraction test")

        a_wedge = wedge(alpha, omega)
        s = (pointwise_inner(metric, a_wedge, a_wedge).real
             - pointwise_inner(metric, prim, prim).real)
        lhs = 1j * wedge(d_omega, conjugate(d_omega)).coeffs[0]
        rhs = s * metric.volume_form().coeffs[0]
        scale = max(1.0, float(np.max(np.abs(lhs))))
        return alpha, prim, s, float(np.max(np.abs(lhs - rhs))) / scale
    return metric.memo(("lefschetz",), build)


# ---------------------------------------------------------------------------
# sG form and minimal completion


@dataclass
class SGCompletion:
    Omega: Form                 # omega^2 + 2 rho ^ conj(rho), a (2,2)-form
    gamma: Form                 # its positive (1,1) square root
    rho20: Form
    omega_tilde: tuple          # (rho20, omega, rho02): the d-closed completion
    identities: dict

    def to_json(self):
        return {"identities": {k: float(v)
                               for k, v in self.identities.items()}}


def _matrix_of_22(a: Form):
    """K[i,j] = coefficient on phi^{comp(i)} ^ phibar^{comp(j)}, comp(i) the
    pair of indices other than i + 1.  The (2,2) channels run I-major over
    the pairs (1,2), (1,3), (2,3), so K is the channel block reversed on
    both axes."""
    if (a.p, a.q) != (2, 2):
        raise ValueError("expects a (2,2)-form")
    K = a.coeffs.reshape((3, 3) + a.model.grid_shape)[::-1, ::-1]
    return np.ascontiguousarray(_trailing(K))


def root_of_22(Omega: Form) -> Form:
    """Positive (1,1)-root gamma with gamma^2 = Omega (n = 3).

    Writes the (2,2)-form as the adjugate of the root's coefficient matrix
    and inverts the adjugate in closed form: G = adj(M)/sqrt(det M), using
    adj(adj(G)) = det(G) G for 3x3 matrices.  adj M and det M come from
    hodge._adjugate and positivity from its pivots (hodge._positive), with
    no batched det, inv or eigvalsh.
    """
    K = _matrix_of_22(Omega)
    sign = np.array([[(-1) ** (i + j) for j in range(3)] for i in range(3)])
    M = 0.5 * np.swapaxes(K * sign, -1, -2)     # candidate adjugate of G
    herm = np.max(np.abs(M - np.conj(np.swapaxes(M, -1, -2))))
    if herm > 1e-8 * max(1.0, float(np.max(np.abs(M)))):
        raise RootFailure(f"coefficient matrix not Hermitian ({herm:.2e})")
    M = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
    if not _positive(M, _POS_TOL):
        worst = float(np.linalg.eigvalsh(M)[..., 0].min())
        raise RootFailure(
            f"(2,2)-form not positive enough for a root "
            f"(min eigenvalue {worst:.3e})", worst=worst,
        )
    det, adjM = _adjugate(M)
    return form_of_11(Omega.model, adjM / np.sqrt(det)[..., None, None])


def sg_and_completion(metric: Metric, tol: float = None) -> SGCompletion:
    """The associated positive (2,2)-form, its root, and the completion."""
    report = torsion_form(metric, tol=tol)
    rho, rho02 = report.rho20, report.rho02
    omega = metric.omega
    Omega = wedge(omega, omega) + 2.0 * wedge(rho, rho02)
    gamma = root_of_22(Omega)
    root_res = coeff_norm(wedge(gamma, gamma) - Omega) / max(
        1.0, coeff_norm(Omega))

    # quoted integral identities
    lhs1 = _real_integral(integrate_top(wedge(Omega, omega)) / 6.0,
                          what="Omega wedge omega")
    rhs1 = (2.0 / 3.0) * report.volume + (1.0 / 3.0) * report.generalized_volume
    dbar_Omega = differential("dbar", Omega)
    closure = dbar_Omega + 2.0 * differential("del", wedge(rho02, omega))
    r2 = coeff_norm(closure) / max(1.0, coeff_norm(dbar_Omega))

    # completion integral: the (3,3)-part of (rho + omega + rho02)^3 / 3!
    top = wedge(wedge(omega, omega), omega) \
        + 6.0 * wedge(wedge(rho, rho02), omega)
    tilde_vol = _real_integral(integrate_top(top) / 6.0,
                               what="completion volume")
    d_tilde = max(
        coeff_norm(differential("del", rho)),
        coeff_norm(differential("dbar", rho)
                   + omega_differential(metric, "del")),
        coeff_norm(omega_differential(metric, "dbar")
                   + differential("del", rho02)),
        coeff_norm(differential("dbar", rho02)),
    )

    identities = {
        "sixth_integral_lhs": lhs1,
        "sixth_integral_rhs": rhs1,
        "sixth_integral_residual": abs(lhs1 - rhs1),
        "dbar_Omega_residual": r2,
        "root_residual": root_res,
        "completion_volume": tilde_vol,
        "completion_vs_A": abs(tilde_vol - report.generalized_volume),
        "completion_closure": d_tilde,
    }
    return SGCompletion(Omega=Omega, gamma=gamma, rho20=rho,
                        omega_tilde=(rho, omega, rho02),
                        identities=identities)


# ---------------------------------------------------------------------------
# moving inside the generalized-volume class


@dataclass
class PerturbReport:
    transport_residual: float      # || rho' - (rho + del u) ||
    volume_change: float
    energy_change: float
    a_change: float
    closed_direction: bool         # del u = 0 within tolerance
    quadratic_residual: float | None

    def to_json(self):
        return {k: (float(v) if v is not None and not isinstance(v, bool)
                    else v)
                for k, v in self.__dict__.items()}


def _perturbation(metric: Metric, omega2: Form, du, weight, tol):
    """Torsion on both sides of omega -> omega2 and the report.

    du is the expected torsion shift (rho' = rho + du; None for no shift).
    weight is omega2 - omega when the torsion form is unchanged, so that
    F' = F + int rho ^ conj rho ^ weight exactly, and None otherwise.
    """
    metric2 = Metric(omega2)
    rep1 = torsion_form(metric, tol=tol)
    rep2 = torsion_form(metric2, tol=tol)
    transported = rep1.rho20 if du is None else rep1.rho20 + du
    tres = norm(metric2, rep2.rho20 - transported) / max(
        1.0, norm(metric2, transported))
    quad = None
    if weight is not None:
        shift = _real_integral(
            integrate_top(wedge(wedge(rep1.rho20, rep1.rho02), weight)),
            what="energy shift")
        quad = abs(rep2.energy - rep1.energy - shift)
    return metric2, PerturbReport(
        transport_residual=tres,
        volume_change=rep2.volume - rep1.volume,
        energy_change=rep2.energy - rep1.energy,
        a_change=rep2.generalized_volume - rep1.generalized_volume,
        closed_direction=weight is not None,
        quadratic_residual=quad,
    )


def aeppli_perturb(metric: Metric, u: Form, tol: float = None):
    """Perturb omega by del(conj u) + dbar(u) and track the torsion.

    Returns the new metric and a report of the exact transport identity
    rho' = rho + del u, the change of volume and energy, and the invariance
    of the generalized volume.
    """
    if (u.p, u.q) != (1, 0):
        raise ValueError("perturbation potential must be a (1,0)-form")
    if tol is None:
        tol = _default_tol(metric.model)
    omega2 = metric.omega + differential("del", conjugate(u)) \
        + differential("dbar", u)
    du = differential("del", u)
    # del u = 0: same torsion, re-weighted by omega2 - omega
    closed = norm(metric, du) <= tol * max(1.0, norm(metric, u))
    weight = omega2 - metric.omega if closed else None
    return _perturbation(metric, omega2, du, weight, tol)


def bc_perturb(metric: Metric, phi: Form, tol: float = None):
    """Perturb omega by i del dbar phi (phi a real function).

    The torsion form must be unchanged; the energy moves by the re-weighting
    integral only.
    """
    if (phi.p, phi.q) != (0, 0):
        raise ValueError("expected a function")
    bump = 1j * differential("del", differential("dbar", phi))
    return _perturbation(metric, metric.omega + bump, None, bump, tol)


# ---------------------------------------------------------------------------
# first variation


@dataclass
class FirstVariation:
    dF: float
    dVol: float
    dA: float
    gradient_norm: float     # || dbar* omega ||

    def to_json(self):
        return {k: float(v) for k, v in self.__dict__.items()}


def first_variation(metric: Metric, u: Form) -> FirstVariation:
    """Directional derivatives of F, Vol, A along del(conj u) + dbar(u).

    dF comes from the variational formula (the cubic correction term is
    absent in dimension 3); dVol from differentiating the volume integral
    directly, an independent route; their sum is the derivative of the
    generalized volume and must vanish.
    """
    if (u.p, u.q) != (1, 0):
        raise ValueError("direction potential must be a (1,0)-form")
    grad = adjoint_diff(metric, "dbar", metric.omega)
    pairing = inner(metric, u, grad).real
    dF = -2.0 * pairing
    gamma = differential("del", conjugate(u)) + differential("dbar", u)
    dVol = _real_integral(
        integrate_top(wedge(gamma, wedge(metric.omega, metric.omega))) / 2.0,
        what="volume derivative")
    return FirstVariation(dF=dF, dVol=dVol, dA=dF + dVol,
                          gradient_norm=norm(metric, grad))


def scalar_volume_derivative(metric: Metric, phi: Form) -> float:
    """Derivative of the volume along i del dbar phi: int phi i del w ^ dbar w."""
    if (phi.p, phi.q) != (0, 0):
        raise ValueError("expected a function")
    d_omega = omega_differential(metric, "del")
    integrand = 1j * wedge(phi, wedge(d_omega, conjugate(d_omega)))
    return _real_integral(integrate_top(integrand),
                          what="scalar volume derivative")


# ---------------------------------------------------------------------------
# Monge-Ampere constants


@dataclass
class MACoefficients:
    c: float
    holder_gap: float
    b_lower: float
    f_normaliser: np.ndarray

    def to_json(self):
        f = np.asarray(self.f_normaliser, dtype=float)
        return {
            "c": self.c,
            "holder_gap": self.holder_gap,
            "b_lower": self.b_lower,
            "f_normaliser": {"min": float(f.min()), "max": float(f.max()),
                             "mean": float(f.mean())},
        }


def ma_constants(metric: Metric, gamma: Metric,
                 tol: float = None) -> MACoefficients:
    """Normalization constants of the volume-comparison problem."""
    report = torsion_form(metric, tol=tol)
    A = report.generalized_volume
    omega, g = metric.omega, gamma.omega
    vol_gamma = _real_integral(
        integrate_top(wedge(wedge(g, g), g)) / 6.0, what="gamma volume")
    mixed = _real_integral(
        integrate_top(wedge(omega, wedge(g, g))) / 2.0, what="mixed volume")
    c = 6.0 * A * vol_gamma ** 2 / mixed ** 3

    ratio = (metric.detH / gamma.detH) ** (1.0 / 3.0)
    lhs = float(np.real(metric.model.mean(ratio * gamma.density)))
    rhs = metric.volume ** (1.0 / 3.0) * gamma.volume ** (2.0 / 3.0)
    gap = rhs - lhs

    f = np.real(contract_trace(gamma, omega))
    b = report.volume / A
    return MACoefficients(c=c, holder_gap=gap, b_lower=b, f_normaliser=f)


# ---------------------------------------------------------------------------
# holomorphic 1-form audit


@dataclass
class OneFormAudit:
    entries: list
    max_d_residual: float
    passes: bool

    def to_json(self):
        return {
            "entries": [{k: float(v) for k, v in e.items()}
                        for e in self.entries],
            "max_d_residual": float(self.max_d_residual),
            "passes": self.passes,
        }


def holo_oneform_audit(metric: Metric, tol: float = None) -> OneFormAudit:
    """Check that every dbar-closed (1,0)-form is d-closed.

    The basis audited is the numerically computed dbar-harmonic space on
    (1,0) (harmonic forms are automatically dbar-closed).  A violation is
    an obstruction to the existence of a compatible d-closed completion for
    any metric on the model.
    """
    if tol is None:
        tol = _default_tol(metric.model)
    entries = []
    worst = 0.0
    for h in harmonic_basis(metric, "dbar", 1, 0):
        r_dbar = norm(metric, differential("dbar", h))
        r_d = norm(metric, differential("del", h))
        entries.append({"dbar_residual": r_dbar, "d_residual": r_d})
        worst = max(worst, r_d)
    return OneFormAudit(entries=entries, max_d_residual=worst,
                        passes=worst <= max(tol, 1e2 * _default_tol(metric.model)))
