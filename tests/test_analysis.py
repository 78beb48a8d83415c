"""Torsion extraction, energy bookkeeping, classification, perturbation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgeom import standard_fixture, synthesize_form
from hsgeom.forms import (
    coeff_norm,
    conjugate,
    differential,
    flat_metric_form,
    integrate_top,
    wedge,
)
from hsgeom import analysis
from hsgeom.hodge import (Metric, adjoint_diff, harmonic_project, inner, norm,
                          pointwise_inner)
from hsgeom.lie import hs_feasibility
from hsgeom.analysis import (
    TORSION_MODES,
    MACoefficients,
    NotFeasibleError,
    NotSKTError,
    RootFailure,
    aeppli_perturb,
    bc_perturb,
    classify_metric,
    e2_obstruction,
    energy_and_volume,
    first_variation,
    holo_oneform_audit,
    lefschetz_alpha,
    ma_constants,
    root_of_22,
    scalar_volume_derivative,
    sg_and_completion,
    torsion_form,
    torsion_least_squares,
)

from conftest import EPS, random_band_form, random_metric

seeds = st.integers(0, 2**32 - 1)

# frozen regression values for the eps = 0.05 two-coordinate fixture
F_TWO = EPS**2
G_TWO = 0.0012531328320802006


def small_potential(model, rng, scale=0.02):
    """Random (1,0) potential small enough to keep omega0 + d-part positive."""
    u = random_band_form(model, 1, 0, rng, terms=3)
    peak = float(np.abs(u.coeffs).max())
    return (scale / max(peak, 1e-30)) * u


# -- torsion routes ------------------------------------------------------------


def test_two_coord_frozen_values(eps_metric):
    rep = energy_and_volume(eps_metric, mode="dim3")
    assert abs(rep.energy - F_TWO) < 1e-10
    assert abs(rep.volume - (1.0 - F_TWO)) < 1e-10
    assert abs(rep.generalized_volume - 1.0) < 1e-10
    assert abs(rep.g_energy - G_TWO) < 1e-12
    assert abs(rep.dv_mass - 1.0) < 1e-9
    assert rep.residuals["del_rho"] < 1e-9
    assert rep.residuals["dbar_rho_plus_del_omega"] < 1e-9


def test_volume_energy_duality(eps_metric, three_coord):
    """Vol = A - F with A the flat value, on both perturbed fixtures."""
    for g in (eps_metric, Metric(three_coord[3])):
        rep = energy_and_volume(g, mode="dim3")
        assert abs(rep.volume - (rep.generalized_volume - rep.energy)) < 1e-14
        assert abs(rep.generalized_volume - 1.0) < 1e-9


def test_routes_agree(eps_metric):
    reps = {m: torsion_form(eps_metric, mode=m) for m in TORSION_MODES}
    base = reps["dim3"].rho20
    for m in TORSION_MODES:
        assert norm(eps_metric, reps[m].rho20 - base) < 1e-8
    lsq = torsion_least_squares(eps_metric)
    assert norm(eps_metric, lsq - base) < 1e-8


def test_routes_agree_lie(torus3_metric):
    for m in TORSION_MODES:
        rep = torsion_form(torus3_metric, mode=m)
        assert coeff_norm(rep.rho20) < 1e-12
        assert abs(rep.energy) < 1e-14


def test_flat_report(flat16):
    rep = energy_and_volume(flat16, mode="dim3")
    assert rep.energy < 1e-14
    assert abs(rep.volume - 1.0) < 1e-13
    assert abs(rep.generalized_volume - 1.0) < 1e-13


def test_report_json_schema(eps_metric):
    rep = energy_and_volume(eps_metric, mode="dim3")
    j = rep.to_json()
    for key in ("mode", "F", "Vol", "A", "dv_mass", "G", "G_marker",
                "residuals", "diagnostics", "tolerances"):
        assert key in j
    assert j["mode"] == "dim3"
    assert abs(j["F"] - F_TWO) < 1e-10


def test_mode_guard(eps_metric):
    with pytest.raises(ValueError):
        torsion_form(eps_metric, mode="bogus")


def test_infeasible_lie(iwasawa):
    g = Metric(flat_metric_form(iwasawa))
    for _ in range(2):      # a failure is raised again, never memoised
        with pytest.raises(NotFeasibleError) as ei:
            torsion_form(g, mode="dim3")
        assert ei.value.residuals
        assert max(ei.value.residuals.values()) > 0.1


def test_torsion_form_memoised_per_metric(torus3):
    g = Metric(flat_metric_form(torus3))
    rep = torsion_form(g, "dim3")
    assert torsion_form(g, "dim3") is rep
    assert torsion_form(g, "dim3", tol=1e-9) is rep     # the lie default
    assert torsion_form(g, "dim3", tol=1e-8) is not rep
    assert torsion_form(g, "hs_min") is not rep


@pytest.mark.parametrize("mode,kind", [("dim3", "dbar"), ("hs_min", "bc")])
@pytest.mark.parametrize("backend", ["lie", "grid"])
def test_minimality_is_the_norm_of_the_harmonic_part(torus3, backend, mode,
                                                     kind):
    # basis-free: independent of which orthonormal kernel basis eigh returns
    if backend == "lie":
        g = random_metric(torus3, np.random.default_rng(7))
    else:
        g = Metric(standard_fixture("two_coord", resolution=8, eps=EPS)[3])
    rep = torsion_form(g, mode)
    want = norm(g, harmonic_project(g, kind, rep.rho20))
    assert rep.residuals["minimality"] == want
    assert want < 1e-9


def test_feasibility_and_lefschetz_split_memoised_per_metric(
        torus3, iwasawa, monkeypatch):
    g = Metric(flat_metric_form(torus3))
    cert = hs_feasibility(g)
    assert hs_feasibility(g) is cert
    alpha, prim, residual = lefschetz_alpha(g)
    again = lefschetz_alpha(g)
    assert again[0] is alpha and again[1] is prim and again[2] == residual
    # classify_metric reads the sign field of the memoised split
    calls = []
    monkeypatch.setattr(analysis, "pointwise_inner",
                        lambda *a: calls.append(a) or pointwise_inner(*a))
    classify_metric(g)
    assert calls == []
    # every failing torsion extraction on one metric shares one certificate
    g = Metric(flat_metric_form(iwasawa))
    certs = []
    for _ in range(2):
        with pytest.raises(NotFeasibleError) as ei:
            torsion_form(g)
        certs.append(ei.value.certificate)
    assert certs[0] is certs[1] is hs_feasibility(g)


def test_energy_and_volume_leaves_memo_intact(torus3):
    g = Metric(flat_metric_form(torus3))
    rep = torsion_form(g)
    full = energy_and_volume(g)
    assert torsion_form(g) is rep
    assert full.dv_mass is not None and "dv_mass_vs_A" in full.residuals
    assert rep.dv_mass is None
    assert "dv_mass_vs_A" not in rep.residuals
    assert "rho_norm" not in rep.diagnostics


def test_grid_pipelines_materialise_no_pairing_or_star():
    """A grid metric applies its pairing and star as per-side factors: the
    report pipelines leave the dense pairing and star caches empty."""
    g = Metric(standard_fixture("three_coord", resolution=8, eps=0.05)[3])
    energy_and_volume(g)
    classify_metric(g)
    lefschetz_alpha(g)
    sg_and_completion(g)
    assert g._pairing_cache == {} and g._star_cache == {}


def test_infeasible_torus(two_coord):
    """An x1-wave on the dz2^dzbar2 channel is not hermitian-symplectic."""
    model, _, omega0, _ = two_coord
    pert = synthesize_form(
        model, 1, 1, [(((2,), (2,)), (1, 0, 0, 0, 0, 0), 0.05)], real=True
    )
    bad = Metric(omega0 + pert)
    assert not classify_metric(bad).skt
    with pytest.raises(NotFeasibleError):
        torsion_form(bad, mode="dim3")
    with pytest.raises(NotSKTError):
        torsion_form(bad, mode="skt")


def test_e2_obstruction_matches_g(eps_metric):
    rep = energy_and_volume(eps_metric, mode="dim3")
    g_val, marker, diag = e2_obstruction(eps_metric, rep.rho02)
    assert abs(g_val - rep.g_energy) < 1e-15
    assert marker is None
    assert diag["membership_residual"] < 1e-9
    routes = diag["g_routes"]
    assert max(routes) - min(routes) < 1e-12


# -- classification ---------------------------------------------------------------


def test_classify_flat_is_kahler(flat16, torus3_metric):
    for g in (flat16, torus3_metric):
        c = classify_metric(g)
        assert c.kahler and c.skt and c.gauduchon and c.balanced
        assert c.strongly_gauduchon and c.hs_feasible


def test_classify_two_coord(eps_metric):
    c = classify_metric(eps_metric)
    assert not c.kahler and not c.balanced
    assert c.skt and c.gauduchon and c.strongly_gauduchon and c.hs_feasible
    assert c.set_fractions["null"] == 1.0


def test_classify_three_coord(three_coord):
    c = classify_metric(Metric(three_coord[3]))
    assert c.skt and c.hs_feasible
    assert not c.gauduchon and not c.strongly_gauduchon
    assert c.set_fractions["null"] < 0.5
    assert c.set_fractions["positive"] > 0.25
    assert c.set_fractions["negative"] > 0.25


def test_classify_lie_catalogue(lie_models):
    flags = {}
    for name, model in lie_models.items():
        c = classify_metric(Metric(flat_metric_form(model)))
        flags[name] = c
    assert flags["torus3"].kahler
    assert not flags["iwasawa"].skt and flags["iwasawa"].balanced
    assert not flags["iwasawa"].hs_feasible
    assert flags["heis3"].skt and not flags["heis3"].balanced
    assert not flags["heis3"].hs_feasible
    # invariant metrics on compact quotients are automatically gauduchon
    assert all(c.gauduchon for c in flags.values())


def test_gauduchon_iff_null_sign_field(eps_metric, three_coord):
    """On SKT fixtures the sign field vanishes exactly when gauduchon holds."""
    for g in (eps_metric, Metric(three_coord[3])):
        c = classify_metric(g)
        assert c.skt
        assert c.gauduchon == (c.set_fractions["null"] == 1.0)


def test_skt_integrated_equality(eps_metric, three_coord):
    """SKT forces int s dV = 0 even when s is pointwise nonzero."""
    for g in (eps_metric, Metric(three_coord[3])):
        c = classify_metric(g)
        val = float(np.real(np.mean(np.asarray(c.sign_field) * g.density)))
        assert abs(val) < 1e-8


def test_classification_json(eps_metric):
    j = classify_metric(eps_metric).to_json()
    assert set(j["set_fractions"]) == {"positive", "negative", "null"}
    assert j["sign_field"]["min"] <= j["sign_field"]["max"]


# -- Lefschetz splitting --------------------------------------------------------------


def test_lefschetz_split(eps_metric, three_coord):
    for g in (eps_metric, Metric(three_coord[3])):
        alpha, prim, res = lefschetz_alpha(g)
        assert res < 1e-10
        recon = prim + wedge(alpha, g.omega)
        d_omega = differential("del", g.omega)
        assert norm(g, recon - d_omega) < 1e-10
        # prim really is primitive
        from hsgeom.hodge import contract

        assert coeff_norm(contract(g, prim)) < 1e-10


def test_lefschetz_flat(flat16):
    alpha, prim, res = lefschetz_alpha(flat16)
    assert coeff_norm(alpha) < 1e-14
    assert coeff_norm(prim) < 1e-14
    assert res < 1e-14


# -- completion and Monge-Ampere data ----------------------------------------------------


def test_completion_identities(eps_metric, three_coord, torus3_metric):
    for g in (eps_metric, Metric(three_coord[3]), torus3_metric):
        comp = sg_and_completion(g, mode="dim3")
        idn = comp.identities
        assert idn["sixth_integral_residual"] < 1e-7
        assert idn["dbar_Omega_residual"] < 1e-7
        assert idn["root_residual"] < 1e-7
        assert idn["completion_closure"] < 1e-7
        assert idn["completion_vs_A"] < 1e-7
        # the root is itself a positive (1,1)-form
        groot = Metric(comp.gamma)
        assert groot.min_eigenvalue > 0


def test_completion_flat_root_is_omega(torus3_metric):
    comp = sg_and_completion(torus3_metric)
    assert coeff_norm(comp.gamma - torus3_metric.omega) < 1e-12


def test_ma_constants_flat(torus3_metric):
    comp = sg_and_completion(torus3_metric)
    mac = ma_constants(torus3_metric, Metric(comp.gamma))
    assert isinstance(mac, MACoefficients)
    assert abs(mac.c - 2.0 / 9.0) < 1e-12
    assert abs(mac.holder_gap) < 1e-12
    assert abs(mac.b_lower - 1.0) < 1e-12
    assert np.allclose(mac.f_normaliser, 3.0)


def test_ma_constants_perturbed(eps_metric):
    comp = sg_and_completion(eps_metric)
    mac = ma_constants(eps_metric, Metric(comp.gamma))
    assert mac.c > 0
    assert mac.holder_gap >= 0
    assert 0 < mac.b_lower <= float(np.min(mac.f_normaliser)) + 1e-12


def test_root_failure_on_negative(eps_metric):
    with pytest.raises(RootFailure):
        root_of_22(-1.0 * wedge(eps_metric.omega, eps_metric.omega))


# -- perturbation laws --------------------------------------------------------------------


def test_aeppli_transport(flat16, two_coord):
    model, u, omega0, omega = two_coord
    g2, rep = aeppli_perturb(flat16, u)
    assert rep.transport_residual < 1e-7
    assert abs(rep.a_change) < 1e-9
    assert not rep.closed_direction
    assert coeff_norm(g2.omega - omega) < 1e-13


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_aeppli_invariance_random(two_coord, seed):
    model = two_coord[0]
    rng = np.random.default_rng(seed)
    u = small_potential(model, rng)
    base = Metric(two_coord[3])
    _, rep = aeppli_perturb(base, u)
    assert rep.transport_residual < 1e-6
    assert abs(rep.a_change) < 1e-6


def test_aeppli_guard(flat16, two_coord):
    with pytest.raises(ValueError):
        aeppli_perturb(flat16, two_coord[3])  # (1,1) is not a potential


def test_bc_perturbation(eps_metric):
    model = eps_metric.model
    phi = synthesize_form(model, 0, 0, [(0, (1, 0, 0, 0, 0, 0), 0.02)], real=True)
    g2, rep = bc_perturb(eps_metric, phi)
    # same torsion form, energy moves only through the volume re-weighting
    assert rep.transport_residual < 1e-7
    assert rep.quadratic_residual < 1e-7
    assert rep.closed_direction


def test_bc_guard(eps_metric, two_coord):
    with pytest.raises(ValueError):
        bc_perturb(eps_metric, two_coord[1])


# -- derivatives ---------------------------------------------------------------------------


def test_first_variation_on_fixture(eps_metric, two_coord):
    u = two_coord[1]
    fv = first_variation(eps_metric, u)
    assert abs(fv.dA) < 1e-10
    assert abs(fv.dF + fv.dVol) < 1e-10
    grad = adjoint_diff(eps_metric, "dbar", eps_metric.omega)
    assert abs(fv.gradient_norm - norm(eps_metric, grad)) < 1e-14


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_first_variation_fd(eps_metric, seed):
    rng = np.random.default_rng(seed)
    model = eps_metric.model
    u = small_potential(model, rng, scale=0.01)
    fv = first_variation(eps_metric, u)
    h = 1e-4

    def F(t):
        bump = differential("del", conjugate(t * u)) + differential("dbar", t * u)
        return energy_and_volume(Metric(eps_metric.omega + bump)).energy

    fd = (F(h) - F(-h)) / (2 * h)
    assert abs(fv.dF - fd) < 1e-5 * max(1.0, abs(fd))
    assert abs(fv.dA) < 1e-10


def test_scalar_volume_derivative(eps_metric):
    model = eps_metric.model
    phi = synthesize_form(model, 0, 0, [(0, (0, 1, 0, 0, 0, 0), 0.5)], real=True)
    dv = scalar_volume_derivative(eps_metric, phi)
    h = 1e-4
    bump = 1j * differential("del", differential("dbar", phi))

    def vol(t):
        return Metric(eps_metric.omega + t * bump).volume

    fd = (vol(h) - vol(-h)) / (2 * h)
    assert abs(dv - fd) < 1e-6 * max(1.0, abs(fd))


# -- audits -----------------------------------------------------------------------------------


def test_holo_oneform_audit(eps_metric, iwasawa):
    ok = holo_oneform_audit(eps_metric)
    assert ok.passes
    assert ok.max_d_residual < 1e-8
    assert len(ok.entries) == 3
    bad = holo_oneform_audit(Metric(flat_metric_form(iwasawa)))
    assert not bad.passes
    assert bad.max_d_residual > 0.5
