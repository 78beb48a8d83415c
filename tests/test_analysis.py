"""Torsion extraction, energy bookkeeping, classification, perturbation laws."""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgeom import standard_fixture, synthesize_form
from hsgeom.forms import (
    Form,
    coeff_norm,
    conjugate,
    differential,
    flat_metric_form,
    integrate_top,
    wedge,
)
from hsgeom import analysis, hodge
from hsgeom.hodge import (Metric, adjoint_diff, green_solve, harmonic_basis,
                          harmonic_project, inner, laplacian, norm,
                          pointwise_inner)
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

from conftest import (EPS, bc_symbol_pinv, bott_chern_20, laplacian_reference,
                      random_band_form, random_form, random_metric,
                      reference_green, reference_pcg)

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


@pytest.fixture(scope="module")
def three_coord8_eps02():
    return Metric(standard_fixture("three_coord", resolution=8, eps=0.2)[3])


def test_routes_agree(eps_metric, three_coord8_eps02):
    """Every mode's rho is the one extraction, and the least-squares oracle
    (CGLS on the grid) agrees with it, at N=16 on three_coord too."""
    g16 = Metric(standard_fixture("three_coord", resolution=16, eps=0.2)[3])
    for g in (eps_metric, three_coord8_eps02, g16):
        reps = {m: torsion_form(g, mode=m) for m in TORSION_MODES}
        base = reps["dim3"].rho20
        for m in TORSION_MODES:     # one extraction, read by every mode
            assert reps[m].rho20.coeffs.tobytes() == base.coeffs.tobytes()
        lsq = torsion_least_squares(g)
        assert norm(g, lsq - base) < 1e-8


def test_grid_oracle_is_matrix_free():
    """The grid oracle holds a few fields at a time, not a dense probe of
    the system: at N=8, eps 0.2 (1536 unknowns) its traced peak stays
    under 50 MB, where the probe and its least squares took 583 MB."""
    import tracemalloc

    g = Metric(standard_fixture("three_coord", resolution=8, eps=0.2)[3])
    tracemalloc.start()
    try:
        torsion_least_squares(g)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 50, peak


def test_grid_oracle_raises_on_zero_curvature(monkeypatch):
    """CGLS divides by the curvature ||A d||^2: where A d = 0 it raises
    SolveDiverged instead of returning NaN."""
    g = Metric(standard_fixture("two_coord", resolution=8, eps=0.05)[3])
    analysis.omega_differential(g, "del")       # the right-hand side
    apply = g.model.apply_differential
    monkeypatch.setattr(g.model, "apply_differential",
                        lambda *args: 0.0 * apply(*args))
    with pytest.raises(hodge.SolveDiverged, match="curvature"):
        torsion_least_squares(g)


def green_torsion(metric):
    """The Green-operator route to the dim3 torsion, rho = -G''(dbar* del
    omega): PCG to its stopping residual, the reference for torsion_form's
    dbar preimage."""
    rhs = adjoint_diff(metric, "dbar", differential("del", metric.omega))
    return -1.0 * green_solve(metric, "dbar", rhs)


def bc_green_torsion(metric):
    """The Bott-Chern Green route to the Bott-Chern-minimal torsion,
    rho = -G_bc(dbar* del omega + dbar* del del* del omega), a fourth-order
    PCG solve of the reference Laplacian off the Bott-Chern (2,0) kernel,
    preconditioned by its symbol bracket: the reference for the claim that
    the one extraction is Bott-Chern-minimal."""
    d_omega = differential("del", metric.omega)
    rhs = adjoint_diff(metric, "dbar", d_omega) + adjoint_diff(
        metric, "dbar",
        differential("del", adjoint_diff(metric, "del", d_omega)))
    x, _ = reference_pcg(
        metric, rhs, lambda f: laplacian_reference(metric, "bc", f),
        lambda f: f - _project(metric, bott_chern_20(metric), f),
        bc_symbol_pinv(metric)[0], hodge._CG_TOL, 200)
    return -1.0 * x


def _project(g, kernel, a):
    """The orthogonal projection of the (2,0)-form a on the span of an
    orthonormal kernel block, by the Gram route."""
    c = hodge._gram(g, 2, 0, a.coeffs[None], kernel.block)[0]
    return Form(g.model, 2, 0, hodge._combine(c, kernel.block))


def _harmonic_part(g, kind, a):
    """The harmonic part of the (2,0)-form a: against the dbar kernel, or
    (kind "bc") against the Bott-Chern one of the reference bott_chern_20."""
    if kind == "bc":
        return _project(g, bott_chern_20(g), a)
    return harmonic_project(g, kind, a)


@pytest.mark.parametrize("eps,reference", [
    (0.05, green_torsion), (0.2, green_torsion),
    (0.05, bc_green_torsion), (0.2, bc_green_torsion)],
    ids=["0.05", "0.2", "bc-0.05", "bc-0.2"])
def test_torsion_matches_green_reference(eps, reference):
    # the dim3 torsion against the dbar Green route and, being also the
    # Bott-Chern-minimal torsion in dimension 3, against the Bott-Chern one
    g = Metric(standard_fixture("three_coord", resolution=8, eps=eps)[3])
    rep = torsion_form(g)
    ref = reference(g)
    assert norm(g, rep.rho20 - ref) <= 1e-9 * norm(g, ref)
    # the preimage is exact where the solve stops at its tolerance
    assert rep.residuals["dbar_rho_plus_del_omega"] <= 1e-13
    assert rep.residuals["del_rho"] <= 1e-13
    assert rep.residuals["minimality"] <= 1e-13 * norm(g, ref)


@pytest.mark.parametrize("case", ["three_coord dbar", "iwasawa dbar",
                                  "iwasawa bc"])
def test_minimality_by_the_wedge_route(case, iwasawa):
    # torsion.residuals.minimality, int a ^ omega ^ conj h over the harmonic
    # basis, against the norm of the Gram-route projection
    name, kind = case.split()
    rng = np.random.default_rng(7)
    model = iwasawa if name == "iwasawa" else standard_fixture(
        name, resolution=8, eps=0.2)[0]
    g = random_metric(model, rng)
    if name != "iwasawa":       # a constant off-diagonal part, so that the
        # pairings of the constant (2,0) channels are not diagonal
        g = Metric(g.omega + synthesize_form(
            model, 1, 1, [(((1,), (2,)), (0,) * 6, 0.1)], real=True))
    kernel = bott_chern_20(g) if kind == "bc" else harmonic_basis(
        g, kind, 2, 0)
    a = 0.1 * random_form(model, 2, 0, rng) + kernel[1]
    ref = norm(g, _harmonic_part(g, kind, a))
    assert ref > 0.1 * norm(g, a)
    assert abs(analysis._harmonic_norm_20(g, a) - ref) <= 1e-12 * ref


def _pcg_spy(monkeypatch):
    """The list of bidegrees of every grid PCG solve from here on."""
    from hsgeom import hodge

    solved, pcg = [], hodge._pcg
    monkeypatch.setattr(hodge, "_pcg", lambda metric, b, *rest:
                        solved.append((b.p, b.q)) or pcg(metric, b, *rest))
    return solved


def test_grid_torsion_runs_no_pcg(monkeypatch):
    solved = _pcg_spy(monkeypatch)
    g = Metric(standard_fixture("three_coord", resolution=8, eps=EPS)[3])
    for m in TORSION_MODES:
        assert torsion_form(g, m).energy > 0
    assert solved == []


@pytest.mark.parametrize("name", ["two_coord", "three_coord", "torus3"])
def test_dim3_torsion_ignores_the_preimage_kernel(name, torus3, monkeypatch):
    # the backend preimage is defined up to ker dbar on (2,0); rho is the
    # preimage minus its harmonic part, so a constant (holomorphic) (2,0)
    # field added to the preimage must not reach rho.  On torus3 rho = 0.
    rng = np.random.default_rng(3)
    if name == "torus3":
        model, omega = torus3, random_metric(torus3, rng).omega
    else:
        model, *_, omega = standard_fixture(name, resolution=8, eps=EPS)
    ref = torsion_form(Metric(omega), "dim3").rho20
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    preimage = type(model).dbar_preimage

    def shifted(self, p, q, v):
        x = preimage(self, p, q, v)
        return x + c.reshape((-1,) + (1,) * (x.ndim - 1)) if p == 2 else x

    monkeypatch.setattr(type(model), "dbar_preimage", shifted)
    g = Metric(omega)
    rho = torsion_form(g, "dim3").rho20
    if name == "torus3":
        assert coeff_norm(ref) == 0.0
        assert coeff_norm(rho) <= 1e-14
    else:
        assert norm(g, rho - ref) <= 1e-12 * norm(g, ref)


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
    for mode in ("bogus", "hs_min"):
        with pytest.raises(ValueError):
            torsion_form(eps_metric, mode=mode)


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
    assert torsion_form(g, "skt") is not rep


@pytest.mark.parametrize("kind", ["dbar", "bc"], ids=["dim3-dbar", "dim3-bc"])
@pytest.mark.parametrize("backend", ["lie", "grid"])
def test_minimality_is_the_norm_of_the_harmonic_part(torus3, backend, kind):
    # basis-free: independent of which orthonormal kernel basis eigh returns.
    # Read by the wedge route; where it is round-off, as here, it need not
    # equal the Gram-route norm bit for bit (test_minimality_by_the_wedge_route
    # compares the two on a form with a harmonic part).
    if backend == "lie":
        g = random_metric(torus3, np.random.default_rng(7))
    else:
        g = Metric(standard_fixture("two_coord", resolution=8, eps=EPS)[3])
    rep = torsion_form(g)
    got = rep.residuals["minimality"]
    assert got == analysis._harmonic_norm_20(g, rep.rho20)
    assert got < 1e-9
    assert norm(g, _harmonic_part(g, kind, rep.rho20)) < 1e-9


def test_feasibility_and_lefschetz_split_memoised_per_metric(
        torus3, iwasawa, monkeypatch):
    g = Metric(flat_metric_form(torus3))
    start = analysis._torsion_start(g)
    assert analysis._torsion_start(g) is start
    alpha, prim, residual = lefschetz_alpha(g)
    again = lefschetz_alpha(g)
    assert again[0] is alpha and again[1] is prim and again[2] == residual
    # classify_metric reads the sign field of the memoised split
    calls = []
    monkeypatch.setattr(analysis, "pointwise_inner",
                        lambda *a: calls.append(a) or pointwise_inner(*a))
    classify_metric(g)
    assert calls == []
    # every failing torsion extraction on one metric reads one memoised
    # first stage, one dbar preimage of del omega, and raises its residuals
    g = Metric(flat_metric_form(iwasawa))
    solved, preimage = [], analysis._dbar_preimage
    monkeypatch.setattr(analysis, "_dbar_preimage",
                        lambda *a: solved.append(a) or preimage(*a))
    raised = []
    for tol in (None, 1e-8, None):
        with pytest.raises(NotFeasibleError) as ei:
            torsion_form(g, tol=tol)
        raised.append(ei.value.residuals)
    assert len(solved) == 1
    start = analysis._torsion_start(g)[1]
    assert raised[0] == raised[1] == raised[2] == start
    assert list(start) == ["del_rho", "dbar_rho_plus_del_omega"]
    assert all(r is not start for r in raised)      # the memo stays intact


@pytest.mark.parametrize("case,mode", [
    ("iwasawa", "dim3"), ("iwasawa perturbed", "dim3"),
    ("heis3 perturbed", "skt"), ("two_coord wave", "dim3")])
def test_failing_extraction_builds_no_kernel(lie_models, case, mode,
                                             monkeypatch):
    """The verdict comes before any kernel: on a metric that is not HS the
    classification and torsion sections raise from the one (2,0) dbar
    preimage of del omega, with no least squares, no Gram root and no
    harmonic basis.  The wave is test_infeasible_torus's, at N=8."""
    from hsgeom import lie

    if case == "two_coord wave":
        model, _, omega0, _ = standard_fixture("two_coord", resolution=8,
                                               eps=EPS)
        g = Metric(omega0 + synthesize_form(model, 1, 1, [
            (((2,), (2,)), (1, 0, 0, 0, 0, 0), 0.05)], real=True))
    else:
        name, *perturbed = case.split()
        model = lie_models[name]
        g = (random_metric(model, np.random.default_rng(35)) if perturbed
             else Metric(flat_metric_form(model)))
    calls = []
    for owner, name in ((lie, "torsion_solve"),
                        (analysis, "torsion_solve"),
                        (analysis, "torsion_least_squares"),
                        (np.linalg, "lstsq"), (np.linalg, "cholesky")):
        monkeypatch.setattr(owner, name,
                            lambda *a, _name=name: calls.append(_name))
    preimage = type(g.model).dbar_preimage

    def spy(self, p, q, v):
        calls.append(("preimage", p, q))
        return preimage(self, p, q, v)
    monkeypatch.setattr(type(g.model), "dbar_preimage", spy)

    assert not classify_metric(g).hs_feasible
    with pytest.raises(NotFeasibleError, match="torsion constraints"):
        energy_and_volume(g, mode=mode)
    assert [c for c in calls if c[0] != "preimage"] == [], calls
    assert calls.count(("preimage", 2, 0)) == 1, calls
    assert g._kernel_cache == {}


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


def test_report_sections_differentiate_omega_once_per_part(monkeypatch):
    """del omega and dbar omega are memoised on the metric: the report
    sections and the descent certificate share one of each."""
    from hsgeom import descent

    g = Metric(standard_fixture("three_coord", resolution=16, eps=0.05)[3])
    model, parts = g.model, []
    apply = type(model).apply_differential

    def spy(self, part, p, q, coeffs):
        if coeffs is g.omega.coeffs:
            parts.append(part)
        return apply(self, part, p, q, coeffs)

    monkeypatch.setattr(type(model), "apply_differential", spy)
    energy_and_volume(g)
    classify_metric(g)
    lefschetz_alpha(g)
    sg_and_completion(g)
    scalar_volume_derivative(g, random_band_form(
        model, 0, 0, np.random.default_rng(2)))
    descent.certify_critical(g)
    assert sorted(parts) == ["dbar", "del"], parts


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


def _exact_02(case, iwasawa):
    """(metric, a dbar-exact (0,2)-form): the conjugate torsion on
    three_coord N=8 at the eps of `case` (F > 0), or an injected dbar y on
    iwasawa (dbar phibar3 = phibar12; heis3 has dbar = 0 on invariant
    (0,1)-forms, so no nonzero invariant (0,2)-form is dbar-exact there)."""
    if case == "iwasawa":
        g = random_metric(iwasawa, np.random.default_rng(3))
        y = Form(iwasawa, 0, 1, np.array([0.3 + 0.1j, -0.2j, 0.7 - 0.4j]))
        return g, differential("dbar", y)
    eps = float(case.split()[1])
    g = Metric(standard_fixture("three_coord", resolution=8, eps=eps)[3])
    return g, torsion_form(g).rho02


@pytest.mark.parametrize("case", ["three_coord 0.05", "three_coord 0.2",
                                  "iwasawa"])
def test_e2_potential_is_a_coclosed_preimage(case, iwasawa):
    # against the metric-free preimage xi' it starts from and against the
    # metric-minimal route
    g, v = _exact_02(case, iwasawa)
    assert norm(g, v) > 0.01
    xi0 = Form(g.model, 0, 1, g.model.dbar_preimage(0, 1, v.coeffs))
    xi, res = analysis._dbar_preimage(g, v, coclosed=True)
    assert res <= 1e-13 * norm(g, v)
    # on an invariant unimodular model dbar* of a (0,1)-form is a constant
    # of mean 0, so xi' is co-closed already and the solve returns 0
    assert norm(g, adjoint_diff(g, "dbar", xi)) <= max(
        1e-8 * norm(g, adjoint_diff(g, "dbar", xi0)), 1e-14 * norm(g, xi))
    g_val, marker, diag = e2_obstruction(g, v)
    assert marker is None
    assert diag["membership_residual"] <= 1e-13
    routes = diag["g_routes"]
    assert max(routes) - min(routes) <= 1e-12 * g_val
    ref = norm(g, laplacian(g, "dbar", _dbar_potential(g, v)[0])) ** 2
    assert abs(routes[2] - ref) <= 1e-9 * ref


@pytest.mark.parametrize("case", ["three_coord 0.2", "iwasawa"])
def test_e2_obstruction_marks_a_non_exact_form(case, iwasawa):
    g, exact = _exact_02(case, iwasawa)
    v = exact + 0.5 * harmonic_basis(g, "dbar", 0, 2)[0]
    g_val, marker, diag = e2_obstruction(g, v)
    assert g_val is None and marker == "page-2 torsion class nonzero"
    # the metric-minimal route sees it too, at a distance never above the
    # residual of the co-closed preimage
    ref = _dbar_potential(g, v)[1] / max(1.0, norm(g, v))
    assert ref > 1e3 * analysis._default_tol(g.model)
    assert diag["membership_residual"] >= ref * (1 - 1e-9)


@pytest.mark.parametrize("case", ["three_coord 0.2", "iwasawa"])
def test_e2_obstruction_solves_only_on_00(case, iwasawa, monkeypatch):
    # the potential takes one Green solve, on (0,0), on either backend
    g, v = _exact_02(case, iwasawa)
    solved, solve = [], analysis.green_solve
    monkeypatch.setattr(analysis, "green_solve", lambda metric, kind, b, **kw:
                        solved.append((b.p, b.q)) or solve(metric, kind, b, **kw))
    assert e2_obstruction(g, v)[1] is None
    assert solved == [(0, 0)]


def test_energy_and_volume_solves_no_02(monkeypatch):
    solved = _pcg_spy(monkeypatch)
    g = Metric(standard_fixture("three_coord", resolution=8, eps=EPS)[3])
    energy_and_volume(g)
    assert (0, 2) not in solved and solved.count((0, 0)) == 1


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


def _dbar_potential(metric, v):
    """(xi, ||dbar xi - v||) for the metric-minimal xi = dbar* G''(v), so
    that dbar xi is the projection of v onto im dbar: a Green solve on v's
    own bidegree (reference_green), the reference route to
    analysis._dbar_preimage."""
    xi = adjoint_diff(metric, "dbar", reference_green(metric, "dbar", v)[0])
    return xi, norm(metric, differential("dbar", xi) - v)


def _sg_on_32(metric):
    """The sG residual on the (3,2) side: the distance of del omega^2 from
    im dbar by a Green solve on (3,2), relative to ||del omega^2||."""
    d_pow = differential("del", wedge(metric.omega, metric.omega))
    return _dbar_potential(metric, d_pow)[1] / norm(metric, d_pow)


def _heis3_perturbed(heis3):
    u = Form(heis3, 1, 0, np.array([0.031 - 0.012j, 0.004 + 0.022j,
                                    -0.04 + 0.017j]))
    return Metric(flat_metric_form(heis3) + differential("del", conjugate(u))
                  + differential("dbar", u))


@pytest.mark.parametrize("case", ["three_coord 0.05", "three_coord 0.2",
                                  "heis3"])
def test_sg_membership_matches_the_32_route(case, heis3):
    # the residual of the metric-free preimage is never below the metric
    # distance that the (3,2) Green solve measures, and decides alike
    if case == "heis3":
        g = _heis3_perturbed(heis3)
    else:
        name, eps = case.split()
        g = Metric(standard_fixture(name, resolution=8, eps=float(eps))[3])
    c = classify_metric(g)
    ref = _sg_on_32(g)
    assert c.residuals["sg_membership"] >= ref * (1 - 1e-12)
    assert c.strongly_gauduchon == (
        ref <= max(c.tolerance, 1e2 * analysis._default_tol(g.model)))


def test_sg_membership_vanishes_on_two_coord():
    g = Metric(standard_fixture("two_coord", resolution=8, eps=EPS)[3])
    c = classify_metric(g)
    assert c.residuals["sg_membership"] <= 1e-12 and _sg_on_32(g) <= 1e-12
    assert c.strongly_gauduchon


@pytest.mark.parametrize("name, eps", [("two_coord", EPS),
                                       ("three_coord", 0.05),
                                       ("three_coord", 0.2)])
@pytest.mark.parametrize("resolution", [8, 16])
def test_sg_iff_gauduchon_on_the_torus(name, eps, resolution):
    # the torus satisfies the del-dbar lemma, so dbar del omega^2 = 0 makes
    # del omega^2 dbar-exact: the two decisions are taken independently
    g = Metric(standard_fixture(name, resolution=resolution, eps=eps)[3])
    c = classify_metric(g)
    assert c.strongly_gauduchon == c.gauduchon == (name == "two_coord")


def test_classification_runs_no_green_solve(heis3, monkeypatch):
    # neither the sG test nor the HS verdict solves: no grid PCG, and no
    # (0,2) Ritz basis of the invariant Green operator
    solved = _pcg_spy(monkeypatch)
    classify_metric(Metric(standard_fixture("three_coord", resolution=8,
                                            eps=EPS)[3]))
    assert solved == []
    g = _heis3_perturbed(heis3)
    assert not classify_metric(g).hs_feasible
    assert ("ritz", "dbar", 0, 2) not in g._memo


def test_grid_classification_builds_no_32_kernel(monkeypatch):
    # classification solves nothing; the torsion section's (0,2) harmonic
    # basis takes three Green solves on (3,0) for its start block, and the
    # E_2 potential one on (0,0).  No (3,2) or (0,1) basis is built.
    solved = _pcg_spy(monkeypatch)
    g = Metric(standard_fixture("three_coord", resolution=8, eps=EPS)[3])
    classify_metric(g)
    energy_and_volume(g)
    assert sorted(solved) == [(0, 0), (3, 0), (3, 0), (3, 0)]
    assert not any(key[1:] in {(0, 1), (3, 2)} for key in g._kernel_cache)


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
        comp = sg_and_completion(g)
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


def test_aeppli_sweep_sample_13_at_n32():
    # scripts/aeppli_invariance_sweep.py with its defaults (two_coord, eps
    # 0.05, seed 2026): its sample 13 (0-based) at N=32 stalled the torsion
    # PCG at its iteration cap
    path = (pathlib.Path(__file__).parents[1] / "scripts"
            / "aeppli_invariance_sweep.py")
    spec = importlib.util.spec_from_file_location("aeppli_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    model, _, _, omega = standard_fixture("two_coord", resolution=32, eps=0.05)
    rng = np.random.default_rng(2026)
    for _ in range(14):
        u = sweep.random_potential(model, rng)
    _, rep = aeppli_perturb(Metric(omega), u)
    assert abs(rep.a_change) < 1e-9


def test_classify_three_coord_at_large_eps():
    # eps 0.2 at N=16: the sG solve of the classification used to exhaust
    # its PCG cap (640 iterations)
    g = Metric(standard_fixture("three_coord", resolution=16, eps=0.2)[3])
    cls = classify_metric(g)
    assert cls.hs_feasible and not cls.kahler


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
