"""Acceptance gate: ten pinned criteria, one test (and one pass line) each.

Every criterion prints a single summary line; run with `pytest -v` to get the
per-criterion pass/fail listing, or `-s` to see the measured residuals.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hsgeom import (
    catalogue_model,
    refine,
    resample,
    standard_fixture,
    synthesize_form,
)
from hsgeom.forms import (
    coeff_norm,
    conjugate,
    differential,
    flat_metric_form,
    integrate_top,
    wedge,
)
from hsgeom.hodge import (
    Metric,
    adjoint_diff,
    inner,
    norm,
    star,
)
from hsgeom import analysis, cohomology, descent
from hsgeom.lie import hs_feasibility

from conftest import (bc_perturb, first_variation, primitive_part,
                      primitive_star_reference, random_band_form,
                      random_form, random_metric)

RESOLUTION = 16
EPS = 0.05


@contextmanager
def runtime_cap(seconds):
    t0 = time.monotonic()
    box = {}
    yield box
    box["elapsed"] = time.monotonic() - t0
    assert box["elapsed"] < seconds, (
        f"runtime {box['elapsed']:.1f}s exceeded the {seconds}s budget"
    )


def report_line(k, label, detail, box):
    print(f"criterion {k:2d} PASS  {label}: {detail} [{box['elapsed']:.1f}s]")


def small_potential(model, rng, scale=0.02):
    u = random_band_form(model, 1, 0, rng, terms=3)
    peak = float(np.abs(u.coeffs).max())
    return (scale / max(peak, 1e-30)) * u


@pytest.fixture(scope="module")
def family16(eps_metric):
    """Twenty admissible random Aeppli directions at omega_eps, with reports."""
    rng = np.random.default_rng(2026)
    model = eps_metric.model
    out = []
    for _ in range(20):
        u = small_potential(model, rng)
        g2, rep = analysis.aeppli_perturb(eps_metric, u)
        out.append((u, g2, rep))
    return out


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_bicomplex_axioms(lie_models, two_coord, three_coord):
    """del^2 = dbar^2 = del dbar + dbar del = 0 on both backends."""
    rng = np.random.default_rng(11)
    worst_lie = 0.0
    with runtime_cap(5.0) as box:
        for model in lie_models.values():
            for p in range(4):
                for q in range(4):
                    a = random_form(model, p, q, rng)
                    s = max(1.0, coeff_norm(a))
                    dd = differential("del", differential("del", a))
                    bb = differential("dbar", differential("dbar", a))
                    mixed = differential("del", differential("dbar", a)) + \
                        differential("dbar", differential("del", a))
                    worst_lie = max(
                        worst_lie,
                        coeff_norm(dd) / s,
                        coeff_norm(bb) / s,
                        coeff_norm(mixed) / s,
                    )
        worst_torus = 0.0
        for model in (two_coord[0], three_coord[0]):
            for p, q in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2)]:
                a = random_band_form(model, p, q, rng)
                s = max(1.0, coeff_norm(a))
                dd = differential("del", differential("del", a))
                bb = differential("dbar", differential("dbar", a))
                mixed = differential("del", differential("dbar", a)) + \
                    differential("dbar", differential("del", a))
                worst_torus = max(
                    worst_torus,
                    coeff_norm(dd) / s,
                    coeff_norm(bb) / s,
                    coeff_norm(mixed) / s,
                )
        assert worst_lie < 1e-12
        assert worst_torus < 1e-9
    report_line(1, "bicomplex axioms",
                f"lie {worst_lie:.1e}, torus {worst_torus:.1e}", box)


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_hodge_consistency(lie_models, two_coord):
    """Adjointness and the primitive-star formula, 100 samples per bidegree."""
    heis = lie_models["heis3"]
    iw = lie_models["iwasawa"]
    torus = two_coord[0]
    rng = np.random.default_rng(17)
    worst_adj = 0.0
    worst_prim = 0.0
    with runtime_cap(10.0) as box:
        # invariant backend: fresh metric per sample
        for part, shift in (("del", (1, 0)), ("dbar", (0, 1))):
            for p in range(4 - shift[0]):
                for q in range(4 - shift[1]):
                    for _ in range(100):
                        g = random_metric(heis, rng)
                        a = random_form(heis, p, q, rng)
                        b = random_form(heis, p + shift[0], q + shift[1], rng)
                        lhs = inner(g, differential(part, a), b)
                        rhs = inner(g, a, adjoint_diff(g, part, b))
                        scale = max(1.0, norm(g, a) * norm(g, b))
                        worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
        for p, q in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]:
            for _ in range(100):
                g = random_metric(iw, rng)
                v = primitive_part(g, random_form(iw, p, q, rng))
                res = coeff_norm(star(g, v) - primitive_star_reference(g, v))
                worst_prim = max(worst_prim, res / max(1.0, coeff_norm(v)))
        # grid backend: ten metrics x ten samples per bidegree
        for p, q in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            for _ in range(10):
                g = random_metric(torus, rng, wobble=0.05)
                for _ in range(10):
                    a = random_band_form(torus, p, q, rng)
                    b = random_band_form(torus, p + 1, q, rng)
                    lhs = inner(g, differential("del", a), b)
                    rhs = inner(g, a, adjoint_diff(g, "del", b))
                    scale = max(1.0, norm(g, a) * norm(g, b))
                    worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
                    v = primitive_part(g, a)
                    res = coeff_norm(star(g, v) - primitive_star_reference(g, v))
                    worst_prim = max(worst_prim, res / max(1.0, coeff_norm(v)))
        assert worst_adj < 1e-10
        assert worst_prim < 1e-10
    report_line(2, "hodge consistency",
                f"adjoint {worst_adj:.1e}, primitive-star {worst_prim:.1e}", box)


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_torsion_routes(eps_metric, torus3_metric):
    """Minimal-norm, degree-3, and least-squares torsion solvers agree."""
    with runtime_cap(30.0) as box:
        worst = 0.0
        sols = [
            analysis.torsion_form(eps_metric, mode=m).rho20
            for m in analysis.TORSION_MODES
        ]
        sols.append(analysis.torsion_least_squares(eps_metric))
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                worst = max(worst, norm(eps_metric, sols[i] - sols[j]))
        # the lie fixture where the system is solvable: the flat abelian model
        lie_sols = [
            analysis.torsion_form(torus3_metric, mode=m).rho20
            for m in analysis.TORSION_MODES
        ]
        lie_sols.append(analysis.torsion_least_squares(torus3_metric))
        for i in range(len(lie_sols)):
            for j in range(i + 1, len(lie_sols)):
                worst = max(worst, norm(torus3_metric, lie_sols[i] - lie_sols[j]))
        assert worst <= 1e-8
    report_line(3, "torsion routes", f"pairwise {worst:.1e}", box)


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_generalized_volume_invariance(eps_metric, family16):
    """A is constant over random Aeppli moves, to round-off at N=16 and 32.

    The torsion is exact (a dbar preimage, no iterative solve), so neither
    grid carries a solver stopping residual and the drift is round-off on
    both; there is no discretisation error left for refinement to shrink."""
    with runtime_cap(120.0) as box:
        base = analysis.energy_and_volume(eps_metric, mode="dim3")
        a0 = base.generalized_volume
        defect16 = max(abs(rep.a_change) / abs(a0) for _, _, rep in family16)
        assert defect16 <= 1e-13

        model = eps_metric.model
        fine = refine(model, 2)
        omega_fine = resample(eps_metric.omega, fine)
        g_fine = Metric(omega_fine)
        a0_fine = analysis.energy_and_volume(g_fine, mode="dim3").generalized_volume
        defect32 = 0.0
        for u, _, _ in family16:
            u2 = resample(u, fine)
            bump = differential("del", conjugate(u2)) + differential("dbar", u2)
            rep = analysis.energy_and_volume(Metric(omega_fine + bump),
                                             mode="dim3")
            defect32 = max(defect32,
                           abs(rep.generalized_volume - a0_fine) / abs(a0_fine))
        assert defect32 <= 1e-13
    report_line(4, "generalized-volume invariance",
                f"N=16 {defect16:.1e} -> N=32 {defect32:.1e}", box)


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_torsion_transport(eps_metric, family16):
    """rho moves by del u along Aeppli rays; deldbar moves leave it fixed."""
    with runtime_cap(60.0) as box:
        worst_transport = max(rep.transport_residual for _, _, rep in family16)
        assert worst_transport < 1e-7

        model = eps_metric.model
        worst_same = 0.0
        worst_shift = 0.0
        for k, freqs in enumerate([(1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0)]):
            phi = synthesize_form(model, 0, 0, [(0, freqs, 0.02)], real=True)
            _, rep = bc_perturb(eps_metric, phi)
            worst_same = max(worst_same, rep.transport_residual)
            worst_shift = max(worst_shift, rep.quadratic_residual)
        assert worst_same < 1e-7
        assert worst_shift < 1e-7
    report_line(5, "torsion transport",
                f"aeppli {worst_transport:.1e}, bc same-rho {worst_same:.1e}, "
                f"energy shift {worst_shift:.1e}", box)


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_first_variation(eps_metric, two_coord):
    """Analytic dF against central differences; dA vanishes identically.

    dF pairs the torsion form against del u, so it vanishes identically for
    directions whose spectrum misses the torsion's.  To make a *relative*
    error meaningful each random direction mixes in the fixture potential,
    guaranteeing a nonzero derivative of honest size (1e-4 .. 1e-2 here).
    """
    rng = np.random.default_rng(23)
    model = eps_metric.model
    u0 = two_coord[1]
    h = 1e-4
    with runtime_cap(120.0) as box:
        worst_rel = 0.0
        worst_da = 0.0
        for _ in range(10):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            u = c * u0 + random_band_form(model, 1, 0, rng, terms=3, scale=0.02)
            dF, dVol, _ = first_variation(eps_metric, u)

            def F(t):
                bump = differential("del", conjugate(t * u)) + \
                    differential("dbar", t * u)
                return analysis.energy_and_volume(
                    Metric(eps_metric.omega + bump), mode="dim3"
                ).energy

            fd = (F(h) - F(-h)) / (2.0 * h)
            worst_rel = max(worst_rel, abs(dF - fd) / abs(fd))
            worst_da = max(worst_da, abs(dF + dVol))
        assert worst_rel < 1e-5
        assert worst_da < 1e-10
    report_line(6, "first variation",
                f"FD rel {worst_rel:.1e}, |dA| {worst_da:.1e}", box)


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_descent_reaches_kahler(eps_metric):
    """Gradient descent on the energy lands on a Kahler metric."""
    with runtime_cap(300.0) as box:
        res = descent.descend(
            eps_metric, descent.DescentOptions(tol=1e-6, max_iters=500)
        )
        trace = res.trace
        assert trace.termination == "converged"
        cert = res.certificate
        assert cert.balanced_defect < 1e-6
        assert cert.kahler_defect < 1e-5
        final = trace.final
        assert final["F"] < 1e-8
        a0 = trace.iterates[0]["gen_vol"]
        assert abs(final["vol"] - a0) < 1e-6
        f_col = [row["F"] for row in trace.iterates]
        assert all(b <= a for a, b in zip(f_col, f_col[1:]))
    report_line(7, "descent criticality",
                f"{len(trace.iterates) - 1} iters, F {final['F']:.1e}, "
                f"|dW| {cert.kahler_defect:.1e}", box)


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_completion_identities(eps_metric, three_coord,
                                            flat16, torus3_metric):
    """Positive (2,2)-form, its root, and the d-closed completion."""
    keys = ("sixth_integral_residual", "dbar_Omega_residual", "root_residual",
            "completion_closure", "completion_vs_A")
    with runtime_cap(120.0) as box:
        worst = 0.0
        for g in (eps_metric, Metric(three_coord[3]), flat16, torus3_metric):
            idn = analysis.sg_and_completion(g).identities
            for key in keys:
                worst = max(worst, idn[key])
        assert worst < 1e-7
    report_line(8, "completion identities", f"max residual {worst:.1e}", box)


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_lefschetz_and_sign_field(eps_metric, three_coord, heis3):
    """Pointwise Lefschetz identity, SKT integral law, sign-field dichotomy."""
    heis_metric = Metric(flat_metric_form(heis3))
    fixtures = {
        "t3-eps": eps_metric,          # gauduchon SKT
        "t3-three": Metric(three_coord[3]),  # non-gauduchon SKT
        "heis3": heis_metric,          # gauduchon SKT, invariant
    }
    with runtime_cap(120.0) as box:
        worst_point = 0.0
        worst_integral = 0.0
        seen_gauduchon = 0
        seen_non = 0
        for name, g in fixtures.items():
            _, _, res = analysis.lefschetz_alpha(g)
            worst_point = max(worst_point, res)
            cls = analysis.classify_metric(g)
            assert cls.skt, name
            s_int = float(np.real(np.mean(np.asarray(cls.sign_field) * g.density)))
            worst_integral = max(worst_integral, abs(s_int))
            # dichotomy: gauduchon exactly when the sign field is null a.e.
            null = cls.set_fractions["null"] == 1.0
            assert cls.gauduchon == null, name
            seen_gauduchon += int(cls.gauduchon)
            seen_non += int(not cls.gauduchon)
        assert worst_point < 1e-8
        assert worst_integral < 1e-8
        assert seen_gauduchon >= 1 and seen_non >= 1
    report_line(9, "lefschetz / sign field",
                f"pointwise {worst_point:.1e}, integral {worst_integral:.1e}, "
                f"{seen_gauduchon} gauduchon / {seen_non} non", box)


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_cohomology_regression(lie_models, torus3_metric):
    """Spectral pages, infeasibility certificates, class invariance, pairing."""
    torus3 = lie_models["torus3"]
    iw = lie_models["iwasawa"]
    with runtime_cap(10.0) as box:
        assert cohomology.spectral_page(torus3, 1).degenerates
        assert cohomology.higher_page_groups(torus3, 2).page_diagnostic

        tab = cohomology.classical_groups(iw)
        assert tab.dolbeault[1, 0] == 3
        assert tab.dolbeault[0, 1] == 2
        e1 = cohomology.spectral_page(iw, 1)
        e2 = cohomology.spectral_page(iw, 2)
        assert any(e1.dims[k] != e2.dims[k] for k in e1.dims)
        cert = hs_feasibility(Metric(flat_metric_form(iw)))
        assert not cert.feasible and cert.residual > 0.1

        cls, ccert = cohomology.e2_torsion_class(torus3_metric)
        assert ccert["vanishing"]
        assert ccert["perturbed_coordinate_drift"] < 1e-10

        pairing_residual = 0.0
        satisfied = 0
        for name, model in lie_models.items():
            g = Metric(flat_metric_form(model))
            try:
                res = cohomology.e2_intersection(g)
            except cohomology.HypothesisFailed:
                continue
            satisfied += 1
            pairing_residual = max(pairing_residual, res.residual)
        assert satisfied >= 1
        assert pairing_residual < 1e-9
    report_line(10, "cohomology regression",
                f"drift {ccert['perturbed_coordinate_drift']:.1e}, "
                f"pairing {pairing_residual:.1e} on {satisfied} fixture(s)", box)
