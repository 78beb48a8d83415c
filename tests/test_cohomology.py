"""Invariant cohomology: classical tables, spectral pages, page-2 machinery."""

import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
from conftest import (er_closed_exact, normal_form_text, random_lie_form,
                      random_metric)

from hsgeom import analysis, cli, cohomology
from hsgeom.forms import (
    Form,
    basis_form,
    coeff_norm,
    conjugate,
    differential,
    flat_metric_form,
    wedge,
    zero_form,
)
from hsgeom.hodge import Metric, form_of_11, inner
from hsgeom.lie import _nullspace, load_model
from hsgeom.analysis import TorsionReport, torsion_form
from hsgeom.cohomology import (
    CohomClass,
    HypothesisFailed,
    NotHSError,
    classical_groups,
    e2_intersection,
    e2_torsion_class,
    higher_page_groups,
    spectral_page,
)

IW_BETTI = [1, 4, 8, 10, 8, 4, 1]
IW_E1_TOTALS = [1, 5, 11, 14, 11, 5, 1]
HEIS_BETTI = [1, 5, 11, 14, 11, 5, 1]
IW_DOLBEAULT = [[1, 2, 2, 1], [3, 6, 6, 3], [3, 6, 6, 3], [1, 2, 2, 1]]
IW_BC = [[1, 2, 3, 1], [2, 4, 6, 2], [3, 6, 8, 3], [1, 2, 3, 1]]
HEIS_DOLBEAULT = [[1, 3, 3, 1], [2, 6, 6, 2], [2, 6, 6, 2], [1, 3, 3, 1]]
HEIS_BC = [[1, 2, 2, 1], [2, 6, 7, 3], [2, 7, 8, 3], [1, 3, 3, 1]]
HEIS_E2_BC = [[1, 2, 2, 1], [2, 5, 6, 3], [2, 6, 7, 3], [1, 3, 3, 1]]


def totals(page):
    """The page's total dimension in each degree k = p + q, k = 0 .. 6."""
    return [sum(v for (p, q), v in page.dims.items() if p + q == k)
            for k in range(7)]


# -- classical groups ----------------------------------------------------------


def test_torus3_tables_are_binomial(torus3):
    tab = classical_groups(torus3)
    for p in range(4):
        for q in range(4):
            want = math.comb(3, p) * math.comb(3, q)
            assert tab.dolbeault[p, q] == want
            assert tab.bott_chern[p, q] == want
            assert tab.aeppli[p, q] == want
    assert tab.de_rham == [math.comb(6, k) for k in range(7)]
    assert tab.duality_ok


def test_iwasawa_tables(iwasawa):
    tab = classical_groups(iwasawa)
    assert tab.de_rham == IW_BETTI
    assert tab.dolbeault.tolist() == IW_DOLBEAULT
    assert tab.bott_chern.tolist() == IW_BC
    assert tab.duality_ok
    # aeppli is the flip of bott-chern: a[p,q] = bc[n-p, n-q]
    assert tab.aeppli.tolist() == np.array(IW_BC)[::-1, ::-1].tolist()


def test_heis3_betti(heis3):
    tab = classical_groups(heis3)
    assert tab.de_rham == HEIS_BETTI
    assert tab.dolbeault.tolist() == HEIS_DOLBEAULT
    assert tab.bott_chern.tolist() == HEIS_BC
    assert tab.aeppli.tolist() == np.array(HEIS_BC)[::-1, ::-1].tolist()
    assert tab.duality_ok


def test_frolicher_inequality(lie_models):
    """Dolbeault totals dominate the de Rham numbers degree by degree."""
    for model in lie_models.values():
        tab = classical_groups(model)
        for k in range(7):
            total = sum(
                tab.dolbeault[p, k - p] for p in range(4) if 0 <= k - p <= 3
            )
            assert total >= tab.de_rham[k]


def test_lie_only_guard(two_coord):
    with pytest.raises(ValueError):
        classical_groups(two_coord[0])


# -- spectral pages ---------------------------------------------------------------


def test_torus3_degenerates_immediately(torus3):
    page = spectral_page(torus3, 1)
    assert page.degenerates
    assert totals(page) == [math.comb(6, k) for k in range(7)]


def test_iwasawa_page_cascade(iwasawa):
    e1 = spectral_page(iwasawa, 1)
    assert totals(e1) == IW_E1_TOTALS  # E1 is still big
    assert not e1.degenerates
    e2 = spectral_page(iwasawa, 2)
    assert totals(e2) == IW_BETTI
    assert e2.degenerates
    e3 = spectral_page(iwasawa, 3)
    assert totals(e3) == IW_BETTI


def test_heis3_degenerates_at_one(heis3):
    e1 = spectral_page(heis3, 1)
    assert e1.degenerates
    assert totals(e1) == HEIS_BETTI


def test_page_one_is_dolbeault(iwasawa):
    tab = classical_groups(iwasawa)
    page = spectral_page(iwasawa, 1)
    for p in range(4):
        for q in range(4):
            assert page.dims[(p, q)] == tab.dolbeault[p, q]


def test_differentials_compose_to_zero(iwasawa):
    for r in (1, 2):
        page = spectral_page(iwasawa, r)
        for (p, q), first in page.d_maps.items():
            tgt = (p + r, q - r + 1)
            second = page.d_maps.get(tgt)
            if second is None or first.size == 0 or second.size == 0:
                continue
            assert np.linalg.norm(second @ first) < 1e-10


def test_rank_arithmetic(iwasawa):
    """dim E_{r+1} = dim E_r - rank(d_r in) - rank(d_r out), slot by slot."""
    e1 = spectral_page(iwasawa, 1)
    e2 = spectral_page(iwasawa, 2)
    rank = lambda M: 0 if M.size == 0 else np.linalg.matrix_rank(M, tol=1e-10)
    for (p, q), dim1 in e1.dims.items():
        out_rk = rank(e1.d_maps[(p, q)])
        src = (p - 1, q)
        in_rk = rank(e1.d_maps[src]) if src in e1.d_maps else 0
        assert e2.dims[(p, q)] == dim1 - out_rk - in_rk


def test_euler_characteristic_conserved(lie_models):
    for model in lie_models.values():
        tab = classical_groups(model)
        chi = sum((-1) ** k * b for k, b in enumerate(tab.de_rham))
        for r in (1, 2):
            page = spectral_page(model, r)
            chi_r = sum((-1) ** k * t for k, t in enumerate(totals(page)))
            assert chi_r == chi


@pytest.mark.parametrize("name", ["iwasawa", "heis3"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_differential_matches_single_columns(lie_models, name, r):
    """Each column of a d_r matrix is the block path on that column alone."""
    model = lie_models[name]
    page, data = spectral_page(model, r), cohomology._page(model, r)
    for (p, q), D in page.d_maps.items():
        tgt = (p + r, q - r + 1)
        if D.size == 0:
            continue
        Q = data.basis[(p, q)]
        for j in range(Q.shape[1]):
            col = data.coordinates(*tgt, data.differential(p, q, Q[:, [j]]))
            assert col.shape == (D.shape[0], 1)
            assert np.max(np.abs(col[:, 0] - D[:, j])) <= 1e-12


def test_block_ladder_rejects_a_non_closed_column(iwasawa):
    """One column whose d_1 class is nonzero is not page-2 closed, and the
    block that holds it raises, however many closed columns it also has."""
    e1 = spectral_page(iwasawa, 1)
    data1, data2 = cohomology._page(iwasawa, 1), cohomology._page(iwasawa, 2)
    (p, q), D = next((pq, D) for pq, D in sorted(e1.d_maps.items())
                     if D.size and np.max(np.abs(D)) > 1e-9)
    j = int(np.argmax(np.abs(D).max(axis=0)))
    closed = data2.basis[(p, q)]
    assert closed.shape[1] > 0
    assert data2.coordinates(p, q, closed).shape == (closed.shape[1],) * 2
    block = np.hstack([closed, data1.basis[(p, q)][:, [j]]])
    for A in (block, block[:, ::-1], block[:, -1:]):
        with pytest.raises(ValueError, match="not page-2-closed"):
            data2.ladder_witnesses(p, q, A)
        with pytest.raises(ValueError, match="not page-2-closed"):
            data2.differential(p, q, A)


def test_memoised_page_is_read_only(iwasawa):
    page = spectral_page(iwasawa, 1)
    pq, D = next((pq, D) for pq, D in page.d_maps.items() if D.size)
    before = D.copy()
    with pytest.raises(ValueError):
        D[0, 0] = 1e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        page.degenerates = True
    again = spectral_page(iwasawa, 1)
    assert again is page
    assert np.array_equal(again.d_maps[pq], before)


# -- page-r bott-chern / aeppli groups ------------------------------------------------


def test_page_one_higher_groups_match_classical(lie_models):
    for model in lie_models.values():
        tab = classical_groups(model)
        hp = higher_page_groups(model, r=1)
        assert hp.bc_dims.tolist() == tab.bott_chern.tolist()
        assert hp.a_dims.tolist() == tab.aeppli.tolist()


def test_higher_duality_all_pages(lie_models):
    for model in lie_models.values():
        for r in (1, 2, 3):
            hp = higher_page_groups(model, r=r)
            assert hp.bc_dims.tolist() == hp.a_dims[::-1, ::-1].tolist()


def test_page3_duality_needs_the_closing_rows():
    """Page-3 Bott-Chern/Aeppli duality where the r=3 closing rows of
    _exact_system (dbar v0 = 0, del u0 = 0) bind: without them h^{0,2} and
    h^{2,0} of E_{3,BC} read 1 on the deformed Iwasawa structure, and the
    duality fails there and on about a fifth of the normal-form draws."""
    model = load_model("name x\ndim 3\n"
                       "d phi3 = 1 * phi1^phi2 + 1 * phi1^phibar1\n")
    hp = higher_page_groups(model, r=3)
    assert hp.bc_dims[0, 2] == hp.bc_dims[2, 0] == 2
    assert hp.bc_dims.tolist() == hp.a_dims[::-1, ::-1].tolist()
    rng = np.random.default_rng(7)
    for _ in range(60):
        text = normal_form_text(rng)
        hp = higher_page_groups(load_model(text), r=3)
        assert hp.bc_dims.tolist() == hp.a_dims[::-1, ::-1].tolist(), text


def test_page_diagnostic_flags(lie_models):
    # the identity-map comparison becomes an isomorphism exactly when the
    # page-r groups collapse onto the spectral page
    assert higher_page_groups(lie_models["torus3"], r=1).page_diagnostic
    assert higher_page_groups(lie_models["torus3"], r=2).page_diagnostic
    assert not higher_page_groups(lie_models["iwasawa"], r=1).page_diagnostic
    assert higher_page_groups(lie_models["iwasawa"], r=2).page_diagnostic
    assert higher_page_groups(lie_models["iwasawa"], r=3).page_diagnostic
    for r in (1, 2, 3):
        assert not higher_page_groups(lie_models["heis3"], r=r).page_diagnostic


def test_iwasawa_page2_collapse(iwasawa):
    hp = higher_page_groups(iwasawa, r=2)
    page = spectral_page(iwasawa, 2)
    for p in range(4):
        for q in range(4):
            assert hp.bc_dims[p, q] == page.dims[(p, q)]
            assert hp.a_dims[p, q] == page.dims[(p, q)]


def test_heis3_page2_tables(heis3):
    hp = higher_page_groups(heis3, r=2)
    assert hp.bc_dims.tolist() == HEIS_E2_BC
    assert hp.a_dims.tolist() == np.array(HEIS_E2_BC)[::-1, ::-1].tolist()


# -- membership tests -----------------------------------------------------------------


def test_er_closed_exact_on_flat_omega(torus3):
    omega = flat_metric_form(torus3)
    out = er_closed_exact(omega, r=2)
    assert out["closed"]
    assert not out["exact"]
    assert out["closed_residual"] < 1e-12


def test_er_exact_witnesses_verify(heis3, iwasawa):
    # on heis3, dbar(phi3) = phi1 ^ phibar1 is closed and exact on pages 2
    # and 3; on iwasawa, del(phi3 ^ phibar3) is closed through a nonzero
    # tower but not exact.  Every witness returned must satisfy its tower.
    d = lambda f: differential("del", f)
    db = lambda f: differential("dbar", f)
    exact = db(basis_form(heis3, 1, 0, (3,), ()))
    closed = d(basis_form(iwasawa, 1, 1, (3,), (3,)))
    for r in (2, 3):
        out = er_closed_exact(exact, r=r)
        assert out["exact"]
        assert out["exact_residual"] < 1e-10
        w = out["exact_witnesses"]
        recon = d(w["zeta"]) + d(db(w["xi"])) + db(w["eta"])
        assert coeff_norm(recon - exact) < 1e-9
        if r == 2:
            sides = [db(w["zeta"]), d(w["eta"])]
        else:
            sides = [db(w["zeta"]) - d(w["v0"]), db(w["v0"]),
                     d(w["eta"]) - db(w["u0"]), d(w["u0"])]
        assert max(coeff_norm(f) for f in sides) < 1e-9
        assert not er_closed_exact(closed, r=r)["exact"]

        # del a = dbar eta1, del eta1 = dbar eta2, ... and
        # dbar a = del rho1, dbar rho1 = del rho2, ...
        for target in (exact, closed):
            out = er_closed_exact(target, r=r)
            assert out["closed"]
            c = out["closed_witnesses"]
            assert list(c) == [f"{nm}{i}" for nm in ("eta", "rho")
                               for i in range(1, r)]
            for nm, part, back in (("eta", d, db), ("rho", db, d)):
                prev = target
                for i in range(1, r):
                    assert coeff_norm(part(prev) - back(c[f"{nm}{i}"])) < 1e-9
                    prev = c[f"{nm}{i}"]
        assert coeff_norm(c["rho1"]) > 0.5


@pytest.mark.parametrize("name", ["torus3", "iwasawa", "heis3"])
@pytest.mark.parametrize("r", [2, 3])
def test_membership_agrees_with_spans(lie_models, name, r):
    """The tables and er_closed_exact read one system per condition: every
    form of the page-r closed span is closed, every form of the exact span
    is exact, and every page-r Bott-Chern representative (a d-closed form
    orthogonal to the exact span) is closed but not exact."""
    model = lie_models[name]
    cx = cohomology._complex(model)
    checks = 0
    for p in range(4):
        for q in range(4):
            closed = cx.orth(cohomology._closed_system(cx, p, q, r).span(),
                             p, q)
            exact = cohomology._exact_system(cx, p, q, r).span()
            Z = _nullspace(np.vstack([cx.op("del", p, q),
                                      cx.op("dbar", p, q)]))
            reps = cohomology._quotient(cx, Z, exact, p, q)
            for cols, want in ((closed, {"closed": True}),
                               (cx.orth(exact, p, q), {"exact": True}),
                               (reps, {"closed": True, "exact": False})):
                for j in range(cols.shape[1]):
                    out = er_closed_exact(Form(model, p, q, cols[:, j]), r=r)
                    for key, flag in want.items():
                        assert out[key] is flag, (p, q, j, key)
                        checks += 1
    assert checks > 0


def test_er_guards(torus3, two_coord):
    omega = flat_metric_form(torus3)
    with pytest.raises(ValueError):
        er_closed_exact(omega, r=5)
    with pytest.raises(ValueError):
        er_closed_exact(flat_metric_form(two_coord[0]), r=2)


def test_report_builds_each_result_once(tmp_path, monkeypatch):
    """Two reports on one freshly loaded model: one torsion extraction
    per metric, and every metric-free object built once across both reports:
    the page data and the page summary per r, the page-r Bott-Chern/Aeppli
    groups for r = 1 (the classical tables) and r = 2, and the Betti
    numbers.  Rerunning the first report reproduces it byte for byte."""
    text = (resources.files("hsgeom.catalogue")
            .joinpath("torus3.model").read_text())
    path = tmp_path / "torus3.model"
    path.write_text(text)
    fresh = cli.load_model(text)
    monkeypatch.setattr(cli, "load_model", lambda _: fresh)
    pages, summaries, higher, betti, extractions = [], [], [], [], []
    page_init = cohomology._PageData.__init__
    extract = analysis._torsion_form

    def counting_page_init(self, model, r):
        pages.append(r)
        page_init(self, model, r)

    def counting(log, build):
        def wrapper(model, *args):
            log.append(args[0] if args else None)
            return build(model, *args)
        return wrapper

    def counting_extract(metric, mode, tol):
        extractions.append(metric)
        return extract(metric, mode, tol)

    monkeypatch.setattr(cohomology._PageData, "__init__", counting_page_init)
    for name, log in (("_spectral_page", summaries),
                      ("_higher_page_groups", higher),
                      ("_betti_numbers", betti)):
        monkeypatch.setattr(cohomology, name,
                            counting(log, getattr(cohomology, name)))
    monkeypatch.setattr(analysis, "_torsion_form", counting_extract)
    first = ["report", "--model", str(path),
             "--out", str(tmp_path / "report.json")]
    assert cli.main(first) == 0
    # the report metric and the perturbed metric of the class recheck
    assert len(extractions) == 2 and extractions[0] is not extractions[1]
    report = (tmp_path / "report.json").read_bytes()
    assert cli.main(["report", "--model", str(path), "--perturb",
                     "coeffs:0.031,-0.012;0.004,0.022;-0.04,0.017",
                     "--out", str(tmp_path / "perturbed.json")]) == 0
    assert cli.main(first) == 0
    assert (tmp_path / "report.json").read_bytes() == report
    assert sorted(pages) == [1, 2, 3]
    assert sorted(summaries) == [1, 2, 3]
    assert sorted(higher) == [1, 2]
    assert betti == [None]


# -- the torsion class -------------------------------------------------------------------


def test_torsion_class_vanishes_on_torus(torus3_metric):
    cls, cert = e2_torsion_class(torus3_metric)
    assert isinstance(cls, CohomClass)
    assert cls.group == "E_2"
    assert cls.bidegree == (0, 2)
    assert np.allclose(cls.coordinates, 0.0)
    assert cert["vanishing"]
    assert cert["xi_residual"] < 1e-10
    assert cert["d2_image_norm"] < 1e-12
    assert cert["perturbed_coordinate_drift"] < 1e-10


def test_torsion_class_nonzero_when_injected(torus3_metric, torus3):
    rep = torsion_form(torus3_metric, mode="dim3")
    rho02 = 0.3 * basis_form(torus3, 0, 2, (), (1, 2))
    fake = dataclasses.replace(rep, rho02=rho02, rho20=conjugate(rho02))
    cls, cert = e2_torsion_class(torus3_metric, torsion_report=fake)
    assert not cert["vanishing"]
    assert abs(cert["witness_pairing"]) > 0.1
    assert np.max(np.abs(cls.coordinates)) > 0.1
    assert cert["perturbed_coordinate_drift"] is None


def test_torsion_class_drift_is_none_when_no_recheck_ran():
    # diag(5e-9, 1/2, 1/2) is a Kahler metric so thin along phi1 that no
    # halving of the random bump keeps it positive: no recheck ran, so no
    # drift is reported (at 1e-6 five halvings suffice)
    model = load_model("name thin\ndim 3\n"
                       "d phi1 = 0.5j * phi1^phi2 + 0.5j * phi1^phibar2\n")
    g = Metric(form_of_11(model, np.diag([5e-9, 0.5, 0.5])))
    assert torsion_form(g).energy == 0.0
    cert = e2_torsion_class(g)[1]
    assert cert["vanishing"]
    assert cert["perturbed_coordinate_drift"] is None
    drift = e2_torsion_class(Metric(form_of_11(
        model, np.diag([1e-6, 0.5, 0.5]))))[1]["perturbed_coordinate_drift"]
    assert drift is not None and drift < 1e-10


@pytest.mark.parametrize("which", ["flat", "random"])
def test_torsion_class_potential_on_exact_rho02(iwasawa, which):
    # rho02 = dbar xi0 is page-2 trivial, so the class vanishes and the
    # potential xi is the metric-minimal solution of dbar xi = rho02
    g = (Metric(flat_metric_form(iwasawa)) if which == "flat"
         else random_metric(iwasawa, np.random.default_rng(5)))
    rng = np.random.default_rng(17)
    rho02 = differential("dbar", random_lie_form(iwasawa, 0, 1, rng))
    fake = TorsionReport("dim3", conjugate(rho02), rho02, 0.0, g.volume,
                         g.volume, None, None, None, {}, {}, {})
    cls, cert = e2_torsion_class(g, torsion_report=fake)
    assert cert["vanishing"]
    assert np.linalg.norm(cls.coordinates) < 1e-12
    assert cert["xi_residual"] < 1e-12
    xi = cert["xi"]
    assert coeff_norm(differential("dbar", xi) - rho02) < 1e-12
    # minimal norm: xi is orthogonal to ker dbar on (0,1), here phibar1 and
    # phibar2
    assert np.linalg.matrix_rank(iwasawa.operator_matrix("dbar", 0, 1)) == 1
    kernel = [basis_form(iwasawa, 0, 1, (), (j,)) for j in (1, 2)]
    assert all(coeff_norm(differential("dbar", k)) == 0 for k in kernel)
    for k in kernel:
        assert abs(inner(g, xi, k)) < 1e-12


def test_torsion_class_needs_hs(iwasawa):
    with pytest.raises(NotHSError):
        e2_torsion_class(Metric(flat_metric_form(iwasawa)))


# -- the intersection number ---------------------------------------------------------------


def test_intersection_on_torus(torus3_metric):
    res = e2_intersection(torus3_metric)
    assert abs(res.integral - 6.0 * res.a_value) < 1e-9
    assert abs(res.a_value - 1.0) < 1e-12
    assert res.residual < 1e-9
    assert res.closure_residual < 1e-10
    assert res.stage2_residual < 1e-10
    d_tilde = max(
        coeff_norm(differential("del", res.omega_tilde)),
        coeff_norm(differential("dbar", res.omega_tilde)),
    )
    assert d_tilde < 1e-10


def test_intersection_scales_with_volume(torus3):
    # omega -> 2 omega: A -> 8 A and the pairing stays 6 A
    g = Metric(2.0 * flat_metric_form(torus3))
    res = e2_intersection(g)
    assert abs(res.a_value - 8.0) < 1e-10
    assert abs(res.integral - 48.0) < 1e-8


def test_intersection_hypothesis_order(lie_models, torus3_metric, torus3):
    with pytest.raises(HypothesisFailed) as e1:
        e2_intersection(Metric(flat_metric_form(lie_models["heis3"])))
    assert "page-1" in e1.value.which
    with pytest.raises(HypothesisFailed) as e2:
        e2_intersection(Metric(flat_metric_form(lie_models["iwasawa"])))
    assert "hermitian-symplectic" in e2.value.which
    rep = torsion_form(torus3_metric, mode="dim3")
    rho02 = 0.3 * basis_form(torus3, 0, 2, (), (1, 2))
    fake = dataclasses.replace(rep, rho02=rho02, rho20=conjugate(rho02))
    with pytest.raises(HypothesisFailed) as e3:
        e2_intersection(torus3_metric, torsion_report=fake)
    assert "vanishing" in e3.value.which
    assert isinstance(e3.value.certificate, CohomClass)
