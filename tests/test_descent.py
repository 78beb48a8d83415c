"""Descent over a fixed generalized-volume class: closed-form step, traces, certificates."""

import csv
import dataclasses
import io

import numpy as np
import pytest

from hsgeom import descent
from hsgeom.forms import (coeff_norm, conjugate, differential,
                          flat_metric_form, real_part, zero_form)
from hsgeom.hodge import (Metric, NotPositiveError, _adjugate, _matrix_of_11,
                          adjoint_diff, norm)
from hsgeom.torus import standard_fixture
from hsgeom.descent import (
    STEP_CAP,
    DescentOptions,
    DescentResult,
    DescentTrace,
    LineSearchStalled,
    PositivityBoundary,
    certify_critical,
    descend,
    gradient_direction,
)

from conftest import first_variation


def test_options_defaults():
    opts = DescentOptions()
    # the step is closed-form: no line-search knobs
    assert [f.name for f in dataclasses.fields(DescentOptions)] == [
        "tol", "max_iters", "torsion_mode"]
    assert opts.tol == 1e-6
    assert opts.max_iters == 200
    assert opts.torsion_mode == "dim3"
    assert 0 < STEP_CAP < 1


def _direction(metric):
    u = gradient_direction(metric)
    return u, real_part(differential("del", conjugate(u))
                        + differential("dbar", u))


# -- the closed-form step ------------------------------------------------------


def test_volume_polynomial_is_exact(eps_metric, three_coord):
    for g in (eps_metric, Metric(three_coord[3])):
        _, gamma = _direction(g)
        coeffs, t_pos = descent._volume_polynomial(g, gamma)
        assert coeffs[0] == pytest.approx(g.volume, abs=1e-14)
        for t in (0.1, 1.0, 0.5 * t_pos, STEP_CAP * t_pos):
            vol = Metric(real_part(g.omega + t * gamma)).volume
            assert abs(np.polynomial.polynomial.polyval(t, coeffs)
                       - vol) < 1e-12


def test_volume_slope_is_first_variation(eps_metric, three_coord):
    """dVol/dt at 0 is -dF/dt = 2 ||dbar* omega||^2, both derivatives also
    read from the first-variation reference."""
    for g in (eps_metric, Metric(three_coord[3])):
        u, gamma = _direction(g)
        coeffs, _ = descent._volume_polynomial(g, gamma)
        assert abs(coeffs[1] - 2.0 * norm(g, u) ** 2) < 1e-10
        dF, dVol, _ = first_variation(g, u)
        assert abs(coeffs[1] - dVol) < 1e-10
        assert abs(coeffs[1] + dF) < 1e-10


def test_step_beats_brute_force_volume(eps_metric, three_coord):
    for g in (eps_metric, Metric(three_coord[3])):
        _, gamma = _direction(g)
        coeffs, t_pos = descent._volume_polynomial(g, gamma)
        gain, t = descent._best_step(coeffs, STEP_CAP * t_pos)
        assert 0 < t <= STEP_CAP * t_pos
        vol_t = Metric(real_part(g.omega + t * gamma)).volume
        assert vol_t - g.volume == pytest.approx(gain, abs=1e-12)
        grid = np.linspace(0, STEP_CAP * t_pos, 51)[1:]
        best = max(Metric(real_part(g.omega + s * gamma)).volume
                   for s in grid)
        assert vol_t >= best - 1e-13


def _eigvalsh_route(H, G):
    """The volume cubic by the reference route: lambda, the eigenvalues of
    L^-1 G L^-H by inv(cholesky) and eigvalsh, ascending, and the elementary
    symmetric sums e_0..e_3 of lambda and of |lambda|."""
    Linv = np.linalg.inv(np.linalg.cholesky(H))
    lam = np.linalg.eigvalsh(Linv @ G @ np.conj(np.swapaxes(Linv, -1, -2)))
    sums = []
    for x in (lam, np.abs(lam)):
        e = np.zeros(lam.shape[:-1] + (4,))
        e[..., 0] = 1.0
        for j in range(3):
            e[..., 1:] += x[..., j, None] * e[..., :-1]
        sums.append(e)
    return lam, *sums


def _t_pos(least):
    neg = least[least < 0]
    return float(np.min(-1.0 / neg)) if neg.size else np.inf


@pytest.mark.parametrize("name, eps", [("two_coord", 0.05),
                                       ("three_coord", 0.05),
                                       ("three_coord", 0.2)])
def test_volume_cubic_matches_the_eigvalsh_route(name, eps):
    g = Metric(standard_fixture(name, resolution=16, eps=eps)[3])
    _, gamma = _direction(g)
    coeffs, t_pos = descent._volume_polynomial(g, gamma)
    lam, e, e_abs = _eigvalsh_route(g.H, _matrix_of_11(gamma))
    for k in range(4):
        want = g.model.mean(g.density * e[..., k]).real
        scale = g.model.mean(g.density * e_abs[..., k]).real
        assert abs(coeffs[k] - want) <= 1e-13 * scale, k
    # the least lambda of the point that sets t_pos is a simple root
    at = np.unravel_index(np.argmin(lam[..., 0]), lam.shape[:-1])
    assert lam[at][1] - lam[at][0] >= 1e-2 * abs(lam[at][0])
    assert t_pos == pytest.approx(_t_pos(lam[..., 0]), rel=1e-11)


def _stack(rng, lams, points=500):
    """Random Hermitian positive H and Hermitian G over `points`, with the
    eigenvalues of H^-1 G equal to `lams` up to round-off."""
    def gaussian():
        return (rng.standard_normal((points, 3, 3))
                + 1j * rng.standard_normal((points, 3, 3)))
    A = gaussian()
    H = A @ np.conj(np.swapaxes(A, -1, -2)) / 3 + np.eye(3)
    L = np.linalg.cholesky(H)
    Q = np.linalg.qr(gaussian())[0]
    G = L @ Q @ (np.asarray(lams)[:, None] * np.conj(
        np.swapaxes(Q, -1, -2))) @ np.conj(np.swapaxes(L, -1, -2))
    return H, 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))


@pytest.mark.parametrize("lams, rel", [
    ([-1.0, 0.5, 2.0], 1e-11),
    ([-1.0, -0.99, 3.0], 1e-11),           # least two 1e-2 apart
    ([-1.0, -1.0 + 1e-6, 0.5], 1e-7),      # near-double least roots
    ([-1.0, -1.0 + 1e-9, 0.5], 1e-7),
    ([-1.0, -1.0, 3.0], 1e-7),             # exact double
    ([-1.0, -1.0, -1.0], 1e-7),            # triple
    ([-1.0, 2.0, 2.0], 1e-11),             # double, but not the least
], ids=["simple", "gap-1e-2", "near-double-1e-6", "near-double-1e-9",
        "double", "triple", "double-not-least"])
def test_least_root_matches_eigvalsh(lams, rel):
    """Coefficients to 1e-13 of their absolute scale at every point; the
    least root to 1e-11 where it is simple, and to about sqrt(eps) where it
    is repeated, because the Newton polish is kept only where it lowers
    |p|: unguarded, it divides by p' ~ 0 there."""
    H, G = _stack(np.random.default_rng(7), lams)
    det_H = _adjugate(H)[0]
    terms = descent._cubic_terms(H, G)
    lam, e, e_abs = _eigvalsh_route(H, G)
    for k, term in enumerate(terms, 1):
        err = np.abs(term - det_H * e[:, k]) / (det_H * e_abs[:, k])
        assert err.max() <= 1e-13, k
    least = descent._least_root(*(term / det_H for term in terms))
    assert np.abs(least / lam[:, 0] - 1).max() <= rel
    assert _t_pos(least) == pytest.approx(_t_pos(lam[:, 0]), rel=rel)


def test_t_pos_is_inf_without_a_negative_lambda(eps_metric):
    model = eps_metric.model
    # G = 0: every term vanishes and the least root is 0
    coeffs, t_pos = descent._volume_polynomial(eps_metric,
                                               zero_form(model, 1, 1))
    assert t_pos == np.inf
    assert list(coeffs[1:]) == [0.0, 0.0, 0.0]
    # G = H: det(H + t H) = (1 + t)^3 det H, a triple root lambda = 1
    coeffs, t_pos = descent._volume_polynomial(eps_metric, eps_metric.omega)
    assert t_pos == np.inf
    assert coeffs == pytest.approx(eps_metric.volume * np.array([1, 3, 3, 1]),
                                   rel=1e-14)
    # positive lambda at half the points, G = 0 at the others
    H, G = _stack(np.random.default_rng(3), [0.1, 0.5, 2.0], points=40)
    G[::2] = 0.0
    det_H = _adjugate(H)[0]
    least = descent._least_root(*(term / det_H
                                  for term in descent._cubic_terms(H, G)))
    assert np.all(least[::2] == 0.0) and np.all(least[1::2] > 0)
    assert _t_pos(least) == np.inf


def test_best_step_takes_the_cap_on_a_rising_volume():
    # Vol = 1 + t - t^2 + t^3/3 rises everywhere, with a flat point at t = 1
    assert descent._best_step(np.array([1.0, 1.0, -1.0, 1 / 3]), 2.5) == (
        pytest.approx(2.5 - 2.5 ** 2 + 2.5 ** 3 / 3), 2.5)
    # no candidate beats t = 0 on a falling volume
    assert descent._best_step(np.array([1.0, -1.0, 0.0, 0.0]), 2.0)[0] < 0


def test_gradient_direction(eps_metric, flat16):
    u = gradient_direction(eps_metric)
    assert u.bidegree == (1, 0)
    ref = adjoint_diff(eps_metric, "dbar", eps_metric.omega)
    assert coeff_norm(u - ref) == 0
    assert norm(flat16, gradient_direction(flat16)) < 1e-13


def test_certify_flat_is_kahler(flat16):
    cert = certify_critical(flat16, tol=1e-8)
    assert cert.critical and cert.kahler
    assert cert.balanced_defect < 1e-13
    assert cert.kahler_defect < 1e-13
    assert cert.kahler_tol == 1e-7


def test_certify_perturbed_not_critical(eps_metric):
    cert = certify_critical(eps_metric, tol=1e-6)
    assert not cert.critical and not cert.kahler
    assert cert.balanced_defect > 1e-3
    j = cert.to_json()
    assert set(j) == {
        "balanced_defect", "skt_residual", "kahler_defect",
        "tol", "kahler_tol", "critical", "kahler",
    }


def test_descend_at_critical_point(flat16):
    res = descend(flat16, DescentOptions(tol=1e-6, max_iters=10))
    assert isinstance(res, DescentResult)
    assert res.trace.termination == "converged"
    assert len(res.trace.iterates) == 1
    assert res.certificate.kahler
    assert coeff_norm(res.metric.omega - flat16.omega) == 0


def test_descend_makes_progress(eps_metric):
    """A loose-tolerance run: F strictly decreases, A stays pinned."""
    opts = DescentOptions(tol=2e-3, max_iters=60)
    res = descend(eps_metric, opts)
    trace = res.trace
    assert trace.termination == "converged"
    f_vals = [row["F"] for row in trace.iterates]
    assert all(b < a + 1e-15 for a, b in zip(f_vals, f_vals[1:]))
    assert f_vals[-1] < 0.5 * f_vals[0]
    a_vals = [row["gen_vol"] for row in trace.iterates]
    assert max(abs(a - a_vals[0]) for a in a_vals) < 1e-9
    assert trace.final["grad_norm"] < 2e-3
    # the analytic slope agrees with the observed secant on accepted steps
    for row in trace.iterates[:-1]:
        if row.get("slope_rel_err") is not None:
            assert row["slope_rel_err"] < 1e-6


def test_descend_max_iters(eps_metric):
    res = descend(eps_metric, DescentOptions(tol=1e-12, max_iters=0))
    assert res.trace.termination == "max_iters"
    assert len(res.trace.iterates) == 1  # the start, no step
    assert res.trace.final["step"] is None
    assert coeff_norm(res.metric.omega - eps_metric.omega) == 0
    assert not res.certificate.critical


def test_descend_f_never_rises_near_the_floor():
    """At eps 0.040038 the Armijo search on the volume surrogate let F rise
    by 4.9e-17 at iterate 107; the exact step must not."""
    g = Metric(standard_fixture("two_coord", resolution=16, eps=0.040038)[3])
    res = descend(g, DescentOptions(tol=1e-6))
    assert res.trace.termination == "converged"
    assert res.certificate.kahler
    f_vals = [row["F"] for row in res.trace.iterates]
    assert all(b <= a for a, b in zip(f_vals, f_vals[1:]))


def test_descend_deterministic(eps_metric):
    opts = DescentOptions(tol=1e-3, max_iters=40)
    t1 = descend(eps_metric, opts).trace
    t2 = descend(eps_metric, opts).trace
    for key in ("F", "step"):
        assert [r[key] for r in t1.iterates] == [r[key] for r in t2.iterates]


def test_descend_keeps_iterates_real_and_positive(eps_metric):
    res = descend(eps_metric, DescentOptions(tol=5e-3, max_iters=40))
    from hsgeom.forms import is_real

    assert is_real(res.metric.omega, 1e-10)
    assert res.metric.min_eigenvalue > 0


def test_line_search_stall_carries_state(eps_metric, monkeypatch):
    # at the Kahler endpoint the gradient is round-off, and so is every
    # volume gain along it; tol=0 forbids stopping on the gradient
    kahler = descend(eps_metric, DescentOptions(tol=1e-6)).metric
    built = []

    def counting_metric(omega):
        built.append(omega)
        return Metric(omega)

    monkeypatch.setattr(descent, "Metric", counting_metric)
    with pytest.raises(LineSearchStalled) as ei:
        descend(kahler, DescentOptions(tol=0.0, max_iters=10))
    assert "iterate 0" in str(ei.value)
    assert len(ei.value.trace.iterates) == 1
    state = ei.value.state
    assert state["k"] == 0 and state["grad_norm"] < 1e-12
    assert state["gain"] < 1e-13
    assert state["F"] == ei.value.trace.iterates[0]["F"]
    assert built == []  # the metric never moved


@pytest.mark.parametrize("name, resolution", [("two_coord", 16),
                                              ("three_coord", 8)])
def test_descent_step_runs_no_grid_lapack(name, resolution, monkeypatch):
    """No eigvalsh, inv or cholesky runs on a grid stack in a descent step;
    one on a single 3x3 (the symbol's mean metric) is allowed."""
    def pointwise_only(fn):
        def wrapped(a, *args, **kwargs):
            assert np.ndim(a) <= 2, (fn.__name__, np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped
    omega = standard_fixture(name, resolution=resolution, eps=0.05)[3]
    for fn in ("eigvalsh", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, fn,
                            pointwise_only(getattr(np.linalg, fn)))
    trace = descend(Metric(omega), DescentOptions(max_iters=3)).trace
    assert trace.iterates[0]["step"] > 0


def test_one_gradient_per_metric(monkeypatch):
    """The trace rows and the certificate share one u = dbar* omega per
    metric, and the certificate's defects are the final row's."""
    builds, metrics = [], []
    build = descent.adjoint_diff
    monkeypatch.setattr(descent, "adjoint_diff",
                        lambda *a: builds.append(a[0]) or build(*a))
    monkeypatch.setattr(descent, "Metric",
                        lambda omega: metrics.append(Metric(omega))
                        or metrics[-1])
    omega = standard_fixture("three_coord", resolution=8, eps=0.05)[3]
    res = descend(Metric(omega), DescentOptions(max_iters=3))
    assert len(res.trace.iterates) == 4
    assert len(builds) == 1 + len(metrics) == 4
    assert len({id(g) for g in builds}) == 4
    final, cert = res.trace.final, res.certificate
    assert cert.balanced_defect == final["grad_norm"]
    assert cert.kahler_defect == final["d_omega_norm"]


def test_positivity_boundary_type():
    assert issubclass(PositivityBoundary, RuntimeError)
    err = PositivityBoundary("blocked")
    assert isinstance(err, RuntimeError)


def test_opening_step_outside_cone_backtracks(eps_metric, monkeypatch):
    """The cone ends at t_pos, and no step goes past STEP_CAP * t_pos."""
    _, gamma = _direction(eps_metric)
    _, t_pos = descent._volume_polynomial(eps_metric, gamma)
    Metric(real_part(eps_metric.omega + 0.999 * t_pos * gamma))
    with pytest.raises(NotPositiveError):
        Metric(real_part(eps_metric.omega + 1.001 * t_pos * gamma))

    caps = []
    polynomial = descent._volume_polynomial

    def spy(metric, direction):
        coeffs, t_pos = polynomial(metric, direction)
        caps.append(STEP_CAP * t_pos)
        return coeffs, t_pos

    monkeypatch.setattr(descent, "_volume_polynomial", spy)
    trace = descend(eps_metric, DescentOptions(tol=5e-3, max_iters=60)).trace
    assert trace.termination == "converged"
    steps = [row["step"] for row in trace.iterates[:-1]]
    assert steps and len(steps) == len(caps)
    assert all(0 < s <= c for s, c in zip(steps, caps))
    assert [row["armijo_trials"] for row in trace.iterates[:-1]] == \
        [1] * len(steps)


def test_positivity_boundary_when_no_trial_is_positive(eps_metric,
                                                        monkeypatch):
    def never_positive(omega):
        raise NotPositiveError(-1.0, (0,))

    monkeypatch.setattr(descent, "Metric", never_positive)
    with pytest.raises(PositivityBoundary) as ei:
        descend(eps_metric, DescentOptions(tol=1e-9, max_iters=10))
    assert "iterate 0" in str(ei.value)
    assert ei.value.trace.iterates
    assert ei.value.state["F"] > 0


# -- trace serialization -------------------------------------------------------


def test_trace_csv_round_trip(eps_metric):
    res = descend(eps_metric, DescentOptions(tol=5e-3, max_iters=40))
    text = res.trace.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(DescentTrace._COLUMNS)
    assert len(rows) == len(res.trace.iterates) + 1
    # numeric cells parse back to the original floats exactly (repr round trip)
    k_F = rows[0].index("F")
    for row, rec in zip(rows[1:], res.trace.iterates):
        assert float(row[k_F]) == rec["F"]


def test_trace_json_schema(eps_metric):
    import json

    res = descend(eps_metric, DescentOptions(tol=5e-3, max_iters=40))
    blob = json.loads(json.dumps(res.trace.to_json()))
    assert blob["schema"] == 1
    assert blob["termination"] == "converged"
    assert blob["options"]["tol"] == 5e-3
    assert len(blob["iterates"]) == len(res.trace.iterates)
