"""Descent over a fixed generalized-volume class: closed-form step, traces, certificates."""

import csv
import dataclasses
import io

import numpy as np
import pytest

from hsgeom import descent
from hsgeom.forms import (coeff_norm, conjugate, differential,
                          flat_metric_form, real_part)
from hsgeom.hodge import Metric, NotPositiveError, adjoint_diff, norm
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
    """dVol/dt at 0 is -dF/dt = 2 ||dbar* omega||^2."""
    for g in (eps_metric, Metric(three_coord[3])):
        u, gamma = _direction(g)
        coeffs, _ = descent._volume_polynomial(g, gamma)
        assert abs(coeffs[1] - 2.0 * norm(g, u) ** 2) < 1e-10


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
    f_vals = trace.column("F")
    assert all(b < a + 1e-15 for a, b in zip(f_vals, f_vals[1:]))
    assert f_vals[-1] < 0.5 * f_vals[0]
    a_vals = trace.column("gen_vol")
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
    f_vals = res.trace.column("F")
    assert all(b <= a for a, b in zip(f_vals, f_vals[1:]))


def test_descend_deterministic(eps_metric):
    opts = DescentOptions(tol=1e-3, max_iters=40)
    t1 = descend(eps_metric, opts).trace
    t2 = descend(eps_metric, opts).trace
    assert t1.column("F") == t2.column("F")
    assert t1.column("step") == t2.column("step")


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
    steps = trace.column("step")[:-1]
    assert steps and len(steps) == len(caps)
    assert all(0 < s <= c for s, c in zip(steps, caps))
    assert trace.column("armijo_trials")[:-1] == [1] * len(steps)


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
