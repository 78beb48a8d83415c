"""Descent over a fixed generalized-volume class: line search, traces, certificates."""

import csv
import io

import numpy as np
import pytest

from hsgeom import descent
from hsgeom.forms import (coeff_norm, conjugate, differential,
                          flat_metric_form, real_part)
from hsgeom.hodge import Metric, NotPositiveError, adjoint_diff, norm
from hsgeom.descent import (
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
    assert opts.tol == 1e-6
    assert opts.max_iters == 200
    assert 0 < opts.backtrack < 1
    # the opening step shrinks with the gradient size
    assert opts.initial_step(0.0) == 1.0
    assert opts.initial_step(9.0) == 0.1


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
    res = descend(eps_metric, DescentOptions(tol=1e-12, max_iters=3))
    assert res.trace.termination == "max_iters"
    assert len(res.trace.iterates) == 4  # start plus three steps
    assert not res.certificate.critical


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


def test_line_search_stall_carries_state(eps_metric):
    # an impossible sufficient-decrease constant forces every trial to fail
    opts = DescentOptions(tol=1e-9, max_iters=10, armijo_c1=2.0)
    with pytest.raises(LineSearchStalled) as ei:
        descend(eps_metric, opts)
    assert ei.value.trace.iterates
    assert ei.value.state["F"] > 0


def test_positivity_boundary_type():
    assert issubclass(PositivityBoundary, RuntimeError)
    err = PositivityBoundary("blocked")
    assert isinstance(err, RuntimeError)


class _WideOpening(DescentOptions):
    """Opens every line search far outside the positive cone."""

    def initial_step(self, grad_norm):
        return 128.0 / (1.0 + grad_norm)


def test_opening_step_outside_cone_backtracks(eps_metric):
    opts = _WideOpening(tol=5e-3, max_iters=60)
    u = gradient_direction(eps_metric)
    direction = real_part(differential("del", conjugate(u))
                          + differential("dbar", u))
    t0 = opts.initial_step(norm(eps_metric, u))
    with pytest.raises(NotPositiveError):
        Metric(real_part(eps_metric.omega + t0 * direction))
    trace = descend(eps_metric, opts).trace
    assert trace.termination == "converged"
    f_vals = trace.column("F")
    assert all(b <= a for a, b in zip(f_vals, f_vals[1:]))
    assert trace.iterates[0]["armijo_trials"] > 1


def test_positivity_boundary_when_no_trial_is_positive(eps_metric,
                                                        monkeypatch):
    def never_positive(omega, pos_tol=1e-9):
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
