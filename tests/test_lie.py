"""Structure-constant models: parsing, catalogue facts, feasibility certificates."""

import numpy as np
import pytest

from hsgeom.forms import (
    basis_form,
    coeff_norm,
    differential,
    flat_metric_form,
    wedge,
)
from hsgeom.lie import (
    IntegrabilityError,
    JacobiError,
    ModelFormatError,
    catalogue_model,
    hs_feasibility,
    load_model,
    parse_model_text,
)
from hsgeom.hodge import Metric

HEIS_TEXT = """\
name heis3
dim 3
d phi3 = 1 * phi1^phibar1
"""


def test_catalogue_names():
    for name in ("torus3", "iwasawa", "heis3"):
        m = catalogue_model(name)
        assert m.n == 3
        assert m.kind == "lie"
    with pytest.raises(ValueError):
        catalogue_model("borromean")


def test_describe_fields(iwasawa):
    desc = iwasawa.describe()
    assert desc["backend"] == "lie"
    assert desc["dim"] == 3
    assert "invariant" in desc["scope"]


def test_torus3_is_abelian(torus3):
    for k in (1, 2, 3):
        f = basis_form(torus3, 1, 0, (k,), ())
        assert coeff_norm(differential("del", f)) == 0
        assert coeff_norm(differential("dbar", f)) == 0


def test_iwasawa_structure(iwasawa):
    f3 = basis_form(iwasawa, 1, 0, (3,), ())
    want = -1.0 * wedge(
        basis_form(iwasawa, 1, 0, (1,), ()), basis_form(iwasawa, 1, 0, (2,), ())
    )
    assert coeff_norm(differential("del", f3) - want) == 0
    assert coeff_norm(differential("dbar", f3)) == 0


def test_heis3_structure(heis3):
    f3 = basis_form(heis3, 1, 0, (3,), ())
    p1 = basis_form(heis3, 1, 0, (1,), ())
    pb1 = basis_form(heis3, 0, 1, (), (1,))
    assert coeff_norm(differential("dbar", f3) - wedge(p1, pb1)) == 0
    fb3 = basis_form(heis3, 0, 1, (), (3,))
    assert coeff_norm(differential("del", fb3) + wedge(p1, pb1)) == 0


# -- parser ---------------------------------------------------------------


def test_parse_round_trip():
    m = load_model(HEIS_TEXT)
    ref = catalogue_model("heis3")
    f = basis_form(m, 1, 0, (3,), ())
    g = basis_form(ref, 1, 0, (3,), ())
    assert np.array_equal(
        differential("dbar", f).coeffs, differential("dbar", g).coeffs
    )


def test_parse_spec_fields():
    spec = parse_model_text(HEIS_TEXT)
    assert spec.name == "heis3"
    assert spec.n == 3


def test_parse_rejects_garbage():
    with pytest.raises(ModelFormatError):
        parse_model_text("name x\ndim 3\nd phi3 = kaboom\n")
    with pytest.raises(ModelFormatError):
        parse_model_text("dim 3\nd phi9 = 1 * phi1^phi2\n")
    with pytest.raises(ModelFormatError):
        parse_model_text("name x\nd phi1 = 1 * phi1^phi2\n")


def test_integrability_guard():
    # a (0,2) component in d(phi) is not a complex Lie algebra structure
    with pytest.raises(IntegrabilityError):
        load_model("name bad\ndim 3\nd phi3 = 1 * phibar1^phibar2\n")


def test_jacobi_guard():
    text = "name bad\ndim 3\nd phi1 = 1 * phi1^phi2\nd phi2 = 1 * phi1^phi3\n"
    with pytest.raises(JacobiError):
        load_model(text)


# -- feasibility ------------------------------------------------------------


def test_torus_feasible(torus3):
    cert = hs_feasibility(Metric(flat_metric_form(torus3)))
    assert cert.feasible
    assert cert.residual == 0
    assert coeff_norm(cert.solution) == 0
    # every invariant (2,0)-form is closed on the abelian model
    assert len(cert.nullspace) == 3


def test_nilmanifolds_infeasible(iwasawa, heis3):
    for model in (iwasawa, heis3):
        cert = hs_feasibility(Metric(flat_metric_form(model)))
        assert not cert.feasible
        assert cert.residual > 0.5
        assert cert.solution is None
        j = cert.to_json()
        assert j["feasible"] is False
        assert j["nullspace_dim"] == 0


def test_feasibility_json_round_trips(torus3):
    import json

    cert = hs_feasibility(Metric(flat_metric_form(torus3)))
    blob = json.dumps(cert.to_json())
    assert json.loads(blob)["feasible"] is True
