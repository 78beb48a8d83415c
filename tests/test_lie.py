"""Structure-constant models: parsing, catalogue facts, feasibility certificates."""

import numpy as np
import pytest

from hsgeom.forms import (
    Form,
    basis_form,
    coeff_norm,
    differential,
    flat_metric_form,
    wedge,
)
from hsgeom import _basis
from hsgeom.lie import (
    IntegrabilityError,
    JacobiError,
    ModelFormatError,
    UnimodularityError,
    _kept,
    catalogue_model,
    hs_feasibility,
    load_model,
    parse_model_text,
)
from hsgeom.hodge import Metric

from conftest import random_lie_form

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


def test_parse_rejects_garbage():
    with pytest.raises(ModelFormatError):
        parse_model_text("name x\ndim 3\nd phi3 = kaboom\n")
    with pytest.raises(ModelFormatError):
        parse_model_text("dim 3\nd phi9 = 1 * phi1^phi2\n")
    with pytest.raises(ModelFormatError):
        parse_model_text("name x\nd phi1 = 1 * phi1^phi2\n")


@pytest.mark.parametrize("dim", [2, 4])
def test_parse_rejects_other_dimensions(dim):
    with pytest.raises(ModelFormatError, match=f"dim must be 3, got {dim}"):
        parse_model_text(f"name x\ndim {dim}\nd phi2 = 1 * phi1^phibar1\n")


def test_integrability_guard():
    # a (0,2) component in d(phi) is not a complex Lie algebra structure
    with pytest.raises(IntegrabilityError):
        load_model("name bad\ndim 3\nd phi3 = 1 * phibar1^phibar2\n")


def test_jacobi_guard():
    text = "name bad\ndim 3\nd phi1 = 1 * phi1^phi2\nd phi2 = 1 * phi1^phi3\n"
    with pytest.raises(JacobiError):
        load_model(text)


def test_unimodularity_guard():
    # d phi2 = phi1^phi2 satisfies d^2 = 0, but tr ad_{e1} != 0: d of the
    # invariant 5-forms has norm 1, so Stokes fails and no lattice exists
    with pytest.raises(UnimodularityError, match="norm 1.000e\\+00"):
        load_model("name nonuni\ndim 3\nd phi2 = 1 * phi1^phi2\n")
    for name in ("torus3", "iwasawa", "heis3"):
        model = catalogue_model(name)
        for part, p, q in (("dbar", 3, 2), ("del", 2, 3)):
            assert not model.operator_matrix(part, p, q).any()


# -- d from the structure rules -------------------------------------------
#
# Reference: the word-sorting derivation of d.  Each generator in a basis
# word phi^I ^ phibar^J is replaced in turn by the words of its rule, and the
# new word is sorted back into a basis label by counting inversions.


def _ref_normalize_word(factors):
    """Sort a word of generators into (sign, I, J); zero sign on repeats."""
    order = [(0 if t == "z" else 1, i) for t, i in factors]
    inv = 0
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                inv += 1
            elif order[a] == order[b]:
                return 0, None, None
    zs = tuple(sorted(i for t, i in factors if t == "z"))
    zbs = tuple(sorted(i for t, i in factors if t == "zb"))
    return (-1) ** inv, zs, zbs


def _ref_generator_d(spec):
    """d of each generator as {(t, k): ((coeff, word), ...)}; a (0,2) word
    raises IntegrabilityError."""
    dgen = {}
    rules = dict(spec.rules)
    for k in range(1, 4):
        terms = tuple(rules.get(k, ()))
        if any(sorted(t for t, _ in w) == ["zb", "zb"] for _, w in terms):
            raise IntegrabilityError(f"d phi{k} has a (0,2) component")
        dgen[("z", k)] = terms
        dgen[("zb", k)] = tuple(
            (np.conj(c), tuple(("zb" if t == "z" else "z", i) for t, i in w))
            for c, w in terms)
    return dgen


def _ref_d_of_basis_element(dgen, I, J):
    """Total d of phi^I ^ phibar^J as {(p,q): coefficient vector}."""
    factors = tuple(("z", i) for i in I) + tuple(("zb", j) for j in J)
    acc = {}
    for pos, gen in enumerate(factors):
        for coeff, word in dgen[gen]:
            sign, I2, J2 = _ref_normalize_word(factors[:pos] + word + factors[pos + 1:])
            if sign == 0:
                continue
            key = (len(I2), len(J2))
            if key not in acc:
                acc[key] = np.zeros(_basis.degree_dims(3, *key), dtype=np.complex128)
            acc[key][_basis.channel_index(3, *key)[(I2, J2)]] += (-1) ** pos * sign * coeff
    return acc


def _ref_operators(spec):
    """{(part, p, q): matrix of del or dbar from (p,q)} for 0 <= p, q <= 4
    by the word-sorting derivation."""
    dgen = _ref_generator_d(spec)
    ops = {}
    for part in ("del", "dbar"):
        for p in range(5):
            for q in range(5):
                tgt = (p + 1, q) if part == "del" else (p, q + 1)
                ops[part, p, q] = np.zeros((_basis.degree_dims(3, *tgt),
                                            _basis.degree_dims(3, p, q)),
                                           dtype=np.complex128)
    for p in range(4):
        for q in range(4):
            for c, (I, J) in enumerate(_basis.basis(3, p, q)):
                for (p2, q2), col in _ref_d_of_basis_element(dgen, I, J).items():
                    ops["del" if p2 > p else "dbar", p, q][:, c] = col
    return ops


_OPS = [(part, p, q) for part in ("del", "dbar") for p in range(4) for q in range(4)]


def _ref_verdict(spec):
    """'Integrability', 'Jacobi', 'Unimodularity' or 'ok': d^2 = 0 in every
    bidegree, then d = 0 on the 5-forms, dbar on (3,2) and del on (2,3)."""
    try:
        ops = _ref_operators(spec)
    except IntegrabilityError:
        return "Integrability"
    worst = 0.0
    for p in range(4):
        for q in range(4):
            for M in (ops["del", p + 1, q] @ ops["del", p, q],
                      ops["dbar", p, q + 1] @ ops["dbar", p, q],
                      ops["dbar", p + 1, q] @ ops["del", p, q]
                      + ops["del", p, q + 1] @ ops["dbar", p, q]):
                if M.size:
                    worst = max(worst, float(np.max(np.abs(M))))
    if worst > 1e-13:
        return "Jacobi"
    top = max(np.abs(ops[key]).max() for key in (("dbar", 3, 2), ("del", 2, 3)))
    return "Unimodularity" if top > 1e-13 else "ok"


def normal_form_text(rng, name="nf"):
    """Model text of a random nilpotent complex structure in the normal form
    d phi1 = 0, d phi2 = e phi1^phibar1,
    d phi3 = r phi1^phi2 + (1-e) A phi1^phibar1 + B phi1^phibar2
             + C phi2^phibar1 + (1-e) D phi2^phibar2,
    with e, r in {0, 1} and A..D Gaussian integers in [-2, 2]."""
    e, r = rng.integers(0, 2, size=2)
    A, B, C, D = rng.integers(-2, 3, size=4) + 1j * rng.integers(-2, 3, size=4)
    rule3 = [(r, "phi1^phi2"), ((1 - e) * A, "phi1^phibar1"),
             (B, "phi1^phibar2"), (C, "phi2^phibar1"),
             ((1 - e) * D, "phi2^phibar2")]
    lines = [f"name {name}", "dim 3"]
    if e:
        lines.append("d phi2 = 1 * phi1^phibar1")
    terms = [f"{complex(c)} * {w}" for c, w in rule3 if c != 0]
    if terms:
        lines.append("d phi3 = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def _assert_ops_equal(model, want):
    for part, p, q in _OPS:
        got = model.operator_matrix(part, p, q)
        assert got.shape == want[part, p, q].shape
        assert got.tobytes() == want[part, p, q].tobytes(), (part, p, q)


def test_operators_match_word_sorting_reference():
    rng = np.random.default_rng(2024)
    models = [catalogue_model(nm) for nm in ("torus3", "iwasawa", "heis3")]
    models += [load_model(normal_form_text(rng)) for _ in range(60)]
    for model in models:
        _assert_ops_equal(model, _ref_operators(model.spec))


@pytest.mark.parametrize("rule, name", [("1 * phi2^phi1", "iwasawa"),
                                        ("-1 * phibar1^phi1", "heis3")])
def test_out_of_order_words(rule, name):
    model = load_model(f"name x\ndim 3\nd phi3 = {rule}\n")
    ref = catalogue_model(name)
    _assert_ops_equal(model, {key: ref.operator_matrix(*key) for key in _OPS})


_GENS = [f"phi{i}" for i in (1, 2, 3)] + [f"phibar{i}" for i in (1, 2, 3)]


def _random_rules_text(rng):
    """Up to two words per rule over all ordered pairs of distinct
    generators, (0,2) words rare, Gaussian-integer coefficients."""
    lines = ["name r", "dim 3"]
    for k in (1, 2, 3):
        terms = []
        for _ in range(rng.integers(0, 3)):
            a, b = rng.choice(6, size=2, replace=False)
            if a >= 3 and b >= 3 and rng.random() < 0.8:
                continue
            c = complex(rng.integers(-2, 3), rng.integers(-1, 2))
            terms.append(f"{c} * {_GENS[a]}^{_GENS[b]}")
        if terms:
            lines.append(f"d phi{k} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def test_jacobi_verdicts_match_all_bidegree_reference():
    rng = np.random.default_rng(7)
    seen = {"Integrability": 0, "Jacobi": 0, "Unimodularity": 0, "ok": 0}
    for _ in range(400):
        text = _random_rules_text(rng)
        try:
            load_model(text)
            got = "ok"
        except IntegrabilityError:
            got = "Integrability"
        except JacobiError:
            got = "Jacobi"
        except UnimodularityError:
            got = "Unimodularity"
        assert got == _ref_verdict(parse_model_text(text)), text
        seen[got] += 1
    assert min(seen.values()) >= 40, seen


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


def test_feasibility_rejects_grid_metric(two_coord):
    with pytest.raises(ValueError, match="lie backend"):
        hs_feasibility(Metric(two_coord[3]))


def test_feasibility_json_round_trips(torus3):
    import json

    cert = hs_feasibility(Metric(flat_metric_form(torus3)))
    blob = json.dumps(cert.to_json())
    assert json.loads(blob)["feasible"] is True


def test_torsion_verdict_matches_the_least_squares_certificate(lie_models):
    """Dual route of the HS verdict: analysis.torsion_form, the dbar
    preimage of del omega gated at tol, is feasible exactly when the exact
    invariant certificate hs_feasibility is, on the catalogue and on random
    nilpotent normal forms, each with a random metric.  Only torus3 is HS
    (Enrietti-Fino-Vezzoni), and every failing residual is far from tol."""
    from hsgeom.analysis import NotFeasibleError, torsion_form

    from conftest import random_metric

    rng = np.random.default_rng(35)
    models = list(lie_models.values()) + [
        load_model(normal_form_text(rng)) for _ in range(120)]
    feasible, smallest = [], np.inf
    for model in models:
        g = random_metric(model, rng)
        try:
            torsion_form(g, "dim3")
            feasible.append(model.name)
        except NotFeasibleError as exc:
            smallest = min(smallest, max(exc.residuals.values()))
        assert (model.name in feasible) == hs_feasibility(g).feasible, \
            model.spec
    assert feasible == ["torus3"]
    assert smallest >= 0.1


@pytest.mark.parametrize("s,hs", [(1e-8, False), (1e-9, False),
                                  (1e-11, True)])
def test_scaled_iwasawa_verdict(s, hs):
    """d phi3 = s phi1^phi2 on the flat metric: dbar vanishes on (2,0), so
    the torsion residual is ||del omega|| = sqrt(2) s, gated at the lie
    default tol 1e-9 on both routes.  A slack of 100 times that tol called
    s = 1e-8 and 1e-9 HS."""
    from hsgeom.analysis import NotFeasibleError, torsion_form

    g = Metric(flat_metric_form(load_model(
        f"name iw\ndim 3\nd phi3 = {s} * phi1^phi2\n")))
    assert hs_feasibility(g).feasible is hs
    if hs:
        torsion_form(g, "dim3")
    else:
        with pytest.raises(NotFeasibleError):
            torsion_form(g, "dim3")


def test_dbar_preimage_counts_rank_by_kept(lie_models):
    """The pseudo-inverse P of LieModel.dbar_preimage keeps the singular
    values of dbar that _kept keeps, so dbar P, the orthogonal projector on
    the kept range, has the _kept rank as its trace in every bidegree.  On
    d phi3 = 1e-12 phi1^phibar1 every dbar block is below the cut: a pinv
    cutting relative to the largest singular value alone kept rank 8."""
    tiny = load_model("name tiny\ndim 3\nd phi3 = 1e-12 * phi1^phibar1\n")
    total = {}
    for model in [*lie_models.values(), tiny]:
        total[model.name] = 0
        for p in range(4):
            for q in range(3):
                A = model.operator_matrix("dbar", p, q)
                P = model.dbar_preimage(p, q, np.eye(len(A)))
                rank = int(np.sum(_kept(np.linalg.svd(A, compute_uv=False))))
                assert abs(np.trace(A @ P) - rank) <= 1e-9, (model.name, p, q)
                total[model.name] += rank
    assert total["tiny"] == 0 and total["heis3"] > 0, total


def test_dbar_preimage_is_exact(heis3):
    """dbar of the preimage of v = dbar x gives v back in every bidegree."""
    rng = np.random.default_rng(26)
    for p in range(4):
        for q in range(3):
            v = differential("dbar", random_lie_form(heis3, p, q, rng))
            x = Form(heis3, p, q, heis3.dbar_preimage(p, q, v.coeffs))
            assert coeff_norm(differential("dbar", x) - v) <= \
                1e-13 * coeff_norm(v)


def test_holomorphic_2_forms_are_closed_and_bott_chern(lie_models):
    """The premise of one torsion extraction for every mode: on a compact
    threefold every dbar-harmonic (2,0)-form h is del-closed, so the
    Bott-Chern (2,0) kernel, ker del ^ ker dbar (bott_chern_20), and the
    dbar one are one space and the dbar*-minimal torsion is the
    Bott-Chern-minimal one.  Both backends; on the invariant one the
    catalogue and random nilpotent normal forms, each with a random metric."""
    from hsgeom import standard_fixture
    from hsgeom.hodge import harmonic_basis, inner, norm

    from conftest import bott_chern_20, random_metric

    rng = np.random.default_rng(32)
    models = list(lie_models.values()) + [
        load_model(normal_form_text(rng)) for _ in range(12)]
    metrics = [random_metric(model, rng) for model in models]
    metrics += [Metric(standard_fixture(name, resolution=8, eps=eps)[3])
                for name in ("two_coord", "three_coord") for eps in (0.05, 0.2)]
    for g in metrics:
        K_dbar = harmonic_basis(g, "dbar", 2, 0)
        K_bc = bott_chern_20(g)
        for h in K_dbar:
            assert norm(g, differential("del", h)) <= 1e-13
        # orthonormal bases of one space: their cross Gram matrix is unitary
        assert len(K_bc) == len(K_dbar) > 0
        C = np.array([[inner(g, a, b) for b in K_bc] for a in K_dbar])
        s = np.linalg.svd(C, compute_uv=False)
        assert np.max(np.abs(s - 1.0)) <= 1e-12, (g.model.describe(), s)
