"""Form calculus: basis bookkeeping, wedge algebra, conjugation, d-split axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgeom import _basis
from hsgeom.forms import (
    BidegreeError,
    ModelMismatchError,
    basis_form,
    conjugate,
    differential,
    flat_metric_form,
    from_channels,
    integrate_top,
    is_real,
    real_part,
    wedge,
    zero_form,
)

from conftest import random_form

bidegrees = st.tuples(st.integers(0, 3), st.integers(0, 3))
seeds = st.integers(0, 2**32 - 1)


def norm(a):
    return float(np.sqrt(np.sum(np.abs(a.coeffs) ** 2)))


# -- basis bookkeeping -------------------------------------------------------


def test_degree_dims_binomial():
    for p in range(4):
        for q in range(4):
            assert _basis.degree_dims(3, p, q) == math.comb(3, p) * math.comb(3, q)


def test_channel_order_lex():
    idx = _basis.channel_index(3, 2, 1)
    pairs = sorted(idx, key=idx.get)
    assert pairs[0] == ((1, 2), (1,))
    assert pairs == sorted(pairs)


def test_basis_form_unit_channel(torus3):
    b = basis_form(torus3, 1, 1, (2,), (3,))
    assert b.bidegree == (1, 1)
    assert np.sum(np.abs(b.coeffs)) == 1.0


def test_from_channels_accumulates(torus3):
    a = from_channels(torus3, 1, 0, {((1,), ()): 2.0})
    b = from_channels(torus3, 1, 0, {((1,), ()): 1.0, ((2,), ()): 1j})
    assert norm(a + b - from_channels(torus3, 1, 0, {((1,), ()): 3.0, ((2,), ()): 1j})) == 0


def test_addition_guards(torus3, iwasawa):
    a = zero_form(torus3, 1, 0)
    with pytest.raises(BidegreeError):
        a + zero_form(torus3, 0, 1)
    with pytest.raises(ModelMismatchError):
        a + zero_form(iwasawa, 1, 0)
    with pytest.raises(BidegreeError):
        zero_form(torus3, 1, 0) + basis_form(torus3, 1, 1, (1,), (1,))


def test_coefficient_shape_guard(torus3):
    with pytest.raises(BidegreeError):
        from hsgeom.forms import Form

        Form(torus3, 1, 1, np.zeros((4, 1, 1, 1, 1, 1, 1), dtype=complex))


# -- wedge algebra -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(b1=bidegrees, b2=bidegrees, seed=seeds)
def test_wedge_graded_commutativity(lie_models, b1, b2, seed):
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    a = random_form(model, *b1, rng)
    b = random_form(model, *b2, rng)
    lhs = wedge(a, b)
    rhs = ((-1.0) ** (a.degree * b.degree)) * wedge(b, a)
    assert norm(lhs - rhs) <= 1e-12 * max(1.0, norm(lhs))


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_wedge_associative(lie_models, seed):
    model = lie_models["heis3"]
    rng = np.random.default_rng(seed)
    a = random_form(model, 1, 0, rng)
    b = random_form(model, 0, 1, rng)
    c = random_form(model, 1, 1, rng)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert norm(lhs - rhs) <= 1e-12 * max(1.0, norm(lhs))


def test_wedge_overflow_is_empty(torus3):
    a = zero_form(torus3, 2, 2)
    b = zero_form(torus3, 2, 2)
    top_plus = wedge(a, b)
    assert top_plus.coeffs.shape[0] == 0


@settings(max_examples=25, deadline=None)
@given(b1=bidegrees, seed=seeds)
def test_conjugate_involution(lie_models, b1, seed):
    model = lie_models["iwasawa"]
    rng = np.random.default_rng(seed)
    a = random_form(model, *b1, rng)
    back = conjugate(conjugate(a))
    assert back.bidegree == a.bidegree
    assert norm(back - a) <= 1e-14 * max(1.0, norm(a))


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_conjugate_distributes_over_wedge(lie_models, seed):
    model = lie_models["torus3"]
    rng = np.random.default_rng(seed)
    a = random_form(model, 2, 0, rng)
    b = random_form(model, 0, 1, rng)
    lhs = conjugate(wedge(a, b))
    rhs = wedge(conjugate(a), conjugate(b))
    assert norm(lhs - rhs) <= 1e-13 * max(1.0, norm(lhs))


# -- differentials on both backends ------------------------------------------


@settings(max_examples=20, deadline=None)
@given(b1=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]), seed=seeds)
def test_d_squared_zero_lie(lie_models, b1, seed):
    rng = np.random.default_rng(seed)
    for model in lie_models.values():
        a = random_form(model, *b1, rng)
        dd = differential("del", differential("del", a))
        bb = differential("dbar", differential("dbar", a))
        mixed = differential("del", differential("dbar", a)) + differential(
            "dbar", differential("del", a)
        )
        for piece in (dd, bb, mixed):
            assert norm(piece) <= 1e-12 * max(1.0, norm(a))


@settings(max_examples=10, deadline=None)
@given(b1=st.sampled_from([(1, 0), (1, 1), (0, 2)]), seed=seeds)
def test_d_squared_zero_torus(two_coord, b1, seed):
    model = two_coord[0]
    rng = np.random.default_rng(seed)
    a = random_form(model, *b1, rng)
    dd = differential("del", differential("del", a))
    bb = differential("dbar", differential("dbar", a))
    mixed = differential("del", differential("dbar", a)) + differential(
        "dbar", differential("del", a)
    )
    for piece in (dd, bb, mixed):
        assert norm(piece) <= 1e-9 * max(1.0, norm(a))


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_leibniz_rule(two_coord, seed):
    model = two_coord[0]
    rng = np.random.default_rng(seed)
    a = random_form(model, 1, 0, rng)
    b = random_form(model, 0, 1, rng)
    for part in ("del", "dbar"):
        lhs = differential(part, wedge(a, b))
        rhs = wedge(differential(part, a), b) - wedge(a, differential(part, b))
        assert norm(lhs - rhs) <= 1e-10 * max(1.0, norm(lhs), norm(rhs))


def test_d_split_pieces(eps_metric):
    """The two pieces of d: their bidegrees, and the same coefficients on a
    second call, as differential keeps no state between calls."""
    omega = eps_metric.omega
    da, db = differential("del", omega), differential("dbar", omega)
    assert da.bidegree == (2, 1)
    assert db.bidegree == (1, 2)
    assert norm(da - differential("del", omega)) == 0
    assert norm(db - differential("dbar", omega)) == 0


def test_unknown_part_rejected(torus3):
    with pytest.raises(ValueError):
        differential("d", zero_form(torus3, 1, 0))


# -- integration and reality --------------------------------------------------


def test_reference_volume_integrates_to_one(lie_models, two_coord):
    for model in list(lie_models.values()) + [two_coord[0]]:
        n = model.n
        dv = zero_form(model, n, n)
        dv.coeffs[0] = 1.0 / _basis.top_channel_integral(n)
        val = integrate_top(dv)
        assert abs(val - 1.0) < 1e-14
        assert is_real(dv, 1e-14)


def test_integrate_rejects_lower_degree(torus3):
    with pytest.raises(BidegreeError):
        integrate_top(zero_form(torus3, 2, 2))


def test_oscillatory_integrals_vanish(two_coord):
    """Mean-zero waves integrate to zero; the constant survives exactly."""
    from hsgeom import synthesize_form

    model = two_coord[0]
    top = synthesize_form(
        model, 3, 3, [(0, (1, 0, 0, 0, 0, 0), 2.0), (0, (0, 0, 0, 0, 0, 0), 1.0)]
    )
    ref = synthesize_form(model, 3, 3, [(0, (0, 0, 0, 0, 0, 0), 1.0)])
    assert abs(integrate_top(top) - integrate_top(ref)) < 1e-13


def test_flat_metric_form_properties(lie_models, two_coord):
    for model in list(lie_models.values()) + [two_coord[0]]:
        omega = flat_metric_form(model)
        assert is_real(omega, 1e-14)
        vol = integrate_top(wedge(wedge(omega, omega), omega) * (1.0 / 6.0))
        assert abs(vol - 1.0) < 1e-13


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_real_part_is_real(two_coord, seed):
    model = two_coord[0]
    rng = np.random.default_rng(seed)
    a = random_form(model, 1, 1, rng)
    r = real_part(a)
    assert is_real(r, 1e-12)
    # real_part is idempotent
    assert norm(real_part(r) - r) <= 1e-14 * max(1.0, norm(r))


def test_real_part_needs_symmetric_bidegree(torus3):
    with pytest.raises(BidegreeError):
        real_part(zero_form(torus3, 2, 0))


def test_is_real_scales_with_coefficients(torus3):
    a = basis_form(torus3, 1, 1, (1,), (1,)) * 1e6j
    assert is_real(a, 1e-12)
    skew = basis_form(torus3, 1, 1, (1,), (2,)) * 1e-8
    # the same absolute asymmetry is negligible next to 1e6 coefficients
    # but fatal next to O(1) ones
    assert is_real(a + skew, 1e-12)
    assert not is_real(1e-6 * a + skew, 1e-12)
