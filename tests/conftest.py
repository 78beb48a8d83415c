"""Shared fixtures: catalogue models, perturbed-torus fixtures, random forms."""

import math

import numpy as np
import pytest

from hsgeom import catalogue_model, make_torus_model, standard_fixture, synthesize_form
from hsgeom import _basis
from hsgeom.forms import flat_metric_form, wedge
from hsgeom.hodge import Metric

RESOLUTION = 16
EPS = 0.05


@pytest.fixture(scope="session")
def torus3():
    return catalogue_model("torus3")


@pytest.fixture(scope="session")
def iwasawa():
    return catalogue_model("iwasawa")


@pytest.fixture(scope="session")
def heis3():
    return catalogue_model("heis3")


@pytest.fixture(scope="session")
def lie_models(torus3, iwasawa, heis3):
    return {"torus3": torus3, "iwasawa": iwasawa, "heis3": heis3}


@pytest.fixture(scope="session")
def two_coord():
    """(model, u, omega0, omega): the eps e^{i x1} dz^2 perturbed torus."""
    return standard_fixture("two_coord", resolution=RESOLUTION, eps=EPS)


@pytest.fixture(scope="session")
def three_coord():
    """Same with an extra eps e^{i(x3+x5)} dz^3 term (mask x1, x3, x5)."""
    return standard_fixture("three_coord", resolution=RESOLUTION, eps=EPS)


@pytest.fixture(scope="session")
def eps_metric(two_coord):
    return Metric(two_coord[3])


@pytest.fixture(scope="session")
def flat16(two_coord):
    return Metric(flat_metric_form(two_coord[0]))


@pytest.fixture(scope="session")
def torus3_metric(torus3):
    return Metric(flat_metric_form(torus3))


def random_band_form(model, p, q, rng, terms=4, scale=1.0):
    """Random torus form with frequencies inside the aliasing headroom."""
    d = _basis.degree_dims(model.n, p, q)
    if d == 0:
        from hsgeom.forms import zero_form

        return zero_form(model, p, q)
    rows = []
    for _ in range(terms):
        ch = int(rng.integers(d))
        freqs = []
        for ax in range(2 * model.n):
            h = model.headroom(ax)
            freqs.append(int(rng.integers(-h, h + 1)) if h else 0)
        c = scale * complex(rng.standard_normal(), rng.standard_normal())
        rows.append((ch, tuple(freqs), c))
    return synthesize_form(model, p, q, rows)


def random_lie_form(model, p, q, rng, scale=1.0):
    """Random invariant form on a Lie model (constant channels)."""
    from hsgeom.forms import zero_form

    out = zero_form(model, p, q)
    d = out.coeffs.shape[0]
    if d:
        vals = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        out.coeffs[...] = vals.reshape((d,) + (1,) * (out.coeffs.ndim - 1))
    return out


def random_form(model, p, q, rng, scale=1.0):
    if model.kind == "lie":
        return random_lie_form(model, p, q, rng, scale=scale)
    return random_band_form(model, p, q, rng, scale=scale)


def random_metric(model, rng, wobble=0.1):
    """A positive metric form: flat + a small random real (1,1) perturbation.

    The perturbation is rescaled so its largest coefficient stays at
    `wobble`, keeping the matrix safely inside the positivity cone
    (flat eigenvalues sit at 1/2).
    """
    from hsgeom.forms import conjugate

    omega = flat_metric_form(model)
    pert = random_form(model, 1, 1, rng)
    pert = 0.5 * (pert + conjugate(pert))
    peak = float(np.abs(pert.coeffs).max())
    if peak > 0:
        pert = (wobble / peak) * pert
    return Metric(omega + pert)


def primitive_star_reference(metric, v):
    """Closed-form star of a primitive k-form v: the sign and phase
    (-1)^(k(k+1)/2) i^(p-q) / (3-k)! times omega^(3-k) ^ v; the test oracle
    for hodge.star."""
    k = v.p + v.q
    sign = (-1) ** ((k * (k + 1)) // 2)
    phase = 1j ** (v.p - v.q)
    out = v
    for _ in range(metric.n - k):
        out = wedge(metric.omega, out)
    return (sign * phase / math.factorial(metric.n - k)) * out
