"""Bigraded forms and the bicomplex operations shared by both backends.

A model (Lie-invariant or spectral torus) supplies the coefficient payload
shape and the two differentials; everything else here is pure multilinear
algebra over the coefficient channels.  Coefficient arrays have shape
(channels, *grid) where grid is () for invariant models.

Out-of-range bidegrees (negative or above the complex dimension) are carried
along as forms with zero channels, so operator pipelines such as -star dbar
star never need to special-case the boundary of the bigraded lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import _basis


class ModelMismatchError(ValueError):
    """Raised when combining forms attached to different models."""


class BidegreeError(ValueError):
    """Raised when an operation receives a form of the wrong bidegree."""


@dataclass(frozen=True)
class Form:
    """A (p,q)-form given by its coefficient channels on a model."""

    model: Any
    p: int
    q: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        want = (_basis.degree_dims(self.model.n, self.p, self.q),) + self.model.grid_shape
        if self.coeffs.shape != want:
            raise BidegreeError(
                f"coefficients for bidegree {(self.p, self.q)} must have shape {want}, "
                f"got {self.coeffs.shape}"
            )

    @property
    def bidegree(self):
        return (self.p, self.q)

    @property
    def degree(self):
        return self.p + self.q

    def __add__(self, other):
        _check_same(self, other)
        if self.bidegree != other.bidegree:
            raise BidegreeError("can only add forms of equal bidegree")
        return Form(self.model, self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        return Form(self.model, self.p, self.q, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same(a: Form, b: Form):
    if a.model is not b.model:
        raise ModelMismatchError("forms belong to different models")


def zero_form(model, p, q) -> Form:
    shape = (_basis.degree_dims(model.n, p, q),) + model.grid_shape
    return Form(model, p, q, np.zeros(shape, dtype=np.complex128))


def basis_form(model, p, q, I, J) -> Form:
    """The invariant basis form phi^I ^ phibar^J as a Form."""
    z = zero_form(model, p, q)
    c = _basis.channel_index(model.n, p, q)[(tuple(I), tuple(J))]
    z.coeffs[c] = 1.0
    return z


def from_channels(model, p, q, channel_values) -> Form:
    """Build a form from a mapping {(I, J): coefficient or field}."""
    z = zero_form(model, p, q)
    idx = _basis.channel_index(model.n, p, q)
    for key, val in channel_values.items():
        I, J = tuple(key[0]), tuple(key[1])
        z.coeffs[idx[(I, J)]] = z.coeffs[idx[(I, J)]] + val
    return z


def wedge(a: Form, b: Form) -> Form:
    _check_same(a, b)
    out = zero_form(a.model, a.p + b.p, a.q + b.q)
    table = _basis.wedge_table(a.model.n, a.p, a.q, b.p, b.q)
    for c1, c2, c_out, sign in table:
        out.coeffs[c_out] += sign * a.coeffs[c1] * b.coeffs[c2]
    return out


def conjugate(a: Form) -> Form:
    perm, sign = _basis.conjugation(a.model.n, a.p, a.q)
    return Form(a.model, a.q, a.p, sign * np.conj(a.coeffs[perm]))


def differential(part: str, a: Form) -> Form:
    """Apply del ('del') or delbar ('dbar') to a form."""
    if part not in ("del", "dbar"):
        raise ValueError(f"unknown differential part {part!r}")
    p, q = (a.p + 1, a.q) if part == "del" else (a.p, a.q + 1)
    coeffs = a.model.apply_differential(part, a.p, a.q, a.coeffs)
    return Form(a.model, p, q, coeffs)


def d_split(a: Form):
    """Both pieces of the exterior derivative, as (del a, dbar a)."""
    return differential("del", a), differential("dbar", a)


def integrate_top(a: Form) -> complex:
    """Integrate an (n,n)-form against the unit-mass reference volume."""
    n = a.model.n
    if (a.p, a.q) != (n, n):
        raise BidegreeError("only (n,n)-forms can be integrated")
    return complex(a.model.mean(a.coeffs[0]) * _basis.top_channel_integral(n))


def coeff_norm(a: Form) -> float:
    """Reference L2 norm of the raw coefficient channels: the root of the
    grid mean of sum over channels of |c|^2.  A metric-free scale gauge for
    residuals and diagnostics."""
    if a.coeffs.shape[0] == 0:
        return 0.0
    return float(np.sqrt(np.mean(np.abs(a.coeffs) ** 2) * a.coeffs.shape[0]))


def is_real(a: Form, tol: float = 1e-12) -> bool:
    if a.p != a.q:
        return False
    diff = conjugate(a) - a
    scale = max(coeff_norm(a), 1.0)
    return coeff_norm(diff) <= tol * scale


def real_part(a: Form) -> Form:
    """(a + conj a) / 2; only defined on balanced bidegrees (p == q)."""
    if a.p != a.q:
        raise BidegreeError("real part requires p == q")
    return 0.5 * (a + conjugate(a))


def flat_metric_form(model) -> Form:
    """The reference metric form (i/2) * sum_k phi^k ^ phibar^k."""
    vals = {((k,), (k,)): 0.5j for k in range(1, model.n + 1)}
    return from_channels(model, 1, 1, vals)


def reference_volume_form(model) -> Form:
    """The unit-mass reference volume form as an (n,n)-form."""
    n = model.n
    z = zero_form(model, n, n)
    z.coeffs[0] = 1.0 / _basis.top_channel_integral(n)
    return z
