"""Exact backend: invariant forms on a complex Lie-group quotient.

A model is specified by structure rules  d phi^k = sum of (2,0) and (1,1)
words in the coframe; the differential of a conjugate generator follows by
conjugation.  d of every other basis form follows from the generators by the
Leibniz rule over `forms.wedge`, so the backend shares the sign convention of
every other product in the package.  A model is valid when d^2 = 0 on the
generators, the Jacobi identity of the structure constants.  All operators
become small dense matrices over the invariant coefficient channels, so every
computation in this backend is exact up to numerical round-off.

Model file grammar (one statement per line, '#' comments allowed)::

    name  <identifier>
    dim   3
    d phi<k> = <coeff> * phi<i>^phi<j> [+ <coeff> * phi<i>^phibar<j> ...]

Models are threefolds: dim is 3 and the generators are phi1..phi3.
Coefficients are parseable complex literals such as ``-1``, ``0.5`` or
``(0+1j)``.  Duplicate rules and unknown generators are rejected; a rule
with a phibar^phibar word parses but fails integrability validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _basis
from ._basis import DIM
from .forms import Form, basis_form, conjugate, differential, wedge, zero_form
from .hodge import min_norm_lstsq

_RANK_TOL = 1e-10
_JACOBI_TOL = 1e-13        # largest entry of d^2, or of d on 5-forms
_HS_TOL = 1e-10            # relative residual of a feasible torsion system


def _kept(s):
    """Mask of the singular values `s` (descending) counted into a rank.

    The one rank rule of the invariant backend: `_nullspace`,
    `LieModel.dbar_preimage` and every rank in `cohomology` count by it.
    """
    return s > _RANK_TOL * max(1.0, s[0] if s.size else 0.0)


def _nullspace(M):
    """Orthonormal columns spanning the null space of M, by the `_kept`
    rank: the one null space of the invariant backend."""
    _, s, vh = np.linalg.svd(np.asarray(M, dtype=np.complex128))
    return vh[int(np.sum(_kept(s))):].conj().T


class ModelFormatError(ValueError):
    """Malformed model text (syntax, duplicates, unknown generators, a dim
    other than 3)."""


class IntegrabilityError(ValueError):
    """A structure rule produces a (0,2) component, so the almost-complex
    structure the rules encode is not integrable."""


class JacobiError(ValueError):
    """The structure rules do not square to zero (d . d != 0)."""


class UnimodularityError(ValueError):
    """tr ad_X != 0 for some X: d of an invariant 5-form is nonzero, so
    Stokes fails and the group has no lattice (Milnor, Adv. Math. 21, 1976,
    Lemma 6.2), hence no compact quotient."""


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class ModelSpec:
    """Parsed structure data: rules[k] is a tuple of (coeff, word) where a
    word is a pair of generators, each ('z', i) or ('zb', i)."""

    name: str
    rules: tuple


_GEN_RE = re.compile(r"^phi(bar)?(\d+)$")
_HEAD_RE = re.compile(r"^d\s+phi(\d+)\s*=\s*(.*)$")


def _parse_generator(tok: str):
    m = _GEN_RE.match(tok.strip())
    if not m:
        raise ModelFormatError(f"unknown generator {tok!r}")
    idx = int(m.group(2))
    if not 1 <= idx <= DIM:
        raise ModelFormatError(f"generator index out of range in {tok!r}")
    return ("zb" if m.group(1) else "z", idx)


def parse_model_text(text: str) -> ModelSpec:
    name = None
    n = None
    rules: dict[int, list] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name"):
            if name is not None:
                raise ModelFormatError("duplicate name field")
            name = line.split(None, 1)[1].strip()
            continue
        if line.startswith("dim"):
            if n is not None:
                raise ModelFormatError("duplicate dim field")
            n = int(line.split(None, 1)[1])
            if n != DIM:
                raise ModelFormatError(f"dim must be {DIM}, got {n}")
            continue
        m = _HEAD_RE.match(line)
        if not m:
            raise ModelFormatError(f"unparseable line {line!r}")
        k = int(m.group(1))
        if not 1 <= k <= DIM:
            raise ModelFormatError(f"rule for unknown generator phi{k}")
        if k in rules:
            raise ModelFormatError(f"duplicate rule for phi{k}")
        terms = []
        for chunk in _split_terms(m.group(2)):
            if "*" not in chunk:
                raise ModelFormatError(f"term {chunk!r} lacks a coefficient")
            coeff_s, word_s = chunk.split("*", 1)
            try:
                coeff = complex(coeff_s.strip().replace(" ", ""))
            except ValueError as exc:
                raise ModelFormatError(f"bad coefficient in {chunk!r}") from exc
            gens = word_s.split("^")
            if len(gens) != 2:
                raise ModelFormatError(f"term {chunk!r} must be a wedge of two generators")
            word = tuple(_parse_generator(g) for g in gens)
            if word[0] == word[1]:
                raise ModelFormatError(f"repeated generator in {chunk!r}")
            terms.append((coeff, word))
        rules[k] = terms
    if name is None or n is None:
        raise ModelFormatError("model needs both name and dim fields")
    return ModelSpec(name, tuple(sorted((k, tuple(v)) for k, v in rules.items())))


def _split_terms(expr: str):
    """Split a sum on '+' signs that are not inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [c for c in (s.strip() for s in out) if c]


# ---------------------------------------------------------------------------
# the model


class LieModel:
    """Invariant-form backend built from structure rules."""

    kind = "lie"
    n = DIM
    grid_shape: tuple = ()

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.name = spec.name
        # (del, dbar) of basis forms, operator matrices, dbar pseudo-inverses,
        # the largest operator entry of hodge._scale, cohomology.py objects
        self._memo: dict = {("d",) + g: dg for g, dg in self._generator_d()}
        self._validate()

    def memo(self, key, build):
        """build() memoised on the model under the tagged tuple `key`."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- structure data -----------------------------------------------------

    def _generator_d(self):
        """Yield ((I, J), (del, dbar)) for each generator phi^k and phibar^k.

        The rules give d phi^k = (2,0) part + (1,1) part; conjugation gives
        del phibar^k = conj(dbar phi^k) and dbar phibar^k = conj(del phi^k).
        """
        gen = {}
        for i in range(1, DIM + 1):
            gen["z", i] = basis_form(self, 1, 0, (i,), ())
            gen["zb", i] = basis_form(self, 0, 1, (), (i,))
        rules = dict(self.spec.rules)
        for k in range(1, DIM + 1):
            de, db = zero_form(self, 2, 0), zero_form(self, 1, 1)
            for coeff, word in rules.get(k, ()):
                if word[0][0] == word[1][0] == "zb":
                    raise IntegrabilityError(
                        f"d phi{k} has a (0,2) component; the coframe rules are "
                        "not integrable"
                    )
                term = coeff * wedge(gen[word[0]], gen[word[1]])
                if term.p == 2:
                    de = de + term
                else:
                    db = db + term
            yield ((k,), ()), (de, db)
            yield ((), (k,)), (conjugate(db), conjugate(de))

    def _d(self, I, J):
        """(del, dbar) of phi^I ^ phibar^J by the Leibniz rule
        d(g ^ r) = dg ^ r - g ^ dr, g its first generator."""
        def build():
            if not I and not J:
                return zero_form(self, 1, 0), zero_form(self, 0, 1)
            g, r = ((I[:1], ()), (I[1:], J)) if I else (((), J[:1]), ((), J[1:]))
            gf = basis_form(self, len(g[0]), len(g[1]), *g)
            rf = basis_form(self, len(r[0]), len(r[1]), *r)
            return tuple(wedge(dg, rf) - wedge(gf, dr)
                         for dg, dr in zip(self._d(*g), self._d(*r)))
        return self.memo(("d", I, J), build)

    def operator_matrix(self, part: str, p: int, q: int) -> np.ndarray:
        """Dense matrix of del or dbar from bidegree (p,q)."""
        def build():
            tgt = (p + 1, q) if part == "del" else (p, q + 1)
            M = np.zeros((_basis.degree_dims(self.n, *tgt),
                          _basis.degree_dims(self.n, p, q)),
                         dtype=np.complex128)
            for c, (I, J) in enumerate(_basis.basis(self.n, p, q)):
                # += into zeros turns the -0.0 that conjugate leaves into 0.0
                M[:, c] += self._d(I, J)[part == "dbar"].coeffs
            return M
        return self.memo(("op", part, p, q), build)

    # -- backend protocol ---------------------------------------------------

    def apply_differential(self, part, p, q, coeffs):
        return self.operator_matrix(part, p, q) @ coeffs

    def dbar_preimage(self, p, q, v):
        """x of bidegree (p,q) with dbar x = v for dbar-exact v: the
        memoised pseudo-inverse of the dbar matrix, of `_kept` rank, on v."""
        def build():
            u, s, vh = np.linalg.svd(self.operator_matrix("dbar", p, q),
                                     full_matrices=False)
            r = int(np.sum(_kept(s)))
            return vh[:r].conj().T @ (u[:, :r].conj().T / s[:r, None])
        return self.memo(("dbar_pinv", p, q), build) @ v

    @staticmethod
    def mean(field):
        return field

    def describe(self):
        return {
            "backend": "lie",
            "name": self.name,
            "dim": self.n,
            "scope": "invariant-subcomplex",
        }

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """d^2 = 0 on phi^1..phi^3: the Jacobi identity of the structure
        constants.  d^2 is a derivation that commutes with conjugation, so
        this covers every form.  Then unimodularity: d vanishes on
        invariant 5-forms."""
        worst = 0.0
        for k in range(1, DIM + 1):
            de, db = self._d((k,), ())
            for f in (differential("del", de), differential("dbar", db),
                      differential("dbar", de) + differential("del", db)):
                worst = max(worst, float(np.max(np.abs(f.coeffs), initial=0.0)))
        if worst > _JACOBI_TOL:
            raise JacobiError(
                f"structure rules violate d^2 = 0 (worst residual {worst:.3e})"
            )
        # d into degree 6 is tr ad_X: dbar on (3,2) and del on (2,3)
        top = max(float(np.max(np.abs(self.operator_matrix(part, p, q))))
                  for part, p, q in (("dbar", 3, 2), ("del", 2, 3)))
        if top > _JACOBI_TOL:
            raise UnimodularityError(
                f"structure is not unimodular: d on invariant 5-forms has "
                f"norm {top:.3e}, so no compact quotient exists")


def load_model(text: str) -> LieModel:
    return LieModel(parse_model_text(text))


# ---------------------------------------------------------------------------
# catalogue


@lru_cache(maxsize=None)
def catalogue_model(name: str) -> LieModel:
    from importlib import resources

    path = resources.files("hsgeom.catalogue").joinpath(f"{name}.model")
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise ModelFormatError(f"no catalogue model named {name!r}") from exc
    return load_model(text)


# ---------------------------------------------------------------------------
# Hermitian-symplectic feasibility over the invariant complex


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Outcome of the exact linear solve for the torsion constraints
    del rho = 0, dbar rho = -del omega over invariant (2,0)-forms."""

    feasible: bool
    residual: float
    solution: Form | None
    nullspace: tuple = ()

    def to_json(self):
        return {
            "feasible": self.feasible,
            "residual": self.residual,
            "nullspace_dim": len(self.nullspace),
        }


def hs_feasibility(metric) -> FeasibilityCertificate:
    """Decide solvability of the torsion system for an invariant metric.

    `metric` is a hodge.Metric on a LieModel.  hodge.min_norm_lstsq solves
    the system: the residual is the metric L2 norm over the stacked target
    spaces, and the solution the minimal-norm one.  The system is feasible
    when that residual is at most _HS_TOL relative to the right-hand side.
    The exact invariant certificate, and the reference route for the
    verdict of analysis.torsion_form, which never calls it.  A grid metric
    raises ValueError.
    """
    model = metric.model
    if model.kind != "lie":
        raise ValueError("hs_feasibility decides invariant metrics on the "
                         "lie backend only")
    rho, resid, nb, Aw = min_norm_lstsq(metric, (2, 0), [
        ((3, 0), model.operator_matrix("del", 2, 0), None),
        ((2, 1), model.operator_matrix("dbar", 2, 0),
         -(model.operator_matrix("del", 1, 1) @ metric.omega.coeffs)),
    ])
    if resid <= _HS_TOL * max(1.0, nb):
        # nullspace of the stacked operator, in geometric coordinates
        W_inv = metric.gram_cholesky(2, 0)[1]       # L^{-H}
        null = [Form(model, 2, 0, W_inv @ v) for v in _nullspace(Aw).T]
        return FeasibilityCertificate(True, resid, rho, tuple(null))
    return FeasibilityCertificate(False, resid, None, ())
