"""Exact backend: invariant forms on a complex Lie-group quotient.

A model is specified by structure rules  d phi^k = sum of (2,0) and (1,1)
words in the coframe; the differential of a conjugate generator follows by
conjugation.  All operators become small dense matrices over the invariant
coefficient channels, so every computation in this backend is exact up to
numerical round-off.

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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _basis
from ._basis import DIM
from .forms import Form
from .hodge import min_norm_lstsq

_RANK_TOL = 1e-10
_JACOBI_TOL = 1e-13        # largest entry of d^2 a model may carry
_HS_TOL = 1e-10            # relative residual of a feasible torsion system


def _kept(s):
    """Mask of the singular values `s` (descending) counted into a rank.

    The one rank rule of the invariant backend: `_hs_feasibility` and every
    rank in `cohomology` count through it.
    """
    return s > _RANK_TOL * max(1.0, s[0] if s.size else 0.0)


class ModelFormatError(ValueError):
    """Malformed model text (syntax, duplicates, unknown generators, a dim
    other than 3)."""


class IntegrabilityError(ValueError):
    """A structure rule produces a (0,2) component, so the almost-complex
    structure the rules encode is not integrable."""


class JacobiError(ValueError):
    """The structure rules do not square to zero (d . d != 0)."""


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class ModelSpec:
    """Parsed structure data: rules[k] is a tuple of (coeff, word) where a
    word is a pair of generators, each ('z', i) or ('zb', i)."""

    name: str
    n: int
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
    return ModelSpec(name, n, tuple(sorted((k, tuple(v)) for k, v in rules.items())))


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


def _normalize_word(factors):
    """Sort a word of generators into (sign, I, J); zero sign on repeats."""
    zs = [g[1] for g in factors if g[0] == "z"]
    zbs = [g[1] for g in factors if g[0] == "zb"]
    # inversions of the interleaved word relative to (sorted z's, sorted zb's)
    order = []
    for t, i in factors:
        order.append((0 if t == "z" else 1, i))
    inv = 0
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                inv += 1
            elif order[a] == order[b]:
                return 0, None, None
    if len(set(zs)) != len(zs) or len(set(zbs)) != len(zbs):
        return 0, None, None
    return (-1) ** inv, tuple(sorted(zs)), tuple(sorted(zbs))


class LieModel:
    """Invariant-form backend built from structure rules."""

    kind = "lie"
    n = DIM
    grid_shape: tuple = ()

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.name = spec.name
        self._dgen = self._build_generator_d()
        self._memo: dict = {}   # operator matrices, cohomology.py objects
        self._validate()

    def memo(self, key, build):
        """build() memoised on the model under the tagged tuple `key`."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- structure data -----------------------------------------------------

    def _build_generator_d(self):
        """d of each coframe generator as {(t, k): [(coeff, word), ...]}."""
        dgen = {}
        rules = dict(self.spec.rules)
        for k in range(1, self.n + 1):
            terms = list(rules.get(k, ()))
            for coeff, word in terms:
                types = sorted(t for t, _ in word)
                if types == ["zb", "zb"]:
                    raise IntegrabilityError(
                        f"d phi{k} has a (0,2) component; the coframe rules are "
                        "not integrable"
                    )
            dgen[("z", k)] = tuple(terms)
            # conjugate rule: conj swaps z <-> zb, conjugates coefficients
            conj_terms = tuple(
                (np.conj(c), tuple(("zb" if t == "z" else "z", i) for t, i in w))
                for c, w in terms
            )
            dgen[("zb", k)] = conj_terms
        return dgen

    def _d_of_basis_element(self, I, J):
        """Total d of phi^I ^ phibar^J as {(p,q): coefficient vector}."""
        factors = tuple(("z", i) for i in I) + tuple(("zb", j) for j in J)
        acc: dict = {}
        for pos, gen in enumerate(factors):
            for coeff, word in self._dgen[gen]:
                new = factors[:pos] + word + factors[pos + 1:]
                sign, I2, J2 = _normalize_word(new)
                if sign == 0:
                    continue
                key = (len(I2), len(J2))
                if key not in acc:
                    acc[key] = np.zeros(
                        _basis.degree_dims(self.n, *key), dtype=np.complex128
                    )
                c = _basis.channel_index(self.n, *key)[(I2, J2)]
                acc[key][c] += (-1) ** pos * sign * coeff
        return acc

    def operator_matrix(self, part: str, p: int, q: int) -> np.ndarray:
        """Dense matrix of del or dbar from bidegree (p,q)."""
        def build():
            tgt = (p + 1, q) if part == "del" else (p, q + 1)
            M = np.zeros((_basis.degree_dims(self.n, *tgt),
                          _basis.degree_dims(self.n, p, q)),
                         dtype=np.complex128)
            if M.size:
                for c, (I, J) in enumerate(_basis.basis(self.n, p, q)):
                    acc = self._d_of_basis_element(I, J)
                    if tgt in acc:
                        M[:, c] = acc[tgt]
            return M
        return self.memo(("op", part, p, q), build)

    # -- backend protocol ---------------------------------------------------

    def apply_differential(self, part, p, q, coeffs):
        return self.operator_matrix(part, p, q) @ coeffs

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
        """d elevated to matrices must square to zero in every bidegree."""
        worst = 0.0
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                dd = self.operator_matrix("del", p + 1, q) @ self.operator_matrix("del", p, q)
                bb = self.operator_matrix("dbar", p, q + 1) @ self.operator_matrix("dbar", p, q)
                mix = (
                    self.operator_matrix("dbar", p + 1, q) @ self.operator_matrix("del", p, q)
                    + self.operator_matrix("del", p, q + 1) @ self.operator_matrix("dbar", p, q)
                )
                for M in (dd, bb, mix):
                    if M.size:
                        worst = max(worst, float(np.max(np.abs(M))))
        if worst > _JACOBI_TOL:
            raise JacobiError(
                f"structure rules violate d^2 = 0 (worst residual {worst:.3e})"
            )


def load_model(text_or_spec) -> LieModel:
    if isinstance(text_or_spec, ModelSpec):
        return LieModel(text_or_spec)
    return LieModel(parse_model_text(text_or_spec))


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
    The certificate, feasible or not, is memoised on the metric, so the
    classification and every torsion extraction on that metric share one
    solve.  A grid metric raises ValueError; `analysis.torsion_form` solves
    the grid system instead.
    """
    if metric.model.kind != "lie":
        raise ValueError("hs_feasibility decides invariant metrics on the "
                         "lie backend only")
    return metric.memo(("hs",), lambda: _hs_feasibility(metric))


def _hs_feasibility(metric):
    model = metric.model
    rho, resid, nb, Aw = min_norm_lstsq(metric, (2, 0), [
        ((3, 0), model.operator_matrix("del", 2, 0), None),
        ((2, 1), model.operator_matrix("dbar", 2, 0),
         -(model.operator_matrix("del", 1, 1) @ metric.omega.coeffs)),
    ])
    if resid <= _HS_TOL * max(1.0, nb):
        # nullspace of the stacked operator, in geometric coordinates
        _, s, vh = np.linalg.svd(Aw)
        W_src = metric.gram_cholesky(2, 0).conj().T
        null = [Form(model, 2, 0, np.linalg.solve(W_src, v))
                for v in vh[int(np.sum(_kept(s))):].conj()]
        return FeasibilityCertificate(True, resid, rho, tuple(null))
    return FeasibilityCertificate(False, resid, None, ())
