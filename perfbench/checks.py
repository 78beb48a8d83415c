"""Per-op correctness checks, taken from hsgeom's own identities and the
acceptance tolerances of its test suite.

Each check returns a list of problems; an empty list means the op passed.
A malformed document is a problem, not an exception, so a broken op counts
as failed and the run goes on.
"""

from __future__ import annotations

import functools

# criterion 08: the residual entries of completion.identities
COMPLETION_RESIDUALS = ("sixth_integral_residual", "dbar_Omega_residual",
                        "root_residual", "completion_closure",
                        "completion_vs_A")
DV_MASS_TOL = 1e-8
COMPLETION_TOL = 1e-7
INTERSECTION_TOL = 1e-9       # criterion 10: integral of omega~ ^ omega = 6A


def cohomology_dims(doc):
    """The model's classical, page and page-2 dimension tables."""
    coh = doc["cohomology"]
    cl = coh["classical"]
    hp = coh["higher_r2"]
    return {
        "classical": {k: cl[k] for k in ("dolbeault", "bott_chern", "aeppli",
                                         "de_rham")},
        "pages": {r: coh["pages"][r]["dims"] for r in ("1", "2", "3")},
        "higher_r2": {k: hp[k] for k in ("page_dims", "bc_dims", "a_dims")},
    }


def _guarded(check):
    @functools.wraps(check)
    def run(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]
    return run


@_guarded
def check_report(rc, doc, expected_dims=None):
    """Problems with one `hsgeom report` document (None when unreadable)."""
    if doc is None:
        return [f"no report written (exit {rc})"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if doc["errors"]:
        problems.append(f"errors: {doc['errors']}")
    torsion = doc["torsion"]
    if torsion["feasible"]:
        r = torsion["residuals"]["dv_mass_vs_A"]
        if not r <= DV_MASS_TOL:
            problems.append(f"torsion dv_mass_vs_A {r!r}")
        ident = doc["completion"]["identities"]
        for key in COMPLETION_RESIDUALS:
            if not ident[key] <= COMPLETION_TOL:
                problems.append(f"completion {key} {ident[key]!r}")
    inter = doc.get("e2_intersection")
    if isinstance(inter, dict) and "residual" in inter:
        if not inter["residual"] <= INTERSECTION_TOL:
            problems.append(f"e2_intersection residual {inter['residual']!r}")
    if expected_dims is not None and cohomology_dims(doc) != expected_dims:
        problems.append("cohomology dimensions differ from the recorded ones")
    return problems


@_guarded
def check_descent(rc, summary, trace):
    """Problems with one `hsgeom descend` run (criterion 07)."""
    if summary is None or trace is None:
        return [f"no descent output written (exit {rc})"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if summary["termination"] != "converged":
        problems.append(f"termination {summary['termination']!r}")
    cert = summary["certificate"]
    if not cert["balanced_defect"] < 1e-6:
        problems.append(f"balanced_defect {cert['balanced_defect']!r}")
    if not cert["kahler_defect"] < 1e-5:
        problems.append(f"kahler_defect {cert['kahler_defect']!r}")
    final = summary["final"]
    if not final["F"] < 1e-8:
        problems.append(f"final F {final['F']!r}")
    rows = trace["iterates"]
    gen_vol_0 = rows[0]["gen_vol"]
    if not abs(final["vol"] - gen_vol_0) < 1e-6:
        problems.append(f"|vol_final - gen_vol_0| {final['vol'] - gen_vol_0!r}")
    f_col = [row["F"] for row in rows]
    if not all(b <= a for a, b in zip(f_col, f_col[1:])):
        problems.append("F increased along the descent")
    return problems
