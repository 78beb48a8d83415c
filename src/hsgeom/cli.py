"""Batch front end: validate models, write metric reports, run descent.

Three subcommands share one model/metric resolution pipeline:

  validate   load a model with all eager structure checks
  report     single JSON document aggregating torsion energies, metric
             classification, completion identities, volume-comparison
             constants and (lie backend) cohomology tables
  descend    energy descent over the Aeppli class; writes the trace as CSV
             and JSON plus the final metric export and a criticality
             certificate

Exit codes: 0 success (honest negative results such as an infeasible torsion
system are still reports), 1 numerical failure mid-computation (partial
output is written), 2 invalid input (arguments, model, metric and output
location are checked before any work; every exit 2 writes one error document
to stdout).  Outputs are deterministic for a fixed config and seed: JSON keys
are sorted and no timestamps are embedded.  Files are written atomically
(temp file + rename).

`hsgeom.cli.main(argv)` returns the exit code and may be called repeatedly
in one process: it builds its argument parser once, and each call parses
into a fresh namespace, so no option of one call leaks into the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import analysis, cohomology, descent
from .forms import Form, conjugate, differential, flat_metric_form
from .hodge import Metric, NotPositiveError, SolveDiverged
from .lie import (IntegrabilityError, JacobiError, ModelFormatError,
                  UnimodularityError, catalogue_model, load_model)
from .torus import (AliasingError, GridError, load_form, make_torus_model,
                    save_form, standard_potential)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

_INPUT_ERRORS = (ModelFormatError, IntegrabilityError, JacobiError,
                 UnimodularityError, GridError, AliasingError,
                 NotPositiveError, OSError, KeyError, ValueError)


class _InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(obj):
    """Make an object JSON-serializable and deterministic.  Python ints,
    strings, None and floats, the commonest leaves, are matched by exact
    type first; subclasses such as bool and np.float64 take the isinstance
    chain."""
    kind = type(obj)
    if kind is int or kind is str or obj is None:
        return obj
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _sanitize(float(obj.real)),
                "im": _sanitize(float(obj.imag))}
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "to_json"):
        return _sanitize(obj.to_json())
    return repr(obj)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(obj, append, indent):
    """Append the indented JSON text of `obj` one chunk at a time.  Exact
    floats, strings, ints and None are written here, dicts (string keys,
    last value wins, sorted) and lists or tuples are walked, and every other
    object is written as `_sanitize` makes it.  A module-level function
    taking `append`, not a closure calling itself, so a report leaves no
    reference cycle behind."""
    kind = type(obj)
    if kind is int:
        append(int.__repr__(obj))
    elif kind is float:
        append(float.__repr__(obj) if math.isfinite(obj)
               else _encode_str(repr(obj)))
    elif kind is str:
        append(_encode_str(obj))
    elif obj is None:
        append("null")
    elif isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = indent + "  "
        lead = "{\n" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            append(lead + _encode_str(key) + ": ")
            lead = ",\n" + inner
            _write_json(value, append, inner)
        append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        inner = indent + "  "
        lead = "[\n" + inner
        for value in obj:
            append(lead)
            lead = ",\n" + inner
            _write_json(value, append, inner)
        append("\n" + indent + "]")
    else:
        obj = _sanitize(obj)
        if obj is True or obj is False:
            append("true" if obj else "false")
        elif isinstance(obj, str):      # a str subclass, kept by _sanitize
            append(_encode_str(obj))
        else:
            _write_json(obj, append, indent)


def _dump_json(obj) -> str:
    """The text of `json.dumps(_sanitize(obj), sort_keys=True, indent=2)`
    plus a newline, written in one walk of `obj`: `json` falls back to its
    pure-Python encoder whenever `indent` is set."""
    chunks = []
    _write_json(obj, chunks.append, "")
    chunks.append("\n")
    return "".join(chunks)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _dump_csv(obj) -> str:
    lines = ["key,value"]
    for key, val in _flatten(_sanitize(obj)):
        sval = "" if val is None else str(val)
        if "," in sval or '"' in sval:
            sval = '"' + sval.replace('"', '""') + '"'
        lines.append(f"{key},{sval}")
    return "\n".join(lines) + "\n"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hsgeom-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out(args, directory=False):
    """Raise OSError now, before any work, if `--out` cannot take results:
    a file path needs an existing directory, a directory is created."""
    if not args.out:
        return
    if directory:
        os.makedirs(args.out, exist_ok=True)
        where = args.out
    elif os.path.isdir(args.out):
        raise IsADirectoryError(f"output path {args.out!r} is a directory")
    else:
        where = os.path.dirname(os.path.abspath(args.out))
    tempfile.TemporaryFile(dir=where).close()


def _emit(args, obj, path=None):
    """Write `obj` in the requested format to `path`, or to stdout; JSON
    if rejected arguments left no format."""
    csv = getattr(args, "format", None) == "csv"
    text = _dump_csv(obj) if csv else _dump_json(obj)
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config resolution


def _parse_mask(mask):
    return tuple(s for s in (t.strip() for t in mask.split(",")) if s)


def _resolve_model(args):
    spec = args.model
    if spec == "torus":
        return make_torus_model(args.resolution, _parse_mask(args.mask))
    if spec.startswith("catalogue:"):
        return catalogue_model(spec.split(":", 1)[1])
    with open(spec) as fh:
        return load_model(fh.read())


def _parse_complex_list(body, want):
    out = []
    for chunk in body.split(";"):
        bits = chunk.split(",")
        if len(bits) == 1:
            out.append(complex(float(bits[0]), 0.0))
        elif len(bits) == 2:
            out.append(complex(float(bits[0]), float(bits[1])))
        else:
            raise _InputError(f"bad complex entry {chunk!r}")
        if not np.isfinite(out[-1]):
            raise _InputError(f"non-finite complex entry {chunk!r}")
    if len(out) != want:
        raise _InputError(f"expected {want} coefficients, got {len(out)}")
    return np.array(out, dtype=np.complex128)


def _resolve_perturbation(model, args):
    """A (1,0)-form u; the metric becomes omega + del(conj u) + dbar(u).

    Grammar: 'fixture:NAME' (named torus potential, scaled by --eps),
    'coeffs:re,im;re,im;re,im' (constant channel values), or 'form:PREFIX'
    (a stored form export).
    """
    spec = args.perturb
    if spec.startswith("fixture:"):
        if model.kind != "torus":
            raise _InputError("fixture: perturbations need the torus backend")
        if not math.isfinite(args.eps):
            raise _InputError(f"--eps must be finite, got {args.eps!r}")
        return standard_potential(model, spec.split(":", 1)[1], args.eps)
    if spec.startswith("coeffs:"):
        vec = _parse_complex_list(spec.split(":", 1)[1], model.n)
        coeffs = np.zeros((model.n,) + model.grid_shape, dtype=np.complex128)
        coeffs += vec.reshape((model.n,) + (1,) * len(model.grid_shape))
        return Form(model, 1, 0, coeffs)
    if spec.startswith("form:"):
        u = load_form(model, spec.split(":", 1)[1])
        if (u.p, u.q) != (1, 0):
            raise _InputError("perturbation form must have bidegree (1,0)")
        return u
    raise _InputError(f"unrecognized perturbation spec {spec!r}")


def _resolve_metric(model, args):
    if getattr(args, "metric", None):
        omega = load_form(model, args.metric)
        if (omega.p, omega.q) != (1, 1):
            raise _InputError("metric form must have bidegree (1,1)")
    else:
        omega = flat_metric_form(model)
    if getattr(args, "perturb", None):
        u = _resolve_perturbation(model, args)
        omega = omega + differential("del", conjugate(u)) \
            + differential("dbar", u)
    return Metric(omega)


def _config_echo(args):
    keys = ("command", "model", "metric", "perturb", "resolution", "mask",
            "eps", "tol", "max_iters", "mode", "seed", "format", "out")
    return {k: getattr(args, k, None) for k in keys}


def _error_doc(args, exc):
    """The document of a run that failed with `exc` before any result."""
    return {"schema": 1, "ok": False, "config": _config_echo(args),
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _input_error(args, exc):
    """The one exit for invalid input: error document on stdout, exit 2."""
    _emit(args, _error_doc(args, exc))
    return EXIT_INPUT


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    try:
        model = _resolve_model(args)
        _check_out(args)
    except _INPUT_ERRORS as exc:
        return _input_error(args, exc)
    _emit(args, {"schema": 1, "ok": True, "config": _config_echo(args),
                 "model": model.describe()}, args.out)
    return EXIT_OK


def _report_body(model, metric, args):
    """Assemble the report; returns (document, numerical_failure_flag)."""
    doc = {
        "schema": 1,
        "config": _config_echo(args),
        "model": model.describe(),
        "volume": metric.volume,
        "min_eigenvalue": metric.min_eigenvalue,
        "errors": [],
    }
    failed = False

    def section(name, fn):
        nonlocal failed
        try:
            doc[name] = fn()
        except analysis.NotFeasibleError as exc:
            doc[name] = {
                "feasible": False,
                "message": str(exc),
                "residuals": exc.residuals,
                "certificate": None,
            }
        except (SolveDiverged, analysis.RootFailure, RuntimeError) as exc:
            doc["errors"].append({"section": name,
                                  "type": type(exc).__name__,
                                  "message": str(exc)})
            failed = True

    section("classification",
            lambda: analysis.classify_metric(metric, tol=args.tol).to_json())

    def torsion():
        rep = analysis.energy_and_volume(metric, mode=args.mode,
                                         tol=args.tol)
        out = rep.to_json()
        out["feasible"] = True
        return out
    section("torsion", torsion)

    def lefschetz():
        alpha, prim, residual = analysis.lefschetz_alpha(metric)
        return {"pointwise_identity_residual": residual}
    section("lefschetz", lefschetz)

    if isinstance(doc.get("torsion"), dict) and doc["torsion"].get("feasible"):
        def completion():
            comp = analysis.sg_and_completion(metric, tol=args.tol)
            out = comp.to_json()
            out["ma_constants"] = analysis.ma_constants(
                metric, Metric(comp.gamma), tol=args.tol).to_json()
            return out
        section("completion", completion)

    if model.kind == "lie":
        def tables():
            cl = cohomology.classical_groups(model)
            out = {"classical": cl.to_json(), "pages": {}}
            for r in (1, 2, 3):
                out["pages"][str(r)] = cohomology.spectral_page(
                    model, r).to_json()
            hp = cohomology.higher_page_groups(model, 2)
            out["higher_r2"] = hp.to_json()
            out["page_1_ddbar"] = hp.page_diagnostic
            return out
        section("cohomology", tables)

        def torsion_class():
            try:
                cls, cert = cohomology.e2_torsion_class(
                    metric, perturbation_seed=args.seed)
            except cohomology.NotHSError as exc:
                return {"feasible": False, "message": str(exc)}
            return {
                "feasible": True,
                "class": cls.to_json(),
                "vanishing": cert["vanishing"],
                "d2_image_norm": cert["d2_image_norm"],
                "perturbed_coordinate_drift":
                    cert["perturbed_coordinate_drift"],
            }
        section("e2_torsion_class", torsion_class)

        def intersection():
            try:
                res = cohomology.e2_intersection(metric)
            except cohomology.HypothesisFailed as exc:
                return {"hypothesis_failed": exc.which}
            return res.to_json()
        section("e2_intersection", intersection)

    return doc, failed


def cmd_report(args):
    try:
        model = _resolve_model(args)
        metric = _resolve_metric(model, args)
        _check_out(args)
    except _INPUT_ERRORS as exc:
        return _input_error(args, exc)
    doc, failed = _report_body(model, metric, args)
    _emit(args, doc, args.out)
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_descend(args):
    try:
        model = _resolve_model(args)
        metric = _resolve_metric(model, args)
        _check_out(args, directory=True)
    except _INPUT_ERRORS as exc:
        return _input_error(args, exc)

    opts = descent.DescentOptions(tol=args.tol, max_iters=args.max_iters,
                                  torsion_mode=args.mode)

    def write_outputs(trace, final_metric, certificate, error=None):
        _atomic_write(os.path.join(args.out, "descent_trace.csv"),
                      trace.to_csv())
        _atomic_write(os.path.join(args.out, "descent_trace.json"),
                      _dump_json(trace.to_json()))
        if final_metric is not None:
            save_form(final_metric.omega,
                      os.path.join(args.out, "final_metric"))
        summary = {
            "schema": 1,
            "config": _config_echo(args),
            "termination": trace.termination,
            "iterations": len(trace.iterates) - 1,
            "final": trace.final,
            "certificate": certificate.to_json() if certificate else None,
            "error": error,
        }
        if certificate is not None:
            _atomic_write(os.path.join(args.out, "certificate.json"),
                          _dump_json(certificate.to_json()))
        text = _dump_json(summary)
        _atomic_write(os.path.join(args.out, "summary.json"), text)
        sys.stdout.write(text)

    try:
        result = descent.descend(metric, opts)
    except (descent.LineSearchStalled, descent.PositivityBoundary,
            analysis.NotFeasibleError, SolveDiverged) as exc:
        trace = getattr(exc, "trace", None)
        if trace is None:       # the torsion of iterate 0 failed
            sys.stdout.write(_dump_json(_error_doc(args, exc)))
            return EXIT_NUMERICAL
        trace.termination = type(exc).__name__
        error = {"type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "state"):
            error["state"] = exc.state
        write_outputs(trace, None, None, error=error)
        return EXIT_NUMERICAL

    write_outputs(result.trace, result.metric, result.certificate)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _positive_tol(text):
    """--tol: a finite positive float.  A tolerance at or below zero, or
    NaN, can never be met; argparse exits 2 on the error, before any work."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return tol


def _iteration_count(text):
    """--max-iters: an integer >= 0."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return count


def _add_common(p):
    p.add_argument("--model", required=True,
                   help="'catalogue:NAME', a lie model file path, or 'torus'")
    p.add_argument("--resolution", type=int, default=16,
                   help="grid resolution for the torus backend")
    p.add_argument("--mask", default="x1,x2",
                   help="comma-separated active torus coordinates")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--tol", type=_positive_tol, default=None,
                   help="tolerance override (backend default if omitted)")
    p.add_argument("--seed", type=int, default=11)


def _add_metric_flags(p):
    p.add_argument("--metric", default=None,
                   help="stored (1,1)-form export prefix; flat if omitted")
    p.add_argument("--perturb", default=None,
                   help="'fixture:NAME', 'coeffs:...', or 'form:PREFIX'")
    p.add_argument("--eps", type=float, default=0.05,
                   help="amplitude for fixture: perturbations")
    p.add_argument("--mode", choices=analysis.TORSION_MODES, default="dim3",
                   help="torsion mode and its gate: dim3 (none) or skt "
                   "(pluriclosed)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `_InputError` after printing
    argparse's usage and message to stderr, so that `main` writes the
    error document; its subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _InputError(message)


def build_parser():
    ap = _Parser(
        prog="hsgeom",
        description="Hermitian-symplectic geometry workbench",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a model with eager checks")
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("report", help="full metric report")
    _add_common(p)
    _add_metric_flags(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("descend", help="energy descent over the Aeppli class")
    _add_common(p)
    _add_metric_flags(p)
    p.add_argument("--max-iters", type=_iteration_count, default=200,
                   dest="max_iters")
    p.set_defaults(fn=cmd_descend)
    return ap


@functools.cache
def _parser():
    """The parser of main, built once per process: parse_args leaves it as
    it was, and every call gets a fresh namespace."""
    return build_parser()


def main(argv=None):
    """Run one subcommand and return its exit code.  The command is looked
    up at call time, not through the `fn` default of the cached parser, so
    a rebound cmd_* function is the one that runs.  Rejected arguments
    write the error document of the namespace parsed so far: argparse
    copies a subcommand's options into it only once their parse succeeds,
    so a bad option value leaves the command name alone."""
    args = argparse.Namespace()
    try:
        _parser().parse_args(argv, namespace=args)
    except _InputError as exc:
        return _input_error(args, exc)
    if args.command == "descend" and not args.out:
        exc = _InputError("descend requires --out DIRECTORY")
        sys.stderr.write(f"{exc}\n")
        return _input_error(args, exc)
    if args.command == "descend" and args.tol is None:
        args.tol = 1e-6
    command = {"validate": cmd_validate, "report": cmd_report,
               "descend": cmd_descend}[args.command]
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
