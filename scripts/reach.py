#!/usr/bin/env python3
"""Fail if a public function of hsgeom is reached by no CLI run.

Runs `hsgeom.cli.main` in this process on a fixed matrix of 23 commands
under a `sys.setprofile` spy, which records every Python function entered,
imports included:

  * `report` on the three catalogue models, in both torsion modes, flat and
    with a `coeffs:` perturbation (12 runs);
  * `validate` on the three catalogue models (3);
  * grid reports on both torus fixtures at N=8 in both modes, and one CSV
    report (5);
  * descents on `two_coord` at N=16 and on `iwasawa --mode skt` (2);
  * one report whose `--metric` is the final metric of that descent (1).

Every public function and method of the public modules of `src/hsgeom`
(no name component with a leading underscore, no dunder; properties
included) must be entered by some run, or be on ALLOWED with its reason.
Library-only code has no third state: it is reached by a CLI path, is a
named oracle, or lives in the tests as a reference.  An ALLOWED entry that
names no public function, or one that a run enters, is also a failure, so
the list stays exact.

    PYTHONPATH=src python scripts/reach.py

Prints one line per run and a summary; exits 1 on any failure.
"""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile

# public functions no CLI run enters, each with the reason it stays in src
ALLOWED = {
    "analysis.torsion_least_squares":
        "dual-route oracle that the N=16 oracle CI step imports",
    "lie.torsion_solve": "exact invariant oracle behind torsion_least_squares",
    "lie.hs_feasibility":
        "wrapped by name in perfbench/spans.py until ROADMAP item 4",
    "lie.FeasibilityCertificate.to_json":
        "the document of hs_feasibility, held with it",
    "analysis.aeppli_perturb":
        "scripts/aeppli_invariance_sweep.py, a CI step",
    "torus.TorusModel.headroom":
        "scripts/aeppli_invariance_sweep.py draws band-limited potentials",
    "torus.refine": "grid refinement that ROADMAP item 9 builds on",
    "torus.resample": "spectral resampling that ROADMAP item 9 builds on",
    "torus.standard_fixture": "public fixture API of scripts and perfbench",
    "forms.Form.degree": "total degree of a form, part of the Form API",
}

COEFFS = "coeffs:0.1,0.05;0,0.02;0.03,0"
FIXTURES = {"two_coord": "x1,x2", "three_coord": "x1,x3,x5"}


def runs(out):
    """(argv, expected exit code) of the matrix, writing under `out`."""
    path = lambda name: os.path.join(out, name)
    for model in ("torus3", "iwasawa", "heis3"):
        for mode in ("dim3", "skt"):
            for tag, extra in (("flat", []),
                               ("coeffs", ["--perturb", COEFFS])):
                yield (["report", "--model", f"catalogue:{model}",
                        "--mode", mode, *extra,
                        "--out", path(f"{model}-{mode}-{tag}.json")], 0)
        yield ["validate", "--model", f"catalogue:{model}",
               "--out", path(f"{model}-validate.json")], 0
    for name, mask in FIXTURES.items():
        for mode in ("dim3", "skt"):
            yield (["report", "--model", "torus", "--resolution", "8",
                    "--mask", mask, "--perturb", f"fixture:{name}",
                    "--mode", mode, "--out", path(f"{name}-{mode}.json")], 0)
    yield (["report", "--model", "torus", "--resolution", "8",
            "--mask", "x1,x2", "--perturb", "fixture:two_coord",
            "--format", "csv", "--out", path("two_coord.csv")], 0)
    yield (["descend", "--model", "torus", "--resolution", "16",
            "--mask", "x1,x2", "--perturb", "fixture:two_coord",
            "--out", path("descent")], 0)
    # not pluriclosed: the skt gate stops the descent at iterate 0
    yield (["descend", "--model", "catalogue:iwasawa", "--mode", "skt",
            "--out", path("descent-skt")], 1)
    yield (["report", "--model", "torus", "--resolution", "16",
            "--mask", "x1,x2", "--metric", path("descent/final_metric"),
            "--out", path("final.json")], 0)


def code_of(obj):
    """The code object of a function (unwrapped from its cache), a property
    getter or a static method; None for anything else."""
    if isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if callable(obj):
        obj = inspect.unwrap(obj)
    return obj.__code__ if inspect.isfunction(obj) else None


def public_functions(package):
    """{'module.qualname': code object} over the package's public modules:
    the functions they define and the methods of the classes they define."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(
                    obj, "__module__", None) != module.__name__:
                continue
            members = (vars(obj).items() if inspect.isclass(obj)
                       else [("", obj)])
            for attr, member in members:
                code = code_of(member)
                if code is not None and not attr.startswith("_"):
                    qualified = filter(None, (info.name, name, attr))
                    found[".".join(qualified)] = code
    return found


def main():
    entered = set()

    def spy(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failures = []
    sys.setprofile(spy)
    try:
        import hsgeom
        from hsgeom import cli
        with tempfile.TemporaryDirectory() as out:
            for argv, want in runs(out):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                print(f"exit {code}: hsgeom {' '.join(argv[:-2])}")
                if code != want:
                    failures.append(f"exit {code}, expected {want}: {argv}")
    finally:
        sys.setprofile(None)

    public = public_functions(hsgeom)
    missed = sorted(n for n, c in public.items()
                    if c not in entered and n not in ALLOWED)
    failures += [f"reached by no CLI run: {n}" for n in missed]
    failures += [f"allowed but not a public function: {n}"
                 for n in sorted(set(ALLOWED) - set(public))]
    failures += [f"allowed but reached by a CLI run: {n}"
                 for n in sorted(ALLOWED) if public.get(n) in entered]
    reached = sum(c in entered for c in public.values())
    print(f"{len(public)} public functions: {reached} reached, "
          f"{len(public) - reached} allowed or missed")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
