"""Hermitian-symplectic geometry workbench for compact complex threefolds.

Two backends share one form calculus: a finite invariant-form backend for
Lie-type models given by structure constants, and a band-limited spectral
backend on the complex 3-torus.  On top of them sit Hodge-theoretic
operators, torsion extraction with its energy functionals, cohomological
diagnostics, and a descent loop over fixed generalized-volume classes.
"""

from .forms import Form, wedge, conjugate, differential, integrate_top
from .lie import LieModel, load_model, catalogue_model, hs_feasibility
from .torus import (
    TorusModel,
    make_torus_model,
    synthesize_form,
    refine,
    resample,
    standard_fixture,
)

__all__ = [
    "Form",
    "wedge",
    "conjugate",
    "differential",
    "integrate_top",
    "LieModel",
    "load_model",
    "catalogue_model",
    "hs_feasibility",
    "TorusModel",
    "make_torus_model",
    "synthesize_form",
    "refine",
    "resample",
    "standard_fixture",
]

__version__ = "0.1.0"
