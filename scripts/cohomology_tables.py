#!/usr/bin/env python3
"""Print cohomology tables for the invariant catalogue models.

For each model: Betti numbers, the four classical (p,q)-tables, the
Frolicher page dimensions until the sequence degenerates, and the
page-2 and page-3 Bott-Chern/Aeppli refinements, each with its
degeneration diagnostic.

    python scripts/cohomology_tables.py            # all catalogue models
    python scripts/cohomology_tables.py iwasawa    # just one

The output for all models is committed as scripts/cohomology_tables.expected,
and CI diffs the script's output against it.
"""

import argparse

import numpy as np

from hsgeom import catalogue_model
from hsgeom.cohomology import classical_groups, higher_page_groups, spectral_page

CATALOGUE = ("torus3", "iwasawa", "heis3")


def table_str(mat):
    mat = np.asarray(mat)
    return "\n".join("  " + " ".join(f"{int(v):3d}" for v in row) for row in mat)


def dims_matrix(dims, n=3):
    out = np.zeros((n + 1, n + 1), dtype=int)
    for (p, q), v in dims.items():
        out[p, q] = v
    return out


def show(name):
    model = catalogue_model(name)
    tab = classical_groups(model)
    print(f"== {name} " + "=" * (50 - len(name)))
    print("betti     :", [int(b) for b in tab.de_rham])
    for label, mat in (("dolbeault", tab.dolbeault),
                       ("bott-chern", tab.bott_chern),
                       ("aeppli", tab.aeppli)):
        print(f"{label} h^(p,q)  (rows p, cols q):")
        print(table_str(mat))
    print("duality (BC vs Aeppli):", tab.duality_ok)

    r = 1
    while True:
        page = spectral_page(model, r)
        total = [sum(v for (p, q), v in page.dims.items() if p + q == k)
                 for k in range(7)]
        print(f"page E_{r}: totals {total}  degenerates={page.degenerates}")
        print(table_str(dims_matrix(page.dims)))
        if page.degenerates or r >= 3:
            break
        r += 1

    for r in (2, 3):
        hp = higher_page_groups(model, r)
        print(f"page-{r} bott-chern:")
        print(table_str(hp.bc_dims))
        print(f"page-{r} aeppli:")
        print(table_str(hp.a_dims))
        print(f"page-{r} degeneration diagnostic: {hp.page_diagnostic}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("models", nargs="*", default=list(CATALOGUE))
    args = ap.parse_args()
    for name in args.models:
        show(name)


if __name__ == "__main__":
    main()
