#!/usr/bin/env python3
"""Measure how well the generalised volume A survives random Aeppli moves.

For each grid resolution, perturb the standard fixture metric by a batch of
random admissible directions u (omega -> omega + del conj(u) + dbar u) and
record the worst relative drift of A together with the torsion-transport
residual |rho_u - (rho_0 + del u)|.  The dim3 torsion is a dbar preimage of
-del omega minus its harmonic part, exact up to round-off and found with no
iterative solve, so both columns read round-off at every resolution: with
the defaults below the drift is 3.3e-16 at N = 8, 16 and 32, where a PCG
torsion solve stopped at relative residual 1e-9 left 4.4e-14, 3.3e-12 and
6.5e-12, and the transport residual is at most 1.2e-16 (PCG: 3.5e-10).  A
drift well above round-off would indicate a bias in the volume or the
torsion.

A sample whose torsion extraction fails (NotFeasibleError) is counted in
the `failed` column and left out of the worst-case columns; the script
exits with status 1 if any sample failed.  The extraction runs no Green
solve, so it cannot raise SolveDiverged.

    python scripts/aeppli_invariance_sweep.py --resolutions 8 16 32 \
        --samples 20 --seed 2026 --csv out/sweep.csv
"""

import argparse
import pathlib
import sys
import time

import numpy as np

from hsgeom import standard_fixture
from hsgeom.analysis import NotFeasibleError, aeppli_perturb, energy_and_volume
from hsgeom.hodge import Metric
from hsgeom.torus import synthesize_form


def random_potential(model, rng, terms=3, scale=0.02):
    """Band-limited random (1,0)-form, peak-normalised to `scale`."""
    from hsgeom.forms import zero_form

    n_chan = zero_form(model, 1, 0).coeffs.shape[0]
    table = []
    for _ in range(terms):
        chan = int(rng.integers(n_chan))
        freqs = [0] * 6
        for a in model.active:
            cap = model.headroom(a)
            freqs[a] = int(rng.integers(-cap, cap + 1))
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        table.append((chan, tuple(freqs), amp))
    u = synthesize_form(model, 1, 0, table)
    peak = float(np.abs(u.coeffs).max())
    return (scale / max(peak, 1e-30)) * u


def sweep(fixture, resolution, eps, samples, seed):
    model, _, _, omega = standard_fixture(fixture, resolution, eps)
    g = Metric(omega)
    base = energy_and_volume(g, mode="dim3")
    rng = np.random.default_rng(seed)
    worst_da = 0.0
    worst_transport = 0.0
    failed = 0
    t0 = time.perf_counter()
    for _ in range(samples):
        u = random_potential(model, rng)
        try:
            _, rep = aeppli_perturb(g, u)
        except NotFeasibleError:
            failed += 1
            continue
        worst_da = max(worst_da, abs(rep.a_change) / abs(base.generalized_volume))
        worst_transport = max(worst_transport, rep.transport_residual)
    dt = time.perf_counter() - t0
    return base, worst_da, worst_transport, failed, dt


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixture", default="two_coord",
                    choices=("two_coord", "three_coord"))
    ap.add_argument("--resolutions", type=int, nargs="+", default=[8, 16, 32])
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    rows = []
    print(f"{'N':>4s} {'F':>12s} {'A':>12s} {'max|dA|/A':>12s} "
          f"{'transport':>12s} {'failed':>6s} {'secs':>8s}")
    for n in args.resolutions:
        base, da, tr, failed, dt = sweep(args.fixture, n, args.eps,
                                         args.samples, args.seed)
        print(f"{n:4d} {base.energy:12.5e} {base.generalized_volume:12.9f} "
              f"{da:12.3e} {tr:12.3e} {failed:6d} {dt:8.2f}")
        rows.append((n, base.energy, base.generalized_volume, da, tr, failed))

    if args.csv:
        path = pathlib.Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["resolution,F,A,max_rel_dA,max_transport,failed"]
        lines += [",".join(repr(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
    if any(row[-1] for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
