"""Per-layer spans for a traced benchmark run, recorded from outside hsgeom.

`Tracer.install()` replaces the traced public functions and methods of the
hsgeom modules with wrappers; `Tracer.uninstall()` puts the originals back.
A module-level function is replaced in every hsgeom module that holds it
under some name (``analysis`` imports ``inner`` from ``hodge``, for
example), so calls through a by-name import are traced too.  Methods are
replaced on their class.

Each span adds to its name's call count and self time.  Self time is the
span's duration minus the durations of the spans it directly encloses,
kept on a stack, so recursion (``harmonic_basis`` -> ``laplacian('tilde')``
-> ``harmonic_project`` -> ``harmonic_basis``) is not counted twice.  The
program is single-threaded and has no queues, so there are no wait times.
Spans are aggregated per name in memory rather than stored one by one: a
descent op opens several hundred thousand of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, kind, span name); kinds are the wrapper factories below
SPANS = (
    ("hodge", "Metric.__init__", "metric", "hodge.Metric"),
    ("hodge", "Metric.pairing", "cache:_pairing_cache", None),
    ("hodge", "Metric.star_matrix", "cache:_star_cache", None),
    ("hodge", "laplacian", "plain", None),
    ("hodge", "harmonic_basis", "cache:_kernel_cache", None),
    ("hodge", "green_solve", "green", None),
    ("hodge", "inner", "plain", None),
    ("torus", "TorusModel.apply_differential", "bytes", None),
    ("lie", "LieModel.apply_differential", "plain", None),
    ("lie", "hs_feasibility", "plain", None),
    ("analysis", "torsion_form", "plain", None),
    ("analysis", "energy_and_volume", "plain", None),
    ("analysis", "classify_metric", "plain", None),
    ("analysis", "sg_and_completion", "plain", None),
    ("analysis", "ma_constants", "plain", None),
    ("analysis", "lefschetz_alpha", "plain", None),
    ("cohomology", "classical_groups", "plain", None),
    ("cohomology", "spectral_page", "plain", None),
    ("cohomology", "higher_page_groups", "plain", None),
    ("cohomology", "e2_torsion_class", "plain", None),
    ("cohomology", "e2_intersection", "plain", None),
    ("descent", "descend", "plain", None),
    ("descent", "gradient_direction", "plain", None),
    ("descent", "certify_critical", "plain", None),
    ("forms", "wedge", "plain", None),
    ("cli", "main", "plain", "cli"),
)


def span_names():
    return [name or f"{mod}.{attr}" for mod, attr, _, name in SPANS]


class Tracer:
    """Call counts, self times and layer counters of the wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()      # extra counters, keyed "span.counter"
        self._stack = []             # child time accumulated per open span
        self._depth = Counter()      # open spans per name
        self._patches = []           # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        self._depth[name] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._depth[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += dur - stack.pop()
            if stack:
                stack[-1] += dur

    def _wrapper(self, kind, name, fn):
        span = self._span
        counts = self.counts

        if kind == "plain":
            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)

        elif kind == "metric":
            from hsgeom.hodge import NotPositiveError

            def wrapper(*args, **kwargs):
                try:
                    return span(name, fn, args, kwargs)
                except NotPositiveError:
                    counts[f"{name}.rejected"] += 1
                    raise

        elif kind.startswith("cache:"):
            # a miss is an entry added to the metric's cache dict; entries
            # added by a nested call of the same function count once, at the
            # outermost call
            attr = kind.split(":", 1)[1]

            def wrapper(*args, **kwargs):
                cache = getattr(args[0], attr)
                before = len(cache)
                outermost = self._depth[name] == 0
                try:
                    return span(name, fn, args, kwargs)
                finally:
                    if outermost:
                        counts[f"{name}.misses"] += len(cache) - before

        elif kind == "green":
            # ask for the GreenInfo and hand the caller what it asked for
            def wrapper(*args, with_info=False, **kwargs):
                out, info = span(name, fn, args, {**kwargs, "with_info": True})
                counts[f"{name}.iters"] += info.iterations
                return (out, info) if with_info else out

        elif kind == "bytes":
            # computed, not measured: input plus output array bytes
            def wrapper(self_, part, p, q, coeffs):
                out = span(name, fn, (self_, part, p, q, coeffs), {})
                counts[f"{name}.bytes"] += coeffs.nbytes + out.nbytes
                return out

        else:
            raise ValueError(f"unknown span kind {kind!r}")
        return functools.wraps(fn)(wrapper)

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"hsgeom.{m}")
                for m in {s[0] for s in SPANS}}
        loaded = [m for k, m in sys.modules.items()
                  if k == "hsgeom" or k.startswith("hsgeom.")]
        for (mod, attr, kind, _), name in zip(SPANS, span_names()):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrapper(kind, name, orig))
                continue
            orig = getattr(mods[mod], attr)
            wrapped = self._wrapper(kind, name, orig)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics, per traced op


# counters other than calls and self time: (metric, unit, better)
COUNTERS = (
    ("hodge.Metric.rejected", "count/op", "lower"),
    ("hodge.Metric.pairing.misses", "count/op", "lower"),
    ("hodge.Metric.star_matrix.misses", "count/op", "lower"),
    ("hodge.harmonic_basis.misses", "count/op", "lower"),
    ("hodge.green_solve.iters", "count/op", "lower"),
    ("torus.TorusModel.apply_differential.bytes", "B_computed/op", "lower"),
)
# read from each descent op's own trace output
DESCENT_COUNTS = ("descent.iterates", "descent.armijo_trials")


def per_layer_declarations():
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count/op", "lower"),
                (f"{name}.self_s", "s/op", "lower")]
    out += list(COUNTERS)
    out += [("hodge.Metric.pairing.hit_ratio", "ratio", "higher")]
    out += [(k, "count/op", "lower") for k in DESCENT_COUNTS]
    out += [("descent.armijo_accept_ratio", "ratio", "higher"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


def per_layer_metrics(tracer, n_ops, op_wall, overhead, descent_counts):
    """Per-op metrics and a (span, calls, self_s, share of op wall) table.

    `op_wall` is the mean wall seconds of a traced op, `overhead` the
    traced over the untraced op time, less one, and `descent_counts` the
    summed iterates and Armijo trials of the traced ops.
    """
    values = {}
    for name in span_names():
        values[f"{name}.calls"] = tracer.calls[name] / n_ops
        values[f"{name}.self_s"] = tracer.self_s[name] / n_ops
    for key, _, _ in COUNTERS:
        values[key] = tracer.counts[key] / n_ops
    calls = tracer.calls["hodge.Metric.pairing"]
    misses = tracer.counts["hodge.Metric.pairing.misses"]
    values["hodge.Metric.pairing.hit_ratio"] = \
        (calls - misses) / calls if calls else 0.0
    iterates = descent_counts.get("iterates", 0)
    trials = descent_counts.get("armijo_trials", 0)
    values["descent.iterates"] = iterates / n_ops
    values["descent.armijo_trials"] = trials / n_ops
    values["descent.armijo_accept_ratio"] = iterates / trials if trials else 0.0
    values["trace.overhead_ratio"] = overhead

    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit, _ in per_layer_declarations()}
    table = sorted(((name, tracer.calls[name] / n_ops,
                     tracer.self_s[name] / n_ops,
                     tracer.self_s[name] / n_ops / op_wall)
                    for name in span_names()), key=lambda row: -row[2])
    return metrics, table
