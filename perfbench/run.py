#!/usr/bin/env python3
"""hsgeom benchmark: the `hsgeom` CLI, run in-process on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
./src, with nothing to build.  One client issues one operation at a time
(a closed loop) through `hsgeom.cli.main([...])` in this process, and every
operation's output is checked (checks.py).  BLAS is pinned to one thread.
Ops are issued while the next one, at the median op time so far, still
ends within S seconds; there is always at least one.

--trace 0 measures the end-to-end metrics.  Times are in reference
seconds (speed.py): wall seconds scaled by a machine-speed probe that runs
alongside, so that runs on a busy shared host agree.  The table printed
before the result also gives the plain wall times.  --trace 1 runs a fixed
set of operations, each untraced and then traced (spans.py), requires the
two outputs to be byte-identical, and reports per-layer metrics per op.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Workloads (why each was chosen is in BENCHMARK.json):
  catalogue     report on catalogue:{torus3,iwasawa,heis3}, round-robin, each
                with a seeded constant perturbation
  torus_report  report on the three_coord torus fixture at N=16
  descent       descend on the two_coord torus fixture at N=16, tol 1e-6
The torus fixtures take a seeded eps per op from [0.04, 0.06], stratified
so that the ops of one run spread over the whole range.
"""

import os
import time

_T0 = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:      # before numpy is first imported
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

from speed import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5      # set-ups per run: this process and four children
P90_MIN_OPS = 100      # op_s.p90 is printed only from this many ops on
EPS_RANGE = (0.04, 0.06)

END_TO_END = {         # name -> unit, as declared in BENCHMARK.json
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Op:
    def __init__(self, argv, **params):
        self.argv = argv
        self.params = params


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def stratified_eps(rng, strata):
    """Endless seeded eps values; each `strata` in a row cover EPS_RANGE.

    Op time grows with eps and a run holds only a few long ops, so a run's
    median must not depend on where its draws happened to fall.
    """
    lo, hi = EPS_RANGE
    while True:
        for k in rng.sample(range(strata), strata):
            yield round(lo + (hi - lo) * (k + rng.random()) / strata, 6)


class _Reports:
    """Workloads whose ops are `hsgeom report --out PATH`."""

    def __init__(self, out):
        self.path = os.path.join(out, "report.json")
        self.ops = []

    def clear(self):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)

    def snapshot(self):
        return _read_bytes(self.path)


class Catalogue(_Reports):
    MODELS = ("torus3", "iwasawa", "heis3")

    def __init__(self, seed, out):
        super().__init__(out)
        self.rng = random.Random(seed)
        with open(os.path.join(HERE, "expected_dims.json")) as fh:
            self.expected = json.load(fh)

    def op(self, i):
        while len(self.ops) <= i:
            model = self.MODELS[len(self.ops) % len(self.MODELS)]
            # |re|, |im| <= 0.05 keeps every catalogue metric positive
            parts = [self.rng.uniform(-0.05, 0.05) for _ in range(6)]
            spec = "coeffs:" + ";".join(
                f"{parts[k]:.6f},{parts[k + 1]:.6f}" for k in range(0, 6, 2))
            self.ops.append(Op(["report", "--model", f"catalogue:{model}",
                                "--perturb", spec, "--out", self.path],
                               model=model))
        return self.ops[i]

    def warm_up(self):
        # one op per model fills the catalogue_model and _basis caches and
        # the per-model operator matrices
        for i in range(len(self.MODELS)):
            run_op(self, self.op(i))

    def trace_set(self):
        return list(range(len(self.MODELS)))

    def check(self, op, rc):
        from checks import check_report
        return check_report(rc, _read_json(self.path),
                            self.expected[op.params["model"]]), {}


class TorusReport(_Reports):
    STRATA = 2         # about the number of ops in a run

    def __init__(self, seed, out):
        super().__init__(out)
        self.eps = stratified_eps(random.Random(seed), self.STRATA)

    def op(self, i):
        while len(self.ops) <= i:
            eps = next(self.eps)
            self.ops.append(Op(
                ["report", "--model", "torus", "--resolution", "16",
                 "--mask", "x1,x3,x5", "--perturb", "fixture:three_coord",
                 "--eps", f"{eps:.6f}", "--out", self.path], eps=eps))
        return self.ops[i]

    def warm_up(self):
        from hsgeom.hodge import Metric
        from hsgeom.torus import standard_fixture
        Metric(standard_fixture("three_coord", 16, self.op(0).params["eps"])[3])

    def trace_set(self):
        return [0]

    def check(self, op, rc):
        from checks import check_report
        return check_report(rc, _read_json(self.path)), {}


class Descent:
    STRATA = 3

    def __init__(self, seed, out):
        self.eps = stratified_eps(random.Random(seed), self.STRATA)
        self.dir = os.path.join(out, "descent")
        self.ops = []

    def op(self, i):
        while len(self.ops) <= i:
            eps = next(self.eps)
            self.ops.append(Op(
                ["descend", "--model", "torus", "--resolution", "16",
                 "--mask", "x1,x2", "--perturb", "fixture:two_coord",
                 "--eps", f"{eps:.6f}", "--tol", "1e-6", "--out", self.dir],
                eps=eps))
        return self.ops[i]

    def warm_up(self):
        from hsgeom.hodge import Metric
        from hsgeom.torus import standard_fixture
        Metric(standard_fixture("two_coord", 16, self.op(0).params["eps"])[3])

    def trace_set(self):
        return [0]

    def clear(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def snapshot(self):
        if not os.path.isdir(self.dir):
            return None
        return {f: _read_bytes(os.path.join(self.dir, f))
                for f in sorted(os.listdir(self.dir))}

    def check(self, op, rc):
        from checks import check_descent
        summary = _read_json(os.path.join(self.dir, "summary.json"))
        trace = _read_json(os.path.join(self.dir, "descent_trace.json"))
        counts = {}
        if trace is not None:
            rows = trace.get("iterates", [])
            counts = {"iterates": len(rows) - 1,
                      "armijo_trials": sum(r.get("armijo_trials") or 0
                                           for r in rows)}
        return check_descent(rc, summary, trace), counts


WORKLOADS = {"catalogue": Catalogue, "torus_report": TorusReport,
             "descent": Descent}


def run_op(wl, op, clock=None):
    """Run one op through the CLI: (exit code, wall s, reference s).

    The times are None without a clock.  A crash inside the program is an
    op failure, reported as exit code None with the traceback on stderr,
    not the end of the run.
    """
    from hsgeom import cli
    wl.clear()
    sink = io.StringIO()
    mark = clock.mark() if clock else None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(op.argv))
    except Exception:
        rc = None
        traceback.print_exc()
    return (rc, *clock.since(mark)) if clock else (rc, None, None)


def setup(name, seed, out):
    """Import hsgeom, make the inputs and warm process-wide caches."""
    if not os.path.isfile(os.path.join(SRC, "hsgeom", "__init__.py")):
        sys.exit(f"no hsgeom sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import hsgeom
    if os.path.dirname(os.path.dirname(os.path.abspath(hsgeom.__file__))) \
            != SRC:
        sys.exit(f"hsgeom was imported from {hsgeom.__file__}, not {SRC}")
    os.makedirs(out, exist_ok=True)
    wl = WORKLOADS[name](seed, out)
    wl.warm_up()
    return wl


def child_setup(name, seed):
    """(wall s, reference s) of the set-up of a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def environment():
    import numpy as np
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    threads = ", ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas, "blas_threads": threads}


# ---------------------------------------------------------------------------
# the two kinds of run


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(wl, seconds, clock, setups):
    walls, refs, passed, failures = [], [], 0, []
    start = clock.mark()
    while True:
        op = wl.op(len(walls))
        rc, wall, ref = run_op(wl, op, clock)
        problems, _ = wl.check(op, rc)
        walls.append(wall)
        refs.append(ref)
        if problems:
            failures.append((len(walls) - 1, op.params, problems))
        else:
            passed += 1
        if clock.since(start)[0] + statistics.median(walls) > seconds:
            break
    run_wall, run_ref = clock.since(start)
    attempted = len(walls)
    metrics = {
        "ops_per_s": passed / run_ref,
        "op_s.p50": statistics.median(refs),
        "ops_ok_ratio": passed / attempted,
        "setup_s": statistics.median(s[1] for s in setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rows = [(k, metrics[k], END_TO_END[k]) for k in END_TO_END]
    rows[3:3] = [("ops_failed_ratio", 1 - passed / attempted, "ratio")]
    rows += [("wall_ops_per_s", passed / run_wall, "1/s"),
             ("wall_op_s.p50", statistics.median(walls), "s"),
             ("wall_setup_s", statistics.median(s[0] for s in setups), "s")]
    if attempted >= P90_MIN_OPS:
        rows.insert(2, ("op_s.p90", _p90(refs), "s"))
        rows.insert(-1, ("wall_op_s.p90", _p90(walls), "s"))
    print(f"ops attempted {attempted}, passed {passed}; timed "
          f"{run_wall:.3f} wall s = {run_ref:.3f} reference s; set-ups "
          "(wall s, reference s) "
          + ", ".join(f"({w:.4f}, {r:.4f})" for w, r in setups))
    for name, value, unit in rows:
        print(f"  {name:<18} {value:>14.6g} {unit}")
    return attempted, failures, {k: {"value": v, "unit": END_TO_END[k]}
                                 for k, v in metrics.items()}


def traced_run(wl, seconds, clock):
    from spans import Tracer, per_layer_metrics
    tracer = Tracer()
    refs = {"untraced": 0.0, "traced": 0.0}
    traced_wall = 0.0
    descent_counts = {}
    failures, n_traced = [], 0
    start = clock.mark()
    while True:
        round_start = clock.mark()
        for i in wl.trace_set():
            op = wl.op(i)
            rc, _, ref = run_op(wl, op, clock)
            refs["untraced"] += ref
            problems, _ = wl.check(op, rc)
            plain = wl.snapshot()
            with tracer:
                rc, wall, ref = run_op(wl, op, clock)
            refs["traced"] += ref
            traced_wall += wall
            traced_problems, counts = wl.check(op, rc)
            problems += traced_problems
            if wl.snapshot() != plain:
                problems.append("traced output differs from untraced output")
            for k, v in counts.items():
                descent_counts[k] = descent_counts.get(k, 0) + v
            n_traced += 1
            if problems:
                failures.append((i, op.params, problems))
        # whole rounds only, so that per-op counts repeat exactly
        if clock.since(start)[0] + clock.since(round_start)[0] > seconds:
            break
    overhead = refs["traced"] / refs["untraced"] - 1
    metrics, table = per_layer_metrics(tracer, n_traced, traced_wall / n_traced,
                                       overhead, descent_counts)
    print(f"traced ops {n_traced}; reference s per op untraced "
          f"{refs['untraced'] / n_traced:.4f}, traced "
          f"{refs['traced'] / n_traced:.4f}; self times and shares are of "
          "traced wall time")
    print(f"  {'span':<40} {'calls/op':>12} {'self s/op':>12} {'share':>8}")
    for name, calls, self_s, share in table:
        print(f"  {name:<40} {calls:>12.6g} {self_s:>12.6g} {share:>7.2%}")
    return n_traced, failures, metrics


def main(argv=None):
    clock = SpeedClock()
    clock.start()
    process_start = clock.mark(_T0)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    out = os.path.join(OUT, str(os.getpid()))
    try:
        wl = setup(args.workload, args.seed, out)
        own_setup = clock.since(process_start)
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        env = environment()
        print(f"workload {args.workload}, seed {args.seed}, seconds "
              f"{args.seconds:g}, trace {args.trace}; one client, closed "
              f"loop; nproc {env['nproc']}; {env['blas_threads']}; python "
              f"{env['python']}; numpy {env['numpy']}; {env['blas']}")
        if args.trace:
            attempted, failures, metrics = traced_run(wl, args.seconds, clock)
        else:
            setups = [own_setup] + [child_setup(args.workload, args.seed)
                                    for _ in range(SETUP_REPEATS - 1)]
            attempted, failures, metrics = timed_run(wl, args.seconds, clock,
                                                     setups)
        if hasattr(wl, "eps"):
            print("eps per op: " + ", ".join(
                f"{op.params['eps']:.6f}" for op in wl.ops))
    finally:
        clock.stop()
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT)
    for i, params, problems in failures:
        print(f"FAILED op {i} {params}: {'; '.join(problems)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
