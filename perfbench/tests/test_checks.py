"""Tests of the benchmark's own parts: checker, tracer, declarations.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

REPORT = {
    "errors": [],
    "torsion": {"feasible": True, "residuals": {"dv_mass_vs_A": 1e-15}},
    "completion": {"identities": {k: 1e-14
                                  for k in checks.COMPLETION_RESIDUALS}},
    "e2_intersection": {"residual": 1e-15},
}


def test_report_check_passes_a_clean_report():
    assert checks.check_report(0, REPORT) == []


def test_report_errors_count_as_failed():
    doc = copy.deepcopy(REPORT)
    doc["errors"] = [{"section": "torsion", "type": "SolveDiverged",
                      "message": "cg hit the iteration cap"}]
    problems = checks.check_report(0, doc)
    assert problems and "errors" in problems[0]


def test_perturbed_dv_mass_counts_as_failed():
    doc = copy.deepcopy(REPORT)
    doc["torsion"]["residuals"]["dv_mass_vs_A"] = 1e-6
    assert checks.check_report(0, doc) == ["torsion dv_mass_vs_A 1e-06"]


def test_malformed_report_counts_as_failed():
    doc = copy.deepcopy(REPORT)
    del doc["completion"]
    assert checks.check_report(0, doc)[0].startswith("malformed output")
    assert checks.check_report(1, None) == ["no report written (exit 1)"]


def test_descent_check_requires_monotone_energy():
    rows = [{"F": 1e-3, "gen_vol": 1.0}, {"F": 2e-3, "gen_vol": 1.0},
            {"F": 1e-12, "gen_vol": 1.0}]
    summary = {"termination": "converged",
               "certificate": {"balanced_defect": 1e-7,
                               "kahler_defect": 1e-7},
               "final": {"F": 1e-12, "vol": 1.0}}
    assert checks.check_descent(0, summary, {"iterates": rows}) == \
        ["F increased along the descent"]


def test_declarations_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == spans.per_layer_declarations()
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(run.WORKLOADS)


def test_tracing_leaves_the_report_byte_identical(tmp_path):
    import hsgeom.cli
    import hsgeom.hodge
    out = tmp_path / "report.json"
    argv = ["report", "--model", "catalogue:heis3", "--perturb",
            "coeffs:0.01,0.02;-0.03,0.0;0.04,-0.01", "--out", str(out)]
    assert hsgeom.cli.main(argv) == 0
    plain = out.read_bytes()
    originals = (hsgeom.cli.main, hsgeom.hodge.inner,
                 hsgeom.hodge.Metric.__dict__["pairing"])
    tracer = spans.Tracer()
    with tracer:
        assert hsgeom.cli.main(argv) == 0
    assert out.read_bytes() == plain
    assert (hsgeom.cli.main, hsgeom.hodge.inner,
            hsgeom.hodge.Metric.__dict__["pairing"]) == originals
    assert tracer.calls["cli"] == 1
    # inner is imported by name into analysis and cohomology as well
    assert tracer.calls["hodge.inner"] > 0
    assert 0 < tracer.counts["hodge.Metric.pairing.misses"] \
        < tracer.calls["hodge.Metric.pairing"]


def test_stratified_eps_covers_the_range_in_every_block():
    import random
    gen = run.stratified_eps(random.Random(3), 3)
    lo, hi = run.EPS_RANGE
    for _ in range(4):
        block = sorted(next(gen) for _ in range(3))
        strata = [int((e - lo) / (hi - lo) * 3) for e in block]
        assert strata == [0, 1, 2]
