"""Command-line front end: exit codes, document schemas, output files."""

import json
import os
import subprocess
import sys

import pytest

PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hsgeom", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or PKG,
    )
    return proc


def run_json(*argv):
    proc = run_cli(*argv)
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc


# -- validate -----------------------------------------------------------------


def test_validate_catalogue():
    code, doc = run_json("validate", "--model", "catalogue:torus3")
    assert code == 0
    assert doc["ok"] is True
    assert doc["model"]["backend"] == "lie"


def test_validate_torus_grid():
    code, doc = run_json(
        "validate", "--model", "torus", "--resolution", "16", "--mask", "x1,x2"
    )
    assert code == 0
    assert doc["model"]["resolutions"][0] == 16


def test_validate_bad_mask():
    code, doc = run_json("validate", "--model", "torus", "--mask", "t,x")
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "GridError"


def test_validate_bad_model_file(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("name bad\ndim 3\nd phi3 = 1 * phibar1^phibar2\n")
    code, doc = run_json("validate", "--model", str(bad))
    assert code == 2
    assert doc["error"]["type"] == "IntegrabilityError"


def test_validate_missing_file():
    code, doc = run_json("validate", "--model", "no/such/file.model")
    assert code == 2


# -- report -------------------------------------------------------------------


def test_report_torus3():
    code, doc = run_json("report", "--model", "catalogue:torus3")
    assert code == 0
    assert doc["classification"]["kahler"] is True
    assert doc["torsion"]["feasible"] is True
    assert abs(doc["torsion"]["F"]) < 1e-12
    assert abs(doc["torsion"]["A"] - 1.0) < 1e-12
    assert doc["completion"]["identities"]["completion_vs_A"] < 1e-9
    assert doc["cohomology"]["classical"]["de_rham"] == [1, 6, 15, 20, 15, 6, 1]
    assert doc["cohomology"]["page_1_ddbar"] is True
    assert doc["e2_torsion_class"]["vanishing"] is True
    assert abs(doc["e2_intersection"]["integral"] - 6.0) < 1e-9
    assert doc["errors"] == []


def test_report_iwasawa_honest_negative():
    code, doc = run_json("report", "--model", "catalogue:iwasawa")
    assert code == 0  # infeasibility is a result, not a failure
    assert doc["torsion"]["feasible"] is False
    assert doc["torsion"]["certificate"]["feasible"] is False
    assert "completion" not in doc
    assert doc["e2_torsion_class"]["feasible"] is False
    assert doc["e2_intersection"]["hypothesis_failed"] == "hermitian-symplectic metric"
    assert doc["cohomology"]["classical"]["de_rham"] == [1, 4, 8, 10, 8, 4, 1]


def test_report_builds_each_metric_once(tmp_path, monkeypatch):
    # a model loaded from a file shares no memo with other tests
    from importlib import resources

    from hsgeom import cli, hodge

    model = tmp_path / "iwasawa.model"
    model.write_text(resources.files("hsgeom.catalogue")
                     .joinpath("iwasawa.model").read_text())
    built = []
    init = hodge.Metric.__init__
    monkeypatch.setattr(hodge.Metric, "__init__",
                        lambda self, *a, **k: built.append(self)
                        or init(self, *a, **k))
    out = tmp_path / "report.json"
    assert cli.main(["report", "--model", str(model), "--out", str(out)]) == 0
    # the metric and the flat reference metric of the cohomology complex
    assert len(built) == 2


def test_report_heis3_page_blocked():
    code, doc = run_json("report", "--model", "catalogue:heis3")
    assert code == 0
    assert doc["cohomology"]["page_1_ddbar"] is False
    assert "page-1" in doc["e2_intersection"]["hypothesis_failed"]


def test_report_perturbed_fixture():
    code, doc = run_json(
        "report",
        "--model", "torus", "--resolution", "16", "--mask", "x1,x2",
        "--perturb", "fixture:two_coord", "--eps", "0.05",
    )
    assert code == 0
    assert abs(doc["torsion"]["F"] - 0.0025) < 1e-9
    assert abs(doc["torsion"]["A"] - 1.0) < 1e-9
    assert abs(doc["torsion"]["G"] - 0.0012531328320802006) < 1e-12
    assert doc["classification"]["skt"] is True
    assert doc["classification"]["gauduchon"] is True
    assert doc["classification"]["kahler"] is False
    assert "cohomology" not in doc  # grid backend carries no tables


def test_report_not_positive_eps():
    code, doc = run_json(
        "report",
        "--model", "torus", "--resolution", "16", "--mask", "x1,x2",
        "--perturb", "fixture:two_coord", "--eps", "2.5",
    )
    assert code == 2
    assert doc["error"]["type"] == "NotPositiveError"


def test_report_csv_format():
    proc = run_cli("report", "--model", "catalogue:torus3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "key,value"
    keys = {ln.split(",", 1)[0] for ln in lines[1:]}
    assert "torsion.F" in keys
    assert "classification.kahler" in keys


def test_report_coeff_perturbation():
    # constant-coefficient potential: a closed direction, torsion unchanged
    code, doc = run_json(
        "report",
        "--model", "torus", "--resolution", "8", "--mask", "x1",
        "--perturb", "coeffs:0.01,0;0,0;0,0",
    )
    assert code == 0
    assert abs(doc["torsion"]["F"]) < 1e-12


# -- descend --------------------------------------------------------------------


DESCEND_ARGS = (
    "descend",
    "--model", "torus", "--resolution", "16", "--mask", "x1,x2",
    "--perturb", "fixture:two_coord", "--eps", "0.05",
    "--tol", "1e-3", "--max-iters", "80",
)


def test_descend_writes_outputs(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(*DESCEND_ARGS, "--out", str(out))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["termination"] == "converged"
    assert summary["certificate"]["critical"] is True
    for name in (
        "descent_trace.csv",
        "descent_trace.json",
        "final_metric.json",
        "final_metric.npy",
        "certificate.json",
        "summary.json",
    ):
        assert (out / name).exists(), name
    trace = json.loads((out / "descent_trace.json").read_text())
    assert trace["schema"] == 1
    f_col = [row["F"] for row in trace["iterates"]]
    assert f_col[-1] < f_col[0]
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["final"] == summary["final"]


def test_descend_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = run_cli(*DESCEND_ARGS, "--out", str(out))
        assert proc.returncode == 0
        outs.append(out)
    csv_a = (outs[0] / "descent_trace.csv").read_bytes()
    csv_b = (outs[1] / "descent_trace.csv").read_bytes()
    assert csv_a == csv_b
    npy_a = (outs[0] / "final_metric.npy").read_bytes()
    npy_b = (outs[1] / "final_metric.npy").read_bytes()
    assert npy_a == npy_b


def test_descend_requires_out():
    proc = run_cli(*DESCEND_ARGS)
    assert proc.returncode == 2
    assert "requires --out" in proc.stderr


def test_descend_zero_iters(tmp_path):
    out = tmp_path / "zero"
    proc = run_cli(*DESCEND_ARGS[:-2], "--max-iters", "0", "--out", str(out))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["iterations"] == 0
    assert summary["termination"] == "max_iters"


def test_descend_then_report_round_trip(tmp_path):
    """The exported final metric feeds back through --metric."""
    out = tmp_path / "run"
    proc = run_cli(*DESCEND_ARGS, "--out", str(out))
    assert proc.returncode == 0
    code, doc = run_json(
        "report",
        "--model", "torus", "--resolution", "16", "--mask", "x1,x2",
        "--metric", str(out / "final_metric"),
    )
    assert code == 0
    # descent drove the energy well below the starting 2.5e-3
    assert doc["torsion"]["F"] < 1e-5
    assert abs(doc["torsion"]["A"] - 1.0) < 1e-6
