"""Command-line front end: exit codes, document schemas, output files."""

import json
import math
import os
import shutil
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


def test_validate_masked_resolution_one_is_input_error():
    # a resolution of 1 on an active coordinate would compute on one point
    code, doc = run_json("validate", "--model", "torus", "--resolution", "1",
                         "--mask", "x1,x2")
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "GridError"


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("command", ["validate", "report", "descend"])
def test_other_dimension_is_input_error(tmp_path, command, dim):
    model = tmp_path / "flat.model"
    model.write_text(f"name flat\ndim {dim}\n")
    extra = ["--out", str(tmp_path / "run")] if command == "descend" else []
    code, doc = run_json(command, "--model", str(model), *extra)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "ModelFormatError"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["validate", "report", "descend"])
def test_non_unimodular_is_input_error(tmp_path, command):
    # d^2 = 0 holds, but d phi1^phi2^phibar1^phibar2^phibar3 != 0
    model = tmp_path / "nonuni.model"
    model.write_text("name nonuni\ndim 3\nd phi2 = 1 * phi1^phi2\n")
    extra = ["--out", str(tmp_path / "run")] if command == "descend" else []
    code, doc = run_json(command, "--model", str(model), *extra)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "UnimodularityError"
    assert not (tmp_path / "run").exists()


def test_validate_bad_model_file(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("name bad\ndim 3\nd phi3 = 1 * phibar1^phibar2\n")
    code, doc = run_json("validate", "--model", str(bad))
    assert code == 2
    assert doc["error"]["type"] == "IntegrabilityError"


def test_validate_missing_file():
    code, doc = run_json("validate", "--model", "no/such/file.model")
    assert code == 2


@pytest.mark.parametrize("where, error", [
    ("missing/dir/x.json", "FileNotFoundError"),
    (".", "IsADirectoryError"),
])
def test_validate_unusable_out_is_input_error(tmp_path, where, error):
    proc = run_cli("validate", "--model", "catalogue:torus3",
                   "--out", str(tmp_path / where))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["error"]["type"] == error
    assert "Traceback" not in proc.stderr


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
    t = doc["torsion"]
    assert t["feasible"] is False and t["certificate"] is None, t
    # the one verdict of both backends: the dbar preimage of del omega
    assert set(t["residuals"]) == {"del_rho", "dbar_rho_plus_del_omega"}
    assert t["residuals"]["dbar_rho_plus_del_omega"] >= 0.5, t
    assert "torsion constraints violated" in t["message"]
    assert doc["classification"]["hs_feasible"] is False
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
    # the metric; the cohomology complex scales by its flat reference Gram,
    # 2^(p+q) I, and builds no Metric
    assert len(built) == 1


def test_report_with_tol_builds_one_torsion_report(tmp_path, monkeypatch):
    # every section, the Monge-Ampere constants included, reads the torsion
    # report at the report's --tol
    from hsgeom import analysis, cli

    built = []
    build = analysis._torsion_form
    monkeypatch.setattr(analysis, "_torsion_form",
                        lambda metric, mode, tol: built.append(tol)
                        or build(metric, mode, tol))
    out = tmp_path / "report.json"
    assert cli.main(["report", "--model", "torus", "--resolution", "8",
                     "--mask", "x1,x2", "--perturb", "fixture:two_coord",
                     "--tol", "1e-6", "--out", str(out)]) == 0
    assert built == [1e-6]
    assert "ma_constants" in json.loads(out.read_text())["completion"]


def test_report_tol_reaches_the_e2_sections(tmp_path, monkeypatch):
    # a scaled Iwasawa structure, HS at --tol 1e-3 (||dbar rho + del omega||
    # is 1.4e-6): the E_2 class, its perturbation recheck and the
    # intersection number read the torsion at --tol, as the other sections do
    from hsgeom import analysis, cli

    tols = []
    build = analysis._torsion_form
    monkeypatch.setattr(analysis, "_torsion_form",
                        lambda metric, mode, tol: tols.append(tol)
                        or build(metric, mode, tol))
    model = tmp_path / "small.model"
    model.write_text("name small\ndim 3\nd phi3 = 1e-6 * phi1^phi2\n")
    out = tmp_path / "report.json"
    assert cli.main(["report", "--model", str(model), "--tol", "1e-3",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(tols) == {1e-3}
    assert doc["torsion"]["feasible"] and doc["classification"]["hs_feasible"]
    cls = doc["e2_torsion_class"]
    assert cls["feasible"] and cls["vanishing"], cls
    assert cls["perturbed_coordinate_drift"] is not None
    inter = doc["e2_intersection"]
    assert "hypothesis_failed" not in inter, inter
    assert abs(inter["integral"] - 6.0 * doc["torsion"]["A"]) <= 1e-9


@pytest.mark.parametrize("model", [
    ["catalogue:torus3"],
    ["torus", "--resolution", "8", "--mask", "x1,x2",
     "--perturb", "fixture:two_coord"]], ids=["lie", "grid"])
def test_skt_report_extracts_the_torsion_once_per_metric(
        tmp_path, monkeypatch, model):
    # classify_metric asks for the dim3 report and the torsion section for
    # the skt one; both read the one memoised extraction of the metric.  On
    # a pluriclosed metric skt is dim3 behind its gate: its minimality reads
    # the dbar (2,0) kernel, so a report builds only dbar kernels (and on
    # the invariant backend the tilde (0,2) one of the E_2 pairings), and
    # it equals the dim3 report but for the mode and the output path
    from hsgeom import analysis, cli, hodge

    cores, reports, built = [], [], []
    core, form = analysis._torsion_core, analysis._torsion_form
    monkeypatch.setattr(analysis, "_torsion_core",
                        lambda metric: cores.append(metric) or core(metric))
    monkeypatch.setattr(analysis, "_torsion_form",
                        lambda metric, mode, tol: reports.append((metric, mode))
                        or form(metric, mode, tol))
    init = hodge.Metric.__init__
    monkeypatch.setattr(hodge.Metric, "__init__",
                        lambda self, *a, **k: built.append(self)
                        or init(self, *a, **k))

    def report(mode):
        out = tmp_path / f"{mode}.json"
        assert cli.main(["report", "--model", *model, "--mode", mode,
                         "--out", str(out)]) == 0
        return json.loads(out.read_text())

    doc = report("skt")
    assert doc["torsion"]["mode"] == "skt"
    metrics = {id(metric) for metric, _ in reports}
    assert {(id(cores[0]), "dim3"), (id(cores[0]), "skt")} <= {
        (id(metric), mode) for metric, mode in reports}
    assert len(cores) == len({id(metric) for metric in cores}) == len(metrics)
    keys = [(metric.model.kind, key) for metric in built
            for key in metric._kernel_cache]
    assert ("lie" if model == ["catalogue:torus3"] else "torus",
            ("dbar", 2, 0)) in keys
    assert all(key[0] == "dbar" or (kind, key) == ("lie", ("tilde", 0, 2))
               for kind, key in keys), keys
    want = report("dim3")
    for section, key in (("config", "mode"), ("torsion", "mode"),
                         ("config", "out")):
        assert doc[section].pop(key) != want[section].pop(key)
    assert doc == want


def test_report_unusable_out_fails_before_any_work(tmp_path, monkeypatch,
                                                   capsys):
    from hsgeom import cli

    bodies = []
    monkeypatch.setattr(cli, "_report_body",
                        lambda *a: bodies.append(a) or ({}, False))
    code = cli.main(["report", "--model", "catalogue:torus3",
                     "--out", str(tmp_path / "missing" / "dir" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert bodies == []
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "FileNotFoundError"
    assert "Traceback" not in captured.err


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
    # a tuple is flattened as a list is, one row per entry
    routes = "torsion.diagnostics.g_routes"
    assert {f"{routes}.{i}" for i in range(3)} <= keys and routes not in keys


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


@pytest.mark.parametrize("error", ["NotFeasibleError", "SolveDiverged"])
def test_descend_torsion_failure_writes_partial_trace(tmp_path, monkeypatch,
                                                      capsys, error):
    from hsgeom import analysis, cli, hodge

    exc = {"NotFeasibleError": analysis.NotFeasibleError("infeasible"),
           "SolveDiverged": hodge.SolveDiverged("stalled")}[error]
    solve = analysis.torsion_form
    calls = []

    def fail_second(metric, *args, **kwargs):
        calls.append(metric)
        if len(calls) == 2:
            raise exc
        return solve(metric, *args, **kwargs)

    monkeypatch.setattr(analysis, "torsion_form", fail_second)
    out = tmp_path / "run"
    assert cli.main(["descend", "--model", "torus", "--resolution", "8",
                     "--mask", "x1,x2", "--perturb", "fixture:two_coord",
                     "--eps", "0.05", "--tol", "1e-6", "--out", str(out)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["termination"] == error
    assert summary["error"] == {"type": error, "message": str(exc)}
    assert json.loads((out / "summary.json").read_text()) == summary
    trace = json.loads((out / "descent_trace.json").read_text())
    assert trace["termination"] == error
    assert [row["k"] for row in trace["iterates"]] == [0]
    assert len((out / "descent_trace.csv").read_text().splitlines()) == 2
    assert not (out / "final_metric.npy").exists()


def test_descend_requires_out():
    proc = run_cli(*DESCEND_ARGS)
    assert proc.returncode == 2
    assert "requires --out" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "_InputError"
    assert "requires --out" in doc["error"]["message"]
    assert doc["config"]["command"] == "descend"


@pytest.mark.parametrize("command", ["report", "descend"])
def test_hs_min_mode_is_rejected(tmp_path, command):
    # the modes are the gates: dim3 (none) and skt (pluriclosed)
    out = tmp_path / "run"
    proc = run_cli(command, "--model", "catalogue:torus3", "--mode", "hs_min",
                   "--out", str(out))
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr and "hs_min" in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "_InputError" and "hs_min" in error["message"]
    assert not out.exists()


def test_descend_out_below_a_file_is_input_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_cli(*DESCEND_ARGS, "--out", str(blocker / "run"))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "NotADirectoryError"
    assert "Traceback" not in proc.stderr


def test_descend_zero_iters(tmp_path):
    out = tmp_path / "zero"
    proc = run_cli(*DESCEND_ARGS[:-2], "--max-iters", "0", "--out", str(out))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["iterations"] == 0
    assert summary["termination"] == "max_iters"


def test_outputs_take_the_umask_mode(tmp_path, capsys):
    """Every output file has the mode a plain open gives, 0o666 less the
    umask: 0o644 under umask 0o022, not the 0o600 of a bare mkstemp."""
    from hsgeom import cli

    report = tmp_path / "report.json"
    run = tmp_path / "run"
    old = os.umask(0o022)
    try:
        assert cli.main(["report", "--model", "catalogue:torus3",
                         "--out", str(report)]) == 0
        assert cli.main(["descend", "--model", "torus", "--resolution", "8",
                         "--mask", "x1,x2", "--perturb", "fixture:two_coord",
                         "--max-iters", "0", "--out", str(run)]) == 0
    finally:
        os.umask(old)
    files = [report] + sorted(run.iterdir())
    assert len(files) == 7
    for path in files:
        assert path.stat().st_mode & 0o777 == 0o644, path


@pytest.mark.parametrize("argv", [
    ["report", "--model", "catalogue:torus3", "--tol", "-1"],
    ["report", "--model", "catalogue:torus3", "--tol", "nan"],
    ["report", "--model", "catalogue:torus3", "--tol", "0"],
    ["report", "--model", "catalogue:torus3", "--tol", "inf"],
    [*DESCEND_ARGS[:-4], "--tol", "nan", "--out", "unused"],
    [*DESCEND_ARGS[:-4], "--tol", "-1", "--out", "unused"],
    [*DESCEND_ARGS[:-4], "--tol", "0", "--out", "unused"],
    [*DESCEND_ARGS[:-2], "--max-iters", "-1", "--out", "unused"],
], ids=["report-tol-neg", "report-tol-nan", "report-tol-zero",
        "report-tol-inf", "descend-tol-nan", "descend-tol-neg",
        "descend-tol-zero", "descend-max-iters-neg"])
def test_unmeetable_tol_or_negative_max_iters_is_rejected(argv, monkeypatch,
                                                          capsys):
    # argparse rejects it before any command runs, and main writes the error
    # document of exit 2; the library's DescentOptions(tol=0.0) stays valid,
    # and --max-iters 0 is a run
    from hsgeom import cli

    ran = []
    for name in ("cmd_report", "cmd_descend"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args) or 0)
    assert cli.main(argv) == 2
    assert ran == []
    flag = "--max-iters" if "--max-iters" in argv else "--tol"
    captured = capsys.readouterr()
    assert f"argument {flag}: must be" in captured.err
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "_InputError"
    assert doc["error"]["message"].startswith(f"argument {flag}: must be")
    # only the command name was parsed before the rejected value
    assert doc["config"]["command"] == argv[0]
    assert {v for k, v in doc["config"].items() if k != "command"} == {None}


@pytest.mark.parametrize("argv, value", [
    (["--model", "torus", "--resolution", "8", "--mask", "x1,x2",
      "--perturb", "fixture:two_coord", "--eps", "nan"], "nan"),
    (["--model", "torus", "--resolution", "8", "--mask", "x1,x2",
      "--perturb", "fixture:two_coord", "--eps", "inf"], "inf"),
    (["--model", "catalogue:heis3", "--perturb", "coeffs:nan,0;0,0;0,0"],
     "'nan,0'"),
    (["--model", "catalogue:heis3", "--perturb", "coeffs:0,0;0,inf;0,0"],
     "'0,inf'"),
], ids=["eps-nan", "eps-inf", "coeffs-nan", "coeffs-inf"])
def test_non_finite_perturbation_is_an_input_error(argv, value, monkeypatch,
                                                   capsys):
    # named in the error document, before any potential or metric is built
    # and with no floating-point warning on the way
    import warnings

    from hsgeom import cli, hodge

    built = []
    monkeypatch.setattr(hodge.Metric, "__init__",
                        lambda self, *a, **k: built.append(self))
    monkeypatch.setattr(cli, "standard_potential",
                        lambda *a: built.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["report", *argv]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "_InputError", error
    assert value in error["message"], error
    assert built == []


def test_descend_nan_tol_exits_2(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(*DESCEND_ARGS[:-4], "--tol", "nan", "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()


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


def test_main_reused_in_one_process_matches_fresh_processes(tmp_path, capsys,
                                                            monkeypatch):
    """One process runs descend, report, validate, a rejected argv and
    report again through cli.main; every document it writes is the one a
    fresh process writes to the same path."""
    from hsgeom import cli

    def outputs():
        return {str(f.relative_to(tmp_path)): f.read_bytes()
                for f in sorted(tmp_path.rglob("*")) if f.is_file()}

    written = []
    cli_dump_json = cli._dump_json

    def dump_json(obj):
        # the writer's text beside the stdlib encoder's, per document
        written.append((cli_dump_json(obj), _stdlib_json(obj)))
        return written[-1][0]

    monkeypatch.setattr(cli, "_dump_json", dump_json)

    runs = [
        # no --tol: main sets 1e-6 on this namespace only
        ["descend", "--model", "torus", "--resolution", "8", "--mask",
         "x1,x2", "--perturb", "fixture:two_coord", "--eps", "0.05",
         "--out", str(tmp_path / "descent")],
        ["report", "--model", "catalogue:heis3", "--perturb",
         "coeffs:0.01,0.02;-0.03,0.0;0.04,-0.01",
         "--out", str(tmp_path / "heis3.json")],
        ["validate", "--model", "catalogue:iwasawa",
         "--out", str(tmp_path / "iwasawa.json")],
        ["report", "--model", "catalogue:torus3",
         "--out", str(tmp_path / "torus3.json")],
    ]
    for argv in runs[:3]:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["report", "--model", "catalogue:torus3",
                     "--no-such-flag"]) == 2
    rejected = json.loads(capsys.readouterr().out)
    assert rejected["error"] == {"type": "_InputError", "message":
                                 "unrecognized arguments: --no-such-flag"}
    assert rejected["config"]["model"] == "catalogue:torus3"
    assert cli.main(runs[3]) == 0
    capsys.readouterr()
    reused = outputs()
    # descent trace, certificate and summary, two reports, validate, error
    assert len(written) == 7
    for text, reference in written:
        assert text == reference
    assert json.loads(reused["heis3.json"])["config"]["tol"] is None

    for entry in tmp_path.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    for argv in runs:
        assert run_cli(*argv).returncode == 0
    fresh = outputs()
    assert sorted(reused) == sorted(fresh)
    assert "descent/summary.json" in fresh
    for name in fresh:
        assert reused[name] == fresh[name], name


def _finite_or_repr(obj):
    """`obj` with each non-finite float value replaced by its repr string,
    as the writer spells it; dict keys are left to the encoder."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else float.__repr__(obj)
    if isinstance(obj, dict):
        return {k: _finite_or_repr(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_repr(v) for v in obj]
    return obj


def _stdlib_json(obj):
    """The text cli._dump_json must write: the stdlib encoder's."""
    return json.dumps(_finite_or_repr(obj), sort_keys=True, indent=2) + "\n"


class _Name(str):
    pass


class _Count(int):
    pass


def _json_documents():
    import numpy as np
    from hypothesis import strategies as st

    special = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                               -float("inf"), 1e-300, 1e300])
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), special,
        st.text(),              # non-ASCII and control characters included
        st.floats().map(np.float64), st.text().map(_Name),
        st.integers().map(_Count), st.just({}), st.just([]), st.just(()))
    # json.dumps sorts the keys of one dict among themselves, so a dict has
    # string keys or number keys (True is 1, and keys print as JSON does)
    words = st.sampled_from(["1", "True", "b", "\u00e9", "\n", _Name("n")])
    numbers = st.sampled_from([1, True, False, -3, 2.5, float("inf"),
                               np.float64(0.5), _Count(7)])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(words, inner, max_size=5),
        st.dictionaries(numbers, inner, max_size=4),
        st.dictionaries(st.none(), inner, max_size=1)), max_leaves=24)


def test_dump_json_matches_the_stdlib_encoder():
    from hypothesis import given, settings

    from hsgeom import cli

    @settings(max_examples=400, deadline=None)
    @given(doc=_json_documents())
    def check(doc):
        assert cli._dump_json(doc) == _stdlib_json(doc)

    check()


class _ToJson:
    def to_json(self):
        return {}


@pytest.mark.parametrize("value", [
    "int64", "bool_", "ndarray", "complex", "to_json", "tuple key",
    "mixed keys"])
def test_dump_json_rejects_what_json_dumps_rejects(value):
    # a value that is not JSON-native raises, as in the stdlib encoder,
    # instead of being coerced; so does a dict whose keys do not sort
    import numpy as np

    from hsgeom import cli

    obj = {"int64": np.int64(3), "bool_": np.bool_(True),
           "ndarray": np.arange(3.0), "complex": 1 + 2j,
           "to_json": _ToJson(), "tuple key": {(1, 2): 0},
           "mixed keys": {1: "a", "1": "b"}}[value]
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    for doc in (obj, {"a": [None, obj]}, (obj,)):
        with pytest.raises(TypeError):
            cli._dump_json(doc)


def test_dump_json_leaves_no_cyclic_garbage():
    import gc

    from hsgeom import cli

    args = cli._parser().parse_args(["report", "--model", "catalogue:heis3"])
    model = cli._resolve_model(args)
    doc, failed = cli._report_body(model, cli._resolve_metric(model, args),
                                   args)
    assert not failed
    gc.collect()
    gc.disable()
    try:
        text = cli._dump_json(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == _stdlib_json(doc)


# -- skt gate -----------------------------------------------------------------


def test_report_skt_on_non_pluriclosed_is_a_typed_negative():
    # the pluriclosed gate fails on iwasawa: an honest negative, like an
    # infeasible torsion system, not a numerical failure
    code, doc = run_json("report", "--model", "catalogue:iwasawa",
                         "--mode", "skt")
    assert code == 0
    assert doc["errors"] == []
    t = doc["torsion"]
    assert t["feasible"] is False and t["certificate"] is None, t
    assert "not pluriclosed" in t["message"]
    assert list(t["residuals"]) == ["deldbar_omega"]
    assert t["residuals"]["deldbar_omega"] > 1.0
    assert "completion" not in doc


def test_descend_skt_on_non_pluriclosed_is_a_typed_negative(tmp_path):
    # the gate fails at iterate 0: the error document, exit 1, no traceback
    proc = run_cli("descend", "--model", "catalogue:iwasawa", "--mode", "skt",
                   "--out", str(tmp_path / "run"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "NotSKTError"
    assert not (tmp_path / "run" / "summary.json").exists()


# -- pointwise linear algebra of grid runs ------------------------------------


_LINALG = ("cholesky", "det", "slogdet", "inv", "pinv", "solve", "lstsq",
           "eig", "eigh", "eigvals", "eigvalsh", "svd", "qr")


def test_grid_runs_build_no_cholesky_root(tmp_path, monkeypatch):
    """No np.linalg.cholesky or lstsq runs in the catalogue reports in both
    torsion modes, in hs_feasibility, in a grid report or in a descent.  A
    grid report in both torsion modes and a grid descent call no batched
    np.linalg routine but the eigvalsh of min_eigenvalue, once per report;
    the small ones they call are the inv of the 3x3 grid mean
    (_symbol_pinv) and eigh on block Grams."""
    import numpy as np

    from hsgeom import cli, hodge
    from hsgeom.lie import catalogue_model, hs_feasibility

    from conftest import random_metric

    calls, built = [], []
    for name in _LINALG:
        def spy(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.ndim(args[0]) > 2))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    for name in ("torus3", "iwasawa", "heis3"):
        for mode in ("dim3", "skt"):
            out = tmp_path / f"{name}-{mode}.json"
            assert cli.main(["report", "--model", f"catalogue:{name}",
                             "--mode", mode, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["errors"] == []
        model = catalogue_model(name)
        hs_feasibility(random_metric(model, np.random.default_rng(7)))
    lie_calls = {name for name, _ in calls}
    assert not lie_calls & {"cholesky", "lstsq"}, lie_calls
    calls.clear()
    init = hodge.Metric.__init__
    monkeypatch.setattr(hodge.Metric, "__init__",
                        lambda self, *a, **k: built.append(self)
                        or init(self, *a, **k))
    for mode in ("dim3", "skt"):
        out = tmp_path / f"{mode}.json"
        assert cli.main(["report", "--model", "torus", "--resolution", "8",
                         "--mask", "x1,x3,x5", "--perturb",
                         "fixture:three_coord", "--eps", "0.2",
                         "--mode", mode, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["errors"] == []
    assert cli.main(["descend", "--model", "torus", "--resolution", "8",
                     "--mask", "x1,x2", "--perturb", "fixture:two_coord",
                     "--eps", "0.05", "--out", str(tmp_path / "run")]) == 0
    batched = [name for name, many in calls if many]
    assert batched == ["eigvalsh"] * 2, batched     # one per report
    assert {name for name, many in calls if not many} <= {"inv", "eigh"}
    assert len(built) > 2
