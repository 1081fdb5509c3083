"""CLI behaviour: exit codes, schemas, determinism, format equivalence."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import qlaplace
from qlaplace import asc, cli, fockoracle, spectral, verify
from qlaplace.cli import RunConfig, main
from qlaplace.lattice import LatticeFunction, ModelParams, Quadruple, hwv_inner_product
from qlaplace.qcore import ConvergenceError
from qlaplace.verify import check_spectrum_containment

FAST = ["--quad-nodes", "64"]
# the Jacobi diagonal holds q^(-92) = inf in double
JACOBI_OVERFLOW = ["--q", "0.00016640942421768955", "--n", "3", "--m", "2",
                   "--lambda-prime", "94"]

# option groups; each command declares the groups whose RunConfig fields it reads
MODEL = {"--q", "--n", "--m", "--format", "--out"}
SECTOR = {"--lambda", "--lambda-prime"}
QUADRATURE = {"--quad-nodes"}
BATTERY_OPTIONS = {"--seed"}
COMMAND_OPTIONS = {
    "verify": MODEL | SECTOR | QUADRATURE | BATTERY_OPTIONS,
    "spectrum": MODEL | SECTOR | {"--size"},
    "plancherel": MODEL | SECTOR | QUADRATURE,
    "transform": MODEL | SECTOR | QUADRATURE | {"--input"},
    "oracle": MODEL | {"--quadruple"},
}


def run(*args):
    # click >= 8.2 separates stderr by default; older versions need the flag
    try:
        runner = CliRunner(mix_stderr=False)  # type: ignore[call-arg]
    except TypeError:
        runner = CliRunner()
    return runner.invoke(main, list(args))


def run_python(*args, cwd=None):
    """``python *args`` in a fresh interpreter that imports this qlaplace;
    a run past 60 s raises instead of hanging the suite."""
    src = str(Path(qlaplace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=60)


def test_cli_import_does_not_load_scipy():
    probe = "import sys, qlaplace.cli; print('scipy' in sys.modules)"
    res = run_python("-c", probe)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_each_command_declares_only_the_options_it_reads():
    declared = {name: {opt for p in cmd.params for opt in p.opts}
                for name, cmd in main.commands.items()}
    assert declared == COMMAND_OPTIONS
    assert sum(len(cmd.params) for cmd in main.commands.values()) == 40


@pytest.mark.parametrize("command,args,fields", [
    ("verify", [], set(asdict(RunConfig()))),
    ("spectrum", [], {"q", "n", "m", "fmt", "L", "Lp"}),
    ("plancherel", [], {"q", "n", "m", "fmt", "L", "Lp", "quad_nodes"}),
    ("transform", ["--input", "f0.json"], {"q", "n", "m", "fmt", "L", "Lp", "quad_nodes"}),
    ("oracle", ["--quadruple", "1", "1", "1", "1"], {"q", "n", "m", "fmt"}),
], ids=["verify", "spectrum", "plancherel", "transform", "oracle"])
def test_report_config_echoes_exactly_the_fields_the_command_reads(
        tmp_path, command, args, fields):
    (tmp_path / "f0.json").write_text('{"support": [0], "values": [[1.0, 0.0]]}')
    res = run(command, *[str(tmp_path / a) if a.endswith(".json") else a for a in args])
    assert res.exit_code == 0, res.output
    config = json.loads(res.stdout)["config"]
    assert set(config) == fields
    assert config == {k: v for k, v in asdict(RunConfig()).items() if k in fields}


@pytest.mark.parametrize("command,option", [
    ("verify", "--tol"), ("verify", "--max-j"), ("spectrum", "--seed"),
    ("spectrum", "--quad-nodes"), ("plancherel", "--max-j"), ("transform", "--tol"),
    ("oracle", "--lambda"), ("oracle", "--quad-nodes"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(command, option):
    res = run(command, option, "1")
    assert res.exit_code == 2
    assert f"No such option '{option}'" in res.stderr


@pytest.mark.parametrize("args,content", [
    (["verify", "--out", "missing/v.json"], None),
    (["transform", "--input", "f.json"], "[[0, 1.0]]"),
    (["transform", "--input", "f.json"], '{"support": [0], "values": [["x", 0]]}'),
    (["transform", "--input", "f.json"], '{"support": [1e400], "values": [[1.0, 0.0]]}'),
    (["transform", "--input", "f.json"], '{"support": [0, 0], "values": [[1, 0], [5, 0]]}'),
    (["transform", "--input", "f.json"], '{"support": [true], "values": [[1.0, 0.0]]}'),
    (["transform", "--input", "f.json"],
     '{"support": [0, 1], "values": [[true, false], [1.0, true]]}'),
    (["transform", "--input", "f.json"], '{"support": [0], "values": [[NaN, 0.0]]}'),
    (["transform", "--input", "f.json"], '{"support": [0], "values": [[1.0, -Infinity]]}'),
    # past the JSON parser's recursion limit, which raised RecursionError
    (["transform", "--input", "f.json"], "[" * 100_000 + "]" * 100_000),
], ids=["out-directory-missing", "input-top-level-list", "input-string-value",
        "input-infinite-index", "input-repeated-index", "input-boolean-index",
        "input-boolean-value", "input-nan-value", "input-infinite-value", "input-deeply-nested"])
def test_bad_out_or_input_is_a_usage_error(tmp_path, args, content):
    if content is not None:
        (tmp_path / "f.json").write_text(content)
    res = run(*[str(tmp_path / a) if a.endswith(".json") else a for a in args])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output + res.stderr
    if content is not None:
        assert "bad input function" in res.stderr


def test_verify_passes_at_default_parameters():
    res = run("verify", *FAST)
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert report["schema_version"] == 1
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "eigenvalue_residual" in names and "trace_oracle_agreement" in names


def test_verify_reports_a_raising_check_as_failed(monkeypatch):
    def diverges(params, sector, cfg):
        raise ConvergenceError("tail did not settle")

    battery = [(name, diverges if name == "trace_oracle_agreement" else fn, *rest)
               for name, fn, *rest in verify.BATTERY]
    monkeypatch.setattr(verify, "BATTERY", battery)
    res = run("verify", *FAST)
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert report["all_passed"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert len(checks) == 21
    oracle = checks["trace_oracle_agreement"]
    assert oracle["passed"] is False and oracle["residual"] is None
    assert oracle["note"] == "ConvergenceError: tail did not settle"
    assert all(c["passed"] for name, c in checks.items()
               if name != "trace_oracle_agreement")


def test_parameter_domain_violation_exits_2():
    res = run("verify", "--q", "1.2")
    assert res.exit_code == 2
    res = run("spectrum", "--m", "1")
    assert res.exit_code == 2
    res = run("plancherel", "--quad-nodes", "4")
    assert res.exit_code == 2


def test_failing_verify_names_first_failing_check():
    res = run("verify", "--lambda", "300")
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert report["all_passed"] is False
    first_fail = next(c["name"] for c in report["checks"] if not c["passed"])
    assert res.stderr == f"first failing check: {first_fail}\n"


def test_reports_are_deterministic():
    a = run("verify", "--seed", "7", *FAST)
    b = run("verify", "--seed", "7", *FAST)
    assert a.stdout == b.stdout


def test_csv_and_json_carry_identical_numbers():
    j = run("spectrum", "--n", "1", "--m", "3", "--lambda-prime", "2",
            "--size", "50")
    c = run("spectrum", "--n", "1", "--m", "3", "--lambda-prime", "2",
            "--size", "50", "--format", "csv")
    assert j.exit_code == 0 and c.exit_code == 0
    report = json.loads(j.stdout)
    rows = {row["field"]: row["value"]
            for row in csv.DictReader(io.StringIO(c.stdout))}
    assert float(rows["band.0"]) == report["band"][0]
    assert float(rows["band.1"]) == report["band"][1]
    for i, val in enumerate(report["discrete"]):
        assert float(rows[f"discrete.{i}"]) == val
    for i in (0, 17, 49):
        assert float(rows[f"jacobi_eigenvalues.{i}"]) == report["jacobi_eigenvalues"][i]


@pytest.mark.parametrize("command,args", [
    ("verify", FAST), ("spectrum", ["--size", "40"]), ("plancherel", []),
    ("transform", ["--input", "f0.json"]), ("oracle", ["--quadruple", "1", "1", "1", "1"]),
], ids=["verify", "spectrum", "plancherel", "transform", "oracle"])
def test_csv_report_starts_with_the_common_header(tmp_path, command, args):
    (tmp_path / "f0.json").write_text('{"support": [0], "values": [[1.0, 0.0]]}')
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    res = run(command, *args, "--format", "csv")
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[:3] == [["field", "value"], ["schema_version", "1"], ["command", command]]
    config = json.loads(run(command, *args).stdout)["config"]
    names = [name for name, _ in rows[3:]]
    assert names[:len(config)] == [f"config.{k}" for k in asdict(RunConfig())
                                   if k in config]
    assert not any(name.startswith("config.") for name in names[len(config):])


def test_csv_report_quotes_the_notes_that_hold_commas():
    """At q = 0.01, m = 200 the battery fails with notes that hold commas
    (the point-from-exponent underflow and the Jacobi overflow): every CSV
    row still parses to (field, value), and each note is the JSON one."""
    j = run("verify", "--q", "0.01", "--m", "200")
    c = run("verify", "--q", "0.01", "--m", "200", "--format", "csv")
    assert j.exit_code == c.exit_code == 1
    rows = list(csv.reader(io.StringIO(c.stdout)))
    assert {len(row) for row in rows} == {2}
    notes = {name: val for name, val in rows if name.endswith(".note")}
    checks = json.loads(j.stdout)["checks"]
    assert notes == {f"checks.{i}.note": check["note"] for i, check in enumerate(checks)}
    assert sum("," in note for note in notes.values()) >= 2


def test_spectrum_discrete_part_presence():
    empty = json.loads(run("spectrum", "--size", "40").stdout)
    assert empty["discrete"] == []
    full = json.loads(run("spectrum", "--n", "1", "--m", "3", "--lambda-prime",
                          "2", "--size", "40").stdout)
    assert len(full["discrete"]) == 2


def test_plancherel_total_mass():
    res = run("plancherel", "--n", "1", "--m", "3", "--lambda-prime", "2",
              "--quad-nodes", "128")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert abs(report["total_mass"] - 1.0) < 1e-10
    assert len(report["density"]["theta"]) == 128
    assert report["discrete"][0].keys() == {"z", "mass", "lambda"}


def test_transform_of_base_indicator(tmp_path):
    src = tmp_path / "f0.json"
    src.write_text(json.dumps({"support": [0], "values": [[1.0, 0.0]]}))
    res = run("transform", "--input", str(src), "--quad-nodes", "64")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    for re_im in report["continuous"]:
        assert abs(re_im[0] - 1.0) < 1e-12 and abs(re_im[1]) < 1e-12


def test_transform_never_forms_the_density(tmp_path, monkeypatch):
    """The report reads the measure's nodes and mass points, not its density."""
    calls = []
    monkeypatch.setattr(asc, "continuous_weight", lambda *args: calls.append(args))
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"support": [0, 3], "values": [[1.0, 0.0], [0.5, 0.25]]}))
    res = run("transform", "--input", str(src), "--m", "4", "--lambda-prime", "2")
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.stdout)["discrete"]) == 2
    assert calls == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("index,built", [(400, True), (10 ** 8, False)])
def test_transform_beyond_double_range_is_a_usage_error(tmp_path, monkeypatch,
                                                        fmt, index, built):
    """Values past the double range are a usage error; a lattice mass past
    the longdouble range is refused before the measure is built, where a
    table of 10^8 degrees ended in a MemoryError traceback."""
    measures = []
    build = spectral.plancherel_measure
    monkeypatch.setattr(spectral, "plancherel_measure",
                        lambda *args: measures.append(args) or build(*args))
    src = tmp_path / "deep.json"
    src.write_text(json.dumps({"support": [index], "values": [[1.0, 0.0]]}))
    res = run("transform", "--input", str(src), "--quad-nodes", "64",
              "--format", fmt)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"largest support index {index}" in res.stderr
    assert "Traceback" not in res.output + res.stderr
    assert bool(measures) == built


def test_transform_rejects_bad_schema(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"support": [0, 1], "values": [[1.0, 0.0]]}))
    res = run("transform", "--input", str(src))
    assert res.exit_code == 2
    assert "support" in res.stderr or "values" in res.stderr


def test_oracle_report():
    res = run("oracle", "--quadruple", "0", "0", "0", "0", "--q", "0.5")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert set(report) >= {"quadruple", "oracle", "closed_form", "rel_err", "depth"}
    assert report["rel_err"] < 1e-9
    assert report["depth"] == fockoracle._depth(0.5) == 32


def test_oracle_rel_err_is_the_checks_relative_gap_below_1e_300():
    """At q=0.001 the closed form is 1e-894 in longdouble, past any double
    floor: ``rel_err`` still reads the gap relative to it, as the battery's
    ``trace_oracle_agreement`` does, not 0.0."""
    res = run("oracle", "--q", "0.001", "--n", "2", "--m", "10",
              "--quadruple", "0", "0", "10", "10")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    params, quad = ModelParams(0.001, 2, 10), Quadruple(0, 0, 10, 10)
    f = LatticeFunction.basis(0) + LatticeFunction.basis(1)
    [[o]] = fockoracle.invariant_integral(params, [quad], [(f, f)])
    [[c]] = hwv_inner_product(params, [quad], [(f, f)])
    assert 0 < abs(c) < 1e-300
    assert report["rel_err"] == float(abs(o - c) / abs(c)) > 0


def test_oracle_reports_the_extended_precision_values_past_the_double_range():
    """At q=0.001 the double fields read 0.0 (kept byte for byte); the
    ``_ld`` fields carry the ``longdouble`` values, 1e-894, as strings that
    read back to the same values."""
    res = run("oracle", "--q", "0.001", "--n", "2", "--m", "10",
              "--quadruple", "0", "0", "10", "10")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert report["oracle"] == report["closed_form"] == 0.0
    params, quad = ModelParams(0.001, 2, 10), Quadruple(0, 0, 10, 10)
    f = LatticeFunction.basis(0) + LatticeFunction.basis(1)
    [[o]] = fockoracle.invariant_integral(params, [quad], [(f, f)])
    [[c]] = hwv_inner_product(params, [quad], [(f, f)])
    for field, value in (("oracle_ld", o), ("closed_form_ld", c)):
        text = report[field]
        assert -897 <= int(text.split("e")[1]) <= -891
        assert np.longdouble(text) == value
    assert report["oracle_ld"] != report["closed_form_ld"]  # rel_err 3.8e-19


def test_oracle_reports_at_the_q_bound():
    res = run("oracle", "--quadruple", "0", "0", "0", "0", "--q", "0.95")
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert report["rel_err"] < 1e-9
    assert report["depth"] == fockoracle._depth(0.95)


def test_oracle_depth_too_small_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(fockoracle, "_depth", lambda q: 2)
    res = run("oracle", "--quadruple", "0", "0", "0", "0", "--q", "0.95")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "depth 2 too small" in res.stderr
    assert "Traceback" not in res.output + res.stderr


def test_oracle_rejects_bad_quadruple_and_n1():
    res = run("oracle", "--quadruple", "1", "0", "0", "0")
    assert res.exit_code == 2
    res = run("oracle", "--quadruple", "0", "0", "0", "0", "--n", "1", "--m", "3")
    assert res.exit_code == 2


def test_verify_skips_inapplicable_checks():
    # odd L - Lp: no quadruple reduces to the sector; n = 1: no trace oracle;
    # the remaining checks still run and pass
    res = run("verify", "--n", "1", "--m", "2", "--lambda", "1", *FAST)
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    skipped = {c["name"]: c["note"] for c in report["checks"] if c["skipped"]}
    assert "cross_form_agreement" in skipped
    assert "trace_oracle_agreement" in skipped
    assert report["all_passed"] is True


def test_out_file_writing(tmp_path):
    target = tmp_path / "spec.json"
    res = run("spectrum", "--size", "30", "--out", str(target))
    assert res.exit_code == 0
    report = json.loads(target.read_text())
    assert report["command"] == "spectrum"


def test_q_outside_supported_regime_exits_2():
    res = run("spectrum", "--q", "0.97")
    assert res.exit_code == 2


def test_spectrum_reports_truncation_convergence():
    report = json.loads(run("spectrum", "--size", "200").stdout)
    assert report["converged"] is True
    assert report["containment_residual"] < 1e-6
    assert "extreme_shift_on_doubling" in report


@pytest.mark.parametrize("m,Lp", [(2, 0), (4, 2)])
def test_spectrum_containment_matches_verify_check(m, Lp):
    report = json.loads(run("spectrum", "--size", "400", "--m", str(m),
                            "--lambda-prime", str(Lp)).stdout)
    cfg = RunConfig(m=m, Lp=Lp)
    residual = check_spectrum_containment(cfg.params(), cfg.sector(), cfg)
    assert report["containment_residual"] == residual


@pytest.mark.parametrize("q", ["0.7", "0.8", "0.95"])
@pytest.mark.parametrize("n,m", [("2", "2"), ("3", "4")])
def test_verify_is_total_near_the_q_bound(q, n, m):
    # --quad-nodes is a floor: at q = 0.95 the node rule builds 256 nodes
    res = run("verify", "--q", q, "--n", n, "--m", m, "--quad-nodes", "128")
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert len(report["checks"]) == 21
    assert report["all_passed"] is True


def test_verify_passes_with_five_point_masses_at_small_q():
    # the outer mass point sits at z ~ 2.5e4, where the forward recurrence
    # used to miss the orthogonality moments by a factor 1.3e4
    res = run("verify", "--q", "0.3", "--n", "1", "--m", "6",
              "--lambda-prime", "5")
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert report["all_passed"] is True
    check = next(c for c in report["checks"] if c["name"] == "asc_orthogonality")
    assert check["passed"] is True and check["residual"] <= 1e-8


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", [
    ["plancherel"], ["transform", "--input", "f0.json"],
    ["oracle", "--quadruple", "1", "1", "1", "1"], ["spectrum"],
], ids=["plancherel", "transform", "oracle", "spectrum"])
def test_a_non_finite_report_is_a_usage_error(tmp_path, args, fmt):
    # at q = 0.01, m = 200 the outer mass points, the trace oracle and the
    # Jacobi coefficients leave double range; the report refuses them
    # without numpy warning about forming them
    (tmp_path / "f0.json").write_text('{"support": [0], "values": [[1.0, 0.0]]}')
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run(*args, "--q", "0.01", "--m", "200", "--format", fmt)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "double precision" in res.stderr
    assert res.stdout == ""


def test_verify_fails_every_check_with_nan_comparisons():
    # at L = 300 the lattice masses are inf / inf; these checks used to read
    # 0.0 and pass, and transform_of_base_indicator's NaN broke the report
    res = run("verify", "--lambda", "300")
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert report["all_passed"] is False
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert set(failed) == {
        "cross_form_agreement", "operator_symmetry", "norm_closed_form",
        "basis_orthonormality", "transform_of_base_indicator", "parseval",
        "multiplication_operator", "transform_roundtrip"}
    for check in failed.values():
        assert check["residual"] is None
        assert check["note"].startswith("FloatingPointError: ")


@pytest.mark.parametrize("args", [["--lambda", "300"], ["--q", "0.01", "--m", "200"]],
                         ids=["lambda300", "q0.01-m200"])
def test_a_failing_verify_writes_only_its_verdict_to_stderr(args):
    # numpy floating-point errors fail their checks instead of warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run("verify", *args)
    assert res.exit_code == 1
    assert caught == []
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("first failing check: ")


def test_quad_nodes_is_a_minimum_that_q_raises():
    res = run("plancherel", "--q", "0.95", "--m", "4", "--lambda-prime", "2",
              "--quad-nodes", "64")
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.stdout)["density"]["theta"]) == 256
    res = run("verify", "--q", "0.95", "--quad-nodes", "64")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("nodes", [asc._MAX_NODES + 1, 10 ** 15])
@pytest.mark.parametrize("args", [
    ["plancherel"], ["transform", "--input", "f0.json"], ["verify"],
], ids=["plancherel", "transform", "verify"])
def test_quad_nodes_past_the_node_cap_is_a_usage_error(tmp_path, args, nodes):
    # the floor went to np.linspace as given: 10^15 nodes ended in a
    # MemoryError traceback, and verify failed six checks with it
    (tmp_path / "f0.json").write_text('{"support": [0], "values": [[1.0, 0.0]]}')
    res = run_python("-m", "qlaplace.cli", *args, "--quad-nodes", str(nodes),
                     cwd=tmp_path)
    assert res.returncode == 2
    assert f"need quad_nodes <= 16384, got {nodes}" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("size", [cli.MAX_SPECTRUM_SIZE + 1, 10 ** 7])
def test_spectrum_size_past_its_bound_is_a_usage_error(size):
    # the dense 2 * size solve allocated (2 * 10^7)^2 doubles and ended in a
    # numpy _ArrayMemoryError traceback
    res = run_python("-m", "qlaplace.cli", "spectrum", "--size", str(size))
    assert res.returncode == 2
    assert f"--size must be <= {cli.MAX_SPECTRUM_SIZE}, got {size}" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_quad_nodes_at_the_node_cap_runs():
    res = run("plancherel", "--quad-nodes", str(asc._MAX_NODES))
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.stdout)["density"]["theta"]) == asc._MAX_NODES


@pytest.mark.parametrize("args", [
    ["plancherel"], ["spectrum"], ["transform", "--input", "f0.json"],
], ids=["plancherel", "spectrum", "transform"])
def test_parameters_past_extended_range_are_a_usage_error(tmp_path, args):
    # at q = 0.01, m = 2500 the family parameter a = q^(-2497) is inf in
    # longdouble; the mass-point enumeration used to loop forever on it
    (tmp_path / "f0.json").write_text('{"support": [0], "values": [[1.0, 0.0]]}')
    res = run_python("-m", "qlaplace.cli", *args, "--q", "0.01", "--m", "2500",
                     cwd=tmp_path)
    assert res.returncode == 2
    assert "a = inf is not finite" in res.stderr
    assert "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args", [["plancherel"], ["transform", "--input", "f0.json"]],
                         ids=["plancherel", "transform"])
def test_a_base_below_the_double_range_is_accepted(tmp_path, monkeypatch, args):
    # at q = 1e-200 the base q^2 = 1e-400 rounds to 0 in double but not in
    # longdouble; it was refused as "base must lie in (0, 1), got 0.0"
    (tmp_path / "f0.json").write_text('{"support": [0], "values": [[1.0, 0.0]]}')
    monkeypatch.chdir(tmp_path)
    res = run(*args, "--q", "1e-200", *FAST)
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    if args[0] == "plancherel":
        assert report["total_mass"] == 1.0
    else:
        assert report["continuous"] == [[1.0, 0.0]] * len(report["continuous"])
    with pytest.raises(ValueError, match=r"got -1\.e-400$"):
        asc.AscParams(a=1, b=1, base=-np.longdouble("1e-400"))


def test_verify_past_extended_range_completes_its_report():
    res = run_python("-m", "qlaplace.cli", "verify", "--q", "0.01", "--m", "2500")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert len(report["checks"]) == 21 and report["all_passed"] is False
    notes = {c["name"]: c["note"] for c in report["checks"]}
    assert notes["asc_orthogonality"].startswith("ValueError: a = inf")
    assert res.stderr == "first failing check: eigenvalue_residual\n"


def test_jacobi_coefficients_past_double_range_are_a_usage_error():
    # the dense eigensolver used to raise LinAlgError on the inf diagonal
    res = run("spectrum", *JACOBI_OVERFLOW, "--size", "40")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "double precision" in res.stderr
    assert "Traceback" not in res.output + res.stderr
    assert res.stdout == ""


def test_verify_names_the_jacobi_overflow_in_a_complete_report():
    res = run("verify", *JACOBI_OVERFLOW, *FAST)
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert len(report["checks"]) == 21
    notes = {c["name"]: c["note"] for c in report["checks"]}
    assert notes["spectrum_containment"].startswith(
        "OverflowError: operator coefficients overflow double precision")


@pytest.mark.parametrize("refused,usage_error", [
    (["oracle", "--quadruple", "0", "0", "0", "0", "--n", "1", "--m", "3"],
     ["oracle", "--quadruple", "0", "0", "0", "0", "--q", "0.97"]),
    (["spectrum", *JACOBI_OVERFLOW, "--size", "40"], ["spectrum", "--size", "1"]),
], ids=["oracle-n1", "spectrum-jacobi-overflow"])
def test_a_refusal_in_a_command_body_prints_the_command_usage(refused, usage_error):
    # the library's ValueError or ArithmeticError ends like a UsageError the
    # command raises itself: exit 2 under the command's usage line
    res, ref = run(*refused), run(*usage_error)
    assert res.exit_code == ref.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    usage = res.stderr.splitlines()[:2]
    assert usage == ref.stderr.splitlines()[:2]
    assert usage[0] == f"Usage: main {refused[0]} [OPTIONS]"


@pytest.fixture(scope="module")
def lattice_function_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("totality") / "f.json"
    path.write_text('{"support": [0, 1, 3], "values": [[1.0, 0.0], [-0.5, 0.25], [2.0, 0.0]]}')
    return str(path)


# q log-uniform down to 1e-8 as well as uniform up to the 0.95 bound
_Q = st.one_of(st.floats(1e-8, 0.95), st.floats(-8.0, -1.0).map(lambda e: 10.0 ** e))


@st.composite
def invocations(draw, command, input_path):
    # the oracle's negative block costs C(n + t - 1, t) terms per read
    n = draw(st.integers(1, 10 if command == "oracle" else 50))
    args = [command, "--q", repr(draw(_Q)), "--n", str(n),
            "--m", str(draw(st.integers(2, 300))),
            "--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "oracle":
        k, l, kp = (draw(st.integers(0, 3)) for _ in range(3))
        return args + ["--quadruple", str(k), str(l), str(kp), str(l + kp - k)]
    args += ["--lambda", str(draw(st.integers(0, 100))),
             "--lambda-prime", str(draw(st.integers(0, 100)))]
    if command == "spectrum":
        return args + ["--size", str(draw(st.integers(2, 40)))]
    args += ["--quad-nodes", str(draw(st.integers(16, 64)))]
    return args + ["--input", input_path] if command == "transform" else args


# examples per command: the five together take ~12 s
TOTALITY_EXAMPLES = {"verify": 50, "spectrum": 400, "plancherel": 150,
                     "transform": 100, "oracle": 200}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_every_accepted_input_ends_in_a_report_or_a_usage_error(
        lattice_function_file, command):
    @settings(max_examples=TOTALITY_EXAMPLES[command], deadline=None,
              derandomize=True)
    @given(args=invocations(command, lattice_function_file))
    def ends_in_a_report_or_a_usage_error(args):
        res = run(*args)
        assert res.exit_code in (0, 1, 2), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            repr(res.exception)
        if res.exit_code == 2:
            return
        if args[args.index("--format") + 1] == "csv":
            assert next(csv.reader(io.StringIO(res.stdout))) == ["field", "value"]
        else:
            assert json.loads(res.stdout)["command"] == command
        if res.exit_code == 1:
            assert command == "verify"
            assert len(res.stderr.splitlines()) == 1
            assert res.stderr.startswith("first failing check: ")
        else:
            assert res.stderr == ""

    ends_in_a_report_or_a_usage_error()
