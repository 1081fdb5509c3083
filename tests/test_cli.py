"""CLI behaviour: exit codes, schemas, determinism, format equivalence."""

import csv
import io
import json

from click.testing import CliRunner

from qlaplace.cli import main

FAST = ["--quad-nodes", "64", "--max-j", "10"]


def run(*args):
    # click >= 8.2 separates stderr by default; older versions need the flag
    try:
        runner = CliRunner(mix_stderr=False)  # type: ignore[call-arg]
    except TypeError:
        runner = CliRunner()
    return runner.invoke(main, list(args))


def test_verify_passes_at_default_parameters():
    res = run("verify", *FAST)
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert report["schema_version"] == 1
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "eigenvalue_residual" in names and "trace_oracle_agreement" in names


def test_verify_reports_a_raising_check_as_failed():
    res = run("verify", "--q", "0.95", "--n", "2", "--m", "2")
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert report["all_passed"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert len(checks) == 21
    oracle = checks["trace_oracle_agreement"]
    assert oracle["passed"] is False and oracle["residual"] is None
    assert oracle["note"].startswith("ConvergenceError: ")


def test_parameter_domain_violation_exits_2():
    res = run("verify", "--q", "1.2")
    assert res.exit_code == 2
    res = run("spectrum", "--m", "1")
    assert res.exit_code == 2
    res = run("plancherel", "--quad-nodes", "4")
    assert res.exit_code == 2


def test_corrupted_threshold_names_first_failing_check():
    res = run("verify", "--tol", "1e-20", *FAST)
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert report["all_passed"] is False
    first_fail = next(c["name"] for c in report["checks"] if not c["passed"])
    assert first_fail in res.stderr


def test_reports_are_deterministic():
    a = run("verify", "--seed", "7", *FAST)
    b = run("verify", "--seed", "7", *FAST)
    assert a.stdout == b.stdout


def test_csv_and_json_carry_identical_numbers():
    j = run("spectrum", "--n", "1", "--m", "3", "--lambda-prime", "2",
            "--size", "50", *FAST)
    c = run("spectrum", "--n", "1", "--m", "3", "--lambda-prime", "2",
            "--size", "50", "--format", "csv", *FAST)
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


def test_spectrum_discrete_part_presence():
    empty = json.loads(run("spectrum", "--size", "40", *FAST).stdout)
    assert empty["discrete"] == []
    full = json.loads(run("spectrum", "--n", "1", "--m", "3", "--lambda-prime",
                          "2", "--size", "40", *FAST).stdout)
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
    assert report["depth"] == 40


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
    res = run("spectrum", "--size", "30", "--out", str(target), *FAST)
    assert res.exit_code == 0
    report = json.loads(target.read_text())
    assert report["command"] == "spectrum"


def test_q_outside_supported_regime_exits_2():
    res = run("spectrum", "--q", "0.97")
    assert res.exit_code == 2


def test_spectrum_reports_truncation_convergence():
    report = json.loads(run("spectrum", "--size", "200", *FAST).stdout)
    assert report["converged"] is True
    assert report["containment_residual"] < 1e-6
    assert "extreme_shift_on_doubling" in report
