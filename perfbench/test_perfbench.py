"""Tests of the benchmark itself: span tracing, computed counts, and the
result line.  Run from the repository root with ``python3 -m pytest perfbench``
(about two minutes; the q=0.95 battery pass alone takes ~45 s).
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qlaplace import asc, qcore, spectral  # noqa: E402
from qlaplace.asc import AscParams  # noqa: E402
from spans import Tracer, qpoch_inf_factors  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per battery pass, identical at q=0.5 and q=0.95
BATTERY_CALLS = {"asc.orthogonality_measure.calls": 35,
                 "asc.continuous_weight.calls": 12985,
                 "qcore.qpoch_inf.calls": 156460}
BATTERY_FACTORS = {"verify-default": 4977450, "verify-stress": 66637670}


def _loop_factors(a, base, tol):
    """Reference: qcore.qpoch_inf's loop, counting its factors."""
    t = (a * 0 + base * 0 + 1.0) * a
    n = 0
    while abs(t) >= tol:
        t = t * base
        n += 1
    return n


@pytest.mark.parametrize("tol", [1e-16, 1e-19, 2.0 ** -10])
@pytest.mark.parametrize("base", [0.25, 0.9025, np.longdouble(0.9025),
                                  complex(0.3, 0.4), 0.5, 0.0])
@pytest.mark.parametrize("a", [1.0, 0.999, 1.7, -0.3, complex(0.6, -0.8), 1e-20,
                               np.longdouble(0.95) ** 5,
                               np.clongdouble(np.exp(1j * 0.7))])
def test_factor_count_matches_qpoch_inf_loop(a, base, tol):
    assert qpoch_inf_factors(a, base, tol) == _loop_factors(a, base, tol)


def test_install_rebinds_every_imported_name_and_uninstall_restores():
    orig_inf, orig_mass = qcore.qpoch_inf, asc.mass_points
    tracer = Tracer()
    tracer.install()
    try:
        assert asc.qpoch_inf is spectral.qpoch_inf is qcore.qpoch_inf
        assert qcore.qpoch_inf is not orig_inf
        assert spectral.mass_points is asc.mass_points is not orig_mass
        asc.continuous_weight(0.3, AscParams(a=0.5, b=0.25, base=0.25))
    finally:
        tracer.uninstall()
    assert asc.qpoch_inf is spectral.qpoch_inf is qcore.qpoch_inf is orig_inf
    assert spectral.mass_points is asc.mass_points is orig_mass
    summary = tracer.summary()
    assert summary["asc.continuous_weight"]["calls"] == 1
    assert summary["qcore.qpoch_inf"]["calls"] == 12
    root = tracer.spans[0]
    assert tracer.names[root[0]] == "asc.continuous_weight" and root[3] == -1
    assert all(s[3] == 0 for s in tracer.spans[1:])


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_root_span():
    tracer = Tracer()
    leaf = tracer.wrap("qcore.leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.002)
        leaf()
        leaf()

    mid = tracer.wrap("asc.middle", middle)

    def outer():
        _busy(0.002)
        mid()
        raise ValueError("counted, then re-raised")

    with pytest.raises(ValueError):
        tracer.wrap("verify.outer", outer)()
    summary = tracer.summary()
    total = summary["verify.outer"]["total_s"]
    assert math.isclose(sum(r["self_s"] for r in summary.values()), total, rel_tol=1e-9)
    assert summary["qcore.leaf"]["calls"] == 2
    assert summary["verify.outer"]["errors"] == 1
    assert all(r["self_s"] >= 0.002 for r in summary.values())


def test_refclock_removes_sampling_time_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock(period=0.01) as clock:
        start = time.perf_counter()
        _busy(0.3)
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    wall, ref = clock.op_times(start, end)
    inside = [(spent, cost) for s, spent, cost
              in zip(clock._starts, clock._spent, clock._costs) if start <= s < end]
    assert len(inside) >= 10
    assert wall == pytest.approx(end - start - sum(sp for sp, _ in inside), rel=1e-9)
    assert ref == pytest.approx(
        wall * refclock.REF_CALL_S / statistics.fmean(c for _, c in inside), rel=1e-9)


def _traced_pass(workload, seed):
    tracer = Tracer()
    inputs = workloads.setup(workload, seed)
    tracer.install()
    try:
        *_, outcomes = workloads._battery_pass(inputs, tracer)
    finally:
        tracer.uninstall()
    metrics = workloads._layer_metrics(tracer.summary(), tracer.counters(), per=1)
    return {k: v for k, (v, _) in metrics.items() if not k.endswith("self_s")}, outcomes


def test_battery_counts_reproduce_at_default():
    first, out1 = _traced_pass("verify-default", 3)
    second, out2 = _traced_pass("verify-default", 3)
    assert first == second
    assert out1 == out2
    for name, value in BATTERY_CALLS.items():
        assert first[name] == value
    assert first["qcore.qpoch_inf.factors"] == BATTERY_FACTORS["verify-default"]


def test_battery_counts_and_known_defects_at_stress():
    counts, outcomes = _traced_pass("verify-stress", 3)
    for name, value in BATTERY_CALLS.items():
        assert counts[name] == value
    assert counts["qcore.qpoch_inf.factors"] == BATTERY_FACTORS["verify-stress"]
    assert counts["fockoracle.errors"] == 1
    thresholds = {name: thr for name, _, thr, _ in workloads.verify.BATTERY}
    failing = {name for name, res in outcomes.items()
               if not (isinstance(res, float) and res <= thresholds[name])}
    assert failing == workloads.KNOWN_DEFECTS["verify-stress"]


def _run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("transform-deep", 0),
                                            ("transform-deep", 1),
                                            ("verify-default", 0)])
def test_result_line_names_every_declared_metric(workload, trace):
    proc = _run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert result["metrics"]["checks_passed_frac"]["value"] == 1.0
        info = json.loads(proc.stdout.strip().splitlines()[-2])
        assert {"longdouble_nmant", "numpy", "cpu_model", "nproc"} <= set(info["environment"])
        if workload == "transform-deep":
            assert 0 < info["issue_metrics"]["roundtrip_err_max"] <= 1e-8
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["spectral.transform_grid.calls"] == 1
        assert m["lattice.measure_mass.calls"] == 61
        assert m["asc.continuous_weight.calls"] == 0
        assert m["spectral.profile_cells"] == 2 * 258 * 61
        layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert math.isclose(layers + m["trace.unattributed_s"], m["trace.traced_s"])
        assert 0 <= m["trace.unattributed_s"] < 0.01 * m["trace.traced_s"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "verify-default", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
