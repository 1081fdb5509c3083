"""The benchmark's workloads: set-up, the closed measuring loop, and the
correctness gate.  Each workload is one client calling qlaplace's public
functions back to back in this process.

* ``verify-default``: every check of ``verify.BATTERY`` at the configuration
  users run (q=0.5, n=m=2, L=Lp=0, 256 quadrature nodes).
* ``verify-stress``: the same battery at q=0.95, where each infinite product
  runs ~13x the factors and the seed's truncation defects show.
* ``transform-deep``: forward + inverse spectral transform of dense complex
  lattice functions on j=0..60 in a sector with two point masses.

An operation (op) is one check execution on the verify workloads and one
forward+inverse pair on transform-deep.  An op fails when it raises, misses
its pinned threshold, or gives a different result when repeated in the run.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time

import numpy as np

from qlaplace import lattice, spectral, verify
from qlaplace.cli import RunConfig
from qlaplace.lattice import LatticeFunction, ModelParams, Sector

from refclock import REF_CALL_S, RefClock, probe
from spans import LAYERS, TRACED, TRACED_METHODS, Tracer

VERIFY_Q = {"verify-default": 0.5, "verify-stress": 0.95}

#: checks that fail at q=0.95 because of fixed truncation depths in
#: fockoracle and the identity checks (fixed depth 40, 80 and 90; see
#: ROADMAP).  They still count as failed ops; they do not make a run incorrect,
#: and a fix that makes them pass is welcome.
KNOWN_DEFECTS = {
    "verify-default": frozenset(),
    "verify-stress": frozenset({"trace_oracle_agreement", "identity_positive_block",
                                "identity_geometric_sum"}),
}

#: point-mass sector q=0.5, n=2, m=4, L=0, Lp=2 (two mass points)
TRANSFORM_PARAMS = ModelParams(q=0.5, n=2, m=4)
TRANSFORM_SECTOR = Sector(L=0, Lp=2)
TRANSFORM_J = 60
TRANSFORM_NODES = 256
#: distinct inputs per run, cycled, so repeated inputs check determinism
TRANSFORM_INPUTS = 16
#: a round trip above this relative lattice-norm error is a failed op
ROUNDTRIP_TOL = 1e-8

CHECK_NAMES = tuple(name for name, *_ in verify.BATTERY)


def setup(workload: str, seed: int):
    """Build the inputs of a workload from its seed."""
    if workload in VERIFY_Q:
        q = VERIFY_Q[workload]
        cfg = RunConfig(q=q, n=2, m=2, L=0, Lp=0, quad_nodes=256, seed=seed)
        cfg.validate()
        return cfg.params(), cfg.sector(), cfg
    if workload == "transform-deep":
        params, sector = TRANSFORM_PARAMS, TRANSFORM_SECTOR
        measure = spectral.plancherel_measure(params, sector, TRANSFORM_NODES)
        rng = random.Random(seed)
        inputs = [LatticeFunction({j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                   for j in range(TRANSFORM_J + 1)})
                  for _ in range(TRANSFORM_INPUTS)]
        masses = np.array([lattice.measure_mass(params, sector, j)
                           for j in range(TRANSFORM_J + 1)], dtype=np.longdouble)
        return params, sector, measure, inputs, masses
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- verify


def _battery_pass(inputs, tracer: Tracer | None = None):
    """One pass over verify.BATTERY.

    Returns (start, end, {check: s}, {check: outcome}); an outcome is the
    residual as a float, or "<Exception>: message".
    """
    params, sector, cfg = inputs
    times, outcomes = {}, {}
    start = time.perf_counter()
    for i, (name, fn, _threshold, _requires) in enumerate(verify.BATTERY):
        if tracer is not None:
            fn = tracer.wrap(f"verify.{name}", fn)
            tracer.op = i
        t0 = time.perf_counter()
        try:
            outcome = float(fn(params, sector, cfg))
        except Exception as exc:  # a raising check is a failed op, reported below
            outcome = f"{type(exc).__name__}: {exc}"
        times[name] = time.perf_counter() - t0
        outcomes[name] = outcome
    return start, time.perf_counter(), times, outcomes


def _judge_checks(workload: str, passes: list) -> dict:
    """Per-check verdicts over all passes of a run, against pinned thresholds."""
    verdicts = {}
    for name, _fn, threshold, _requires in verify.BATTERY:
        outs = [outcomes[name] for *_, outcomes in passes]
        deterministic = all(o == outs[0] for o in outs)
        res = outs[0]
        passed = deterministic and isinstance(res, float) and res <= threshold
        verdicts[name] = {"threshold": threshold, "outcome": res,
                          "deterministic": deterministic, "passed": passed,
                          "known_defect": name in KNOWN_DEFECTS[workload]}
    return verdicts


def _verify_gate(workload: str, passes: list) -> tuple[dict, int, int, bool]:
    verdicts = _judge_checks(workload, passes)
    attempted = len(passes) * len(verdicts)
    failed = len(passes) * sum(not v["passed"] for v in verdicts.values())
    correct = all(v["passed"] or (v["known_defect"] and v["deterministic"])
                  for v in verdicts.values())
    return verdicts, attempted, failed, correct


def run_verify(workload: str, inputs, seconds: float, trace: bool, trace_path=None):
    """Closed loop of battery passes; at least two passes per run."""
    passes = []
    until = seconds / 2 if trace else seconds

    def loop():
        start = time.perf_counter()
        while len(passes) < (1 if trace else 2) or time.perf_counter() - start < until:
            passes.append(_battery_pass(inputs))

    if not trace:
        with RefClock() as clock:
            loop()
        verdicts, attempted, failed, correct = _verify_gate(workload, passes)
        n_ok = sum(v["passed"] for v in verdicts.values())
        walls, refs = zip(*(clock.op_times(start, end) for start, end, *_ in passes))
        metrics = _op_metrics(refs)
        metrics["checks_passed_frac"] = (n_ok / len(verdicts), "1")
        info = {"samples": {"op": len(walls)},
                "issue_metrics": {
                    "battery_s": statistics.median(walls),
                    "battery_s.p90": np.percentile(walls, 90),
                    "checks_failed_frac": f"{len(verdicts) - n_ok}/{len(verdicts)}"},
                "checks": verdicts}
        return metrics, attempted, failed, correct, info

    _, untraced_scale = _probed(loop)
    untraced = [end - start for start, end, *_ in passes]

    tracer = Tracer()
    tracer.install()
    try:
        traced_pass, traced_scale = _probed(lambda: _battery_pass(inputs, tracer))
    finally:
        tracer.uninstall()
    passes.append(traced_pass)
    verdicts, attempted, failed, correct = _verify_gate(workload, passes)
    summary = tracer.summary()
    metrics = _layer_metrics(summary, tracer.counters(), per=1)
    for name in CHECK_NAMES:
        metrics[f"verify.{name}.s"] = (
            statistics.median(times[name] for *_, times, _ in passes[:-1]), "s")
        metrics[f"verify.{name}.residual"] = (_residual(verdicts[name]["outcome"]), "1")
    traced_s = traced_pass[1] - traced_pass[0]
    _trace_totals(metrics, traced_s, traced_s * traced_scale
                  - statistics.median(untraced) * untraced_scale)
    if trace_path is not None:
        tracer.dump(trace_path, {"workload": workload, "unit": "battery pass"})
    info = {"samples": {"untraced_passes": len(untraced), "traced_passes": 1,
                        "spans": len(tracer.spans)},
            "checks": verdicts}
    return metrics, attempted, failed, correct, info


def _op_metrics(refs) -> dict:
    """Per-op time in reference seconds (see refclock.py)."""
    return {"op_ref_s.p50": (statistics.median(refs), "s"),
            "op_ref_s.p75": (np.percentile(refs, 75), "s")}


def _residual(outcome) -> float:
    """A check's residual, or -1.0 when it raised, was not finite or did not run."""
    return outcome if isinstance(outcome, float) and math.isfinite(outcome) else -1.0


# ---------------------------------------------------------------- transform


def _roundtrip(inputs, f):
    params, sector, measure, _, _ = inputs
    fhat = spectral.transform_grid(params, sector, f, measure)
    return spectral.inverse_transform_profile(params, sector, fhat, TRANSFORM_J)


def _roundtrip_error(inputs, f, rec) -> tuple[float, np.ndarray]:
    """Relative lattice-norm error of rec against f, and rec as an array."""
    masses = inputs[4]
    fv = np.array([f.get(j, 0) for j in range(TRANSFORM_J + 1)], dtype=np.clongdouble)
    rv = np.array([rec.get(j, 0) for j in range(TRANSFORM_J + 1)], dtype=np.clongdouble)
    num = np.sum(np.abs(rv - fv) ** 2 * masses)
    den = np.sum(np.abs(fv) ** 2 * masses)
    return float(np.sqrt(num / den)), rv


def _transform_loop(inputs, seconds: float, seen: dict, tracer: Tracer | None = None):
    """Round trips until ``seconds`` pass; returns ([(start, end)], errors, failed)."""
    funcs = inputs[3]
    windows, errors, failed = [], [], 0
    start = time.perf_counter()
    while not windows or time.perf_counter() - start < seconds:
        k = seen["pairs"] % len(funcs)
        seen["pairs"] += 1
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            rec = _roundtrip(inputs, funcs[k])
        except Exception as exc:  # a raising pair is a failed op
            windows.append((t0, time.perf_counter()))
            failed += 1
            print(f"perfbench: round trip raised {exc!r}", file=sys.stderr)
            continue
        windows.append((t0, time.perf_counter()))
        err, rv = _roundtrip_error(inputs, funcs[k], rec)
        errors.append(err)
        first = seen["results"].setdefault(k, rv)
        if not err <= ROUNDTRIP_TOL or not np.array_equal(first, rv):
            failed += 1
    return windows, errors, failed


def run_transform(workload: str, inputs, seconds: float, trace: bool, trace_path=None):
    """Closed loop of forward+inverse pairs at J=60, 256 nodes."""
    seen = {"pairs": 0, "results": {}}
    if not trace:
        with RefClock() as clock:
            windows, errors, failed = _transform_loop(inputs, seconds, seen)
        walls, refs = zip(*(clock.op_times(start, end) for start, end in windows))
        metrics = _op_metrics(refs)
        metrics["checks_passed_frac"] = ((len(walls) - failed) / len(walls), "1")
        info = {"samples": {"op": len(walls)},
                "issue_metrics": {"roundtrips_per_s": len(walls) / sum(walls),
                                  "roundtrip_s.p50": statistics.median(walls),
                                  "roundtrip_s.p90": np.percentile(walls, 90),
                                  "roundtrip_err_max": max(errors, default=-1.0)}}
        return metrics, len(walls), failed, failed == 0, info

    (windows, _, failed), untraced_scale = _probed(
        lambda: _transform_loop(inputs, seconds / 2, seen))
    times = [end - start for start, end in windows]

    tracer = Tracer()
    tracer.install()
    try:
        (t_windows, _, t_failed), traced_scale = _probed(
            lambda: _transform_loop(inputs, seconds / 2, seen, tracer))
    finally:
        tracer.uninstall()
    t_times = [end - start for start, end in t_windows]
    n = len(t_times)
    metrics = _layer_metrics(tracer.summary(), tracer.counters(), per=n)
    for name in CHECK_NAMES:
        metrics[f"verify.{name}.s"] = (0.0, "s")
        metrics[f"verify.{name}.residual"] = (-1.0, "1")
    traced_s = sum(t_times) / n
    _trace_totals(metrics, traced_s, traced_s * traced_scale
                  - sum(times) / len(times) * untraced_scale)
    if trace_path is not None:
        tracer.dump(trace_path, {"workload": workload, "unit": "round trip"})
    attempted = len(times) + n
    info = {"samples": {"untraced_pairs": len(times), "traced_pairs": n,
                        "spans": len(tracer.spans)}}
    return metrics, attempted, failed + t_failed, failed + t_failed == 0, info


# ---------------------------------------------------------------- per layer


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    names = []
    for modname, attr in TRACED:
        names += [(f"{modname}.{attr}.calls", "count"), (f"{modname}.{attr}.self_s", "s")]
    names += [(span, unit) for *_, span in TRACED_METHODS
              for span, unit in ((f"{span}.calls", "count"), (f"{span}.self_s", "s"))]
    names += [("qcore.qpoch_inf.factors", "count"), ("asc.theta_nodes_built", "count"),
              ("spectral.profile_cells", "count"), ("fockoracle.errors", "count")]
    for name in CHECK_NAMES:
        names += [(f"verify.{name}.s", "s"), (f"verify.{name}.residual", "1")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("trace.traced_s", "s"), ("trace.overhead_s", "s"),
              ("trace.unattributed_s", "s")]
    return names


def _layer_metrics(summary: dict, counters: dict, per: int) -> dict:
    """Calls, self time and computed counts per battery pass or round trip."""
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        layer_self[name.split(".")[0]] += row["self_s"] / per
    spans = [f"{m}.{a}" for m, a in TRACED] + [s for *_, s in TRACED_METHODS]
    for span in spans:
        row = summary.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = (row["calls"] / per, "count")
        metrics[f"{span}.self_s"] = (row["self_s"] / per, "s")
    for name, value in counters.items():
        metrics[name] = (value / per, "count")
    metrics["fockoracle.errors"] = (
        sum(row["errors"] for name, row in summary.items()
            if name.startswith("fockoracle.")) / per, "count")
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value, "s")
    return metrics


def _probed(fn):
    """(fn(), reference seconds per wall second around the call; see refclock.py)."""
    before = probe()
    out = fn()
    return out, REF_CALL_S / ((before + probe()) / 2)


def _trace_totals(metrics: dict, traced_s: float, overhead_ref_s: float) -> None:
    """Traced wall time per op, the tracing overhead in reference seconds, and
    the part of the traced time no layer's self time covers."""
    attributed = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (overhead_ref_s, "s")
    metrics["trace.unattributed_s"] = (traced_s - attributed, "s")


RUNNERS = {"verify-default": run_verify, "verify-stress": run_verify,
           "transform-deep": run_transform}
