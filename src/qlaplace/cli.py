"""Command-line front end: verification runs and plot-ready spectral data.

Commands

* ``verify``      run the self-check battery, emit a machine-readable report;
* ``spectrum``    band endpoints, discrete eigenvalues, and the eigenvalues
                  of a finite tridiagonal truncation;
* ``plancherel``  the spectral measure: continuous density on a theta grid
                  plus point masses;
* ``transform``   forward transform of a lattice function read from JSON;
* ``oracle``      trace oracle versus closed-form pairing for one quadruple.

Exit status: 0 all checks pass / command succeeded, 1 a verification check
failed, 2 invalid usage or parameters.  Reports are deterministic for a fixed
configuration and seed, and carry ``schema_version`` 1.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import click
import numpy as np

from . import fockoracle, laplace, spectral
from .lattice import (LatticeFunction, ModelParams, Quadruple, Sector,
                      hwv_inner_product)
from .qcore import ConvergenceError
from .verify import CONTAINMENT_THRESHOLD, run_battery

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation's parameters."""

    q: float = 0.5
    n: int = 2
    m: int = 2
    L: int = 0
    Lp: int = 0
    max_j: int = 30
    tol: float | None = None
    quad_nodes: int = 256
    fmt: str = "json"
    seed: int = 0

    def validate(self) -> None:
        try:
            self.params()
            self.sector()
        except ValueError as exc:
            raise click.UsageError(str(exc))
        if self.q > 0.95:
            raise click.UsageError(
                f"--q {self.q} is outside the supported regime (q <= 0.95: "
                "operator coefficients scale like 1/(1-q^2))")
        if self.max_j < 1:
            raise click.UsageError(f"--max-j must be >= 1, got {self.max_j}")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise click.UsageError(f"--tol must be positive and finite, got {self.tol}")
        if self.quad_nodes < 16:
            raise click.UsageError(f"--quad-nodes must be >= 16, got {self.quad_nodes}")

    def params(self) -> ModelParams:
        return ModelParams(q=self.q, n=self.n, m=self.m)

    def sector(self) -> Sector:
        return Sector(L=self.L, Lp=self.Lp)


def _out_path(ctx, param, value):
    # checked before the command runs, so a bad path costs no battery pass
    if value is not None:
        parent = os.path.dirname(os.path.abspath(value))
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise click.BadParameter(f"directory {parent!r} is missing or not writable")
    return value


def _options(*groups):
    """Decorator adding the options of ``groups`` to a command, in this order."""
    def decorate(fn):
        for option in reversed([o for group in groups for o in group]):
            fn = option(fn)
        return fn
    return decorate


# Option groups: each command declares the groups whose RunConfig fields it
# reads.  Parameters are named after their RunConfig fields.
_MODEL = (
    click.option("--q", type=float, default=RunConfig.q, show_default=True,
                 help="deformation parameter in (0, 1)"),
    click.option("--n", type=int, default=RunConfig.n, show_default=True),
    click.option("--m", type=int, default=RunConfig.m, show_default=True),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                 default=RunConfig.fmt, show_default=True),
    click.option("--out", type=click.Path(dir_okay=False, writable=True),
                 callback=_out_path, help="write the report here instead of stdout"),
)
_SECTOR = (
    click.option("--lambda", "L", type=int, default=RunConfig.L, show_default=True,
                 help="sector label L"),
    click.option("--lambda-prime", "Lp", type=int, default=RunConfig.Lp,
                 show_default=True, help="sector label L'"),
)
_QUADRATURE = (
    click.option("--quad-nodes", type=int, default=RunConfig.quad_nodes,
                 show_default=True, help="theta nodes for spectral quadrature"),
)
_BATTERY = (
    click.option("--max-j", type=int, default=RunConfig.max_j, show_default=True,
                 help="lattice depth used by residual checks"),
    click.option("--tol", type=float, default=RunConfig.tol,
                 help="override every check threshold (default: pinned "
                      "per-check thresholds)"),
    click.option("--seed", type=int, default=RunConfig.seed, show_default=True,
                 help="seed of the documented LCG for random test functions"),
)


def _config(**kw) -> tuple[RunConfig, dict]:
    """The validated configuration, and the report's echo of the given fields."""
    cfg = RunConfig(**kw)
    cfg.validate()
    return cfg, {k: v for k, v in asdict(cfg).items() if k in kw}


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    """Flatten a report into (field, value-string) rows for CSV output."""
    rows = []
    if isinstance(obj, dict):
        for key in obj:
            rows.extend(_flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
        return [(name.rstrip("."), val) for name, val in rows]
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
        return [(name.rstrip("."), val) for name, val in rows]
    if isinstance(obj, bool) or obj is None:
        return [(prefix.rstrip("."), json.dumps(obj))]
    if isinstance(obj, (int, np.integer)):
        return [(prefix.rstrip("."), str(int(obj)))]
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise click.UsageError(f"report field {prefix.rstrip('.')} is {obj}: the "
                                   "result is not finite in double precision")
        return [(prefix.rstrip("."), _fmt17(obj))]
    return [(prefix.rstrip("."), str(obj))]


def _emit(report: dict, fmt: str, out: str | None) -> None:
    rows = _flatten(report)  # refuses a NaN or infinite number in either format
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        lines = ["field,value"]
        lines += [f"{name},{val}" for name, val in rows]
        text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@click.group()
def main():
    """Spectral toolkit for the lattice q-difference operator."""


@main.command()
@_options(_MODEL, _SECTOR, _QUADRATURE, _BATTERY)
def verify(out, **kw):
    """Run the verification battery; exit 1 if any check fails."""
    cfg, config = _config(**kw)
    results = run_battery(cfg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "config": config,
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(report, cfg.fmt, out)
    if not report["all_passed"]:
        failing = next(r.name for r in results if not r.passed)
        click.echo(f"first failing check: {failing}", err=True)
        sys.exit(1)


@main.command()
@_options(_MODEL, _SECTOR)
@click.option("--size", type=int, default=400, show_default=True,
              help="tridiagonal truncation size")
def spectrum(out, size, **kw):
    """Band, discrete eigenvalues, and truncated-matrix eigenvalues."""
    cfg, config = _config(**kw)
    if size < 2:
        raise click.UsageError(f"--size must be >= 2, got {size}")
    params, sector = cfg.params(), cfg.sector()
    spec = spectral.spectrum(params, sector)
    try:
        jm = laplace.jacobi_matrix(params, sector, size)
        jm2 = laplace.jacobi_matrix(params, sector, 2 * size)
    except OverflowError as exc:
        raise click.UsageError(f"operator coefficients overflow double precision: {exc}")
    ev = jm.eigenvalues()
    # truncation quality: distance of every truncation eigenvalue to the
    # spectrum (band edges are only approached at O(size^-2), so the raw
    # extreme-eigenvalue shift under doubling is reported as information,
    # not as the convergence verdict)
    ev2 = jm2.eigenvalues()
    shift = max(abs(ev[0] - ev2[0]), abs(ev[-1] - ev2[-1]))
    containment = spec.containment(ev)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "config": config,
        "sector": {"L": sector.L, "Lp": sector.Lp},
        "band": [spec.band[0], spec.band[1]],
        "discrete": list(spec.discrete),
        "jacobi_size": size,
        "jacobi_matrix": jm.to_json(),
        "jacobi_eigenvalues": [float(v) for v in ev],
        "containment_residual": containment,
        "extreme_shift_on_doubling": float(shift),
        "converged": bool(containment <= CONTAINMENT_THRESHOLD),
    }
    _emit(report, cfg.fmt, out)


@main.command()
@_options(_MODEL, _SECTOR, _QUADRATURE)
def plancherel(out, **kw):
    """Spectral measure: continuous density plus point masses."""
    cfg, config = _config(**kw)
    params, sector = cfg.params(), cfg.sector()
    try:
        meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    spec = spectral.spectrum(params, sector)
    norm = meas.normalization
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "plancherel",
        "config": config,
        "sector": {"L": sector.L, "Lp": sector.Lp},
        "band": [spec.band[0], spec.band[1]],
        "discrete": [
            {"z": d.z, "mass": float(norm * d.mass), "lambda": lam}
            for d, lam in zip(meas.discrete, spec.discrete)
        ],
        "density": {
            "theta": [float(t) for t in meas.theta_nodes],
            "value": [float(norm * v) for v in meas.density],
        },
        "normalization": float(norm),
        "total_mass": float(meas.total_mass()),
    }
    _emit(report, cfg.fmt, out)


@main.command()
@_options(_MODEL, _SECTOR, _QUADRATURE)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="lattice function as JSON "
                                  '{"support": [...], "values": [[re, im], ...]}')
def transform(out, input_path, **kw):
    """Forward spectral transform of a lattice function."""
    cfg, config = _config(**kw)
    params, sector = cfg.params(), cfg.sector()
    try:
        with open(input_path) as fh:
            f = LatticeFunction.from_json(json.load(fh))
    except (ValueError, KeyError) as exc:
        raise click.UsageError(f"bad input function: {exc}")
    try:
        meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    fhat = spectral.transform_grid(params, sector, f, meas)
    with np.errstate(over="ignore"):  # reported below as a usage error
        cont = np.asarray(fhat.continuous, dtype=complex)
        disc = np.asarray(fhat.discrete, dtype=complex)
    if not (np.isfinite(cont).all() and np.isfinite(disc).all()):
        raise click.UsageError(f"transform values are not finite in double precision "
                               f"(largest support index {max(f)})")
    lam_cont, lam_disc = spectral.measure_eigenvalues(params, meas)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "transform",
        "config": config,
        "sector": {"L": sector.L, "Lp": sector.Lp},
        "theta": [float(t) for t in meas.theta_nodes],
        "lambda_continuous": [float(v) for v in lam_cont],
        "continuous": [[v.real, v.imag] for v in cont],
        "discrete": [
            {"z": d.z, "lambda": float(lam), "value": [v.real, v.imag]}
            for d, lam, v in zip(meas.discrete, lam_disc, disc)
        ],
    }
    _emit(report, cfg.fmt, out)


@main.command()
@_options(_MODEL)
@click.option("--quadruple", nargs=4, type=int, required=True,
              metavar="K L KP LP", help="isotypic label with K+LP = L+KP")
def oracle(out, quadruple, **kw):
    """Trace oracle versus the closed-form pairing for one quadruple."""
    cfg, config = _config(**kw)
    params = cfg.params()
    if params.n < 2:
        raise click.UsageError("the trace oracle requires n >= 2")
    try:
        quad = Quadruple(*quadruple)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    # fixed test pair exercising two lattice points
    f = LatticeFunction.basis(0) + LatticeFunction.basis(1)
    try:
        o = fockoracle.invariant_integral(params, quad, f, f)
    except ConvergenceError as exc:
        raise click.UsageError(str(exc))
    c = hwv_inner_product(params, quad, f, f)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "config": config,
        "quadruple": list(quadruple),
        "oracle": float(o),
        "closed_form": float(c),
        "rel_err": float(abs(o - c) / max(1e-300, abs(c))),
        "depth": fockoracle._depth(params.q),
    }
    _emit(report, cfg.fmt, out)


if __name__ == "__main__":
    main()
