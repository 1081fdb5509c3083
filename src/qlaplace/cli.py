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
failed, 2 invalid usage or parameters (:class:`_Command` maps every ``ValueError``
and ``ArithmeticError`` of a command body to it).  Reports are deterministic
for a fixed configuration and seed, and carry ``schema_version`` 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import click
import numpy as np

from . import fockoracle, laplace, spectral
from .asc import _MAX_NODES
from .lattice import (LatticeFunction, ModelParams, Quadruple, Sector,
                      hwv_inner_product, measure_mass)
from .verify import (CONTAINMENT_SIZE, CONTAINMENT_THRESHOLD, oracle_error,
                     run_battery)

SCHEMA_VERSION = 1

#: largest ``spectrum --size``: the report also solves the dense 2 * size
#: truncation, 4000 x 4000 (128 MB, a few seconds) at this bound
MAX_SPECTRUM_SIZE = 2000


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation's parameters."""

    q: float = 0.5
    n: int = 2
    m: int = 2
    L: int = 0
    Lp: int = 0
    quad_nodes: int = 256
    fmt: str = "json"
    seed: int = 0

    def validate(self) -> None:
        self.params()
        self.sector()
        if self.q > 0.95:
            raise click.UsageError(
                f"--q {self.q} is outside the supported regime (q <= 0.95: "
                "operator coefficients scale like 1/(1-q^2))")
        if self.quad_nodes < 16:
            raise click.UsageError(f"--quad-nodes must be >= 16, got {self.quad_nodes}")
        if self.quad_nodes > _MAX_NODES:
            raise click.UsageError(
                f"--quad-nodes must be <= {_MAX_NODES}, got {self.quad_nodes}")

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
                 show_default=True, help="minimum theta nodes for spectral quadrature"),
)
_BATTERY = (
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


def _emit(command: str, config: dict, fmt: str, out: str | None, body: dict) -> None:
    """Write the report: the common header, then the command's ``body``."""
    report = {"schema_version": SCHEMA_VERSION, "command": command,
              "config": config, **body}
    rows = _flatten(report)  # refuses a NaN or infinite number in either format
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        # a field is quoted only when it holds a comma, quote or newline
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("field", "value"), *rows])
        text = buf.getvalue()
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


class _Command(click.Command):
    """A command whose body's refusals end as usage errors (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, ArithmeticError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group()
@click.pass_context
def main(ctx):
    """Spectral toolkit for the lattice q-difference operator."""
    # a report refuses a value past double range (exit 2), so numpy does not
    # warn about forming it; ``verify``'s checks raise instead
    ctx.with_resource(np.errstate(over="ignore", divide="ignore", invalid="ignore"))


main.command_class = _Command


@main.command()
@_options(_MODEL, _SECTOR, _QUADRATURE, _BATTERY)
def verify(out, **kw):
    """Run the verification battery; exit 1 if any check fails."""
    cfg, config = _config(**kw)
    results = run_battery(cfg)
    failing = [r.name for r in results if not r.passed]
    _emit("verify", config, cfg.fmt, out, {
        "checks": [asdict(r) for r in results],
        "all_passed": not failing,
    })
    if failing:
        click.echo(f"first failing check: {failing[0]}", err=True)
        sys.exit(1)


@main.command()
@_options(_MODEL, _SECTOR)
@click.option("--size", type=int, default=CONTAINMENT_SIZE,
              show_default=True, help="tridiagonal truncation size")
def spectrum(out, size, **kw):
    """Band, discrete eigenvalues, and truncated-matrix eigenvalues."""
    cfg, config = _config(**kw)
    if size < 2:
        raise click.UsageError(f"--size must be >= 2, got {size}")
    if size > MAX_SPECTRUM_SIZE:
        raise click.UsageError(f"--size must be <= {MAX_SPECTRUM_SIZE}, got {size}")
    params, sector = cfg.params(), cfg.sector()
    spec = spectral.spectrum(params, sector)
    jm = laplace.jacobi_matrix(params, sector, size)
    jm2 = laplace.jacobi_matrix(params, sector, 2 * size)
    ev = jm.eigenvalues()
    # truncation quality: distance of every truncation eigenvalue to the
    # spectrum (band edges are only approached at O(size^-2), so the raw
    # extreme-eigenvalue shift under doubling is reported as information,
    # not as the convergence verdict)
    ev2 = jm2.eigenvalues()
    shift = max(abs(ev[0] - ev2[0]), abs(ev[-1] - ev2[-1]))
    containment = spec.containment(ev)
    _emit("spectrum", config, cfg.fmt, out, {
        "sector": {"L": sector.L, "Lp": sector.Lp},
        "band": [spec.band[0], spec.band[1]],
        "discrete": list(spec.discrete),
        "jacobi_size": size,
        "jacobi_matrix": jm.to_json(),
        "jacobi_eigenvalues": [float(v) for v in ev],
        "containment_residual": containment,
        "extreme_shift_on_doubling": float(shift),
        "converged": bool(containment <= CONTAINMENT_THRESHOLD),
    })


@main.command()
@_options(_MODEL, _SECTOR, _QUADRATURE)
def plancherel(out, **kw):
    """Spectral measure: continuous density plus point masses."""
    cfg, config = _config(**kw)
    params, sector = cfg.params(), cfg.sector()
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    spec = spectral.spectrum(params, sector)
    norm = meas.normalization
    mass_weights = meas.weights()[1]
    _emit("plancherel", config, cfg.fmt, out, {
        "sector": {"L": sector.L, "Lp": sector.Lp},
        "band": [spec.band[0], spec.band[1]],
        "discrete": [
            {"z": d.z, "mass": float(w), "lambda": lam}
            for d, w, lam in zip(meas.discrete, mass_weights, spec.discrete)
        ],
        "density": {
            "theta": [float(t) for t in meas.theta_nodes],
            "value": [float(norm * v) for v in meas.density],
        },
        "normalization": float(norm),
        "total_mass": float(meas.total_mass()),
    })


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
    # RecursionError: arrays nested past the JSON parser's recursion limit
    except (ValueError, KeyError, RecursionError) as exc:
        raise click.UsageError(f"bad input function: {exc}")
    top = max(f, default=0)
    not_finite = click.UsageError(f"transform values are not finite in double "
                                  f"precision (largest support index {top})")
    # a lattice mass past the longdouble range makes the values non-finite:
    # refuse before the measure builds a table of that depth
    if not np.isfinite(measure_mass(params, sector, top)):
        raise not_finite
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    fhat = spectral.transform_grid(params, sector, f, meas)
    cont = np.asarray(fhat.continuous, dtype=complex)
    disc = np.asarray(fhat.discrete, dtype=complex)
    if not (np.isfinite(cont).all() and np.isfinite(disc).all()):
        raise not_finite
    lam_cont, lam_disc = spectral.measure_eigenvalues(params, meas)
    _emit("transform", config, cfg.fmt, out, {
        "sector": {"L": sector.L, "Lp": sector.Lp},
        "theta": [float(t) for t in meas.theta_nodes],
        "lambda_continuous": [float(v) for v in lam_cont],
        "continuous": [[v.real, v.imag] for v in cont],
        "discrete": [
            {"z": d.z, "lambda": float(lam), "value": [v.real, v.imag]}
            for d, lam, v in zip(meas.discrete, lam_disc, disc)
        ],
    })


@main.command()
@_options(_MODEL)
@click.option("--quadruple", nargs=4, type=int, required=True,
              metavar="K L KP LP", help="isotypic label with K+LP = L+KP")
def oracle(out, quadruple, **kw):
    """Trace oracle versus the closed-form pairing for one quadruple."""
    cfg, config = _config(**kw)
    params = cfg.params()
    quad = Quadruple(*quadruple)
    # fixed test pair exercising two lattice points
    f = LatticeFunction.basis(0) + LatticeFunction.basis(1)
    [[o]] = fockoracle.invariant_integral(params, [quad], [(f, f)])
    c = hwv_inner_product(params, quad, f, f)
    _emit("oracle", config, cfg.fmt, out, {
        "quadruple": list(quadruple),
        "oracle": float(o),
        "closed_form": float(c),
        # the extended-precision values, which can lie below the double range
        "oracle_ld": np.format_float_scientific(o, unique=True),
        "closed_form_ld": np.format_float_scientific(c, unique=True),
        "rel_err": oracle_error(o, c),
        "depth": fockoracle._depth(params.q),
    })


if __name__ == "__main__":
    main()
