"""Self-verification battery: every structural identity of the library run
as a named check with a measured residual against a pinned threshold.

Each check returns a :class:`CheckResult`.  Checks that do not apply to the
requested configuration (a sector no quadruple reduces to, the n = 1 trace
exclusion, a degenerate mass point on the band edge) are reported as skipped,
not failed; a check that raises any other exception is reported as failed,
with the exception named in its note.  Every check reduces its comparisons
through :func:`_worst`, so a NaN or infinite comparison fails its check with a
``FloatingPointError`` note instead of vanishing from the residual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import asc, fockoracle, laplace, lattice, spectral
from ._rng import Lcg
from .asc import DegenerateParameterError
from .lattice import LatticeFunction, ModelParams, Quadruple, Sector
from .qcore import bminus, bplus

__all__ = ["CheckResult", "run_battery", "BATTERY"]

_LD = np.longdouble


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float | None
    threshold: float
    passed: bool
    skipped: bool = False
    note: str = ""


def _worst(errors) -> float:
    """The largest per-comparison error, 0.0 when there is none.

    A NaN or infinite error raises ``FloatingPointError``, which
    :func:`run_battery` reports as a failed check: ``max`` drops a NaN
    (``max(0.0, nan)`` is 0.0) and would pass a comparison never made.
    """
    worst = 0.0
    for i, err in enumerate(errors):
        if not math.isfinite(err):
            raise FloatingPointError(f"comparison {i} has error {err}")
        if err > worst:
            worst = err
    return worst


def _rel(a, b, floor: float = 1.0) -> float:
    return float(abs(a - b) / max(floor, abs(b)))


def _support_gaps(a, b, scale: float):
    """|a_j - b_j| / scale for each j in the union of the two supports."""
    return (float(abs(a.get(j, 0.0) - b.get(j, 0.0))) / scale for j in set(a) | set(b))


def _spectral_points(params: ModelParams, sector: Sector):
    pts = [spectral.continuous_point(t)
           for t in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)]
    pts += [spectral.point_from_exponent(params, ell) for ell in (1, 2, 3)]
    pts += asc.mass_points(spectral.asc_params(params, sector), strict=False)
    return pts


def check_eigenvalue_residual(params, sector, cfg) -> float:
    J = min(cfg.max_j, 30)
    pts = _spectral_points(params, sector)
    lams = laplace.eigenvalue(params, np.array([pt.z for pt in pts]))
    errors = []
    for pt, lam in zip(pts, lams):
        prof = spectral.eigenfunction_profile(params, sector, pt, J + 1)
        f = LatticeFunction({j: prof[j] for j in range(J + 2)})
        af = laplace.apply_three_term(params, sector, f)
        # carries |lambda| as the gap's rounding does; passes 1e308 at small q
        scale = max(_LD(1), abs(lam)) * np.max(np.abs(prof[:J + 1]))
        errors += (float(abs(af.get(j, 0.0) - lam * prof[j]) / scale)
                   for j in range(1, J + 1))
    return _worst(errors)


def check_cross_form(params, sector, cfg) -> float:
    quad = sector.a_quadruple()
    rng = Lcg(cfg.seed + 101)
    errors = []
    for _ in range(5):
        f = rng.lattice_function(10)
        a1 = laplace.apply_three_term(params, sector, f)
        a2 = laplace.apply_divergence_form(params, quad, f)
        scale = max(1.0, max(abs(v) for v in a1.values()))
        errors += _support_gaps(a1, a2, scale)
    return _worst(errors)


def check_sector_independence(params, sector, cfg) -> float:
    # a representative sector with several quadruples reducing to it
    quads = [Quadruple(1, 1, 1, 1), Quadruple(2, 0, 2, 0), Quadruple(0, 2, 0, 2)]
    rng = Lcg(cfg.seed + 202)
    errors = []
    for _ in range(3):
        f = rng.lattice_function(8)
        outs = [laplace.apply_divergence_form(params, qd, f) for qd in quads]
        scale = max(1.0, max(abs(v) for v in outs[0].values()))
        for other in outs[1:]:
            errors += _support_gaps(outs[0], other, scale)
    return _worst(errors)


def check_symmetry(params, sector, cfg) -> float:
    maxj = min(cfg.max_j, 40)
    basis = [LatticeFunction.basis(j) for j in range(maxj + 1)]
    actions = [laplace.apply_three_term(params, sector, f) for f in basis]
    errors = []
    for j in range(maxj + 1):
        for k in (j - 1, j, j + 1):
            if k < 0 or k > maxj:
                continue
            lhs = lattice.inner_product(params, sector, actions[j], basis[k])
            rhs = lattice.inner_product(params, sector, basis[j], actions[k])
            errors.append(float(abs(lhs - rhs) / max(1.0, abs(lhs))))
    return _worst(errors)


def check_norm_identity(params, sector, cfg) -> float:
    errors = []
    for j in range(min(cfg.max_j, 60) + 1):
        a = lattice.measure_mass(params, sector, j)
        b = lattice.indicator_norm_sq(params, sector, j)
        errors.append(_rel(a, b, floor=float(abs(b))))
    return _worst(errors)


def check_basis_orthonormality(params, sector, cfg) -> float:
    basis = (lattice.orthonormal_basis(params, sector, j)
             for j in range(min(cfg.max_j, 40) + 1))
    return _worst(float(abs(lattice.inner_product(params, sector, e, e) - 1))
                  for e in basis)


def check_asc_consistency(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    rng = Lcg(cfg.seed + 303)
    z = np.array([0.999 * rng.symmetric() for _ in range(50)])
    # math.acos, not np.arccos, which differs in the last bits and would
    # move the residual away from the one-angle asc_hypergeometric values
    w = asc._w_from_theta(np.array([math.acos(v) for v in z]))
    C, conv = asc._convolution_table(15, w, pp.a, pp.b, pp.base)
    k = np.arange(16)
    hyp = np.real(w[:, None] ** -k * C * conv).astype(float)
    ref = np.array(asc._recurrence_table(15, z.astype(_LD), pp), dtype=float).T
    return _worst((np.abs(hyp - ref) / np.maximum(1.0, np.abs(ref))).flat)


def check_asc_orthogonality(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    return _worst(asc.orthogonality_residuals(4, pp, cfg.quad_nodes).values())


def check_density_identity(params, sector, cfg) -> float:
    thetas = np.linspace(0.0, math.pi, 202)[1:-1]
    # e^(i theta) = q^(i nu) at nu = theta / ln q, in extended precision
    nu = thetas.astype(_LD) / np.log(params.q_ld)
    inv_c2 = 1 / np.abs(spectral.c_function(params, sector, 1j * nu)) ** 2
    weight = asc.continuous_weight(thetas, spectral.asc_params(params, sector))
    return _worst((np.abs(inv_c2 - weight) / np.abs(weight)).astype(float))


def check_plancherel_mass(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    return _worst([float(abs(meas.total_mass() - 1.0))])


def check_transform_of_base_indicator(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    fhat = spectral.transform_grid(params, sector, LatticeFunction.basis(0), meas)
    return _worst(float(abs(v - 1.0))
                  for v in itertools.chain(fhat.continuous, fhat.discrete))


def check_parseval(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    plan = spectral._TransformPlan(params, sector, meas, 14)
    rng = Lcg(cfg.seed + 404)
    errors = []
    for _ in range(10):
        f = rng.lattice_function(15)
        nrm = lattice.inner_product(params, sector, f, f)
        fhat = plan.forward(f)
        par = meas.integrate(np.abs(np.asarray(fhat.continuous)) ** 2,
                             [abs(v) ** 2 for v in fhat.discrete])
        errors.append(float(abs(par - nrm) / abs(nrm)))
    return _worst(errors)


def check_multiplication(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 505)
    lam_cont, lam_disc = spectral.measure_eigenvalues(params, meas)
    plan = spectral._TransformPlan(params, sector, meas, 12)
    errors = []
    for _ in range(5):
        f = rng.lattice_function(12)
        af = laplace.apply_three_term(params, sector, f)
        fhat = plan.forward(f)
        afhat = plan.forward(af)
        lam_fhat = lam_cont * np.asarray(fhat.continuous)
        scale = max(_LD(1), np.max(np.abs(lam_fhat)))  # may pass 1e308
        errors += (float(g / scale)
                   for g in np.abs(np.asarray(afhat.continuous) - lam_fhat))
        errors += (float(abs(v_a - lam * v_f) / scale)
                   for v_a, v_f, lam in zip(afhat.discrete, fhat.discrete, lam_disc))
    return _worst(errors)


def check_roundtrip(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    plan = spectral._TransformPlan(params, sector, meas, 16)
    rng = Lcg(cfg.seed + 606)
    errors = []
    for _ in range(5):
        f = rng.lattice_function(15)
        fhat = plan.forward(f)
        rec = plan.inverse(fhat, 16)
        err = rec - f
        num = lattice.inner_product(params, sector, err, err)
        den = lattice.inner_product(params, sector, f, f)
        errors.append(float(np.sqrt(abs(num) / abs(den))))
    return _worst(errors)


def check_spectrum_containment(params, sector, cfg) -> float:
    spec = spectral.spectrum(params, sector)
    ev = laplace.jacobi_matrix(params, sector, 400).eigenvalues()
    return _worst([spec.containment(ev)])


def check_oracle(params, sector, cfg) -> float:
    f0, f1 = LatticeFunction.basis(0), LatticeFunction.basis(1)
    f01 = f0 + f1
    quads = [Quadruple(0, 0, 0, 0), Quadruple(1, 0, 1, 0), Quadruple(0, 1, 0, 1),
             Quadruple(1, 1, 1, 1)]
    errors = []
    for quad in quads:
        for phi, psi in ((f0, f0), (f1, f1), (f01, f01), (f01, f0)):
            o = fockoracle.invariant_integral(params, quad, phi, psi)
            c = lattice.hwv_inner_product(params, quad, phi, psi)
            errors.append(float(abs(o - c) / abs(c)) if c != 0
                          else float(abs(o)))
    return _worst(errors)


def _identity_residual(identity, q, *ranges) -> float:
    """Worst relative gap between the two sides that ``identity(q, *args)``
    returns, over every ``args`` in the product of ``ranges``."""
    return _worst(_rel(*identity(q, *args)) for args in itertools.product(*ranges))


def check_identity_negative_block(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.negative_block_sum, params.q,
                              (2, 3), range(4), range(4), range(4))


def check_identity_positive_block(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.positive_block_sum, params.q,
                              (2, 3), range(4), range(4))


def check_identity_qbinomial(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.qbinomial_convolution, params.q,
                              range(5), range(5), range(5))


def check_identity_geometric(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.pochhammer_geometric_sum, params.q,
                              range(4), range(1, 4))


def check_difference_duality(params, sector, cfg) -> float:
    rng = Lcg(cfg.seed + 707)
    q = params.q_ld
    errors = []
    for _ in range(5):
        u = {j - 3: rng.symmetric() for j in range(8)}
        v = {j - 3: rng.symmetric() for j in range(8)}
        window = range(-6, 12)
        lhs = sum(u.get(j, 0.0) * bminus(v, j, q) * q ** _LD(-2 * j) for j in window) \
            * (q ** _LD(-2) - 1)
        rhs = -q * q * sum(bplus(u, j, q) * v.get(j, 0.0) * q ** _LD(-2 * j)
                           for j in window) * (q ** _LD(-2) - 1)
        errors.append(_rel(lhs, rhs))
    return _worst(errors)


#: also the bound of the ``qlaplace spectrum`` report's ``converged`` flag
CONTAINMENT_THRESHOLD = 1e-6

#: (name, function, threshold, requires) with requires in
#: {"", "quadruple", "oracle"}
BATTERY = [
    ("eigenvalue_residual", check_eigenvalue_residual, 1e-10, ""),
    ("cross_form_agreement", check_cross_form, 1e-10, "quadruple"),
    ("sector_independence", check_sector_independence, 1e-11, ""),
    ("operator_symmetry", check_symmetry, 1e-12, ""),
    ("norm_closed_form", check_norm_identity, 1e-12, ""),
    ("basis_orthonormality", check_basis_orthonormality, 1e-12, ""),
    ("asc_consistency", check_asc_consistency, 1e-10, ""),
    ("asc_orthogonality", check_asc_orthogonality, 1e-8, ""),
    ("density_identity", check_density_identity, 1e-10, ""),
    ("plancherel_mass", check_plancherel_mass, 1e-10, ""),
    ("transform_of_base_indicator", check_transform_of_base_indicator, 1e-12, ""),
    ("parseval", check_parseval, 1e-8, ""),
    ("multiplication_operator", check_multiplication, 1e-9, ""),
    ("transform_roundtrip", check_roundtrip, 1e-8, ""),
    ("spectrum_containment", check_spectrum_containment, CONTAINMENT_THRESHOLD, ""),
    ("trace_oracle_agreement", check_oracle, 1e-9, "oracle"),
    ("identity_negative_block", check_identity_negative_block, 1e-12, ""),
    ("identity_positive_block", check_identity_positive_block, 1e-12, ""),
    ("identity_qbinomial_convolution", check_identity_qbinomial, 1e-12, ""),
    ("identity_geometric_sum", check_identity_geometric, 1e-12, ""),
    ("difference_duality", check_difference_duality, 1e-12, ""),
]


def run_battery(cfg) -> list[CheckResult]:
    """Run every applicable check at the configuration's parameters."""
    params, sector = cfg.params(), cfg.sector()
    results = []
    for name, fn, pinned, requires in BATTERY:
        threshold = cfg.tol if cfg.tol is not None else pinned
        if requires == "quadruple" and not sector.realizable:
            results.append(CheckResult(name, None, threshold, True, True,
                                       "sector not realizable by a quadruple"))
            continue
        if requires == "oracle" and params.n < 2:
            results.append(CheckResult(name, None, threshold, True, True,
                                       "trace oracle requires n >= 2"))
            continue
        try:
            residual = fn(params, sector, cfg)
        except DegenerateParameterError as exc:
            results.append(CheckResult(name, None, threshold, True, True,
                                       f"degenerate parameters: {exc}"))
            continue
        except Exception as exc:  # a raising check fails; the report completes
            results.append(CheckResult(name, None, threshold, False,
                                       note=f"{type(exc).__name__}: {exc}"))
            continue
        results.append(CheckResult(name, float(residual), threshold,
                                   float(residual) <= threshold))
    return results
