"""Self-verification battery: every structural identity of the library run
as a named check with a measured residual against a pinned threshold.

Each check returns a :class:`CheckResult`.  Checks that do not apply to the
requested configuration (a sector no quadruple reduces to, the n = 1 trace
exclusion, a degenerate mass point on the band edge) are reported as skipped,
not failed; a check that raises any other exception is reported as failed,
with the exception named in its note.
"""

from __future__ import annotations

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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "threshold": self.threshold,
            "passed": self.passed,
            "skipped": self.skipped,
            "note": self.note,
        }


def _rel(a, b, floor: float = 1.0) -> float:
    return float(abs(a - b) / max(floor, abs(b)))


def _spectral_points(params: ModelParams, sector: Sector):
    pts = [spectral.continuous_point(t)
           for t in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)]
    pts += [spectral.point_from_exponent(params, ell) for ell in (1, 2, 3)]
    for d in asc.mass_points(spectral.asc_params(params, sector), strict=False):
        pts.append(spectral.discrete_point(params, sector, d.index))
    return pts


def check_eigenvalue_residual(params, sector, cfg) -> float:
    J = min(cfg.max_j, 30)
    worst = 0.0
    for pt in _spectral_points(params, sector):
        prof = spectral.eigenfunction_profile(params, sector, pt, J + 1)
        f = LatticeFunction({j: prof[j] for j in range(J + 2)})
        af = laplace.apply_three_term(params, sector, f)
        lam = laplace.eigenvalue(params, pt)
        scale = float(np.max(np.abs(prof[:J + 1])))
        worst = max(worst, max(float(abs(af.get(j, 0.0) - lam * prof[j])) / scale
                               for j in range(1, J + 1)))
    return worst


def check_cross_form(params, sector, cfg) -> float:
    quad = sector.a_quadruple()
    rng = Lcg(cfg.seed + 101)
    worst = 0.0
    for _ in range(5):
        f = rng.lattice_function(10)
        a1 = laplace.apply_three_term(params, sector, f)
        a2 = laplace.apply_divergence_form(params, quad, f)
        scale = max(1.0, max(abs(v) for v in a1.values()))
        for j in set(a1) | set(a2):
            worst = max(worst, float(abs(a1.get(j, 0.0) - a2.get(j, 0.0))) / scale)
    return worst


def check_sector_independence(params, sector, cfg) -> float:
    # a representative sector with several quadruples reducing to it
    quads = [Quadruple(1, 1, 1, 1), Quadruple(2, 0, 2, 0), Quadruple(0, 2, 0, 2)]
    rng = Lcg(cfg.seed + 202)
    worst = 0.0
    for _ in range(3):
        f = rng.lattice_function(8)
        outs = [laplace.apply_divergence_form(params, qd, f) for qd in quads]
        scale = max(1.0, max(abs(v) for v in outs[0].values()))
        for other in outs[1:]:
            for j in set(outs[0]) | set(other):
                worst = max(worst,
                            float(abs(outs[0].get(j, 0.0) - other.get(j, 0.0))) / scale)
    return worst


def check_symmetry(params, sector, cfg) -> float:
    maxj = min(cfg.max_j, 40)
    worst = 0.0
    for j in range(maxj + 1):
        fj = LatticeFunction.basis(j)
        afj = laplace.apply_three_term(params, sector, fj)
        for k in (j - 1, j, j + 1):
            if k < 0 or k > maxj:
                continue
            fk = LatticeFunction.basis(k)
            afk = laplace.apply_three_term(params, sector, fk)
            lhs = lattice.inner_product(params, sector, afj, fk)
            rhs = lattice.inner_product(params, sector, fj, afk)
            worst = max(worst, float(abs(lhs - rhs) / max(1.0, abs(lhs))))
    return worst


def check_norm_identity(params, sector, cfg) -> float:
    worst = 0.0
    for j in range(min(cfg.max_j, 60) + 1):
        a = lattice.measure_mass(params, sector, j)
        b = lattice.indicator_norm_sq(params, sector, j)
        worst = max(worst, _rel(a, b, floor=float(abs(b))))
    return worst


def check_basis_orthonormality(params, sector, cfg) -> float:
    worst = 0.0
    for j in range(min(cfg.max_j, 40) + 1):
        e = lattice.orthonormal_basis(params, sector, j)
        worst = max(worst, float(abs(lattice.inner_product(params, sector, e, e) - 1)))
    return worst


def check_asc_consistency(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    rng = Lcg(cfg.seed + 303)
    worst = 0.0
    for _ in range(50):
        z = 0.999 * rng.symmetric()
        theta = math.acos(z)
        table = asc._recurrence_table(15, _LD(z), pp)
        for k in range(16):
            hyp = asc.asc_hypergeometric(k, theta, pp)
            worst = max(worst, _rel(hyp, float(table[k])))
    return worst


def check_asc_orthogonality(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    return max(asc.orthogonality_residuals(4, pp, cfg.quad_nodes).values())


def check_density_identity(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    lnq = math.log(params.q)
    thetas = np.linspace(0.0, math.pi, 202)[1:-1]
    worst = 0.0
    for theta, weight in zip(thetas, asc.continuous_weight(thetas, pp)):
        c = spectral.c_function(params, sector, 1j * (theta / lnq))
        lhs = 1.0 / abs(c) ** 2
        rhs = float(weight)
        worst = max(worst, _rel(lhs, rhs, floor=abs(rhs)))
    return worst


def check_plancherel_mass(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    return float(abs(meas.total_mass() - 1.0))


def check_transform_of_base_indicator(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    fhat = spectral.transform_grid(params, sector, LatticeFunction.basis(0), meas)
    worst = float(np.max(np.abs(np.asarray(fhat.continuous) - 1.0)))
    for v in fhat.discrete:
        worst = max(worst, float(abs(v - 1.0)))
    return worst


def check_parseval(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 404)
    worst = 0.0
    for _ in range(10):
        f = rng.lattice_function(15)
        nrm = lattice.inner_product(params, sector, f, f)
        fhat = spectral.transform_grid(params, sector, f, meas)
        par = meas.integrate(np.abs(np.asarray(fhat.continuous)) ** 2,
                             [abs(v) ** 2 for v in fhat.discrete])
        worst = max(worst, float(abs(par - nrm) / abs(nrm)))
    return worst


def check_multiplication(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 505)
    lam_cont = np.array([laplace.eigenvalue(params, math.cos(t))
                         for t in meas.theta_nodes], dtype=_LD)
    lam_disc = np.array([laplace.eigenvalue(params, d.z) for d in meas.discrete],
                        dtype=_LD)
    worst = 0.0
    for _ in range(5):
        f = rng.lattice_function(12)
        af = laplace.apply_three_term(params, sector, f)
        fhat = spectral.transform_grid(params, sector, f, meas)
        afhat = spectral.transform_grid(params, sector, af, meas)
        scale = max(1.0, float(np.max(np.abs(lam_cont * np.asarray(fhat.continuous)))))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(afhat.continuous) - lam_cont * np.asarray(fhat.continuous)))) / scale)
        for v_a, v_f, lam in zip(afhat.discrete, fhat.discrete, lam_disc):
            worst = max(worst, float(abs(v_a - lam * v_f)) / scale)
    return worst


def check_roundtrip(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 606)
    worst = 0.0
    for _ in range(5):
        f = rng.lattice_function(15)
        fhat = spectral.transform_grid(params, sector, f, meas)
        rec = spectral.inverse_transform_profile(params, sector, fhat, 16)
        err = rec - f
        num = lattice.inner_product(params, sector, err, err)
        den = lattice.inner_product(params, sector, f, f)
        worst = max(worst, float(np.sqrt(abs(num) / abs(den))))
    return worst


def check_spectrum_containment(params, sector, cfg) -> float:
    spec = spectral.spectrum(params, sector)
    eig = laplace.jacobi_matrix(params, sector, 400).eigenvalues()
    lo, hi = spec.band
    worst = 0.0
    for x in eig:
        d = 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
        for t in spec.discrete:
            d = min(d, abs(x - t))
        worst = max(worst, d)
    return worst


def check_oracle(params, sector, cfg) -> float:
    f0, f1 = LatticeFunction.basis(0), LatticeFunction.basis(1)
    f01 = f0 + f1
    quads = [Quadruple(0, 0, 0, 0), Quadruple(1, 0, 1, 0), Quadruple(0, 1, 0, 1),
             Quadruple(1, 1, 1, 1)]
    worst = 0.0
    for quad in quads:
        for phi, psi in ((f0, f0), (f1, f1), (f01, f01), (f01, f0)):
            o = fockoracle.invariant_integral(params, quad, phi, psi, depth=40)
            c = lattice.hwv_inner_product(params, quad, phi, psi)
            worst = max(worst, float(abs(o - c) / abs(c)) if c != 0
                        else float(abs(o)))
    return worst


def check_identity_negative_block(params, sector, cfg) -> float:
    worst = 0.0
    for n in (2, 3):
        for k in range(4):
            for ll in range(4):
                for t in range(4):
                    lhs, rhs = fockoracle.negative_block_sum(params.q, n, k, ll, t)
                    worst = max(worst, _rel(lhs, rhs))
    return worst


def check_identity_positive_block(params, sector, cfg) -> float:
    worst = 0.0
    for m in (2, 3):
        for kp in range(4):
            for lp in range(4):
                lhs, rhs = fockoracle.positive_block_sum(params.q, m, kp, lp, depth=80)
                worst = max(worst, _rel(lhs, rhs))
    return worst


def check_identity_qbinomial(params, sector, cfg) -> float:
    worst = 0.0
    for k in range(5):
        for ll in range(5):
            for t in range(5):
                lhs, rhs = fockoracle.qbinomial_convolution(params.q, k, ll, t)
                worst = max(worst, _rel(lhs, rhs))
    return worst


def check_identity_geometric(params, sector, cfg) -> float:
    worst = 0.0
    for x in range(4):
        for y in range(1, 4):
            lhs, rhs = fockoracle.pochhammer_geometric_sum(params.q, x, y, depth=90)
            worst = max(worst, _rel(lhs, rhs))
    return worst


def check_difference_duality(params, sector, cfg) -> float:
    rng = Lcg(cfg.seed + 707)
    q = params.q_ld
    worst = 0.0
    for _ in range(5):
        u = {j - 3: rng.symmetric() for j in range(8)}
        v = {j - 3: rng.symmetric() for j in range(8)}
        window = range(-6, 12)
        lhs = sum(u.get(j, 0.0) * bminus(v, j, q) * q ** _LD(-2 * j) for j in window) \
            * (q ** _LD(-2) - 1)
        rhs = -q * q * sum(bplus(u, j, q) * v.get(j, 0.0) * q ** _LD(-2 * j)
                           for j in window) * (q ** _LD(-2) - 1)
        worst = max(worst, _rel(lhs, rhs))
    return worst


#: (name, function, threshold, requires) with requires in
#: {"", "quadruple", "oracle", "measure"}
BATTERY = [
    ("eigenvalue_residual", check_eigenvalue_residual, 1e-10, ""),
    ("cross_form_agreement", check_cross_form, 1e-10, "quadruple"),
    ("sector_independence", check_sector_independence, 1e-11, ""),
    ("operator_symmetry", check_symmetry, 1e-12, ""),
    ("norm_closed_form", check_norm_identity, 1e-12, ""),
    ("basis_orthonormality", check_basis_orthonormality, 1e-12, ""),
    ("asc_consistency", check_asc_consistency, 1e-10, ""),
    ("asc_orthogonality", check_asc_orthogonality, 1e-8, "measure"),
    ("density_identity", check_density_identity, 1e-10, ""),
    ("plancherel_mass", check_plancherel_mass, 1e-10, "measure"),
    ("transform_of_base_indicator", check_transform_of_base_indicator, 1e-12, "measure"),
    ("parseval", check_parseval, 1e-8, "measure"),
    ("multiplication_operator", check_multiplication, 1e-9, "measure"),
    ("transform_roundtrip", check_roundtrip, 1e-8, "measure"),
    ("spectrum_containment", check_spectrum_containment, 1e-6, ""),
    ("trace_oracle_agreement", check_oracle, 1e-9, "oracle"),
    ("identity_negative_block", check_identity_negative_block, 1e-12, ""),
    ("identity_positive_block", check_identity_positive_block, 1e-12, ""),
    ("identity_qbinomial_convolution", check_identity_qbinomial, 1e-12, ""),
    ("identity_geometric_sum", check_identity_geometric, 1e-12, ""),
    ("difference_duality", check_difference_duality, 1e-12, ""),
]


def run_battery(cfg) -> list[CheckResult]:
    """Run every applicable check at the configuration's parameters."""
    params = ModelParams(q=cfg.q, n=cfg.n, m=cfg.m)
    sector = Sector(L=cfg.L, Lp=cfg.Lp)
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
