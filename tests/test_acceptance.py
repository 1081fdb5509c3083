"""Acceptance suite: one test per exit criterion, at full grid and pinned
tolerance.  Each test prints a single line

    criterion <k> (<name>): residual=<r> threshold=<t> -> PASS/FAIL

(visible with ``pytest -s``; under plain ``pytest -v`` the per-criterion
verdicts appear as the test outcomes).
"""

import itertools
import math

import numpy as np

from qlaplace import asc, fockoracle, laplace, lattice, spectral
from qlaplace._rng import Lcg
from qlaplace.lattice import LatticeFunction, ModelParams, Quadruple, Sector
from qlaplace.qcore import qpoch

_LD = np.longdouble

NM_GRID = [(1, 2), (2, 2), (2, 3)]
Q_GRID = [0.3, 0.5, 0.7]
SECTORS = [Sector(L, Lp) for L in range(4) for Lp in range(4)
           if (L - Lp) % 2 == 0]


def _report(num, name, residual, threshold):
    ok = residual <= threshold
    print(f"criterion {num} ({name}): residual={residual:.3e} "
          f"threshold={threshold:.0e} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {residual:.3e} > {threshold:.0e}"


def _sector_points(params, sector):
    pts = [spectral.continuous_point(t)
           for t in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)]
    pts += [spectral.point_from_exponent(params, ell) for ell in (1, 2, 3)]
    pts += [spectral.discrete_point(params, sector, d.index)
            for d in asc.mass_points(spectral.asc_params(params, sector),
                                     strict=False)]
    return pts


def all_quadruples(max_entry):
    rng = range(max_entry + 1)
    return [Quadruple(*t) for t in itertools.product(rng, repeat=4)
            if t[0] + t[3] == t[1] + t[2]]


def test_criterion_01_eigenvalue_equation():
    """AΦ = λΦ at 1 <= j <= 30 over the full parameter grid."""
    J = 30
    worst = 0.0
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            for sector in SECTORS:
                for pt in _sector_points(params, sector):
                    prof = spectral.eigenfunction_profile(params, sector, pt, J + 1)
                    f = LatticeFunction({j: prof[j] for j in range(J + 2)})
                    af = laplace.apply_three_term(params, sector, f)
                    lam = laplace.eigenvalue(params, pt)
                    scale = float(np.max(np.abs(prof[:J + 1])))
                    res = max(float(abs(af.get(j, 0.0) - lam * prof[j]))
                              for j in range(1, J + 1)) / scale
                    worst = max(worst, res)
    _report(1, "eigenvalue equation", worst, 1e-10)


def test_criterion_02_cross_form_equality():
    """Divergence form == three-term form; quadruples sharing a sector agree."""
    worst = 0.0
    by_sector = {}
    for quad in all_quadruples(3):
        by_sector.setdefault((quad.L, quad.Lp), []).append(quad)
    for (n, m) in NM_GRID:
        for q in (0.5,):
            params = ModelParams(q, n, m)
            rng = Lcg(2024)
            for (L, Lp), quads in by_sector.items():
                sector = Sector(L, Lp)
                for _ in range(20):
                    f = rng.lattice_function(10)
                    ref = laplace.apply_three_term(params, sector, f)
                    scale = max(1.0, max(abs(v) for v in ref.values()))
                    outs = [laplace.apply_divergence_form(params, qd, f)
                            for qd in quads]
                    for out in outs:
                        for j in set(ref) | set(out):
                            worst = max(worst, abs(complex(ref.get(j, 0.0))
                                                   - complex(out.get(j, 0.0))) / scale)
                    for other in outs[1:]:
                        for j in set(outs[0]) | set(other):
                            worst = max(worst, abs(complex(outs[0].get(j, 0.0))
                                                   - complex(other.get(j, 0.0))) / scale)
    _report(2, "cross-form operator equality", worst, 1e-10)


def test_criterion_03_symmetry():
    """(A f_j, f_k) = (f_j, A f_k) for j, k <= 40."""
    worst = 0.0
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            for sector in (Sector(0, 0), Sector(3, 1), Sector(2, 2)):
                actions = {j: laplace.apply_three_term(params, sector,
                                                       LatticeFunction.basis(j))
                           for j in range(42)}
                for j in range(41):
                    for k in (j - 1, j, j + 1):
                        if k < 0 or k > 40:
                            continue
                        lhs = lattice.inner_product(params, sector, actions[j],
                                                    LatticeFunction.basis(k))
                        rhs = lattice.inner_product(params, sector,
                                                    LatticeFunction.basis(j),
                                                    actions[k])
                        worst = max(worst,
                                    float(abs(lhs - rhs) / max(1.0, abs(lhs))))
    _report(3, "operator symmetry", worst, 1e-12)


def test_criterion_04_norm_closed_form():
    """Quadrature norm of f_j equals its closed form for j <= 60."""
    worst = 0.0
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            for sector in SECTORS:
                for j in range(61):
                    via_quadrature = lattice.inner_product(
                        params, sector, LatticeFunction.basis(j),
                        LatticeFunction.basis(j))
                    closed = lattice.indicator_norm_sq(params, sector, j)
                    worst = max(worst, float(abs(via_quadrature - closed)
                                             / abs(closed)))
    _report(4, "norm closed form", worst, 1e-12)


def test_criterion_05_asc_consistency():
    """Recurrence vs hypergeometric representation, k <= 15, 50 random z."""
    worst = 0.0
    seen = set()
    rng = Lcg(505)
    zs = [0.999 * rng.symmetric() for _ in range(50)]
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            for sector in SECTORS:
                pp = spectral.asc_params(params, sector)
                key = (round(float(pp.a), 12), round(float(pp.b), 12),
                       round(float(pp.base), 12))
                if key in seen:
                    continue
                seen.add(key)
                for z in zs[:12]:
                    theta = math.acos(z)
                    table = asc._recurrence_table(15, _LD(z), pp)
                    for k in range(16):
                        hyp = asc.asc_hypergeometric(k, theta, pp)
                        worst = max(worst, abs(float(table[k]) - hyp)
                                    / max(1.0, abs(float(table[k]))))
    # the named 50-z sweep on one representative family
    pp = spectral.asc_params(ModelParams(0.5, 1, 3), Sector(0, 2))
    for z in zs:
        theta = math.acos(z)
        table = asc._recurrence_table(15, _LD(z), pp)
        for k in range(16):
            hyp = asc.asc_hypergeometric(k, theta, pp)
            worst = max(worst, abs(float(table[k]) - hyp)
                        / max(1.0, abs(float(table[k]))))
    _report(5, "Al-Salam-Chihara consistency", worst, 1e-10)


def test_criterion_06_orthogonality_and_plancherel():
    """Orthonormality of the transformed basis, Parseval, multiplication
    property and the transform round-trip, in one sector without and one with
    a discrete part.

    The round-trip is measured in the lattice Hilbert norm relative to the
    input's norm (the unitarity statement); the raw per-component metric is
    not meaningful here because the measure masses span ~60 decades across
    support up to j = 20.
    """
    worst_orth = worst_par = worst_mult = worst_rt = 0.0
    for params, sector in ((ModelParams(0.5, 2, 2), Sector(0, 0)),
                           (ModelParams(0.5, 1, 3), Sector(0, 2))):
        meas = spectral.plancherel_measure(params, sector, 513)
        cont_prof, disc_prof = spectral._profile_matrix(params, sector, meas, 21)
        masses = spectral._mass_vector(params, sector, 21)
        w8 = meas.trapezoid_weights()
        disc_m = np.array([d.mass for d in meas.discrete], dtype=_LD) \
            * _LD(meas.normalization)
        pp = spectral.asc_params(params, sector)

        # orthonormal polynomials, i, j <= 10
        z = np.cos(meas.theta_nodes)
        table = asc._recurrence_table(10, z.astype(_LD), pp)
        table_d = [asc._recurrence_table(10, _LD(d.z), pp) for d in meas.discrete]
        p = _LD(pp.base)
        norms = [np.sqrt(qpoch(p, p, i) * qpoch(_LD(pp.a) * _LD(pp.b), p, i))
                 for i in range(11)]
        for i in range(11):
            for j in range(i, 11):
                val = np.sum(w8 * table[i] * table[j])
                for td, dm in zip(table_d, disc_m):
                    val = val + dm * td[i] * td[j]
                val = val / (norms[i] * norms[j])
                worst_orth = max(worst_orth,
                                 float(abs(val - (1.0 if i == j else 0.0))))

        # Parseval + roundtrip on 50 random functions supported on j <= 20
        rng = Lcg(606)
        lam_c = np.array([laplace.eigenvalue(params, math.cos(t))
                          for t in meas.theta_nodes], dtype=_LD)
        lam_d = np.array([laplace.eigenvalue(params, d.z) for d in meas.discrete],
                         dtype=_LD)
        for trial in range(50):
            f = rng.lattice_function(21)
            coeff = np.array([complex(f.get(j, 0.0)) for j in range(22)],
                             dtype=np.clongdouble)
            weighted = coeff * masses
            fhat_c = cont_prof @ weighted
            fhat_d = disc_prof @ weighted if len(meas.discrete) else np.zeros(0)
            nrm = np.sum(np.abs(coeff) ** 2 * masses)
            par = np.sum(w8 * np.abs(fhat_c) ** 2)
            if len(meas.discrete):
                par = par + np.sum(disc_m * np.abs(fhat_d) ** 2)
            worst_par = max(worst_par, float(abs(par - nrm) / nrm))

            rec = cont_prof.T @ (w8 * fhat_c)
            if len(meas.discrete):
                rec = rec + disc_prof.T @ (disc_m * fhat_d)
            err2 = np.sum(np.abs(rec - coeff) ** 2 * masses)
            worst_rt = max(worst_rt, float(np.sqrt(err2 / nrm)))

            if trial < 10:
                af = laplace.apply_three_term(params, sector, f)
                acoeff = np.array([complex(af.get(j, 0.0)) for j in range(22)],
                                  dtype=np.clongdouble)
                aw = acoeff * masses
                afhat_c = cont_prof @ aw
                scale = max(1.0, float(np.max(np.abs(lam_c * fhat_c))))
                worst_mult = max(worst_mult, float(
                    np.max(np.abs(afhat_c - lam_c * fhat_c))) / scale)
                if len(meas.discrete):
                    afhat_d = disc_prof @ aw
                    worst_mult = max(worst_mult, float(
                        np.max(np.abs(afhat_d - lam_d * fhat_d))) / scale)

    _report(6, "orthogonality dsigma", worst_orth, 1e-8)
    _report(6, "Parseval", worst_par, 1e-8)
    _report(6, "multiplication operator", worst_mult, 1e-9)
    _report(6, "transform round-trip (norm-relative)", worst_rt, 1e-8)


def test_criterion_07_density_identity():
    """|1/c(i nu)|^2 equals the band weight w(cos theta) on a 200-node grid."""
    worst = 0.0
    thetas = np.linspace(0.0, math.pi, 202)[1:-1]
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            ln = math.log(q)
            for sector in (Sector(0, 0), Sector(0, 2), Sector(3, 1)):
                pp = spectral.asc_params(params, sector)
                weights = asc.continuous_weight(thetas, pp)
                for theta, weight in zip(thetas, weights):
                    cval = spectral.c_function(params, sector, 1j * (theta / ln))
                    lhs = 1.0 / abs(cval) ** 2
                    rhs = float(weight)
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(7, "Harish-Chandra density identity", worst, 1e-10)


def test_criterion_08_fock_oracle():
    """Truncated trace equals the closed-form pairing; unit base-point mass."""
    f0, f1, f2 = (LatticeFunction.basis(j) for j in range(3))
    f01 = f0 + f1
    family = (f0, f1, f2, f01)
    worst = 0.0
    for q in (0.4, 0.6):
        for (n, m) in ((2, 2), (2, 3)):
            params = ModelParams(q, n, m)
            for quad in all_quadruples(2):
                for phi in family:
                    for psi in family:
                        o = fockoracle.invariant_integral(params, quad, phi, psi,
                                                          depth=40)
                        c = lattice.hwv_inner_product(params, quad, phi, psi)
                        if c == 0:
                            worst = max(worst, float(abs(o)))
                        else:
                            worst = max(worst, float(abs(o - c) / abs(c)))
    _report(8, "trace oracle vs closed form", worst, 1e-9)
    unit = max(abs(float(fockoracle.invariant_integral(
        ModelParams(q, n, m), Quadruple(0, 0, 0, 0), f0, f0)) - 1.0)
        for q in (0.4, 0.6) for (n, m) in ((2, 2), (2, 3)))
    _report(8, "unit mass of base indicator", unit, 1e-12)


def test_criterion_09_summation_identities():
    """All four identity pairs agree to 1e-12 relative on the stated grids.

    The negative-block identity runs over n in {2, 3, 4} plus the degenerate
    n = 1 cells with k*l*t = 0; for n = 1 with k, l, t all positive the two
    Pochhammer factors collide on the single index and the displayed closed
    form provably does not apply (see test_fockoracle for the pinned
    counterexample).
    """
    worst = 0.0
    for q in Q_GRID:
        for n in (2, 3, 4):
            for k in range(5):
                for l in range(5):
                    for t in range(5):
                        lhs, rhs = fockoracle.negative_block_sum(q, n, k, l, t)
                        worst = max(worst, float(abs(lhs - rhs))
                                    / max(1.0, float(abs(rhs))))
        for k in range(5):
            for l in range(5):
                for t in range(5):
                    if k and l and t:
                        continue
                    lhs, rhs = fockoracle.negative_block_sum(q, 1, k, l, t)
                    worst = max(worst, float(abs(lhs - rhs))
                                / max(1.0, float(abs(rhs))))
        for m in (2, 3, 4):
            for kp in range(5):
                for lp in range(5):
                    lhs, rhs = fockoracle.positive_block_sum(q, m, kp, lp,
                                                             depth=90)
                    worst = max(worst, float(abs(lhs - rhs))
                                / max(1.0, float(abs(rhs))))
        for k in range(5):
            for l in range(5):
                for t in range(5):
                    lhs, rhs = fockoracle.qbinomial_convolution(q, k, l, t)
                    worst = max(worst, float(abs(lhs - rhs))
                                / max(1.0, float(abs(rhs))))
        for x in range(5):
            for y in range(1, 5):
                lhs, rhs = fockoracle.pochhammer_geometric_sum(q, x, y, depth=90)
                worst = max(worst, float(abs(lhs - rhs))
                            / max(1.0, float(abs(rhs))))
    _report(9, "summation identities", worst, 1e-12)


def test_criterion_10_spectrum_geometry():
    """Truncated Jacobi eigenvalues land in band + discrete; the discrete part
    is nonempty exactly when L - Lp < m - n - 1."""
    worst = 0.0
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            for sector in SECTORS:
                spec = spectral.spectrum(params, sector)
                assert (len(spec.discrete) > 0) == \
                    (sector.L - sector.Lp < m - n - 1)
                lo, hi = spec.band
                for x in laplace.jacobi_matrix(params, sector, 400).eigenvalues():
                    d = 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
                    for t in spec.discrete:
                        d = min(d, abs(x - t))
                    worst = max(worst, float(d))
    _report(10, "spectrum geometry", worst, 1e-6)
