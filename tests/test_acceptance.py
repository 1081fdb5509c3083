"""Acceptance suite: one test per exit criterion, at full grid and pinned
tolerance.  Each test prints a single line

    criterion <k> (<name>): residual=<r> threshold=<t> -> PASS/FAIL

(visible with ``pytest -s``; under plain ``pytest -v`` the per-criterion
verdicts appear as the test outcomes).
"""

import itertools
import math

import numpy as np

import mpref
from qlaplace import asc, fockoracle, laplace, lattice, spectral, verify
from qlaplace._rng import Lcg
from qlaplace.cli import RunConfig
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


def all_quadruples(max_entry):
    rng = range(max_entry + 1)
    return [Quadruple(*t) for t in itertools.product(rng, repeat=4)
            if t[0] + t[3] == t[1] + t[2]]


def test_criterion_01_eigenvalue_equation():
    """AΦ = λΦ at 1 <= j <= 30 over the full parameter grid, read through the
    battery's own check and its max(1, |λ|) max_j |Φ_j| yardstick."""
    assert verify.LATTICE_DEPTH == 30
    worst = 0.0
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            for sector in SECTORS:
                cfg = RunConfig(q=q, n=n, m=m, L=sector.L, Lp=sector.Lp)
                worst = max(worst, verify.check_eigenvalue_residual(
                    cfg.params(), cfg.sector(), cfg))
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
                    [ref] = laplace.apply_three_term(params, sector, [f])
                    scale = max(1.0, max(abs(v) for v in ref.values()))
                    outs = [laplace.apply_divergence_form(params, qd, [f])[0]
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
                actions = laplace.apply_three_term(
                    params, sector, [LatticeFunction.basis(j) for j in range(42)])
                pairs = []
                for j in range(41):
                    for k in (j - 1, j, j + 1):
                        if 0 <= k <= 40:
                            pairs += [(actions[j], LatticeFunction.basis(k)),
                                      (LatticeFunction.basis(j), actions[k])]
                values = lattice.inner_product(params, sector, pairs)
                for lhs, rhs in zip(values[::2], values[1::2]):
                    worst = max(worst, float(abs(lhs - rhs) / max(1.0, abs(lhs))))
    _report(3, "operator symmetry", worst, 1e-12)


def test_criterion_04_norm_closed_form():
    """Quadrature norm of f_j equals its closed form for j <= 60."""
    worst = 0.0
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            for sector in SECTORS:
                basis = [LatticeFunction.basis(j) for j in range(61)]
                norms = lattice.inner_product(params, sector, [(f, f) for f in basis])
                for j, via_quadrature in enumerate(norms):
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
                    table = asc.asc_recurrence(15, _LD(z), pp)
                    row = asc.asc_hypergeometric(15, np.array([theta]), pp)[0]
                    for k in range(16):
                        hyp = complex(row[k]).real
                        worst = max(worst, abs(float(table[k]) - hyp)
                                    / max(1.0, abs(float(table[k]))))
    # the named 50-z sweep on one representative family
    pp = spectral.asc_params(ModelParams(0.5, 1, 3), Sector(0, 2))
    for z in zs:
        theta = math.acos(z)
        table = asc.asc_recurrence(15, _LD(z), pp)
        row = asc.asc_hypergeometric(15, np.array([theta]), pp)[0]
        for k in range(16):
            hyp = complex(row[k]).real
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
        cont_prof, disc_prof = spectral.eigenfunction_profile(
            params, sector, np.cos(meas.theta_nodes), meas.discrete, 21)
        masses = lattice.measure_mass(params, sector, np.arange(22))
        w8, disc_m = meas.weights()
        pp = spectral.asc_params(params, sector)

        # orthonormal polynomials, i, j <= 10
        z = np.cos(meas.theta_nodes)
        table = asc.asc_recurrence(10, z.astype(_LD), pp)
        table_d = [asc.asc_recurrence(10, _LD(d.z), pp) for d in meas.discrete]
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
                [af] = laplace.apply_three_term(params, sector, [f])
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
    """|1/c(i nu)|^2 equals the band weight w(cos theta) of KLS 14.8.2,
    evaluated in mpmath, at interior band angles."""
    worst = 0.0
    thetas = np.linspace(0.0, math.pi, 12)[1:-1]
    for (n, m) in NM_GRID:
        for q in Q_GRID:
            params = ModelParams(q, n, m)
            nu = thetas.astype(np.longdouble) / np.log(params.q_ld)
            for sector in (Sector(0, 0), Sector(0, 2), Sector(3, 1)):
                pp = spectral.asc_params(params, sector)
                lhs = 1 / np.abs(spectral.c_function(params, sector, 1j * nu)) ** 2
                worst = max(worst, *(mpref.rel_err(got, mpref.band_weight(theta, pp))
                                     for theta, got in zip(thetas, lhs)))
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
            quads = list(all_quadruples(2))
            pairs = list(itertools.product(family, family))
            rows = fockoracle.invariant_integral(params, quads, pairs)
            for quad, row in zip(quads, rows):
                for (phi, psi), o in zip(pairs, row):
                    c = lattice.hwv_inner_product(params, quad, phi, psi)
                    if c == 0:
                        worst = max(worst, float(abs(o)))
                    else:
                        worst = max(worst, float(abs(o - c) / abs(c)))
    _report(8, "trace oracle vs closed form", worst, 1e-9)
    unit = max(abs(float(fockoracle.invariant_integral(
        ModelParams(q, n, m), [Quadruple(0, 0, 0, 0)], [(f0, f0)])[0][0]) - 1.0)
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
    n1_cells = [(1, k, l, t) for k, l, t in itertools.product(range(5), repeat=3)
                if not (k and l and t)]
    for q in Q_GRID:
        for lhs, rhs in fockoracle.negative_block_sum(
                q, [*itertools.product((2, 3, 4), range(5), range(5), range(5)),
                    *n1_cells]):
            worst = max(worst, float(abs(lhs - rhs)) / max(1.0, float(abs(rhs))))
        for lhs, rhs in fockoracle.positive_block_sum(
                q, itertools.product((2, 3, 4), range(5), range(5))):
            worst = max(worst, float(abs(lhs - rhs)) / max(1.0, float(abs(rhs))))
        for lhs, rhs in fockoracle.qbinomial_convolution(
                q, itertools.product(range(5), repeat=3)):
            worst = max(worst, float(abs(lhs - rhs)) / max(1.0, float(abs(rhs))))
        for lhs, rhs in fockoracle.pochhammer_geometric_sum(
                q, itertools.product(range(5), range(1, 5))):
            worst = max(worst, float(abs(lhs - rhs)) / max(1.0, float(abs(rhs))))
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
