"""Tests for eigenfunctions, the c-function, the Plancherel measure and the
spectral transform."""

import cmath
import math

import numpy as np
import pytest

from qlaplace import asc
from qlaplace._rng import Lcg
from qlaplace.laplace import apply_three_term, eigenvalue, jacobi_matrix
from qlaplace.lattice import (LatticeFunction, ModelParams, Sector,
                              inner_product, measure_mass)
from qlaplace.qcore import phi32, qpoch
from qlaplace.spectral import (SpectralFunction, asc_params, c_function,
                               continuous_point, discrete_point, eigenfunction,
                               eigenfunction_profile, forward_transform,
                               inverse_transform, inverse_transform_profile,
                               orthonormal_polynomial, plancherel_measure,
                               point_from_exponent, spectrum, transform_grid)

_LD = np.longdouble

CASES = [
    (ModelParams(0.5, 2, 2), Sector(0, 0)),
    (ModelParams(0.5, 1, 3), Sector(0, 2)),   # two mass points
    (ModelParams(0.7, 2, 3), Sector(3, 1)),
    (ModelParams(0.3, 1, 2), Sector(1, 3)),   # band-edge-degenerate measure
]

# sectors whose measure has no mass point exactly on the band edge (for odd
# N the geometric chain a q^(2k) passes through 1 whenever the discrete part
# is nonempty, which the measure constructor reports as degenerate)
MEASURE_CASES = [
    (ModelParams(0.5, 2, 2), Sector(0, 0)),
    (ModelParams(0.5, 1, 3), Sector(0, 2)),
    (ModelParams(0.7, 2, 2), Sector(0, 2)),
    (ModelParams(0.3, 1, 3), Sector(1, 3)),
]


def sample_points(params, sector):
    pts = [continuous_point(t) for t in (math.pi / 6, math.pi / 2, 2.5)]
    pts += [point_from_exponent(params, ell) for ell in (1, 2)]
    pts += [discrete_point(params, sector, d.index)
            for d in asc.mass_points(asc_params(params, sector), strict=False)]
    return pts


# ----------------------------------------------------------- point constructors

def test_point_constructors():
    params = ModelParams(0.5, 1, 3)
    pt = continuous_point(1.0)
    assert pt.kind == "continuous" and abs(pt.z - math.cos(1.0)) < 1e-15
    with pytest.raises(ValueError):
        continuous_point(4.0)
    d = discrete_point(params, Sector(0, 2), 0)
    assert d.kind == "discrete" and d.z > 1 and d.mass_index == 0
    with pytest.raises(ValueError):
        discrete_point(params, Sector(0, 2), 9)
    with pytest.raises(ValueError):
        discrete_point(params, Sector(2, 0), 0)  # empty discrete part
    g = point_from_exponent(params, 1)
    assert g.z > 1 and g.mass_index is None


# ----------------------------------------------------------- eigenfunctions

def test_eigenfunction_is_one_at_base_point():
    for params, sector in CASES:
        for pt in sample_points(params, sector):
            assert eigenfunction(params, sector, pt, 0) == pytest.approx(1.0, rel=1e-15)


def test_eigenfunction_matches_literal_series_small_j():
    """Direct 3phi2 summation oracle at small j.

    The literal terminating sum cancels like p^(-j(j-1)/2), so the oracle is
    run in extended precision and only to moderate depth.
    """
    params, sector = ModelParams(0.7, 2, 2), Sector(1, 1)
    q = _LD(params.q)
    p = q * q
    b = q ** _LD(params.N - 1 + sector.L + sector.Lp)
    c = q ** _LD(2 * (params.n + sector.L))
    for theta in (0.8, 2.1):
        w = np.clongdouble(cmath.exp(1j * theta))
        pt = continuous_point(theta)
        prof = eigenfunction_profile(params, sector, pt, 6)
        for j in range(7):
            direct = phi32(p ** _LD(-j), b / w, b * w, c + 0j * w, p, p,
                           max_terms=j + 2)
            assert float(prof[j]) == pytest.approx(float(np.real(direct)),
                                                   rel=1e-7)


def test_connection_to_asc_polynomials():
    """Lattice values are rescaled recurrence polynomials, j <= 30."""
    for params, sector in CASES:
        pp = asc_params(params, sector)
        A = params.N - 1 + sector.L + sector.Lp
        for pt in sample_points(params, sector):
            prof = eigenfunction_profile(params, sector, pt, 30)
            table = asc._recurrence_table(30, _LD(pt.z), pp)
            scale = max(abs(prof))
            for j in range(31):
                pref = params.q_ld ** _LD(j * A) / qpoch(
                    params.q_ld ** _LD(2 * (params.n + sector.L)),
                    params.q_ld**2, j)
                assert abs(prof[j] - pref * table[j]) <= 1e-10 * scale


def test_eigenvalue_equation_sample():
    for params, sector in CASES:
        for pt in sample_points(params, sector):
            prof = eigenfunction_profile(params, sector, pt, 31)
            f = LatticeFunction({j: prof[j] for j in range(32)})
            af = apply_three_term(params, sector, f)
            lam = eigenvalue(params, pt)
            scale = float(np.max(np.abs(prof[:31])))
            worst = max(float(abs(af.get(j, 0.0) - lam * prof[j]))
                        for j in range(1, 31)) / scale
            assert worst < 1e-10


# ----------------------------------------------------------- c-function

def test_c_function_tends_to_one():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    assert c_function(params, sector, 80.0) == pytest.approx(1.0, abs=1e-15)


def test_c_function_denominator_zero_reported():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    with pytest.raises(ValueError):
        c_function(params, sector, 0.0)  # q^(2*0) = 1 kills the denominator


def test_density_identity_against_weight():
    lnq = {0.5: math.log(0.5), 0.7: math.log(0.7)}
    for params, sector in CASES[:3]:
        pp = asc_params(params, sector)
        ln = math.log(params.q)
        thetas = np.linspace(0.0, math.pi, 52)[1:-1]
        for theta, weight in zip(thetas, asc.continuous_weight(thetas, pp)):
            cval = c_function(params, sector, 1j * (theta / ln))
            lhs = 1.0 / abs(cval) ** 2
            rhs = float(weight)
            assert lhs == pytest.approx(rhs, rel=1e-10)


# ----------------------------------------------------------- measure

def test_plancherel_total_mass_and_discrete_criterion():
    for params, sector in MEASURE_CASES:
        meas = plancherel_measure(params, sector, 128)
        assert abs(float(meas.total_mass()) - 1.0) < 1e-10
        nonempty = sector.L - sector.Lp < params.m - params.n - 1
        assert (len(meas.discrete) > 0) == nonempty


def test_plancherel_band_edge_degeneracy_propagates():
    """For odd N every sector with a discrete part has a mass point landing
    exactly on the band edge; the measure reports it instead of guessing."""
    from qlaplace.asc import DegenerateParameterError

    params, sector = CASES[3]
    with pytest.raises(DegenerateParameterError):
        plancherel_measure(params, sector, 64)
    # the spectrum enumeration simply excludes the edge point
    assert len(spectrum(params, sector).discrete) == 1


def test_plancherel_discrete_examples():
    assert plancherel_measure(ModelParams(0.5, 2, 2), Sector(0, 0), 64).discrete == ()
    meas = plancherel_measure(ModelParams(0.5, 1, 3), Sector(0, 2), 64)
    assert len(meas.discrete) == 2


# ----------------------------------------------------------- transforms

def test_transform_of_base_indicator_is_constant_one():
    for params, sector in CASES[:2]:
        meas = plancherel_measure(params, sector, 64)
        fhat = transform_grid(params, sector, LatticeFunction.basis(0), meas)
        assert np.max(np.abs(np.asarray(fhat.continuous, dtype=float) - 1.0)) < 1e-14
        for v in fhat.discrete:
            assert float(v) == pytest.approx(1.0, rel=1e-14)


def test_transform_of_indicator_closed_form():
    """U f_j = q^(-2j(L+Lp+N-1)) (q^(2j+2); q^2)_{L+n-1} / (q^2; q^2)_{L+n-1}
    times the eigenfunction value at j."""
    params, sector = ModelParams(0.5, 2, 2), Sector(2, 0)
    q = params.q_ld
    g = sector.L + params.n - 1
    for j in (1, 3, 7):
        fj = LatticeFunction.basis(j)
        for pt in sample_points(params, sector):
            got = forward_transform(params, sector, fj, pt)
            pref = q ** _LD(-2 * j * (sector.L + sector.Lp + params.N - 1)) \
                * qpoch(q ** _LD(2 * j + 2), q * q, g) / qpoch(q * q, q * q, g)
            want = pref * eigenfunction(params, sector, pt, j)
            assert float(got) == pytest.approx(float(want), rel=1e-13)


def test_transform_of_orthonormal_basis_is_orthonormal_polynomial():
    for params, sector in CASES[:2]:
        for j in (0, 2, 5):
            ej = LatticeFunction({j: 1.0 / np.sqrt(measure_mass(params, sector, j))})
            for pt in sample_points(params, sector):
                lhs = float(forward_transform(params, sector, ej, pt))
                rhs = float(orthonormal_polynomial(params, sector, j, pt))
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_orthonormal_polynomial_base_case():
    params, sector = ModelParams(0.5, 1, 3), Sector(0, 2)
    for pt in sample_points(params, sector):
        assert float(orthonormal_polynomial(params, sector, 0, pt)) == 1.0


def test_orthonormal_polynomials_first_moment():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    meas = plancherel_measure(params, sector, 257)
    z = np.cos(meas.theta_nodes)
    p0 = np.ones_like(z)
    pp = asc_params(params, sector)
    q1 = np.asarray(asc._recurrence_table(1, z.astype(_LD), pp)[1])
    q1 = q1 / np.sqrt(float(qpoch(pp.base, pp.base, 1))
                      * float(qpoch(_LD(pp.a) * _LD(pp.b), pp.base, 1)))
    assert abs(float(meas.integrate(p0 * q1, []))) < 1e-9


def test_parseval_and_roundtrip():
    rng = Lcg(77)
    for params, sector in CASES[:2]:
        meas = plancherel_measure(params, sector, 257)
        for _ in range(5):
            f = rng.lattice_function(12)
            fhat = transform_grid(params, sector, f, meas)
            nrm = inner_product(params, sector, f, f)
            par = meas.integrate(np.abs(np.asarray(fhat.continuous)) ** 2,
                                 [abs(v) ** 2 for v in fhat.discrete])
            assert abs(par - nrm) <= 1e-10 * abs(nrm)
            rec = inverse_transform_profile(params, sector, fhat, 13)
            err = rec - f
            rel = np.sqrt(abs(inner_product(params, sector, err, err))
                          / abs(nrm))
            assert rel < 1e-10


def test_roundtrip_of_base_indicator():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    meas = plancherel_measure(params, sector, 128)
    fhat = transform_grid(params, sector, LatticeFunction.basis(0), meas)
    assert inverse_transform(params, sector, fhat, 0) == pytest.approx(1.0, abs=1e-12)
    assert abs(inverse_transform(params, sector, fhat, 3)) < 1e-12


def test_inverse_of_zero():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    meas = plancherel_measure(params, sector, 64)
    fhat = SpectralFunction(meas, np.zeros(64), ())
    assert inverse_transform(params, sector, fhat, 2) == 0.0


def test_inconsistent_grid_rejected():
    params, sector = ModelParams(0.5, 1, 3), Sector(0, 2)
    meas = plancherel_measure(params, sector, 64)
    with pytest.raises(ValueError, match="sampling"):
        SpectralFunction(meas, np.zeros(32), (0.0, 0.0))
    with pytest.raises(ValueError, match="discrete"):
        SpectralFunction(meas, np.zeros(64), (0.0,))


def test_multiplication_operator_property():
    rng = Lcg(88)
    for params, sector in CASES[:2]:
        meas = plancherel_measure(params, sector, 257)
        lam = np.array([float(eigenvalue(params, math.cos(t)))
                        for t in meas.theta_nodes])
        lam_d = [float(eigenvalue(params, d.z)) for d in meas.discrete]
        for _ in range(3):
            f = rng.lattice_function(10)
            af = apply_three_term(params, sector, f)
            fhat = transform_grid(params, sector, f, meas)
            afhat = transform_grid(params, sector, af, meas)
            scale = max(1.0, float(np.max(np.abs(lam * np.asarray(fhat.continuous)))))
            resid = np.max(np.abs(np.asarray(afhat.continuous)
                                  - lam * np.asarray(fhat.continuous))) / scale
            assert resid < 1e-9
            for va, vf, lm in zip(afhat.discrete, fhat.discrete, lam_d):
                assert abs(va - lm * vf) / scale < 1e-9


# ----------------------------------------------------------- spectrum

def test_spectrum_band_endpoints():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    spec = spectrum(params, sector)
    q, N = params.q, params.N
    D = (1 - q**2) * (1 - q ** (2 * (N - 1)))
    assert spec.band[1] == pytest.approx(-q * (1 - q ** (N - 1)) ** 2 / D, rel=1e-13)
    assert spec.band[1] < 0
    assert spec.band[0] == pytest.approx(float(eigenvalue(params, -1.0)))
    assert spec.discrete == ()


def test_spectrum_discrete_part():
    params, sector = ModelParams(0.5, 1, 3), Sector(0, 2)
    spec = spectrum(params, sector)
    assert len(spec.discrete) == 2
    assert all(lam > spec.band[1] for lam in spec.discrete)
    assert all(lam <= 1e-15 for lam in spec.discrete)


def test_jacobi_truncation_converges_into_spectrum():
    for params, sector in CASES:
        spec = spectrum(params, sector)
        ev = jacobi_matrix(params, sector, 400).eigenvalues()
        lo, hi = spec.band
        for x in ev:
            d = 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            for t in spec.discrete:
                d = min(d, abs(x - t))
            assert d < 1e-6
