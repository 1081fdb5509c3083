"""Tests for eigenfunctions, the c-function, the Plancherel measure and the
spectral transform."""

import cmath
import math

import numpy as np
import pytest

from qlaplace import asc, spectral
from qlaplace._rng import Lcg
from qlaplace.laplace import apply_three_term, eigenvalue, jacobi_matrix
from qlaplace.lattice import (LatticeFunction, ModelParams, Sector,
                              inner_product, measure_mass)
from qlaplace.qcore import phi32, qpoch
from qlaplace.spectral import (SpectralFunction, asc_params, c_function,
                               continuous_point, eigenfunction_profile,
                               inverse_transform_profile, plancherel_measure,
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
    pts += asc.mass_points(asc_params(params, sector), strict=False)
    return pts


# ----------------------------------------------------------- point constructors

def test_point_constructors():
    params = ModelParams(0.5, 1, 3)
    pt = continuous_point(1.0)
    assert abs(pt.z - math.cos(1.0)) < 1e-15
    with pytest.raises(ValueError):
        continuous_point(4.0)
    g = point_from_exponent(params, 1)
    assert g.z > 1


# ----------------------------------------------------------- eigenfunctions

def test_eigenfunction_is_one_at_base_point():
    for params, sector in CASES:
        for pt in sample_points(params, sector):
            prof = eigenfunction_profile(params, sector, pt, 0)
            assert prof[0] == pytest.approx(1.0, rel=1e-15)


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


# ----------------------------------------------------------- array kernel

def _reference_convolution_table(J, w, a, b, base):
    """One-point reference for asc._convolution_table: a scalar loop over
    the degree, then np.convolve."""
    w, a, b, base = np.clongdouble(w), np.clongdouble(a), np.clongdouble(b), _LD(base)
    A = np.empty(J + 1, dtype=np.clongdouble)
    B = np.empty(J + 1, dtype=np.clongdouble)
    C = np.empty(J + 1, dtype=_LD)
    A[0] = B[0] = 1.0
    C[0] = 1.0
    pw = _LD(1.0)
    for r in range(J):
        A[r + 1] = A[r] * (1 - (a / w) * pw)
        B[r + 1] = B[r] * (1 - (b * w) * pw)
        pw = pw * base
        C[r + 1] = C[r] * (1 - pw)
    wpow = w ** np.arange(J + 1)
    u = A * wpow * wpow / C
    v = B / C
    return C, np.convolve(u, v)[:J + 1]


def _reference_profile(params, sector, w, max_j):
    """One-point reference for the eigenfunction profile: the table above
    rescaled degree by degree by (b/w)^j / (ab; q^2)_j."""
    pp = asc_params(params, sector)
    a, b, p = np.clongdouble(pp.a), np.clongdouble(pp.b), _LD(pp.base)
    w = np.clongdouble(w)
    C, conv = _reference_convolution_table(max_j, w, b, a, p)
    out = np.empty(max_j + 1, dtype=_LD)
    pref = np.clongdouble(1.0)
    ab = a * b
    abpoch = _LD(1.0)
    ppow = _LD(1.0)
    for j in range(max_j + 1):
        out[j] = np.real(pref * C[j] * conv[j] / abpoch)
        pref = pref * (b / w)
        abpoch = abpoch * np.real(1 - ab * ppow)
        ppow = ppow * p
    return out


@pytest.mark.parametrize("q", [0.3, 0.5, 0.95])
@pytest.mark.parametrize("n, m, lp", [(2, 2, 0), (2, 4, 2)])
def test_array_kernel_equals_one_point_reference(q, n, m, lp):
    """Every node of the profile matrix, an off-band real point and an
    imaginary angle keep the bits of the one-point evaluation."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == (2 if lp else 0)
    for J in (0, 1, 16, 60):
        cont, _ = spectral._profile_matrix(params, sector, meas, J)
        ref = np.array([_reference_profile(params, sector,
                                           np.exp(np.clongdouble(1j) * t), J)
                        for t in meas.theta_nodes])
        assert cont.dtype == _LD and np.array_equal(cont, ref)
        pt = point_from_exponent(params, 1)
        assert np.array_equal(eigenfunction_profile(params, sector, pt, J),
                              _reference_profile(params, sector, pt.w, J))
    pp = asc_params(params, sector)
    for theta in (0.7j, -1.3j):
        w = np.exp(np.clongdouble(1j) * np.clongdouble(theta))
        for k in (0, 1, 16, 60):
            C, conv = _reference_convolution_table(k, w, pp.a, pp.b, pp.base)
            ref = complex(w ** (-k) * C[k] * conv[k]).real
            assert asc.asc_hypergeometric(k, theta, pp) == ref


def _reference_mass_point_profile(params, sector, kd, max_j):
    """One-j reference for the mass-point profile: the terminating sum as a
    scalar double loop over j and the series index."""
    pp = asc_params(params, sector)
    a, b, p = _LD(pp.a), _LD(pp.b), _LD(pp.base)
    out = np.empty(max_j + 1, dtype=_LD)
    for j in range(max_j + 1):
        tot = _LD(0.0)
        term = _LD(1.0)
        for i in range(kd + 1):
            tot = tot + term
            term = term * (1 - p ** _LD(i - j)) * (1 - a * a * p ** _LD(kd + i)) \
                * (1 - p ** _LD(i - kd)) * p
            term = term / ((1 - p ** _LD(i + 1)) * (1 - a * b * p ** _LD(i)))
        out[j] = (b / a) ** _LD(j) * tot
    return out


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.95])
@pytest.mark.parametrize("n, m, lp", [(2, 2, 0), (1, 6, 5)])
def test_kernels_equal_the_per_point_loops(q, n, m, lp):
    """The per-degree convolution equals np.convolve row by row, and the
    array mass-point sum equals the one-j loop, bit for bit."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    pp = asc_params(params, sector)
    for nodes in (256, 511):
        theta = np.linspace(0, np.pi, nodes).astype(_LD)
        w = np.exp(np.clongdouble(1j) * theta)
        for J in (0, 1, 15, 60):
            C, conv = asc._convolution_table(J, w, pp.b, pp.a, pp.base)
            for row, wr in zip(conv, w):
                C_ref, ref = _reference_convolution_table(J, wr, pp.b, pp.a, pp.base)
                assert np.array_equal(row, ref)
            assert np.array_equal(C, C_ref)
    masses = asc.mass_points(pp)
    assert len(masses) == (5 if lp else 0)
    for d in masses:
        for J in (0, 1, 15, 60):
            got = spectral._profile_mass_point(params, sector, d.index, J)
            assert got.dtype == _LD and np.array_equal(
                got, _reference_mass_point_profile(params, sector, d.index, J))


@pytest.mark.parametrize("q, n, m, lp, count", [(0.3, 1, 6, 5, 5),
                                                (0.5, 2, 4, 2, 2)])
def test_eigenfunction_profile_takes_a_mass_point_directly(q, n, m, lp, count):
    """A DiscreteMass of the sector runs the terminating sum: its profile is
    the mass-point profile and the profile matrix's row, bit for bit."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == count
    for J in (0, 1, 30, 60):
        _, disc = spectral._profile_matrix(params, sector, meas, J)
        for d, row in zip(meas.discrete, disc):
            got = eigenfunction_profile(params, sector, d, J)
            assert got.dtype == _LD
            assert np.array_equal(
                got, spectral._profile_mass_point(params, sector, d.index, J))
            assert np.array_equal(got, row)


def test_mass_point_series_matches_the_recurrence_where_it_is_stable():
    """Q_j = (ab; base)_j a^(-j) S_j at every mass point of a sector where the
    forward recurrence still holds its digits at low degree."""
    pp = asc_params(ModelParams(0.9, 1, 6), Sector(0, 5))
    a, b, base = _LD(pp.a), _LD(pp.b), _LD(pp.base)
    masses = asc.mass_points(pp)
    assert len(masses) == 5
    for d in masses:
        series = asc._mass_point_series(6, d.index, pp)
        z = (_LD(d.w) + 1 / _LD(d.w)) / 2
        table = asc._recurrence_table(6, z, pp)
        for j in range(7):
            got = qpoch(a * b, base, j) * a ** _LD(-j) * series[j]
            assert abs(got - table[j]) <= 1e-13 * max(1.0, abs(table[j]))


# ----------------------------------------------------------- c-function

def test_c_function_tends_to_one():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    assert c_function(params, sector, 80.0) == pytest.approx(1.0, abs=1e-15)


def test_c_function_denominator_zero_reported():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    with pytest.raises(ValueError):
        c_function(params, sector, 0.0)  # q^(2*0) = 1 kills the denominator


def test_c_function_array_equals_its_scalar_calls():
    for params, sector in CASES:
        args = np.concatenate([1j * np.linspace(0.1, 4.0, 7),
                               [0.3, 2.5 + 0.7j, -0.4 + 1.1j]]).astype(np.clongdouble)
        vals = c_function(params, sector, args)
        assert vals.shape == args.shape
        for arg, val in zip(args, vals):
            assert c_function(params, sector, arg) == val


def test_c_function_array_with_vanishing_denominator_reported():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    with pytest.raises(ValueError, match="at arg=0"):
        c_function(params, sector, np.array([1j, 0.0, 2j]))


def test_density_identity_against_weight():
    for params, sector in CASES[:3]:
        pp = asc_params(params, sector)
        thetas = np.linspace(0.0, math.pi, 52)[1:-1]
        nu = thetas.astype(_LD) / np.log(params.q_ld)
        lhs = 1 / np.abs(c_function(params, sector, 1j * nu)) ** 2
        rhs = asc.continuous_weight(thetas, pp)
        for got, want in zip(lhs, rhs):
            assert float(got) == pytest.approx(float(want), rel=1e-10)


def test_longdouble_is_80_bit_extended():
    assert np.finfo(_LD).nmant >= 63, (
        "the lattice masses, the band weight and the c-function assume an "
        "80-bit x87 longdouble (63 mantissa bits); this platform's longdouble "
        f"has {np.finfo(_LD).nmant}")


# ----------------------------------------------------------- measure

def test_plancherel_total_mass_and_discrete_criterion():
    for params, sector in MEASURE_CASES:
        meas = plancherel_measure(params, sector, 128)
        assert abs(float(meas.total_mass()) - 1.0) < 1e-10
        # both parts keep extended precision
        assert isinstance(meas.normalization, np.longdouble)
        assert all(isinstance(d.mass, np.longdouble) for d in meas.discrete)
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


def test_point_from_exponent_names_an_underflowing_w():
    # q^(2 + N - 1) = 0.01^203 is below the smallest double; a
    # DegenerateParameterError would turn the failing check into a skip
    with pytest.raises(ValueError, match="underflows") as exc:
        point_from_exponent(ModelParams(0.01, 2, 200), 1)
    assert not isinstance(exc.value, asc.DegenerateParameterError)
    assert "ell=1, q=0.01, N=202" in str(exc.value)


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
    times the eigenfunction value at j, on every node of the measure."""
    params, sector = ModelParams(0.5, 2, 2), Sector(2, 0)
    meas = plancherel_measure(params, sector, 64)
    assert meas.discrete == ()
    q = params.q_ld
    g = sector.L + params.n - 1
    for j in (1, 3, 7):
        got = transform_grid(params, sector, LatticeFunction.basis(j), meas)
        pref = q ** _LD(-2 * j * (sector.L + sector.Lp + params.N - 1)) \
            * qpoch(q ** _LD(2 * j + 2), q * q, g) / qpoch(q * q, q * q, g)
        for t, val in zip(meas.theta_nodes, got.continuous):
            pt = continuous_point(float(t))
            want = pref * eigenfunction_profile(params, sector, pt, j)[j]
            assert float(val) == pytest.approx(float(want), rel=1e-13)


def _orthonormal_polynomial(params, sector, j, z):
    """p_j(z): the Al-Salam-Chihara polynomial over sqrt((p; p)_j (ab; p)_j),
    orthonormal for the Plancherel measure, with p_0 = 1."""
    pp = asc_params(params, sector)
    p = _LD(pp.base)
    return asc.asc_recurrence(j, _LD(z), pp) \
        / np.sqrt(qpoch(p, p, j) * qpoch(_LD(pp.a) * _LD(pp.b), p, j))


def test_transform_of_orthonormal_basis_is_orthonormal_polynomial():
    """U e_j = p_j on the measure's nodes and at its mass points."""
    for params, sector in CASES[:2]:
        meas = plancherel_measure(params, sector, 64)
        plan = spectral._TransformPlan(params, sector, meas, 5)
        for j in (0, 2, 5):
            ej = LatticeFunction({j: 1.0 / np.sqrt(measure_mass(params, sector, j))})
            fhat = plan.forward(ej)
            for t, val in zip(meas.theta_nodes, fhat.continuous):
                want = _orthonormal_polynomial(params, sector, j, np.cos(t))
                assert float(val) == pytest.approx(float(want), rel=1e-10)
            for d, val in zip(meas.discrete, fhat.discrete):
                want = _orthonormal_polynomial(params, sector, j, d.z)
                assert float(val) == pytest.approx(float(want), rel=1e-10)


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
    assert inverse_transform_profile(params, sector, fhat, 0).get(0, 0.0) \
        == pytest.approx(1.0, abs=1e-12)
    assert abs(inverse_transform_profile(params, sector, fhat, 3).get(3, 0.0)) < 1e-12


def test_inverse_of_zero():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    meas = plancherel_measure(params, sector, 64)
    fhat = SpectralFunction(meas, np.zeros(64), ())
    assert inverse_transform_profile(params, sector, fhat, 2).get(2, 0.0) == 0.0


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


PLAN_CASES = [(ModelParams(q, n, m), Sector(L, Lp))
              for q in (0.01, 0.3, 0.5, 0.95)
              for n, m, L, Lp in ((2, 2, 0, 0), (2, 4, 0, 2), (1, 6, 0, 5),
                                  (3, 5, 0, 4))]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("params,sector", PLAN_CASES)
def test_transform_plan_slices_keep_the_bits_of_a_fresh_build(params, sector):
    """A plan at depth 16 gives every shallower forward and inverse transform
    the bits of the public functions, which build at the function's own
    depth: the leading profile columns and masses equal a shallower build's."""
    meas = plancherel_measure(params, sector, 256)
    plan = spectral._TransformPlan(params, sector, meas, 16)
    rng = Lcg(99)
    for size in (1, 12, 13, 15, 17):
        f = rng.lattice_function(size)
        for g in (f, apply_three_term(params, sector, f)):
            if max(g) > 16:
                with pytest.raises(ValueError, match="depth"):
                    plan.forward(g)
                continue
            got, want = plan.forward(g), transform_grid(params, sector, g, meas)
            assert _same_bits(got.continuous, want.continuous)
            assert _same_bits(got.discrete, want.discrete)
            for depth in (1, 14, 16):
                rec = plan.inverse(got, depth)
                ref = inverse_transform_profile(params, sector, got, depth)
                assert rec.support == ref.support
                assert _same_bits([rec[j] for j in rec.support],
                                  [ref[j] for j in ref.support])


def test_transform_plan_rejects_deeper_functions():
    params, sector = ModelParams(0.5, 2, 4), Sector(0, 2)
    meas = plancherel_measure(params, sector, 64)
    plan = spectral._TransformPlan(params, sector, meas, 5)
    with pytest.raises(ValueError, match="depth 6"):
        plan.forward(LatticeFunction.basis(6))
    fhat = plan.forward(LatticeFunction.basis(5))
    with pytest.raises(ValueError, match="depth 6"):
        plan.inverse(fhat, 6)
    other = plancherel_measure(params, sector, 64)
    with pytest.raises(ValueError, match="another measure"):
        plan.inverse(SpectralFunction(other, fhat.continuous, fhat.discrete), 5)


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


def test_containment_equals_the_per_eigenvalue_loop_and_keeps_a_nan():
    for params, sector in CASES:
        spec = spectrum(params, sector)
        ev = jacobi_matrix(params, sector, 400).eigenvalues()
        lo, hi = spec.band
        worst = 0.0
        for x in ev:
            d = 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            for t in spec.discrete:
                d = min(d, abs(x - t))
            worst = max(worst, d)
        assert spec.containment(ev) == worst
        assert math.isnan(spec.containment([math.nan]))
        assert math.isnan(spec.containment([lo, math.nan, hi]))
    assert spec.containment([]) == 0.0
