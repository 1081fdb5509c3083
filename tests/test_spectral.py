"""Tests for eigenfunctions, the c-function, the Plancherel measure and the
spectral transform."""

import math

import numpy as np
import pytest

import mpref
import scalarref
from qlaplace import asc, spectral
from qlaplace._rng import Lcg
from qlaplace.laplace import (JacobiMatrix, apply_three_term, eigenvalue,
                              jacobi_matrix)
from qlaplace.lattice import (LatticeFunction, ModelParams, Sector,
                              inner_product, measure_mass)
from qlaplace.qcore import qpoch
from qlaplace.spectral import (SpectralFunction, asc_params, c_function,
                               eigenfunction_profile, inverse_transform_profile,
                               plancherel_measure, point_from_exponent, spectrum,
                               transform_grid)

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
    """Band and off-band z values, as a ``longdouble`` array, and the
    sector's mass points."""
    z = [math.cos(t) for t in (math.pi / 6, math.pi / 2, 2.5)]
    z += [point_from_exponent(params, ell) for ell in (1, 2)]
    return (np.array(z, dtype=_LD),
            asc.mass_points(asc_params(params, sector), strict=False))


def sample_profiles(params, sector, max_j):
    """(z, profile) at every sample point, from one profile call."""
    z, masses = sample_points(params, sector)
    cont, disc = eigenfunction_profile(params, sector, z, masses, max_j)
    return list(zip([*z, *(_LD(d.z) for d in masses)], [*cont, *disc]))


# ----------------------------------------------------------- point constructors

def test_point_constructors():
    params = ModelParams(0.5, 1, 3)
    g = point_from_exponent(params, 1)
    assert type(g) is float and g > 1


# ----------------------------------------------------------- eigenfunctions

def test_eigenfunction_is_one_at_base_point():
    for params, sector in CASES:
        z, masses = sample_points(params, sector)
        cont, disc = eigenfunction_profile(params, sector, z, masses, 0)
        assert cont.shape == (len(z), 1) and disc.shape == (len(masses), 1)
        for prof in [*cont, *disc]:
            assert prof[0] == pytest.approx(1.0, rel=1e-15)


def test_eigenfunction_matches_literal_series_small_j():
    """The profile against the literal terminating 3phi2 of its definition,
    summed in mpmath at w = z + i sqrt(1 - z^2) of the point's own z, at
    j <= 30.

    The literal sum cancels like p^(-j(j-1)/2); mpmath raises its precision
    until 50 digits survive.  Errors are in the units of
    ``mpref.profile_error``; the measured worst case is 2.5e-19 (1.2e-19
    at j <= 6).
    """
    params, sector = ModelParams(0.7, 2, 2), Sector(1, 1)
    pp = asc_params(params, sector)
    z = [math.cos(theta) for theta in (0.8, 2.1)]
    cont, _ = eigenfunction_profile(params, sector, np.array(z, dtype=_LD), (), 30)
    for zt, prof in zip(z, cont):
        literal = [mpref.eigenfunction(j, pp, mpref.band_w(zt)) for j in range(31)]
        assert mpref.profile_error(prof, literal, pp) <= 1e-18


def test_connection_to_asc_polynomials():
    """Lattice values are rescaled recurrence polynomials, j <= 30."""
    for params, sector in CASES:
        pp = asc_params(params, sector)
        A = params.N - 1 + sector.L + sector.Lp
        for z, prof in sample_profiles(params, sector, 30):
            table = asc.asc_recurrence(30, z, pp)
            scale = max(abs(prof))
            for j in range(31):
                pref = params.q_ld ** _LD(j * A) / qpoch(
                    params.q_ld ** _LD(2 * (params.n + sector.L)),
                    params.q_ld**2, j)
                assert abs(prof[j] - pref * table[j]) <= 1e-10 * scale


def test_eigenvalue_equation_sample():
    for params, sector in CASES:
        for z, prof in sample_profiles(params, sector, 31):
            [af] = apply_three_term(params, sector,
                                    [LatticeFunction({j: prof[j] for j in range(32)})])
            lam = eigenvalue(params, z)
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


def _reference_profile(params, sector, z, max_j):
    """One-point reference for the eigenfunction profile: the three-term
    recurrence as a scalar loop at z, degree j rescaled by b^j / (ab; q^2)_j."""
    pp = asc_params(params, sector)
    a, b, base = pp.a, pp.b, pp.base
    z = _LD(z)
    out = np.empty(max_j + 1, dtype=_LD)
    prev, cur = _LD(0.0), _LD(1.0)
    scale, ppow = _LD(1.0), _LD(1.0)
    for k in range(max_j + 1):
        out[k] = cur * scale
        prev, cur = cur, 2 * z * cur - (a + b) * base**k * cur \
            - (1 - base**k) * (1 - a * b * base ** (k - 1)) * prev
        scale = scale * (b / (1 - a * b * ppow))
        ppow = ppow * base
    return out


@pytest.mark.parametrize("q", [0.3, 0.5, 0.95])
@pytest.mark.parametrize("n, m, lp", [(2, 2, 0), (2, 4, 2)])
def test_array_kernel_equals_one_point_reference(q, n, m, lp):
    """Every node of the profile matrix and an off-band point keep the bits
    of the one-point recurrence at the same z; the hypergeometric path at an
    imaginary angle keeps the bits of the one-point convolution."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == (2 if lp else 0)
    z = point_from_exponent(params, 1)
    for J in (0, 1, 16, 60):
        cont, _ = eigenfunction_profile(params, sector, np.cos(meas.theta_nodes),
                                        meas.discrete, J)
        ref = np.array([_reference_profile(params, sector, np.cos(t), J)
                        for t in meas.theta_nodes])
        assert cont.dtype == _LD and np.array_equal(cont, ref)
        [got], _ = eigenfunction_profile(params, sector, np.array([z], dtype=_LD), (), J)
        assert np.array_equal(got, _reference_profile(params, sector, z, J))
    pp = asc_params(params, sector)
    for theta in (0.7j, -1.3j):
        w = np.exp(np.clongdouble(1j) * np.clongdouble(theta))
        for k in (0, 1, 16, 60):
            C, conv = _reference_convolution_table(k, w, pp.a, pp.b, pp.base)
            ref = complex(w ** (-k) * C[k] * conv[k]).real
            got = asc.asc_hypergeometric(k, np.array([theta]), pp)[0, k]
            assert complex(got).real == ref


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
            C, conv = asc._convolution_table(J, w, pp.a, pp.b, pp.base)
            for row, wr in zip(conv, w):
                C_ref, ref = _reference_convolution_table(J, wr, pp.a, pp.b, pp.base)
                assert np.array_equal(row, ref)
            assert np.array_equal(C, C_ref)
    masses = asc.mass_points(pp)
    assert len(masses) == (5 if lp else 0)
    for J in (0, 1, 15, 60):
        _, disc = eigenfunction_profile(params, sector, np.empty(0, dtype=_LD),
                                        masses, J)
        for d, got in zip(masses, disc):
            assert got.dtype == _LD and np.array_equal(
                got, _reference_mass_point_profile(params, sector, d.index, J))


@pytest.mark.parametrize("q, n, m, lp, count", [(0.3, 1, 6, 5, 5),
                                                (0.5, 2, 4, 2, 2)])
def test_eigenfunction_profile_at_one_mass_point_is_its_row(q, n, m, lp, count):
    """A DiscreteMass of the sector runs the terminating sum: its profile
    alone is its row of the plan's profiles, bit for bit."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == count
    for J in (0, 1, 30, 60):
        plan = spectral._TransformPlan(params, sector, meas, J)
        for d, row in zip(meas.discrete, plan.disc):
            cont, [got] = eigenfunction_profile(params, sector, np.empty(0, dtype=_LD),
                                                [d], J)
            assert cont.shape == (0, J + 1) and got.dtype == _LD
            assert np.array_equal(got, row)


@pytest.mark.parametrize("q, n, m, lp, count", [(0.3, 1, 6, 5, 5),
                                                (0.5, 2, 4, 2, 2),
                                                (0.95, 2, 2, 0, 0)])
def test_eigenfunction_profile_rows_do_not_depend_on_the_other_points(
        q, n, m, lp, count):
    """In a call with a measure's z values and its mass points, every row
    has the bits of the same row from a z-only call and from a masses-only
    call."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == count
    z = np.cos(meas.theta_nodes)
    for J in (0, 1, 30, 60):
        cont, disc = eigenfunction_profile(params, sector, z, meas.discrete, J)
        assert cont.shape == (len(z), J + 1) and disc.shape == (count, J + 1)
        z_only, no_disc = eigenfunction_profile(params, sector, z, (), J)
        no_cont, masses_only = eigenfunction_profile(params, sector, z[:0],
                                                     meas.discrete, J)
        assert no_disc.shape == no_cont.shape == (0, J + 1)
        assert _identical(cont, z_only) and _identical(disc, masses_only)


@pytest.mark.parametrize("params,sector,count", [
    (ModelParams(0.3, 1, 6), Sector(0, 5), 5),
    (ModelParams(0.5, 2, 4), Sector(0, 2), 2)], ids=["5mass", "transform-deep"])
def test_mass_point_series_of_all_points_is_each_point_alone(params, sector, count):
    """One call over every mass point of a sector gives each point's row
    with the bits of the call on that point alone, also for a reordered
    subset of the points."""
    pp = asc_params(params, sector)
    masses = asc.mass_points(pp)
    assert len(masses) == count
    for J in (0, 1, 12, 60):
        rows = asc._mass_point_series(J, masses, pp)
        assert rows.shape == (count, J + 1) and rows.dtype == _LD
        for d, row in zip(masses, rows):
            assert _identical(row, asc._mass_point_series(J, [d], pp)[0])
        assert _identical(asc._mass_point_series(J, masses[::-2], pp), rows[::-2])
    assert asc._mass_point_series(60, (), pp).shape == (0, 61)


def _reference_mass_point_sum(j, kd, p):
    """S_j at the mass point of index kd, one point and one j at a time: the
    terms t_0..t_kd of the terminating series with scalar powers of base,
    each added to a sum from 0 and the next formed only while one is left."""
    a, b, base = p.a, p.b, p.base

    def pw(e):
        return base ** _LD(e)
    tot, term = _LD(0), _LD(1)
    for i in range(kd + 1):
        tot += term
        if i < kd:
            term = term * (1 - pw(i - j)) * (1 - a * a * pw(kd + i)) \
                * (1 - pw(i - kd)) * base / ((1 - pw(i + 1)) * (1 - a * b * pw(i)))
    return tot


@pytest.mark.parametrize("params,sector,count", [
    (ModelParams(0.3, 1, 6), Sector(0, 5), 5),
    (ModelParams(0.5, 2, 4), Sector(0, 2), 2),
    (ModelParams(0.01, 1, 20), Sector(0, 17), 18),
    (ModelParams(1e-6, 1, 12), Sector(0, 3), 7)],
    ids=["5mass", "transform-deep", "18mass", "7mass"])
def test_mass_point_series_keeps_the_bits_of_the_one_point_loop(params, sector, count):
    """Every S_j equals the one-point, one-j loop's in value and zero sign,
    under the battery's ``errstate``.  The term past the last index is never
    formed: at q = 0.01 and q = 1e-6 it overflows at j = 60 while every sum
    stays finite."""
    pp = asc_params(params, sector)
    masses = asc.mass_points(pp)
    assert len(masses) == count
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        rows = asc._mass_point_series(60, masses, pp)
    assert np.isfinite(rows).all()
    for d, row in zip(masses, rows):
        assert _identical(row, [_reference_mass_point_sum(j, d.index, pp)
                                for j in range(61)])


def test_mass_point_series_matches_the_recurrence_where_it_is_stable():
    """Q_j = (ab; base)_j a^(-j) S_j at every mass point of a sector where the
    forward recurrence still holds its digits at low degree."""
    pp = asc_params(ModelParams(0.9, 1, 6), Sector(0, 5))
    a, b, base = _LD(pp.a), _LD(pp.b), _LD(pp.base)
    masses = asc.mass_points(pp)
    assert len(masses) == 5
    for d, series in zip(masses, asc._mass_point_series(6, masses, pp)):
        z = (_LD(d.w) + 1 / _LD(d.w)) / 2
        table = asc.asc_recurrence(6, z, pp)
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


def test_c_function_takes_a_tiny_nonzero_denominator():
    """At q = 0.999 the denominator (q; q^2)_inf ~ e^-822 is far below the
    double range but not 0: c is returned, and matches its 50-digit
    reference (measured 1.0e-15: about 1,150 head factors of 1 - t near 0);
    arg = 0, where u^2 = 1 makes it exactly 0, still raises."""
    params, sector = ModelParams(0.999, 2, 2), Sector(0, 0)
    got = c_function(params, sector, 0.5)
    assert 0 < abs(got) < 1e-300
    ref = mpref.c_function(asc_params(params, sector), params.q_ld, 0.5)
    assert mpref.rel_err(got, ref) <= 5e-15
    with pytest.raises(ValueError, match="vanishes at arg=0"):
        c_function(params, sector, np.array([0.5, 0.0]))


def test_density_identity_against_weight():
    """1/|c(i nu)|^2 against the band weight of KLS 14.8.2 in mpmath."""
    for params, sector in CASES[:3]:
        pp = asc_params(params, sector)
        thetas = np.linspace(0.0, math.pi, 20)[1:-1]
        nu = thetas.astype(_LD) / np.log(params.q_ld)
        lhs = 1 / np.abs(c_function(params, sector, 1j * nu)) ** 2
        for theta, got in zip(thetas, lhs):
            assert mpref.rel_err(got, mpref.band_weight(theta, pp)) <= 1e-10


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
        assert not fhat.continuous.imag.any() and not fhat.discrete.imag.any()
        assert np.max(np.abs(fhat.continuous.real - 1.0)) < 1e-14
        for v in fhat.discrete.real:
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
        assert not got.continuous.imag.any()
        pref = q ** _LD(-2 * j * (sector.L + sector.Lp + params.N - 1)) \
            * qpoch(q ** _LD(2 * j + 2), q * q, g) / qpoch(q * q, q * q, g)
        z = np.array([math.cos(float(t)) for t in meas.theta_nodes], dtype=_LD)
        cont, _ = eigenfunction_profile(params, sector, z, (), j)
        for val, want in zip(got.continuous.real, pref * cont[:, j]):
            assert float(val) == pytest.approx(float(want), rel=1e-13)


def _orthonormal_polynomial(params, sector, j, z):
    """p_j(z): the Al-Salam-Chihara polynomial over sqrt((p; p)_j (ab; p)_j),
    orthonormal for the Plancherel measure, with p_0 = 1."""
    pp = asc_params(params, sector)
    p = _LD(pp.base)
    return asc.asc_recurrence(j, _LD(z), pp)[j] \
        / np.sqrt(qpoch(p, p, j) * qpoch(_LD(pp.a) * _LD(pp.b), p, j))


def test_transform_of_orthonormal_basis_is_orthonormal_polynomial():
    """U e_j = p_j on the measure's nodes and at its mass points."""
    for params, sector in CASES[:2]:
        meas = plancherel_measure(params, sector, 64)
        plan = spectral._TransformPlan(params, sector, meas, 5)
        for j in (0, 2, 5):
            ej = LatticeFunction({j: 1.0 / np.sqrt(measure_mass(params, sector, j))})
            [cont], [disc] = plan.forward([ej])
            assert not cont.imag.any() and not disc.imag.any()
            for t, val in zip(meas.theta_nodes, cont.real):
                want = _orthonormal_polynomial(params, sector, j, np.cos(t))
                assert float(val) == pytest.approx(float(want), rel=1e-10)
            for d, val in zip(meas.discrete, disc.real):
                want = _orthonormal_polynomial(params, sector, j, d.z)
                assert float(val) == pytest.approx(float(want), rel=1e-10)


def test_orthonormal_polynomials_first_moment():
    params, sector = ModelParams(0.5, 2, 2), Sector(0, 0)
    meas = plancherel_measure(params, sector, 257)
    z = np.cos(meas.theta_nodes)
    p0 = np.ones_like(z)
    pp = asc_params(params, sector)
    q1 = np.asarray(asc.asc_recurrence(1, z.astype(_LD), pp)[1])
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
            [nrm] = inner_product(params, sector, [(f, f)])
            par = meas.integrate(np.abs(np.asarray(fhat.continuous)) ** 2,
                                 [abs(v) ** 2 for v in fhat.discrete])
            assert abs(par - nrm) <= 1e-10 * abs(nrm)
            rec = inverse_transform_profile(params, sector, fhat, 13)
            err = rec - f
            [err_nrm] = inner_product(params, sector, [(err, err)])
            rel = np.sqrt(abs(err_nrm) / abs(nrm))
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
            [af] = apply_three_term(params, sector, [f])
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
    """A plan at depth 16 gives every shallower forward transform, and a
    shallower plan on its measure every inverse transform, the bits of the
    public functions on a fresh measure, which build its tables at the
    function's own depth: the leading profile columns and masses equal a
    shallower build's."""
    meas = plancherel_measure(params, sector, 256)
    plan = spectral._TransformPlan(params, sector, meas, 16)
    rng = Lcg(99)
    for size in (1, 12, 13, 15, 17):
        f = rng.lattice_function(size)
        for g in (f, *apply_three_term(params, sector, [f])):
            if max(g) > 16:
                with pytest.raises(ValueError, match="depth"):
                    plan.forward([g])
                continue
            cont, disc = plan.forward([g])
            want = transform_grid(params, sector, g, plancherel_measure(params, sector, 256))
            assert _same_bits(cont[0], want.continuous)
            assert _same_bits(disc[0], want.discrete)
            for depth in (1, 14, 16):
                [rec] = spectral._TransformPlan(params, sector, meas, depth).inverse(cont, disc)
                fresh = SpectralFunction(plancherel_measure(params, sector, 256),
                                         want.continuous, want.discrete)
                ref = inverse_transform_profile(params, sector, fresh, depth)
                assert rec.support == ref.support
                assert _same_bits([rec[j] for j in rec.support],
                                  [ref[j] for j in ref.support])


def test_transform_plan_rejects_deeper_functions():
    params, sector = ModelParams(0.5, 2, 4), Sector(0, 2)
    meas = plancherel_measure(params, sector, 64)
    plan = spectral._TransformPlan(params, sector, meas, 5)
    with pytest.raises(ValueError, match="depth 6"):
        plan.forward([LatticeFunction.basis(6)])


#: sectors with 0, 2 and 5 mass points
REUSE_CASES = [(ModelParams(0.5, 2, 2), Sector(0, 0), 0),
               (ModelParams(0.5, 2, 4), Sector(0, 2), 2),
               (ModelParams(0.3, 1, 6), Sector(0, 5), 5)]


def _identical(a, b):
    """Equal dtype, shape, values and zero signs, real and imaginary part."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and all(
        np.array_equal(p(a), p(b)) and np.array_equal(np.signbit(p(a)), np.signbit(p(b)))
        for p in (np.real, np.imag))


def _identical_lattice(got, want):
    return got.support == want.support and _identical(
        [got[j] for j in got.support], [want[j] for j in want.support])


def _stacked_reference_profile(params, sector, z, discrete, J):
    """The profile as built from a list of per-degree arrays: the per-degree
    recurrence loop stacked point-major and scaled, and per mass point the
    ratio power times the terminating sum."""
    pp = asc_params(params, sector)
    ppow = asc._running_products(np.full(J, pp.base))
    scale = asc._running_products(pp.b / (1 - pp.a * pp.b * ppow[:-1]))
    cont = np.stack(scalarref.recurrence_table(J, z, pp), axis=-1) * scale
    disc = np.array([(pp.b / pp.a) ** np.arange(J + 1).astype(_LD)
                     * asc._mass_point_series(J, [d], pp)[0] for d in discrete],
                    dtype=_LD).reshape(len(discrete), J + 1)
    return cont, disc


def test_in_place_profile_table_keeps_the_bits_of_the_stacked_one():
    """At the J = 60 round-trip benchmark's point set (q = 0.5, n = 2, m = 4,
    L = 0, L' = 2, 256 nodes and 2 mass points) the profile written into one
    degree-major table equals the stacked per-degree arrays, values and
    dtype, and a round trip through the public functions equals one through
    a plan holding those stacked arrays."""
    params, sector = ModelParams(0.5, 2, 4), Sector(0, 2)
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.theta_nodes) == 256 and len(meas.discrete) == 2
    z = np.cos(meas.theta_nodes)
    for J in (0, 1, 16, 60):
        got = eigenfunction_profile(params, sector, z, meas.discrete, J)
        want = _stacked_reference_profile(params, sector, z, meas.discrete, J)
        for g, w in zip(got, want):
            assert g.shape == w.shape and _identical(g, w)
    f = Lcg(60).lattice_function(61)
    rec = inverse_transform_profile(params, sector, transform_grid(params, sector, f, meas), 60)
    plan = spectral._TransformPlan(params, sector, meas, 60)
    plan.cont, plan.disc = _stacked_reference_profile(params, sector, z, meas.discrete, 60)
    assert plan.cont.flags.c_contiguous and not plan.cont.flags.f_contiguous
    [want] = plan.inverse(*plan.forward([f]))
    assert rec.support == tuple(range(61)) and _identical_lattice(rec, want)


def _count_table_builds(monkeypatch):
    """Record (kernel, depth) for every run of the recurrence table or the
    mass-point series, through the measure's tables or a profile call."""
    builds = []

    def counted(kernel, name):
        def run(kmax, *args):
            builds.append((name, kmax))
            return kernel(kmax, *args)
        return run

    for module in (asc, spectral):
        for name in ("asc_recurrence", "_mass_point_series"):
            monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    return builds


def _count_vector_builds(monkeypatch):
    """Record the depth of every run of the profile-vector helper, through
    the measure or a profile call."""
    builds = []
    helper = asc._profile_vectors

    def run(p, sums):
        builds.append(sums.shape[1] - 1)
        return helper(p, sums)

    for module in (asc, spectral):
        monkeypatch.setattr(module, "_profile_vectors", run)
    return builds


@pytest.mark.parametrize("params,sector,masses", REUSE_CASES, ids=["0mass", "2mass", "5mass"])
def test_transforms_on_one_measure_run_the_recurrence_once(
        params, sector, masses, monkeypatch):
    """The first transform on a measure runs the recurrence table, the
    mass-point series and the profile-vector helper once each; later
    forwards, inverses, plans and ``polynomials`` at equal or smaller depth
    run none of them, and every inverse reads the weights the first built."""
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == masses
    rng = Lcg(5)
    f = rng.lattice_function(21)
    builds = _count_table_builds(monkeypatch)
    vectors = _count_vector_builds(monkeypatch)
    fhat = transform_grid(params, sector, f, meas)
    assert builds == [("asc_recurrence", 20), ("_mass_point_series", 20)]
    assert vectors == [20]
    inverse_transform_profile(params, sector, fhat, 20)
    nodes, mass_weights = meas.weights()
    for depth in (20, 11, 0):
        inverse_transform_profile(params, sector, fhat, depth)
    transform_grid(params, sector, rng.lattice_function(12), meas)
    spectral._TransformPlan(params, sector, meas, 15).forward(
        [rng.lattice_function(16), rng.lattice_function(3)])
    meas.polynomials(20)
    assert len(builds) == 2 and vectors == [20]
    assert meas.weights()[0] is nodes and meas.weights()[1] is mass_weights


def test_a_deeper_read_rebuilds_once_and_shallower_reads_keep_fresh_bits(monkeypatch):
    """At the round-trip benchmark's sector a read deeper than the tables
    rebuilds them once, at that depth; every read then has the bits of a
    fresh build at its own depth, and so do the profiles and round trips
    of the plans that scale them."""
    params, sector = ModelParams(0.5, 2, 4), Sector(0, 2)
    meas = plancherel_measure(params, sector, 256)
    pp = meas.params
    fresh = {J: (asc.asc_recurrence(J, meas.z, pp), asc._mass_point_series(J, meas.discrete, pp),
                 eigenfunction_profile(params, sector, meas.z, meas.discrete, J),
                 asc._profile_vectors(pp, asc._mass_point_series(J, meas.discrete, pp)))
             for J in (0, 5, 17, 30, 60)}
    f = Lcg(17).lattice_function(31)
    plans = {J: spectral._TransformPlan(params, sector, meas, J) for J in (5, 30, 60)}
    for J, plan in plans.items():
        plan.cont, plan.disc = fresh[J][2]
    fhat = plans[30].forward([f])
    want = {J: plan.inverse(*fhat)[0] for J, plan in plans.items()}
    meas = plancherel_measure(params, sector, 256)
    builds = _count_table_builds(monkeypatch)
    vectors = _count_vector_builds(monkeypatch)
    meas._tables(5)
    assert builds == [("asc_recurrence", 5), ("_mass_point_series", 5)]
    meas._profiles(5)
    assert len(builds) == 2 and vectors == [5]
    meas._profiles(30)
    assert builds[2:] == [("asc_recurrence", 30), ("_mass_point_series", 30)]
    assert vectors == [5, 30]
    for J in (0, 5, 17, 30):
        band, sums = meas._tables(J)
        assert _identical(band, fresh[J][0]) and _identical(sums, fresh[J][1])
        held_band, scale, disc = meas._profiles(J)
        assert held_band.base is band.base
        assert _identical(scale, fresh[J][3][0]) and _identical(disc, fresh[J][3][1])
        plan = spectral._TransformPlan(params, sector, meas, J)
        assert _identical(plan.cont, fresh[J][2][0]) and _identical(plan.disc, fresh[J][2][1])
    for J in (5, 30):
        rec = inverse_transform_profile(params, sector, transform_grid(params, sector, f, meas), J)
        assert _identical_lattice(rec, want[J])
    assert len(builds) == 4 and vectors == [5, 30]
    rec = inverse_transform_profile(params, sector, transform_grid(params, sector, f, meas), 60)
    assert _identical_lattice(rec, want[60])
    assert builds[4:] == [("asc_recurrence", 60), ("_mass_point_series", 60)]
    assert vectors == [5, 30, 60]


def test_measure_tables_are_read_only():
    """Writing into a table the measure serves raises; a plan's ``disc``
    is a read-only view of the measure's profile rows, and its ``cont`` and
    the mass-point values of ``polynomials`` are their own arrays."""
    params, sector = ModelParams(0.5, 2, 4), Sector(0, 2)
    meas = plancherel_measure(params, sector, 64)
    band, sums = meas._tables(8)
    shallow, shallow_sums = meas._tables(3)
    for table in (band, sums, shallow, shallow_sums, meas.polynomials(8)[0]):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    plan = spectral._TransformPlan(params, sector, meas, 8)
    _, _, disc = meas._profiles(8)
    assert plan.disc.base is disc.base and not plan.disc.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        plan.disc[0, 0] = 1
    assert plan.cont.flags.writeable and not np.shares_memory(plan.cont, band)
    keep = band.copy(), sums.copy(), disc.copy()
    plan.cont[...] = 0
    meas.polynomials(8)[1][...] = 0
    assert _identical(band, keep[0]) and _identical(sums, keep[1])
    assert _identical(meas._profiles(8)[2], keep[2])


@pytest.mark.parametrize("params,sector,masses", REUSE_CASES, ids=["0mass", "2mass", "5mass"])
def test_held_profile_vectors_and_weights_are_read_only_with_fresh_bits(
        params, sector, masses):
    """The measure's scale vector, mass-point profile rows and weights are
    read-only; a shallower read of the vectors has the bits of a fresh
    measure's read at that depth, zero signs included, and every
    ``weights`` call returns the arrays of the first, with a fresh
    measure's bits."""
    meas = plancherel_measure(params, sector, 256)
    _, scale, disc = meas._profiles(24)
    nodes, mass_weights = meas.weights()
    assert len(mass_weights) == masses
    for held in (scale, disc, nodes, mass_weights):
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0
    for J in (0, 1, 9, 24):
        fresh = plancherel_measure(params, sector, 256)
        _, want_scale, want_disc = fresh._profiles(J)
        _, got_scale, got_disc = meas._profiles(J)
        assert _identical(got_scale, want_scale) and _identical(got_disc, want_disc)
    fresh = plancherel_measure(params, sector, 256).weights()
    assert meas.weights()[0] is nodes and meas.weights()[1] is mass_weights
    assert _identical(nodes, fresh[0]) and _identical(mass_weights, fresh[1])


@pytest.mark.parametrize("params,sector,masses", REUSE_CASES, ids=["0mass", "2mass", "5mass"])
def test_other_families_on_a_measure_are_refused(params, sector, masses, monkeypatch):
    """Other params or another sector, whose eigenfunctions do not pair with
    the measure, raise from the plan, ``transform_grid`` and
    ``inverse_transform_profile`` before any table is built."""
    meas = plancherel_measure(params, sector, 256)
    f = Lcg(6).lattice_function(14)
    fhat = SpectralFunction(meas, np.ones(len(meas.theta_nodes), dtype=np.clongdouble),
                            np.ones(masses, dtype=np.clongdouble))
    builds = _count_table_builds(monkeypatch)
    for p, s in [(ModelParams(params.q, params.n, params.m + 1), sector),
                 (params, Sector(sector.L + 1, sector.Lp))]:
        assert asc_params(p, s) != meas.params
        for call in (lambda: spectral._TransformPlan(p, s, meas, 13),
                     lambda: transform_grid(p, s, f, meas),
                     lambda: inverse_transform_profile(p, s, fhat, 13)):
            with pytest.raises(ValueError, match="not the measure's"):
                call()
    assert meas._raw is None and builds == []


def test_a_sector_of_the_measure_family_reads_its_tables(monkeypatch):
    """(n, m, L, L') = (1, 2, 1, 0) has the family of (2, 2, 0, 0): its plan
    on that measure reads the measure's tables, built once, and has
    ``eigenfunction_profile``'s bits."""
    meas = plancherel_measure(ModelParams(0.5, 2, 2), Sector(0, 0), 256)
    params, sector = ModelParams(0.5, 1, 2), Sector(1, 0)
    assert asc_params(params, sector) == meas.params
    want = eigenfunction_profile(params, sector, meas.z, meas.discrete, 13)
    builds = _count_table_builds(monkeypatch)
    plan = spectral._TransformPlan(params, sector, meas, 13)
    assert _identical(plan.cont, want[0]) and _identical(plan.disc, want[1])
    assert builds == [("asc_recurrence", 13), ("_mass_point_series", 13)]
    assert meas._raw is not None


@pytest.mark.parametrize("params,sector,masses", REUSE_CASES, ids=["0mass", "2mass", "5mass"])
def test_forward_rows_are_contiguous_and_integrate_as_each_row_alone(
        params, sector, masses):
    """The plan's forward arrays are C-contiguous, so one stacked
    ``integrate`` of |cont|^2 sums each row along its contiguous axis: row
    by row, the bits of that row integrated alone."""
    meas = plancherel_measure(params, sector, 256)
    plan = spectral._TransformPlan(params, sector, meas, 14)
    rng = Lcg(404)
    cont, disc = plan.forward([rng.lattice_function(15) for _ in range(10)])
    assert cont.flags.c_contiguous and disc.flags.c_contiguous
    assert cont.shape == (10, len(meas.theta_nodes)) and disc.shape == (10, masses)
    stacked = meas.integrate(np.abs(cont) ** 2, np.abs(disc) ** 2)
    for total, c, d in zip(stacked, cont, disc):
        assert _identical(total, meas.integrate(np.abs(c.copy()) ** 2,
                                                np.abs(d.copy()) ** 2))


def _same_values(a, b):
    """Equal dtype, shape and values, NaN where NaN, and zero signs
    elsewhere, real and imaginary part (a NaN's sign carries no value)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and all(
        np.array_equal(p(a), p(b), equal_nan=True)
        and np.array_equal(np.signbit(p(a)) & ~np.isnan(p(a)),
                           np.signbit(p(b)) & ~np.isnan(p(b)))
        for p in (np.real, np.imag))


def _plan_layouts(table, disc, cols):
    """The matrices a plan multiplies at ``cols`` columns, laid out as the
    plan passes them: the forward's F-ordered ``table.T[:, :cols]`` and
    C-ordered mass part ``disc[:, :cols]``, and the inverse's C-ordered
    ``.T`` view of the first and F-ordered ``.T`` view of the second."""
    cont, part = table.T[:, :cols], disc[:, :cols]
    return cont, part, cont.T, part.T


@pytest.mark.parametrize("kind", ["complex", "zeros", "minus_zero_imag", "real",
                                  "inf_next_to_zero"])
def test_split_product_equals_the_complex_product(kind):
    """``_matmul`` gives the values and zero signs of the literal
    ``mat @ cols`` (M cast to complex for a complex V) on every layout the
    plan passes, at the full depth and a shallower one, also with a 0-row
    mass part, for 1 and 13 columns, and each column the bits of M times
    that column alone; a real V keeps a real result.  An inf profile entry
    next to a zero coefficient gives NaN, and raises under
    ``errstate(invalid="raise")``, as the literal product does."""
    rng = np.random.default_rng(8)
    J, nodes = 60, 40
    table = rng.uniform(-1, 1, (J + 1, nodes)).astype(_LD)  # degree-major
    disc = rng.uniform(-1, 1, (3, J + 1)).astype(_LD)        # one row per point
    for mat in (table, disc):
        mat[rng.random(mat.shape) < 0.3] = 0.0
        mat[rng.random(mat.shape) < 0.1] = -0.0
    if kind == "inf_next_to_zero":
        table[4:8, ::5], disc[:, 4:8] = np.inf, -np.inf

    def operand(rows, ncols):
        # the transposed view of a C-ordered (ncols, rows) stack, as the
        # plan forms its right-hand sides
        re, im = (rng.uniform(-1, 1, (ncols, rows)).astype(_LD) for _ in range(2))
        if kind in ("zeros", "inf_next_to_zero"):
            re[:, 3::3], im[:, 5::2] = 0.0, 0.0
        if kind == "minus_zero_imag":
            re[:, ::4], im[:] = -0.0, -0.0
        if kind == "real":
            return re.T
        V = np.empty((ncols, rows), dtype=np.clongdouble)
        V.real, V.imag = re, im
        return V.T

    mats = [*_plan_layouts(table, disc, J + 1), *_plan_layouts(table, disc, 9),
            disc[:0], disc[:0].T]
    with np.errstate(invalid="ignore"):
        for mat in mats:
            for ncols in (1, 13):
                cols = operand(mat.shape[1], ncols)
                got = spectral._matmul(mat, cols)
                assert _same_values(got, mat @ cols)
                assert got.dtype == (_LD if kind == "real" else np.clongdouble)
                for k in range(ncols):
                    assert _same_values(got[:, k], mat @ cols[:, k])
                    assert _same_values(spectral._matmul(mat, cols[:, k:k + 1])[:, 0],
                                        got[:, k])
        cont, cols = mats[0], operand(J + 1, 13)
        assert np.isnan(spectral._matmul(cont, cols)).any() == (kind == "inf_next_to_zero")
    if kind == "inf_next_to_zero":
        with np.errstate(invalid="raise"):
            for product in (spectral._matmul, np.matmul):
                with pytest.raises(FloatingPointError):
                    product(cont, cols)


def test_plan_round_trip_equals_the_literal_product_plan(monkeypatch):
    """At the round-trip benchmark's config (q = 0.5, (n, m, L, Lp) =
    (2, 4, 0, 2), 256 nodes, J = 60), every forward and inverse value, one
    function at a time and stacked, equals in value and zero sign a plan
    whose products are the literal ``M @ V``.  The ``longdouble`` padding
    bytes may differ between numpy's loops, so no bytes are compared."""
    params, sector = ModelParams(0.5, 2, 4), Sector(0, 2)
    meas = plancherel_measure(params, sector, 256)
    rng = Lcg(60)
    fs = [rng.lattice_function(61) for _ in range(3)]
    fs += [LatticeFunction({j: v.real for j, v in fs[0].items()}),
           LatticeFunction({7: 1.5, 60: -2.0}),
           rng.lattice_function(10)]

    def round_trips():
        """The stacked and one-function forward arrays, then the values of
        the inverses of the stacked ones on plans at depth 60 and 12 and of
        each one-function pair at 60."""
        plan = spectral._TransformPlan(params, sector, meas, 60)
        stacked = plan.forward(fs)
        alone = [plan.forward([f]) for f in fs]
        shallow = spectral._TransformPlan(params, sector, meas, 12)
        recs = [*plan.inverse(*stacked), *shallow.inverse(*stacked)]
        recs += [rec for rows in alone for rec in plan.inverse(*rows)]
        return [*stacked, *(part for rows in alone for part in rows),
                *([rec[j] for j in rec.support] for rec in recs)]

    got = round_trips()
    monkeypatch.setattr(spectral, "_matmul", lambda M, V: M @ V)
    want = round_trips()
    assert len(got) == len(want) == 2 + 2 * len(fs) + 3 * len(fs)
    for g, w in zip(got, want):
        assert _identical(g, w)


@pytest.mark.parametrize("coeffs", [{0: 1.0, 1: -0.5, 3: 0.25},
                                    {0: 1 + 0.5j, 1: -0.5, 3: 0.25j}],
                         ids=["real", "complex"])
def test_forward_transform_values_are_clongdouble_arrays(coeffs):
    params, sector = CASES[1]  # two mass points
    meas = plancherel_measure(params, sector, 64)
    cont, disc = spectral._TransformPlan(params, sector, meas, 3).forward(
        [LatticeFunction(coeffs)])
    assert cont.dtype == disc.dtype == np.clongdouble
    assert cont.shape == (1, len(meas.theta_nodes)) and disc.shape == (1, 2)
    if not any(isinstance(v, complex) for v in coeffs.values()):
        # a real function's transform is real at the nodes and the mass points
        assert not cont.imag.any() and not disc.imag.any()


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


def test_count_below_is_the_number_of_dense_eigenvalues_below():
    """The inertia count against the dense solve at the band edges, between
    the marks and just off each discrete eigenvalue.  On a discrete
    eigenvalue the truncation has one within rounding of x, and rounding
    decides its side: there the count lies between the dense counts a
    rounding margin either side."""
    for params, sector in CASES:
        jm = jacobi_matrix(params, sector, 400)
        ev = jm.eigenvalues()
        spec = spectrum(params, sector)
        marks = sorted([*spec.band, *spec.discrete])
        exact = [*spec.band, *[(u + v) / 2 for u, v in zip(marks, marks[1:])],
                 *[t + s * 1e-9 * abs(t) for t in spec.discrete for s in (-1, 1)]]
        for x in exact:
            assert jm.count_below(x) == np.count_nonzero(ev < x), (params, sector, x)
        tol = 64 * np.finfo(float).eps * np.abs(ev).max()
        for x in spec.discrete:
            assert np.count_nonzero(ev < x - tol) <= jm.count_below(x) \
                <= np.count_nonzero(ev < x + tol), (params, sector, x)


def test_count_below_replaces_a_zero_pivot():
    """[[0, 1], [1, 0]] - 0 I has the zero pivot d_0 = 0, which becomes
    -pivmin: one eigenvalue (-1) below 0, and no division by zero."""
    jm = JacobiMatrix(np.zeros(2), np.ones(1))
    assert [jm.count_below(x) for x in (-2.0, 0.0, 2.0)] == [0, 1, 2]


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


@pytest.mark.parametrize("params,sector,masses", REUSE_CASES, ids=["0mass", "2mass", "5mass"])
def test_stacked_transforms_keep_the_bits_of_each_function_alone(params, sector, masses):
    """One forward call on functions of every depth up to the plan's, the
    empty function and real and complex values, and one inverse call on
    their transforms, on the plan and on a shallower one: each result has
    the bits of the one-function call, and of the public functions, which
    build at the function's own depth."""
    meas = plancherel_measure(params, sector, 256)
    assert len(meas.discrete) == masses
    plan = spectral._TransformPlan(params, sector, meas, 16)
    rng = Lcg(12)
    fs = [rng.lattice_function(size) for size in (1, 5, 12, 17)]
    fs += [LatticeFunction(), LatticeFunction.basis(3),
           LatticeFunction({0: 1.0, 4: -0.5, 9: 0.25})]
    fs += apply_three_term(params, sector, fs[:2])
    cont, disc = plan.forward(fs)
    assert len(cont) == len(disc) == len(fs)
    publics = [transform_grid(params, sector, f, meas) for f in fs]
    for f, c, d, public in zip(fs, cont, disc, publics):
        [c_alone], [d_alone] = plan.forward([f])
        assert _identical(c, c_alone) and _identical(d, d_alone)
        assert _identical(c, public.continuous) and _identical(d, public.discrete)
    for inv in (plan, spectral._TransformPlan(params, sector, meas, 9)):
        recs = inv.inverse(cont, disc)
        assert len(recs) == len(fs)
        for k, (rec, public) in enumerate(zip(recs, publics)):
            [alone] = inv.inverse(cont[k:k + 1], disc[k:k + 1])
            assert _identical_lattice(rec, alone)
            assert _identical_lattice(
                rec, inverse_transform_profile(params, sector, public, inv.max_j))
    cont, disc = plan.forward([])
    assert cont.shape == (0, len(meas.theta_nodes)) and disc.shape == (0, masses)
    assert plan.inverse(cont, disc) == []
