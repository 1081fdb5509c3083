"""Tests for the Al-Salam-Chihara family and its orthogonality measure."""

import math
import runpy
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mpref
import scalarref
from qlaplace import asc, spectral, verify
from qlaplace._rng import Lcg
from qlaplace.asc import (AscParams, DegenerateParameterError,
                          asc_hypergeometric, asc_recurrence, continuous_weight,
                          mass_points, orthogonality_measure,
                          orthogonality_residual)
from qlaplace.cli import RunConfig
from qlaplace.lattice import ModelParams, Sector
from qlaplace.qcore import LD_INF_TOL, qpoch, qpoch_inf

PARAM_SETS = [
    AscParams(a=0.5, b=0.125, base=0.25),          # no discrete part
    AscParams(a=0.5**-3.0, b=0.5**5, base=0.25),   # two mass points
    AscParams(a=0.7**-1.0, b=0.7**5, base=0.49),   # one mass point
    AscParams(a=0.3**-3.0, b=0.3**5, base=0.09),   # small base
]


def _rec(k, z, p):
    """Q_k at ``z`` from the recurrence table."""
    return asc_recurrence(k, z, p)[k]


def _hyp(k, theta, p):
    """Q_k at one angle from the hypergeometric table, as a double."""
    return complex(asc_hypergeometric(k, np.array([theta]), p)[0, k]).real


def test_initial_polynomials():
    p = PARAM_SETS[0]
    for z in (-0.4, 0.0, 0.8):
        assert _rec(0, z, p) == 1.0
        assert _rec(1, z, p) == pytest.approx(2 * z - (p.a + p.b))


def test_base_validation():
    with pytest.raises(ValueError):
        AscParams(a=0.5, b=0.5, base=1.0)
    with pytest.raises(ValueError):
        asc_recurrence(-1, 0.0, PARAM_SETS[0])


def test_parameters_are_stored_in_extended_precision():
    p = PARAM_SETS[0]
    assert [type(v) for v in (p.a, p.b, p.base)] == [np.longdouble] * 3
    # float parameters no longer run the recurrence in double
    ld = AscParams(a=np.longdouble(0.5), b=np.longdouble(0.125),
                   base=np.longdouble(0.25))
    z = np.linspace(-1.0, 1.0, 9)
    got = _rec(12, z, p)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, _rec(12, z, ld))


def test_hypergeometric_initial_values():
    p = PARAM_SETS[1]
    theta = 0.9
    assert _hyp(0, theta, p) == pytest.approx(1.0)
    z = math.cos(theta)
    assert _hyp(1, theta, p) == pytest.approx(
        2 * z - (p.a + p.b), rel=1e-12)


def test_degree_two_cross_representation():
    p = PARAM_SETS[0]
    rng = Lcg(1)
    for _ in range(20):
        theta = math.acos(0.999 * rng.symmetric())
        rec = _rec(2, math.cos(theta), p)
        hyp = _hyp(2, theta, p)
        assert abs(rec - hyp) <= 1e-11 * max(1.0, abs(rec))


@pytest.mark.parametrize("p", PARAM_SETS)
def test_recurrence_vs_hypergeometric_to_degree_15(p):
    rng = Lcg(2)
    for _ in range(25):
        z = 0.999 * rng.symmetric()
        theta = math.acos(z)
        for k in range(16):
            rec = float(_rec(k, np.longdouble(z), p))
            hyp = _hyp(k, theta, p)
            assert abs(rec - hyp) <= 1e-10 * max(1.0, abs(rec))


def test_imaginary_angle_point():
    """Real w > 1 (off-band points) through a pure-imaginary angle shift."""
    p = PARAM_SETS[1]
    w = 1.7
    theta = -1j * math.log(w)  # e^(i theta) = w
    z = (w + 1 / w) / 2
    for k in range(8):
        rec = _rec(k, z, p)
        hyp = _hyp(k, theta, p)
        assert abs(rec - hyp) <= 1e-10 * max(1.0, abs(rec))


def test_stable_path_matches_literal_series_at_small_degree():
    """The convolution evaluation computes the terminating series of its
    definition, summed literally in mpmath, to degree 30.

    The double result carries its final rounding, 2^-53 = 1.1e-16 of
    max(1, |Q_k|); the measured worst case is 9.2e-17 (6.8e-17 at k <= 6).
    """
    for p in (AscParams(a=0.7, b=0.49, base=0.49),
              AscParams(a=0.7**-1.0, b=0.7**4, base=0.49)):
        for theta in (0.5, 1.3, 2.6):
            def w():
                return mpmath.expj(mpref.exact(theta))
            for k in range(31):
                stable = _hyp(k, theta, p)
                literal = mpref.asc_polynomial(k, p, w)
                with mpmath.workdps(mpref.DIGITS):
                    err = abs(mpref.exact(stable) - literal) / max(1, abs(literal))
                assert err <= 1.2e-16


def test_parameter_symmetry():
    """Q_k(z; a, b) = Q_k(z; b, a), verified numerically for k <= 10."""
    for p in PARAM_SETS[:3]:
        swapped = AscParams(a=p.b, b=p.a, base=p.base)
        for z in (-0.7, 0.1, 0.9):
            for k in range(11):
                va = _rec(k, z, p)
                vb = _rec(k, z, swapped)
                assert abs(va - vb) <= 1e-11 * max(1.0, abs(va))


def test_exact_degree_via_divided_differences():
    """Values at k+2 points give leading coefficient 2^k and degree exactly k."""
    p = PARAM_SETS[0]
    for k in (1, 3, 6):
        zs = np.linspace(-0.9, 0.9, k + 2)
        vals = [_rec(k, z, p) for z in zs]
        # Newton divided differences
        dd = list(vals)
        for order in range(1, k + 2):
            dd = [(dd[i + 1] - dd[i]) / (zs[i + order] - zs[i])
                  for i in range(len(dd) - 1)]
            if order == k:
                leading = dd[0]
        assert leading == pytest.approx(2.0**k, rel=1e-9)
        assert abs(dd[0]) <= 1e-7 * 2.0**k  # order k+1 difference vanishes


# ----------------------------------------------------------- measure

def test_no_discrete_part_for_small_a():
    assert mass_points(PARAM_SETS[0]) == ()


def test_discrete_part_enumeration_and_positivity():
    pts = mass_points(PARAM_SETS[1])
    assert len(pts) == 2
    for d in pts:
        assert d.w > 1 and d.z > 1 and d.mass > 0
    assert [d.index for d in pts] == [0, 1]


def test_band_edge_degeneracy_detected():
    with pytest.raises(DegenerateParameterError):
        mass_points(AscParams(a=1.0, b=0.3, base=0.25))
    with pytest.raises(DegenerateParameterError):
        orthogonality_measure(AscParams(a=4.0, b=0.1, base=0.25), 64)
    # non-strict enumeration excludes the edge silently
    assert mass_points(AscParams(a=1.0, b=0.3, base=0.25), strict=False) == ()


def test_zeroth_moment_closed_form():
    p = PARAM_SETS[0]
    meas = orthogonality_measure(p, 257)
    got = float(meas.total_mass())
    want = 1.0 / float(qpoch_inf(p.base, p.base, 1e-18)
                       * qpoch_inf(p.a * p.b, p.base, 1e-18))
    assert got == pytest.approx(want, rel=1e-11)


def test_first_moments_orthogonality():
    p = PARAM_SETS[0]
    assert orthogonality_residual(0, p, 64)[0, 0] < 1e-9
    assert orthogonality_residual(1, p, 64)[0, 1] < 1e-9


@pytest.mark.parametrize("p", PARAM_SETS[:3])
def test_orthogonality_with_and_without_masses(p):
    worst = max(orthogonality_residual(j, p, 128)[i, j]
                for i in range(0, 11, 2) for j in range(i, 11, 3))
    assert worst < 1e-8


def test_quad_nodes_validation():
    with pytest.raises(ValueError):
        orthogonality_measure(PARAM_SETS[0], 8)


def test_weight_positive_on_band():
    p = PARAM_SETS[1]
    for theta in np.linspace(0.1, math.pi - 0.1, 7):
        assert float(continuous_weight(theta, p)) > 0


def test_integrate_grid_consistency():
    meas = orthogonality_measure(PARAM_SETS[1], 64)
    with pytest.raises(ValueError):
        meas.integrate(np.ones(64), [1.0])     # wrong number of mass values
    with pytest.raises(ValueError):
        meas.integrate(np.ones(64), None)      # masses exist but none given
    bare = orthogonality_measure(PARAM_SETS[0], 64)
    assert bare.discrete == ()
    with pytest.raises(ValueError):
        bare.integrate(np.ones(64), [1.0])     # values for masses that do not exist


@pytest.mark.parametrize("q,n,m,L,Lp,count", [(0.5, 2, 2, 0, 0, 0),
                                              (0.5, 1, 3, 0, 2, 2),
                                              (0.3, 1, 6, 0, 5, 5)])
def test_measure_weights_carry_the_normalization_once(q, n, m, L, Lp, count):
    meas = spectral.plancherel_measure(ModelParams(q, n, m), Sector(L, Lp), 64)
    assert len(meas.discrete) == count and meas.normalization != 1
    nodes, masses = meas.weights()
    h = meas.theta_nodes[1] - meas.theta_nodes[0]
    trap = np.full(64, h, dtype=np.longdouble)
    trap[0] /= 2
    trap[-1] /= 2
    assert nodes.dtype == masses.dtype == np.longdouble
    assert np.array_equal(nodes, trap * meas.density * meas.normalization)
    assert np.array_equal(masses, [meas.normalization * d.mass for d in meas.discrete])


@pytest.mark.parametrize("build", [
    lambda: orthogonality_measure(PARAM_SETS[1], 64),
    lambda: spectral.plancherel_measure(ModelParams(0.95, 2, 4), Sector(0, 2), 256),
], ids=["orthogonality", "plancherel"])
def test_density_is_formed_once_on_first_read(monkeypatch, build):
    weight = asc.continuous_weight
    calls = []

    def counting(theta, p):
        calls.append(p)
        return weight(theta, p)

    monkeypatch.setattr(asc, "continuous_weight", counting)
    meas = build()
    assert calls == []
    want = weight(meas.theta_nodes, meas.params) / (2 * np.longdouble(np.pi))
    assert meas.density.dtype == np.longdouble
    assert np.array_equal(meas.density, want)
    meas.weights()
    meas.total_mass()
    assert calls == [meas.params]


# ------------------------------------------------- batched evaluation

#: (n, m, L, Lp): no point mass, and two point masses
SECTORS = [(2, 2, 0, 0), (2, 4, 0, 2)]


def _sector_params(q, n, m, L, Lp):
    return spectral.asc_params(ModelParams(q=q, n=n, m=m), Sector(L=L, Lp=Lp))


def _reference_weight(theta, p):
    """The band weight as the six-product ratio
    h(1) h(-1) h(sqrt(base)) h(-sqrt(base)) / (h(a) h(b)) with
    h(alpha) = (alpha e^(i theta), alpha e^(-i theta); base)_inf."""
    w = np.exp(np.clongdouble(1j) * np.longdouble(theta))
    base = np.longdouble(p.base)
    rt = np.sqrt(base)

    def h(alpha):
        alpha = np.clongdouble(alpha)
        return qpoch_inf(alpha * w, base, 1e-19) \
            * qpoch_inf(alpha * np.conjugate(w), base, 1e-19)

    return np.real(h(1.0) * h(-1.0) * h(rt) * h(-rt) / (h(p.a) * h(p.b)))


_WEIGHT_CASES = [
    pytest.param(sector, q, id=f"sector{k}-{q}")
    for k, sector in enumerate(SECTORS) for q in (0.01, 0.3, 0.5, 0.95)
] + [pytest.param((1, 6, 0, 5), 0.3, id="five_masses-0.3")]  # a ~ 5.1e4


def _assert_one_angle_bits(theta, p):
    """The weight over the array ``theta`` equals its one-angle calls bit
    for bit, signbits included."""
    got = continuous_weight(theta, p)
    want = np.array([continuous_weight(t, p) for t in theta])
    assert got.dtype == want.dtype == np.longdouble and got.shape == theta.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("sector,q", _WEIGHT_CASES)
def test_array_weight_equals_its_one_angle_calls(sector, q):
    p = _sector_params(q, *sector)
    assert len(mass_points(p)) == {2: 0, 4: 2, 6: 5}[sector[1]]
    for nodes in (256, 511):
        _assert_one_angle_bits(np.linspace(0, np.pi, nodes).astype(np.longdouble), p)
    assert np.ndim(continuous_weight(0.7, p)) == 0


@pytest.mark.parametrize("sector,q", _WEIGHT_CASES)
def test_weight_matches_the_six_product_ratio(sector, q):
    """1/|c|^2 against the ratio of the pairs h(alpha), an independent
    product arrangement, on interior nodes (the weight vanishes at 0)."""
    p = _sector_params(q, *sector)
    theta = np.linspace(0, np.pi, 129)[1:-1].astype(np.longdouble)
    got = continuous_weight(theta, p)
    want = np.array([_reference_weight(t, p) for t in theta])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-17


_RT = np.sqrt(np.longdouble(0.9025))


@pytest.mark.parametrize("p,masses", [
    pytest.param(_sector_params(0.95, 2, 2, 0, 0), 0, id="a_is_sqrt_base"),
    pytest.param(AscParams(a=0.6, b=0.6, base=0.9025), 0, id="a_is_b"),
    pytest.param(AscParams(a=-_RT, b=0.4, base=0.9025), 0, id="a_is_minus_sqrt_base"),
    pytest.param(AscParams(a=0.5, b=0.0, base=0.9025), 0, id="b_is_zero"),
    pytest.param(AscParams(a=1.5, b=_RT, base=0.9025), 4, id="a_above_one"),
])
def test_weight_with_shared_rows_equals_its_one_angle_calls(p, masses):
    """a or b equal to 0 (its product is exactly 1), to +-sqrt(base) or to
    each other, and a above one: entries that share a product's values or
    run it to different depths keep their one-angle bits."""
    rt = np.sqrt(p.base)
    assert p.a == p.b or any(x == 0 or abs(x) in (1, rt) for x in (p.a, p.b))
    assert len(mass_points(p)) == masses
    _assert_one_angle_bits(np.linspace(0, np.pi, 129).astype(np.longdouble), p)


@pytest.mark.parametrize("base", [0.25, 0.9025])
def test_masked_products_match_50_digit_references_around_the_split(base):
    """Magnitudes just above, at and just below the log series' split and
    the truncation tolerance, at five phases, against mpmath's product of
    the exact entries.  Just below the split an entry runs no factor, so
    the series alone carries its product at its largest remainder bound.
    Measured worst: 9.7e-20 at base 0.25, 1.0e-19 at 0.9025."""
    base = np.longdouble(base)
    phases = [np.exp(np.clongdouble(1j) * np.longdouble(t))
              for t in (0.0, 0.3, np.pi / 2, 2.0, np.pi)]
    mags = [np.nextafter(edge, step) for edge in (asc._LOG_SPLIT, LD_INF_TOL)
            for step in (np.longdouble(1), np.longdouble(0))]
    mags += [np.longdouble(asc._LOG_SPLIT), np.longdouble(LD_INF_TOL)]
    a = np.array([mag * w for mag in mags for w in phases], dtype=np.clongdouble)
    got = asc._masked_qpoch_inf(a, base)
    with mpmath.workdps(mpref.DIGITS + 10):
        q = mpref.exact(base)
        worst = max(mpref.rel_err(g, mpmath.qp(mpref.exact(x), q))
                    for g, x in zip(got, a))
    assert worst <= 2e-19
    zero = asc._masked_qpoch_inf(np.zeros(2, dtype=np.clongdouble), base)
    assert np.array_equal(zero, np.ones(2, dtype=np.clongdouble))


def _threshold(check):
    return next(threshold for name, fn, threshold, _ in verify.BATTERY if fn is check)


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(q=0.95)], ids=["default", "q0.95"])
@pytest.mark.parametrize("check", [verify.check_density_identity,
                                   verify.check_plancherel_mass],
                         ids=["density_identity", "plancherel_mass"])
def test_products_off_by_1e_8_fail_the_c_function_checks(monkeypatch, cfg, check):
    """The kernel scaled by 1 + 1e-8 moves c by about 1e-8 and the weight by
    2e-8: the c-function's check and the measure's total mass both fail."""
    kernel = asc._masked_qpoch_inf
    monkeypatch.setattr(asc, "_masked_qpoch_inf",
                        lambda a, base: kernel(a, base) * (1 + 1e-8))
    assert check(cfg.params(), cfg.sector(), cfg) > _threshold(check)


def _reference_asc_consistency(params, sector, cfg):
    """check_asc_consistency one angle and one degree at a time."""
    pp = spectral.asc_params(params, sector)
    rng = Lcg(cfg.seed + 303)
    worst = 0.0
    for _ in range(50):
        theta = math.acos(0.999 * rng.symmetric())
        table = asc_recurrence(15, np.cos(np.longdouble(theta)), pp)
        for k in range(16):
            hyp = np.real(asc_hypergeometric(k, np.array([theta]), pp)[0, k])
            worst = max(worst, scalarref.rel(hyp, table[k]))
    return worst


@pytest.mark.parametrize("q", [0.01, 0.5, 0.95])
def test_asc_consistency_equals_the_per_degree_loop(q):
    for n, m, L, Lp in [(2, 2, 0, 0), (2, 4, 0, 2), (1, 6, 0, 5), (3, 5, 0, 4)]:
        cfg = RunConfig(q=q, n=n, m=m, L=L, Lp=Lp)
        args = (cfg.params(), cfg.sector(), cfg)
        assert verify.check_asc_consistency(*args) \
            == _reference_asc_consistency(*args)


def _reference_mass_values(k, p, discrete):
    """Q_0..Q_k at each mass point alone, (a b; base)_r a^(-r) S_r with one
    ``qpoch`` and one scalar power per degree."""
    base = np.longdouble(p.base)
    a = np.longdouble(p.a)
    return [[qpoch(a * np.longdouble(p.b), base, r) * a ** np.longdouble(-r) * s
             for r, s in enumerate(asc._mass_point_series(k, [d], p)[0])]
            for d in discrete]


def _reference_moment(i, j, p, meas):
    """One (i, j) moment on one measure, from its own recurrence table of
    degree max(i, j)."""
    k = max(i, j)
    table = asc_recurrence(k, np.cos(meas.theta_nodes), p)
    disc = _reference_mass_values(k, p, meas.discrete)
    return meas.integrate(table[i] * table[j], [td[i] * td[j] for td in disc])


def _reference_residuals(kmax, p, meas):
    """Every (i, j) moment evaluated on its own on the measure ``meas``."""
    base = np.longdouble(p.base)
    scale = [1 / (qpoch_inf(base ** np.longdouble(i + 1), base, 1e-19)
                  * qpoch_inf(np.longdouble(p.a) * np.longdouble(p.b)
                              * base ** np.longdouble(i), base, 1e-19))
             for i in range(kmax + 1)]
    return {(i, j): float(abs(_reference_moment(i, j, p, meas)
                              - (scale[i] if i == j else 0.0)) / abs(scale[i]))
            for i in range(kmax + 1) for j in range(i, kmax + 1)}


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and np.array_equal(got, want, equal_nan=True) \
        and np.array_equal(np.signbit(got), np.signbit(want))


#: (n, m, L, L', mass points): sectors with 0, 2, 5, 17 and 35 mass points
MASS_SECTORS = [(2, 2, 0, 0, 0), (1, 3, 0, 2, 2), (1, 6, 0, 5, 5), (1, 18, 0, 17, 17),
                (1, 36, 0, 35, 35)]


@pytest.mark.parametrize("q", [1e-6, 0.001, 0.01, 0.3, 0.5, 0.95])
@pytest.mark.parametrize("n,m,L,Lp,count", MASS_SECTORS,
                         ids=[f"{s[-1]}-masses" for s in MASS_SECTORS])
def test_measure_polynomials_keep_the_bits_of_both_leads(q, n, m, L, Lp, count):
    """The measure's Q_k: the recurrence at its z on the band, and at the
    mass points the bits of the running-product lead the transform check
    formed and of the per-degree ``qpoch`` lead the moment table formed.

    With 17 or 35 points at q <= 0.01 the masses and many mass-point values
    pass the longdouble range; each path then reaches the same inf or NaN
    by the same operations."""
    p = _sector_params(q, n, m, L, Lp)
    with np.errstate(over="ignore", invalid="ignore"):
        meas = orthogonality_measure(p, 16)
        assert len(meas.discrete) == count
        z = meas.z
        assert _same_bits(z, np.cos(meas.theta_nodes)) and not z.flags.writeable
        assert meas.z is z
        for k in (0, 1, 4, 12, 16, 60):
            band, disc = meas.polynomials(k)
            assert _same_bits(band, asc_recurrence(k, z, p))
            assert _same_bits(disc, scalarref.mass_point_polynomials(k, meas.discrete, p))
            per_degree = np.array(_reference_mass_values(k, p, meas.discrete),
                                  dtype=np.longdouble).reshape(count, k + 1)
            assert _same_bits(disc, per_degree)


def _recording_measures(monkeypatch):
    """Replace ``asc._grid_measure``, where every measure is built, by a
    wrapper that keeps each measure it builds."""
    built = []
    build = asc._grid_measure

    def recorded(p, discrete, quad_nodes):
        built.append(build(p, discrete, quad_nodes))
        return built[-1]

    monkeypatch.setattr(asc, "_grid_measure", recorded)
    return built


# at q=0.95 the node rule and the degree term give 256 + 5 = 261 nodes, not
# the floor 64
@pytest.mark.parametrize("q,sector", [(0.5, SECTORS[0]), (0.5, SECTORS[1]),
                                      (0.95, SECTORS[0])])
def test_one_grid_reproduces_the_per_pair_moments(q, sector, monkeypatch):
    p = _sector_params(q, *sector)
    built = _recording_measures(monkeypatch)
    got = orthogonality_residual(4, p, 64)
    assert len(built) == 1
    assert len(built[0].theta_nodes) == max(64, asc._node_count(p, 0) + 5)
    assert set(got) == {(i, j) for i in range(5) for j in range(i, 5)}
    assert got == _reference_residuals(4, p, built[0])


@pytest.mark.parametrize("q", [0.1, 0.5, 0.95])
@pytest.mark.parametrize("sector", [(2, 2, 0, 0), (1, 3, 0, 2)])
def test_degree_term_keeps_the_whole_table_at_the_floor(q, sector):
    # without the kmax + 1 nodes, one 16-node grid reads 0.99 at kmax 14,
    # q=0.1, (2,2,0,0)
    p = _sector_params(q, *sector)
    for kmax in (4, 8, 14, 20):
        assert max(orthogonality_residual(kmax, p, 16).values()) <= 1e-12, kmax


# ROADMAP baseline sweep: n, m, L, L'
SWEEP_SECTORS = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "tools" / "bitprint.py"))["SWEEP_SECTORS"]


@pytest.mark.parametrize("q", [0.01, 0.1, 0.3, 0.6, 0.9, 0.95])
def test_asc_orthogonality_holds_across_the_baseline_sweep(q):
    """The mass-point sums keep every moment at its target where the forward
    recurrence at the mass points missed it by up to 3.5e+111."""
    checked = 0
    for quad_nodes in (16, 256):  # the grid floor, low and default
        for n, m, L, Lp in SWEEP_SECTORS:
            cfg = RunConfig(q=q, n=n, m=m, L=L, Lp=Lp, quad_nodes=quad_nodes)
            try:
                res = verify.check_asc_orthogonality(cfg.params(), cfg.sector(), cfg)
            except DegenerateParameterError:  # a band-edge mass: a skipped check
                continue
            # the battery threshold is 1e-8; one grid reads <= 3.7e-13
            assert res <= 1e-12, (quad_nodes, n, m, L, Lp)
            checked += 1
    assert checked == 14  # n=1, m=2 has a = 1, a mass on the band edge


def test_node_count_never_goes_below_the_floor():
    for p in PARAM_SETS:
        for floor in (16, 64, 257, 1000):
            assert asc._node_count(p, floor) >= floor
    # a = b = 0 (continuous q-Hermite): no pole, so the floor is the grid
    assert asc._node_count(AscParams(a=0.0, b=0.0, base=0.25), 16) == 16


@pytest.mark.parametrize("q", [0.01, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.95])
def test_node_count_keeps_the_default_grid_across_the_sweep(q):
    # every integer configuration has d >= ln(1/0.95), so the default 256
    # nodes stay the grid and the default reports keep their bytes
    for n, m, L, Lp in SWEEP_SECTORS + [(2, 2, 0, 0)]:
        p = _sector_params(q, n, m, L, Lp)
        try:
            mass_points(p, strict=True)
        except DegenerateParameterError:
            continue
        assert asc._node_count(p, 16) <= 256, (n, m, L, Lp)


def test_node_count_follows_the_pole_distance_at_the_q_bound():
    # d = ln(1/0.95) = 0.0513: ceil(ln(0.25 / 1e-12) / (2 d)) = 256
    p = _sector_params(0.95, 1, 3, 0, 2)
    assert asc._node_count(p, 64) == 256
    assert len(orthogonality_measure(p, 64).theta_nodes) == 256


def test_node_count_names_d_above_the_cap():
    p = AscParams(a=1 + 1e-9, b=0.125, base=0.25)
    with pytest.raises(ValueError, match=r"d = 1e-09"):
        asc._node_count(p, 16)
    with pytest.raises(ValueError, match=r"d = 1e-09"):
        orthogonality_measure(p, 16)


def test_node_count_reads_parameters_below_the_double_range():
    # b ~ 1e-402 at q = 0.01, m = 200: its logarithm is taken in longdouble
    p = _sector_params(0.01, 2, 200, 0, 0)
    assert float(p.b) == 0.0
    assert asc._node_count(p, 16) == 16


def test_orthogonality_check_builds_one_measure_per_grid(monkeypatch):
    # N(d) + kmax + 1 = 256 + 5 nodes at q=0.95; the floor 256 at q=0.5
    for q, nodes in ((0.5, 256), (0.95, 261)):
        cfg = RunConfig(q=q)
        built = _recording_measures(monkeypatch)
        verify.check_asc_orthogonality(cfg.params(), cfg.sector(), cfg)
        assert [len(m.theta_nodes) for m in built] == [nodes]


def test_residual_pairs_validated():
    with pytest.raises(ValueError):
        orthogonality_residual(21, PARAM_SETS[0], 64)


def test_measure_refuses_a_node_floor_past_the_cap():
    # the floor went to np.linspace as given, whatever its size
    pp = spectral.asc_params(ModelParams(0.5, 2, 2), Sector(0, 0))
    assert len(asc.orthogonality_measure(pp, asc._MAX_NODES).theta_nodes) == asc._MAX_NODES
    for floor in (asc._MAX_NODES + 1, 10 ** 15):
        with pytest.raises(ValueError, match=f"need quad_nodes <= 16384, got {floor}"):
            asc.orthogonality_measure(pp, floor)
