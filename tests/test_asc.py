"""Tests for the Al-Salam-Chihara family and its orthogonality measure."""

import math

import numpy as np
import pytest

from qlaplace import asc, spectral, verify
from qlaplace._rng import Lcg
from qlaplace.asc import (AscParams, DegenerateParameterError,
                          asc_hypergeometric, asc_hypergeometric_direct,
                          asc_recurrence, continuous_weight, mass_points,
                          orthogonality_measure, orthogonality_residual,
                          orthogonality_residuals)
from qlaplace.cli import RunConfig
from qlaplace.lattice import ModelParams, Sector
from qlaplace.qcore import LD_INF_TOL, qpoch, qpoch_inf

PARAM_SETS = [
    AscParams(a=0.5, b=0.125, base=0.25),          # no discrete part
    AscParams(a=0.5**-3.0, b=0.5**5, base=0.25),   # two mass points
    AscParams(a=0.7**-1.0, b=0.7**5, base=0.49),   # one mass point
    AscParams(a=0.3**-3.0, b=0.3**5, base=0.09),   # small base
]


def test_initial_polynomials():
    p = PARAM_SETS[0]
    for z in (-0.4, 0.0, 0.8):
        assert asc_recurrence(0, z, p) == 1.0
        assert asc_recurrence(1, z, p) == pytest.approx(2 * z - (p.a + p.b))


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
    got = asc_recurrence(12, z, p)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, asc_recurrence(12, z, ld))


def test_hypergeometric_initial_values():
    p = PARAM_SETS[1]
    theta = 0.9
    assert asc_hypergeometric(0, theta, p) == pytest.approx(1.0)
    z = math.cos(theta)
    assert asc_hypergeometric(1, theta, p) == pytest.approx(
        2 * z - (p.a + p.b), rel=1e-12)


def test_degree_two_cross_representation():
    p = PARAM_SETS[0]
    rng = Lcg(1)
    for _ in range(20):
        theta = math.acos(0.999 * rng.symmetric())
        rec = asc_recurrence(2, math.cos(theta), p)
        hyp = asc_hypergeometric(2, theta, p)
        assert abs(rec - hyp) <= 1e-11 * max(1.0, abs(rec))


@pytest.mark.parametrize("p", PARAM_SETS)
def test_recurrence_vs_hypergeometric_to_degree_15(p):
    rng = Lcg(2)
    for _ in range(25):
        z = 0.999 * rng.symmetric()
        theta = math.acos(z)
        for k in range(16):
            rec = float(asc_recurrence(k, np.longdouble(z), p))
            hyp = asc_hypergeometric(k, theta, p)
            assert abs(rec - hyp) <= 1e-10 * max(1.0, abs(rec))


def test_imaginary_angle_point():
    """Real w > 1 (off-band points) through a pure-imaginary angle shift."""
    p = PARAM_SETS[1]
    w = 1.7
    theta = -1j * math.log(w)  # e^(i theta) = w
    z = (w + 1 / w) / 2
    for k in range(8):
        rec = asc_recurrence(k, z, p)
        hyp = asc_hypergeometric(k, theta, p)
        assert abs(rec - hyp) <= 1e-10 * max(1.0, abs(rec))


def test_stable_path_matches_literal_series_at_small_degree():
    """The convolution evaluation computes the same terminating series."""
    for p in (AscParams(a=0.7, b=0.49, base=0.49),
              AscParams(a=0.7**-1.0, b=0.7**4, base=0.49)):
        for theta in (0.5, 1.3, 2.6):
            for k in range(7):
                stable = asc_hypergeometric(k, theta, p)
                direct = asc_hypergeometric_direct(k, theta, p)
                assert abs(stable - direct) <= 1e-9 * max(1.0, abs(stable))


def test_parameter_symmetry():
    """Q_k(z; a, b) = Q_k(z; b, a), verified numerically for k <= 10."""
    for p in PARAM_SETS[:3]:
        swapped = AscParams(a=p.b, b=p.a, base=p.base)
        for z in (-0.7, 0.1, 0.9):
            for k in range(11):
                va = asc_recurrence(k, z, p)
                vb = asc_recurrence(k, z, swapped)
                assert abs(va - vb) <= 1e-11 * max(1.0, abs(va))


def test_exact_degree_via_divided_differences():
    """Values at k+2 points give leading coefficient 2^k and degree exactly k."""
    p = PARAM_SETS[0]
    for k in (1, 3, 6):
        zs = np.linspace(-0.9, 0.9, k + 2)
        vals = [asc_recurrence(k, z, p) for z in zs]
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
    assert orthogonality_residual(0, 0, p, 64) < 1e-9
    assert orthogonality_residual(0, 1, p, 64) < 1e-9


@pytest.mark.parametrize("p", PARAM_SETS[:3])
def test_orthogonality_with_and_without_masses(p):
    worst = max(orthogonality_residual(i, j, p, 128)
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


# ------------------------------------------------- batched evaluation

#: (n, m, L, Lp): no point mass, and two point masses
SECTORS = [(2, 2, 0, 0), (2, 4, 0, 2)]


def _sector_params(q, n, m, L, Lp):
    return spectral.asc_params(ModelParams(q=q, n=n, m=m), Sector(L=L, Lp=Lp))


def _reference_weight(theta, p):
    """The band weight one angle at a time, from scalar infinite products."""
    w = np.exp(np.clongdouble(1j) * np.longdouble(theta))
    base = np.longdouble(p.base)
    rt = np.sqrt(base)

    def h(alpha):
        alpha = np.clongdouble(alpha)
        return qpoch_inf(alpha * w, base, 1e-19) \
            * qpoch_inf(alpha * np.conjugate(w), base, 1e-19)

    return np.real(h(1.0) * h(-1.0) * h(rt) * h(-rt) / (h(p.a) * h(p.b)))


@pytest.mark.parametrize("sector,q", [
    pytest.param(sector, q, id=f"sector{k}-{q}")
    for k, sector in enumerate(SECTORS) for q in (0.01, 0.3, 0.5, 0.95)
] + [pytest.param((1, 6, 0, 5), 0.3, id="five_masses-0.3")])  # a ~ 5.1e4
def test_array_weight_matches_scalar_products_exactly(sector, q):
    p = _sector_params(q, *sector)
    assert len(mass_points(p)) == {2: 0, 4: 2, 6: 5}[sector[1]]
    for nodes in (256, 511):
        theta = np.linspace(0, np.pi, nodes).astype(np.longdouble)
        got = continuous_weight(theta, p)
        want = np.array([_reference_weight(t, p) for t in theta])
        assert got.dtype == np.longdouble and got.shape == (nodes,)
        assert np.array_equal(got, want)
    one = continuous_weight(0.7, p)
    assert np.ndim(one) == 0 and one == _reference_weight(0.7, p)


def test_masked_products_match_scalar_products_at_the_tolerance():
    """Entries far above, at and just around the truncation tolerance stop
    at the same factor as the scalar product, in one array."""
    tol = np.longdouble(LD_INF_TOL)
    mags = [np.longdouble(1e4), np.longdouble(1)]
    for edge in (4 * tol, tol):
        mags += [np.nextafter(edge, np.longdouble(1)), edge,
                 np.nextafter(edge, np.longdouble(0))]
    mags.append(np.longdouble(1e-20))
    phases = [np.exp(np.clongdouble(1j) * np.longdouble(t))
              for t in (0.0, 0.3, np.pi / 2, 2.0, np.pi)]
    for base in (0.25, 0.9025):
        base = np.longdouble(base)
        # all magnitudes in one array, then without the smallest ones, so
        # the unmasked phase runs to every depth from 0 to its deepest
        for keep in range(len(mags), 0, -1):
            a = np.array([mag * w for mag in mags[:keep] for w in phases],
                         dtype=np.clongdouble)
            got = asc._masked_qpoch_inf(a, base)
            want = np.array([qpoch_inf(x, base, LD_INF_TOL) for x in a])
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    tiny = np.array([1e-20, 1e-25], dtype=np.clongdouble)
    assert np.array_equal(asc._masked_qpoch_inf(tiny, np.longdouble(0.5)),
                          np.ones(2, dtype=np.clongdouble))


def _reference_asc_consistency(params, sector, cfg):
    """check_asc_consistency one angle and one degree at a time."""
    pp = spectral.asc_params(params, sector)
    rng = Lcg(cfg.seed + 303)
    worst = 0.0
    for _ in range(50):
        z = 0.999 * rng.symmetric()
        theta = math.acos(z)
        table = asc._recurrence_table(15, np.longdouble(z), pp)
        for k in range(16):
            hyp = asc_hypergeometric(k, theta, pp)
            worst = max(worst, verify._rel(hyp, float(table[k])))
    return worst


@pytest.mark.parametrize("q", [0.01, 0.5, 0.95])
def test_asc_consistency_equals_the_per_degree_loop(q):
    for n, m, L, Lp in [(2, 2, 0, 0), (2, 4, 0, 2), (1, 6, 0, 5), (3, 5, 0, 4)]:
        cfg = RunConfig(q=q, n=n, m=m, L=L, Lp=Lp)
        args = (cfg.params(), cfg.sector(), cfg)
        assert verify.check_asc_consistency(*args) \
            == _reference_asc_consistency(*args)


def _reference_residual(i, j, p, quad_nodes, measures):
    """One (i, j) moment refined on its own grid sequence; ``measures`` caches
    the measure of each grid size."""
    base = np.longdouble(p.base)
    scale = 1 / (qpoch_inf(base ** np.longdouble(i + 1), base, 1e-19)
                 * qpoch_inf(np.longdouble(p.a) * np.longdouble(p.b)
                             * base ** np.longdouble(i), base, 1e-19))
    nodes, prev = quad_nodes, None
    for _ in range(7):
        if nodes not in measures:
            measures[nodes] = orthogonality_measure(p, nodes)
        meas = measures[nodes]
        k = max(i, j)
        table = asc._recurrence_table(k, np.cos(meas.theta_nodes), p)
        a = np.longdouble(p.a)
        disc = [[qpoch(a * np.longdouble(p.b), base, r) * a ** np.longdouble(-r) * s
                 for r, s in enumerate(asc._mass_point_series(k, d.index, p))]
                for d in meas.discrete]
        val = meas.integrate(table[i] * table[j], [td[i] * td[j] for td in disc])
        if prev is not None and abs(val - prev) <= 1e-11 * abs(scale):
            break
        prev = val
        nodes = 2 * nodes - 1
    return float(abs(val - (scale if i == j else 0.0)) / abs(scale))


# at q=0.95 without point masses, some pairs settle after two grids and
# others after three
@pytest.mark.parametrize("q,sector", [(0.5, SECTORS[0]), (0.5, SECTORS[1]),
                                      (0.95, SECTORS[0])])
def test_shared_grids_reproduce_per_pair_refinement(q, sector):
    p = _sector_params(q, *sector)
    got = orthogonality_residuals(4, p, 64)
    assert set(got) == {(i, j) for i in range(5) for j in range(i, 5)}
    measures = {}
    for (i, j), res in got.items():
        assert res == _reference_residual(i, j, p, 64, measures)
    assert orthogonality_residual(1, 3, p, 64) == got[1, 3]


# ROADMAP baseline sweep: n, m, L, L'
SWEEP_SECTORS = [(1, 2, 0, 0), (1, 3, 0, 2), (2, 2, 3, 0), (3, 5, 0, 4),
                 (2, 7, 1, 6), (4, 2, 2, 2), (1, 6, 0, 5), (5, 9, 0, 0)]


@pytest.mark.parametrize("q", [0.01, 0.1, 0.3, 0.6, 0.9, 0.95])
def test_asc_orthogonality_holds_across_the_baseline_sweep(q):
    """The mass-point sums keep every moment at its target where the forward
    recurrence at the mass points missed it by up to 3.5e+111."""
    checked = 0
    for n, m, L, Lp in SWEEP_SECTORS:
        cfg = RunConfig(q=q, n=n, m=m, L=L, Lp=Lp)
        try:
            res = verify.check_asc_orthogonality(cfg.params(), cfg.sector(), cfg)
        except DegenerateParameterError:  # a band-edge mass: a skipped check
            continue
        assert res <= 1e-8, (n, m, L, Lp)
        checked += 1
    assert checked == 7  # n=1, m=2 has a = 1, a mass on the band edge


def test_orthogonality_check_builds_one_measure_per_grid(monkeypatch):
    cfg = RunConfig()
    built = []

    def counted(p, quad_nodes):
        built.append(quad_nodes)
        return orthogonality_measure(p, quad_nodes)

    monkeypatch.setattr(asc, "orthogonality_measure", counted)
    verify.check_asc_orthogonality(cfg.params(), cfg.sector(), cfg)
    assert built == [256, 511]


def test_residual_pairs_validated():
    with pytest.raises(ValueError):
        orthogonality_residuals(21, PARAM_SETS[0], 64)
    with pytest.raises(ValueError):
        orthogonality_residuals(2, PARAM_SETS[0], 64, [(0, 3)])
