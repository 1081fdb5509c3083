"""The spectral and symmetry checks of the battery against plain loops that
build every transform and every operator action afresh: sharing one
transform plan per check and one action per basis function must not move a
residual by a bit."""

import math

import numpy as np
import pytest

from qlaplace import laplace, lattice, spectral, verify
from qlaplace._rng import Lcg
from qlaplace.cli import RunConfig
from qlaplace.lattice import LatticeFunction

_LD = np.longdouble

CONFIGS = [RunConfig(q=0.3), RunConfig(q=0.5), RunConfig(q=0.95),
           RunConfig(q=0.5, n=2, m=4, Lp=2)]


def _parseval_loop(params, sector, cfg):
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


def _multiplication_loop(params, sector, cfg):
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
        lam_fhat = lam_cont * np.asarray(fhat.continuous)
        scale = max(_LD(1), np.max(np.abs(lam_fhat)))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(afhat.continuous) - lam_fhat) / scale)))
        for v_a, v_f, lam in zip(afhat.discrete, fhat.discrete, lam_disc):
            worst = max(worst, float(abs(v_a - lam * v_f) / scale))
    return worst


def _roundtrip_loop(params, sector, cfg):
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


def _symmetry_loop(params, sector, cfg):
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


@pytest.mark.parametrize("check,loop", [
    (verify.check_parseval, _parseval_loop),
    (verify.check_multiplication, _multiplication_loop),
    (verify.check_roundtrip, _roundtrip_loop),
    (verify.check_symmetry, _symmetry_loop),
], ids=["parseval", "multiplication", "roundtrip", "symmetry"])
@pytest.mark.parametrize("cfg", CONFIGS,
                         ids=["q0.3", "q0.5", "q0.95", "q0.5-m4-Lp2"])
def test_check_equals_its_plain_loop(check, loop, cfg):
    params, sector = cfg.params(), cfg.sector()
    assert check(params, sector, cfg) == loop(params, sector, cfg)


def test_worst_is_zero_without_comparisons():
    assert verify._worst([]) == 0.0
    assert verify._worst(iter(())) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_worst_refuses_a_non_finite_comparison_anywhere(bad, position):
    errors = [1e-3, 2e-3, 5e-4, 3e-3, 1e-4]
    assert verify._worst(errors) == 3e-3
    errors[position] = bad
    with pytest.raises(FloatingPointError, match=f"comparison {position} "):
        verify._worst(errors)


def test_multiplication_passes_where_the_double_scale_overflowed():
    # the transform values reach ~6e380 here: finite in extended precision,
    # but a scale converted to double overflowed and turned every gap NaN
    cfg = RunConfig(q=0.01, n=2, m=7, L=1, Lp=6)
    assert verify.check_multiplication(cfg.params(), cfg.sector(), cfg) <= 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_underflowing_off_band_point_fails_the_eigenvalue_check_by_name():
    cfg = RunConfig(q=0.01, n=2, m=200, quad_nodes=16, max_j=1)
    res = next(r for r in verify.run_battery(cfg) if r.name == "eigenvalue_residual")
    assert not res.passed and not res.skipped
    assert res.note.startswith("ValueError: ") and "underflows" in res.note


#: the (n, m, L, Lp) sectors of the 48-config domain sweep
SWEEP_SECTORS = [(1, 2, 0, 0), (1, 3, 0, 2), (2, 2, 3, 0), (3, 5, 0, 4),
                 (2, 7, 1, 6), (4, 2, 2, 2), (1, 6, 0, 5), (5, 9, 0, 0)]


@pytest.mark.parametrize("n,m,L,Lp", SWEEP_SECTORS,
                         ids=["-".join(map(str, s)) for s in SWEEP_SECTORS])
def test_battery_passes_at_small_q(n, m, L, Lp):
    # off-band eigenvalues reach ~1e36 at q = 0.01: the eigenvalue yardstick
    # must carry |lambda| and both scales must stay in extended precision
    cfg = RunConfig(q=0.01, n=n, m=m, L=L, Lp=Lp, quad_nodes=128, max_j=10)
    failed = [(r.name, r.residual, r.note) for r in verify.run_battery(cfg)
              if not r.passed]
    assert not failed


@pytest.mark.parametrize("cfg", [
    RunConfig(q=0.5), RunConfig(q=0.95), RunConfig(q=0.5, m=4, Lp=2),
    RunConfig(q=0.3, n=3, m=4), RunConfig(q=0.9, n=2, m=6, Lp=2),
    RunConfig(q=0.7, n=1, m=5), RunConfig(q=0.3, n=1, m=6, Lp=5),
], ids=["default", "q0.95", "m4-Lp2", "q0.3-n3-m4", "q0.9-m6-Lp2", "q0.7-n1-m5",
        "q0.3-n1-m6-Lp5"])
def test_density_identity_at_extended_precision(cfg):
    # both sides run the same extended-precision product kernel from an
    # extended-precision argument on
    assert verify.check_density_identity(cfg.params(), cfg.sector(), cfg) <= 1e-15
