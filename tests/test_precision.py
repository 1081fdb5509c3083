"""Precision budgets: the extended-precision Al-Salam-Chihara kernels against
50-digit mpmath references from their defining formulas (``mpref``).

Each budget is a worst relative error over the sectors (n, m, L, L') below at
one q, set from the measured worst case with a factor 2 to 5 of headroom;
the measured value is quoted beside each.  ``longdouble`` carries 64
mantissa bits, so its unit roundoff is 5.4e-20.
"""

import math

import numpy as np
import pytest

import mpref
from qlaplace import asc, spectral
from qlaplace.lattice import ModelParams, Sector

_LD = np.longdouble

QS = [0.01, 0.3, 0.7, 0.95]
SECTORS = [(2, 7, 1, 6), (1, 6, 0, 5), (1, 3, 0, 2)]
#: interior band angles: the weight vanishes at 0 and pi
THETAS = np.linspace(0, np.pi, 5)[1:-1].astype(np.longdouble)


def _cases(q):
    for n, m, L, Lp in SECTORS:
        params, sector = ModelParams(q, n, m), Sector(L, Lp)
        yield params, sector, spectral.asc_params(params, sector)


def band_weight_error(q) -> float:
    return max(mpref.rel_err(got, mpref.band_weight(theta, pp))
               for _, _, pp in _cases(q)
               for theta, got in zip(THETAS, asc.continuous_weight(THETAS, pp)))


def c_function_error(q) -> float:
    """On the band: arg = i nu with q^(i nu) = e^(i theta)."""
    args = 1j * (THETAS / np.log(np.longdouble(q)))
    return max(mpref.rel_err(got, mpref.c_function(pp, params.q_ld, arg))
               for params, sector, pp in _cases(q)
               for arg, got in zip(args, spectral.c_function(params, sector, args)))


def mass_error(q) -> float:
    errors = []
    for _, _, pp in _cases(q):
        got, ref = asc.mass_points(pp), mpref.masses(pp)
        assert len(got) == len(ref)
        errors += [mpref.rel_err(d.mass, r) for d, r in zip(got, ref)]
    return max(errors)


def norm_factor_error(q) -> float:
    return max(mpref.rel_err(asc._norm_factor(i, pp), mpref.inverse_norm(i, pp))
               for _, _, pp in _cases(q) for i in range(3))


def band_profile_error(q) -> float:
    """Profile values at j <= 60 at two band points, in the units of
    ``mpref.profile_error``, against the recurrence run in mpmath at the
    point's own z.  On the band the polynomial is the dominant solution of
    its recurrence, so the forward run holds its digits at every q."""
    worst = 0.0
    z = [math.cos(theta) for theta in (0.8, 2.1)]
    for params, sector, pp in _cases(q):
        cont, _ = spectral.eigenfunction_profile(params, sector,
                                                 np.array(z, dtype=_LD), (), 60)
        for zt, got in zip(z, cont):
            ref = mpref.eigenfunction_band(60, pp, zt)
            worst = max(worst, mpref.profile_error(got, ref, pp))
    return worst


def mass_profile_error(q) -> float:
    """Profile values at j <= 60 at every mass point, against the terminating
    sum (the forward recurrence loses the minimal solution there)."""
    errors = []
    for params, sector, pp in _cases(q):
        masses = asc.mass_points(pp)
        _, disc = spectral.eigenfunction_profile(params, sector, np.empty(0, dtype=_LD),
                                                 masses, 60)
        errors += (mpref.rel_err(got, mpref.eigenfunction_at_mass(j, pp, d.index))
                   for d, row in zip(masses, disc) for j, got in enumerate(row))
    return max(errors)


#: the budget at each q of QS; under each, the measured worst cases
BUDGETS = [
    (band_weight_error, [1e-18, 2e-18, 7e-18, 7e-18]),
    #                   3.5e-19 8.3e-19 3.2e-18 3.2e-18
    (c_function_error, [1e-18, 2e-18, 5e-18, 7e-18]),
    #                  3.4e-19 5.7e-19 2.1e-18 3.2e-18
    (mass_error, [1e-18, 1e-18, 2e-18, 4e-18]),
    #            4.9e-19 4.0e-19 5.8e-19 2.0e-18
    (norm_factor_error, [1e-19, 1e-18, 1e-18, 6e-18]),
    #                   2.1e-20 2.8e-19 4.6e-19 2.8e-18
    (band_profile_error, [5e-17, 3e-17, 3e-16, 2e-16]),
    #                    6.9e-18 2.9e-17 1.2e-16 5.0e-17
    (mass_profile_error, [3e-18, 6e-18, 6e-18, 4e-17]),
    #                    1.2e-18 3.0e-18 2.6e-18 1.6e-17
]


@pytest.mark.parametrize("error,q,budget", [
    (error, q, budget) for error, budgets in BUDGETS
    for q, budget in zip(QS, budgets)],
    ids=lambda v: getattr(v, "__name__", None))
def test_precision_budget(error, q, budget):
    assert error(q) <= budget
