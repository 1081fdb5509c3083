"""Tests for the operator's three realizations and the eigenvalue map."""

import itertools

import numpy as np
import pytest

from qlaplace._rng import Lcg
from qlaplace.laplace import (apply_divergence_form, apply_three_term,
                              eigenvalue, jacobi_matrix)
from qlaplace.lattice import (LatticeFunction, ModelParams, Quadruple, Sector,
                              inner_product, measure_mass)
from qlaplace.spectral import (measure_eigenvalues, plancherel_measure,
                               point_from_exponent)

_LD = np.longdouble


def test_zero_function_maps_to_zero():
    params = ModelParams(0.5, 2, 2)
    quad = Quadruple(1, 1, 1, 1)
    assert apply_three_term(params, quad.sector(), [LatticeFunction()]) == [LatticeFunction()]
    assert apply_divergence_form(params, quad, [LatticeFunction()]) == [LatticeFunction()]
    assert apply_three_term(params, quad.sector(), []) == []
    assert apply_divergence_form(params, quad, []) == []


def test_linearity():
    params = ModelParams(0.6, 2, 3)
    sec = Sector(2, 0)
    rng = Lcg(21)
    f, g = rng.lattice_function(6), rng.lattice_function(6)
    lhs, af, ag = apply_three_term(params, sec, [0.7 * f + (2 - 1j) * g, f, g])
    rhs = 0.7 * af + (2 - 1j) * ag
    for j in set(lhs) | set(rhs):
        assert abs(complex(lhs.get(j, 0.0)) - complex(rhs.get(j, 0.0))) < 1e-15 * 100


def test_base_indicator_action_matches_jacobi_column():
    """A f_0 expanded in the e-basis must reproduce column 0 of the matrix."""
    for params in (ModelParams(0.5, 2, 2), ModelParams(0.3, 1, 2)):
        for sec in (Sector(0, 0), Sector(1, 3)):
            [af0] = apply_three_term(params, sec, [LatticeFunction.basis(0)])
            jm = jacobi_matrix(params, sec, 4)
            c = lambda j: 1.0 / np.sqrt(measure_mass(params, sec, j))
            # matrix entry (i, 0) = c_i * (A f_0)(i) / c_0
            assert float(af0.get(0, 0.0)) == pytest.approx(jm.diag[0], rel=1e-12)
            got = float(af0.get(1, 0.0) * c(0) / c(1))
            assert got == pytest.approx(jm.offdiag[0], rel=1e-12)
            assert af0.get(2, 0.0) == 0.0


def test_result_support_bounds():
    params = ModelParams(0.5, 2, 2)
    sec = Sector(0, 0)
    f = LatticeFunction({3: 1.0, 5: 2.0})
    out, out0 = apply_three_term(params, sec, [f, LatticeFunction.basis(0)])
    assert min(out.support) >= 2 and max(out.support) <= 6
    assert min(out0.support) >= 0


def quadruples(max_entry):
    rng = range(max_entry + 1)
    return [Quadruple(*t) for t in itertools.product(rng, repeat=4)
            if t[0] + t[3] == t[1] + t[2]]


def test_cross_form_equality_random_functions():
    rng = Lcg(33)
    params = ModelParams(0.5, 2, 2)
    for quad in quadruples(2):
        f = rng.lattice_function(9)
        [a1] = apply_three_term(params, quad.sector(), [f])
        [a2] = apply_divergence_form(params, quad, [f])
        scale = max(1.0, max(abs(v) for v in a1.values()))
        for j in set(a1) | set(a2):
            assert abs(complex(a1.get(j, 0.0)) - complex(a2.get(j, 0.0))) \
                <= 1e-11 * scale


def test_divergence_form_depends_only_on_sector():
    params = ModelParams(0.45, 2, 3)
    pairs = [(Quadruple(2, 1, 2, 1), Quadruple(1, 2, 1, 2)),
             (Quadruple(2, 0, 2, 0), Quadruple(0, 2, 0, 2))]
    rng = Lcg(44)
    for qa, qb in pairs:
        assert qa.sector() == qb.sector()
        f = rng.lattice_function(7)
        [oa] = apply_divergence_form(params, qa, [f])
        [ob] = apply_divergence_form(params, qb, [f])
        scale = max(1.0, max(abs(v) for v in oa.values()))
        for j in set(oa) | set(ob):
            assert abs(complex(oa.get(j, 0.0)) - complex(ob.get(j, 0.0))) \
                <= 1e-11 * scale


def test_symmetry_of_quadratic_form():
    params = ModelParams(0.5, 2, 2)
    sec = Sector(1, 1)
    actions = apply_three_term(params, sec, [LatticeFunction.basis(j) for j in range(12)])
    for j in range(10):
        for k in (j, j + 1):
            lhs, rhs = inner_product(params, sec, [
                (actions[j], LatticeFunction.basis(k)),
                (LatticeFunction.basis(j), actions[k])])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ----------------------------------------------------------- jacobi matrix

def test_jacobi_matrix_shape_and_positivity():
    params = ModelParams(0.5, 2, 3)
    jm = jacobi_matrix(params, Sector(2, 0), 50)
    assert len(jm.diag) == 50 and len(jm.offdiag) == 49
    assert (jm.offdiag > 0).all()
    with pytest.raises(ValueError):
        jacobi_matrix(params, Sector(0, 0), 0)


@pytest.mark.parametrize("state", ["warn", "raise", "ignore"])
@pytest.mark.parametrize("params,sector", [
    # the scalar power q^(1-N) = 0.01^(-201) leaves double range
    (ModelParams(0.01, 2, 200), Sector(0, 0)),
    # only the array power q^(2j+2n-(N-1)+L-Lp) does: q^(-92) at j = 0
    (ModelParams(0.00016640942421768955, 3, 2), Sector(0, 94)),
], ids=["scalar-power", "array-power"])
def test_jacobi_matrix_refuses_entries_past_double_range(params, sector, state):
    with np.errstate(over=state, invalid=state), pytest.raises(
            OverflowError, match="operator coefficients overflow double precision"):
        jacobi_matrix(params, sector, 40)


def test_jacobi_diagonal_limit():
    params = ModelParams(0.5, 2, 2)
    q, N = params.q, params.N
    D = (1 - q**2) * (1 - q ** (2 * (N - 1)))
    jm = jacobi_matrix(params, Sector(1, 1), 60)
    limit = -q * (1 + q ** (2 * (N - 1))) / D
    assert jm.diag[-1] == pytest.approx(limit, rel=1e-12)


def test_jacobi_matches_conjugated_three_term():
    for params in (ModelParams(0.5, 2, 2), ModelParams(0.7, 1, 2)):
        sec = Sector(2, 0)
        size = 12
        jm = jacobi_matrix(params, sec, size)
        c = [1.0 / np.sqrt(measure_mass(params, sec, j)) for j in range(size + 1)]
        for j in range(size - 1):
            [af] = apply_three_term(params, sec, [LatticeFunction.basis(j)])
            d = float(af.get(j, 0.0))
            up = float(af.get(j + 1, 0.0) * c[j] / c[j + 1])
            assert d == pytest.approx(jm.diag[j], rel=1e-12)
            assert up == pytest.approx(jm.offdiag[j], rel=1e-12)


# ----------------------------------------------------------- eigenvalue map

def test_eigenvalue_zero_label():
    params = ModelParams(0.5, 2, 2)
    assert float(eigenvalue(params, point_from_exponent(params, 0))) == pytest.approx(0.0, abs=1e-18)


def test_eigenvalue_band_center():
    params = ModelParams(0.5, 2, 3)
    q, N = params.q, params.N
    D = (1 - q**2) * (1 - q ** (2 * (N - 1)))
    got = float(eigenvalue(params, np.cos(np.pi / 2)))
    assert got == pytest.approx(-q * (1 + q ** (2 * (N - 1))) / D, rel=1e-14)


def test_eigenvalue_integer_label():
    params = ModelParams(0.5, 1, 2)
    q, N = params.q, params.N
    D = (1 - q**2) * (1 - q ** (2 * (N - 1)))
    want = -q * (1 - q**-2.0) * (1 - q ** (2.0 * (1 + N - 1))) / D
    got = float(eigenvalue(params, point_from_exponent(params, 1)))
    assert got == pytest.approx(want, rel=1e-13)


def test_eigenvalue_accepts_raw_z():
    params = ModelParams(0.5, 2, 2)
    want = eigenvalue(params, 1.0)
    assert type(want) is _LD
    assert eigenvalue(params, 1) == eigenvalue(params, _LD(1)) == want
    assert float(want) == pytest.approx(float(eigenvalue(params, np.cos(0.0))))


@pytest.mark.parametrize("q, n, m, lp, count", [(0.5, 2, 2, 0, 0),
                                                (0.5, 2, 4, 2, 2),
                                                (0.3, 1, 6, 5, 5),
                                                (0.95, 2, 2, 0, 0)])
def test_eigenvalue_array_call_equals_the_per_point_loop(q, n, m, lp, count):
    """One call over a 256-node measure's z values (the ``longdouble``
    cos(theta) of the profiles) and its mass points' z values, and
    ``measure_eigenvalues`` on the measure, keep the bits of one scalar call
    per point."""
    params, sector = ModelParams(q, n, m), Sector(0, lp)
    meas = plancherel_measure(params, sector, 256)
    z = [np.cos(t) for t in meas.theta_nodes] + [d.z for d in meas.discrete]
    got = eigenvalue(params, np.array(z))
    want = np.empty(len(z), dtype=_LD)
    for i, zi in enumerate(z):
        want[i] = eigenvalue(params, zi)
    assert len(meas.discrete) == count
    assert got.dtype == _LD and np.array_equal(got, want)
    lam_cont, lam_disc = measure_eigenvalues(params, meas)
    assert len(lam_disc) == count
    assert np.array_equal(np.concatenate([lam_cont, lam_disc]), want)


@pytest.mark.parametrize("q, n, m", [(0.5, 2, 2), (0.3, 1, 6), (0.95, 3, 4)])
def test_eigenvalue_is_affine_in_complex_z(q, n, m):
    """A complex z keeps its imaginary part: Im lambda(x + iy) = 2 q^N y / D
    to about 1 ulp, and the real part is lambda(x)."""
    params = ModelParams(q, n, m)
    qd = params.q_ld
    D = (1 - qd * qd) * (1 - qd ** _LD(2 * (params.N - 1)))
    eps = np.finfo(_LD).eps
    for x, y in ((0.3, 0.1), (1.5, -2.0), (-0.7, 1e-3), (0.0, 40.0)):
        lam = eigenvalue(params, complex(x, y))
        assert type(lam) is np.clongdouble
        want = 2 * qd ** _LD(params.N) * _LD(y) / D
        assert abs(lam.imag - want) <= 2 * eps * abs(want)
        real = eigenvalue(params, x)
        assert type(real) is _LD
        assert abs(lam.real - real) <= 2 * eps * max(abs(real), abs(lam))
    z = np.array([0.3, complex(1.5, -2.0)])
    got = eigenvalue(params, z)
    assert got.dtype == np.clongdouble
    assert got[1] == eigenvalue(params, complex(1.5, -2.0))


def test_cross_form_on_shifted_support():
    # functions vanishing near the origin exercise the difference-window edge
    params = ModelParams(0.5, 2, 3)
    for quad in (Quadruple(0, 0, 0, 0), Quadruple(2, 1, 2, 1)):
        f = LatticeFunction({3: 1.0, 4: -0.5, 6: 2.25})
        [a1] = apply_three_term(params, quad.sector(), [f])
        [a2] = apply_divergence_form(params, quad, [f])
        scale = max(abs(v) for v in a1.values())
        for j in set(a1) | set(a2):
            assert abs(float(a1.get(j, 0.0)) - float(a2.get(j, 0.0))) <= 1e-12 * scale
