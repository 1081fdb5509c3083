"""Tests for parameters, labels, lattice functions, weights and pairings."""

import itertools
import json
import math

import numpy as np
import pytest

from qlaplace._rng import Lcg
from qlaplace.lattice import (LatticeFunction, ModelParams, Quadruple, Sector,
                              hwv_inner_product, hwv_pairing_constant,
                              indicator_norm_sq, inner_product,
                              invariant_integral_normalizer, measure_mass,
                              orthonormal_basis, sector_weight)
from qlaplace.qcore import qpoch

GRID = [ModelParams(q, n, m)
        for q in (0.3, 0.5, 0.7) for (n, m) in ((1, 2), (2, 2), (2, 3))]
SECTORS = [Sector(L, Lp) for L in range(4) for Lp in range(4) if (L - Lp) % 2 == 0]


def all_quadruples(max_entry):
    rng = range(max_entry + 1)
    return [Quadruple(k, l, kp, lp)
            for k, l, kp, lp in itertools.product(rng, repeat=4)
            if k + lp == l + kp]


# ----------------------------------------------------------- types

def test_model_params_validation():
    for bad in (dict(q=1.2, n=2, m=2), dict(q=0.0, n=2, m=2),
                dict(q=0.5, n=0, m=2), dict(q=0.5, n=2, m=1)):
        with pytest.raises(ValueError):
            ModelParams(**bad)


def test_quadruple_constraint():
    with pytest.raises(ValueError):
        Quadruple(1, 0, 0, 0)
    with pytest.raises(ValueError):
        Quadruple(1, 0, 0, -1)
    q = Quadruple(2, 1, 2, 1)
    assert (q.L, q.Lp, q.s) == (3, 3, 3)
    assert q.sector() == Sector(3, 3)


def test_sector_parity_and_representative():
    assert Sector(2, 0).realizable
    assert not Sector(1, 0).realizable
    with pytest.raises(ValueError):
        Sector(1, 0).a_quadruple()
    for sec in SECTORS:
        quad = sec.a_quadruple()
        assert quad.sector() == sec


def test_lattice_function_behaviour():
    f = LatticeFunction({0: 1.0, 2: 2.0, 3: 0.0})
    assert f.support == (0, 2)  # exact zeros dropped
    assert f.get(7) == 0.0
    g = 2.0 * f + LatticeFunction({2: -4.0})
    assert g == LatticeFunction({0: 2.0})
    with pytest.raises(ValueError):
        LatticeFunction({-1: 1.0})
    with pytest.raises(AttributeError):
        f.new_attr = 3


@pytest.mark.parametrize("dtype", [float, complex, np.longdouble, np.clongdouble])
def test_library_built_function_equals_the_checked_one(dtype):
    """The unchecked constructor of library-built functions gives the public
    constructor's function: the same keys in the same order, the same values
    and types, the exact zeros (of either sign) dropped, equality and repr."""
    values = [dtype(v) for v in (0.5, 0.0, -0.25, -0.0, 3.0, 0.0, 1e-300)]
    items = list(zip(range(len(values)), values))
    got, want = LatticeFunction._from_items(items), LatticeFunction(dict(items))
    assert list(got) == list(want) == [0, 2, 4, 6]
    for j in want:
        assert type(got[j]) is type(want[j]) and got[j] == want[j]
    assert got == want and repr(got) == repr(want)
    assert LatticeFunction._from_items(()) == LatticeFunction()
    assert LatticeFunction._from_items(iter(items)) == want  # one pass of an iterator
    # the library functions that build through it still check the index they are given
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="lattice index"):
            LatticeFunction.basis(bad)
        with pytest.raises(ValueError, match="lattice index"):
            orthonormal_basis(ModelParams(0.5, 2, 2), Sector(0, 0), bad)


def test_lattice_function_json_roundtrip():
    f = LatticeFunction({0: 1.5, 3: complex(0.25, -2.0)})
    blob = json.dumps(f.to_json())
    assert LatticeFunction.from_json(json.loads(blob)) == f


def test_lattice_function_json_validation():
    with pytest.raises(ValueError, match="support"):
        LatticeFunction.from_json({"values": [[1, 0]]})
    with pytest.raises(ValueError, match="lengths"):
        LatticeFunction.from_json({"support": [0, 1], "values": [[1, 0]]})
    with pytest.raises(ValueError, match="values"):
        LatticeFunction.from_json({"support": [0], "values": [[1]]})
    with pytest.raises(ValueError, match="object"):
        LatticeFunction.from_json("[[0, 1.0]]")
    for bad in ('{"support": [0], "values": [["x", 0]]}',
                '{"support": [1e400], "values": [[1.0, 0.0]]}'):
        with pytest.raises(ValueError, match="entry"):
            LatticeFunction.from_json(bad)
    with pytest.raises(ValueError, match="repeated"):
        LatticeFunction.from_json({"support": [0, 0], "values": [[1, 0], [5, 0]]})
    with pytest.raises(ValueError, match="not an integer"):
        LatticeFunction.from_json({"support": [True], "values": [[1.0, 0.0]]})
    for re, im in ((math.nan, 0.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            LatticeFunction.from_json({"support": [0], "values": [[re, im]]})


# ----------------------------------------------------------- weights

def test_weight_base_point():
    for params in GRID:
        sec = Sector(0, 0)
        got = sector_weight(params, sec, 0)
        want = qpoch(params.q ** -2.0, params.q ** -2.0, params.n - 1)
        assert float(got) == pytest.approx(float(want), rel=1e-14)


def test_weight_n1_pure_power():
    params = ModelParams(0.5, 1, 3)
    for Lp in (0, 2):
        sec = Sector(0, Lp)
        for j in range(5):
            got = float(sector_weight(params, sec, j))
            assert got == pytest.approx(0.5 ** (-2 * j * (Lp + params.m - 1)), rel=1e-13)


def test_weight_hand_value():
    params = ModelParams(0.5, 2, 2)
    assert float(sector_weight(params, Sector(0, 0), 1)) == pytest.approx(-60.0)


def test_weight_sign():
    for params in GRID:
        for sec in SECTORS:
            sign = (-1) ** (sec.L + params.n - 1)
            for j in (0, 3, 11):
                assert np.sign(float(sector_weight(params, sec, j))) == sign


# ----------------------------------------------------------- masses and norms

def test_mass_at_base_point_is_one():
    for params in GRID:
        for sec in SECTORS:
            assert float(measure_mass(params, sec, 0)) == 1.0


def test_mass_positivity_deep():
    for params in GRID:
        for sec in SECTORS:
            for j in (1, 7, 50, 200):
                assert measure_mass(params, sec, j) > 0


def test_array_masses_equal_the_per_index_masses():
    """measure_mass on an index array keeps the bits of one call per index."""
    js = np.arange(61)
    for q in (0.01, 0.3, 0.5, 0.95):
        for n, m in ((1, 2), (2, 2), (1, 6)):
            params = ModelParams(q, n, m)
            for sec in SECTORS:
                got = measure_mass(params, sec, js)
                want = np.array([measure_mass(params, sec, j) for j in js])
                assert got.dtype == np.longdouble and np.array_equal(got, want)


def test_mass_hand_value():
    params = ModelParams(0.5, 1, 2)
    assert float(measure_mass(params, Sector(0, 0), 1)) == pytest.approx(16.0)


def test_norm_closed_form_matches_mass():
    for params in GRID:
        for sec in SECTORS:
            for j in range(0, 61, 6):
                a = measure_mass(params, sec, j)
                b = indicator_norm_sq(params, sec, j)
                assert abs(a - b) <= 1e-12 * abs(b)


def test_norm_n1_L0_pure_power():
    params = ModelParams(0.5, 1, 2)
    for Lp in (0, 2):
        sec = Sector(0, Lp)
        for j in range(6):
            got = float(indicator_norm_sq(params, sec, j))
            assert got == pytest.approx(
                0.5 ** (-2 * j * (params.N - 1 + Lp)), rel=1e-13)


# ----------------------------------------------------------- inner product

def test_inner_product_of_base_indicator():
    for params in GRID:
        f0 = LatticeFunction.basis(0)
        [norm] = inner_product(params, Sector(2, 0), [(f0, f0)])
        assert float(norm) == 1.0


def test_inner_product_disjoint_supports():
    params = ModelParams(0.5, 2, 2)
    sec = Sector(0, 0)
    assert inner_product(params, sec, [(LatticeFunction.basis(1),
                                        LatticeFunction.basis(4))]) == [0]


def test_inner_product_conjugate_symmetry_and_positivity():
    params = ModelParams(0.6, 2, 3)
    sec = Sector(1, 1)
    rng = Lcg(5)
    for _ in range(5):
        f = rng.lattice_function(8)
        g = rng.lattice_function(8)
        fg, gf, ff = inner_product(params, sec, [(f, g), (g, f), (f, f)])
        assert abs(fg - np.conjugate(gf)) <= 1e-12 * max(1.0, abs(fg))
        assert ff.real > 0


def test_indicator_norm_equals_inner_product():
    params = ModelParams(0.4, 2, 2)
    sec = Sector(2, 2)
    for j in range(8):
        fj = LatticeFunction.basis(j)
        [norm] = inner_product(params, sec, [(fj, fj)])
        assert abs(norm - indicator_norm_sq(params, sec, j)) \
            <= 1e-14 * float(indicator_norm_sq(params, sec, j))


# ----------------------------------------------------------- orthonormal basis

def test_orthonormal_basis_base_point():
    params = ModelParams(0.5, 2, 2)
    assert orthonormal_basis(params, Sector(0, 0), 0) == LatticeFunction.basis(0)


def test_orthonormal_basis_unit_norms():
    for params in (ModelParams(0.3, 2, 3), ModelParams(0.7, 1, 2)):
        sec = Sector(2, 2)
        for j in range(0, 41, 5):
            e = orthonormal_basis(params, sec, j)
            [norm] = inner_product(params, sec, [(e, e)])
            assert abs(norm - 1) < 1e-12


def test_orthonormal_basis_off_diagonal():
    params = ModelParams(0.5, 2, 2)
    sec = Sector(0, 0)
    e2 = orthonormal_basis(params, sec, 2)
    e5 = orthonormal_basis(params, sec, 5)
    assert inner_product(params, sec, [(e2, e5)]) == [0]


# ----------------------------------------------------------- dressed pairings

def test_pairing_constant_base_quadruple():
    # with the positive trace normalizer, C(0,0,0,0) collapses to
    # 1 / (q^-2; q^-2)_{n-1}
    for params in GRID:
        got = float(hwv_pairing_constant(params, Quadruple(0, 0, 0, 0)))
        want = 1.0 / float(qpoch(params.q ** -2.0, params.q ** -2.0, params.n - 1))
        assert got == pytest.approx(want, rel=1e-13)


def test_pairing_constant_sign_matches_weight():
    for params in GRID:
        for quad in all_quadruples(3):
            c = float(hwv_pairing_constant(params, quad))
            w = float(sector_weight(params, quad.sector(), 4))
            assert np.sign(c) == (-1) ** (quad.L + params.n - 1)
            assert c * w > 0


def test_normalizer_is_positive():
    for params in GRID:
        norm = float(invariant_integral_normalizer(params))
        assert norm > 0
        # equals |(q^-2; q^-2)_{m-1}|
        raw = float(qpoch(params.q ** -2.0, params.q ** -2.0, params.m - 1))
        assert norm == pytest.approx(abs(raw), rel=1e-13)


def test_hwv_pairing_positive_definite():
    rng = Lcg(9)
    for params in (ModelParams(0.4, 2, 2), ModelParams(0.6, 1, 3)):
        for quad in all_quadruples(3)[::5]:
            phi = rng.lattice_function(5)
            val = hwv_inner_product(params, quad, phi, phi)
            assert np.real(val) > 0
            assert abs(np.imag(complex(val))) <= 1e-12 * abs(val)


def test_hwv_pairing_disjoint_support():
    params = ModelParams(0.5, 2, 2)
    quad = Quadruple(1, 1, 1, 1)
    assert hwv_inner_product(params, quad, LatticeFunction.basis(0),
                             LatticeFunction.basis(1)) == 0


def test_hwv_indicator_closed_form():
    """Pairing of f_s with itself against its fully expanded closed form."""
    for params in (ModelParams(0.5, 2, 2), ModelParams(0.4, 2, 3)):
        q = params.q
        n, m = params.n, params.m
        for quad in (Quadruple(0, 0, 0, 0), Quadruple(1, 0, 1, 0),
                     Quadruple(1, 1, 1, 1), Quadruple(2, 1, 2, 1)):
            k, l, kp, lp = quad.k, quad.l, quad.kp, quad.lp
            for s in (0, 1, 3):
                fs = LatticeFunction.basis(s)
                got = float(hwv_inner_product(params, quad, fs, fs))
                want = ((-1) ** (k + l)
                        * q ** (m * (m - 1) - 2 * l * m + 2 * (m - 1) * (kp + lp))
                        * float(invariant_integral_normalizer(params))
                        * float(qpoch(q**2, q**2, kp) * qpoch(q**2, q**2, lp)
                                / qpoch(q**2, q**2, kp + lp + m - 1))
                        * float(qpoch(q**-2.0, q**-2.0, k) * qpoch(q**-2.0, q**-2.0, l)
                                / qpoch(q**-2.0, q**-2.0, k + l + n - 1))
                        * q ** (-2 * s * (kp + lp + m))
                        * float(qpoch(q ** (-2.0 * s - 2), q**-2.0, k + l + n - 1)))
                assert got == pytest.approx(want, rel=1e-12)
