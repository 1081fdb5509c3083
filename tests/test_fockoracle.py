"""Tests for the trace oracle and the four summation identities."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qlaplace import fockoracle
from qlaplace.fockoracle import (invariant_integral, negative_block_sum,
                                 pochhammer_geometric_sum, positive_block_sum,
                                 qbinomial_convolution)
from qlaplace.lattice import (LatticeFunction, ModelParams, Quadruple,
                              hwv_inner_product, invariant_integral_normalizer)
from qlaplace.qcore import LD_INF_TOL, ConvergenceError, qpoch
import scalarref
from scalarref import FockIndex, diagonal_action


def _oracle(params, quad, phi, psi):
    """The trace oracle of one pair at one quadruple."""
    [[val]] = invariant_integral(params, [quad], [(phi, psi)])
    return val


def _positive(q, m, kp, lp):
    """Both sides of the positive-block identity at one (m, kp, lp)."""
    [sides] = positive_block_sum(q, [(m, kp, lp)])
    return sides


def _geometric(q, x, y):
    """Both sides of the Pochhammer-weighted geometric sum at one (x, y)."""
    [sides] = pochhammer_geometric_sum(q, [(x, y)])
    return sides


def _negative(q, n, k, l, t):
    """Both sides of the negative-block identity at one (n, k, l, t)."""
    [sides] = negative_block_sum(q, [(n, k, l, t)])
    return sides


def _qbinomial(q, k, l, t):
    """Both sides of the Gaussian-binomial convolution at one (k, l, t)."""
    [sides] = qbinomial_convolution(q, [(k, l, t)])
    return sides

F0 = LatticeFunction.basis(0)
F1 = LatticeFunction.basis(1)
F2 = LatticeFunction.basis(2)
F01 = F0 + F1


def quadruples(max_entry):
    rng = range(max_entry + 1)
    return [Quadruple(*t) for t in itertools.product(rng, repeat=4)
            if t[0] + t[3] == t[1] + t[2]]


# ----------------------------------------------------------- diagonal action

def test_diagonal_action_trivial_index():
    params = ModelParams(0.4, 2, 2)
    idx = FockIndex((0, 0, 1))
    val = diagonal_action(params, Quadruple(0, 0, 0, 0), F0, F0, idx)
    assert float(val) == pytest.approx(1.0)


def test_diagonal_action_vanishing_factor():
    # a_n = 0 with l >= 1 kills the value through (q^(2 a_n); q^2)_l
    params = ModelParams(0.4, 2, 2)
    quad = Quadruple(0, 1, 0, 1)
    idx = FockIndex((-1, 0, 1))
    assert float(diagonal_action(params, quad, F1 + F0, F1 + F0, idx)) == 0.0


def test_diagonal_action_off_lattice_read_is_zero():
    params = ModelParams(0.4, 2, 2)
    # sum of negative entries 0 with l = 1: read point q^2 is off-lattice
    quad = Quadruple(0, 1, 0, 1)
    idx = FockIndex((0, -1, 1))
    assert float(diagonal_action(params, quad, F0, F0, idx)) == 0.0


def test_fock_index_validation():
    params = ModelParams(0.4, 2, 2)
    with pytest.raises(ValueError):
        FockIndex((0, 0)).validate(params)
    with pytest.raises(ValueError):
        FockIndex((1, 0, 1)).validate(params)
    with pytest.raises(ValueError):
        FockIndex((0, 0, 0)).validate(params)


def test_n1_rejected():
    params = ModelParams(0.4, 1, 3)
    with pytest.raises(ValueError, match="n = 1"):
        diagonal_action(params, Quadruple(0, 0, 0, 0), F0, F0,
                        FockIndex((0, 1, 1, 1)))
    with pytest.raises(ValueError, match="n = 1"):
        _oracle(params, Quadruple(0, 0, 0, 0), F0, F0)


# ----------------------------------------------------------- the oracle

def _literal_trace(params, quad, phi, psi, depth):
    """Reference: literal sum of diagonal_action times the trace weight, each
    positive index taking ``depth`` terms past those that vanish (the first
    index's a <= lp)."""
    q = params.q
    n, N = params.n, params.N
    total = 0.0
    neg_axes = [range(0, -depth - 1, -1)] * n
    pos_axes = [range(1, depth + quad.lp + 1)] + [range(1, depth + 1)] * (params.m - 2)
    for neg in itertools.product(*neg_axes):
        for pos in itertools.product(*pos_axes):
            idx = FockIndex(neg + pos)
            val = diagonal_action(params, quad, phi, psi, idx)
            if val == 0:
                continue
            e = sum((N - (i + 1)) * a for i, a in enumerate(idx.values))
            total += float(val) * q ** (2 * e)
    return float(invariant_integral_normalizer(params)) * total


def test_oracle_equals_literal_enumeration():
    params = ModelParams(0.5, 2, 2)
    for quad in (Quadruple(0, 0, 0, 0), Quadruple(1, 0, 1, 0), Quadruple(1, 1, 1, 1)):
        for phi, psi in ((F0, F0), (F01, F01), (F01, F1)):
            fast = float(fockoracle._oracle_values(params, [quad], [(phi, psi)], 6)[0][0][0])
            literal = _literal_trace(params, quad, phi, psi, 6)
            assert fast == pytest.approx(literal, rel=1e-13, abs=1e-15)


def test_oracle_unit_mass_of_base_indicator():
    for q in (0.4, 0.6):
        for n, m in ((2, 2), (2, 3)):
            params = ModelParams(q, n, m)
            val = float(_oracle(params, Quadruple(0, 0, 0, 0), F0, F0))
            assert abs(val - 1.0) < 1e-12


def test_oracle_matches_closed_form():
    params = ModelParams(0.6, 2, 3)
    for quad in quadruples(2)[::3]:
        for phi, psi in ((F0, F0), (F1, F1), (F01, F01), (F01, F0)):
            o = _oracle(params, quad, phi, psi)
            c = hwv_inner_product(params, quad, phi, psi)
            assert abs(o - c) <= 1e-9 * abs(c)


def test_oracle_disjoint_supports_vanish():
    params = ModelParams(0.5, 2, 2)
    assert float(_oracle(params, Quadruple(1, 1, 1, 1), F0, F2)) \
        == pytest.approx(0.0, abs=1e-12)


def test_oracle_positivity():
    params = ModelParams(0.5, 2, 2)
    for quad in quadruples(2)[::4]:
        val = float(_oracle(params, quad, F01, F01))
        assert val > 0


def test_depth_doubling_detects_truncation(monkeypatch):
    monkeypatch.setattr(fockoracle, "_depth", lambda q: 2)
    params = ModelParams(0.6, 2, 2)
    with pytest.raises(ConvergenceError, match="depth 2 too small"):
        _oracle(params, Quadruple(0, 0, 0, 0), F0, F0)


def test_depth_doubling_stability_at_default():
    params = ModelParams(0.6, 2, 3)
    depth = fockoracle._depth(params.q)
    quad = Quadruple(1, 1, 1, 1)
    ((v1, v2),), = fockoracle._oracle_values(params, [quad], [(F01, F01)],
                                             depth, 2 * depth)
    assert _oracle(params, quad, F01, F01) == v2
    assert abs(v2 - v1) <= 1e-18 * max(1.0, float(abs(v2)))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("quad", [Quadruple(1, 0, 1, 0), Quadruple(1, 1, 1, 1)],
                         ids=["lp0", "lp1"])
def test_both_depths_keep_their_single_depth_bits(m, quad):
    """D and 2D read prefixes of one power table; each value has the bits of
    the call at that depth alone.  At depths 3 and 6 the two values differ,
    so a prefix read at the wrong length shows."""
    params = ModelParams(0.95, 2, m)
    depth = fockoracle._depth(params.q)
    for depths in ((depth, 2 * depth), (3, 6)):
        (both,), = fockoracle._oracle_values(params, [quad], [(F01, F01)], *depths)
        alone = [fockoracle._oracle_values(params, [quad], [(F01, F01)], d)[0][0][0]
                 for d in depths]
        assert both == alone
        assert np.array_equal(np.signbit(both), np.signbit(alone))
    assert both[0] != both[1]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.8, 0.9, 0.95])
def test_depth_is_smallest_below_tolerance(q):
    depth = fockoracle._depth(q)
    assert q ** (2 * depth) < LD_INF_TOL <= q ** (2 * (depth - 1))


# ----------------------------------------------------------- identity 1

def test_negative_block_trivial_cases():
    q = 0.5
    for n in (1, 2, 3):
        for k in range(4):
            lhs, rhs = _negative(q, n, k, 0, 0)
            want = float(qpoch(q**-2.0, q**-2.0, k))
            assert float(lhs) == pytest.approx(want, rel=1e-13)
            assert float(rhs) == pytest.approx(want, rel=1e-13)
        for l in range(1, 4):
            lhs, rhs = _negative(q, n, 1, l, 0)
            assert float(lhs) == pytest.approx(0.0, abs=1e-13)
            assert float(rhs) == pytest.approx(0.0, abs=1e-13)


def test_negative_block_example():
    lhs, rhs = _negative(0.5, 3, 2, 1, 2)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_negative_block_grid_n_ge_2():
    for q in (0.3, 0.5, 0.7):
        for n in (2, 3, 4):
            for k in range(5):
                for l in range(5):
                    for t in range(5):
                        lhs, rhs = _negative(q, n, k, l, t)
                        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_negative_block_n1_collision_documented():
    """For n = 1 the two Pochhammer factors act on one index; the closed form
    does not extend to k, l, t all positive.  Pin the boundary: degenerate
    cells still agree, the collision cell genuinely does not."""
    q = 0.5
    for (k, l, t) in ((0, 2, 3), (2, 0, 3), (2, 2, 0)):
        lhs, rhs = _negative(q, 1, k, l, t)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    lhs, rhs = _negative(q, 1, 1, 1, 1)
    assert float(lhs) == pytest.approx(11.25)
    assert float(rhs) == pytest.approx(2.25)


def _compositions_recursive(total, parts):
    """The compositions as one nested generator per part, first part outermost."""
    if parts == 1:
        if total >= 0:
            yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_recursive(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_keep_the_order_of_the_recursive_generator():
    """Stars and bars yield the nested generators' sequence, so every sum
    over the compositions adds its terms in the same order."""
    for total, parts in itertools.product(range(-2, 9), range(1, 7)):
        assert list(fockoracle._compositions(total, parts)) \
            == list(_compositions_recursive(total, parts)), (total, parts)


def _poch_fraction(a, base, k):
    acc = Fraction(1)
    p = Fraction(1)
    for _ in range(k):
        acc *= 1 - a * p
        p *= base
    return acc


def _negative_block_fraction_loop(q, n, k, l, t):
    """Both sides of the negative-block identity by a plain Fraction loop,
    one exact Pochhammer factor at a time."""
    qf = Fraction(q)
    p = qf * qf
    pinv = 1 / p
    lhs = Fraction(0)
    for parts in fockoracle._compositions(t, n):
        a = tuple(-v for v in parts)
        f = _poch_fraction(qf ** (2 * a[0] - 2 * k), p, k)
        f *= _poch_fraction(qf ** (2 * a[-1]), p, l) * qf ** (-2 * l * a[-1])
        e = sum((n - (i + 1)) * ai for i, ai in enumerate(a))
        lhs += f * qf ** (2 * e)
    rhs = _poch_fraction(pinv, pinv, k) * _poch_fraction(pinv, pinv, l) \
        * qf ** (2 * l * t) \
        * _poch_fraction(qf ** (-2 * (t - l + 1)), pinv, k + l + n - 1) \
        / _poch_fraction(pinv, pinv, k + l + n - 1)
    return float(lhs), float(rhs)


@pytest.mark.parametrize("q", [0.01, 0.1, 0.3, 0.5, 0.7, 0.95, 0.123456789])
def test_negative_block_equals_the_fraction_loop(q):
    """The integer quotients return the floats of the exact Fraction loop,
    zero signs included: over the battery grid (n in {2, 3}, k, l, t in
    0..3) and over the full n = 1 grid, where lhs != rhs once k, l, t are
    all positive, each grid in one call and each cell alone.  Cells with
    t - l + 1 <= 0 put a factor 1 - x^0 into the right side's Pochhammer
    product, which is then +0.0."""
    battery = list(itertools.product((2, 3), range(4), range(4), range(4)))
    n1 = [(1, k, l, t) for k, l, t in itertools.product(range(5), repeat=3)]
    for grid in (battery, n1):
        for cell, got in zip(grid, negative_block_sum(q, grid), strict=True):
            want = _negative_block_fraction_loop(q, *cell)
            for sides in (got, _negative(q, *cell)):
                assert sides == want, cell
                assert np.signbit(sides).tolist() == np.signbit(want).tolist(), cell
            if cell[3] - cell[2] + 1 <= 0:
                assert want[1] == 0.0


@pytest.mark.parametrize("q", [0.5, 0.95, 0.3, 0.001, 1e-6])
def test_negative_block_equals_the_per_term_builder(q):
    """The per-call composition, power and run tables give the reprs of the
    per-term builder kept in ``scalarref``, side by side, on n 2-5 x k, l 0-4
    x t 0-5, in one call over every cell whose sides fit a double; a cell
    past the double range (41 at q = 1e-6) raises OverflowError in both."""
    fits = []
    for cell in itertools.product(range(2, 6), range(5), range(5), range(6)):
        try:
            fits.append((cell, scalarref.negative_block_sum(q, *cell)))
        except OverflowError:
            with pytest.raises(OverflowError):
                negative_block_sum(q, [cell])
    got = negative_block_sum(q, [cell for cell, _ in fits])
    for (cell, want), sides in zip(fits, got, strict=True):
        assert [repr(side) for side in sides] == [repr(side) for side in want], cell


# ----------------------------------------------------------- identity 2

def test_positive_block_single_geometric():
    q = 0.5
    lhs, rhs = _positive(q, 2, 0, 0)
    want = q**2 / (1 - q**2)
    assert float(lhs) == pytest.approx(want, rel=1e-13)
    assert float(rhs) == pytest.approx(want, rel=1e-13)


def test_positive_block_example():
    lhs, rhs = _positive(0.5, 3, 1, 1)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_positive_block_rejects_small_m():
    with pytest.raises(ValueError):
        _positive(0.5, 1, 0, 0)


# ----------------------------------------------------------- identity 3

def test_qbinomial_convolution_trivial():
    q = 0.5
    lhs, rhs = _qbinomial(q, 3, 2, 0)
    assert float(lhs) == pytest.approx(1.0)
    assert float(rhs) == pytest.approx(1.0)


def test_qbinomial_convolution_geometric_case():
    q, t = 0.5, 5
    lhs, rhs = _qbinomial(q, 0, 0, t)
    want = (1 - q ** (-2.0 * (t + 1))) / (1 - q**-2.0)
    assert float(lhs) == pytest.approx(want, rel=1e-13)
    assert float(rhs) == pytest.approx(want, rel=1e-13)


def test_qbinomial_convolution_example():
    lhs, rhs = _qbinomial(0.5, 2, 3, 4)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ----------------------------------------------------------- identity 4

def test_geometric_sum_pure():
    q, y = 0.5, 2
    lhs, rhs = _geometric(q, 0, y)
    want = q ** (2 * y) / (1 - q ** (2 * y))
    assert float(lhs) == pytest.approx(want, rel=1e-13)
    assert float(rhs) == pytest.approx(want, rel=1e-13)


def test_geometric_sum_leading_terms_vanish():
    # terms a = 1..x carry a vanishing Pochhammer factor
    q, x = 0.5, 3
    partial = sum(float(qpoch(q ** (2.0 * a - 2), q**-2.0, x)) for a in range(1, x + 1))
    assert partial == 0.0


def test_geometric_sum_example():
    lhs, rhs = _geometric(0.5, 2, 3)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_geometric_sum_requires_positive_exponent():
    with pytest.raises(ValueError):
        _geometric(0.5, 2, 0)


# ----------------------------------------------------------- near q = 1

@pytest.mark.parametrize("q", [0.8, 0.9, 0.95])
def test_geometric_identities_near_the_q_bound(q):
    # the tails decay like q^(2a); a fixed depth stops short of them here
    sides = positive_block_sum(q, itertools.product((2, 3), range(4), range(4))) \
        + pochhammer_geometric_sum(q, itertools.product(range(4), range(1, 4)))
    for lhs, rhs in sides:
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("q", [1e-6, 0.01, 0.5, 0.95])
def test_positive_sums_meet_their_closed_forms_relatively(q):
    """Relative to |rhs|, with no floor.  The first index's terms a <= lp
    vanish exactly and are not summed: in floating point each would carry a
    rounding error of 1 - q^0 scaled by up to q^(-2 lp)."""
    grid = list(itertools.product((2, 3, 4), range(4), range(4)))
    for args, (lhs, rhs) in zip(grid, positive_block_sum(q, grid)):
        assert abs(lhs - rhs) <= 2e-18 * abs(rhs), args
    grid = list(itertools.product(range(4), range(1, 4)))
    for args, (lhs, rhs) in zip(grid, pochhammer_geometric_sum(q, grid)):
        assert abs(lhs - rhs) <= 2e-18 * abs(rhs), args


def test_oracle_converges_at_depth_two():
    """At q = 1e-6 the depth is 2; with lp = 1 the first index's two terms
    start at a = 2, and the 2D value moves by a rounding error only."""
    params = ModelParams(1e-6, 2, 2)
    assert fockoracle._depth(params.q) == 2
    for quad in (Quadruple(0, 1, 0, 1), Quadruple(1, 1, 1, 1)):
        for phi, psi in ((F1, F1), (F01, F01), (F01, F0)):
            o = _oracle(params, quad, phi, psi)
            c = hwv_inner_product(params, quad, phi, psi)
            assert abs(o - c) <= 1e-18 * abs(c)
