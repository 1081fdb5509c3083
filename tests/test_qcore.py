"""Unit and property tests for the scalar q-series primitives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlaplace.qcore import (_qbinomial_from, _qpoch_prefixes, bminus, bplus,
                            jackson_integral, qpoch, qpoch_inf)


# ----------------------------------------------------------------- qpoch

def test_qpoch_empty_product():
    assert qpoch(0.7, 0.5, 0) == 1.0


def test_qpoch_vanishing_first_factor():
    assert qpoch(1.0, 0.25, 3) == 0.0


def test_qpoch_hand_value():
    assert qpoch(0.5, 0.25, 2) == pytest.approx(0.4375, rel=0, abs=0)


def test_qpoch_negative_order_rejected():
    with pytest.raises(ValueError):
        qpoch(0.5, 0.5, -1)


@settings(max_examples=150, deadline=None)
@given(a=st.floats(-2, 2), base=st.floats(-0.9, 0.9), k=st.integers(0, 50))
def test_qpoch_recursion(a, base, k):
    lhs = qpoch(a, base, k + 1)
    rhs = qpoch(a, base, k) * (1 - a * base**k)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-1.5, 1.5), base=st.floats(0.05, 0.9), k=st.integers(0, 30))
def test_qpoch_finite_vs_infinite_ratio(a, base, k):
    num = qpoch_inf(a, base, 1e-18)
    den = qpoch_inf(a * base**k, base, 1e-18)
    if abs(den) < 1e-8:  # a*base^j ~ 1 for some j: ratio ill-posed
        return
    assert abs(qpoch(a, base, k) - num / den) <= 1e-10 * max(1.0, abs(num / den))


# ------------------------------------------------------------- qpoch_inf

def test_qpoch_inf_zero_argument():
    assert qpoch_inf(0.0, 0.5, 1e-15) == 1.0


def test_qpoch_inf_partial_product_oracle():
    # independent oracle: 200 explicit factors
    expected = 1.0
    for i in range(200):
        expected *= 1 - 0.5 * 0.5**i
    assert abs(qpoch_inf(0.5, 0.5, 1e-15) - expected) < 1e-12


def test_qpoch_inf_vanishing():
    assert qpoch_inf(1.0, 0.5, 1e-15) == 0.0


def test_qpoch_inf_rejects_large_base():
    with pytest.raises(ValueError):
        qpoch_inf(0.5, 1.0)
    with pytest.raises(ValueError):
        qpoch_inf(0.5, -1.2)


def test_qpoch_inf_complex():
    w = np.exp(0.7j)
    val = qpoch_inf(0.3 * w, 0.25, 1e-16) * qpoch_inf(0.3 / w, 0.25, 1e-16)
    assert abs(val.imag) < 1e-15 * abs(val)


# ------------------------------------------------------------- qbinomial

def qbinomial(a, b, base):
    """[a; b] as the library forms it: three entries of one prefix table."""
    return _qbinomial_from(_qpoch_prefixes(base, base, a), a, b)


def test_qbinomial_edges():
    base = 0.5**-2
    assert qbinomial(5, 0, base) == pytest.approx(1.0)
    assert qbinomial(5, 5, base) == pytest.approx(1.0)


def _qbinomial_by_subsets(a, b, base):
    # Gaussian binomial = sum over b-subsets S of {0..a-1} of
    # base^(sum S - (0+1+...+(b-1)))
    offset = b * (b - 1) // 2
    return sum(base ** (sum(s) - offset)
               for s in itertools.combinations(range(a), b))


def test_qbinomial_subset_enumeration():
    assert qbinomial(4, 2, 0.25) == pytest.approx(
        _qbinomial_by_subsets(4, 2, 0.25), rel=1e-13)


@pytest.mark.parametrize("base", [0.3**-2, 0.6**-2, 0.25])
def test_qbinomial_pascal_rule(base):
    for a in range(1, 13):
        for b in range(1, a):
            lhs = qbinomial(a, b, base)
            rhs = qbinomial(a - 1, b, base) + base ** (a - b) * qbinomial(a - 1, b - 1, base)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_qbinomial_rejects_bad_input():
    # a negative order has no prefix table; b > a reads past its end
    with pytest.raises(ValueError):
        qbinomial(-1, 0, 0.5)
    with pytest.raises(IndexError):
        qbinomial(2, 3, 0.5)


# ------------------------------------------------------------ jackson

def test_jackson_indicators():
    q = 0.5
    assert jackson_integral({0: 1.0}, q) == pytest.approx(1.0)
    assert jackson_integral({2: 1.0}, q) == pytest.approx(q**-4)


def test_jackson_three_terms():
    q = 0.5
    val = jackson_integral({0: 1.0, 1: 1.0, 2: 1.0}, q)
    assert val == pytest.approx(1 + q**-2 + q**-4)


# ------------------------------------------------------- difference quotients

def test_difference_of_constant_vanishes():
    f = {j: 3.25 for j in range(6)}
    assert bminus(f, 2, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert bplus(f, 2, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_difference_of_identity_is_one():
    q = 0.5
    f = {j: q ** (-2 * j) for j in range(6)}
    assert bminus(f, 2, q) == pytest.approx(1.0, rel=1e-13)
    assert bplus(f, 2, q) == pytest.approx(1.0, rel=1e-13)


def test_bminus_square_hand_value():
    q = 0.5
    f = {j: q ** (-4 * j) for j in range(4)}  # f(x) = x^2
    expect = (q**-8 - q**-4) / (q**-4 - q**-2)
    assert bminus(f, 1, q) == pytest.approx(expect, rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=4, max_size=8),
       st.lists(st.floats(-1, 1), min_size=4, max_size=8),
       st.sampled_from([0.3, 0.5, 0.7]))
def test_difference_duality(uvals, vvals, q):
    """sum u (B- v) q^(-2k) dq = -q^2 sum (B+ u) v q^(-2k) dq on q^(2Z)."""
    u = {j - 2: v for j, v in enumerate(uvals)}
    v = {j - 2: w for j, w in enumerate(vvals)}
    window = range(-5, max(len(uvals), len(vvals)) + 3)
    scale = q**-2 - 1
    lhs = sum(u.get(j, 0.0) * bminus(v, j, q) * q ** (-2 * j) for j in window) * scale
    rhs = -q * q * sum(bplus(u, j, q) * v.get(j, 0.0) * q ** (-2 * j)
                       for j in window) * scale
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
