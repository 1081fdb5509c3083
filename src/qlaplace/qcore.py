"""q-calculus primitives.

q-Pochhammer symbols (finite and truncated-infinite), the Gaussian
q-binomial coefficient read from a table of Pochhammer prefixes
(``_qbinomial_from``), the Jackson integral on the lattice x = q^(-2j), and
the forward / backward q-difference quotients.

All routines are dtype-preserving: they accept Python floats/complex or numpy
scalars (including ``np.longdouble`` / ``np.clongdouble``) and carry the input
precision through.  :func:`qpoch` and the difference quotients' value
formula also run elementwise on numpy arrays, with the bits of the scalar
calls; :func:`qpoch_inf` folds its factors in numpy arrays, and numpy is
imported by its first call, not by this module.  No product is summed as
logarithms, since q-Pochhammer factors routinely change sign, except the
tail of ``asc._masked_qpoch_inf``, whose factors 1 - t all have |t| <= 0.1
and so a positive real part; that kernel multiplies the factors before the
tail, the first of them on every entry at once and the rest under a
per-entry mask.
"""

from __future__ import annotations

import math
from typing import Mapping

__all__ = [
    "ConvergenceError",
    "qpoch",
    "qpoch_inf",
    "jackson_integral",
    "bminus",
    "bplus",
]

#: default truncation tolerance for infinite products; the dropped tail has
#: relative size O(tol / (1 - |base|))
DEFAULT_INF_TOL = 1e-16

#: truncation tolerance for products and geometric tails in ``np.longdouble``
LD_INF_TOL = 1e-19

#: factors per array fold of :func:`qpoch_inf`
_CHUNK = 256


class ConvergenceError(ArithmeticError):
    """A truncated summation failed to meet its tolerance."""


def qpoch(a, base, k: int):
    """Finite q-Pochhammer symbol (a; base)_k = prod_{i<k} (1 - a*base^i).

    The empty product (k = 0) is exactly 1.  Any complex ``a``/``base`` are
    accepted; the value is computed as an explicit product of factors.
    """
    return _qpoch_prefixes(a, base, k)[k]


def _qpoch_prefixes(a, base, k: int) -> list:
    """The partial products (a; base)_0, ..., (a; base)_k of one running
    product; entry i has the bits of ``qpoch(a, base, i)``."""
    if k < 0:
        raise ValueError(f"q-Pochhammer order must be nonnegative, got {k}")
    one = a * 0 + 1.0  # 1 in the type of a, so the loop mixes no Python scalar
    out = [one]
    if k:
        out.append(one * (one - a))  # the factor 1 - a * 1: a * 1 is a, bit for bit
        p = one
        for _ in range(k - 1):
            p = p * base
            out.append(out[-1] * (one - a * p))
    return out


def qpoch_inf(a, base, tol: float = DEFAULT_INF_TOL):
    """Infinite q-Pochhammer symbol (a; base)_inf, truncated.

    Multiplies factors 1 - a*base^i until |a*base^i| < tol; no tail
    correction is applied.  Requires |base| < 1.  The neglected tail has
    relative size O(tol / (1 - |base|)).  The terms and the running product
    are left folds by ``np.multiply.accumulate``, at most ``_CHUNK`` factors
    at a time, in the type of a * 0 + base * 0 + 1.0: value and type are
    those of the loop that multiplies one factor per step.
    """
    if abs(base) >= 1:
        raise ValueError(f"infinite product requires |base| < 1, got {base!r}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    import numpy as np  # here, so that importing this layer loads no numpy

    acc = a * 0 + base * 0 + 1.0  # NaN for a NaN or infinite a: no factor runs
    kind, t = type(acc), acc * a
    if base == 0:  # one factor at most, the loop's own step
        return kind(acc * (1 - t) if abs(t) >= tol else acc)
    # the loop t -> t * base, acc -> acc * (1 - t) as two sequential
    # np.multiply.accumulate folds per chunk, carrying t and acc forward; a
    # chunk holds the count estimate ceil(ln(tol/|t|) / ln|base|) + 1 (+1 for
    # rounding), at most _CHUNK, so that a short product runs short arrays
    size = _CHUNK
    if abs(t) >= tol:
        est = (math.log(tol) - math.log(abs(t))) / math.log(abs(base))
        if est < _CHUNK:
            size = min(math.ceil(est) + 1, _CHUNK)
    steps = np.full(size + 1, base, dtype=np.asarray(acc).dtype)
    factors = np.empty_like(steps)
    while abs(t) >= tol:
        steps[0] = t
        ts = np.multiply.accumulate(steps)  # t base^i, i = 0..size
        small = np.abs(ts[:-1]) < tol
        cut = int(small.argmax())  # the first small term, or 0 if none is
        if not small[cut]:
            cut = size
        factors[0] = acc
        np.subtract(1, ts[:cut], out=factors[1:cut + 1])
        acc = np.multiply.accumulate(factors[:cut + 1])[-1]
        t = ts[cut]
    return kind(acc)


def _qbinomial_from(table, a: int, b: int):
    """[a; b] = (base; base)_a / ((base; base)_b (base; base)_{a-b}), 0 <= b <= a,
    from ``table``, the prefixes of (base; base) to order >= a; elementwise on
    index arrays a and b when ``table`` is an array."""
    return table[a] / (table[b] * table[a - b])


def jackson_integral(f: Mapping[int, complex], q):
    """Jackson integral of a finitely supported function on x = q^(-2j).

    Returns sum_j f(j) * q^(-2j), an exact finite sum over the support.
    The map ``f`` sends the lattice index j >= 0 to the value at x = q^(-2j).
    """
    total = q * 0
    for j in sorted(f):
        total = total + f[j] * q ** (-2 * j)
    return total


def _quotient(shifted, here, x, step):
    """The q-difference quotient (shifted - here) / (step * x - x) from the
    values at the shifted point step * x and at x.  Works elementwise on
    arrays of equal length as on scalars."""
    return (shifted - here) / (step * x - x)


def bminus(f: Mapping[int, complex], j: int, q):
    """Backward q-difference quotient (f(q^-2 x) - f(x)) / (q^-2 x - x).

    Evaluated at the lattice point x = q^(-2j); reads indices j and j+1.
    Missing indices read as 0, so bilateral (q^(2Z)) supports work too.
    """
    return _quotient(f.get(j + 1, 0.0), f.get(j, 0.0), q ** (-2 * j), q**-2)


def bplus(f: Mapping[int, complex], j: int, q):
    """Forward q-difference quotient (f(q^2 x) - f(x)) / (q^2 x - x).

    Evaluated at x = q^(-2j); reads indices j-1 and j.  On the half-line
    lattice q^(-2Z+) the point q^2*x falls off-lattice at j = 0, so callers
    restricted to that lattice must supply their own boundary policy there
    (the divergence form in :mod:`qlaplace.laplace` never forms the forward
    quotient at the boundary).  Missing indices read as 0.
    """
    return _quotient(f.get(j - 1, 0.0), f.get(j, 0.0), q ** (-2 * j), q**2)
