"""Brute-force trace realization of the invariant integral, plus the
summation identities used to reduce it in closed form.

The invariant integral of a product of two dressed lattice functions is a
weighted trace over a truncated multi-index space: indices a_1..a_n run over
nonpositive integers, a_{n+1}..a_{N-1} over positive integers, each basis
vector contributing an explicitly known diagonal factor times the trace
weight q^(2 sum (N-i) a_i).  The oracle sums this directly (no closed-form
summation identities are used), so it independently validates the
closed-form pairing of :func:`qlaplace.lattice.hwv_inner_product`.

The sum factorizes exactly over the two index blocks; the negative block is
a finite sum (the function reads vanish once sum a_i leaves the support).
The positive block and the identities' geometric sums run each index to the
first depth D with q^(2D) < ``LD_INF_TOL``; the oracle also checks at 2D.

The n = 1 case is excluded: there the first and last negative indices
coincide and the diagonal factor's two Pochhammer pieces collide; the
closed-form reduction does not cover it (see ``negative_block_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .lattice import ModelParams, Quadruple, invariant_integral_normalizer
from .qcore import LD_INF_TOL, ConvergenceError, qbinomial, qpoch

__all__ = [
    "FockIndex",
    "diagonal_action",
    "invariant_integral",
    "negative_block_sum",
    "positive_block_sum",
    "qbinomial_convolution",
    "pochhammer_geometric_sum",
]

_LD = np.longdouble


@dataclass(frozen=True)
class FockIndex:
    """Multi-index (a_1, ..., a_{N-1}): first n entries <= 0, rest >= 1."""

    values: tuple[int, ...]

    def validate(self, params: ModelParams) -> None:
        if len(self.values) != params.N - 1:
            raise ValueError(f"index length {len(self.values)} != N-1 = "
                             f"{params.N - 1}")
        if any(v > 0 for v in self.values[:params.n]):
            raise ValueError("first n entries must be nonpositive")
        if any(v < 1 for v in self.values[params.n:]):
            raise ValueError("trailing entries must be >= 1")


def _require_n_ge_2(params: ModelParams) -> None:
    if params.n == 1:
        raise ValueError(
            "the diagonal trace action is not defined for n = 1 (the two "
            "negative-block Pochhammer factors would collide on one index)")


def diagonal_action(params: ModelParams, quad: Quadruple,
                    phi: Mapping[int, complex], psi: Mapping[int, complex],
                    idx: FockIndex):
    """Diagonal matrix element of the dressed pairing on one basis vector.

    Returns the known eigenvalue factor times conj(psi) phi read at the
    lattice point q^(2l + 2 sum_{i<=n} a_i); reads landing off the lattice
    (positive exponent) give 0.
    """
    _require_n_ge_2(params)
    idx.validate(params)
    q = params.q_ld
    n = params.n
    k, l, kp, lp = quad.k, quad.l, quad.kp, quad.lp
    neg = idx.values[:n]
    pos = idx.values[n:]
    c = sum(neg)
    jread = -(l + c)
    if jread < 0:
        return _LD(0.0)
    read = np.conjugate(psi.get(jread, 0.0)) * phi.get(jread, 0.0)
    if read == 0:
        return _LD(0.0)
    val = _quadruple_prefactor(q, quad) \
        * _negative_factor(q, k, l, neg[0], neg[-1])
    val = val * qpoch(q ** _LD(2 * pos[0] - 2), q ** _LD(-2), lp)
    val = val * q ** _LD(2 * kp * (sum(neg) + sum(pos)))
    val = val * q ** _LD(2 * (l + lp) * c)
    return val * read


def _quadruple_prefactor(q, quad: Quadruple):
    """(-1)^(k+l) q^(2 l lp + 2 kp l - 2 kp lp), common to every index."""
    k, l, kp, lp = quad.k, quad.l, quad.kp, quad.lp
    return _LD((-1) ** (k + l)) * q ** _LD(2 * l * lp + 2 * kp * l - 2 * kp * lp)


def _negative_factor(q, k: int, l: int, a1: int, an: int):
    """(q^(2a_1-2); q^-2)_k (q^(2a_n); q^2)_l q^(-2l a_n): the Pochhammer
    factor of the first and last negative-block indices."""
    return qpoch(q ** _LD(2 * a1 - 2), q ** _LD(-2), k) \
        * qpoch(q ** _LD(2 * an), q * q, l) * q ** _LD(-2 * l * an)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as ``parts`` nonnegative integers."""
    if parts == 1:
        if total >= 0:
            yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _negative_block(params: ModelParams, quad: Quadruple,
                    phi: Mapping[int, complex], psi: Mapping[int, complex]):
    q = params.q_ld
    n, N = params.n, params.N
    k, l, kp, lp = quad.k, quad.l, quad.kp, quad.lp
    total = _LD(0.0)
    for jread in sorted(set(phi) | set(psi)):
        read = np.conjugate(psi.get(jread, 0.0)) * phi.get(jread, 0.0)
        if read == 0:
            continue
        c = -(l + jread)
        for parts in _compositions(-c, n):
            a = tuple(-v for v in parts)
            f = _negative_factor(q, k, l, a[0], a[-1])
            e = sum(ai * (kp + l + lp + N - (i + 1)) for i, ai in enumerate(a))
            total = total + f * q ** _LD(2 * e) * read
    return total


def _depth(q) -> int:
    """Smallest D with q^(2D) < LD_INF_TOL: every geometric tail's truncation."""
    return math.ceil(math.log(LD_INF_TOL) / (2 * math.log(q)))


def _positive_lhs(q, m: int, kp: int, lp: int, depth: int):
    """The positive-block sum of :func:`positive_block_sum`, truncated at
    ``depth`` per index; ``q`` is an extended-precision scalar."""
    a = np.arange(1, depth + 1, dtype=_LD)
    first = qpoch(q ** (2 * a - 2), q ** _LD(-2), lp)
    total = np.sum(first * q ** ((2 * (m - 1 + kp)) * a))
    for t in range(1, m - 1):
        total = total * np.sum(q ** ((2 * (m - 1 - t + kp)) * a))
    return total


def _oracle_values(params: ModelParams, quad: Quadruple, phi, psi, *depths):
    """The truncated trace at each depth; the depth-free factors are shared."""
    common = invariant_integral_normalizer(params) \
        * _quadruple_prefactor(params.q_ld, quad) \
        * _negative_block(params, quad, phi, psi)
    return [common * _positive_lhs(params.q_ld, params.m, quad.kp, quad.lp, d)
            for d in depths]


def invariant_integral(params: ModelParams, quad: Quadruple,
                       phi: Mapping[int, complex], psi: Mapping[int, complex]):
    """Truncated trace realization of the dressed pairing.

    Sums diagonal_action times the trace weight over all indices (the two
    blocks factor exactly, and the negative block is finite once the reads
    vanish), each positive index running to D = ``_depth(q)``.  The value is
    recomputed at 2D, and a relative movement above 1e-12 raises
    ConvergenceError; otherwise the 2D value is returned.
    """
    _require_n_ge_2(params)
    depth = _depth(params.q)
    val, val2 = _oracle_values(params, quad, phi, psi, depth, 2 * depth)
    if abs(val2 - val) > 1e-12 * max(1.0, float(abs(val2))):
        raise ConvergenceError(
            f"trace truncation depth {depth} too small: value moved by "
            f"{float(abs(val2 - val)):.3e} on doubling")
    return val2


def _scaled_poch(u: int, v: int, exps) -> tuple[int, int, int]:
    """prod over c in ``exps`` of (1 - x^c) at x = u/v, as integers (N, i, j)
    with the product equal to N u^i v^j (i, j <= 0).

    1 - x^c is (v^c - u^c) / v^c for c > 0 and (u^|c| - v^|c|) / u^|c| for
    c < 0; a factor with c = 0 makes the product 0.
    """
    num, i, j = 1, 0, 0
    for c in exps:
        if c == 0:
            return 0, 0, 0
        if c > 0:
            num *= v ** c - u ** c
            j -= c
        else:
            num *= u ** -c - v ** -c
            i += c
    return num, i, j


def _scaled_fraction(u: int, v: int, num: int, i: int, j: int,
                     den: int = 1) -> Fraction:
    """num u^i v^j / den as one Fraction (i, j of either sign)."""
    return Fraction(num * u ** max(i, 0) * v ** max(j, 0),
                    den * u ** max(-i, 0) * v ** max(-j, 0))


def negative_block_sum(q: float, n: int, k: int, l: int, t: int):
    """Both sides of the negative-block summation identity.

    lhs: sum over a_1 + ... + a_n = -t (all a_i <= 0) of
         (q^(2a_1 - 2k); q^2)_k (q^(2a_n); q^2)_l q^(-2l a_n)
         q^(2 sum (n-i) a_i);
    rhs: (q^-2; q^-2)_k (q^-2; q^-2)_l q^(2lt)
         (q^(-2(t-l+1)); q^-2)_{k+l+n-1} / (q^-2; q^-2)_{k+l+n-1}.

    Both sides are evaluated exactly (a float q is an exact binary rational):
    the enumerated side cancels by tens of decimal digits at moderate
    indices for small q, far beyond hardware precision.  With x = q^2 = u/v
    in lowest terms, every term is an integer times u^i v^j; the terms are
    brought to one common power of u and of v with integer multiplies and
    each side becomes a single Fraction, whose float is correctly rounded.

    The identity holds for n >= 2 (and degenerately whenever k*l*t = 0); for
    n = 1 with k, l, t all positive the two Pochhammer factors collide on the
    single index and lhs != rhs.  Both sides are returned so callers can
    check agreement on their own grid.
    """
    qf = Fraction(q)
    u, v = qf.numerator ** 2, qf.denominator ** 2
    terms = []
    for parts in _compositions(t, n):
        a = tuple(-c for c in parts)
        n1, i1, j1 = _scaled_poch(u, v, range(a[0] - k, a[0]))
        n2, i2, j2 = _scaled_poch(u, v, range(a[-1], a[-1] + l))
        if n1 and n2:
            # x^d = u^d v^-d from q^(-2l a_n) q^(2 sum (n-i) a_i)
            d = -l * a[-1] + sum((n - (i + 1)) * ai for i, ai in enumerate(a))
            terms.append((n1 * n2, d + i1 + i2, -d + j1 + j2))
    lhs = Fraction(0)
    if terms:
        iu = min(i for _, i, _ in terms)
        jv = min(j for *_, j in terms)
        lhs = _scaled_fraction(u, v, sum(c * u ** (i - iu) * v ** (j - jv)
                                         for c, i, j in terms), iu, jv)
    kk = k + l + n - 1
    n1, i1, j1 = _scaled_poch(u, v, range(-1, -k - 1, -1))
    n2, i2, j2 = _scaled_poch(u, v, range(-1, -l - 1, -1))
    n3, i3, j3 = _scaled_poch(u, v, range(-(t - l + 1), -(t - l + 1) - kk, -1))
    n4, i4, j4 = _scaled_poch(u, v, range(-1, -kk - 1, -1))  # the divisor
    rhs = _scaled_fraction(u, v, n1 * n2 * n3, l * t + i1 + i2 + i3 - i4,
                           -l * t + j1 + j2 + j3 - j4, n4)
    return float(lhs), float(rhs)


def positive_block_sum(q: float, m: int, kp: int, lp: int):
    """Both sides of the positive-block summation identity.

    lhs: sum over a_{n+1}, ..., a_{N-1} >= 1 (m-1 indices, truncated at
         ``_depth(q)``) of (q^(2 a_{n+1} - 2); q^-2)_{lp}
         q^(2 kp sum a_i) q^(2 sum (N-i) a_i);
    rhs: q^((m-1)(2kp + 2lp + m)) q^(2 lp kp)
         (q^2; q^2)_{kp} (q^2; q^2)_{lp} / (q^2; q^2)_{kp+lp+m-1}.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    qd = _LD(q)
    p = qd * qd
    lhs = _positive_lhs(qd, m, kp, lp, _depth(q))
    rhs = qd ** _LD((m - 1) * (2 * kp + 2 * lp + m)) * qd ** _LD(2 * lp * kp) \
        * qpoch(p, p, kp) * qpoch(p, p, lp) / qpoch(p, p, kp + lp + m - 1)
    return lhs, rhs


def qbinomial_convolution(q: float, k: int, l: int, t: int):
    """Both sides of the Gaussian-binomial convolution at base q^(-2).

    lhs: sum_{x+y=t} [k+x; k] [l+y; l] q^(-2x(l+1));
    rhs: [k+l+t+1; k+l+1].
    """
    qd = _LD(q)
    pinv = qd ** _LD(-2)
    lhs = _LD(0.0)
    for x in range(t + 1):
        y = t - x
        lhs = lhs + qbinomial(k + x, k, pinv) * qbinomial(l + y, l, pinv) \
            * qd ** _LD(-2 * x * (l + 1))
    rhs = qbinomial(k + l + t + 1, k + l + 1, pinv)
    return lhs, rhs


def pochhammer_geometric_sum(q: float, x: int, y: int):
    """Both sides of the Pochhammer-weighted geometric sum.

    lhs: sum_{a>=1} (q^(2a-2); q^-2)_x q^(2ya), truncated at ``_depth(q)``:
         the m = 2 positive block with kp = y - 1, lp = x;
    rhs: q^(2y(x+1)) (q^2; q^2)_x / (q^(2y); q^2)_{x+1}.
    Requires y >= 1 for convergence.
    """
    if y < 1:
        raise ValueError(f"need y >= 1 for convergence, got {y}")
    qd = _LD(q)
    p = qd * qd
    lhs = _positive_lhs(qd, 2, y - 1, x, _depth(q))
    rhs = qd ** _LD(2 * y * (x + 1)) * qpoch(p, p, x) \
        / qpoch(qd ** _LD(2 * y), p, x + 1)
    return lhs, rhs
