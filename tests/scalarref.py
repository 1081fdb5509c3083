"""Per-index references of the lattice-side kernels: the formulas the array
kernels of ``lattice``, ``laplace``, ``qcore`` and ``fockoracle`` replace,
written one lattice index (one Python call) at a time, the factor loop of
``qcore.qpoch_inf``, the Gaussian binomial of three Pochhammer loops, the
per-degree loop of the Al-Salam-Chihara recurrence in ``asc`` and its
product kernel with every head factor masked, the
positive-block sums of ``fockoracle`` with every power formed for one call
alone, the negative-block identity's sides built term by term, one factor
tuple per term and one power table per cell, and the trace oracle's literal
definition: the multi-index
(``FockIndex``) and the diagonal factor of the dressed pairing on one basis
vector (``diagonal_action``).

Each reference repeats the operations of the array kernel in the same order
on scalars, so for a function whose values share one type the two agree bit
for bit.  Nothing here is imported by the library.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from qlaplace import asc, fockoracle, qcore
from qlaplace.lattice import ModelParams, Quadruple, invariant_integral_normalizer

_LD = np.longdouble


def qpoch(a, base, k):
    """(a; base)_k as the running product of k factors."""
    acc = a * 0 + 1.0
    p = a * 0 + 1.0
    for _ in range(k):
        acc = acc * (1 - a * p)
        p = p * base
    return acc


def qpoch_inf(a, base, tol):
    """(a; base)_inf as the loop of factors 1 - a base^i, one per step,
    while |a base^i| >= tol."""
    acc = a * 0 + base * 0 + 1.0
    t = acc * a
    while abs(t) >= tol:
        acc = acc * (1 - t)
        t = t * base
    return acc


def qbinomial(a, b, base):
    """[a; b] from three separate Pochhammer products."""
    return qpoch(base, base, a) / (qpoch(base, base, b) * qpoch(base, base, a - b))


def sector_weight(params, sector, j):
    q = params.q_ld
    x = q ** _LD(-2 * j)
    return x ** _LD(sector.Lp + params.m - 1) * qpoch(
        q ** _LD(-2 * j - 2), q ** _LD(-2), sector.L + params.n - 1)


def measure_mass(params, sector, j):
    q = params.q_ld
    norm = qpoch(q ** _LD(-2), q ** _LD(-2), sector.L + params.n - 1)
    return sector_weight(params, sector, j) * q ** _LD(-2 * j) / norm


def inner_product(params, sector, f, g):
    total = params.q_ld * 0
    for j in sorted(set(f) | set(g)):
        total = total + np.conjugate(g.get(j, 0.0)) * f.get(j, 0.0) \
            * measure_mass(params, sector, j)
    return total


def _denominator(params):
    q = params.q_ld
    return (1 - q * q) * (1 - q ** _LD(2 * (params.N - 1)))


def three_term_at(params, sector, f, j):
    q = params.q_ld
    n, N = params.n, params.N
    L, Lp = sector.L, sector.Lp
    x = q ** _LD(-2 * j)
    val = q ** _LD(-(L + Lp)) * (x - q ** _LD(2 * (n + L))) * f.get(j + 1, 0.0)
    if j >= 1:
        val = val + q ** _LD(2 * N - 2 + L + Lp) * (x - 1) * f.get(j - 1, 0.0)
    val = val + (q ** _LD(2 * n + L - Lp) * (1 + q ** _LD(2 * (params.m - 1 + Lp)))
                 - x * (1 + q ** _LD(2 * (N - 1)))) * f.get(j, 0.0)
    return q * val / (_denominator(params) * x)


def output_range(f):
    sup = sorted(f)
    if not sup:
        return range(0)
    return range(max(0, sup[0] - 1), sup[-1] + 2)


def apply_three_term(params, sector, f):
    """{j: value} over the output range, exact zeros kept."""
    return {j: three_term_at(params, sector, f, j) for j in output_range(f)}


def bminus(f, j, q):
    x = q ** (-2 * j)
    return (f.get(j + 1, 0.0) - f.get(j, 0.0)) / (q**-2 * x - x)


def bplus(f, j, q):
    x = q ** (-2 * j)
    return (f.get(j - 1, 0.0) - f.get(j, 0.0)) / (q**2 * x - x)


def apply_divergence_form(params, quad, f):
    """{j: value} over the output range, exact zeros kept."""
    q = params.q_ld
    n, N = params.n, params.N
    sector = quad.sector()
    k, l, kp, s = quad.k, quad.l, quad.kp, quad.s
    D = _denominator(params)
    scal = q ** _LD(1 - 2 * s) * (1 - q ** _LD(2 * s)) \
        * (1 - q ** _LD(2 * (N - 1 + s))) / D
    out_range = output_range(f)
    g = {}
    for jj in out_range:
        x = q ** _LD(-2 * jj)
        g[jj] = sector_weight(params, sector, jj) * x \
            * (q ** _LD(2 * (n + k)) - x * q ** _LD(-2 * l)) * bminus(f, jj, q)
    out = {}
    for j in out_range:
        if j == 0:
            out[j] = three_term_at(params, sector, f, 0)
            continue
        second = q ** _LD(-1 - 2 * kp) * (1 - q * q) ** 2 * bplus(g, j, q) \
            / (D * sector_weight(params, sector, j))
        out[j] = scal * f.get(j, 0.0) - second
    return out


def qbinomial_convolution(q, k, l, t):
    qd = _LD(q)
    pinv = qd ** _LD(-2)
    lhs = _LD(0.0)
    for x in range(t + 1):
        y = t - x
        lhs = lhs + qbinomial(k + x, k, pinv) * qbinomial(l + y, l, pinv) \
            * qd ** _LD(-2 * x * (l + 1))
    rhs = qbinomial(k + l + t + 1, k + l + 1, pinv)
    return lhs, rhs


def positive_lhs(q, m, kp, lp, depth):
    """The positive-block sum at one (m, kp, lp), from powers formed for this
    call alone: the first index runs a = lp + 1..lp + depth, the other m - 2
    run a = 1..depth."""
    a = np.arange(1, depth + 1, dtype=_LD)
    first = q ** ((2 * (m - 1 + kp)) * (a + lp))
    if lp:
        first = qpoch(q ** (2 * (a + lp) - 2), q ** _LD(-2), lp) * first
    total = np.sum(first)
    for t in range(1, m - 1):
        total = total * np.sum(q ** ((2 * (m - 1 - t + kp)) * a))
    return total


def positive_block_sum(q, m, kp, lp):
    qd = _LD(q)
    p = qd * qd
    lhs = positive_lhs(qd, m, kp, lp, fockoracle._depth(q))
    rhs = qd ** _LD((m - 1) * (2 * kp + 2 * lp + m)) * qd ** _LD(2 * lp * kp) \
        * qpoch(p, p, kp) * qpoch(p, p, lp) / qpoch(p, p, kp + lp + m - 1)
    return lhs, rhs


def pochhammer_geometric_sum(q, x, y):
    qd = _LD(q)
    p = qd * qd
    lhs = positive_lhs(qd, 2, y - 1, x, fockoracle._depth(q))
    rhs = qd ** _LD(2 * y * (x + 1)) * qpoch(p, p, x) \
        / qpoch(qd ** _LD(2 * y), p, x + 1)
    return lhs, rhs


def _negative_block_terms(n: int, k: int, l: int, t: int) -> tuple:
    """Both sides of ``fockoracle.negative_block_sum`` at (n, k, l, t) over
    y = q^-2 = v/u, each as (terms, divisor): the side is the sum over its
    terms (ms, i, j) of prod_{m in ms} (u^m - v^m) u^i v^j, divided by
    prod_{m in divisor} (u^m - v^m).

    Every Pochhammer factor 1 - x^c of a nonzero term has c <= -1, so it is
    1 - y^m = (u^m - v^m) / u^m with m = -c: a run of consecutive c that
    reaches c >= 0 also holds the factor 1 - x^0, and its term, which is 0,
    is left out.  On the left that is a_n > -l; on the right t - l + 1 <= 0.
    """
    lhs = []
    for parts in fockoracle._compositions(t, n):  # parts = -a
        first, last = parts[0], parts[-1]
        if last >= l:
            # x^d = u^d v^-d from q^(-2l a_n) q^(2 sum (n-i) a_i)
            d = l * last - sum((n - 1 - i) * p for i, p in enumerate(parts))
            ms = (*range(first + 1, first + k + 1), *range(last - l + 1, last + 1))
            lhs.append((ms, d - sum(ms), -d))
    kk = k + l + n - 1
    s = t - l + 1
    rhs = []
    if s >= 1:
        ms = (*range(1, k + 1), *range(1, l + 1), *range(s, s + kk))
        rhs.append((ms, l * t - sum(ms) + kk * (kk + 1) // 2, -l * t))
    return (lhs, ()), (rhs, range(1, kk + 1))


def _common_scale(terms, divisor) -> tuple:
    """A side of :func:`_negative_block_terms` as ((terms, iu, jv, divisor),
    reach): iu, jv the smallest exponents, each term (ms, i - iu, j - jv)
    over the common scale u^iu v^jv, and reach the largest power of u or v
    that :func:`_exact_side` reads."""
    iu = min((i for _, i, _ in terms), default=0)
    jv = min((j for *_, j in terms), default=0)
    terms = [(ms, i - iu, j - jv) for ms, i, j in terms]
    reach = max([abs(iu), abs(jv), *divisor]
                + [e for ms, i, j in terms for e in (*ms, i, j)])
    return (terms, iu, jv, divisor), reach


def _exact_side(terms, iu: int, jv: int, divisor, up, vp) -> float:
    """One side of :func:`_common_scale` as num / den, the powers read from
    the tables ``up`` and ``vp``.  Python's int division rounds it correctly;
    den is made positive, so a side that is 0 is +0.0."""
    if not terms:
        return 0.0
    num = sum(math.prod(up[m] - vp[m] for m in ms) * up[i] * vp[j]
              for ms, i, j in terms) * up[max(iu, 0)] * vp[max(jv, 0)]
    den = math.prod(up[m] - vp[m] for m in divisor) \
        * up[max(-iu, 0)] * vp[max(-jv, 0)]
    if den < 0:
        num, den = -num, -den
    return num / den


def negative_block_sum(q, n, k, l, t):
    """Both sides of ``fockoracle.negative_block_sum`` at one (n, k, l, t),
    each term's factor tuple built and the powers u^c, v^c tabled for this
    cell alone.  Both evaluations are exact integer quotients, so they agree
    bit for bit although they group the integers differently."""
    u, v = (c ** 2 for c in float(q).as_integer_ratio())
    sides = [_common_scale(*side) for side in _negative_block_terms(n, k, l, t)]
    top = max(reach for _, reach in sides)
    up, vp = ([*itertools.accumulate(itertools.repeat(b, top), operator.mul,
                                     initial=1)] for b in (u, v))
    lhs, rhs = (_exact_side(*side, up, vp) for side, _ in sides)
    return lhs, rhs


def invariant_integral(params, quad, phi, psi):
    """The oracle's value at depth 2D for one pair at one quadruple, its
    positive sum formed for this call alone."""
    q = params.q_ld
    return invariant_integral_normalizer(params) \
        * fockoracle._quadruple_prefactor(q, quad) \
        * fockoracle._negative_block(params, quad, phi, psi) \
        * positive_lhs(q, params.m, quad.kp, quad.lp, 2 * fockoracle._depth(params.q))


def recurrence_table(kmax, z, p):
    """Q_0..Q_kmax at z, each degree's coefficients formed in the loop from
    scalar powers of the base."""
    a, b, base = p.a, p.b, p.base
    prev = z * 0 + 1.0
    table = [prev]
    if kmax == 0:
        return table
    cur = 2 * z - (a + b)
    table.append(cur)
    for k in range(1, kmax):
        nxt = 2 * z * cur - (a + b) * base**k * cur \
            - (1 - base**k) * (1 - a * b * base ** (k - 1)) * prev
        prev, cur = cur, nxt
        table.append(cur)
    return table


def masked_qpoch_inf(a, base):
    """(a; base)_inf for every entry of ``a`` with every head factor under
    the per-entry mask and a fresh |t| after each, and the log series of the
    tail summed into new arrays."""
    t = np.ones_like(a) * a
    acc = np.ones_like(t)
    head = np.abs(t) > asc._LOG_SPLIT
    while head.any():
        np.multiply(acc, 1 - t, out=acc, where=head)
        np.multiply(t, base, out=t, where=head)
        head &= np.abs(t) > asc._LOG_SPLIT
    K = 1
    while asc._LOG_SPLIT ** (K + 1) >= qcore.LD_INF_TOL * (K + 1) * (1 - base) \
            * (1 - asc._LOG_SPLIT):
        K += 1
    k = np.arange(1, K + 1)
    series = np.zeros_like(t)
    for coef in (1 / (k * (1 - base ** k)))[::-1]:  # Horner, t^K down to t
        series = (series + coef) * t
    return acc * np.exp(-series)


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


def diagonal_action(params: ModelParams, quad: Quadruple,
                    phi: Mapping[int, complex], psi: Mapping[int, complex],
                    idx: FockIndex):
    """Diagonal matrix element of the dressed pairing on one basis vector.

    Returns the known eigenvalue factor times conj(psi) phi read at the
    lattice point q^(2l + 2 sum_{i<=n} a_i); reads landing off the lattice
    (positive exponent) give 0.  The sum of these times the trace weight
    q^(2 sum (N-i) a_i) over all indices is the trace that
    ``fockoracle.invariant_integral`` evaluates block by block.
    """
    if params.n == 1:
        raise ValueError(
            "the trace oracle is not defined for n = 1 (the two "
            "negative-block Pochhammer factors would collide on one index)")
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
    val = fockoracle._quadruple_prefactor(q, quad) \
        * fockoracle._negative_factor(q, k, l, neg[0], neg[-1])
    val = val * qcore.qpoch(q ** _LD(2 * pos[0] - 2), q ** _LD(-2), lp)
    val = val * q ** _LD(2 * kp * (sum(neg) + sum(pos)))
    val = val * q ** _LD(2 * (l + lp) * c)
    return val * read
