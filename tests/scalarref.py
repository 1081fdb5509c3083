"""Per-index references of the lattice-side kernels: the formulas the array
kernels of ``lattice``, ``laplace``, ``qcore`` and ``fockoracle`` replace,
written one lattice index (one Python call) at a time, the factor loop of
``qcore.qpoch_inf``, the Gaussian binomial of three Pochhammer loops, the
per-degree loop of the Al-Salam-Chihara recurrence in ``asc``, the
positive-block sums of ``fockoracle`` with every power formed for one call
alone, and the trace oracle's literal definition: the multi-index
(``FockIndex``) and the diagonal factor of the dressed pairing on one basis
vector (``diagonal_action``).

Each reference repeats the operations of the array kernel in the same order
on scalars, so for a function whose values share one type the two agree bit
for bit.  Nothing here is imported by the library.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from qlaplace import fockoracle, qcore
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
