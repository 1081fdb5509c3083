"""Trace realization of the invariant integral, plus the summation
identities used to reduce it in closed form.

The invariant integral of a product of two dressed lattice functions is a
weighted trace over a truncated multi-index space: indices a_1..a_n run over
nonpositive integers, a_{n+1}..a_{N-1} over positive integers, each basis
vector contributing an explicitly known diagonal factor times the trace
weight q^(2 sum (N-i) a_i).

The sum factorizes exactly over the two index blocks, and the oracle
evaluates that product (``_oracle_values``): the normalizer and the
quadruple prefactor times the negative-block sum, which is finite (the
function reads vanish once sum a_i leaves the support), times the
positive-block sum.  Both blocks are summed term by term, with no closed-form
summation identity, so the oracle independently validates the closed-form
pairing of :func:`qlaplace.lattice.hwv_inner_product`.  The literal
per-basis-vector definition (``FockIndex``, ``diagonal_action``) lives in
``tests/scalarref.py``, whose literal sum the tests compare with the oracle.

The positive block and the identities' geometric sums run D terms per index,
D the first depth with q^(2D) < ``LD_INF_TOL``; the oracle also checks at 2D.
The first positive index starts at a = lp + 1: its terms a <= lp vanish
exactly, through the factor 1 - q^0 of (q^(2a-2); q^-2)_lp, and summing them
in floating point would add rounding errors scaled up to q^(-2 lp).

Each identity kernel takes the whole grid of its check, (q, grid), and
returns one (lhs, rhs) pair per grid point, so a check makes one call, and
every sum of that call reads one table: the powers of q for the positive
block and the geometric sum, the (q^-2; q^-2)_i prefixes for the binomial
convolution, and for the exact negative block the compositions of each
(n, t), the integer powers of u and v, q^2 = u/v, and the run products
prod (u^m - v^m) of its Pochhammer factors.  No table outlives its call.

The n = 1 case is excluded: there the first and last negative indices
coincide and the diagonal factor's two Pochhammer pieces collide; the
closed-form reduction does not cover it (see ``negative_block_sum``).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Mapping

import numpy as np

from .lattice import ModelParams, Quadruple, invariant_integral_normalizer
from .qcore import (LD_INF_TOL, ConvergenceError, _qbinomial_from,
                    _qpoch_prefixes, qpoch)

__all__ = [
    "invariant_integral",
    "negative_block_sum",
    "positive_block_sum",
    "qbinomial_convolution",
    "pochhammer_geometric_sum",
]

_LD = np.longdouble


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
    """All ways to write ``total`` as ``parts`` nonnegative integers, in
    lexicographic order: stars and bars, the parts being the gaps between
    ``parts - 1`` bars among ``total + parts - 1`` slots."""
    if total < 0:
        return
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        prev, sizes = -1, []
        for bar in bars:
            sizes.append(bar - prev - 1)
            prev = bar
        sizes.append(end - prev - 1)
        yield tuple(sizes)


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


class _PowerTable:
    """The positive-block terms of one check call at one extended-precision q.

    Over a = 1..``depth`` + the largest lp of ``blocks``, the (m, kp, lp) the
    call sums, ``powers[e - 1]`` holds q^(2 e a) for e up to their largest
    m - 1 + kp, and ``poch[lp]`` the products (q^(2a - 2); q^-2)_lp.
    Every entry has the bits of a table built for one block alone: ``powl``
    bits depend only on the exponent's value, so q^(2a - 2) is the e = 1 row
    shifted by one (q^0 = 1 exactly), each distinct exponent 2ea is raised
    once and taken into every cell that holds it, and ``poch[lp]`` is the
    running product's own entry, so the prefixes of one (a; base) run serve
    every lp.
    """

    def __init__(self, q, blocks, depth: int):
        lpmax = max(lp for *_, lp in blocks)
        a = np.arange(1, depth + lpmax + 1)
        e = np.arange(1, max(m - 1 + kp for m, kp, _ in blocks) + 1)
        exps, cells = np.unique((2 * e)[:, None] * a, return_inverse=True)
        self.powers = (q ** exps.astype(_LD))[cells.reshape(len(e), len(a))]
        if lpmax:
            shifted = np.concatenate([[_LD(1)], self.powers[0, :-1]])
            self.poch = _qpoch_prefixes(shifted, q ** _LD(-2), lpmax)

    def sums(self, m: int, kp: int, lp: int, *depths) -> list:
        """The positive-block sums of :func:`positive_block_sum`, each index
        taking ``d`` terms for each d of ``depths``: the first from a = lp + 1,
        the others from a = 1.

        Each sum reads a leading slice: ``np.sum`` of a contiguous prefix
        gives the bits of those values summed alone.  For lp = 0 the
        Pochhammer factor is the empty product, exactly 1, and is not formed.
        """
        first = self.powers[m - 2 + kp, lp:]
        if lp:
            first = self.poch[lp][lp:] * first
        rest = [self.powers[m - 2 - t + kp] for t in range(1, m - 1)]
        out = []
        for d in depths:
            total = np.sum(first[:d])
            for powers in rest:
                total = total * np.sum(powers[:d])
            out.append(total)
        return out


def _oracle_values(params: ModelParams, quads, pairs, *depths) -> list:
    """The truncated trace of each (phi, psi) of ``pairs`` at each depth, one
    row per quadruple of ``quads``.

    The depth-free factors are shared by the depths, and the positive-block
    sums, which depend on the quadruple alone, by every pair; one power table
    built at the deepest depth serves every quadruple.
    """
    q = params.q_ld
    blocks = [(params.m, quad.kp, quad.lp) for quad in quads]
    table = _PowerTable(q, blocks, max(depths))
    norm = invariant_integral_normalizer(params)
    rows = []
    for quad, block in zip(quads, blocks):
        sums = table.sums(*block, *depths)
        head = norm * _quadruple_prefactor(q, quad)
        row = []
        for phi, psi in pairs:
            common = head * _negative_block(params, quad, phi, psi)
            row.append([common * lhs for lhs in sums])
        rows.append(row)
    return rows


def invariant_integral(params: ModelParams, quads, pairs) -> list:
    """Truncated trace realization of the dressed pairing of each (phi, psi)
    of ``pairs``, one row per quadruple of ``quads``.

    Evaluates the factorized trace of ``_oracle_values``: the product of the
    two index blocks' sums, which equals the sum of the diagonal factor times
    the trace weight over all indices (the negative block is finite once the
    reads vanish), each positive index taking D = ``_depth(q)`` terms, the
    first from a = lp + 1.
    Every value is recomputed at 2D, and a relative movement above 1e-12
    raises ConvergenceError; otherwise the 2D values are returned.
    """
    if params.n == 1:
        raise ValueError(
            "the trace oracle is not defined for n = 1 (the two "
            "negative-block Pochhammer factors would collide on one index)")
    depth = _depth(params.q)
    rows = _oracle_values(params, quads, pairs, depth, 2 * depth)
    for row in rows:
        for val, val2 in row:
            if abs(val2 - val) > 1e-12 * max(1.0, float(abs(val2))):
                raise ConvergenceError(
                    f"trace truncation depth {depth} too small: value moved by "
                    f"{float(abs(val2 - val)):.3e} on doubling")
    return [[val2 for _, val2 in row] for row in rows]


def negative_block_sum(q: float, grid) -> list:
    """Both sides of the negative-block summation identity at each
    (n, k, l, t) of ``grid``, as (lhs, rhs) pairs of floats.

    lhs: sum over a_1 + ... + a_n = -t (all a_i <= 0) of
         (q^(2a_1 - 2k); q^2)_k (q^(2a_n); q^2)_l q^(-2l a_n)
         q^(2 sum (n-i) a_i);
    rhs: (q^-2; q^-2)_k (q^-2; q^-2)_l q^(2lt)
         (q^(-2(t-l+1)); q^-2)_{k+l+n-1} / (q^-2; q^-2)_{k+l+n-1}.

    Both sides are evaluated exactly (a float q is an exact binary rational):
    the enumerated side cancels by tens of decimal digits at moderate
    indices for small q, far beyond hardware precision.  With y = q^-2 = v/u
    in lowest terms, every Pochhammer factor 1 - y^m of a nonzero term is
    (u^m - v^m) / u^m, so a run of consecutive factors is the run product
    R(a, c) = prod_{m=a+1}^{a+c} (u^m - v^m) over a power of u.  A factor
    1 - y^0 makes its term 0, and that term is left out: on the left that is
    a_n > -l, on the right t - l + 1 <= 0.  Every term is then an integer
    times u^i v^j, and each side, brought to one common power of u and of v
    with integer multiplies, is one quotient of integers, whose float
    Python's int division rounds correctly; so any exact evaluation of a
    side gives its bits.  The call builds each table once: the compositions
    of each (n, t) of the grid, the powers u^c and v^c and the run products
    R(a, c) over the grid's largest a, c and power.  No table outlives the
    call.

    The identity holds for n >= 2 (and degenerately whenever k*l*t = 0); for
    n = 1 with k, l, t all positive the two Pochhammer factors collide on the
    single index and lhs != rhs.  Both sides are returned so callers can
    check agreement on their own grid.
    """
    u, v = (c ** 2 for c in float(q).as_integer_ratio())
    grid = list(grid)
    tmax = max((t for *_, t in grid), default=0)
    cmax = max((k + l + n - 1 for n, k, l, _ in grid), default=0)
    # every power read: u^m - v^m to m = tmax + cmax, and each side's
    # exponents, at most (n - 1 + k + l) t + (k + l)^2
    top = max([tmax + cmax, *((n - 1 + k + l) * t + (k + l) ** 2 for n, k, l, t in grid)])
    up, vp = ([*itertools.accumulate(itertools.repeat(b, top), operator.mul,
                                     initial=1)] for b in (u, v))
    # run[c][a] = R(a, c)
    run = [[1] * (tmax + 1)]
    for c in range(1, cmax + 1):
        run.append([r * (up[a + c] - vp[a + c]) for a, r in enumerate(run[-1])])
    comps = {}
    out = []
    for n, k, l, t in grid:
        if (n, t) not in comps:
            comps[n, t] = [(p[0], p[-1], sum((n - 1 - i) * x for i, x in enumerate(p)))
                           for p in _compositions(t, n)]
        # lhs: each composition parts = -a, first = -a_1, last = -a_n and
        # w = sum_i (n - 1 - i) parts_i <= (n - 1) t gives the term
        # R(first, k) R(last - l, l) u^(ck - w - k first) v^(w - l last);
        # times u^su v^(lt), every exponent of the sum is >= 0
        su = (n - 1 + k) * t
        ck = l * (l - 1) // 2 - k * (k + 1) // 2
        rk, rl = run[k], run[l]
        num = sum(rk[first] * rl[last - l] * up[su - w - k * first]
                  * vp[w + l * (t - last)] for first, last, w in comps[n, t] if last >= l)
        # a positive denominator, so a left side that is 0 is +0.0
        lhs = num * up[max(ck - su, 0)] / (vp[l * t] * up[max(su - ck, 0)])
        # rhs: R(0, k) R(0, l) R(s - 1, kk) u^i v^-lt / R(0, kk), never 0
        # (each u^m - v^m, m >= 1, is nonzero)
        kk, s = k + l + n - 1, t - l + 1
        rhs = 0.0
        if s >= 1:
            i = l * t - k * (k + 1) // 2 - l * (l + 1) // 2 - kk * (s - 1)
            rhs = run[k][0] * run[l][0] * run[kk][s - 1] * up[max(i, 0)] \
                / (run[kk][0] * up[max(-i, 0)] * vp[l * t])
        out.append((lhs, rhs))
    return out


def positive_block_sum(q: float, grid) -> list:
    """Both sides of the positive-block summation identity at each
    (m, kp, lp) of ``grid``, as (lhs, rhs) pairs.

    lhs: sum over a_{n+1}, ..., a_{N-1} >= 1 (m-1 indices) of
         (q^(2 a_{n+1} - 2); q^-2)_{lp} q^(2 kp sum a_i) q^(2 sum (N-i) a_i),
         each index taking D = ``_depth(q)`` terms, a_{n+1} from lp + 1
         (its terms a_{n+1} <= lp vanish);
    rhs: q^((m-1)(2kp + 2lp + m)) q^(2 lp kp)
         (q^2; q^2)_{kp} (q^2; q^2)_{lp} / (q^2; q^2)_{kp+lp+m-1}.
    Every lhs reads one :class:`_PowerTable`.
    """
    grid = list(grid)
    for m, _, _ in grid:
        if m < 2:
            raise ValueError(f"need m >= 2, got {m}")
    qd, depth = _LD(q), _depth(q)
    p = qd * qd
    table = _PowerTable(qd, grid, depth)
    return [(table.sums(m, kp, lp, depth)[0],
             qd ** _LD((m - 1) * (2 * kp + 2 * lp + m)) * qd ** _LD(2 * lp * kp)
             * qpoch(p, p, kp) * qpoch(p, p, lp) / qpoch(p, p, kp + lp + m - 1))
            for m, kp, lp in grid]


def qbinomial_convolution(q: float, grid) -> list:
    """Both sides of the Gaussian-binomial convolution at base q^(-2) at each
    (k, l, t) of ``grid``, as (lhs, rhs) pairs.

    lhs: sum_{x+y=t} [k+x; k] [l+y; l] q^(-2x(l+1));
    rhs: [k+l+t+1; k+l+1].
    Every coefficient reads one table of (q^-2; q^-2)_i, i up to the
    grid's largest k+l+t+1.  The grid runs as arrays: every term (cell, x)
    at once, each formed as [k+x; k] * [l+y; l] * q^(-2x(l+1)), then each
    cell's sum from 0 in the order x = 0..t, one column of terms per step
    (a cell with a smaller t adds +0, which leaves a sum that starts at +0
    unchanged).  Every side has the bits of the per-cell loop.
    """
    grid = np.array(list(grid), dtype=int).reshape(-1, 3)
    k, l, t = grid.T
    qd = _LD(q)
    pinv = qd ** _LD(-2)
    table = np.array(_qpoch_prefixes(pinv, pinv, int((k + l + t + 1).max(initial=0))),
                     dtype=_LD)
    steps = t.max(initial=-1) + 1
    cell, x = np.nonzero(np.arange(steps) <= t[:, None])
    kc, lc, y = k[cell], l[cell], t[cell] - x
    terms = np.zeros((len(grid), steps), dtype=_LD)
    terms[cell, x] = _qbinomial_from(table, kc + x, kc) \
        * _qbinomial_from(table, lc + y, lc) * qd ** _LD(-2 * x * (lc + 1))
    lhs = np.zeros(len(grid), dtype=_LD)
    for column in terms.T:
        lhs = lhs + column
    return list(zip(lhs, _qbinomial_from(table, k + l + t + 1, k + l + 1)))


def pochhammer_geometric_sum(q: float, grid) -> list:
    """Both sides of the Pochhammer-weighted geometric sum at each (x, y) of
    ``grid``, as (lhs, rhs) pairs.

    lhs: sum_{a>=1} (q^(2a-2); q^-2)_x q^(2ya), its D = ``_depth(q)``
         terms from a = x + 1 (the terms a <= x vanish): the m = 2 positive
         block with kp = y - 1, lp = x;
    rhs: q^(2y(x+1)) (q^2; q^2)_x / (q^(2y); q^2)_{x+1}.
    Requires y >= 1 for convergence.  Every lhs reads one :class:`_PowerTable`.
    """
    grid = list(grid)
    for _, y in grid:
        if y < 1:
            raise ValueError(f"need y >= 1 for convergence, got {y}")
    qd, depth = _LD(q), _depth(q)
    p = qd * qd
    table = _PowerTable(qd, [(2, y - 1, x) for x, y in grid], depth)
    return [(table.sums(2, y - 1, x, depth)[0],
             qd ** _LD(2 * y * (x + 1)) * qpoch(p, p, x)
             / qpoch(qd ** _LD(2 * y), p, x + 1))
            for x, y in grid]
