"""The reduced second-order q-difference operator on a sector.

Three realizations of the same bounded self-adjoint operator:

* a three-term action on lattice functions (the computational workhorse),
* a divergence form B+ ( weight * x * (...) * B- ) built from the difference
  quotients of :mod:`qlaplace.qcore`, defined per quadruple,
* a symmetric tridiagonal (Jacobi) matrix in the orthonormal basis e_j.

The three are implemented from independent formulas and cross-checked by the
test suite.  Eigenvalues are parametrized by z = (w + 1/w)/2 through
lambda(z) = q^N (2z - q^(N-1) - q^(1-N)) / ((1-q^2)(1-q^(2(N-1)))).

The two lattice actions take a list of functions and return one action per
function, in one array pass over index arrays: every function's values are
one row over the union of the output ranges, the scalar coefficients and
powers of q are formed once per call, and :func:`apply_divergence_form`
takes the sector weight and the difference quotients over the same range.
Each function reads its own output range from its row.  Type rule: the rows
of one pass share one type, so the real functions (float or ``longdouble``
values) run as one ``longdouble`` stack and the complex functions (complex
or ``clongdouble``) as one ``clongdouble`` stack; the casts are exact, and
no row is promoted by another.  When a function's values share one type,
every output value has the bits of the per-index formula on that function
alone, and a real function gives real values.  A function that mixes real
and complex values is a complex row: it is promoted to the common complex
type, so its real-only neighbourhoods are divided in complex arithmetic,
which can move such an entry by one ulp, alone or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeFunction, ModelParams, Quadruple, Sector, sector_weight
from .qcore import _quotient

__all__ = [
    "JacobiMatrix",
    "apply_three_term",
    "apply_divergence_form",
    "jacobi_matrix",
    "eigenvalue",
]

_LD = np.longdouble
_CLD = np.clongdouble


def _denominator(params: ModelParams):
    q = params.q_ld
    return (1 - q * q) * (1 - q ** _LD(2 * (params.N - 1)))


def _three_term(params: ModelParams, sector: Sector, vals, lo: int, hi: int):
    """Rows of the three-term action at indices lo..hi-1 (lo >= 0), from the
    rows ``vals`` of values at lo-1..hi."""
    q = params.q_ld
    n, N = params.n, params.N
    L, Lp = sector.L, sector.Lp
    x = q ** _LD(-2 * np.arange(lo, hi))
    val = q ** _LD(-(L + Lp)) * (x - q ** _LD(2 * (n + L))) * vals[:, 2:]
    # at j = 0 the q^2-shift coefficient is (x - 1) = 0: no off-lattice read
    t = 1 if lo == 0 else 0
    val[:, t:] = val[:, t:] + q ** _LD(2 * N - 2 + L + Lp) * (x[t:] - 1) * vals[:, t:-2]
    val = val + (q ** _LD(2 * n + L - Lp) * (1 + q ** _LD(2 * (params.m - 1 + Lp)))
                 - x * (1 + q ** _LD(2 * (N - 1)))) * vals[:, 1:-1]
    return q * val / (_denominator(params) * x)


def _zero_column_first(rows):
    """``rows`` with a column of +0 before its first column."""
    return np.concatenate([np.zeros((len(rows), 1), rows.dtype), rows], axis=1)


def _output_range(f) -> range:
    sup = sorted(f)
    if not sup:
        return range(0)
    return range(max(0, sup[0] - 1), sup[-1] + 2)


def _stacked(fs, below: int, kernel) -> list:
    """One action per function of ``fs``, each function's values one row.

    lo..hi-1 is the union of the functions' output ranges.  The rows hold the
    values at lo-below..hi, missing entries (negative indices included) read
    as 0, stacked by type: the real functions' rows as one ``longdouble``
    array and the complex ones' as one ``clongdouble`` array, so that no row
    is promoted by another (the casts are exact).  ``kernel(rows, lo, hi)``
    returns the actions at lo..hi-1 of one stack; each function reads its
    own range.
    """
    fs = list(fs)
    outs = [_output_range(f) for f in fs]
    result = [LatticeFunction._from_items(()) for _ in fs]
    live = [i for i, out in enumerate(outs) if out]
    if not live:
        return result
    lo = min(outs[i].start for i in live)
    hi = max(outs[i].stop for i in live)
    rows = {i: np.array([fs[i].get(j, 0.0) for j in range(lo - below, hi + 1)])
            for i in live}
    for dtype in (_LD, _CLD):
        pos = [i for i in live if np.iscomplexobj(rows[i]) == (dtype is _CLD)]
        if not pos:
            continue
        actions = kernel(np.array([rows[i] for i in pos], dtype=dtype), lo, hi)
        for i, action in zip(pos, actions):
            out = outs[i]
            result[i] = LatticeFunction._from_items(
                zip(out, action[out.start - lo:out.stop - lo]))
    return result


def apply_three_term(params: ModelParams, sector: Sector, fs) -> list:
    """Apply the operator in its three-term form to each function of ``fs``,
    one result per function.

    A result is supported within [min support - 1 (clamped at 0),
    max support + 1].  The functions' values run as rows over the union of
    their output ranges, and the coefficients are formed once per call.
    """
    return _stacked(fs, 1, lambda vals, lo, hi: _three_term(params, sector, vals, lo, hi))


def apply_divergence_form(params: ModelParams, quad: Quadruple, fs) -> list:
    """Apply the operator as scalar term minus weighted B+ ( ... B- ) form to
    each function of ``fs``, one result per function.

    For the quadruple (k, l, kp, lp) with s = k + lp the action at j >= 1 is

        q^(1-2s) (1-q^(2s)) (1-q^(2(N-1+s))) / D * f
        - q^(-1-2kp) (1-q^2)^2 / (D * rho(x))
            * B+ ( rho(x) * x * (q^(2(n+k)) - x q^(-2l)) * B- f )(x),

    with D = (1-q^2)(1-q^(2(N-1))) and rho the sector weight.  At j = 0 the
    forward quotient would read the off-lattice point q^2 * x; its analytic
    coefficient vanishes there, and the value is delegated to the three-term
    form, which needs no off-lattice access.  The output depends on the
    quadruple only through its sector.  The functions' values run as rows
    over the union of their output ranges; the sector weight and the scalar
    coefficients are formed once per call.
    """
    q = params.q_ld
    n, N = params.n, params.N
    sector = quad.sector()
    k, l, kp = quad.k, quad.l, quad.kp
    s = quad.s
    D = _denominator(params)
    scal = q ** _LD(1 - 2 * s) * (1 - q ** _LD(2 * s)) \
        * (1 - q ** _LD(2 * (N - 1 + s))) / D

    def kernel(vals, lo, hi):
        j = np.arange(lo, hi)
        x = q ** _LD(-2 * j)
        rho = sector_weight(params, sector, j)
        # G = rho * x * (q^(2(n+k)) - x q^(-2l)) * B- f on the output range,
        # and B+ G from G's values one index below (0 below the range).  One
        # index below a row's own range G is (0 - 0) times a factor of fixed
        # sign, a signed zero where the row's own call reads +0: it enters
        # only the first output value, scal * (+0) - B+ G, where either zero
        # gives the same bits
        g = rho * x * (q ** _LD(2 * (n + k)) - x * q ** _LD(-2 * l)) \
            * _quotient(vals[:, 1:], vals[:, :-1], x, q**-2)
        g = _zero_column_first(g)
        t = 1 if lo == 0 else 0  # j = 0, where present, comes from the three-term form
        second = q ** _LD(-1 - 2 * kp) * (1 - q * q) ** 2 \
            * _quotient(g[:, t:-1], g[:, t + 1:], x[t:], q**2) / (D * rho[t:])
        res = scal * vals[:, t:-1] - second
        if t:
            edge = _three_term(params, sector, _zero_column_first(vals[:, :2]), 0, 1)
            res = np.concatenate([edge, res], axis=1)
        return res

    return _stacked(fs, 0, kernel)


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal truncation of the operator in the e_j basis."""

    diag: np.ndarray
    offdiag: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, from the dense symmetric eigensolver on the
        lower triangle (the only part it reads, and the only part set)."""
        size = len(self.diag)
        dense = np.zeros((size, size))
        dense.flat[::size + 1] = self.diag
        dense.flat[size::size + 1] = self.offdiag
        return np.linalg.eigvalsh(dense)

    def count_below(self, x: float) -> int:
        """Number of eigenvalues below ``x``, in O(size) and without solving.

        By Sylvester's law of inertia it is the number of negative pivots
        d_0 = a_0 - x, d_i = (a_i - x) - o_(i-1)^2 / d_(i-1) of the LDL^T
        factorization of T - xI: the Sturm count of bisection (Barth, Martin &
        Wilkinson 1967; LAPACK ``dstebz``).  A pivot smaller in magnitude than
        pivmin = tiny * max(1, max_i o_i^2) is replaced by -pivmin, as in
        LAPACK's ``dlaebz``, so that no pivot is zero and no quotient leaves
        double range.  An eigenvalue within rounding of x may count either way.
        """
        off2 = np.asarray(self.offdiag, dtype=float) ** 2
        pivmin = np.finfo(float).tiny * max(1.0, float(off2.max(initial=0.0)))
        count, d = 0, 1.0
        shifted = (np.asarray(self.diag, dtype=float) - float(x)).tolist()
        for a, o2 in zip(shifted, [0.0, *off2.tolist()]):
            d = a - o2 / d
            if d < pivmin:  # negative, or replaced by -pivmin
                if d > -pivmin:
                    d = -pivmin
                count += 1
        return count

    def to_json(self) -> dict:
        return {"diag": [float(v) for v in self.diag],
                "offdiag": [float(v) for v in self.offdiag]}


def jacobi_matrix(params: ModelParams, sector: Sector, size: int) -> JacobiMatrix:
    """Size-by-size truncation of the operator matrix in the basis e_j.

    Built directly from the closed-form entries

        d_j = q^N (q^(2j+N-1+L+Lp) + q^(2j+2n-(N-1)+L-Lp) - q^(N-1) - q^(1-N)) / D,
        o_j = q^N sqrt((1-q^(2j+2)) (1-q^(2j+2n+2L))) / D,

    not by conjugating the three-term action; agreement of the two paths is a
    test, not a construction.  An entry that is not finite in double raises
    OverflowError, whatever numpy's error state.
    """
    if size < 1:
        raise ValueError(f"matrix size must be >= 1, got {size}")
    # a double scalar: a power past double range is inf, as in the arrays
    q = np.float64(params.q)
    n, N = params.n, params.N
    L, Lp = sector.L, sector.Lp
    D = float(_denominator(params))
    with np.errstate(over="ignore", invalid="ignore"):
        j = np.arange(size, dtype=float)
        diag = q**N * (q ** (2 * j + N - 1 + L + Lp)
                       + q ** (2 * j + 2 * n - (N - 1) + L - Lp)
                       - q ** (N - 1) - q ** (1 - N)) / D
        j = np.arange(size - 1, dtype=float)
        off = q**N * np.sqrt((1 - q ** (2 * j + 2))
                             * (1 - q ** (2 * j + 2 * n + 2 * L))) / D
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise OverflowError(f"operator coefficients overflow double precision at q = "
                            f"{params.q}, N = {N}, L = {L}, L' = {Lp}, size {size}")
    return JacobiMatrix(diag=diag, offdiag=off)


def eigenvalue(params: ModelParams, z):
    """Operator eigenvalue at z, elementwise on an array of z values (each
    entry keeps the bits of its scalar call).

    lambda(z) = q^N (2z - q^(N-1) - q^(1-N)) / ((1-q^2)(1-q^(2(N-1)))).
    Real for z in [-1, 1] (continuous band) and for real z > 1 (discrete
    points); zero exactly at z = (q^(N-1) + q^(1-N))/2.  A real z gives a
    ``longdouble`` value and a complex z (off the spectrum) a ``clongdouble``
    one.
    """
    z = np.clongdouble(z) if np.iscomplexobj(z) else _LD(z)
    q = params.q_ld
    N = params.N
    return q ** _LD(N) * (2 * z - q ** _LD(N - 1) - q ** _LD(1 - N)) \
        / _denominator(params)
