"""The reduced second-order q-difference operator on a sector.

Three realizations of the same bounded self-adjoint operator:

* a three-term action on lattice functions (the computational workhorse),
* a divergence form B+ ( weight * x * (...) * B- ) built from the difference
  quotients of :mod:`qlaplace.qcore`, defined per quadruple,
* a symmetric tridiagonal (Jacobi) matrix in the orthonormal basis e_j.

The three are implemented from independent formulas and cross-checked by the
test suite.  Eigenvalues are parametrized by z = (w + 1/w)/2 through
lambda(z) = q^N (2z - q^(N-1) - q^(1-N)) / ((1-q^2)(1-q^(2(N-1)))).

The two lattice actions run over index arrays: :func:`apply_three_term`
evaluates its whole output range in one array pass, and
:func:`apply_divergence_form` takes the sector weight and the difference
quotients over the same range.  Type rule: when a function's values share
one type (float, complex, ``longdouble`` or ``clongdouble``), every output
value has the bits of the per-index formula, and a real function gives real
values.  A function that mixes real and complex values is first promoted to
the common complex type, so its real-only neighbourhoods are divided in
complex arithmetic, which can move such an entry by one ulp.
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


def _denominator(params: ModelParams):
    q = params.q_ld
    return (1 - q * q) * (1 - q ** _LD(2 * (params.N - 1)))


def _values(f, lo: int, hi: int):
    """The values of ``f`` at indices lo..hi-1 as one array, missing entries
    (negative indices included) read as 0; the values' common type is kept."""
    return np.array([f.get(j, 0.0) for j in range(lo, hi)])


def _three_term(params: ModelParams, sector: Sector, f, lo: int, hi: int):
    """Values of the three-term action at indices lo..hi-1 (lo >= 0)."""
    q = params.q_ld
    n, N = params.n, params.N
    L, Lp = sector.L, sector.Lp
    x = q ** _LD(-2 * np.arange(lo, hi))
    vals = _values(f, lo - 1, hi + 1)
    val = q ** _LD(-(L + Lp)) * (x - q ** _LD(2 * (n + L))) * vals[2:]
    # at j = 0 the q^2-shift coefficient is (x - 1) = 0: no off-lattice read
    t = 1 if lo == 0 else 0
    val[t:] = val[t:] + q ** _LD(2 * N - 2 + L + Lp) * (x[t:] - 1) * vals[t:-2]
    val = val + (q ** _LD(2 * n + L - Lp) * (1 + q ** _LD(2 * (params.m - 1 + Lp)))
                 - x * (1 + q ** _LD(2 * (N - 1)))) * vals[1:-1]
    return q * val / (_denominator(params) * x)


def _output_range(f) -> range:
    sup = sorted(f)
    if not sup:
        return range(0)
    return range(max(0, sup[0] - 1), sup[-1] + 2)


def apply_three_term(params: ModelParams, sector: Sector,
                     f: LatticeFunction) -> LatticeFunction:
    """Apply the operator in its three-term form.

    The result is supported within [min support - 1 (clamped at 0),
    max support + 1].
    """
    out = _output_range(f)
    return LatticeFunction(zip(out, _three_term(params, sector, f, out.start, out.stop)))


def apply_divergence_form(params: ModelParams, quad: Quadruple,
                          f: LatticeFunction) -> LatticeFunction:
    """Apply the operator as scalar term minus weighted B+ ( ... B- ) form.

    For the quadruple (k, l, kp, lp) with s = k + lp the action at j >= 1 is

        q^(1-2s) (1-q^(2s)) (1-q^(2(N-1+s))) / D * f
        - q^(-1-2kp) (1-q^2)^2 / (D * rho(x))
            * B+ ( rho(x) * x * (q^(2(n+k)) - x q^(-2l)) * B- f )(x),

    with D = (1-q^2)(1-q^(2(N-1))) and rho the sector weight.  At j = 0 the
    forward quotient would read the off-lattice point q^2 * x; its analytic
    coefficient vanishes there, and the value is delegated to the three-term
    form, which needs no off-lattice access.  The output depends on the
    quadruple only through its sector.
    """
    q = params.q_ld
    n, N = params.n, params.N
    sector = quad.sector()
    k, l, kp = quad.k, quad.l, quad.kp
    s = quad.s
    D = _denominator(params)
    scal = q ** _LD(1 - 2 * s) * (1 - q ** _LD(2 * s)) \
        * (1 - q ** _LD(2 * (N - 1 + s))) / D
    out = _output_range(f)
    if not out:
        return LatticeFunction({})
    lo, hi = out.start, out.stop
    j = np.arange(lo, hi)
    x = q ** _LD(-2 * j)
    rho = sector_weight(params, sector, j)
    vals = _values(f, lo, hi + 1)
    # G = rho * x * (q^(2(n+k)) - x q^(-2l)) * B- f on the output range, and
    # B+ G from G's values one index below (0 below the range)
    g = rho * x * (q ** _LD(2 * (n + k)) - x * q ** _LD(-2 * l)) \
        * _quotient(vals[1:], vals[:-1], x, q**-2)
    g = np.concatenate([np.zeros(1, g.dtype), g])
    t = 1 if lo == 0 else 0  # j = 0, where present, comes from the three-term form
    second = q ** _LD(-1 - 2 * kp) * (1 - q * q) ** 2 \
        * _quotient(g[t:-1], g[t + 1:], x[t:], q**2) / (D * rho[t:])
    res = scal * vals[t:-1] - second
    if t:
        res = np.concatenate([_three_term(params, sector, f, 0, 1), res])
    return LatticeFunction(zip(out, res))


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
