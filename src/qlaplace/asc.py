"""Al-Salam-Chihara polynomials Q_k(z; a, b | base) at a generic base.

Three evaluation paths are provided:

* ``asc_recurrence``: the three-term recurrence
  2 z Q_k = Q_{k+1} + (a+b) base^k Q_k + (1 - base^k)(1 - a b base^(k-1)) Q_{k-1},
  with Q_{-1} = 0, Q_0 = 1;
* ``asc_hypergeometric``: the terminating basic-hypergeometric representation
  Q_k = (a b; base)_k a^(-k) * 3phi2(base^(-k), a e^(i t), a e^(-i t); ab, 0)
  evaluated through an exact rearrangement (see below);
* ``asc_hypergeometric_direct``: the same representation summed literally,
  kept as a reference for small k.

Direct summation of the terminating 3phi2 is numerically hopeless beyond
small degree: its terms grow like base^(-k(k-1)/2) while the polynomial value
on the orthogonality band stays O(1), so tens of digits cancel already at
k ~ 10.  ``asc_hypergeometric`` therefore expands the generating function

    sum_k Q_k(z) t^k / (base; base)_k
        = (a t; base)_inf (b t; base)_inf / ((t w; base)_inf (t/w; base)_inf)

via the q-binomial theorem into the exact finite convolution

    Q_k = sum_r [k; r] (a/w; base)_r (b w; base)_{k-r} w^(2r-k),  w = e^(i t),

whose terms stay comparable to the value.  The two hypergeometric paths agree
to machine precision wherever the direct sum is still accurate.

The orthogonality measure consists of a continuous density on z = cos(t),
t in [0, pi], plus finitely many point masses at z_k = (a base^k + a^(-1)
base^(-k)) / 2 for every k >= 0 with a base^k > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import LD_INF_TOL, phi32, qpoch, qpoch_inf

__all__ = [
    "AscParams",
    "DegenerateParameterError",
    "DiscreteMass",
    "SpectralMeasure",
    "asc_recurrence",
    "asc_hypergeometric",
    "asc_hypergeometric_direct",
    "continuous_weight",
    "mass_points",
    "orthogonality_measure",
    "orthogonality_residual",
    "orthogonality_residuals",
]

_LD = np.longdouble
_CLD = np.clongdouble

#: half-width of the exclusion window around a*base^k = 1 (band-edge mass)
BAND_EDGE_TOL = 1e-12


class DegenerateParameterError(ValueError):
    """A would-be mass point sits exactly on the band edge a*base^k = 1."""


@dataclass(frozen=True)
class AscParams:
    """Parameters (a, b, base) of the polynomial family; base in (0, 1).

    Stored in extended precision whatever type they are given in, so every
    path of the family runs in ``longdouble``.
    """

    a: np.longdouble
    b: np.longdouble
    base: np.longdouble

    def __post_init__(self):
        if not (0.0 < float(self.base) < 1.0):
            raise ValueError(f"base must lie in (0, 1), got {self.base}")
        for name in ("a", "b", "base"):
            object.__setattr__(self, name, _LD(getattr(self, name)))


def _w_from_theta(theta):
    """e^(i theta) for a scalar or an array of angles; theta may be complex
    (real w > 0 for imaginary angles)."""
    return np.exp(_CLD(1j) * _CLD(theta))


def asc_recurrence(k: int, z, p: AscParams):
    """Q_k(z) by running the three-term recurrence up from Q_0 = 1.

    ``z`` may be a scalar or ndarray; the values are extended precision.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    return _recurrence_table(k, z, p)[k]


def _recurrence_table(kmax: int, z, p: AscParams) -> list:
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


def _running_products(factors):
    """1, f_0, f_0 f_1, ... along the last axis, multiplied left to right as
    a scalar loop would, so every entry keeps that loop's bits."""
    shape = factors.shape[:-1] + (factors.shape[-1] + 1,)
    out = np.empty(shape, dtype=factors.dtype)
    out[..., 0] = 1
    out[..., 1:] = factors
    return np.multiply.accumulate(out, axis=-1, out=out)  # cumprod


def _convolution_table(J: int, w, a, b, base):
    """(base; base)_j and the generating-function convolution (u * v)_j for
    j = 0..J, in extended precision, with

        u_r = (a/w; base)_r w^(2r) / (base; base)_r,
        v_s = (b w; base)_s / (base; base)_s,

    so that Q_j = w^(-j) (base; base)_j (u * v)_j.  Q_j is symmetric in
    (a, b), so callers may pass the pair in either order.

    ``w`` is a 1-D array of points; conv has one row per point and C has
    shape (J+1,).  Degree k of every row is one ``einsum`` over
    u_0 v_k + u_1 v_(k-1) + ... + u_k v_0, summed in ascending u-index with
    the same complex multiply-add as ``np.convolve(u_row, v_row)[k]``, so
    each row equals the one-point convolution bit for bit, with half its
    multiply-adds (the full convolution also forms the degrees past J).
    """
    w = np.asarray(w, dtype=_CLD)[:, None]
    pw = _running_products(np.full(J, _LD(base)))  # base^r
    C = _running_products(1 - pw[1:])              # (base; base)_r
    wpow = w ** np.arange(J + 1)
    # (a/w; base)_r and (b*w; base)_s
    u = _running_products(1 - (a / w) * pw[:-1]) * wpow * wpow / C
    del wpow
    v = _running_products(1 - (b * w) * pw[:-1]) / C
    conv = np.empty_like(u)
    for k in range(J + 1):
        conv[:, k] = np.einsum("ij,ij->i", u[:, :k + 1], v[:, k::-1])
    return C, conv


def _mass_point_series(kmax: int, kd: int, p: AscParams) -> np.ndarray:
    """The terminating sums S_0..S_kmax at the kd-th mass point
    w = a base^kd, in extended precision, with Q_j = (a b; base)_j a^(-j) S_j.

    There the representation's parameter a/w = base^(-kd) kills every series
    term past index kd, leaving the exact (kd+1)-term sum S_j = sum_{i<=kd} t_i,

        t_0 = 1,
        t_{i+1}/t_i = (1 - base^(i-j)) (1 - a^2 base^(kd+i)) (1 - base^(i-kd)) base
                      / ((1 - base^(i+1)) (1 - a b base^i)).

    Mass-point values are minimal solutions of the recurrence, so this sum,
    not the forward recurrence, keeps their relative accuracy.  Each term
    runs over all j at once, with the factors in the order of the one-j loop.
    """
    a, b, base = p.a, p.b, p.base
    j = np.arange(kmax + 1).astype(_LD)
    tot = np.zeros(kmax + 1, dtype=_LD)
    term = np.ones(kmax + 1, dtype=_LD)
    for i in range(kd + 1):
        tot = tot + term
        term = term * (1 - base ** (i - j)) * (1 - a * a * base ** _LD(kd + i)) \
            * (1 - base ** _LD(i - kd)) * base
        term = term / ((1 - base ** _LD(i + 1)) * (1 - a * b * base ** _LD(i)))
    return tot


def asc_hypergeometric(k: int, theta, p: AscParams) -> float:
    """Q_k from the hypergeometric representation, evaluated stably.

    ``theta`` is the angle with z = cos(theta); a complex theta with pure
    imaginary part addresses real w = e^(i theta) > 0 off the band.  The
    value equals the terminating 3phi2 representation exactly (see module
    docstring); output is real for real a, b.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    w = _w_from_theta(theta)
    C, conv = _convolution_table(k, [w], p.a, p.b, p.base)
    return complex(w ** (-k) * C[k] * conv[0, k]).real


def asc_hypergeometric_direct(k: int, theta, p: AscParams) -> float:
    """Reference evaluation: literal summation of the terminating 3phi2.

    Accurate only for small k (cancellation grows like base^(-k(k-1)/2));
    used to pin ``asc_hypergeometric`` to the defining series in tests.
    """
    w = _w_from_theta(theta)
    a, b, base = _CLD(p.a), _CLD(p.b), p.base
    series = phi32(base ** _LD(-k), a * w, a / w, a * b, base, base,
                   max_terms=k + 2)
    return complex(qpoch(a * b, base, k) * a ** (-k) * series).real


def _masked_qpoch_inf(a, base):
    """(a; base)_inf for every entry of the complex array ``a`` at once, for
    a real ``base`` in (0, 1).

    Each entry multiplies its factors 1 - a*base^i while |a*base^i| >= LD_INF_TOL
    and stops at the first one below, as ``qcore.qpoch_inf`` does for a
    scalar, so every entry equals the scalar product bit for bit.  The
    factors before the first depth at which any entry could stop run on the
    whole array without magnitude tests; only the rest are masked.
    """
    acc = np.ones_like(a)
    t = acc * a
    # Live phase.  After i multiplications by the real base, each rounding
    # both components of t once, the computed |t| is |a| base^i (1 + d) with
    # |d| <= (i + 2) eps (the 2 covers t's own rounding and abs).  For i below
    # i0 = floor(log(4 LD_INF_TOL / min|a|) / log base) the exact |a| base^i
    # exceeds 4 LD_INF_TOL for every entry; the factor 4 absorbs d and the
    # double-precision logs, so every entry is certainly still live and the
    # masked loop would take these factors everywhere.  They run without
    # abs, mask or where=, then the masked loop finishes, and each entry
    # stops at the same factor as before.
    smallest = float(np.abs(t).min(initial=np.inf))
    if 4 * LD_INF_TOL < smallest < np.inf:
        for _ in range(math.floor(math.log(4 * LD_INF_TOL / smallest)
                                  / math.log(base))):
            np.multiply(acc, 1 - t, out=acc)
            t *= base
    live = np.abs(t) >= LD_INF_TOL
    while live.any():
        np.multiply(acc, 1 - t, out=acc, where=live)
        t *= base
        live &= np.abs(t) >= LD_INF_TOL
    return acc


def continuous_weight(theta, p: AscParams):
    """Band weight w(cos theta) of the orthogonality measure (density
    with respect to dz/(2 pi sqrt(1-z^2)), i.e. dtheta/(2 pi) after z = cos theta).

    w = h(1) h(-1) h(sqrt(base)) h(-sqrt(base)) / (h(a) h(b)) with
    h(alpha) = (alpha e^(i theta); base)_inf (alpha e^(-i theta); base)_inf.

    ``theta`` may be a scalar (the result is a scalar) or an array of angles.
    For real alpha and base the second product of each pair is the complex
    conjugate of the first, bit for bit up to the sign of a zero imaginary
    part, which never reaches the real weight: negation commutes with
    rounding, so conjugation commutes with 1 - t, with t * base and with the
    complex product.  Only the six products (alpha e^(i theta); base)_inf
    are therefore run, in one loop over all angles, and h = P conj(P).
    """
    w = _w_from_theta(np.atleast_1d(np.asarray(theta, dtype=_LD)))
    base = p.base
    rt = np.sqrt(base)
    args = np.stack([_CLD(alpha) * w for alpha in (1.0, -1.0, rt, -rt, p.a, p.b)])
    prods = _masked_qpoch_inf(args, base)
    h = prods * np.conjugate(prods)
    val = h[0] * h[1] * h[2] * h[3] / (h[4] * h[5])
    out = np.real(val)
    return out if np.ndim(theta) else out[0]


def _norm_factor(i: int, p: AscParams):
    """h_i = (base^(i+1); base)_inf (a b base^i; base)_inf in extended
    precision: the i-th diagonal moment of the orthogonality measure is 1/h_i."""
    base = p.base
    return qpoch_inf(base ** _LD(i + 1), base, LD_INF_TOL) \
        * qpoch_inf(p.a * p.b * base ** _LD(i), base, LD_INF_TOL)


@dataclass(frozen=True)
class DiscreteMass:
    """One point mass: z = (w + 1/w)/2 with w = a*base^index > 1; the mass
    is kept in extended precision."""

    index: int
    w: float
    z: float
    mass: np.longdouble


def mass_points(p: AscParams, strict: bool = True) -> tuple[DiscreteMass, ...]:
    """Enumerate the point masses of the orthogonality measure.

    Includes every k >= 0 with a*base^k > 1 (empty whenever a <= 1).  When
    ``strict`` is set, a point with a*base^k within BAND_EDGE_TOL of 1 raises
    DegenerateParameterError; otherwise such points are silently excluded.
    """
    a, b, base = p.a, p.b, p.base
    out = []
    norm = None
    k = 0
    while True:
        wk = a * base ** _LD(k)
        if abs(wk - 1) <= BAND_EDGE_TOL:
            if strict:
                raise DegenerateParameterError(
                    f"mass point with a*base^{k} = {float(wk)} on the band edge")
            break
        if wk < 1:
            break
        zk = (wk + 1 / wk) / 2
        if norm is None:  # independent of k
            norm = qpoch_inf(a ** _LD(-2), base, LD_INF_TOL) / (
                _norm_factor(0, p) * qpoch_inf(b / a, base, LD_INF_TOL))
        mk = norm * (1 - a * a * base ** _LD(2 * k)) * qpoch(a * a, base, k) \
            * qpoch(a * b, base, k)
        mk = mk / ((1 - a * a) * qpoch(base, base, k)
                   * qpoch(base * a / b, base, k))
        mk = mk * base ** _LD(-k * k) * (a ** _LD(3) * b) ** _LD(-k)
        out.append(DiscreteMass(index=k, w=float(wk), z=float(zk), mass=mk))
        k += 1
    return tuple(out)


@dataclass(frozen=True)
class SpectralMeasure:
    """Continuous density on theta in [0, pi] plus point masses.

    ``density`` holds (1/2 pi) * w(cos theta) at ``theta_nodes`` (so the
    continuous part integrates against d theta); ``normalization`` is a
    positive extended-precision scale applied to both parts when integrating.
    """

    theta_nodes: np.ndarray
    density: np.ndarray
    discrete: tuple[DiscreteMass, ...]
    normalization: np.longdouble = _LD(1.0)

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights for the continuous part, normalization included."""
        h = self.theta_nodes[1] - self.theta_nodes[0]
        w = np.full(len(self.theta_nodes), h, dtype=self.density.dtype)
        w[0] /= 2
        w[-1] /= 2
        return w * self.density * self.normalization

    def integrate(self, continuous_values, discrete_values=None):
        """Integrate a spectral function given by its node / mass-point values."""
        total = np.sum(self.trapezoid_weights() * continuous_values)
        if self.discrete:
            if discrete_values is None:
                raise ValueError("measure has point masses; discrete values required")
            if len(discrete_values) != len(self.discrete):
                raise ValueError("discrete value count does not match the measure")
            for d, v in zip(self.discrete, discrete_values):
                total = total + self.normalization * d.mass * v
        return total

    def total_mass(self):
        ones = np.ones_like(self.density)
        return self.integrate(ones, [1.0] * len(self.discrete))


def orthogonality_measure(p: AscParams, quad_nodes: int) -> SpectralMeasure:
    """The orthogonality measure of the family, on a fixed theta grid.

    The moments reproduce
        integral Q_i Q_j dmu = delta_ij / ((base^(i+1); base)_inf
                                           (a b base^i; base)_inf).
    Mass points exactly on the band edge raise DegenerateParameterError.
    """
    if quad_nodes < 16:
        raise ValueError(f"need quad_nodes >= 16, got {quad_nodes}")
    discrete = mass_points(p, strict=True)  # may raise: check before densities
    nodes = np.linspace(0, np.pi, quad_nodes).astype(_LD)
    dens = continuous_weight(nodes, p) / (2 * _LD(np.pi))
    return SpectralMeasure(theta_nodes=nodes, density=dens, discrete=discrete)


def orthogonality_residuals(kmax: int, p: AscParams, quad_nodes: int,
                            pairs=None) -> dict:
    """Deviation of each (i, j) moment from its closed form, relative to the
    diagonal target 1/((base^(i+1); base)_inf (a b base^i; base)_inf).

    ``pairs`` defaults to every 0 <= i <= j <= kmax.  Each grid's measure and
    recurrence table are built once and shared by all pairs still refining;
    a pair stops once two successive grids agree to 1e-11 of its target
    scale, after at most 7 grids (each doubling keeps the previous nodes).
    """
    if kmax > 20:
        raise ValueError("residual check supports degrees up to 20")
    if pairs is None:
        pairs = [(i, j) for i in range(kmax + 1) for j in range(i, kmax + 1)]
    if any(not 0 <= k <= kmax for pair in pairs for k in pair):
        raise ValueError(f"pair degrees must lie in 0..{kmax}")
    scale = {i: 1 / _norm_factor(i, p) for i in {i for i, _ in pairs}}
    # mass points: Q_j = (ab; base)_j a^(-j) S_j, not the forward recurrence
    lead = np.array([qpoch(p.a * p.b, p.base, j) * p.a ** _LD(-j)
                     for j in range(kmax + 1)])
    val = {}
    pending = list(pairs)
    nodes = quad_nodes
    for _ in range(7):
        measure = orthogonality_measure(p, nodes)
        table = _recurrence_table(kmax, np.cos(measure.theta_nodes), p)
        disc = [lead * _mass_point_series(kmax, d.index, p)
                for d in measure.discrete]
        refining = []
        for i, j in pending:
            moment = measure.integrate(table[i] * table[j],
                                       [td[i] * td[j] for td in disc])
            settled = (i, j) in val and \
                abs(moment - val[i, j]) <= 1e-11 * abs(scale[i])
            val[i, j] = moment
            if not settled:
                refining.append((i, j))
        pending = refining
        if not pending:
            break
        nodes = 2 * nodes - 1  # doubling that keeps previous nodes
    return {(i, j): float(abs(val[i, j] - (scale[i] if i == j else 0.0))
                          / abs(scale[i]))
            for i, j in pairs}


def orthogonality_residual(i: int, j: int, p: AscParams, quad_nodes: int) -> float:
    """The (i, j) entry of :func:`orthogonality_residuals`."""
    return orthogonality_residuals(max(i, j), p, quad_nodes, [(i, j)])[i, j]
