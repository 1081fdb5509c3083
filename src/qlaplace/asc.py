"""Al-Salam-Chihara polynomials Q_k(z; a, b | base) at a generic base.

Two evaluation paths are provided, each returning every degree 0..kmax:

* ``asc_recurrence(kmax, z, p)``: the three-term recurrence
  2 z Q_k = Q_{k+1} + (a+b) base^k Q_k + (1 - base^k)(1 - a b base^(k-1)) Q_{k-1},
  with Q_{-1} = 0, Q_0 = 1, at a scalar or an array of points z, as one
  degree-major array filled in place: the family's table on a point set;
* ``asc_hypergeometric(J, theta, p)``: the terminating basic-hypergeometric
  representation
  Q_k = (a b; base)_k a^(-k) * 3phi2(base^(-k), a e^(i t), a e^(-i t); ab, 0)
  evaluated through an exact rearrangement (see below), one row per angle
  of a 1-D array.

Direct summation of the terminating 3phi2 is numerically hopeless beyond
small degree: its terms grow like base^(-k(k-1)/2) while the polynomial value
on the orthogonality band stays O(1), so tens of digits cancel already at
k ~ 10.  ``asc_hypergeometric`` therefore expands the generating function

    sum_k Q_k(z) t^k / (base; base)_k
        = (a t; base)_inf (b t; base)_inf / ((t w; base)_inf (t/w; base)_inf)

via the q-binomial theorem into the exact finite convolution

    Q_k = sum_r [k; r] (a/w; base)_r (b w; base)_{k-r} w^(2r-k),  w = e^(i t),

whose terms stay comparable to the value; it cross-checks the recurrence
(``verify``'s ``asc_consistency``).  At the mass points the 3phi2 terminates
after a few exact terms, which ``_mass_point_series`` sums for every mass
point in one call.  A ``SpectralMeasure`` owns its nodes' z = cos(theta),
the two tables at its own points (Q_0..Q_k at z and S_0..S_k at its mass
points, about 16 N (k+1) bytes on N nodes after the deepest read), the
eigenfunction profile vectors :func:`_profile_vectors` forms from the sums
and its quadrature weights, all read-only.  The tables and the vectors are
built on the first read and rebuilt only for a deeper one, the weights once:
O(k) + O(N) bytes beyond the tables.  Its ``polynomials`` and the transform
plans of :mod:`qlaplace.spectral` read them, a plan scaling the band table
into its own profile matrix; a profile at other points runs the kernels
itself.

The orthogonality measure consists of a continuous density on z = cos(t),
t in [0, pi], plus finitely many point masses at z_k = (a base^k + a^(-1)
base^(-k)) / 2 for every k >= 0 with a base^k > 1.  The density is
1/|c(e^(i t))|^2 with c(u) = (a u, b u; base)_inf / (u^2; base)_inf, the
c-function; one kernel runs its three products for the density and for
``spectral.c_function``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qcore import LD_INF_TOL, qpoch, qpoch_inf

__all__ = [
    "AscParams",
    "DegenerateParameterError",
    "DiscreteMass",
    "SpectralMeasure",
    "asc_recurrence",
    "asc_hypergeometric",
    "continuous_weight",
    "mass_points",
    "orthogonality_measure",
    "orthogonality_residual",
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
            value = _LD(getattr(self, name))
            if not np.isfinite(value):  # b = 0 is allowed
                raise ValueError(f"{name} = {value} is not finite in extended precision")
            object.__setattr__(self, name, value)


def _w_from_theta(theta):
    """e^(i theta) for a scalar or an array of angles; theta may be complex
    (real w > 0 for imaginary angles)."""
    return np.exp(_CLD(1j) * _CLD(theta))


def asc_recurrence(kmax: int, z, p: AscParams) -> np.ndarray:
    """Q_0..Q_kmax at a scalar or an ndarray ``z`` by the three-term
    recurrence up from Q_0 = 1: one degree-major array of shape
    (kmax+1, *z.shape), row k the degree-k values, filled in place.

    Row 0 is z * 0 + 1 and row 1 is 2z - (a+b); the array takes row 1's
    type, extended precision.  The degree-k coefficients (a+b) base^k and
    (1 - base^k)(1 - ab base^(k-1)) come from one array over k (array
    ``base ** k`` has the scalar power's bits), and 2z is formed once; each
    further row is written by the per-degree loop's five operations in its
    order, 2z Q_(k-1) - lin Q_(k-1) - quad Q_(k-2), so every entry keeps
    that loop's bits.
    """
    if kmax < 0:
        raise ValueError(f"degree must be nonnegative, got {kmax}")
    a, b, base = p.a, p.b, p.base
    first = 2 * z - (a + b)
    table = np.empty((kmax + 1,) + np.shape(first), dtype=np.result_type(first))
    table[0] = z * 0 + 1.0
    if kmax == 0:
        return table
    table[1] = first
    pw = base ** np.arange(kmax)
    z2 = 2 * z
    # the rows as (1, *z.shape) views, so that a scalar z is written in place
    # too; the output goes positionally, which numpy parses faster than out=
    rows = table[:, None]
    tmp = np.empty_like(rows[0])
    mul, sub = np.multiply, np.subtract
    for row, cur, prev, lin, quad in zip(rows[2:], rows[1:], rows, (a + b) * pw[1:],
                                         (1 - pw[1:]) * (1 - a * b * pw[:-1])):
        mul(z2, cur, row)
        mul(lin, cur, tmp)
        sub(row, tmp, row)
        mul(quad, prev, tmp)
        sub(row, tmp, row)
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

    so that Q_j = w^(-j) (base; base)_j (u * v)_j.

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


def _mass_point_series(kmax: int, discrete, p: AscParams) -> np.ndarray:
    """The terminating sums S_0..S_kmax at each mass point of ``discrete``
    (``DiscreteMass`` values, w = a base^kd for kd = ``index``), one
    extended-precision row per point, with Q_j = (a b; base)_j a^(-j) S_j.

    There the representation's parameter a/w = base^(-kd) kills every series
    term past index kd, leaving the exact (kd+1)-term sum S_j = sum_{i<=kd} t_i,

        t_0 = 1,
        t_{i+1}/t_i = (1 - base^(i-j)) (1 - a^2 base^(kd+i)) (1 - base^(i-kd)) base
                      / ((1 - base^(i+1)) (1 - a b base^i)).

    Mass-point values are minimal solutions of the recurrence, so this sum,
    not the forward recurrence, keeps their relative accuracy.  The powers
    of base come from one array (array ``base ** e`` has the scalar power's
    bits), and term i runs over all j of the points with kd >= i at once in
    the one-point, one-j loop's order, so every row has that loop's bits.
    No term past the largest kd is formed: no sum adds it, and at large j it
    can overflow while every sum stays finite.
    """
    a, b, base = p.a, p.b, p.base
    kd = np.array([d.index for d in discrete], dtype=int)
    top = int(kd.max(initial=-1))
    lo = max(kmax, top)  # base^e is pw[lo + e], for e = -lo..2 top - 1
    pw = base ** np.arange(-lo, 2 * top).astype(_LD)
    tot = np.zeros((len(kd), kmax + 1), dtype=_LD)
    term = np.ones_like(tot)
    for i in range(top + 1):
        on = kd >= i
        tot[on] += term[on]
        if i == top:  # term top + 1 is never added
            break
        k = kd[on, None]
        # base^(i-j) over j = 0..kmax: exponents i..i-kmax
        term[on] = term[on] * (1 - pw[lo + i - kmax:lo + i + 1][::-1]) \
            * (1 - a * a * pw[lo + k + i]) * (1 - pw[lo + i - k]) * base \
            / ((1 - pw[lo + i + 1]) * (1 - a * b * pw[lo + i]))
    return tot


def _profile_vectors(p: AscParams, sums: np.ndarray):
    """The two eigenfunction profile vectors of the family to degree k, from
    the :func:`_mass_point_series` rows ``sums`` (k+1 columns): the band
    scale b^j / (a b; base)_j, a running product, by which row j of a
    recurrence table becomes profile column j, and the mass-point profile
    rows (b/a)^j S_j.  Entry j of either depends on no later one."""
    k = sums.shape[1] - 1
    pw = _running_products(np.full(k, p.base))  # base^j
    scale = _running_products(p.b / (1 - p.a * p.b * pw[:-1]))
    return scale, (p.b / p.a) ** np.arange(k + 1).astype(_LD) * sums


def asc_hypergeometric(J: int, theta, p: AscParams) -> np.ndarray:
    """Q_0..Q_J from the hypergeometric representation, evaluated stably, at
    each angle of the 1-D array ``theta``: one ``clongdouble`` row per angle.

    Q_j = w^(-j) (base; base)_j (u * v)_j with w = e^(i theta), the
    convolution of :func:`_convolution_table`, equals the terminating 3phi2
    representation exactly (see module docstring); its real part is the
    value for real a, b.  z = cos(theta); a complex theta with pure imaginary
    part addresses real w = e^(i theta) > 0 off the band.
    """
    if J < 0:
        raise ValueError(f"degree must be nonnegative, got {J}")
    w = _w_from_theta(theta)
    C, conv = _convolution_table(J, w, p.a, p.b, p.base)
    return w[:, None] ** -np.arange(J + 1) * C * conv


def _masked_qpoch_inf(a, base):
    """(a; base)_inf for every entry of the complex array ``a`` at once, for
    a real ``base`` in (0, 1).

    Each entry multiplies its factors 1 - t, t = a base^i, while
    |t| > s = ``_LOG_SPLIT``, under a per-entry mask, so its bits do not
    depend on the rest of the array.  The factors left have positive real
    parts, so their principal logs sum to the log of their product, the
    series -sum_k t^k / (k (1 - base^k)) (Gasper & Rahman 2004).  It stops
    at the least K with s^(K+1) / ((K+1)(1 - base)(1 - s)) < LD_INF_TOL, a
    bound of its remainder: 17 or 18 terms, where the truncated product
    takes up to 427 factors at q = 0.95.

    The first factors run on every entry with no mask and no fresh |t|:
    factor i while m base^i > s / base, m the least |a| in extended
    precision (it may pass the double range), and i < (1 - base) 2^61.
    t base rounds each component once, so after i steps each |t| and the
    running m base^i are within 2i + 5 roundings (2^-64 each) of exact
    values at least m base^i; the margin 1/base outweighs them, so every
    |t| is still above s and the masked loop would take the same factors
    by the same operations.  It takes over from a fresh |t|.
    """
    t = np.ones_like(a) * a
    acc = np.ones_like(t)
    mag = np.abs(t)
    least, edge = mag.min(initial=np.inf), _LOG_SPLIT / base
    if edge < least < np.inf:
        fac = np.empty_like(t)
        steps, cap = 0, (1 - base) * 2.0 ** 61
        while least > edge and steps < cap:
            np.subtract(1, t, out=fac)
            acc *= fac
            t *= base
            least = least * base
            steps += 1
        mag = np.abs(t)
    head = mag > _LOG_SPLIT
    while head.any():
        np.multiply(acc, 1 - t, out=acc, where=head)
        np.multiply(t, base, out=t, where=head)
        head &= np.abs(t) > _LOG_SPLIT
    K = 1
    while _LOG_SPLIT ** (K + 1) >= LD_INF_TOL * (K + 1) * (1 - base) * (1 - _LOG_SPLIT):
        K += 1
    k = np.arange(1, K + 1)
    series = np.zeros_like(t)
    for coef in (1 / (k * (1 - base ** k)))[::-1]:  # Horner, t^K down to t
        series += coef
        series *= t
    np.negative(series, out=series)
    acc *= np.exp(series, out=series)
    return acc


def _c_products(u, p: AscParams):
    """(a u; base)_inf, (b u; base)_inf and (u^2; base)_inf for every entry
    of the complex array ``u``, from one :func:`_masked_qpoch_inf` loop: the
    numerator and denominator factors of the c-function
    c(u) = (a u, b u; base)_inf / (u^2; base)_inf."""
    return _masked_qpoch_inf(np.stack([p.a * u, p.b * u, u * u]), p.base)


def continuous_weight(theta, p: AscParams):
    """Band weight w(cos theta) of the orthogonality measure (density
    with respect to dz/(2 pi sqrt(1-z^2)), i.e. dtheta/(2 pi) after z = cos theta).

    w = 1/|c(e^(i theta))|^2 = |(e^(2 i theta); base)_inf|^2
    / |(a e^(i theta), b e^(i theta); base)_inf|^2 (KLS 14.8.2), with the
    three products of :func:`_c_products`.  It is formed as |den|^2 over the
    numerators, not as 1/|c|^2: at theta = 0 the denominator product is
    exactly 0 and the weight with it.

    ``theta`` may be a scalar (the result is a scalar) or an array of angles.
    """
    u = _w_from_theta(np.atleast_1d(np.asarray(theta, dtype=_LD)))
    num_a, num_b, den = np.abs(_c_products(u, p)) ** 2
    out = den / (num_a * num_b)
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
    continuous part integrates against d theta), w the band weight of the
    family ``params``; it is formed on its first read, since transforms and
    eigenvalues read only the nodes and the mass points; so is ``z``, the
    read-only ``longdouble`` cos(theta) at the nodes.  ``normalization`` is
    a positive extended-precision scale of both parts, applied only by
    :meth:`weights`.

    The measure owns what depends on it alone, read-only: the family's
    values at its points (:meth:`_tables`), the eigenfunction profile
    vectors formed from them (:meth:`_profiles`) and its quadrature weights
    (:meth:`weights`, built once), O(k) + O(N) bytes beyond the tables.  A
    transform plan owns only its scaled band; the lattice masses belong to
    the sector.
    """

    theta_nodes: np.ndarray
    params: AscParams
    discrete: tuple[DiscreteMass, ...]
    normalization: np.longdouble = _LD(1.0)
    _raw: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)
    _vectors: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    @cached_property
    def density(self) -> np.ndarray:
        return continuous_weight(self.theta_nodes, self.params) / (2 * _LD(np.pi))

    @cached_property
    def z(self) -> np.ndarray:
        z = np.cos(self.theta_nodes)
        z.flags.writeable = False
        return z

    def _tables(self, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (band, sums) to degree kmax: :func:`asc_recurrence` at
        ``z`` and the :func:`_mass_point_series` rows.  Built on the first
        read and rebuilt only for a deeper one, each at the depth read, never
        deeper (a later term can overflow); a shallower read gets leading
        rows and columns, with a fresh build's bits, as no recurrence row or
        series column depends on a later one."""
        if kmax < 0:
            raise ValueError(f"degree must be nonnegative, got {kmax}")
        if self._raw is None or len(self._raw[0]) <= kmax:
            band = asc_recurrence(kmax, self.z, self.params)
            sums = _mass_point_series(kmax, self.discrete, self.params)
            band.flags.writeable = sums.flags.writeable = False
            object.__setattr__(self, "_raw", (band, sums))
        band, sums = self._raw
        return band[:kmax + 1], sums[:, :kmax + 1]

    def _profiles(self, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (band, scale, disc) to degree kmax: the band table of
        :meth:`_tables` and the :func:`_profile_vectors` of its sums, the
        band's scale vector and the mass-point profile rows.  The vectors
        keep the tables' rule: built on the first read, rebuilt only for a
        deeper one, and a shallower read gets their leading entries with a
        fresh build's bits."""
        band, sums = self._tables(kmax)
        if self._vectors is None or len(self._vectors[0]) <= kmax:
            scale, disc = _profile_vectors(self.params, sums)
            scale.flags.writeable = disc.flags.writeable = False
            object.__setattr__(self, "_vectors", (scale, disc))
        scale, disc = self._vectors
        return band, scale[:kmax + 1], disc[:, :kmax + 1]

    def polynomials(self, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Q_0..Q_kmax at the nodes and at the mass points, as (band, disc):
        band is the read-only recurrence table of :meth:`_tables`, one row
        per degree, and disc one row per mass point, Q_j = (a b; base)_j
        a^(-j) S_j from its terminating sums (the forward recurrence loses
        that minimal solution), (a b; base)_j a running product."""
        p = self.params
        band, sums = self._tables(kmax)
        pw = _running_products(np.full(kmax, p.base))  # base^j
        lead = _running_products(1 - p.a * p.b * pw[:-1]) * p.a ** -np.arange(kmax + 1)
        return band, lead * sums

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature weights of the two parts, normalization included: the
        trapezoid weights at the theta nodes and the point masses, read-only
        and built on the first call."""
        return self._weights

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        h = self.theta_nodes[1] - self.theta_nodes[0]
        w = np.full(len(self.theta_nodes), h, dtype=self.density.dtype)
        w[0] /= 2
        w[-1] /= 2
        nodes = w * self.density * self.normalization
        masses = np.array([self.normalization * d.mass for d in self.discrete], dtype=_LD)
        nodes.flags.writeable = masses.flags.writeable = False
        return nodes, masses

    def integrate(self, continuous_values, discrete_values=None):
        """Integrate a spectral function given by its node / mass-point values.

        Values with a leading axis, one function per row, give one integral
        per row, each with the bits of its one-row call: a row's node terms
        are summed along the contiguous last axis, as ``np.sum`` sums the row
        alone, and its mass terms are added in order."""
        nodes, masses = self.weights()
        total = np.sum(nodes * continuous_values, axis=-1)
        values = np.asarray(() if discrete_values is None else discrete_values)
        if values.shape[-1] != len(masses):
            raise ValueError(f"{values.shape[-1]} discrete values for "
                             f"{len(masses)} point masses")
        for w, v in zip(masses, np.moveaxis(values, -1, 0)):
            total = total + w * v
        return total

    def total_mass(self):
        ones = np.ones_like(self.density)
        return self.integrate(ones, [1.0] * len(self.discrete))


#: the trapezoid rule's total-mass error on N theta nodes is at most
#: C exp(-2 d N), d the distance of the band weight's nearest pole from the
#: real theta axis (Trefethen & Weideman, SIAM Review 56, 2014); C fitted over
#: the domain sweep at q = 0.9 and 0.95
_TRAPEZOID_C = 0.25
#: total-mass error the node count aims at: 1/100 of ``plancherel_mass``'s 1e-10
_NODE_TOL = 1e-12
#: magnitude of the running term at which ``_masked_qpoch_inf`` turns from
#: multiplying factors to the log series of the rest of the product
_LOG_SPLIT = 0.1
#: most theta nodes of a measure grid, for the pole rule and a requested floor
_MAX_NODES = 2 ** 14


def _node_count(p: AscParams, floor: int) -> int:
    """Theta nodes of every measure grid: max(floor, ceil(ln(C / tol) / (2 d))).

    d = min |ln(alpha base^k)| over alpha in (a, b), k >= 0, read in extended
    precision: the band weight's 1/(h(a) h(b)) has its poles at
    theta = +-i ln(alpha base^k) (+ pi for negative alpha).  Callers reject
    band-edge mass points first; a d that asks for more than 2^14 nodes
    raises ValueError.
    """
    s = -np.log(p.base)
    d = np.inf
    for alpha in (abs(p.a), abs(p.b)):
        if alpha == 0:  # no pole
            continue
        x = np.log(alpha)
        k = max(0, math.floor(x / s))
        d = min(d, abs(x - k * s), abs(x - (k + 1) * s))
    d = float(d)
    reach = math.log(_TRAPEZOID_C / _NODE_TOL) / 2
    if reach > d * _MAX_NODES:
        raise ValueError(f"band weight pole at distance d = {d:.3g} from the "
                         f"real axis needs more than {_MAX_NODES} theta nodes")
    return max(floor, math.ceil(reach / d))


def orthogonality_measure(p: AscParams, quad_nodes: int) -> SpectralMeasure:
    """The orthogonality measure of the family on a trapezoid theta grid of
    :func:`_node_count` nodes, at least ``quad_nodes`` (16 to ``_MAX_NODES``).

    The moments reproduce
        integral Q_i Q_j dmu = delta_ij / ((base^(i+1); base)_inf
                                           (a b base^i; base)_inf).
    Mass points exactly on the band edge raise DegenerateParameterError.
    """
    # the point masses may raise: enumerate them before the densities
    return _grid_measure(p, mass_points(p, strict=True), quad_nodes)


def _grid_measure(p: AscParams, discrete, quad_nodes: int) -> SpectralMeasure:
    """:func:`orthogonality_measure` with its point masses ``discrete``
    already enumerated."""
    if quad_nodes < 16:
        raise ValueError(f"need quad_nodes >= 16, got {quad_nodes}")
    if quad_nodes > _MAX_NODES:
        raise ValueError(f"need quad_nodes <= {_MAX_NODES}, got {quad_nodes}")
    theta = np.linspace(0, np.pi, _node_count(p, quad_nodes)).astype(_LD)
    return SpectralMeasure(theta_nodes=theta, params=p, discrete=discrete)


def orthogonality_residual(kmax: int, p: AscParams, quad_nodes: int) -> dict:
    """Deviation of each (i, j) moment, 0 <= i <= j <= kmax, from its closed
    form, relative to the diagonal target:

        lhs: integral Q_i Q_j dmu over the orthogonality measure;
        rhs: delta_ij / ((base^(i+1); base)_inf (a b base^i; base)_inf).

    Every moment comes from the values of one
    :meth:`SpectralMeasure.polynomials` call, each a row of one
    :meth:`SpectralMeasure.integrate` call.  A moment integrand is a degree
    <= 2 kmax polynomial times the band weight, whose trapezoid error is
    C exp(-2 d (N - 1 - kmax)), so the grid has max(quad_nodes, N(d) + kmax
    + 1) nodes, N(d) the :func:`_node_count` of the weight alone.
    """
    if kmax > 20:
        raise ValueError("residual check supports degrees up to 20")
    discrete = mass_points(p, strict=True)  # a band-edge mass raises before d is read
    measure = _grid_measure(p, discrete, max(quad_nodes, _node_count(p, 0) + kmax + 1))
    table, disc = measure.polynomials(kmax)
    scale = [1 / _norm_factor(i, p) for i in range(kmax + 1)]
    pairs = [(i, j) for i in range(kmax + 1) for j in range(i, kmax + 1)]
    first, second = np.array(pairs).T
    # one moment per row, each with the bits of its one-row call
    val = measure.integrate(table[first] * table[second],
                            (disc[:, first] * disc[:, second]).T)
    return {(i, j): float(abs(v - (scale[i] if i == j else 0.0)) / abs(scale[i]))
            for (i, j), v in zip(pairs, val)}
