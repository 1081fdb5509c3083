"""Eigenfunctions, Plancherel measure, and the unitary spectral transform.

A spectral point carries w with z = (w + 1/w)/2: on the continuous band
w = e^(i theta), theta in [0, pi]; off the band w is real, and the Plancherel
mass points (w = a q^(2k) > 1) are the ``asc.DiscreteMass`` values.  The
generalized eigenfunction of the sector operator takes the value 1 at the
lattice base point and, at x = q^(-2j), equals a rescaled Al-Salam-Chihara
polynomial of degree j in z with parameters

    a = q^(2n - N + 1 + L - Lp),  b = q^(N - 1 + L + Lp),  base = q^2.

The spectral transform integrates a lattice function against the
eigenfunction profile with respect to the normalized lattice measure; its
inverse integrates against the Plancherel measure (the Al-Salam-Chihara
orthogonality measure rescaled to total mass 1, which is forced by sending
the base-point indicator to the constant function 1).

Numerical notes.  Eigenfunction profiles are evaluated in extended precision
through the one convolution kernel of :mod:`qlaplace.asc`
(``_convolution_table``, shared with ``asc_hypergeometric``), which
evaluates all nodes of a quadrature grid at once, one ``einsum`` per degree,
with bits identical to the per-point evaluation; at discrete mass points
(w = a q^(2k)) the terminating parameter a/w = q^(-2k) truncates the defining
series after k+1 terms, and that short sum (``asc._mass_point_series``, one
array over all degrees) is used instead (bound-state profiles are minimal
solutions of the recurrence, so any forward evaluation loses relative
accuracy exponentially in j).  The lattice masses of all degrees come from
one ``measure_mass`` call on the index array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from .asc import (AscParams, DiscreteMass, SpectralMeasure, _convolution_table,
                  _masked_qpoch_inf, _mass_point_series, _norm_factor,
                  _running_products, _w_from_theta, mass_points,
                  orthogonality_measure)
from .lattice import LatticeFunction, ModelParams, Sector, measure_mass
from .laplace import eigenvalue

__all__ = [
    "SpectralPoint",
    "continuous_point",
    "point_from_exponent",
    "asc_params",
    "eigenfunction_profile",
    "c_function",
    "plancherel_measure",
    "measure_eigenvalues",
    "SpectralFunction",
    "transform_grid",
    "inverse_transform_profile",
    "Spectrum",
    "spectrum",
]

_LD = np.longdouble
_CLD = np.clongdouble


@dataclass(frozen=True)
class SpectralPoint:
    """A point z = (w + 1/w)/2 of the spectral variable that is not a
    Plancherel mass point (those are ``asc.DiscreteMass``)."""

    z: float
    w: complex


def continuous_point(theta: float) -> SpectralPoint:
    """Band point with w = e^(i theta), z = cos(theta)."""
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return SpectralPoint(z=math.cos(theta), w=cmath.exp(1j * theta))


def point_from_exponent(params: ModelParams, ell) -> SpectralPoint:
    """Point with w = q^(2*ell + N - 1) for a real spectral label ell.

    Integer ell >= 1 gives z > 1 off the band (generalized eigenfunctions
    used in operator tests); ell = 0 gives the zero of the eigenvalue map.
    A w that underflows double, so that z is not finite, raises ValueError.
    """
    w = float(params.q) ** (2 * ell + params.N - 1)
    z = (w + 1 / w) / 2 if w else math.inf
    if not math.isfinite(z):
        raise ValueError(f"w = q^(2 ell + N - 1) = {w} underflows double at "
                         f"ell={ell}, q={params.q}, N={params.N}: z is not finite")
    return SpectralPoint(z=z, w=w)


def asc_params(params: ModelParams, sector: Sector) -> AscParams:
    """Al-Salam-Chihara parameters attached to a sector (base = q^2)."""
    q = params.q_ld
    return AscParams(a=q ** _LD(2 * params.n - params.N + 1 + sector.L - sector.Lp),
                     b=q ** _LD(params.N - 1 + sector.L + sector.Lp),
                     base=q * q)


def _profile_convolution(params: ModelParams, sector: Sector, w,
                         max_j: int) -> np.ndarray:
    """Eigenfunction values at j = 0..max_j via the shared convolution, one
    row per spectral point of the 1-D array ``w``.

    With (p; p)_j and (u * v)_j from :func:`qlaplace.asc._convolution_table`
    at (a, b) swapped to (b, a), the value at x = q^(-2j) is
    (b/w)^j (p; p)_j (u * v)_j / (a b; p)_j.
    """
    pp = asc_params(params, sector)
    a, b, p = pp.a, pp.b, pp.base
    w = np.asarray(w, dtype=_CLD)
    C, conv = _convolution_table(max_j, w, b, a, p)
    ppow = _running_products(np.full(max_j, p))
    abpoch = _running_products(1 - a * b * ppow[:-1])
    b_over_w = np.broadcast_to((b / w)[:, None], (len(w), max_j))
    val = _running_products(b_over_w) * C * conv / abpoch
    return np.ascontiguousarray(np.real(val))


def _profile_mass_point(params: ModelParams, sector: Sector, kd: int,
                        max_j: int) -> np.ndarray:
    """Eigenfunction values (b/a)^j S_j at the kd-th mass point, j = 0..max_j,
    from the terminating sum S_j of :func:`qlaplace.asc._mass_point_series`."""
    pp = asc_params(params, sector)
    j = np.arange(max_j + 1).astype(_LD)
    return (pp.b / pp.a) ** j * _mass_point_series(max_j, kd, pp)


def eigenfunction_profile(params: ModelParams, sector: Sector,
                          point: SpectralPoint | DiscreteMass,
                          max_j: int) -> np.ndarray:
    """Eigenfunction values at lattice indices 0..max_j (value 1 at j = 0);
    a mass point of the sector (``asc.DiscreteMass``) takes the terminating
    sum."""
    if max_j < 0:
        raise ValueError("max_j must be nonnegative")
    if isinstance(point, DiscreteMass):
        return _profile_mass_point(params, sector, point.index, max_j)
    return _profile_convolution(params, sector, [point.w], max_j)[0]


def c_function(params: ModelParams, sector: Sector, arg):
    """Harish-Chandra-type c-function of the sector, elementwise on a scalar
    or an array ``arg``.

    c(arg) = (a u; base)_inf (b u; base)_inf / (u^2; base)_inf with u = q^arg
    = exp(arg ln q) and (a, b, base) = ``asc_params`` (a and b carry the
    exponents n - m + 1 + L - Lp and N - 1 + L + Lp), run as one call of the
    band weight's extended-precision product kernel.  The continuous Plancherel
    density is |1/c(i nu)|^2 under e^(i theta) = q^(i nu).  A vanishing
    denominator factor (q^(2 arg) on q^(-2 Z+)) raises ValueError.
    """
    pp = asc_params(params, sector)
    arg = np.asarray(arg)
    u = np.exp(arg.astype(_CLD) * np.log(params.q_ld))
    num_a, num_b, den = _masked_qpoch_inf(np.stack([pp.a * u, pp.b * u, u * u]),
                                          pp.base)
    vanishing = np.abs(den) < 1e-300
    if vanishing.any():
        raise ValueError(f"c-function denominator (q^(2 arg); q^2)_inf vanishes "
                         f"at arg={arg[vanishing][0]}")
    return num_a * num_b / den


def plancherel_measure(params: ModelParams, sector: Sector,
                       quad_nodes: int) -> SpectralMeasure:
    """Spectral measure of the sector operator, normalized to total mass 1.

    This is the Al-Salam-Chihara orthogonality measure for the sector's
    parameters rescaled by (q^2; q^2)_inf (q^(2(n+L)); q^2)_inf, the unique
    normalization compatible with a unitary transform sending f_0 to 1.
    The discrete part is nonempty exactly when L - Lp < m - n - 1.
    """
    pp = asc_params(params, sector)
    return replace(orthogonality_measure(pp, quad_nodes),
                   normalization=_norm_factor(0, pp))


def measure_eigenvalues(params: ModelParams, measure: SpectralMeasure):
    """The eigenvalue map at the measure's theta nodes and at its mass points,
    as (continuous, discrete); each node's z = cos(theta) is taken in double."""
    return (eigenvalue(params, np.array([math.cos(t) for t in measure.theta_nodes])),
            eigenvalue(params, np.array([d.z for d in measure.discrete])))


@dataclass(frozen=True)
class SpectralFunction:
    """A function of the spectral variable sampled on a measure's node set."""

    measure: SpectralMeasure
    continuous: np.ndarray
    discrete: tuple

    def __post_init__(self):
        if len(self.continuous) != len(self.measure.theta_nodes):
            raise ValueError(
                f"inconsistent sampling grid: {len(self.continuous)} values on "
                f"{len(self.measure.theta_nodes)} nodes")
        if len(self.discrete) != len(self.measure.discrete):
            raise ValueError(
                f"inconsistent discrete sampling: {len(self.discrete)} values "
                f"for {len(self.measure.discrete)} mass points")


def _profile_matrix(params: ModelParams, sector: Sector,
                    measure: SpectralMeasure, max_j: int):
    """Eigenfunction profiles on the measure's nodes and mass points.

    Returns (cont, disc): cont[t, j] on theta nodes, disc[k, j] on masses.
    """
    cont = _profile_convolution(params, sector,
                                _w_from_theta(measure.theta_nodes), max_j)
    disc = np.empty((len(measure.discrete), max_j + 1), dtype=_LD)
    for kk, d in enumerate(measure.discrete):
        disc[kk] = _profile_mass_point(params, sector, d.index, max_j)
    return cont, disc


def _coefficient_vector(f: Mapping[int, complex], max_j: int) -> np.ndarray:
    vals = [f.get(j, 0.0) for j in range(max_j + 1)]
    if any(np.iscomplexobj(np.asarray(v)) or isinstance(v, complex) for v in vals):
        return np.array(vals, dtype=_CLD)
    return np.array(vals, dtype=_LD)


class _TransformPlan:
    """Profile matrix and lattice masses of one measure at depth ``max_j``,
    shared by every forward and inverse transform of depth <= max_j.

    Each transform reads the leading columns of the plan's profiles and
    masses.  Those columns carry the bits of a build at the smaller depth
    (profile columns are running products along the degree axis, masses are
    elementwise), and the extended-precision products sum in index order
    whatever the strides, so every value equals a fresh build's.  A function
    deeper than the plan raises ValueError.
    """

    def __init__(self, params: ModelParams, sector: Sector,
                 measure: SpectralMeasure, max_j: int):
        self.params, self.sector = params, sector
        self.measure = measure
        self.max_j = max_j
        self.cont, self.disc = _profile_matrix(params, sector, measure, max_j)

    @cached_property
    def masses(self) -> np.ndarray:
        """Lattice masses at 0..max_j; built on the first forward transform
        (an inverse transform needs none)."""
        return measure_mass(self.params, self.sector, np.arange(self.max_j + 1))

    def _columns(self, J: int) -> int:
        if J > self.max_j:
            raise ValueError(f"depth {J} exceeds the transform plan's "
                             f"depth {self.max_j}")
        return J + 1

    def forward(self, f: Mapping[int, complex]) -> SpectralFunction:
        """Forward transform sampled on the measure's full node set."""
        cols = self._columns(max(f, default=0))
        weighted = _coefficient_vector(f, cols - 1) * self.masses[:cols]
        return SpectralFunction(measure=self.measure,
                                continuous=self.cont[:, :cols] @ weighted,
                                discrete=tuple(self.disc[:, :cols] @ weighted))

    def inverse(self, fhat: SpectralFunction, max_j: int) -> LatticeFunction:
        """Inverse transform on all lattice indices 0..max_j at once."""
        if fhat.measure is not self.measure:
            raise ValueError("the spectral function is sampled on another measure")
        cols = self._columns(max_j)
        measure = self.measure
        w8 = measure.trapezoid_weights()
        vals = self.cont[:, :cols].T @ (w8 * np.asarray(fhat.continuous))
        if measure.discrete:
            dm = np.array([d.mass for d in measure.discrete], dtype=_LD) \
                * measure.normalization
            vals = vals + self.disc[:, :cols].T @ (dm * np.asarray(fhat.discrete))
        return LatticeFunction({j: v for j, v in enumerate(vals)})


def transform_grid(params: ModelParams, sector: Sector, f: Mapping[int, complex],
                   measure: SpectralMeasure) -> SpectralFunction:
    """Forward transform sampled on a Plancherel measure's full node set."""
    return _TransformPlan(params, sector, measure, max(f, default=0)).forward(f)


def inverse_transform_profile(params: ModelParams, sector: Sector,
                              fhat: SpectralFunction, max_j: int) -> LatticeFunction:
    """Inverse transform on all lattice indices 0..max_j at once."""
    return _TransformPlan(params, sector, fhat.measure, max_j).inverse(fhat, max_j)


@dataclass(frozen=True)
class Spectrum:
    """Operator spectrum: continuous band plus discrete eigenvalues."""

    band: tuple[float, float]
    discrete: tuple[float, ...]

    def containment(self, eigenvalues) -> float:
        """Largest distance of any given eigenvalue to the spectrum (0 when
        every one lies in the band or on a discrete eigenvalue, NaN when any
        is NaN)."""
        x = np.asarray(eigenvalues, dtype=float)
        lo, hi = self.band
        d = np.where((lo <= x) & (x <= hi), 0.0, np.minimum(abs(x - lo), abs(x - hi)))
        for t in self.discrete:
            d = np.minimum(d, abs(x - t))
        return float(np.max(d, initial=0.0))


def spectrum(params: ModelParams, sector: Sector) -> Spectrum:
    """Band endpoints (at z = -1 and z = 1) and the discrete eigenvalues."""
    z = [-1.0, 1.0] + [d.z for d in mass_points(asc_params(params, sector),
                                                strict=False)]
    lo, hi, *disc = (float(v) for v in eigenvalue(params, np.array(z)))
    return Spectrum(band=(lo, hi), discrete=tuple(disc))
