"""Eigenfunctions, Plancherel measure, and the unitary spectral transform.

The spectral variable is z: on the continuous band z = cos(theta), theta
in [0, pi]; off the band z > 1, and the Plancherel mass points
(z = (w + 1/w)/2 with w = a q^(2k) > 1) are the ``asc.DiscreteMass`` values.
The generalized eigenfunction of the sector operator takes the value 1 at the
lattice base point and, at x = q^(-2j), equals a rescaled Al-Salam-Chihara
polynomial of degree j in z with parameters

    a = q^(2n - N + 1 + L - Lp),  b = q^(N - 1 + L + Lp),  base = q^2.

The spectral transform integrates a lattice function against the
eigenfunction profile with respect to the normalized lattice measure; its
inverse integrates against the Plancherel measure (the Al-Salam-Chihara
orthogonality measure rescaled to total mass 1, which is forced by sending
the base-point indicator to the constant function 1).

Numerical notes.  Eigenfunction profiles are evaluated in extended precision
by ``asc.asc_recurrence``, the family's one degree-major table on a point
set, at every z of :func:`eigenfunction_profile` at once (a measure's nodes
are read at its ``SpectralMeasure.z``), with the per-point bits, scaled by
the vectors of ``asc._profile_vectors``.  On the band, and off it away from
the mass points, the polynomial is the dominant solution of its recurrence,
so the forward run keeps its relative accuracy.  At discrete mass points (w = a q^(2k)) the
terminating parameter a/w = q^(-2k) truncates the defining series after k+1
terms, and that short sum is used instead: one ``asc._mass_point_series``
call over every mass point, a row of all degrees per point (bound-state
profiles are minimal solutions of the recurrence, so any forward evaluation
loses relative accuracy exponentially in j).  The lattice masses of all
degrees come from one ``measure_mass`` call.

Transforms run on a ``_TransformPlan``, the profiles of one measure's
family at one depth.  Its forward takes a list of functions, one column
each of one matrix product per part (band and mass points, run by
``np.dot``'s ``longdouble`` dot loop, see :func:`_matmul`), and returns
(cont, disc), C-contiguous ``clongdouble`` arrays with one row per
function, which its inverse takes; every row has the bits of the
one-function call.  :func:`transform_grid`, the one builder of a
``SpectralFunction``, and :func:`inverse_transform_profile` are one-row
calls of the same code.  Who owns what: the measure owns, read-only, the
family's raw values at its points (``SpectralMeasure._tables``, about
16 N (J+1) bytes on N nodes after its deepest transform), the profile
vectors formed from them (``SpectralMeasure._profiles``: the band's scale
b^j / (a b; base)_j and the mass-point profile rows) and its quadrature
weights, O(J) + O(N) bytes more.  A plan owns only its scaled band, reads
the mass-point rows as a view, lives for one call, and refuses another
family, whose profiles would not pair with the measure; the lattice masses
belong to the sector and are formed per forward.  A round trip carries no
plan: its inverse builds its own from what the forward left on the
measure, so the recurrence and the vectors run on a measure's first
transform and on each deeper one only.  The inverse's
lattice functions are built by ``LatticeFunction._from_items``, without
checking again the indices the plan made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .asc import (AscParams, DiscreteMass, SpectralMeasure, _c_products,
                  _mass_point_series, _norm_factor, _profile_vectors,
                  asc_recurrence, mass_points, orthogonality_measure)
from .lattice import LatticeFunction, ModelParams, Sector, measure_mass
from .laplace import eigenvalue

__all__ = [
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


def point_from_exponent(params: ModelParams, ell) -> float:
    """z = (w + 1/w)/2 with w = q^(2*ell + N - 1) for a real spectral label
    ell, as a float.

    Integer ell >= 1 gives z > 1 off the band (generalized eigenfunctions
    used in operator tests); ell = 0 gives the zero of the eigenvalue map.
    A w that underflows double, so that z is not finite, raises ValueError.
    """
    w = float(params.q) ** (2 * ell + params.N - 1)
    z = (w + 1 / w) / 2 if w else math.inf
    if not math.isfinite(z):
        raise ValueError(f"w = q^(2 ell + N - 1) = {w} underflows double at "
                         f"ell={ell}, q={params.q}, N={params.N}: z is not finite")
    return z


def asc_params(params: ModelParams, sector: Sector) -> AscParams:
    """Al-Salam-Chihara parameters attached to a sector (base = q^2)."""
    q = params.q_ld
    with np.errstate(over="ignore"):  # AscParams names a non-finite a or b
        a = q ** _LD(2 * params.n - params.N + 1 + sector.L - sector.Lp)
        b = q ** _LD(params.N - 1 + sector.L + sector.Lp)
    return AscParams(a=a, b=b, base=q * q)


def eigenfunction_profile(params: ModelParams, sector: Sector, z,
                          discrete: Sequence[DiscreteMass], max_j: int):
    """Eigenfunction values at lattice indices 0..max_j (value 1 at j = 0),
    as (cont, disc).

    cont[t, j] is at the t-th entry of the 1-D ``longdouble`` array ``z``,
    from :func:`qlaplace.asc.asc_recurrence` times the band scale of
    ``asc._profile_vectors``, as the transposed view of a new array, and
    disc[k, j] at the k-th mass point in ``discrete`` (``asc.DiscreteMass``
    values), that helper's profile rows of one
    :func:`qlaplace.asc._mass_point_series` call.  Every row has the bits of
    a call on that point alone.
    """
    pp = asc_params(params, sector)
    band = asc_recurrence(max_j, z, pp)
    scale, disc = _profile_vectors(pp, _mass_point_series(max_j, discrete, pp))
    return (band * scale[:, None]).T, disc


def c_function(params: ModelParams, sector: Sector, arg):
    """Harish-Chandra-type c-function of the sector, elementwise on a scalar
    or an array ``arg``.

    c(arg) = (a u; base)_inf (b u; base)_inf / (u^2; base)_inf with u = q^arg
    = exp(arg ln q) and (a, b, base) = ``asc_params`` (a and b carry the
    exponents n - m + 1 + L - Lp and N - 1 + L + Lp), its three products run
    by ``asc._c_products``, the kernel of the band weight
    ``asc.continuous_weight`` = 1/|c(i nu)|^2 under e^(i theta) = q^(i nu).
    The check ``density_identity`` reads c where Harish-Chandra defines it,
    in the eigenfunctions' large-j behaviour.  A denominator that is exactly
    0, from a vanishing factor (q^(2 arg) on q^(-2 Z+)), raises ValueError;
    a tiny one, such as (q; q^2)_inf ~ e^-822 at q = 0.999, does not.
    """
    pp = asc_params(params, sector)
    arg = np.asarray(arg)
    u = np.exp(arg.astype(_CLD) * np.log(params.q_ld))
    num_a, num_b, den = _c_products(u, pp)
    vanishing = den == 0
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
    """The eigenvalue map at the measure's ``z``, the cos(theta) of its nodes
    where the profiles run, and at its mass points, as (continuous, discrete)."""
    return (eigenvalue(params, measure.z),
            eigenvalue(params, np.array([d.z for d in measure.discrete])))


@dataclass(frozen=True)
class SpectralFunction:
    """A function of the spectral variable sampled on a measure's node set:
    ``clongdouble`` values at its theta nodes and at its mass points."""

    measure: SpectralMeasure
    continuous: np.ndarray
    discrete: np.ndarray

    def __post_init__(self):
        if len(self.continuous) != len(self.measure.theta_nodes):
            raise ValueError(
                f"inconsistent sampling grid: {len(self.continuous)} values on "
                f"{len(self.measure.theta_nodes)} nodes")
        if len(self.discrete) != len(self.measure.discrete):
            raise ValueError(
                f"inconsistent discrete sampling: {len(self.discrete)} values "
                f"for {len(self.measure.discrete)} mass points")


def _matmul(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ V for a ``longdouble`` matrix M and a matrix V of columns, run by
    ``np.dot``.  A complex V runs as two real products, M V.real and
    M V.imag: the sums of M cast to complex, in the same order, without the
    cast copy of M.  A real V gives a real result.

    For ``longdouble``, ``np.dot`` runs the dtype's dot loop on the operands
    as they are strided; it adds the same rounded products in the same index
    order from +0 as ``@``'s no-BLAS matmul loop, so it gives the same
    values and zero signs, but keeps the running sum in a register where
    ``@`` loads and stores it in the output on every term: 2.4-3x faster on
    the plan's shapes.  Every column has the bits of M times that column
    alone."""
    if not np.iscomplexobj(V):
        return np.dot(M, V)
    out = np.empty((len(M), V.shape[1]), dtype=np.result_type(M, V))
    out.real = np.dot(M, V.real)
    out.imag = np.dot(M, V.imag)
    return out


class _TransformPlan:
    """Profile matrix of one measure's family at depth ``max_j``, with
    :func:`eigenfunction_profile`'s bits: ``cont``, the plan's own array,
    is the measure's band table times its scale vector, and ``disc`` the
    measure's read-only mass-point profile rows, a view
    (``SpectralMeasure._profiles``).  A (params, sector) of another family
    raises ValueError before any table is built.

    A call transforms a list of functions in one matrix product per part
    (band and mass points), each function one column of the right-hand
    side.  A forward reads the leading columns, to its deepest function's
    depth, and forms the lattice masses there.  Those columns carry the bits
    of a build at that depth (profile column j depends on no later column),
    and the products, ``np.dot``'s ``longdouble`` dot loop through
    :func:`_matmul`, sum in index order from +0 whatever the strides, so
    every value equals a fresh build's for that function alone: a zero
    coefficient past a shallower function's depth leaves the sum unchanged.
    A function deeper than the plan raises ValueError.
    """

    def __init__(self, params: ModelParams, sector: Sector,
                 measure: SpectralMeasure, max_j: int):
        pp = asc_params(params, sector)
        if pp != measure.params:
            raise ValueError("the sector's Al-Salam-Chihara family is not the measure's")
        self.params, self.sector = params, sector
        self.measure = measure
        self.max_j = max_j
        band, scale, self.disc = measure._profiles(max_j)
        self.cont = (band * scale[:, None]).T

    def forward(self, fs: Sequence[Mapping[int, complex]]):
        """Forward transforms of the functions of ``fs`` on the measure's full
        node set, as (cont, disc): C-contiguous ``clongdouble`` arrays of
        the values at the nodes and at the mass points, one row per
        function."""
        J = max((max(f, default=0) for f in fs), default=0)
        if J > self.max_j:
            raise ValueError(f"depth {J} exceeds the transform plan's "
                             f"depth {self.max_j}")
        coeffs = np.array([[f.get(j, 0) for j in range(J + 1)] for f in fs],
                          dtype=_CLD).reshape(len(fs), J + 1)
        weighted = (coeffs * measure_mass(self.params, self.sector, np.arange(J + 1))).T
        return (np.ascontiguousarray(_matmul(self.cont[:, :J + 1], weighted).T),
                np.ascontiguousarray(_matmul(self.disc[:, :J + 1], weighted).T))

    def inverse(self, cont: np.ndarray, disc: np.ndarray) -> list:
        """Inverse transforms of the spectral functions given by their values
        at the nodes and at the mass points, one row each of ``cont`` and
        ``disc``, each on all lattice indices 0..max_j at once."""
        nodes, masses = self.measure.weights()
        vals = _matmul(self.cont.T, (nodes * cont).T)
        if len(masses):
            vals = vals + _matmul(self.disc.T, (masses * disc).T)
        return [LatticeFunction._from_items(enumerate(col)) for col in vals.T]


def transform_grid(params: ModelParams, sector: Sector, f: Mapping[int, complex],
                   measure: SpectralMeasure) -> SpectralFunction:
    """Forward transform sampled on a Plancherel measure's full node set."""
    plan = _TransformPlan(params, sector, measure, max(f, default=0))
    [cont], [disc] = plan.forward([f])
    return SpectralFunction(measure=measure, continuous=cont, discrete=disc)


def inverse_transform_profile(params: ModelParams, sector: Sector,
                              fhat: SpectralFunction, max_j: int) -> LatticeFunction:
    """Inverse transform on all lattice indices 0..max_j at once, on a plan
    of its own at ``max_j``, which reads the measure's tables."""
    plan = _TransformPlan(params, sector, fhat.measure, max_j)
    # a hand-built spectral function may hold a sequence of values
    [rec] = plan.inverse(np.asarray(fhat.continuous)[None],
                         np.asarray(fhat.discrete)[None])
    return rec


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
