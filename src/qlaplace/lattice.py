"""Model parameters, isotypic labels, and the weighted lattice Hilbert space.

The underlying lattice is x = q^(-2j), j = 0, 1, 2, ...; functions on it are
finitely supported maps j -> value.  Each sector (L, Lp) carries a weight,
a positive normalized point-mass measure, the associated inner product, the
indicator basis f_j and its orthonormal rescaling e_j, and the closed-form
pairing of dressed (highest-weight) vectors labelled by a quadruple
(k, l, kp, lp) with k + lp = l + kp.

Lattice weights grow like q^(-2j(N-1+L+Lp)) and overflow IEEE doubles near
j ~ 60 for small q, so this module computes in numpy's extended-precision
``longdouble`` (80-bit on x86-64; ~18 significant digits, range ~1e4932).

:func:`sector_weight`, :func:`measure_mass` and :func:`indicator_norm_sq`
take an integer index or an integer index array; each array entry has the
bits of the scalar call at its index.  :func:`inner_product` pairs a list
of (f, g) in one call: its masses come from one :func:`measure_mass` call
on the sorted union of the supports, and each pair sums in its own index
order, so every value keeps the bits of that pair's per-index sum.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .qcore import jackson_integral, qpoch

__all__ = [
    "ModelParams",
    "Quadruple",
    "Sector",
    "LatticeFunction",
    "sector_weight",
    "measure_mass",
    "inner_product",
    "indicator_norm_sq",
    "orthonormal_basis",
    "invariant_integral_normalizer",
    "hwv_pairing_constant",
    "hwv_inner_product",
]

_LD = np.longdouble


@dataclass(frozen=True)
class ModelParams:
    """Global deformation and rank parameters: q in (0,1), n >= 1, m >= 2.

    Desk-scale validation targets moderate q; values above ~0.95 are outside
    the supported regime (operator coefficients scale like 1/(1-q^2) and
    truncations converge slowly).
    """

    q: float
    n: int
    m: int

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m}")

    @property
    def N(self) -> int:
        return self.n + self.m

    @cached_property
    def q_ld(self) -> np.longdouble:
        """q as an extended-precision scalar, built on first access."""
        return _LD(self.q)


@dataclass(frozen=True)
class Sector:
    """Pair of nonnegative labels (L, Lp) indexing one operator block."""

    L: int
    Lp: int

    def __post_init__(self):
        if self.L < 0 or self.Lp < 0:
            raise ValueError(f"sector labels must be nonnegative, got {self}")

    @property
    def realizable(self) -> bool:
        """True iff some quadruple (k, l, kp, lp) reduces to this sector."""
        return (self.L - self.Lp) % 2 == 0

    def a_quadruple(self) -> "Quadruple":
        """Some quadruple reducing to this sector (parity permitting)."""
        if not self.realizable:
            raise ValueError(f"{self} has odd L - Lp; no quadruple reduces to it")
        d = (self.L - self.Lp) // 2
        if d >= 0:
            return Quadruple(d, self.L - d, 0, self.Lp)
        return Quadruple(0, self.L, -d, self.Lp + d)


@dataclass(frozen=True)
class Quadruple:
    """Isotypic label (k, l, kp, lp) with the constraint k + lp = l + kp."""

    k: int
    l: int
    kp: int
    lp: int

    def __post_init__(self):
        if min(self.k, self.l, self.kp, self.lp) < 0:
            raise ValueError(f"quadruple entries must be nonnegative, got {self}")
        if self.k + self.lp != self.l + self.kp:
            raise ValueError(
                f"quadruple must satisfy k + lp = l + kp, got {self}")

    @property
    def L(self) -> int:
        return self.k + self.l

    @property
    def Lp(self) -> int:
        return self.kp + self.lp

    @property
    def s(self) -> int:
        """The common value k + lp = l + kp = (L + Lp)/2."""
        return self.k + self.lp

    def sector(self) -> Sector:
        return Sector(self.L, self.Lp)


def _index(j) -> int:
    """The lattice index ``j`` as a Python int; ValueError unless it is an
    integer >= 0."""
    jj = int(j)
    if jj != j or jj < 0:
        raise ValueError(f"lattice index must be an integer >= 0, got {j!r}")
    return jj


class LatticeFunction(Mapping):
    """Finitely supported function on the lattice index set j in Z+.

    Immutable; behaves as a ``Mapping[int, value]`` whose missing entries
    read as zero.  Addition, subtraction and scalar multiplication are
    pointwise.  Exact zeros are dropped at construction so equality is
    pointwise on the union of supports.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] = ()):
        clean = {}
        for j, v in dict(coeffs).items():
            jj = _index(j)
            if v != 0:
                clean[jj] = v
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _from_items(cls, items) -> "LatticeFunction":
        """The function of the (index, value) pairs ``items``, whose indices
        the library made: Python ints >= 0, each once.  Exact zeros are
        dropped as by the constructor; the indices are not checked again."""
        self = object.__new__(cls)
        object.__setattr__(self, "_coeffs", {j: v for j, v in items if v != 0})
        return self

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("LatticeFunction is immutable")

    @classmethod
    def basis(cls, j: int) -> "LatticeFunction":
        """The indicator f_j of the lattice point x = q^(-2j)."""
        return cls._from_items([(_index(j), 1.0)])

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def __getitem__(self, j: int):
        return self._coeffs[j]

    def get(self, j: int, default=0.0):
        return self._coeffs.get(j, default)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        inside = ", ".join(f"{j}: {self._coeffs[j]!r}" for j in self.support)
        return f"LatticeFunction({{{inside}}})"

    def __add__(self, other: "LatticeFunction") -> "LatticeFunction":
        out = dict(self._coeffs)
        for j, v in other.items():
            out[j] = out.get(j, 0.0) + v
        return LatticeFunction(out)

    def __sub__(self, other: "LatticeFunction") -> "LatticeFunction":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "LatticeFunction":
        return LatticeFunction({j: scalar * v for j, v in self._coeffs.items()})

    __rmul__ = __mul__

    def to_json(self) -> dict:
        """Serialize as {"support": [...], "values": [[re, im], ...]}."""
        sup = self.support
        return {
            "support": list(sup),
            "values": [[float(np.real(self._coeffs[j])),
                        float(np.imag(self._coeffs[j]))] for j in sup],
        }

    @classmethod
    def from_json(cls, obj) -> "LatticeFunction":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"lattice function JSON must be an object, got {type(obj).__name__}")
        sup = obj.get("support")
        vals = obj.get("values")
        if not isinstance(sup, list) or not isinstance(vals, list):
            raise ValueError("lattice function JSON needs 'support' and 'values' lists")
        if len(sup) != len(vals):
            raise ValueError("'support' and 'values' have different lengths")
        for pair in vals:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"'values' entries must be [re, im] pairs, got {pair!r}")
        coeffs = {}
        try:  # a non-numeric value, an unhashable or infinite index
            for j, (re, im) in zip(sup, vals):
                if isinstance(j, bool):  # True would pass as the index 1
                    raise ValueError(f"support index {j!r} is not an integer")
                if j in coeffs:
                    raise ValueError(f"support index {j!r} is repeated")
                v = complex(re, im)
                if not cmath.isfinite(v):
                    raise ValueError(f"value at support index {j!r} is not finite: {v}")
                coeffs[j] = v.real if v.imag == 0 else v
            return cls(coeffs)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"bad lattice function entry: {exc}") from None


def sector_weight(params: ModelParams, sector: Sector, j):
    """Weight of the sector measure at x = q^(-2j), before normalization.

    Equals x^(Lp+m-1) * (q^(-2) x; q^(-2))_{L+n-1}; its sign is
    (-1)^(L+n-1) for every j.  An integer array ``j`` gives the weights
    elementwise.
    """
    q = params.q_ld
    e = _LD(-2 * j)
    return _weight(params, sector, q, e, q ** e, q ** _LD(-2))


def _weight(params: ModelParams, sector: Sector, q, e, x, step):
    """:func:`sector_weight` at e = -2j, from x = q^e and step = q^(-2)."""
    return x ** _LD(sector.Lp + params.m - 1) * qpoch(
        q ** (e - 2), step, sector.L + params.n - 1)


def measure_mass(params: ModelParams, sector: Sector, j):
    """Normalized point mass at lattice index j; positive, with mass(0) = 1.

    The normalizer (q^(-2); q^(-2))_{L+n-1} carries the same sign as the
    weight, so the quotient is positive.  An integer array ``j`` gives the
    masses elementwise, each with the bits of the scalar call at its index:
    x = q^(-2j) is formed once per index and serves the weight and the
    trailing factor; q^(-2) and the normalizer are formed once per call.
    """
    q = params.q_ld
    e = _LD(-2 * j)
    x = q ** e
    step = q ** _LD(-2)
    return _weight(params, sector, q, e, x, step) * x \
        / qpoch(step, step, sector.L + params.n - 1)


def inner_product(params: ModelParams, sector: Sector, pairs) -> list:
    """The sesquilinear pairing sum_j conj(g(j)) f(j) mass(j) of each (f, g)
    of ``pairs``, one value per pair.

    Conjugate-linear in ``g``; positive definite on nonzero functions.  The
    masses come from one :func:`measure_mass` call on the sorted union of
    every pair's support, and each pair's sum runs in its own index order.
    """
    pairs = [(f, g, sorted(set(f) | set(g))) for f, g in pairs]
    idx = sorted(set().union(*(js for *_, js in pairs)))
    mass = dict(zip(idx, measure_mass(params, sector, np.array(idx, dtype=int))))
    out = []
    for f, g, js in pairs:
        total = params.q_ld * 0
        for j in js:
            total = total + np.conjugate(g.get(j, 0.0)) * f.get(j, 0.0) * mass[j]
        out.append(total)
    return out


def indicator_norm_sq(params: ModelParams, sector: Sector, j):
    """Closed form for the squared norm of the indicator f_j.

    Equals q^(-2j(N-1+L+Lp)) (q^(2j+2); q^2)_{L+n-1} / (q^2; q^2)_{L+n-1},
    an independent rewriting of the point mass at j.  An integer array ``j``
    gives the norms elementwise, each with the bits of the scalar call at
    its index.
    """
    q = params.q_ld
    p = q * q
    g = sector.L + params.n - 1
    return q ** _LD(-2 * j * (params.N - 1 + sector.L + sector.Lp)) \
        * qpoch(q ** _LD(2 * j + 2), p, g) / qpoch(p, p, g)


def orthonormal_basis(params: ModelParams, sector: Sector, j: int) -> LatticeFunction:
    """The unit-norm multiple e_j = f_j / ||f_j|| of the indicator."""
    j = _index(j)
    return LatticeFunction._from_items(
        [(j, 1.0 / np.sqrt(indicator_norm_sq(params, sector, j)))])


def invariant_integral_normalizer(params: ModelParams):
    """Positive normalizer of the invariant integral: q^(-m(m-1)) (q^2;q^2)_{m-1}.

    Pinned by requiring unit mass for the base-point indicator f_0; equals
    the absolute value (-1)^(m-1) (q^(-2); q^(-2))_{m-1}.
    """
    q = params.q_ld
    m = params.m
    return q ** _LD(-m * (m - 1)) * qpoch(q * q, q * q, m - 1)


def hwv_pairing_constant(params: ModelParams, quad: Quadruple):
    """Prefactor of the dressed-vector pairing for the quadruple (k,l,kp,lp).

    The pairing of two vectors dressed by the monomial frame of the quadruple
    is this constant times the Jackson integral of conj(psi)*phi against the
    sector weight.  Its sign is (-1)^(L+n-1), matching the weight's sign, so
    the pairing of a nonzero function with itself is positive.
    """
    q = params.q_ld
    p = q * q
    pinv = q ** _LD(-2)
    n, m = params.n, params.m
    k, l, kp, lp = quad.k, quad.l, quad.kp, quad.lp
    c = (-1) ** (k + l) * q ** _LD(m * (m - 1) + 2 * (kp + lp) * (m - 1) - 2 * l * m)
    c = c * invariant_integral_normalizer(params)
    c = c * qpoch(p, p, kp) * qpoch(p, p, lp) / qpoch(p, p, kp + lp + m - 1)
    c = c * qpoch(pinv, pinv, k) * qpoch(pinv, pinv, l) \
        / qpoch(pinv, pinv, k + l + n - 1)
    return c


def hwv_inner_product(params: ModelParams, quad: Quadruple,
                      phi: Mapping[int, complex], psi: Mapping[int, complex]):
    """Closed-form pairing of dressed vectors built from phi and psi.

    Returns C(k,l,kp,lp) * integral of conj(psi) phi against the sector
    weight; positive for phi = psi != 0.
    """
    sector = quad.sector()
    weighted = {
        j: np.conjugate(psi.get(j, 0.0)) * phi.get(j, 0.0)
        * sector_weight(params, sector, j)
        for j in sorted(set(phi) | set(psi))
    }
    return hwv_pairing_constant(params, quad) * jackson_integral(weighted, params.q_ld)
