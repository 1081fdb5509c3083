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
of (f, g) in one call of its row core ``_pair_rows``: the pairs' values are
rows over the sorted union of the supports, the masses come from one
:func:`measure_mass` call there, and each pair sums from +0 in index order
over the indices either function holds, so every value keeps the bits of
that pair's per-index sum.
"""

from __future__ import annotations

import cmath
import itertools
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

    # the dict's own views, which Mapping's would read through __getitem__
    def items(self):
        return self._coeffs.items()

    def values(self):
        return self._coeffs.values()

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
            if any(isinstance(x, bool) for x in pair):  # true would pass as 1.0
                raise ValueError(f"'values' entries must be numbers, got {pair!r}")
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
    elementwise, each with the bits of the scalar call at its index
    (:func:`_weight` forms the powers).
    """
    return _weight(params, sector, j, params.q_ld ** _LD(-2))[0]


def _weight(params: ModelParams, sector: Sector, j, step):
    """(:func:`sector_weight`, x = q^(-2j)) at an index or an integer index
    array ``j``, from step = q^(-2).

    x is formed once per index.  When ``j`` is a run j0, j0+1, ..., j1 of
    two or more indices, q^(-2j-2) = q^(-2(j+1)) is the next entry of the
    same ``powl`` array, raised one entry longer (over j0..j1+1); otherwise
    both powers are raised.  ``powl`` bits depend only on the exponent's
    value, so every entry has the bits of the scalar powers at its index
    either way, and no array spans the gaps of a sparse ``j``.
    """
    q = params.q_ld
    if isinstance(j, np.ndarray) and j.ndim == 1 and len(j) > 1 \
            and j[-1] - j[0] == len(j) - 1 and (j[1:] > j[:-1]).all():
        run = q ** _LD(-2 * np.arange(j[0], j[-1] + 2))
        x, shifted = run[:-1], run[1:]
    else:
        e = _LD(-2 * j)
        x, shifted = q ** e, q ** (e - 2)
    return x ** _LD(sector.Lp + params.m - 1) * qpoch(
        shifted, step, sector.L + params.n - 1), x


def measure_mass(params: ModelParams, sector: Sector, j):
    """Normalized point mass at lattice index j; positive, with mass(0) = 1.

    The normalizer (q^(-2); q^(-2))_{L+n-1} carries the same sign as the
    weight, so the quotient is positive.  An integer array ``j`` gives the
    masses elementwise, each with the bits of the scalar call at its index:
    x = q^(-2j) is formed once per index and serves the weight and the
    trailing factor, and q^(-2j-2) comes from the same ``powl`` array when
    ``j`` is a run (:func:`_weight`); q^(-2) and the normalizer are formed
    once per call.
    """
    step = params.q_ld ** _LD(-2)
    weight, x = _weight(params, sector, j, step)
    return weight * x / qpoch(step, step, sector.L + params.n - 1)


def inner_product(params: ModelParams, sector: Sector, pairs) -> list:
    """The sesquilinear pairing sum_j conj(g(j)) f(j) mass(j) of each (f, g)
    of ``pairs``, one value per pair.

    Conjugate-linear in ``g``; positive definite on nonzero functions.  The
    pairs run through one :func:`_pair_rows` call on the sorted union of
    every pair's support, each pair's values one row read there (missing
    entries 0), the rows grouped by the pair's common value type.  A pair
    with no support is ``longdouble`` 0.  A pair whose values mix a double
    and an extended type pairs in the extended one, where the per-index sum
    would round its double entries' products to double first.

    Each function's entries are read once, through one ``items`` view: the
    union, the types and the scatter read the flattened entries, and the
    pairs are grouped one by one only when the call holds more than one
    value type.  Each group's rows are one array, f's rows above g's,
    written by one scatter of index and value arrays.
    """
    pairs = list(pairs)
    n = len(pairs)
    views = [f.items() for f, _ in pairs] + [g.items() for _, g in pairs]
    flat = list(itertools.chain.from_iterable(views))
    idx = sorted({j for j, _ in flat})
    pos = {j: c for c, j in enumerate(idx)}
    types = {type(v) for _, v in flat}
    if len(types) > 1:
        kinds, members = {}, {}
        for i, (f, g) in enumerate(pairs):
            pair_types = frozenset(map(type, itertools.chain(f.values(), g.values())))
            if pair_types:
                if pair_types not in kinds:
                    kinds[pair_types] = np.result_type(*pair_types)
                members.setdefault(kinds[pair_types], []).append(i)
    else:  # one type, or no entry at all
        members = {np.result_type(*types): [i for i in range(n) if views[i] or views[n + i]]} \
            if types else {}
    groups = []
    for kind, numbers in members.items():
        sub = views if len(numbers) == n else [views[i] for i in numbers] \
            + [views[n + i] for i in numbers]
        entries = flat if sub is views else list(itertools.chain.from_iterable(sub))
        rows = np.zeros((len(sub), len(idx)), kind)
        rows[np.repeat(np.arange(len(sub)), list(map(len, sub))),
             np.array([pos[j] for j, _ in entries], dtype=int)] \
            = np.array([v for _, v in entries], dtype=kind)
        groups.append((rows[:len(numbers)], rows[len(numbers):]))
    out = [params.q_ld * 0] * n
    for numbers, values in zip(members.values(),
                               _pair_rows(params, sector, np.array(idx, dtype=int), groups)):
        for i, value in zip(numbers, values):
            out[i] = value
    return out


def _pair_rows(params: ModelParams, sector: Sector, idx, groups) -> list:
    """sum_j conj(g(j)) f(j) mass(j) per row pair of each (f_rows, g_rows) of
    ``groups``: one array of values per group, each group's two 2-D arrays
    of one value type, column c at the lattice index ``idx[c]``.

    Every value has the bits of the per-index sum of :func:`inner_product`
    on the two rows as lattice functions.  The masses come from one
    :func:`measure_mass` call at ``idx``.  A column where both rows hold an
    exact zero is skipped, as the functions would drop it: its term is never
    formed (an inf mass there gives no NaN and no warning) and reads +0.
    Each pair sums its terms conj(g) f mass from +0 in column order
    (:func:`_sum_in_order`); such a sum is never -0, so a +0 term leaves it
    unchanged.  A ``complex128`` product conj(g) f is written as its four
    ``float64`` products and two sums, the scalar product's formula:
    numpy's array multiply may fuse them into FMAs, which round once where
    the scalar rounds twice.  Other types multiply as arrays, whose loops
    are the scalar formula.
    """
    mass = measure_mass(params, sector, idx)
    out = []
    for f, g in groups:
        if f.dtype == np.complex128:
            gr, gi = g.real, -g.imag
            prod = np.empty_like(f)
            prod.real = gr * f.real - gi * f.imag
            prod.imag = gr * f.imag + gi * f.real
        else:
            prod = (np.conjugate(g) if np.iscomplexobj(g) else g) * f
        terms = np.zeros(f.shape, np.result_type(prod, mass))
        np.multiply(prod, mass, out=terms, where=(f != 0) | (g != 0))
        out.append(_sum_in_order(terms))
    return out


def _sum_in_order(terms):
    """Each row's sum of the 2-D array ``terms`` from +0 in column order, as
    a loop adding one term per step forms it: ``np.add.accumulate`` runs
    that loop, where ``np.sum`` adds pairwise."""
    start = np.zeros((len(terms), 1), terms.dtype)
    return np.add.accumulate(np.concatenate([start, terms], axis=1), axis=1)[:, -1]


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


def hwv_inner_product(params: ModelParams, quads, pairs) -> list:
    """Closed-form pairing of the dressed vectors of each (phi, psi) of
    ``pairs``, one row per quadruple of ``quads``, as ``invariant_integral``:
    C(k,l,kp,lp) times the Jackson integral of conj(psi) phi against the
    sector weight, positive for phi = psi != 0.  Per quadruple, C and the
    weights on the union of the supports come from one call each."""
    pairs = [(phi, psi, sorted(set(phi) | set(psi))) for phi, psi in pairs]
    idx = sorted(set().union(*(js for *_, js in pairs)))
    rows = []
    for quad in quads:
        c = hwv_pairing_constant(params, quad)
        weight = dict(zip(idx, sector_weight(params, quad.sector(),
                                             np.array(idx, dtype=int))))
        rows.append([c * jackson_integral(
            {j: np.conjugate(psi.get(j, 0.0)) * phi.get(j, 0.0) * weight[j] for j in js},
            params.q_ld) for phi, psi, js in pairs])
    return rows
