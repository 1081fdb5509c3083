"""Self-verification battery: every structural identity of the library run
as a named check with a measured residual against a pinned threshold.

Each check returns a :class:`CheckResult`.  Checks that do not apply to the
requested configuration (a sector no quadruple reduces to, the n = 1 trace
exclusion, a degenerate mass point on the band edge) are reported as skipped,
not failed; a check that raises any other exception is reported as failed,
with the exception named in its note.  Every check reduces its comparisons
through :func:`_worst`, so a NaN or infinite comparison fails its check with a
``FloatingPointError`` note instead of vanishing from the residual; a numpy
overflow, division by zero or invalid operation inside a check fails it the
same way instead of printing a warning.  A check whose values sit in arrays
forms its comparisons as one array, elementwise with the bits of the
per-value formula, and ``_worst`` reduces it in one pass; the identity
checks compare their sides as two arrays.  The eigenvalue, symmetry and
multiplication checks read one three-term table formed on their own rows,
and the trace check its closed forms on the oracle's grid of quadruples
and pairs.

Every check that draws takes its draws from one ``Lcg`` block.  The
transform checks (``parseval``, ``multiplication_operator``,
``transform_roundtrip``, ``transform_of_base_indicator``) run on arrays
from the draw to the residual: coefficient rows into the transforms' row
functions ``spectral._forward_rows`` and ``_inverse_rows``, each on the
check's own measure, value rows into the pairing core
``lattice._pair_rows``, each with the bits of the per-function calls on
lattice functions; ``difference_duality`` forms its quotients on rows by
the formula of ``qcore.bminus`` and ``qcore.bplus``; ``sector_independence``
passes its value rows to the divergence form's row core
``laplace._divergence_form``, once per quadruple.  ``cross_form_agreement``
keeps its public operator calls, so both lattice actions' adapters stay on
the traced path, and ``asc_consistency`` ``math.acos`` per drawn value,
whose bits ``np.arccos`` does not keep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import asc, fockoracle, laplace, lattice, spectral
from ._rng import Lcg
from .asc import DegenerateParameterError
from .lattice import LatticeFunction, Quadruple
from .qcore import LD_INF_TOL, _quotient

__all__ = ["CheckResult", "run_battery", "BATTERY"]

_LD = np.longdouble

#: lattice indices 0..LATTICE_DEPTH that the eigenvalue, symmetry, norm and
#: orthonormality checks compare
LATTICE_DEPTH = 30


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float | None
    threshold: float
    passed: bool
    skipped: bool = False
    note: str = ""


def _worst(errors) -> float:
    """The largest per-comparison error as a ``float``, 0.0 when there is none.

    ``errors`` is an array, reduced in one pass (flattened in C order), or an
    iterable of numbers.  Each error is read as a double, so one past the
    double range reads inf.  A NaN or infinite error raises
    ``FloatingPointError`` naming its index, which :func:`run_battery`
    reports as a failed check: ``max`` drops a NaN (``max(0.0, nan)`` is
    0.0) and would pass a comparison never made.
    """
    with np.errstate(over="ignore"):  # a longdouble past double range is inf
        if isinstance(errors, np.ndarray):
            errors = errors.astype(float, copy=False).ravel()
        else:
            errors = np.fromiter(errors, float)
    finite = np.isfinite(errors)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FloatingPointError(f"comparison {i} has error {errors[i]}")
    # + 0.0 turns a largest error of -0.0 into the 0.0 of no comparison
    return float(errors.max(initial=0.0)) + 0.0


def _rel(a, b):
    """|a - b| / max(1, |b|), elementwise on arrays, in the type of a and b."""
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def _support_gaps(a, b, scale: float):
    """|a_j - b_j| / scale for each j in the union of the two supports."""
    return (float(abs(a.get(j, 0.0) - b.get(j, 0.0))) / scale for j in set(a) | set(b))


def check_eigenvalue_residual(params, sector, cfg) -> float:
    J = LATTICE_DEPTH
    z = [math.cos(t) for t in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)]
    z += [spectral.point_from_exponent(params, ell) for ell in (1, 2, 3)]
    masses = asc.mass_points(spectral.asc_params(params, sector), strict=False)
    lams = laplace.eigenvalue(params, np.array(z + [d.z for d in masses]))
    cont, disc = spectral.eigenfunction_profile(params, sector, np.array(z, dtype=_LD),
                                                masses, J + 1)
    profs = np.concatenate([cont, disc])
    # the action at 1..J, from each profile's values at 0..J+1
    action = laplace._three_term(params, sector, profs, 1, J + 1)
    # carries |lambda| as the gap's rounding does; passes 1e308 at small q
    scale = np.maximum(_LD(1), np.abs(lams)) * np.max(np.abs(profs[:, :J + 1]), axis=1)
    return _worst(np.abs(action - lams[:, None] * profs[:, 1:J + 1]) / scale[:, None])


def check_cross_form(params, sector, cfg) -> float:
    quad = sector.a_quadruple()
    fs = Lcg(cfg.seed + 101).lattice_functions(5, 10)
    errors = []
    for a1, a2 in zip(laplace.apply_three_term(params, sector, fs),
                      laplace.apply_divergence_form(params, quad, fs)):
        scale = max(1.0, max(abs(v) for v in a1.values()))
        errors += _support_gaps(a1, a2, scale)
    return _worst(errors)


def check_sector_independence(params, sector, cfg) -> float:
    # a representative sector with several quadruples reducing to it; each
    # drawn function's action on its output range 0..8, from its values at
    # 0..9, through the divergence form's row core
    quads = [Quadruple(1, 1, 1, 1), Quadruple(2, 0, 2, 0), Quadruple(0, 2, 0, 2)]
    rows = np.zeros((3, 10), dtype=np.clongdouble)
    rows[:, :8] = Lcg(cfg.seed + 202).coefficients(3, 8)
    first, *others = (laplace._divergence_form(params, qd, rows, 0, 9) for qd in quads)
    # one scale per function, which may pass 1e308; each gap is rounded to a
    # double before the division, as _support_gaps rounds it
    scale = np.maximum(1, np.max(np.abs(first), axis=1))
    with np.errstate(over="ignore"):
        gaps = np.abs(np.stack(others, axis=1) - first[:, None]).astype(float)
    return _worst(gaps / scale[:, None, None])


def check_symmetry(params, sector, cfg) -> float:
    # A[j, k] = (T f_j)(k) on 0..J from the basis rows (values at -1..J+1);
    # <T f_j, f_k> = A[j, k] m_k against <f_j, T f_k> = A[k, j] m_j, |j - k| <= 1
    J = LATTICE_DEPTH
    table = laplace._three_term(params, sector, np.eye(J + 1, J + 3, 1, dtype=_LD), 0, J + 1)
    mass = lattice.measure_mass(params, sector, np.arange(J + 1))
    j, k = np.array([(i, t) for i in range(J + 1) for t in (i - 1, i, i + 1)
                     if 0 <= t <= J]).T
    lhs, rhs = table[j, k] * mass[k], table[k, j] * mass[j]
    return _worst(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))


def check_norm_identity(params, sector, cfg) -> float:
    j = np.arange(LATTICE_DEPTH + 1)
    masses = lattice.measure_mass(params, sector, j)
    norms = np.abs(lattice.indicator_norm_sq(params, sector, j))
    # relative in extended precision, also where |norm| passes the double range
    return _worst(np.abs(masses - norms) / norms)


def check_basis_orthonormality(params, sector, cfg) -> float:
    # one scalar norm per index: a norm past the longdouble range fails with
    # numpy's scalar-power note, as the transform check's basis does
    basis = [lattice.orthonormal_basis(params, sector, j)
             for j in range(LATTICE_DEPTH + 1)]
    values = lattice.inner_product(params, sector, [(e, e) for e in basis])
    return _worst(np.abs(np.array(values) - 1))


def check_asc_consistency(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    # both paths at one point: z = cos(theta) of the drawn angle; compared in
    # extended precision, where Q_15 of a mass-laden sector (a^15 ~ 1e535 at
    # a = 3.6e35) still fits.  math.acos per value: np.arccos rounds otherwise
    theta = np.array([math.acos(0.999 * s)
                      for s in Lcg(cfg.seed + 303).symmetric_block(50).tolist()])
    hyp = np.real(asc.asc_hypergeometric(15, theta, pp))
    ref = asc.asc_recurrence(15, np.cos(theta.astype(_LD)), pp).T
    return _worst(np.abs(hyp - ref) / np.maximum(1, np.abs(ref)))


def check_asc_orthogonality(params, sector, cfg) -> float:
    pp = spectral.asc_params(params, sector)
    return _worst(asc.orthogonality_residual(4, pp, cfg.quad_nodes).values())


def check_density_identity(params, sector, cfg) -> float:
    # Darboux's method on the polynomials' generating function (KLS 14.8;
    # Ismail 2005): Q_K(cos theta) (base^(K+1); base)_inf
    # = 2 Re[e^(i K theta) c(-i nu)] + O(base^K |a b|), e^(i theta) = q^(i nu),
    # the error term being the next poles' share at t = e^(-+i theta)/base.
    # K makes base^K max(1, |a|) max(1, |b|) < LD_INF_TOL base^20, which also
    # puts K past every mass point, and (base^(K+1); base)_inf rounds to 1
    # there, so it is left out.  Q_K comes from the recurrence, not the weight.
    pp = spectral.asc_params(params, sector)
    size = np.log(np.maximum(1, np.abs(pp.a))) + np.log(np.maximum(1, np.abs(pp.b)))
    # the base's log in extended precision: in double, one below 1e-308 is 0
    K = math.ceil((math.log(LD_INF_TOL) - float(size)) / float(np.log(pp.base))) + 20
    thetas = np.linspace(0.0, math.pi, 42)[1:-1].astype(_LD)
    c = spectral.c_function(params, sector, -1j * (thetas / np.log(params.q_ld)))
    lhs = asc.asc_recurrence(K, np.cos(thetas), pp)[K]
    rhs = 2 * np.real(asc._w_from_theta(K * thetas) * c)
    return _worst((np.abs(lhs - rhs) / np.abs(c)).astype(float))


def check_plancherel_mass(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    return _worst([float(abs(meas.total_mass() - 1.0))])


def check_transform_of_base_indicator(params, sector, cfg) -> float:
    # e_0 transforms to 1, and each e_j to the orthonormal polynomial of the
    # Plancherel measure p_j = Q_j sqrt(h_j / h_0), h_j / h_0 = 1 / ((base;
    # base)_j (ab; base)_j), at every node and mass point: the lattice masses
    # against the polynomials' norms.  Q_j comes from the measure's
    # polynomials at its z and its mass points, whose tables leave the
    # measure the profile the forward reads, so each kernel runs once.
    J = 12
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    band, masses = meas._polynomials(J, hold=True)
    pp = meas.params
    pw = np.cumprod(np.r_[_LD(1), np.full(J, pp.base)])  # base^j
    # (base; base)_j and (ab; base)_j, j = 0..J, each a running product
    norm = np.sqrt(1 / (np.cumprod(np.r_[1, 1 - pw[1:]])
                        * np.cumprod(np.r_[1, 1 - pp.a * pp.b * pw[:-1]])))
    # row j: e_j's one value at j, its norm from one scalar call (see
    # basis_orthonormality)
    basis = np.diag([lattice.orthonormal_basis(params, sector, j).get(j, 0.0)
                     for j in range(J + 1)])
    got = np.concatenate(spectral._forward_rows(params, sector, meas, basis), axis=1)
    # row j: degree j at every node, then at every mass point
    want = norm[:, None] * np.concatenate([band, masses.T], axis=1)
    return _worst(np.abs(got - want) / np.maximum(1, np.abs(want)))


def check_parseval(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    fs = Lcg(cfg.seed + 404).coefficients(10, 15)
    cont, disc = spectral._forward_rows(params, sector, meas, fs)
    pars = meas.integrate(np.abs(cont) ** 2, np.abs(disc) ** 2)
    [nrms] = lattice._pair_rows(params, sector, np.arange(15), [(fs, fs)])
    return _worst(np.abs(pars - nrms) / np.abs(nrms))


def check_multiplication(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    lam_cont, lam_disc = spectral.measure_eigenvalues(params, meas)
    # the values of each f at -1..13, whose action reaches 0..12
    rows = np.zeros((5, 15), dtype=np.clongdouble)
    rows[:, 1:13] = Lcg(cfg.seed + 505).coefficients(5, 12)
    action = laplace._three_term(params, sector, rows, 0, 13)
    cont, disc = spectral._forward_rows(params, sector, meas,
                                        np.concatenate([rows[:, 1:-1], action]))
    lam_fhat = lam_cont * cont[:5]
    # one scale per function, which may pass 1e308
    scale = np.array([max(_LD(1), top) for top in np.max(np.abs(lam_fhat), axis=1)])
    gaps = np.concatenate([cont[5:] - lam_fhat, disc[5:] - lam_disc * disc[:5]], axis=1)
    return _worst(np.abs(gaps) / scale[:, None])


def check_roundtrip(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    meas._profile(16)  # at the inverse's depth, so the forward builds none
    fs = np.zeros((5, 17), dtype=complex)
    fs[:, :15] = Lcg(cfg.seed + 606).coefficients(5, 15)
    fhat = spectral._forward_rows(params, sector, meas, fs[:, :15])
    err = spectral._inverse_rows(params, sector, meas, *fhat, 16) - fs
    num, den = lattice._pair_rows(params, sector, np.arange(17), [(err, err), (fs, fs)])
    return _worst(np.sqrt(np.abs(num) / np.abs(den)))


def check_spectrum_containment(params, sector, cfg) -> float:
    # the matrix first: past double range its refusal names the coefficients
    jm = laplace.jacobi_matrix(params, sector, CONTAINMENT_SIZE)
    spec = spectral.spectrum(params, sector)
    # inertia counts: when every eigenvalue lies a rounding margin inside the
    # band, the dense solve could round none out of it and each is at distance
    # 0.0; otherwise the solve measures the ones outside
    lo, hi = spec.band
    margin = CONTAINMENT_SIZE * np.finfo(float).eps * max(abs(lo), abs(hi))
    if jm.count_below(lo + margin) == 0 \
            and jm.count_below(hi - margin) == CONTAINMENT_SIZE:
        return 0.0
    return _worst([spec.containment(jm.eigenvalues())])


def oracle_error(oracle, closed_form) -> float:
    """The trace oracle's gap to the closed-form pairing, relative to
    |closed_form|, or |oracle| where the closed form is 0: the comparison of
    ``trace_oracle_agreement`` and of the ``oracle`` command's ``rel_err``."""
    if closed_form == 0:
        return float(abs(oracle))
    return float(abs(oracle - closed_form) / abs(closed_form))


def check_oracle(params, sector, cfg) -> float:
    f0, f1 = LatticeFunction.basis(0), LatticeFunction.basis(1)
    f01 = f0 + f1
    quads = [Quadruple(0, 0, 0, 0), Quadruple(1, 0, 1, 0), Quadruple(0, 1, 0, 1),
             Quadruple(1, 1, 1, 1)]
    pairs = ((f0, f0), (f1, f1), (f01, f01), (f01, f0))
    oracle = fockoracle.invariant_integral(params, quads, pairs)
    closed = lattice.hwv_inner_product(params, quads, pairs)
    return _worst(oracle_error(o, c) for orow, crow in zip(oracle, closed)
                  for o, c in zip(orow, crow))


def _identity_residual(sides) -> float:
    """Worst relative gap over the (lhs, rhs) pairs of ``sides``, each
    |lhs - rhs| / max(1, |rhs|) in the sides' own type."""
    return _worst(_rel(*np.array(sides).reshape(-1, 2).T))


def check_identity_negative_block(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.negative_block_sum(
        params.q, itertools.product((2, 3), range(4), range(4), range(4))))


def check_identity_positive_block(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.positive_block_sum(
        params.q, itertools.product((2, 3), range(4), range(4))))


def check_identity_qbinomial(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.qbinomial_convolution(
        params.q, itertools.product(range(5), range(5), range(5))))


def check_identity_geometric(params, sector, cfg) -> float:
    return _identity_residual(fockoracle.pochhammer_geometric_sum(
        params.q, itertools.product(range(4), range(1, 4))))


def check_difference_duality(params, sector, cfg) -> float:
    # sum_j u(j) (B- v)(j) x_j = -q^2 sum_j (B+ u)(j) v(j) x_j on the window
    # j = -6..11, x_j = q^(-2j), for u and v drawn on -3..4: a row per draw
    # of the values at -7..12 (the quotients at the window's ends read
    # zeros), each quotient by the formula of bminus and bplus, and each sum
    # from +0 in index order
    q = params.q_ld
    draws = Lcg(cfg.seed + 707).symmetric_block(80).reshape(5, 2, 8)  # u's, then v's
    u, v = np.zeros((2, 5, 20))
    u[:, 4:12], v[:, 4:12] = draws[:, 0], draws[:, 1]
    x = q ** _LD(-2 * np.arange(-6, 12))
    here_u, here_v = u[:, 1:-1], v[:, 1:-1]
    lhs = lattice._sum_in_order(here_u * _quotient(v[:, 2:], here_v, x, q**-2) * x) \
        * (q ** _LD(-2) - 1)
    rhs = -q * q * lattice._sum_in_order(
        _quotient(u[:, :-2], here_u, x, q**2) * here_v * x) * (q ** _LD(-2) - 1)
    return _worst(_rel(lhs, rhs))


#: also the bound of the ``qlaplace spectrum`` report's ``converged`` flag
CONTAINMENT_THRESHOLD = 1e-6
#: Jacobi truncation size of the check, also ``qlaplace spectrum``'s default
CONTAINMENT_SIZE = 400

#: (name, function, threshold, requires) with requires in
#: {"", "quadruple", "oracle"}
BATTERY = [
    ("eigenvalue_residual", check_eigenvalue_residual, 1e-10, ""),
    ("cross_form_agreement", check_cross_form, 1e-10, "quadruple"),
    ("sector_independence", check_sector_independence, 1e-11, ""),
    ("operator_symmetry", check_symmetry, 1e-12, ""),
    ("norm_closed_form", check_norm_identity, 1e-12, ""),
    ("basis_orthonormality", check_basis_orthonormality, 1e-12, ""),
    ("asc_consistency", check_asc_consistency, 1e-10, ""),
    ("asc_orthogonality", check_asc_orthogonality, 1e-8, ""),
    ("density_identity", check_density_identity, 1e-10, ""),
    ("plancherel_mass", check_plancherel_mass, 1e-10, ""),
    ("transform_of_base_indicator", check_transform_of_base_indicator, 1e-12, ""),
    ("parseval", check_parseval, 1e-8, ""),
    ("multiplication_operator", check_multiplication, 1e-9, ""),
    ("transform_roundtrip", check_roundtrip, 1e-8, ""),
    ("spectrum_containment", check_spectrum_containment, CONTAINMENT_THRESHOLD, ""),
    ("trace_oracle_agreement", check_oracle, 1e-9, "oracle"),
    ("identity_negative_block", check_identity_negative_block, 1e-12, ""),
    ("identity_positive_block", check_identity_positive_block, 1e-12, ""),
    ("identity_qbinomial_convolution", check_identity_qbinomial, 1e-12, ""),
    ("identity_geometric_sum", check_identity_geometric, 1e-12, ""),
    ("difference_duality", check_difference_duality, 1e-12, ""),
]


def run_battery(cfg) -> list[CheckResult]:
    """Run every applicable check at the configuration's parameters."""
    params, sector = cfg.params(), cfg.sector()
    results = []
    for name, fn, threshold, requires in BATTERY:
        if requires == "quadruple" and not sector.realizable:
            results.append(CheckResult(name, None, threshold, True, True,
                                       "sector not realizable by a quadruple"))
            continue
        if requires == "oracle" and params.n < 2:
            results.append(CheckResult(name, None, threshold, True, True,
                                       "trace oracle requires n >= 2"))
            continue
        try:
            # an overflow, a division by zero or an invalid operation raises
            # FloatingPointError (a failed check); underflow stays silent
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                residual = fn(params, sector, cfg)
        except DegenerateParameterError as exc:
            results.append(CheckResult(name, None, threshold, True, True,
                                       f"degenerate parameters: {exc}"))
            continue
        except Exception as exc:  # a raising check fails; the report completes
            results.append(CheckResult(name, None, threshold, False,
                                       note=f"{type(exc).__name__}: {exc}"))
            continue
        results.append(CheckResult(name, float(residual), threshold,
                                   float(residual) <= threshold))
    return results
