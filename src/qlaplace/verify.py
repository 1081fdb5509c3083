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
checks pass it an iterable of their relative gaps.
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
from .qcore import LD_INF_TOL, bminus, bplus

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


def _rel(a, b) -> float:
    return float(abs(a - b) / max(1.0, abs(b)))


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
    profs = [*cont, *disc]
    afs = laplace.apply_three_term(
        params, sector, [LatticeFunction({j: prof[j] for j in range(J + 2)})
                         for prof in profs])
    errors = []
    for prof, lam, af in zip(profs, lams, afs):
        # carries |lambda| as the gap's rounding does; passes 1e308 at small q
        scale = max(_LD(1), abs(lam)) * np.max(np.abs(prof[:J + 1]))
        values = np.array([af.get(j, 0.0) for j in range(1, J + 1)])
        errors.append(np.abs(values - lam * prof[1:J + 1]) / scale)
    return _worst(np.concatenate(errors))


def check_cross_form(params, sector, cfg) -> float:
    quad = sector.a_quadruple()
    rng = Lcg(cfg.seed + 101)
    fs = [rng.lattice_function(10) for _ in range(5)]
    errors = []
    for a1, a2 in zip(laplace.apply_three_term(params, sector, fs),
                      laplace.apply_divergence_form(params, quad, fs)):
        scale = max(1.0, max(abs(v) for v in a1.values()))
        errors += _support_gaps(a1, a2, scale)
    return _worst(errors)


def check_sector_independence(params, sector, cfg) -> float:
    # a representative sector with several quadruples reducing to it
    quads = [Quadruple(1, 1, 1, 1), Quadruple(2, 0, 2, 0), Quadruple(0, 2, 0, 2)]
    rng = Lcg(cfg.seed + 202)
    fs = [rng.lattice_function(8) for _ in range(3)]
    errors = []
    for outs in zip(*(laplace.apply_divergence_form(params, qd, fs) for qd in quads)):
        scale = max(1.0, max(abs(v) for v in outs[0].values()))
        for other in outs[1:]:
            errors += _support_gaps(outs[0], other, scale)
    return _worst(errors)


def check_symmetry(params, sector, cfg) -> float:
    basis = [LatticeFunction.basis(j) for j in range(LATTICE_DEPTH + 1)]
    actions = laplace.apply_three_term(params, sector, basis)
    pairs = []
    for j in range(LATTICE_DEPTH + 1):
        for k in (j - 1, j, j + 1):
            if 0 <= k <= LATTICE_DEPTH:
                pairs += [(actions[j], basis[k]), (basis[j], actions[k])]
    values = np.array(lattice.inner_product(params, sector, pairs))
    lhs, rhs = values[::2], values[1::2]
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
    rng = Lcg(cfg.seed + 303)
    # both paths at one point: z = cos(theta) of the drawn angle; compared in
    # extended precision, where Q_15 of a mass-laden sector (a^15 ~ 1e535 at
    # a = 3.6e35) still fits
    theta = np.array([math.acos(0.999 * rng.symmetric()) for _ in range(50)])
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
    K = math.ceil((math.log(LD_INF_TOL) - float(size)) / math.log(pp.base)) + 20
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
    # against the polynomials' norms.  Q_j comes from the measure, which
    # owns its z and the family's values there and at its mass points.
    J = 12
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    plan = spectral._TransformPlan(params, sector, meas, J)
    pp = meas.params
    pw = np.cumprod(np.r_[_LD(1), np.full(J, pp.base)])  # base^j
    # (base; base)_j and (ab; base)_j, j = 0..J, each a running product
    norm = np.sqrt(1 / (np.cumprod(np.r_[1, 1 - pw[1:]])
                        * np.cumprod(np.r_[1, 1 - pp.a * pp.b * pw[:-1]])))
    band, masses = meas.polynomials(J)
    got = np.concatenate(plan.forward([lattice.orthonormal_basis(params, sector, j)
                                       for j in range(J + 1)]), axis=1)
    # row j: degree j at every node, then at every mass point
    want = norm[:, None] * np.concatenate([band, masses.T], axis=1)
    return _worst(np.abs(got - want) / np.maximum(1, np.abs(want)))


def check_parseval(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    plan = spectral._TransformPlan(params, sector, meas, 14)
    rng = Lcg(cfg.seed + 404)
    fs = [rng.lattice_function(15) for _ in range(10)]
    cont, disc = plan.forward(fs)
    pars = meas.integrate(np.abs(cont) ** 2, np.abs(disc) ** 2)
    return _worst(float(abs(par - nrm) / abs(nrm)) for par, nrm in
                  zip(pars, lattice.inner_product(params, sector, [(f, f) for f in fs])))


def check_multiplication(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 505)
    lam_cont, lam_disc = spectral.measure_eigenvalues(params, meas)
    plan = spectral._TransformPlan(params, sector, meas, 12)
    fs = [rng.lattice_function(12) for _ in range(5)]
    cont, disc = plan.forward(fs + laplace.apply_three_term(params, sector, fs))
    lam_fhat = lam_cont * cont[:5]
    # one scale per function, which may pass 1e308
    scale = np.array([max(_LD(1), top) for top in np.max(np.abs(lam_fhat), axis=1)])
    gaps = np.concatenate([cont[5:] - lam_fhat, disc[5:] - lam_disc * disc[:5]], axis=1)
    return _worst(np.abs(gaps) / scale[:, None])


def check_roundtrip(params, sector, cfg) -> float:
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    plan = spectral._TransformPlan(params, sector, meas, 16)
    rng = Lcg(cfg.seed + 606)
    fs = [rng.lattice_function(15) for _ in range(5)]
    pairs = []
    for f, rec in zip(fs, plan.inverse(*plan.forward(fs))):
        err = rec - f
        pairs += [(err, err), (f, f)]
    values = lattice.inner_product(params, sector, pairs)
    return _worst(float(np.sqrt(abs(num) / abs(den)))
                  for num, den in zip(values[::2], values[1::2]))


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
    errors = []
    oracle = fockoracle.invariant_integral(params, quads, pairs)
    for quad, row in zip(quads, oracle):
        for (phi, psi), o in zip(pairs, row):
            c = lattice.hwv_inner_product(params, quad, phi, psi)
            errors.append(oracle_error(o, c))
    return _worst(errors)


def _identity_residual(sides) -> float:
    """Worst relative gap over the (lhs, rhs) pairs of ``sides``."""
    return _worst(_rel(lhs, rhs) for lhs, rhs in sides)


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
    rng = Lcg(cfg.seed + 707)
    q = params.q_ld
    errors = []
    for _ in range(5):
        u = {j - 3: rng.symmetric() for j in range(8)}
        v = {j - 3: rng.symmetric() for j in range(8)}
        window = range(-6, 12)
        lhs = sum(u.get(j, 0.0) * bminus(v, j, q) * q ** _LD(-2 * j) for j in window) \
            * (q ** _LD(-2) - 1)
        rhs = -q * q * sum(bplus(u, j, q) * v.get(j, 0.0) * q ** _LD(-2 * j)
                           for j in window) * (q ** _LD(-2) - 1)
        errors.append(_rel(lhs, rhs))
    return _worst(errors)


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
