"""The spectral and symmetry checks of the battery against plain loops that
build every transform and every operator action afresh: sharing one
transform plan per check and one action per basis function must not move a
residual by a bit."""

import math

import numpy as np
import pytest

from qlaplace import asc, fockoracle, laplace, lattice, spectral, verify
from qlaplace._rng import Lcg
from qlaplace.cli import RunConfig
from qlaplace.lattice import LatticeFunction

_LD = np.longdouble

CONFIGS = [RunConfig(q=0.3), RunConfig(q=0.5), RunConfig(q=0.95),
           RunConfig(q=0.5, n=2, m=4, Lp=2)]


def _parseval_loop(params, sector, cfg):
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 404)
    worst = 0.0
    for _ in range(10):
        f = rng.lattice_function(15)
        [nrm] = lattice.inner_product(params, sector, [(f, f)])
        fhat = spectral.transform_grid(params, sector, f, meas)
        par = meas.integrate(np.abs(np.asarray(fhat.continuous)) ** 2,
                             [abs(v) ** 2 for v in fhat.discrete])
        worst = max(worst, float(abs(par - nrm) / abs(nrm)))
    return worst


def _multiplication_loop(params, sector, cfg):
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 505)
    lam_cont = np.array([laplace.eigenvalue(params, np.cos(t))
                         for t in meas.theta_nodes], dtype=_LD)
    lam_disc = np.array([laplace.eigenvalue(params, d.z) for d in meas.discrete],
                        dtype=_LD)
    worst = 0.0
    for _ in range(5):
        f = rng.lattice_function(12)
        [af] = laplace.apply_three_term(params, sector, [f])
        fhat = spectral.transform_grid(params, sector, f, meas)
        afhat = spectral.transform_grid(params, sector, af, meas)
        lam_fhat = lam_cont * np.asarray(fhat.continuous)
        scale = max(_LD(1), np.max(np.abs(lam_fhat)))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(afhat.continuous) - lam_fhat) / scale)))
        for v_a, v_f, lam in zip(afhat.discrete, fhat.discrete, lam_disc):
            worst = max(worst, float(abs(v_a - lam * v_f) / scale))
    return worst


def _roundtrip_loop(params, sector, cfg):
    meas = spectral.plancherel_measure(params, sector, cfg.quad_nodes)
    rng = Lcg(cfg.seed + 606)
    worst = 0.0
    for _ in range(5):
        f = rng.lattice_function(15)
        fhat = spectral.transform_grid(params, sector, f, meas)
        rec = spectral.inverse_transform_profile(params, sector, fhat, 16)
        err = rec - f
        [num] = lattice.inner_product(params, sector, [(err, err)])
        [den] = lattice.inner_product(params, sector, [(f, f)])
        worst = max(worst, float(np.sqrt(abs(num) / abs(den))))
    return worst


def _symmetry_loop(params, sector, cfg):
    maxj = verify.LATTICE_DEPTH
    worst = 0.0
    for j in range(maxj + 1):
        fj = LatticeFunction.basis(j)
        [afj] = laplace.apply_three_term(params, sector, [fj])
        for k in (j - 1, j, j + 1):
            if k < 0 or k > maxj:
                continue
            fk = LatticeFunction.basis(k)
            [afk] = laplace.apply_three_term(params, sector, [fk])
            [lhs] = lattice.inner_product(params, sector, [(afj, fk)])
            [rhs] = lattice.inner_product(params, sector, [(fj, afk)])
            worst = max(worst, float(abs(lhs - rhs) / max(1.0, abs(lhs))))
    return worst


@pytest.mark.parametrize("check,loop", [
    (verify.check_parseval, _parseval_loop),
    (verify.check_multiplication, _multiplication_loop),
    (verify.check_roundtrip, _roundtrip_loop),
    (verify.check_symmetry, _symmetry_loop),
], ids=["parseval", "multiplication", "roundtrip", "symmetry"])
@pytest.mark.parametrize("cfg", CONFIGS,
                         ids=["q0.3", "q0.5", "q0.95", "q0.5-m4-Lp2"])
def test_check_equals_its_plain_loop(check, loop, cfg):
    params, sector = cfg.params(), cfg.sector()
    assert check(params, sector, cfg) == loop(params, sector, cfg)


@pytest.mark.parametrize("cfg", [RunConfig(q=0.5), RunConfig(q=0.95)], ids=["q0.5", "q0.95"])
def test_multiplication_reads_the_transform_not_the_rounding_of_z(cfg):
    """lambda runs at the profiles' own longdouble z = cos(theta): with z
    rounded to double the residual read 1.1e-17 (q=0.5) and 2.7e-17 (q=0.95)."""
    assert verify.check_multiplication(cfg.params(), cfg.sector(), cfg) < 2e-18


def test_worst_is_zero_without_comparisons():
    assert verify._worst([]) == 0.0
    assert verify._worst(iter(())) == 0.0
    assert verify._worst(np.array([])) == 0.0
    assert verify._worst(np.empty((0, 4), dtype=_LD)) == 0.0


@pytest.mark.parametrize("errors", [[-0.0], [-0.0, -0.0, -0.0], [0.0, -0.0]])
@pytest.mark.parametrize("form", [list, iter, np.array], ids=["list", "generator", "array"])
def test_worst_of_only_zeros_is_positive_zero(errors, form):
    worst = verify._worst(form(errors))
    assert type(worst) is float and worst == 0.0 and math.copysign(1, worst) == 1


@pytest.mark.parametrize("dtype", [float, _LD])
def test_worst_of_an_array_is_the_worst_of_its_values_one_by_one(dtype):
    """One array reduction and the generator of the same values give the
    same float, a longdouble value rounded to double either way."""
    errors = (np.random.default_rng(3).uniform(0, 1e-10, (7, 30)) / 3).astype(dtype)
    worst = verify._worst(errors)
    assert type(worst) is float
    assert worst == verify._worst(v for v in errors.flat) == float(errors.max())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("form", [list, iter, np.array, lambda e: np.array(e, dtype=_LD)],
                         ids=["list", "generator", "array", "longdouble-array"])
def test_worst_refuses_a_non_finite_comparison_anywhere(bad, position, form):
    """At the first, a middle and the last position, in a list, a generator
    and an array."""
    errors = [1e-3, 2e-3, 5e-4, 3e-3, 1e-4]
    assert verify._worst(form(errors)) == 3e-3
    errors[position] = bad
    with pytest.raises(FloatingPointError, match=f"comparison {position} has error {bad}$"):
        verify._worst(form(errors))


def test_worst_names_the_flat_index_of_a_two_dimensional_array():
    errors = np.zeros((3, 4))
    errors[1, 2] = math.nan
    errors[2, 0] = math.inf
    with pytest.raises(FloatingPointError, match="comparison 6 has error nan$"):
        verify._worst(errors)


@pytest.mark.parametrize("form", [list, iter, np.array], ids=["list", "generator", "array"])
def test_a_longdouble_error_past_the_double_range_fails_its_check(monkeypatch, form):
    """An error finite in longdouble but past the double range reads inf, and
    its check fails with the note that names it."""
    def check(params, sector, cfg):
        return verify._worst(form([_LD(1e-3), _LD(10) ** 400, _LD(2e-3)]))

    monkeypatch.setattr(verify, "BATTERY", [("past_double", check, 1e-9, "")])
    [res] = verify.run_battery(RunConfig())
    assert (res.residual, res.passed, res.skipped) == (None, False, False)
    assert res.note == "FloatingPointError: comparison 1 has error inf"


@pytest.mark.parametrize("check,cfg,depth", [
    ("basis_orthonormality", RunConfig(q=0.01, m=200), verify.LATTICE_DEPTH),
    ("transform_of_base_indicator", RunConfig(q=5e-6, n=8, m=28, Lp=10), 12)],
    ids=["basis_orthonormality", "transform_of_base_indicator"])
def test_an_overflowing_basis_norm_fails_with_its_scalar_call_note(check, cfg, depth):
    """Each basis vector takes its norm from one scalar call, so a norm past
    the longdouble range fails the check with that call's note, worded for a
    scalar power (an array call words it for an array power)."""
    params, sector = cfg.params(), cfg.sector()
    with np.errstate(over="raise", divide="raise", invalid="raise"), \
            pytest.raises(FloatingPointError) as exc:
        for j in range(depth + 1):
            lattice.indicator_norm_sq(params, sector, j)
    [res] = [r for r in verify.run_battery(cfg) if r.name == check]
    assert (res.residual, res.passed, res.skipped) == (None, False, False)
    assert res.note == f"FloatingPointError: {exc.value}"


def test_every_check_returns_a_python_float_at_the_default_config():
    # cross_form_agreement divides its gaps by a longdouble scale; every
    # residual must still reach a caller as a float, not only via run_battery
    cfg = RunConfig()
    params, sector = cfg.params(), cfg.sector()
    for name, check, _, _ in verify.BATTERY:
        assert type(check(params, sector, cfg)) is float, name


def test_multiplication_passes_where_the_double_scale_overflowed():
    # the transform values reach ~6e380 here: finite in extended precision,
    # but a scale converted to double overflowed and turned every gap NaN
    cfg = RunConfig(q=0.01, n=2, m=7, L=1, Lp=6)
    assert verify.check_multiplication(cfg.params(), cfg.sector(), cfg) <= 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_underflowing_off_band_point_fails_the_eigenvalue_check_by_name():
    cfg = RunConfig(q=0.01, n=2, m=200, quad_nodes=16)
    res = next(r for r in verify.run_battery(cfg) if r.name == "eigenvalue_residual")
    assert not res.passed and not res.skipped
    assert res.note.startswith("ValueError: ") and "underflows" in res.note


#: the (n, m, L, Lp) sectors of the 48-config domain sweep
SWEEP_SECTORS = [(1, 2, 0, 0), (1, 3, 0, 2), (2, 2, 3, 0), (3, 5, 0, 4),
                 (2, 7, 1, 6), (4, 2, 2, 2), (1, 6, 0, 5), (5, 9, 0, 0)]


def _failed_checks(q, n, m, L, Lp):
    cfg = RunConfig(q=q, n=n, m=m, L=L, Lp=Lp, quad_nodes=128)
    return [(r.name, r.residual, r.note) for r in verify.run_battery(cfg)
            if not r.passed]


@pytest.mark.parametrize("n,m,L,Lp", SWEEP_SECTORS,
                         ids=["-".join(map(str, s)) for s in SWEEP_SECTORS])
def test_battery_passes_at_small_q(n, m, L, Lp):
    # off-band eigenvalues reach ~1e36 at q = 0.01: the eigenvalue yardstick
    # must carry |lambda| and both scales must stay in extended precision
    assert not _failed_checks(0.01, n, m, L, Lp)


@pytest.mark.parametrize("q,n,m,L,Lp", [
    pytest.param(q, n, m, L, Lp, id=f"{q}-{n}-{m}-{L}-{Lp}")
    for q in (0.1, 0.3, 0.6, 0.9, 0.95) for n, m, L, Lp in SWEEP_SECTORS])
def test_battery_passes_across_the_domain_sweep(q, n, m, L, Lp):
    """The rest of the 48-config sweep, q = 0.01 being the test above."""
    assert not _failed_checks(q, n, m, L, Lp)


class _DenseSolve(Exception):
    pass


def test_containment_solves_only_when_an_eigenvalue_leaves_the_band(monkeypatch):
    """Without point masses the inertia counts find every eigenvalue in the
    band and the dense solve never runs; with two it does."""
    def refuse(self):
        raise _DenseSolve
    monkeypatch.setattr(laplace.JacobiMatrix, "eigenvalues", refuse)
    for cfg in (RunConfig(q=0.5), RunConfig(q=0.95)):
        assert verify.check_spectrum_containment(cfg.params(), cfg.sector(), cfg) == 0.0
    cfg = RunConfig(q=0.5, m=4, Lp=2)
    with pytest.raises(_DenseSolve):
        verify.check_spectrum_containment(cfg.params(), cfg.sector(), cfg)


@pytest.mark.parametrize("edge", [0, 1], ids=["lower", "upper"])
def test_containment_measures_an_eigenvalue_past_either_edge(monkeypatch, edge):
    """With one band edge moved past the eigenvalues nearest it, the count at
    that edge sends the check to the dense solve, which measures them."""
    cfg = RunConfig(q=0.5)
    params, sector = cfg.params(), cfg.sector()
    ev = laplace.jacobi_matrix(params, sector, verify.CONTAINMENT_SIZE).eigenvalues()
    band = list(spectral.spectrum(params, sector).band)
    band[edge] = float(ev[3] if edge == 0 else ev[-4])
    moved = spectral.Spectrum(band=tuple(band), discrete=())
    monkeypatch.setattr(spectral, "spectrum", lambda params, sector: moved)
    got = verify.check_spectrum_containment(params, sector, cfg)
    assert got > 0.0
    assert got == moved.containment(ev)


def _dense_containment(params, sector):
    """The containment residual from every eigenvalue of the dense solve,
    the matrix built first as in the check."""
    jm = laplace.jacobi_matrix(params, sector, verify.CONTAINMENT_SIZE)
    return spectral.spectrum(params, sector).containment(jm.eigenvalues())


def _assert_dense_bits(cfg):
    """The check's residual has the bits of the full eigenvalue set's, and
    where that raises, the check raises the same type."""
    params, sector = cfg.params(), cfg.sector()
    try:
        want = _dense_containment(params, sector)
    except Exception as exc:  # any type: the check must raise the same one
        with pytest.raises(type(exc)):
            verify.check_spectrum_containment(params, sector, cfg)
        return
    got = verify.check_spectrum_containment(params, sector, cfg)
    assert got.hex() == float(want).hex(), cfg


@pytest.mark.parametrize("q", [1e-6, 0.001, 0.01, 0.1, 0.3, 0.5, 0.6, 0.9, 0.95])
def test_containment_keeps_the_bits_of_the_dense_solve(q):
    for n, m, L, Lp in SWEEP_SECTORS:
        _assert_dense_bits(RunConfig(q=q, n=n, m=m, L=L, Lp=Lp))


@pytest.mark.parametrize("cfg", [
    RunConfig(q=0.01, n=2, m=200),
    RunConfig(q=0.00016640942421768955, n=3, m=2, Lp=94),
], ids=["scalar-power", "array-power"])
def test_containment_refuses_entries_past_double_range_as_the_dense_solve(cfg):
    with pytest.raises(OverflowError, match="operator coefficients overflow"):
        _dense_containment(cfg.params(), cfg.sector())
    _assert_dense_bits(cfg)


@pytest.mark.parametrize("cfg", [
    RunConfig(q=0.5), RunConfig(q=0.95), RunConfig(q=0.5, m=4, Lp=2),
    RunConfig(q=0.3, n=3, m=4), RunConfig(q=0.9, n=2, m=6, Lp=2),
    RunConfig(q=0.7, n=1, m=5), RunConfig(q=0.3, n=1, m=6, Lp=5),
    RunConfig(q=0.3, n=1, m=70), RunConfig(q=0.5, n=1, m=110),
], ids=["default", "q0.95", "m4-Lp2", "q0.3-n3-m4", "q0.9-m6-Lp2", "q0.7-n1-m5",
        "q0.3-n1-m6-Lp5", "q0.3-n1-m70", "q0.5-n1-m110"])
def test_density_identity_at_extended_precision(cfg):
    # Q_K from the recurrence and c from its three products both run in
    # extended precision from the extended-precision angle on, and
    # base^K |a b| is below 1e-19: the Darboux gap is rounding alone.  The
    # last two have a = 3.6e35 and 3.2e32 (34 and 54 mass points), where a K
    # that ignores a leaves next-pole gaps of 1.3e-6 and 2.0
    assert verify.check_density_identity(cfg.params(), cfg.sector(), cfg) <= 1e-15


_DENSITY_THRESHOLD = next(threshold for name, _, threshold, _ in verify.BATTERY
                          if name == "density_identity")
_DENSITY_CONFIGS = pytest.mark.parametrize(
    "cfg", [RunConfig(), RunConfig(q=0.95)], ids=["default", "q0.95"])


def _density_identity(cfg):
    return verify.check_density_identity(cfg.params(), cfg.sector(), cfg)


@_DENSITY_CONFIGS
def test_density_identity_never_reads_the_band_weight(monkeypatch, cfg):
    """The check compares the eigenfunctions with c, so a band weight that
    cannot be formed leaves it passing."""
    def refuse(theta, p):
        raise AssertionError("density_identity formed the band weight")

    monkeypatch.setattr(asc, "continuous_weight", refuse)
    assert _density_identity(cfg) <= _DENSITY_THRESHOLD


@_DENSITY_CONFIGS
@pytest.mark.parametrize("module,name", [(spectral, "c_function"),
                                         (asc, "asc_recurrence")],
                         ids=["c_function", "recurrence"])
def test_density_identity_fails_a_kernel_off_by_1e_8(monkeypatch, cfg, module, name):
    """Each side's kernel scaled by 1 + 1e-8 fails the check."""
    kernel = getattr(module, name)

    def mutant(*args):
        return kernel(*args) * (1 + 1e-8)

    monkeypatch.setattr(module, name, mutant)
    assert _density_identity(cfg) > _DENSITY_THRESHOLD


@pytest.fixture
def weight_builds(monkeypatch):
    """The node counts of every band-weight evaluation, in call order."""
    builds = []
    weight = asc.continuous_weight

    def counting(theta, p):
        builds.append(np.size(theta))
        return weight(theta, p)

    monkeypatch.setattr(asc, "continuous_weight", counting)
    return builds


def test_battery_forms_the_band_weight_four_times(weight_builds):
    """asc_orthogonality's grid and the density of each check that integrates
    over its Plancherel measure: plancherel_mass, parseval and
    transform_roundtrip."""
    verify.run_battery(RunConfig())
    assert weight_builds == [256, 256, 256, 256]


@pytest.mark.parametrize("check", [verify.check_multiplication,
                                   verify.check_transform_of_base_indicator])
def test_forward_transform_checks_never_form_the_density(weight_builds, check):
    """Forward transforms and the eigenvalue map read only the measure's
    theta nodes and mass points."""
    cfg = RunConfig()
    check(cfg.params(), cfg.sector(), cfg)
    assert weight_builds == []


@pytest.mark.parametrize("first", [0, 1], ids=["every-index", "past-the-base-point"])
@pytest.mark.parametrize("cfg", [RunConfig(q=0.5), RunConfig(q=0.95)], ids=["q0.5", "q0.95"])
def test_transform_of_base_indicator_fails_masses_off_by_1e_8(monkeypatch, cfg, first):
    """The transformed orthonormal basis meets the orthonormal polynomials
    only with the lattice masses their norms call for, also where the base
    point's mass, the only one the transform of e_0 reads, is right."""
    [threshold] = [thr for name, _, thr, _ in verify.BATTERY
                   if name == "transform_of_base_indicator"]
    check = verify.check_transform_of_base_indicator
    assert check(cfg.params(), cfg.sector(), cfg) <= threshold
    mass = spectral.measure_mass

    def mutant(params, sector, j):
        return mass(params, sector, j) * np.where(j >= first, 1 + 1e-8, 1)

    monkeypatch.setattr(spectral, "measure_mass", mutant)
    assert check(cfg.params(), cfg.sector(), cfg) > threshold


def test_norm_closed_form_fails_masses_off_where_the_norm_passes_double_range(
        monkeypatch):
    """At q = 1e-6, (2, 2, 0, 0) most closed-form norms pass the double
    range; a 1e-8 error in the masses at those indices alone fails the
    check, whose gaps are relative in extended precision."""
    cfg = RunConfig(q=1e-6)
    params, sector = cfg.params(), cfg.sector()
    [threshold] = [thr for name, _, thr, _ in verify.BATTERY if name == "norm_closed_form"]
    check = verify.check_norm_identity
    assert check(params, sector, cfg) <= threshold
    j = np.arange(verify.LATTICE_DEPTH + 1)
    past = np.abs(lattice.indicator_norm_sq(params, sector, j)) > np.finfo(float).max
    assert 0 < past.sum() < len(j)
    mass = lattice.measure_mass

    def mutant(params, sector, j):
        return mass(params, sector, j) * np.where(past[j], 1 + 1e-8, 1)

    monkeypatch.setattr(lattice, "measure_mass", mutant)
    assert check(params, sector, cfg) > threshold


#: the one entry point of each table and grid kernel
PUBLIC_KERNELS = [(asc, "asc_recurrence"), (asc, "asc_hypergeometric"),
                  (asc, "orthogonality_residual"), (fockoracle, "invariant_integral"),
                  (fockoracle, "positive_block_sum"),
                  (fockoracle, "pochhammer_geometric_sum")]


def test_battery_runs_the_public_kernels(monkeypatch):
    calls = {}
    for module, name in PUBLIC_KERNELS:
        kernel, key = getattr(module, name), f"{module.__name__}.{name}"
        calls[key] = 0

        def counting(*args, _kernel=kernel, _key=key):
            calls[_key] += 1
            return _kernel(*args)

        monkeypatch.setattr(module, name, counting)
    results = verify.run_battery(RunConfig())
    assert all(r.passed for r in results)
    assert all(calls.values()), calls


#: checks that pair or sum through one call of a grid kernel, with the kernel
ONE_CALL_CHECKS = [("operator_symmetry", lattice, "inner_product"),
                   ("basis_orthonormality", lattice, "inner_product"),
                   ("parseval", lattice, "inner_product"),
                   ("transform_roundtrip", lattice, "inner_product"),
                   ("identity_negative_block", fockoracle, "negative_block_sum"),
                   ("identity_qbinomial_convolution", fockoracle,
                    "qbinomial_convolution")]


@pytest.mark.parametrize("cfg", [RunConfig(q=0.5), RunConfig(q=0.95)], ids=["q0.5", "q0.95"])
@pytest.mark.parametrize("check,module,name", ONE_CALL_CHECKS,
                         ids=[check for check, *_ in ONE_CALL_CHECKS])
def test_check_makes_one_grid_kernel_call(monkeypatch, cfg, check, module, name):
    calls = []
    kernel = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counting)
    [fn] = [fn for check_name, fn, _, _ in verify.BATTERY if check_name == check]
    fn(cfg.params(), cfg.sector(), cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("cfg", CONFIGS, ids=["q0.3", "q0.5", "q0.95", "2mass"])
def test_transform_check_runs_the_recurrence_once(monkeypatch, cfg):
    """The transform check's plan and its ``polynomials`` read the measure's
    one table: one recurrence run per check, and the residual of a run
    that builds the table afresh for each read."""
    calls = []
    kernel = asc.asc_recurrence

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    def fresh(self, kmax):
        return (asc.asc_recurrence(kmax, self.z, self.params),
                asc._mass_point_series(kmax, self.discrete, self.params))

    monkeypatch.setattr(asc, "asc_recurrence", counting)
    params, sector = cfg.params(), cfg.sector()
    got = verify.check_transform_of_base_indicator(params, sector, cfg)
    assert calls == [12]
    monkeypatch.setattr(asc.SpectralMeasure, "_tables", fresh)
    assert verify.check_transform_of_base_indicator(params, sector, cfg) == got
    assert calls == [12] * 3


def test_eigenvalue_residual_makes_one_profile_call(monkeypatch):
    """The check's seven z values and the sector's two mass points go
    through one profile call."""
    calls = []
    kernel = spectral.eigenfunction_profile

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(spectral, "eigenfunction_profile", counting)
    cfg = RunConfig(q=0.5, n=2, m=4, Lp=2)
    assert verify.check_eigenvalue_residual(cfg.params(), cfg.sector(), cfg) < 1e-10
    [(_, _, z, masses, _)] = calls
    assert len(z) == 7 and len(masses) == 2


def _count_kernel_calls(monkeypatch) -> dict:
    """Count the lattice actions, the indicator norms and the transform
    plans' forward and inverse calls, by kernel name."""
    calls = dict.fromkeys(["apply_three_term", "apply_divergence_form",
                           "indicator_norm_sq", "forward", "inverse"], 0)

    def counting(kernel, name):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        return counted

    for name in ("apply_three_term", "apply_divergence_form"):
        monkeypatch.setattr(laplace, name, counting(getattr(laplace, name), name))
    monkeypatch.setattr(lattice, "indicator_norm_sq",
                        counting(lattice.indicator_norm_sq, "indicator_norm_sq"))
    for name in ("forward", "inverse"):
        monkeypatch.setattr(spectral._TransformPlan, name,
                            counting(getattr(spectral._TransformPlan, name), name))
    return calls


#: per check, the calls of each kernel: one per check, one divergence form
#: per quadruple, and one scalar norm per basis vector (see
#: test_an_overflowing_basis_norm_fails_with_its_scalar_call_note)
ONE_ARRAY_PASS_CHECKS = [
    ("eigenvalue_residual", {"apply_three_term": 1}),
    ("cross_form_agreement", {"apply_three_term": 1, "apply_divergence_form": 1}),
    ("sector_independence", {"apply_divergence_form": 3}),
    ("operator_symmetry", {"apply_three_term": 1}),
    ("norm_closed_form", {"indicator_norm_sq": 1}),
    ("transform_of_base_indicator", {"indicator_norm_sq": 13, "forward": 1}),
    ("parseval", {"forward": 1}),
    ("multiplication_operator", {"apply_three_term": 1, "forward": 1}),
    ("transform_roundtrip", {"forward": 1, "inverse": 1}),
]


@pytest.mark.parametrize("cfg", [RunConfig(q=0.5), RunConfig(q=0.5, n=2, m=4, Lp=2)],
                         ids=["q0.5", "2mass"])
@pytest.mark.parametrize("check,counts", ONE_ARRAY_PASS_CHECKS,
                         ids=[check for check, _ in ONE_ARRAY_PASS_CHECKS])
def test_check_runs_each_kernel_in_one_array_pass(monkeypatch, cfg, check, counts):
    calls = _count_kernel_calls(monkeypatch)
    [(fn, threshold)] = [(fn, threshold) for name, fn, threshold, _ in verify.BATTERY
                         if name == check]
    assert fn(cfg.params(), cfg.sector(), cfg) <= threshold
    assert calls == {**dict.fromkeys(calls, 0), **counts}


def test_default_pass_kernel_calls(monkeypatch):
    """A default battery pass: 4 three-term actions, 4 divergence forms,
    45 indicator-norm calls (one array call for the norm check, one scalar
    call per basis vector), 4 forward transforms and 1 inverse (48, 14, 75,
    38 and 5 with one call per function)."""
    calls = _count_kernel_calls(monkeypatch)
    assert all(r.passed for r in verify.run_battery(RunConfig()))
    assert calls == {"apply_three_term": 4, "apply_divergence_form": 4,
                     "indicator_norm_sq": 45, "forward": 4, "inverse": 1}
