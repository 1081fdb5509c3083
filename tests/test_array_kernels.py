"""The lattice-side array kernels, the Al-Salam-Chihara recurrence table and
the band-weight product kernel against their per-index references
(``scalarref``), bit for bit, and the type rule of :mod:`qlaplace.laplace`."""

import itertools
import tracemalloc

import numpy as np
import pytest

import scalarref
from qlaplace import asc, fockoracle, laplace, lattice, qcore, spectral, verify
from qlaplace.cli import RunConfig
from qlaplace.lattice import LatticeFunction, ModelParams, Quadruple, Sector

_LD, _CLD = np.longdouble, np.clongdouble

PARAMS = [ModelParams(0.5, 2, 2), ModelParams(0.3, 1, 6), ModelParams(0.95, 3, 4),
          ModelParams(0.01, 2, 7)]
QUADS = [Quadruple(0, 0, 0, 0), Quadruple(1, 1, 1, 1), Quadruple(2, 0, 2, 0),
         Quadruple(0, 2, 0, 2), Quadruple(2, 1, 1, 0)]

#: supports with gaps, with and without the base point j = 0, and empty
SUPPORTS = [(), (0,), (1,), (5,), (0, 1, 2), (0, 3, 4, 9), (2, 3, 7, 8, 12),
            tuple(range(12))]

#: value types a lattice function's values can share
KINDS = ["float", "complex", "longdouble", "clongdouble"]


def _values(kind, n, rng):
    re, im = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    if kind == "float":
        return [float(v) for v in re]
    if kind == "complex":
        return [complex(a, b) for a, b in zip(re, im)]
    if kind == "longdouble":
        return [_LD(a) / 3 for a in re]
    return [_CLD(complex(a, b)) / 3 for a, b in zip(re, im)]


def _function(kind, support, seed):
    rng = np.random.default_rng(seed)
    return LatticeFunction(dict(zip(support, _values(kind, len(support), rng))))


def _same_bits(a, b) -> bool:
    """Equal type, value and zero sign (NaN equal to NaN), part by part."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    parts = (np.real, np.imag) if np.iscomplexobj(a) else (np.real,)
    return all(np.array_equal(p(a), p(b), equal_nan=True)
               and np.array_equal(np.signbit(p(a)), np.signbit(p(b)))
               for p in parts)


def _same_function(got: LatticeFunction, want: dict) -> bool:
    want = LatticeFunction(want)  # drops the exact zeros, as the kernel does
    return got.support == want.support \
        and all(_same_bits(got[j], want[j]) for j in want)


def _cases():
    for (i, params), support, kind in itertools.product(
            enumerate(PARAMS), SUPPORTS, KINDS):
        yield pytest.param(params, support, kind, id=f"p{i}-{kind}-{support}")


@pytest.mark.parametrize("params,support,kind", _cases())
def test_three_term_action_keeps_the_bits_of_the_per_index_formula(params, support, kind):
    f = _function(kind, support, seed=len(support))
    for sector in {q.sector() for q in QUADS}:
        [got] = laplace.apply_three_term(params, sector, [f])
        assert _same_function(got, scalarref.apply_three_term(params, sector, f))


@pytest.mark.parametrize("params,support,kind", _cases())
def test_divergence_form_keeps_the_bits_of_the_per_index_formula(params, support, kind):
    f = _function(kind, support, seed=len(support) + 1)
    for quad in QUADS:
        [got] = laplace.apply_divergence_form(params, quad, [f])
        assert _same_function(got, scalarref.apply_divergence_form(params, quad, f))


@pytest.mark.parametrize("kind", KINDS)
def test_real_functions_stay_real(kind):
    params, sector = PARAMS[0], Sector(0, 0)
    f = _function(kind, (0, 2, 3), seed=7)
    want = _CLD if kind in ("complex", "clongdouble") else _LD
    for [out] in (laplace.apply_three_term(params, sector, [f]),
                  laplace.apply_divergence_form(params, Quadruple(0, 0, 0, 0), [f])):
        assert {type(v) for v in out.values()} == {want}


@pytest.mark.parametrize("params", PARAMS)
def test_a_mixed_function_is_promoted_to_its_common_type_first(params):
    """Real and complex values in one function: the action equals, bit for
    bit, the per-index formula on the function with every value made
    complex, so real-only neighbourhoods now divide in complex arithmetic."""
    f = LatticeFunction({0: 0.5, 1: complex(0.25, -1.0), 2: -0.75, 5: 0.125,
                         6: 1.5, 7: complex(-2.0, 0.5)})
    promoted = {j: complex(v) for j, v in f.items()}
    for quad in QUADS:
        sector = quad.sector()
        [got] = laplace.apply_three_term(params, sector, [f])
        assert {type(v) for v in got.values()} == {_CLD}
        assert _same_function(got, scalarref.apply_three_term(params, sector, promoted))
        [got] = laplace.apply_divergence_form(params, quad, [f])
        assert _same_function(got, scalarref.apply_divergence_form(params, quad, promoted))


@pytest.mark.parametrize("params", PARAMS)
def test_stacked_actions_keep_the_bits_of_each_function_alone(params):
    """One call on a batch that mixes every value type, supports from j = 0
    and from j >= 2, the empty function, a function mixing real and complex
    values and one whose imaginary parts are zeros: each result equals, type
    and zero signs included, the one-function call and the per-index
    formula, so no row is promoted by another and no row reads another's
    range."""
    fs = [_function(kind, support, seed=i) for i, (support, kind)
          in enumerate(itertools.product(SUPPORTS, KINDS))]
    mixed = LatticeFunction({2: 0.5, 3: complex(0.25, -1.0), 6: -0.75})
    fs.insert(5, mixed)
    fs.append(LatticeFunction({3: complex(-0.0, 1.0), 4: complex(-0.25, -0.0), 7: 0.5j}))
    refs = [{j: complex(v) for j, v in f.items()} if f is mixed else f for f in fs]
    for quad in QUADS:
        sector = quad.sector()
        got = laplace.apply_three_term(params, sector, fs)
        assert len(got) == len(fs)
        for f, ref, out in zip(fs, refs, got):
            [alone] = laplace.apply_three_term(params, sector, [f])
            assert _same_function(out, dict(alone))
            assert _same_function(out, scalarref.apply_three_term(params, sector, ref))
        got = laplace.apply_divergence_form(params, quad, fs)
        assert len(got) == len(fs)
        for f, ref, out in zip(fs, refs, got):
            [alone] = laplace.apply_divergence_form(params, quad, [f])
            assert _same_function(out, dict(alone))
            assert _same_function(out, scalarref.apply_divergence_form(params, quad, ref))


@pytest.mark.parametrize("params", PARAMS)
def test_inner_product_keeps_the_bits_of_the_per_index_sum(params):
    """One call over every pair: each value, and each one-pair call, equals
    the per-index sum of that pair alone."""
    pairs = [(_function(kind, sf, seed=len(sf)), _function(kind, sg, seed=len(sg) + 10))
             for (sf, sg), kind in itertools.product(
                 [((), ()), ((0,), (0,)), ((3,), (4,)), ((0, 1, 2), (1, 2, 3)),
                  ((0, 3, 4, 9), (2, 3, 7, 8, 12)), (tuple(range(12)), (5,))], KINDS)]
    for sector in (Sector(0, 0), Sector(3, 1), Sector(0, 4)):
        got = lattice.inner_product(params, sector, pairs)
        assert len(got) == len(pairs)
        for (f, g), value in zip(pairs, got):
            want = scalarref.inner_product(params, sector, f, g)
            assert _same_bits(value, want)
            [alone] = lattice.inner_product(params, sector, [(f, g)])
            assert _same_bits(alone, want)
        assert lattice.inner_product(params, sector, []) == []


@pytest.mark.parametrize("params", PARAMS)
def test_a_mixed_pair_is_paired_in_its_common_type(params):
    """A pair whose values mix types is one row pair of their common type:
    its value equals, bit for bit, the per-index sum on the functions with
    every value cast to that type, beside pairs of other types.  A double
    entry beside a ``longdouble`` one therefore multiplies in extended
    precision (0.7 * (1/3) rounds differently there)."""
    f = LatticeFunction({0: 0.1, 1: _LD(1) / 3, 4: 0.7})
    g = LatticeFunction({1: 0.3, 2: _LD(-2) / 7, 4: 1 / 3})
    h = LatticeFunction({0: complex(0.5, -1.0), 2: 0.1, 3: 2.0})
    cases = [((f, g), _LD), ((h, h), complex), ((h, f), _CLD), ((f, f), _LD)]
    for sector in (Sector(0, 0), Sector(3, 1)):
        got = lattice.inner_product(params, sector, [pair for pair, _ in cases])
        for ((a, b), kind), value in zip(cases, got):
            cast = [{j: kind(v) for j, v in fn.items()} for fn in (a, b)]
            assert _same_bits(value, scalarref.inner_product(params, sector, *cast))


@pytest.mark.parametrize("kind", KINDS)
def test_pairing_core_skips_the_columns_both_rows_leave_out(monkeypatch, kind):
    """A column where both rows hold an exact zero, as a function's missing
    index, is left out of the pair's sum: with the mass there patched to
    inf, the pair keeps the bits of its per-index sum over its own support
    and turns into no NaN (a 0 * inf would also warn, which fails the
    test).  A pair that does read the column meets the inf."""
    params, sector = PARAMS[0], Sector(3, 1)
    f, g = _function(kind, (0, 2, 5), seed=3), _function(kind, (2, 4), seed=4)
    wants = [scalarref.inner_product(params, sector, f, g),
             scalarref.inner_product(params, sector, g, g)]
    mass = lattice.measure_mass

    def infinite_at_3(params, sector, j):
        return np.where(j == 3, _LD(np.inf), mass(params, sector, j))

    monkeypatch.setattr(lattice, "measure_mass", infinite_at_3)
    hit = LatticeFunction({3: 1.0})
    got = lattice.inner_product(params, sector, [(f, g), (g, g), (hit, hit)])
    assert all(_same_bits(value, want) for value, want in zip(got, wants))
    assert np.isinf(got[2])
    idx = np.arange(6)
    rows = [np.array([[h.get(j, 0) for j in idx]], dtype=np.result_type(*f.values()))
            for h in (f, g)]
    [[value]] = lattice._pair_rows(params, sector, idx, [tuple(rows)])
    assert _same_bits(value, wants[0]) and np.isfinite(value)


#: index arrays of every shape the mass kernel's powers tell apart: runs,
#: which take q^(-2j-2) from the x array one entry longer, and the rest,
#: which raise both powers; [3, 3, 5] and [4, 6, 5, 7] span as many indices
#: as a run of their length would
INDEX_ARRAYS = {
    "run-from-0": np.arange(80),
    "run-from-7": np.arange(7, 40),
    "runs-with-gaps": np.array([0, 1, 2, 5, 6, 9, 30, 31]),
    "unsorted": np.array([4, 6, 5, 7]),
    "unsorted-far": np.array([9, 3, 4, 0, 12, 1]),
    "descending": np.arange(20, 10, -1),
    "repeated": np.array([3, 3, 5]),
    "repeated-run": np.array([4, 4, 5, 6, 6]),
    "one-index": np.array([11]),
    "empty": np.array([], dtype=int),
    "2-D": np.arange(14).reshape(2, 7),
    "sparse-far": np.array([0, 10**7]),
}


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("name", INDEX_ARRAYS)
def test_measure_mass_on_an_index_array_keeps_every_scalar_bits(params, name):
    """Every entry of the mass and of the weight has the bits of the scalar
    call and of the per-index reference at its index.  The far sparse array
    overflows at 10^7 (an inf, a NaN where no Pochhammer factor runs); its
    call allocates well under one power array spanning its gap (160 MB)."""
    js = INDEX_ARRAYS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        for sector in (Sector(0, 0), Sector(3, 1), Sector(0, 4), Sector(2, 2)):
            tracemalloc.start()
            try:
                got = lattice.measure_mass(params, sector, js)
                weights = lattice.sector_weight(params, sector, js)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            assert got.dtype == weights.dtype == _LD
            assert got.shape == weights.shape == js.shape
            for at in np.ndindex(js.shape):
                j = int(js[at])
                scalar = lattice.measure_mass(params, sector, j)
                assert _same_bits(scalar, scalarref.measure_mass(params, sector, j))
                assert _same_bits(got[at], scalar)
                weight = lattice.sector_weight(params, sector, j)
                assert _same_bits(weight, scalarref.sector_weight(params, sector, j))
                assert _same_bits(weights[at], weight)


@pytest.mark.parametrize("params", PARAMS)
def test_indicator_norm_sq_on_an_index_array_keeps_every_scalar_bits(params):
    """j = 0..30, the battery's lattice depth, in three sectors, one with
    L + n - 1 >= 3 Pochhammer factors."""
    js = np.arange(verify.LATTICE_DEPTH + 1)
    for sector in (Sector(0, 0), Sector(0, 3), Sector(3, 1)):
        got = lattice.indicator_norm_sq(params, sector, js)
        assert got.dtype == _LD
        for j in js:
            assert _same_bits(got[j], lattice.indicator_norm_sq(params, sector, int(j)))


@pytest.mark.parametrize("base", [_LD(0.5) ** _LD(-2), _LD(0.95) ** _LD(-2),
                                  _LD(0.3), 0.7, complex(0.3, 0.4)])
def test_qbinomial_keeps_the_bits_of_three_pochhammer_loops(base):
    for a in range(16):
        table = qcore._qpoch_prefixes(base, base, a)
        for b in range(a + 1):
            assert _same_bits(qcore._qbinomial_from(table, a, b),
                              scalarref.qbinomial(a, b, base))
        assert all(_same_bits(table[k], scalarref.qpoch(base, base, k))
                   for k in range(a + 1))


@pytest.mark.parametrize("a", [_LD(0.3), _LD(7.5), -2.0, complex(0.6, -0.8), 0.0, -0.0,
                               np.array([0.5, -3.0, 1.0], dtype=_LD)])
def test_qpoch_keeps_the_bits_of_the_running_product(a):
    for base in (_LD(0.25), _LD(4), 0.5, complex(0.1, 0.9)):
        for k in range(8):
            got, want = qcore.qpoch(a, base, k), scalarref.qpoch(a, base, k)
            if isinstance(got, np.ndarray):
                assert all(_same_bits(u, v) for u, v in zip(got, want))
            else:
                assert _same_bits(got, want)


@pytest.mark.parametrize("q", [1e-6, 0.01, 0.3, 0.5, 0.95])
def test_qbinomial_convolution_keeps_the_bits_of_the_per_coefficient_loops(q):
    """One prefix table and one array pass over the grid, cells of every t
    side by side: each side, and each one-point call, equals the
    per-coefficient loops at that point alone."""
    grid = list(itertools.product(range(5), range(5), range(6)))
    assert fockoracle.qbinomial_convolution(q, []) == []
    for args, sides in zip(grid, fockoracle.qbinomial_convolution(q, grid), strict=True):
        want = scalarref.qbinomial_convolution(q, *args)
        assert all(_same_bits(u, v) for u, v in zip(sides, want))
        [alone] = fockoracle.qbinomial_convolution(q, [args])
        assert all(_same_bits(u, v) for u, v in zip(alone, want))


def _qpoch_inf_cases():
    """(a, base, tol): every kind of a at every base and tolerance, and a
    whose factor count is 0 or lands on either side of a chunk edge."""
    tols = (qcore.DEFAULT_INF_TOL, qcore.LD_INF_TOL)
    bases = (0.0, 1e-12, 0.01, 0.25, 0.9025, _LD(0.95) ** 2)
    kinds = (lambda r: r, lambda r: complex(r, -r / 2), lambda r: _LD(r) / 3,
             lambda r: _CLD(complex(r, r / 2)) / 3)
    for base, tol, kind in itertools.product(bases, tols, kinds):
        for r in (0.3, -0.7, 2.5, 1e-3, -40.0):
            yield kind(r), base, tol
        yield kind(0.0), base, tol
        yield kind(tol / 2), base, tol
    chunk = qcore._CHUNK
    for count, tol in itertools.product((chunk - 1, chunk, chunk + 1, 2 * chunk), tols):
        base = _LD(0.9025)
        yield tol * base ** _LD(0.5 - count), base, tol
        yield _CLD(-tol * base ** _LD(0.5 - count)), base, tol


def _factor_count(a, base, tol):
    t, count = (a * 0 + base * 0 + 1.0) * a, 0
    while abs(t) >= tol:
        t, count = t * base, count + 1
    return count


def test_qpoch_inf_keeps_the_bits_of_the_factor_loop():
    """The chunked array folds give the loop's value and type, on and around
    the chunk edges too."""
    counts = set()
    for a, base, tol in _qpoch_inf_cases():
        got = qcore.qpoch_inf(a, base, tol)
        assert _same_bits(got, scalarref.qpoch_inf(a, base, tol)), (a, base, tol)
        counts.add(_factor_count(a, base, tol))
    chunk = qcore._CHUNK
    assert {0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk} <= counts


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), _LD("nan"), _LD("-inf"),
                                 _CLD(complex(0, float("inf"))), complex("nan")])
def test_qpoch_inf_of_a_non_finite_argument_is_nan(bad):
    with np.errstate(invalid="ignore"):  # inf * 0 in numpy's types
        got = qcore.qpoch_inf(bad, 0.5, qcore.LD_INF_TOL)
        assert _same_bits(got, scalarref.qpoch_inf(bad, 0.5, qcore.LD_INF_TOL))
    assert np.isnan(got)


def test_difference_quotients_are_one_formula():
    """bminus and bplus on a mapping give the value helper's bits."""
    q = _LD(0.6)
    rng = np.random.default_rng(3)
    f = {j - 3: v for j, v in enumerate(rng.uniform(-1, 1, 9))}
    for j in range(-4, 8):
        assert _same_bits(qcore.bminus(f, j, q), scalarref.bminus(f, j, q))
        assert _same_bits(qcore.bplus(f, j, q), scalarref.bplus(f, j, q))


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.95])
def test_recurrence_table_keeps_the_bits_of_the_per_degree_loop(q):
    """Coefficients from one array over the degree, 2z hoisted: every entry,
    type included, equals the loop that forms them per degree.  The table is
    one ``longdouble`` array, so degree 0 at a Python-float z is the loop's
    1.0 in extended precision."""
    nodes = np.cos(np.linspace(0, np.pi, 256).astype(_LD))
    points = [nodes, nodes[:1], _LD(-0.3), 0.7, _LD(3.5), 1.0000001]
    for n, m, L, Lp in ((2, 2, 0, 0), (2, 4, 0, 2), (1, 6, 0, 5), (3, 5, 2, 1)):
        pp = spectral.asc_params(ModelParams(q, n, m), Sector(L, Lp))
        for z, kmax in itertools.product(points, (0, 1, 2, 16, 60)):
            got = asc.asc_recurrence(kmax, z, pp)
            first, *rest = scalarref.recurrence_table(kmax, z, pp)
            want = [_LD(first), *rest]
            assert type(got) is np.ndarray and got.dtype == _LD
            assert got.shape == (kmax + 1, *np.shape(z)) and len(want) == kmax + 1
            assert all(_same_bits(u, v) for u, v in zip(got, want))


@pytest.mark.parametrize("q", [0.01, 0.5, 0.95])
def test_recurrence_table_keeps_the_bits_of_the_zip_loop(q):
    """The degree loop over 1-D row views made once equals the loop over
    fresh (1, *z.shape) views from ``zip``, entry for entry and sign for
    sign, at scalar, 1-D and 2-D z and at the density check's K = 447."""
    nodes = np.cos(np.linspace(0, np.pi, 42)[1:-1].astype(_LD))
    points = [nodes, nodes.reshape(5, 8), nodes[:1], _LD(-0.3), 0.7, _LD(3.5)]
    for n, m, L, Lp in ((2, 2, 0, 0), (1, 3, 0, 2)):
        pp = spectral.asc_params(ModelParams(q, n, m), Sector(L, Lp))
        for z, kmax in itertools.product(points, (0, 1, 2, 447)):
            assert _same_bits(asc.asc_recurrence(kmax, z, pp),
                              scalarref.zip_recurrence(kmax, z, pp)), (n, m, L, Lp, kmax)


#: the trace oracle's quadruples and function pairs in ``verify``
ORACLE_QUADS = [Quadruple(0, 0, 0, 0), Quadruple(1, 0, 1, 0), Quadruple(0, 1, 0, 1),
                Quadruple(1, 1, 1, 1)]
_F0, _F1 = LatticeFunction.basis(0), LatticeFunction.basis(1)
ORACLE_PAIRS = ((_F0, _F0), (_F1, _F1), (_F0 + _F1, _F0 + _F1), (_F0 + _F1, _F0))


@pytest.mark.parametrize("q", [0.5, 0.95, 0.3, 0.01, 1e-6])
def test_identity_grids_keep_the_bits_of_per_call_sums(q):
    """One power table and one reduction per identity call: each side over
    a grid of m 2-5, kp and lp 0-4 (x 0-4 and y 1-4), and over a one-point
    grid, equals the per-cell sides, every power and product formed for that
    cell alone."""
    grid = list(itertools.product(range(2, 6), range(5), range(5)))
    for args, sides in zip(grid, fockoracle.positive_block_sum(q, grid), strict=True):
        want = scalarref.positive_block_sum(q, *args)
        assert all(_same_bits(u, v) for u, v in zip(sides, want)), args
        [alone] = fockoracle.positive_block_sum(q, [args])
        assert all(_same_bits(u, v) for u, v in zip(alone, want)), args
    grid = list(itertools.product(range(5), range(1, 5)))
    for args, sides in zip(grid, fockoracle.pochhammer_geometric_sum(q, grid), strict=True):
        want = scalarref.pochhammer_geometric_sum(q, *args)
        assert all(_same_bits(u, v) for u, v in zip(sides, want)), args
        [alone] = fockoracle.pochhammer_geometric_sum(q, [args])
        assert all(_same_bits(u, v) for u, v in zip(alone, want)), args


@pytest.mark.parametrize("q", [0.5, 0.95, 0.3, 0.01, 1e-6])
def test_power_table_keeps_the_bits_of_the_unique_table(q):
    """The exponents marked in a boolean array and the first-index rows read
    from windows give the powers, the Pochhammer rows and the sums of the
    ``np.unique`` table with its fancy-indexed rows, over the identity
    grids above, at D and at D and 2D."""
    qd, depth = _LD(q), fockoracle._depth(q)
    grids = [list(itertools.product(range(2, 6), range(5), range(5))),
             [(2, y - 1, x) for x, y in itertools.product(range(5), range(1, 5))]]
    for grid, depths in itertools.product(grids, [(depth,), (depth, 2 * depth)]):
        got = fockoracle._PowerTable(qd, grid, max(depths))
        want = scalarref.UniquePowerTable(qd, grid, max(depths))
        assert _same_bits(got.powers, want.powers) and _same_bits(got.poch, want.poch)
        for u, v in zip(got.sums(*depths), want.sums(*depths), strict=True):
            assert _same_bits(u, v), (grid[0], depths)


#: the oracle check's pairs, then complex pairs on several points, with gaps
#: and unequal supports
ORACLE_GRID_PAIRS = [*ORACLE_PAIRS,
                     (_function("complex", (0, 1, 3), 3), _function("complex", (0, 2, 3), 4)),
                     (_function("complex", (1, 2), 5), _function("clongdouble", (0, 1, 2), 6))]


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("q", [0.01, 0.5, 0.95])
def test_oracle_check_keeps_the_bits_of_per_call_values(q, m):
    """One power table, one factor table and one reduction serve the
    quadruples and pairs of a call, at n = 2..6; each value, and each
    one-pair call, equals that pair's value with every negative-block term
    evaluated for itself (``scalarref.negative_block``)."""
    quads = ORACLE_QUADS + [Quadruple(2, 1, 1, 0)]
    for n in range(2, 7):
        params = ModelParams(q, n, m)
        rows = fockoracle.invariant_integral(params, quads, ORACLE_GRID_PAIRS)
        for quad, row in zip(quads, rows, strict=True):
            for (phi, psi), got in zip(ORACLE_GRID_PAIRS, row, strict=True):
                want = scalarref.invariant_integral(params, quad, phi, psi)
                assert _same_bits(got, want), (n, quad, phi, psi)
                [[alone]] = fockoracle.invariant_integral(params, [quad], [(phi, psi)])
                assert _same_bits(alone, want)


@pytest.mark.parametrize("q", [0.01, 0.5, 0.95])
def test_negative_block_keeps_the_bits_of_the_per_composition_loop(q):
    """Compositions tabled per total, each term's exponent s1 - w T: every
    block, and every factor and power its tables hold, equals the loop that
    walks each read's compositions and sums each one's exponent, at n 2-6
    over the oracle's quadruples and pairs, each table shared by the call."""
    quads = ORACLE_QUADS + [Quadruple(2, 1, 1, 0)]
    for n in range(2, 7):
        params = ModelParams(q, n, 4)
        comps, factors, powers, ref_factors, ref_powers = {}, {}, {}, {}, {}
        for quad, (phi, psi) in itertools.product(quads, ORACLE_GRID_PAIRS):
            got = fockoracle._negative_block(params, quad, phi, psi, comps, factors, powers)
            want = scalarref.per_composition_negative_block(params, quad, phi, psi,
                                                            ref_factors, ref_powers)
            assert _same_bits(got, want), (n, quad)
        flat = {(*kl, *ends): f for kl, ends_factors in factors.items()
                for ends, f in ends_factors.items()}
        assert flat.keys() == ref_factors.keys() and powers.keys() == ref_powers.keys()
        assert all(_same_bits(flat[key], ref_factors[key]) for key in flat)
        assert all(_same_bits(powers[e], ref_powers[e]) for e in powers)


#: the oracle check's pairs, then a sparse support, complex values on two
#: supports with gaps, and an empty pair
HWV_PAIRS = [*ORACLE_PAIRS, (LatticeFunction({0: 0.5, 7: -1.25, 20: 2.0}),) * 2,
             (_function("complex", (0, 3, 4, 9), 1), _function("complex", (2, 3, 7, 8, 12), 2)),
             (LatticeFunction(), LatticeFunction())]


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("q", [0.01, 0.5, 0.95])
def test_closed_form_grid_keeps_the_bits_of_per_pair_values(monkeypatch, q, m):
    """One weight call per quadruple on the union of the supports: each value,
    and each one-pair call, equals the per-index Jackson integral of that pair
    alone."""
    params = ModelParams(q, 2, m)
    quads = ORACLE_QUADS + QUADS
    calls = []
    weight = lattice.sector_weight
    monkeypatch.setattr(lattice, "sector_weight",
                        lambda *args: calls.append(args) or weight(*args))
    rows = lattice.hwv_inner_product(params, quads, HWV_PAIRS)
    assert len(calls) == len(quads)
    assert lattice.hwv_inner_product(params, quads, []) == [[] for _ in quads]
    for quad, row in zip(quads, rows):
        assert len(row) == len(HWV_PAIRS)
        for (phi, psi), got in zip(HWV_PAIRS, row):
            want = scalarref.hwv_inner_product(params, quad, phi, psi)
            assert _same_bits(got, want)
            [[alone]] = lattice.hwv_inner_product(params, [quad], [(phi, psi)])
            assert _same_bits(alone, want)


#: the kernel's split and 1/base margin at these q, from 1e-6 to past the CLI's bound
PRODUCT_QS = [1e-6, 0.01, 0.3, 0.5, 0.9, 0.95, 0.99]


def _nudged(x, steps):
    """x moved ``steps`` representable longdoubles up (or down if negative)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, _LD(np.inf) if steps > 0 else _LD(0))
    return x


def _product_cases(q):
    """Arrays for ``asc._masked_qpoch_inf`` at base q^2, each call's least
    |a| setting how many factors run unmasked."""
    base = _LD(q) ** 2
    phases = np.exp(_CLD(1j) * np.array([0.0, 0.3, np.pi / 2, 2.0, np.pi], dtype=_LD))
    split = _LD(asc._LOG_SPLIT)
    # just either side of the split: no factor, or one masked factor
    for steps in (-2, -1, 1, 2):
        yield _nudged(split, steps) * phases
    # least |a| at s / base^k, where the last unmasked factor meets the margin
    for k in range(1, 31):
        edge = split / base ** k
        if edge > 1e60:
            break
        for steps in range(-2, 3):
            least = _nudged(edge, steps)
            row = np.concatenate([least * phases, 3 * least * phases[:2]])
            yield row
            # the same row in a stack whose other row runs no unmasked
            # factor, so that the first runs them by its own least
            yield np.stack([row, np.full_like(row, split / 2)])
    # the band weight's rows on the unit circle, and rows whose heads end at
    # different factors
    u = np.exp(_CLD(1j) * np.linspace(0, np.pi, 256).astype(_LD))
    for sector in (Sector(0, 0), Sector(0, 3)):
        pp = spectral.asc_params(ModelParams(q, 1, 12), sector)
        yield np.stack([pp.a * u, pp.b * u, u * u])
    yield np.stack([x * phases for x in (0.2, 1.0, 5.0, 50.0)])
    # zero and NaN entries
    yield np.array([0, 1, -0.0, 0.5j], dtype=_CLD)
    yield np.array([2, np.nan, complex(0.5, np.nan), 7j], dtype=_CLD)


def _assert_same_products(a, base):
    """The kernel and the all-masked loop give the same bits, and raise the
    same floating-point error where the loop raises one."""
    a = np.asarray(a, dtype=_CLD)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            want = scalarref.masked_qpoch_inf(a, base)
        except FloatingPointError as err:
            with pytest.raises(FloatingPointError, match=str(err)):
                asc._masked_qpoch_inf(a, base)
            with np.errstate(all="ignore"):
                want = scalarref.masked_qpoch_inf(a, base)
                got = asc._masked_qpoch_inf(a, base)
        else:
            got = asc._masked_qpoch_inf(a, base)
    assert _same_bits(got, want), (a, base)


@pytest.mark.parametrize("q", PRODUCT_QS)
def test_product_kernel_keeps_the_bits_of_the_masked_loop(q):
    """Factors run unmasked while the least |t| keeps the 1/base margin over
    the split: value, zero sign and NaN equal the loop that masks every
    factor, also where a call's entries stop at different factors."""
    base = _LD(q) ** 2
    for a in _product_cases(q):
        _assert_same_products(a, base)


def test_product_kernel_takes_a_least_magnitude_past_the_double_range():
    """|a| = 1e400 is a valid ``AscParams`` entry; its head runs 17 factors
    at q = 1e-12 with no double cast of the least |a|."""
    phases = np.exp(_CLD(1j) * np.array([0.0, 1.0, 2.5], dtype=_LD))
    for q in (1e-12, 0.5):  # the product overflows at q = 0.5, in both
        _assert_same_products(_LD("1e400") * phases, _LD(q) ** 2)


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(q=0.95), RunConfig(q=0.95, n=1, m=12, Lp=3),
    RunConfig(q=0.95, m=4, Lp=2), RunConfig(q=0.3, n=1, m=70)],
    ids=["default", "q0.95", "q0.95-1-12-0-3", "q0.95-2-4-0-2", "q0.3-1-70-0-0"])
def test_battery_keeps_its_results_with_the_masked_loop(monkeypatch, cfg):
    """Every check result is the same when the product kernel masks every
    factor: at q = 0.95 m = 12 L' = 3 the rows' heads run 29, 15 and 23
    factors, 14 of them on the whole array and 28, 14 and 22 unmasked by
    each row's own least |a|, and at q = 0.3 m = 70 the a row runs 34 of
    its 35 unmasked."""
    got = verify.run_battery(cfg)
    monkeypatch.setattr(asc, "_masked_qpoch_inf", scalarref.masked_qpoch_inf)
    assert got == verify.run_battery(cfg)


def test_power_table_keeps_the_bits_of_per_cell_powers():
    """Each distinct exponent is raised once: at q = 0.95 and the oracle's
    depth 2D every cell equals its own power q^(2ea)."""
    q = ModelParams(0.95, 2, 4).q_ld
    depth = 2 * fockoracle._depth(0.95)
    blocks = [(4, kp, lp) for kp in range(3) for lp in range(3)]
    table = fockoracle._PowerTable(q, blocks, depth)
    assert table.powers.shape == (5, depth + 2)
    for (e, a), got in np.ndenumerate(table.powers):
        assert _same_bits(got, q ** _LD(2 * (e + 1) * (a + 1)))
