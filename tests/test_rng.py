"""The block draws of the documented LCG against its one-step formula: the
same values in the same order, and the same state at the end."""

import warnings

import numpy as np
import pytest

from qlaplace._rng import Lcg
from qlaplace.lattice import LatticeFunction

COUNTS = [0, 1, 2, 3, 7, 8, 9, 100, 1000]

#: plain seeds, states just below 2^64 (the wrap on the first steps), and
#: seeds outside [0, 2^64), which the generator reduces modulo 2^64
SEEDS = [0, 1, 707, 2**64 - 1, 2**64 - 2, 2**63, -1, -12345, 2**64, 2**64 + 5, 3 * 2**70 + 11]


@pytest.fixture(autouse=True)
def no_runtime_warning():
    """Every draw runs with numpy's RuntimeWarning (a scalar overflow) an
    error, whatever the suite's own filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
def test_block_equals_the_one_step_draws(seed, count):
    block, steps = Lcg(seed), Lcg(seed)
    got = block.uniform_block(count)
    want = [steps.uniform() for _ in range(count)]
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tolist() == want
    assert block.state == steps.state


@pytest.mark.parametrize("seed", SEEDS)
def test_symmetric_block_equals_the_one_step_draws(seed):
    block, steps = Lcg(seed), Lcg(seed)
    assert block.symmetric_block(37).tolist() == [steps.symmetric() for _ in range(37)]
    assert block.state == steps.state


def test_consecutive_blocks_continue_the_sequence():
    """A block leaves the generator where the next draw, block or step,
    carries on."""
    blocks, steps = Lcg(5), Lcg(5)
    got = [*blocks.uniform_block(9), blocks.uniform(), *blocks.uniform_block(100)]
    assert got == [steps.uniform() for _ in range(110)]
    assert blocks.state == steps.state


@pytest.mark.parametrize("seed", [0, 404, 2**64 - 1, -3])
@pytest.mark.parametrize("count,size", [(0, 5), (1, 1), (1, 15), (10, 15), (5, 12), (3, 0)])
def test_coefficient_rows_are_consecutive_lattice_functions(seed, count, size):
    block, steps = Lcg(seed), Lcg(seed)
    rows = block.coefficients(count, size)
    assert rows.dtype == np.complex128 and rows.shape == (count, size)
    for row in rows:
        f = steps.lattice_function(size)
        assert f.support == tuple(range(size))
        assert [f[j] for j in f.support] == row.tolist()
    assert block.state == steps.state


def test_lattice_function_values_are_python_complex_in_document_order():
    """Real part, then imaginary part, of the value at j = 0, 1, 2, ..."""
    f, steps = Lcg(11).lattice_function(6), Lcg(11)
    assert isinstance(f, LatticeFunction)
    assert {type(v) for v in f.values()} == {complex}
    assert [f[j] for j in range(6)] == [complex(steps.symmetric(), steps.symmetric())
                                        for _ in range(6)]


def test_lattice_functions_are_the_rows_of_one_block():
    block, steps = Lcg(101), Lcg(101)
    fs = block.lattice_functions(5, 10)
    assert fs == [steps.lattice_function(10) for _ in range(5)]
    assert all({type(v) for v in f.values()} == {complex} for f in fs)
    assert block.state == steps.state
