"""Deterministic random inputs for verification runs.

A 64-bit linear congruential generator with fixed constants, so any
implementation (in any language) reproduces the same test functions from the
same seed:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
    draw  =  (state >> 11) / 2^53   in [0, 1)

Values are drawn in document order: for a lattice function, real part then
imaginary part of the coefficient at j = 0, 1, 2, ...; for a block of
functions, the first function's values, then the second's.

A block of n draws is one array pass: the states after 1..n steps come from
the first by jumping ahead (F. B. Brown, "Random Number Generation with
Arbitrary Strides", 1994), the affine map of k steps applied to the states
after 1..k steps gives those after k+1..2k, in ``uint64`` arrays, which wrap
modulo 2^64 without numpy's scalar overflow warning.  Every state, and so
every draw, is the one the step-by-step :meth:`Lcg.uniform` reaches: the
shift, the exact conversion of a 53-bit integer and the power-of-two scaling
round nothing.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeFunction

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """Minimal deterministic generator; not for cryptographic use."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def uniform(self) -> float:
        """Next draw in [0, 1)."""
        self.state = (_MULT * self.state + _INC) & _MASK
        return (self.state >> 11) * 2.0**-53

    def symmetric(self) -> float:
        """Next draw in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def uniform_block(self, count: int) -> np.ndarray:
        """The next ``count`` draws in [0, 1), as a float array: those of
        ``count`` calls of :meth:`uniform`, the generator left in the same
        state."""
        states = np.empty(count, dtype=np.uint64)
        if count:
            states[0] = (_MULT * self.state + _INC) & _MASK
            # (mult, inc): the affine map of ``done`` steps
            done, mult, inc = 1, _MULT, _INC
            while done < count:
                k = min(done, count - done)
                states[done:done + k] = np.uint64(mult) * states[:k] + np.uint64(inc)
                mult, inc = (mult * mult) & _MASK, (mult * inc + inc) & _MASK
                done += k
            self.state = int(states[-1])
        return (states >> np.uint64(11)).astype(float) * 2.0**-53

    def symmetric_block(self, count: int) -> np.ndarray:
        """The next ``count`` draws in [-1, 1), as :meth:`symmetric` gives
        them one by one."""
        return 2.0 * self.uniform_block(count) - 1.0

    def coefficients(self, count: int, size: int) -> np.ndarray:
        """The values of ``count`` random functions on j = 0..size-1, one
        ``complex128`` row each, from one block: row i holds the i-th
        :meth:`lattice_function` of ``count`` consecutive calls."""
        return self.symmetric_block(2 * count * size).view(complex).reshape(count, size)

    def lattice_functions(self, count: int, size: int) -> list:
        """``count`` consecutive :meth:`lattice_function` draws, one row each
        of one :meth:`coefficients` block."""
        return [LatticeFunction._from_items(enumerate(row))
                for row in self.coefficients(count, size).tolist()]

    def lattice_function(self, size: int) -> LatticeFunction:
        """Random function supported on j = 0..size-1 whose real and imaginary
        parts lie in [-1, 1); its values are Python ``complex``."""
        [f] = self.lattice_functions(1, size)
        return f
