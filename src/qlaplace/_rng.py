"""Deterministic random inputs for verification runs.

A 64-bit linear congruential generator with fixed constants, so any
implementation (in any language) reproduces the same test functions from the
same seed:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
    draw  =  (state >> 11) / 2^53   in [0, 1)

Values are drawn in document order: for a lattice function, real part then
imaginary part of the coefficient at j = 0, 1, 2, ...
"""

from __future__ import annotations

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

    def lattice_function(self, size: int) -> LatticeFunction:
        """Random function supported on j = 0..size-1 whose real and imaginary
        parts lie in [-1, 1)."""
        return LatticeFunction._from_items(
            (j, complex(self.symmetric(), self.symmetric())) for j in range(size))
