"""The bit digests of tools/bitprint.py repeat run to run and read values
only, not the padding bytes of the 80-bit ``longdouble``."""

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest

BITPRINT = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "bitprint.py"))


def test_the_sweep_has_108_configs_and_a_subset_digest_repeats():
    configs = BITPRINT["sweep_configs"]()
    assert len(configs) == 108 == len({repr(c) for c in configs})
    subset = configs[:2]
    assert BITPRINT["battery_digest"](subset) == BITPRINT["battery_digest"](subset)
    assert BITPRINT["battery_digest"](subset) != BITPRINT["battery_digest"](subset[:1])


def _digest(values) -> str:
    digest = hashlib.sha256()
    BITPRINT["update"](digest, values)
    return digest.hexdigest()


@pytest.mark.skipif(BITPRINT["VALUE_BYTES"] == np.dtype(np.longdouble).itemsize,
                    reason="this longdouble has no padding bytes")
@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_equal_values_with_other_padding_hash_alike(dtype):
    values = (np.arange(12) / 7 - 0.5).astype(dtype).reshape(3, 4)
    if dtype is np.clongdouble:
        values = values * (1 - 2j)
    padded = values.copy()
    raw = padded.view(np.uint8).reshape(-1, np.dtype(np.longdouble).itemsize)
    raw[:, BITPRINT["VALUE_BYTES"]:] = 0xA5
    assert np.array_equal(padded, values) and padded.tobytes() != values.tobytes()
    assert _digest(padded) == _digest(values)
    moved = values.copy()
    moved.flat[5] = np.nextafter(moved.real.flat[5], np.inf)
    assert _digest(moved) != _digest(values)
    assert _digest(values.T) != _digest(values)
    assert _digest(values.astype(complex)) != _digest(values)
