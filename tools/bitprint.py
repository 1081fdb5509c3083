"""Print one SHA-256 digest per output family of the library, so that two
trees can be compared bit for bit by comparing a few lines.

The families:

* ``battery-sweep``: ``repr(verify.run_battery(cfg))`` of the 108 sweep
  configurations, q in {0.01, 0.1, 0.3, 0.6, 0.9, 0.95} times the eight
  sweep sectors and (n, m, L, L') = (2, 2, 0, 0), at 128 and 256 nodes;
* ``transform-deep``: the forward values and the reconstructions of the
  J = 60 round trip at q = 0.5, (2, 4, 0, 2), 256 nodes, on sixteen inputs
  drawn by ``Lcg(1)``.

Arrays are hashed by dtype, shape and the value bytes of each ``longdouble``
component: the 80-bit x86 type is stored in 16 bytes, and its 6 padding
bytes may differ between numpy's loops for equal values, so only the first
10 are read.  From the repository root:

    PYTHONPATH=src python tools/bitprint.py

It only reports: the exit status is 0 whatever the digests.
"""

import hashlib
import itertools

import numpy as np

from qlaplace import spectral, verify
from qlaplace._rng import Lcg
from qlaplace.cli import RunConfig
from qlaplace.lattice import ModelParams, Sector

#: the (n, m, L, Lp) sectors of the battery's domain sweep
SWEEP_SECTORS = [(1, 2, 0, 0), (1, 3, 0, 2), (2, 2, 3, 0), (3, 5, 0, 4),
                 (2, 7, 1, 6), (4, 2, 2, 2), (1, 6, 0, 5), (5, 9, 0, 0)]
#: the sweep sectors, then the default
SECTORS = SWEEP_SECTORS + [(2, 2, 0, 0)]
SWEEP_Q = (0.01, 0.1, 0.3, 0.6, 0.9, 0.95)
SWEEP_NODES = (128, 256)

_LD = np.longdouble
#: bytes of a ``longdouble`` that hold its value: 10 for the x87 80-bit type
VALUE_BYTES = 10 if np.finfo(_LD).nmant == 63 else np.dtype(_LD).itemsize


def sweep_configs() -> list:
    return [RunConfig(q=q, n=n, m=m, L=L, Lp=Lp, quad_nodes=nodes)
            for q, (n, m, L, Lp), nodes in itertools.product(SWEEP_Q, SECTORS, SWEEP_NODES)]


def update(digest, values) -> None:
    """Feed ``values`` to ``digest``: dtype, shape, then its value bytes,
    each ``longdouble`` component cut to its first ``VALUE_BYTES`` bytes."""
    arr = np.ascontiguousarray(values)
    digest.update(f"{arr.dtype.str}{arr.shape}".encode())
    if arr.dtype in (_LD, np.clongdouble):
        arr = arr.view(np.uint8).reshape(-1, np.dtype(_LD).itemsize)[:, :VALUE_BYTES]
    digest.update(np.ascontiguousarray(arr).tobytes())


def battery_digest(configs) -> str:
    digest = hashlib.sha256()
    for cfg in configs:
        digest.update(repr(verify.run_battery(cfg)).encode() + b"\n")
    return digest.hexdigest()


def transform_digest(inputs: int = 16) -> str:
    params, sector, J = ModelParams(0.5, 2, 4), Sector(0, 2), 60
    measure = spectral.plancherel_measure(params, sector, 256)
    rng = Lcg(1)
    digest = hashlib.sha256()
    for f in [rng.lattice_function(J + 1) for _ in range(inputs)]:
        fhat = spectral.transform_grid(params, sector, f, measure)
        rec = spectral.inverse_transform_profile(params, sector, fhat, J)
        update(digest, fhat.continuous)
        update(digest, fhat.discrete)
        digest.update(repr(rec.support).encode())
        update(digest, np.array([rec[j] for j in rec.support], dtype=np.clongdouble))
    return digest.hexdigest()


def main() -> None:
    print(f"battery-sweep  {battery_digest(sweep_configs())}")
    print(f"transform-deep {transform_digest()}")


if __name__ == "__main__":
    main()
