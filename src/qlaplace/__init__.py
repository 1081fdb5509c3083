"""Spectral theory of a second-order q-difference operator on q^(-2Z+).

Layers, bottom up:

* :mod:`qlaplace.qcore`      scalar q-series primitives;
* :mod:`qlaplace.lattice`    parameters, labels, the weighted lattice space;
* :mod:`qlaplace.laplace`    the operator in three equivalent realizations;
* :mod:`qlaplace.asc`        Al-Salam-Chihara polynomials and their measure;
* :mod:`qlaplace.spectral`   eigenfunctions, Plancherel measure, transforms;
* :mod:`qlaplace.fockoracle` brute-force trace oracle and summation identities;
* :mod:`qlaplace.verify`     named self-checks with pinned thresholds;
* :mod:`qlaplace.cli`        the ``qlaplace`` command-line front end.
"""

__version__ = "0.1.0"
