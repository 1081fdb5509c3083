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

from .asc import (AscParams, DegenerateParameterError, SpectralMeasure,
                  asc_hypergeometric, asc_recurrence, mass_points,
                  orthogonality_measure, orthogonality_residual,
                  orthogonality_residuals)
from .fockoracle import (FockIndex, diagonal_action, invariant_integral,
                         negative_block_sum, pochhammer_geometric_sum,
                         positive_block_sum, qbinomial_convolution)
from .laplace import (JacobiMatrix, apply_divergence_form, apply_three_term,
                      eigenvalue, jacobi_matrix, operator_norm_bound)
from .lattice import (LatticeFunction, ModelParams, Quadruple, Sector,
                      hwv_inner_product, hwv_pairing_constant,
                      indicator_norm_sq, inner_product,
                      invariant_integral_normalizer, measure_mass,
                      orthonormal_basis, sector_weight)
from .qcore import (ConvergenceError, bminus, bplus, jackson_integral, phi32,
                    phi32_info, qbinomial, qpoch, qpoch_inf)
from .spectral import (SpectralFunction, SpectralPoint, Spectrum, asc_params,
                       c_function, continuous_point, discrete_point,
                       eigenfunction, eigenfunction_profile, forward_transform,
                       inverse_transform, inverse_transform_profile,
                       orthonormal_polynomial, plancherel_measure,
                       point_from_exponent, spectrum, transform_grid)

__version__ = "0.1.0"
