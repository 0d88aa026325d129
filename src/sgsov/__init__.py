"""Separation-of-variables toolkit for the lattice sine-Gordon model in
finite cyclic representations.

The package builds the cyclic Weyl representation of the Yang-Baxter
algebra on a finite chain, constructs the separated eigenbasis of the B
family numerically, solves the transfer-matrix spectral problem through
Baxter difference equations, and evaluates scalar products and local
operator matrix elements by determinant formulas -- every formula checked
against brute-force dense linear algebra on the p^N state space.
"""

from .params import ModelParams, SgSovError, OddChain, DegenerateKappa
from .model_core import (OperatorLaurent, Monodromy, NotCentral,
                         weyl_generators, site_embed, lax_matrix, monodromy,
                         transfer, transfer_poly, theta_charge, rmatrix,
                         yang_baxter_residual, a_coeff, d_coeff, abar_coeff,
                         dbar_coeff, quantum_determinant,
                         quantum_determinant_product, average_lax,
                         average_monodromy, average_value, average_value_dense)
from .sov_basis import (SovGrid, SovBasis, SimplicityViolation,
                        DegenerateSpectrum, GaugeInconsistency, b_zeros,
                        build_sov_basis, kappa_index, inverse_kappa,
                        identity_resolution_sov, measure_weights_formula)
from .spectrum import (TransferEigenstate, EmptyNullspace, ZeroReference,
                       diagonalize_transfer, check_functional_equation,
                       extract_Q_grid, fit_Q_polynomial, qbar_from_q)
from .separate_states import (SeparateState, IncompleteSpectrum, materialize,
                              scalar_product_det, phi_moments, phi_general,
                              phi_matrix, eigen_action, eigen_action_table,
                              identity_resolution_T,
                              attach_q_data, eigenstate_separate_states,
                              eigen_dense, Solution, prepare)
from .local_ops import (SingularMatrix, ShiftedMonodromy, ElementaryOp,
                        ElementaryBasisElement, shifted_monodromy,
                        reconstruct_u, reconstruct_alpha0, reconstruct_beta,
                        reconstruct_v2k, q_number, q_factorial, q_multinomial,
                        binvA_power_sov, binvA_interpolation, elementary_O,
                        reduce_O_monomial, cyclic_shift_permutation,
                        spanning_rank, v2k_shift_sums)
from .form_factors import (FormFactorResult, ShiftUnavailable, ff_u, ff_u_table,
                           ff_elementary, npoint, shift_eigenvalue)
from .oracle import (ComparisonReport, direct_matrix_element, verify_suite,
                     verify_solution, reports_to_jsonl, DEFAULT_TOLERANCES)

__version__ = "0.1.0"
