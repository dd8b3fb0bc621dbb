"""Numerical machinery for simplicial and equivariant de Rham identities
on SO(4): nerve face maps, complex differentials, and randomized residual
checks for the degree-4 cochains built from Maurer-Cartan entries."""

from .matrixgroup import (BASIS_PAIRS, DIM, GroupPoint, Tangent, adjoint,
                          basis_element, basis_so4, commutator, exp_matrix,
                          exp_skew, identity_point, random_skew, s4_table,
                          sample_so4, skew_from_coords)
from .formcalc import (FD_STEP_DEFAULT, FormEval, SmoothMap, constant_form,
                       contract, entry, exterior_d, left_invariant_field,
                       matrix_wedge_square, mc_left, mc_right, pullback,
                       wedge, zero_form)
from .nerve import (CONJUGATION, TRIVIAL, BiFormEval, GroupAction,
                    d_double_prime, d_prime, d_triple_complex, degeneracy_ng,
                    face_ng, face_pg, face_map_ng, gamma)
from .cartanmodel import (CocycleSample, EquivariantForm, GradedForm,
                          cartan_d, equivariant_total_check,
                          fundamental_field)
from .eulercocycle import (e13_form, e22_form, eval_alpha, eval_E13,
                           eval_E22, eval_mu, mu_form, polynomial_path)
from .formdsl import FormDslError, FormSyntaxError, corpus_source, interpret, parse, pretty
from .harness import (CHECK_IDS, CheckConfig, CheckReport, list_checks,
                      run_all, run_check)

__version__ = "0.1.0"
