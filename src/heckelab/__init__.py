"""Hecke algebras of finite permutation-group pairs, rooted-tree
automorphism towers, and commutator-moment decay certificates."""

from .permgroup import (CosetIndex, DoubleCosetTable, PermGroup, Permutation,
                        r_index, symmetric_group)
from .treefam import TreeShape, ball_aut_group, closed_form_order, q_group, wreath_group
from .hecke import GelfandReport, HeckeElement, HeckePair, PairSpec
from .embed import (SCENARIOS, WreathScenario, check_commutation, embed_invariant,
                    embed_top, scenario_report)
from .witness import (SpectralData, WitnessCertificate, decay_table,
                      fejer_coefficients, haar_convergence_check, moment_table,
                      search_witness, unitary_from_selfadjoint, verify_certificate)
from .spheromorph import (AlmostAutomorphism, canonical_form, compose,
                          double_coset_key, inverse, is_in_level_subgroup)

__version__ = "0.1.0"
