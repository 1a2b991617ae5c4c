"""Exact divisor theory on finite graphs.

Chip-firing ranks and reduced divisors, the banana-graph coset calculus,
extended affine permutations with Demazure products, transmission-permutation
certificates, and Brill-Noether generality certification, all in exact integer
arithmetic.
"""

from .banana import (BananaTuple, banana_rank, divisor_to_tuple,
                     inversion_lower_bound, predicted_tau, reduce_tuple)
from .certify import (CensusEntry, Certificate, ChainSpec, banana_strands,
                      bn_general_marked, bn_general_unmarked, chain_certify,
                      classify_banana, classify_genus2, divisor_census, rho,
                      theta_nonsubmodular_set)
from .divisors import (Divisor, ReducedForm, canonical_divisor, dhar_reduce,
                       enumerate_jacobian, is_reduced, linear_equivalent, rank,
                       support_complex)
from .errors import (AlgorithmError, ChipfireError, DegenerateMarksError,
                     EnumerationCapError, InvalidGraphError,
                     NonSubmodularError, SpecParseError, WrongShapeError)
from .graphs import (BananaSpec, Graph, MarkedGraph, build_banana, build_cycle,
                     build_general, build_theta, chain_glue, contract_bridges,
                     jacobian_order, vertex_glue)
from .perms import EafPerm, count_below, demazure, embed, inv_k, reduced_word, sci
from .transmission import (KgtCertificate, SubmodularityVerdict, TwistOrbit,
                           WeierstrassPartition, all_submodular, delta,
                           is_submodular_divisor, kgt_check, non_recurrent,
                           recurrence_witness, torsion_order,
                           transmission_permutation, twist_orbit,
                           weierstrass_partition)

__version__ = "0.1.0"
