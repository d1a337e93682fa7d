"""Hopf rings whose comodules are chain complexes.

Exact, window-checked constructions over the integers: the Laurent
grading ring and its sign coelements, differential carriers and the
two-term Hopf ring they induce, the semidirect product of the two, the
Pareigis presentation it recovers, and the equivalence between bounded
chain complexes and comodules.
"""

__version__ = "0.1.0"

from .linalg import (
    UNIT, UNIT_SPACE, CheckResult, LinMap, Space, SpaceMismatch, Vec, atom,
    compose_maps, direct_sum_maps, equal_on_window, identity_map, left, pair,
    right, sum_space, tensor_maps, tensor_space,
)
from .laws import (
    Bimonoid, Coelement, Comodule, IllegalComodule, LawViolation,
    Report, check_bialgebra_laws, check_coelement, check_comodule_morphism,
    check_distributive_law, comodule_braiding, distributive_law_tau,
    plain_swap, tensor_comodule, verify,
)
from .grading import (
    Bicharacter, GradedModule, comodule_to_graded_projections,
    graded_to_comodule, laurent_hopf, sigma_space, sign_coelement,
)
from .diffhopf import (
    GradedCarrier, NotAdmissible, RankMismatch, brute_force_carrier_check,
    build_differential_hopf, check_differential_carrier, cyclic_tensor,
)
from .semidirect import (
    ComoduleBimonoid, SemidirectRing, WComodule, comparison_f,
    comparison_f_inverse, semidirect_antipode, semidirect_product,
    tensor_wcomodule,
)
from .chains import (
    Bicomplex, ChainComplex, ChainMap, IllegalChain, chain_symmetry,
    comonad_comparison, curry_adjunction, internal_hom, left_adjoint_complex,
    random_bicomplex, random_chain_map, random_complex, right_adjoint_complex,
    second_differential, tensor_chains, triangle_identities_hold,
    underlying_graded,
)
from .pareigis import (
    chain_to_comodule, comodule_to_chain, identify_semidirect, normalize_word,
    pareigis_ring, ring_by_name,
)
