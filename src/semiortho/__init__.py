"""Exact-arithmetic toolkit for Euler-pairing lattices.

Gram matrices of twisted line-bundle classes, exhaustive semi-orthonormal
basis search over finite fields, cyclotomic fixed-point traces, the
character theory of the order-21 group, and the classification table of
fake projective planes -- all in exact arithmetic, with a CLI that replays
and verifies the headline computations end to end.
"""

from .intpoly import IntValuedPolynomial
from .exactmat import ExactMatrix, matrix_order
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, root_of_unity
from .eulerform import (
    EQUIVARIANT_ROWS,
    EquivariantRow,
    GramMatrix,
    HilbertProfile,
    SerreOperator,
    equivariant_count_check,
    fake_projective_space,
    gram_from_twists,
    numerically_exceptional,
    orbifold_hh_dimension,
    profile_from_polynomial,
    projective_space,
    reduce_mod,
    serre_operator,
    wilson_fourfold,
)
from .sonb import (
    CandidateSet,
    FormSpace,
    SearchResult,
    enumerate_candidates,
    mutate,
    mutate_inverse,
    pairing_matrix,
    search,
    serre_orbits,
    verify_semi_orthonormal,
)
from .lefschetz import (
    FixedPointDatum,
    SectionBoundDeduction,
    canonical_trace,
    conjugate_branch,
    default_branch,
    h0_O2_vanishing,
    h0_trace,
    solve_hlfp0,
    twist_traces,
)
from .reptheory import (
    B,
    B_BAR,
    Character,
    GroupElement,
    IDENTITY,
    OMEGA,
    SIGMA,
    TAU,
    XI,
    character_table,
    classify_h0,
    class_sizes,
    conjugacy_class_count,
    conjugacy_classes,
    decompose,
    inner_product,
    irrep_dimensions,
    irreducible,
    regular_character,
)
from .atlas import (
    AtlasQueryResult,
    FPPRecord,
    k_phantom_eligible,
    k_phantom_pairs,
    load_records,
    dump_records,
    query_aut,
    three_torsion_free,
)

__version__ = "0.1.0"
