"""Frozen reference values the replay pipelines verify against.

These are the published values of the computations this toolkit re-derives
from scratch; the reproduce commands and the regression suite compare
fresh computations entrywise against them.
"""

WILSON_CHI = (1, 51, 376, 1426, 3876)
WILSON_CHI_MOD2 = (1, 1, 0, 0, 0)

WILSON_GRAM_MOD2 = (
    (1, 1, 0, 0, 0),
    (1, 1, 1, 0, 0),
    (1, 1, 1, 1, 0),
    (0, 1, 1, 1, 1),
    (0, 0, 1, 1, 1),
)

WILSON_SERRE_MOD2 = (
    (1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
    (1, 0, 0, 0, 0),
)

WILSON_SERRE_ORDER = 8
WILSON_CANDIDATE_COUNT = 12
WILSON_ORBIT_SIZES = (8, 4)
WILSON_ORBIT_GENERATORS = ((1, 0, 0, 0, 0), (1, 0, 1, 0, 0))

# pairing matrix of the twelve candidates ordered orbit-by-orbit,
# each orbit from its generator under successive Serre applications
WILSON_PAIRING_12 = (
    (1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1),
    (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0),
    (0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0),
    (1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0),
    (1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
    (0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1),
    (0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1),
    (1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1),
)

WILSON_CHERN = (225, 150, 100, 50, 5)  # [c1^4, c2 c1^2, c2^2, c1 c3, c4]

# fixed-point solution set: the doubling orbits of {1,3} and {4,6}
HLFP0_SOLUTIONS = ((1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6))
CANONICAL_EXPONENTS = (4, 1, 2)
TWIST_EXPONENTS = (6, 5, 3)
CONJUGATE_CANONICAL_EXPONENTS = (3, 6, 5)

G21_CLASS_SIZES = (1, 3, 3, 7, 7)
G21_IRREP_DIMENSIONS = (1, 1, 1, 3, 3)

ATLAS_RECORD_COUNT = 50
ATLAS_SURFACE_COUNT = 100
ATLAS_G21_RECORDS = 3
ATLAS_G21_H1_ORDERS = (16, 8, 64)
ATLAS_K_PHANTOM_PAIRS = 4
