"""Holomorphic fixed-point arithmetic for an order-7 automorphism.

An automorphism of order 7 with three isolated fixed points P_1, P_2, P_3,
cyclically permuted by an order-3 companion, has tangent eigenvalue
exponents that double from one point to the next: the datum is fully
determined by the exponent pair (a, b) at P_1 via
(a_{i+1}, b_{i+1}) = (2 a_i, 2 b_i) mod 7.

The alternating trace of the automorphism on the cohomology of the k-th
twist equals the fixed-point sum

    sum_i  zeta^(k t_i) / ((1 - zeta^(a_i)) (1 - zeta^(b_i))),

where zeta = zeta_7 and t_i is the twist-trace exponent at P_i.  The k = 0
instance forces the sum of the bare local terms to equal 1, which pins the
possible exponent pairs down to two doubling orbits.  The canonical-bundle
exponent at P_i is a_i + b_i; since the canonical bundle is the third twist
power, t_i = 5 (a_i + b_i) mod 7 (5 being the inverse of 3 mod 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import Cyclotomic, root_of_unity

_CONDUCTOR = 7
_DOUBLING = (1, 2, 4)


@dataclass(frozen=True)
class FixedPointDatum:
    """Tangent exponent pairs ((a_i, b_i) mod 7) at the three fixed points."""

    exponent_pairs: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        pairs = self.exponent_pairs
        if len(pairs) != 3:
            raise ValueError("exactly three fixed points expected")
        for a, b in pairs:
            if a % 7 == 0 or b % 7 == 0:
                raise ValueError("tangent exponents must be nonzero mod 7")
        for (a, b), (a2, b2) in zip(pairs, pairs[1:]):
            if (2 * a - a2) % 7 or (2 * b - b2) % 7:
                raise ValueError("doubling relation violated")

    @classmethod
    def from_first_pair(cls, a: int, b: int) -> "FixedPointDatum":
        a %= 7
        b %= 7
        return cls(((a, b), (2 * a % 7, 2 * b % 7), (4 * a % 7, 4 * b % 7)))


def default_branch() -> FixedPointDatum:
    """The branch with first pair (1, 3); the conjugate branch is the other choice."""
    return FixedPointDatum.from_first_pair(1, 3)


def conjugate_branch() -> FixedPointDatum:
    return FixedPointDatum.from_first_pair(6, 4)


def _local_term(a: int, b: int, numerator: Cyclotomic) -> Cyclotomic:
    one = Cyclotomic.one(_CONDUCTOR)
    den = (one - root_of_unity(_CONDUCTOR, a)) * (one - root_of_unity(_CONDUCTOR, b))
    return numerator / den


@lru_cache(maxsize=1)
def solve_hlfp0() -> tuple[tuple[int, int], ...]:
    """All unordered exponent pairs whose doubling-orbit fixed-point sum is 1.

    Brute force over the 21 unordered pairs {a, b} in {1..6}, exact
    arithmetic in Q(zeta_7).  The result is closed under doubling and under
    conjugation and consists of two doubling orbits.
    """
    one = Cyclotomic.one(_CONDUCTOR)
    solutions = []
    for a in range(1, 7):
        for b in range(a, 7):
            total = Cyclotomic.zero(_CONDUCTOR)
            for m in _DOUBLING:
                total = total + _local_term(m * a % 7, m * b % 7, one)
            if total == one:
                solutions.append((a, b))
    return tuple(solutions)


def canonical_trace(datum: FixedPointDatum) -> tuple[int, int, int]:
    """Exponent of the action on the canonical line at each fixed point."""
    return tuple((a + b) % 7 for a, b in datum.exponent_pairs)


def twist_traces(datum: FixedPointDatum) -> tuple[int, int, int]:
    """Per-point exponents t_i with trace on the k-th twist = zeta^(k t_i),
    derived from the datum: t_i = 5 (a_i + b_i), so 3 t_i = a_i + b_i mod 7."""
    return tuple(5 * c % 7 for c in canonical_trace(datum))


def h0_trace(datum: FixedPointDatum, k: int) -> Cyclotomic:
    """Alternating cohomology trace of the automorphism on the k-th twist.

    Computed as the exact fixed-point sum; when higher cohomology of the
    twist vanishes this is the trace on global sections.
    """
    total = Cyclotomic.zero(_CONDUCTOR)
    for (a, b), t in zip(datum.exponent_pairs, twist_traces(datum)):
        num = root_of_unity(_CONDUCTOR, k * t % 7)
        total = total + _local_term(a, b, num)
    return total


@dataclass(frozen=True)
class SectionBoundDeduction:
    """Outcome of the multiplication-map bound on h0 of the half twist.

    With delta = h0 of the half twist and h0_double = h0 of its square, the
    image of the multiplication map has dimension at least 2 delta - 1, so
    delta <= floor((h0_double + 1) / 2).  When that bound keeps delta below
    3, the half-twist sections split into one-dimensional characters while
    the target is a three-dimensional irreducible, so the map is zero by
    Schur's lemma and the same bound with image 0 forces delta = 0.
    """

    h0_double: int
    delta_upper_bound: int
    zero_map_applied: bool
    delta: int | None
    steps: tuple[str, ...]


def h0_O2_vanishing(h0_double: int) -> SectionBoundDeduction:
    if h0_double < 0:
        raise ValueError("section count cannot be negative")
    steps = [f"given: h0 of the squared bundle = {h0_double}"]
    bound = (h0_double + 1) // 2
    steps.append(
        f"multiplication-image bound: 2*delta - 1 <= {h0_double} gives delta <= {bound}"
    )
    if h0_double == 0:
        steps.append("no sections downstream: delta = 0 immediately")
        return SectionBoundDeduction(h0_double, bound, False, 0, tuple(steps))
    if bound <= 2:
        steps.append(
            f"delta <= {bound} < 3: sections are sums of one-dimensional characters; "
            "the target is a three-dimensional irreducible, so the multiplication "
            "map vanishes (Schur)"
        )
        steps.append("zero image: 2*delta - 1 <= 0 forces delta = 0")
        return SectionBoundDeduction(h0_double, bound, True, 0, tuple(steps))
    steps.append("bound too weak to run the character argument")
    return SectionBoundDeduction(h0_double, bound, False, None, tuple(steps))
