"""The nonabelian group of order 21: elements, classes, characters.

G = < s, t | s^7 = 1, t^3 = 1, s t = t s^2 >.  Every element has the normal
form t^a s^u, and the presentation gives the multiplication rule
(t^a s^u)(t^b s^v) = t^(a+b) s^(u 2^b + v).

Character values live in Z[zeta_21], with omega = zeta_21^7 (the cube root)
and xi = zeta_21^3 (the seventh root) embedded in the single ring so every
comparison is exact.  The table itself is computed from explicit
representations -- the linear characters factor through the order-3
quotient, and the two three-dimensional ones come from monomial matrices --
rather than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .cyclotomic import Cyclotomic, root_of_unity

_N = 21

_XI_POWER = 3  # xi = zeta_21^3

OMEGA = root_of_unity(_N, 7)
XI = root_of_unity(_N, _XI_POWER)
B = XI + XI**2 + XI**4
B_BAR = B.conjugate()

IRREP_NAMES = ("C", "V1", "V1bar", "V3", "V3bar")


@dataclass(frozen=True)
class GroupElement:
    """Normal form t^a s^u with a mod 3, u mod 7."""

    a: int
    u: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % 3)
        object.__setattr__(self, "u", self.u % 7)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a + other.a, self.u * pow(2, other.a, 7) + other.u
        )

    def inverse(self) -> "GroupElement":
        a_inv = (-self.a) % 3
        return GroupElement(a_inv, -self.u * pow(2, a_inv, 7))

    def __pow__(self, e: int) -> "GroupElement":
        if e < 0:
            return self.inverse() ** (-e)
        acc = IDENTITY
        for _ in range(e):
            acc = acc * self
        return acc

    def conjugate_by(self, g: "GroupElement") -> "GroupElement":
        return g * self * g.inverse()

    def __str__(self):
        if self == IDENTITY:
            return "1"
        parts = []
        if self.a:
            parts.append("t" if self.a == 1 else f"t^{self.a}")
        if self.u:
            parts.append("s" if self.u == 1 else f"s^{self.u}")
        return "*".join(parts)


IDENTITY = GroupElement(0, 0)
SIGMA = GroupElement(0, 1)
TAU = GroupElement(1, 0)


def all_elements() -> tuple[GroupElement, ...]:
    return tuple(GroupElement(a, u) for a in range(3) for u in range(7))


@lru_cache(maxsize=1)
def conjugacy_classes() -> tuple[tuple[GroupElement, int], ...]:
    """(representative, size) pairs, computed by conjugation-orbit enumeration.

    Representatives are the canonical ones 1, s, s^3, t, t^2, in that order.
    """
    elements = all_elements()
    canonical = (IDENTITY, SIGMA, SIGMA**3, TAU, TAU**2)
    seen: set[GroupElement] = set()
    found: dict[GroupElement, int] = {}
    for e in elements:
        if e in seen:
            continue
        orbit = {e.conjugate_by(g) for g in elements}
        seen |= orbit
        reps = [c for c in canonical if c in orbit]
        if len(reps) != 1:
            raise AssertionError("class misses the canonical representative list")
        found[reps[0]] = len(orbit)
    return tuple((c, found[c]) for c in canonical)


def conjugacy_class_count(group: str) -> int:
    """Number of conjugacy classes of an equivariant row's group, from the group.

    G21's classes come from conjugation-orbit enumeration.  The trivial group
    and Z/k are abelian, so every element is its own class and the count is
    the group order.
    """
    if group == "G21":
        return len(conjugacy_classes())
    if group == "1":
        return 1
    if group.startswith("Z/"):
        return int(group[2:])
    raise ValueError(f"no conjugacy class count for group {group!r}")


def class_sizes() -> tuple[int, ...]:
    return tuple(size for _, size in conjugacy_classes())


def dimension_candidates(group_order: int, class_count: int) -> tuple[tuple[int, ...], ...]:
    """All nondecreasing tuples of divisors of the order whose squares sum to it."""
    divisors = [d for d in range(1, group_order + 1) if group_order % d == 0]
    return tuple(dims for dims in combinations_with_replacement(divisors, class_count)
                 if sum(d * d for d in dims) == group_order)


def irrep_dimensions() -> tuple[int, ...]:
    """The unique solution of the dimension equation for this group."""
    candidates = dimension_candidates(21, 5)
    if len(candidates) != 1:
        raise AssertionError(f"dimension equation not uniquely solvable: {candidates}")
    return candidates[0]


# -- characters --------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """A class function valued in Z[zeta_21], indexed by the class list."""

    name: str
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if len(self.values) != 5:
            raise ValueError("expected one value per conjugacy class")

    @property
    def degree(self) -> int:
        v = self.values[0]
        if not v.is_integer_value():
            raise ValueError("degree is not an integer")
        return int(v.as_rational())

    def __add__(self, other: "Character") -> "Character":
        return Character(
            f"{self.name}+{other.name}",
            tuple(a + b for a, b in zip(self.values, other.values)),
        )

    def scaled(self, k: int) -> "Character":
        return Character(
            f"{k}*{self.name}", tuple(v * k for v in self.values)
        )


def _zero3():
    return Cyclotomic.zero(_N)


def v3_matrix(element: GroupElement, conjugate: bool = False):
    """Monomial matrix of the three-dimensional representation at an element.

    rho(t^a s^u) = P^a diag(xi^u, xi^2u, xi^4u), where P is the cyclic
    permutation e_j -> e_(j+1) and xi is replaced by its conjugate when
    ``conjugate`` is set; entry (i, j) is nonzero exactly when i = j + a mod 3.
    """
    step = -_XI_POWER if conjugate else _XI_POWER
    diagonal = [root_of_unity(_N, step * element.u * 2**j) for j in range(3)]
    zero = _zero3()
    return tuple(
        tuple(diagonal[j] if i == (j + element.a) % 3 else zero for j in range(3))
        for i in range(3)
    )


def _trace3(m) -> Cyclotomic:
    return m[0][0] + m[1][1] + m[2][2]


@lru_cache(maxsize=1)
def character_table() -> tuple[Character, ...]:
    """The five irreducible characters, computed from explicit representations."""
    reps = [rep for rep, _ in conjugacy_classes()]
    one = Cyclotomic.one(_N)
    trivial = Character("C", tuple(one for _ in reps))
    linear = Character("V1", tuple(OMEGA ** g.a for g in reps))
    linear_bar = Character("V1bar", tuple(v.conjugate() for v in linear.values))
    three = Character("V3", tuple(_trace3(v3_matrix(g)) for g in reps))
    three_bar = Character(
        "V3bar", tuple(_trace3(v3_matrix(g, conjugate=True)) for g in reps)
    )
    return (trivial, linear, linear_bar, three, three_bar)


def irreducible(name: str) -> Character:
    for chi in character_table():
        if chi.name == name:
            return chi
    raise ValueError(f"unknown irreducible {name!r}; choose from {IRREP_NAMES}")


def inner_product(chi: Character, psi: Character) -> Fraction:
    """(1/21) sum over classes of size * chi * conj(psi), exactly."""
    total = _zero3()
    for (rep, size), a, b in zip(conjugacy_classes(), chi.values, psi.values):
        total = total + a * b.conjugate() * size
    return (total.as_rational()) / 21


def decompose(chi: Character) -> dict[str, Fraction]:
    """Multiplicities against the irreducible table (exact rationals)."""
    return {irr.name: inner_product(chi, irr) for irr in character_table()}


def regular_character() -> Character:
    values = [Cyclotomic.rational(_N, 21)] + [_zero3()] * 4
    return Character("regular", tuple(values))


@dataclass(frozen=True)
class H0Classification:
    verdict: str  # irreducible | sum-of-ones | inconsistent
    isomorphic_to: str | None


def classify_h0(dim: int, trace_at_sigma: Cyclotomic) -> H0Classification:
    """Classify a 3-dimensional representation by its trace at the order-7 class.

    Trace b or conj(b) identifies one of the irreducible three-dimensionals;
    trace 3 means a sum of three linear characters; anything else is not the
    trace of any 3-dimensional representation of this group at that class.
    """
    if dim != 3:
        raise ValueError("only dimension 3 is supported")
    trace = trace_at_sigma
    if trace.n != _N:
        trace = trace.lift_to(_N)
    if trace == B:
        return H0Classification("irreducible", "V3")
    if trace == B_BAR:
        return H0Classification("irreducible", "V3bar")
    if trace == Cyclotomic.rational(_N, 3):
        return H0Classification("sum-of-ones", None)
    return H0Classification("inconsistent", None)
