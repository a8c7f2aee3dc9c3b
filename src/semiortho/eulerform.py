"""Euler-pairing Gram matrices built from Hilbert polynomials.

Conventions.  For a profile with Hilbert polynomial P and a twist sequence
(c_0, ..., c_r), the Gram matrix has entry(i, j) = P(c_j - c_i): the pairing
of the i-th object against the j-th.  With twists (0, 1, ..., n) this is the
matrix a_{i,j} = P(j - i), whose determinant is (n! p_n)^(n+1) for P of
degree exactly n.  A GramMatrix builds its entries from that law (mod p for
a prime modulus p) and derives from the profile whether p divides n! p_n.
A Gram matrix is numerically exceptional when its diagonal is 1 and every
entry below the diagonal vanishes.

The Serre operator of an invertible Gram matrix A is S = A^(-1) A^t.  It
satisfies (u, v) = (v, S u), hence A S = A^t and S^t A S = A.  Construction
verifies A S = A^t, which gives S^t A S = S^t A^t = (A S)^t = A.

Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .exactmat import ExactMatrix, is_prime
from .intpoly import IntValuedPolynomial
from .reptheory import conjugacy_classes


@dataclass(frozen=True)
class HilbertProfile:
    """A named Hilbert polynomial k -> chi(O(k)) with its dimension data."""

    name: str
    dimension: int
    polynomial: IntValuedPolynomial

    def __post_init__(self):
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")
        if self.polynomial.degree != self.dimension:
            raise ValueError(
                f"polynomial degree {self.polynomial.degree} != dimension {self.dimension}"
            )
        if self.deg == 0:
            raise ValueError("degree invariant n! * p_n must be nonzero")

    @property
    def deg(self) -> int:
        """n! times the leading coefficient; an integer for integer-valued P."""
        v = factorial(self.dimension) * self.polynomial.leading_coefficient
        if v.denominator != 1:
            raise ValueError("n! * p_n is not an integer")
        return int(v)


def projective_space(n: int) -> HilbertProfile:
    """chi(O(k)) = binom(k+n, n): roots at -1, ..., -n, value 1 at 0."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = IntValuedPolynomial.from_roots(range(-n, 0), Fraction(1, factorial(n)))
    return HilbertProfile(f"pn:{n}", n, poly)


def fake_projective_space(n: int) -> HilbertProfile:
    """chi(O(k)) = (-1)^n (k-1)(k-2)...(k-n)/n!: roots at 1..n, value 1 at 0."""
    if n < 1:
        raise ValueError("n must be positive")
    scale = Fraction((-1) ** n, factorial(n))
    poly = IntValuedPolynomial.from_roots(range(1, n + 1), scale)
    return HilbertProfile(f"fake-pn:{n}", n, poly)


def wilson_fourfold() -> HilbertProfile:
    """The dimension-4 profile with chi(O(l)) = 1 + (25/8) l(l+1)(3l^2+3l+2)."""
    x = IntValuedPolynomial((0, 1))
    inner = x * (x + 1) * (3 * x * x + 3 * x + 2)
    poly = inner * Fraction(25, 8) + 1
    return HilbertProfile("wilson", 4, poly)


def profile_from_polynomial(polynomial: IntValuedPolynomial, name: str = "custom") -> HilbertProfile:
    return HilbertProfile(name, max(polynomial.degree, 0), polynomial)


@dataclass(frozen=True)
class GramMatrix:
    """Euler-pairing matrix of twisted line-bundle classes, over Z or mod p.

    ``base`` is derived, never passed: entry(i, j) = P(c_j - c_i), mod p when
    the modulus is a prime p.  p_divides_deg is None over Z and says mod p
    whether p divides the profile degree (when it does, existence of a
    semi-orthonormal basis is no longer forced by unimodular descent).
    """

    profile: HilbertProfile
    twists: tuple[int, ...]
    modulus: int = 0
    base: ExactMatrix = field(init=False, compare=False)

    def __post_init__(self):
        twists = tuple(int(t) for t in self.twists)
        if not twists:
            raise ValueError("twist sequence must be nonempty")
        object.__setattr__(self, "twists", twists)
        rows = _entry_rows(self.profile.polynomial, twists)
        object.__setattr__(self, "base", ExactMatrix(rows, self.modulus))

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def p_divides_deg(self) -> bool | None:
        return self.profile.deg % self.modulus == 0 if self.modulus else None

    def determinant(self):
        return self.base.determinant()


def gram_from_twists(profile: HilbertProfile, twists) -> GramMatrix:
    return GramMatrix(profile, twists)


def _entry_rows(poly: IntValuedPolynomial, twists) -> tuple[tuple[int, ...], ...]:
    """Rows P(c_j - c_i), with one evaluation per distinct difference c_j - c_i."""
    values = {d: poly(d) for d in {cj - ci for ci in twists for cj in twists}}
    return tuple(tuple(values[cj - ci] for cj in twists) for ci in twists)


def reduce_mod(gram: GramMatrix, p: int) -> GramMatrix:
    """The same Gram matrix with entries mod a prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if gram.modulus:
        raise ValueError("Gram matrix is already reduced")
    return GramMatrix(gram.profile, gram.twists, p)


@dataclass(frozen=True)
class SerreOperator:
    """S = A^(-1) A^t for an invertible Gram matrix A.  A S = A^t is checked;
    it makes S an isometry, S^t A S = S^t A^t = (A S)^t = A."""

    matrix: ExactMatrix
    source: GramMatrix

    def __post_init__(self):
        a = self.source.base
        if a * self.matrix != a.transpose():
            raise ValueError("Serre relation A*S = A^t failed")


def serre_operator(gram: GramMatrix) -> SerreOperator:
    """S = A^(-1) A^t; ``inverse`` raises "matrix is singular" when A is not invertible."""
    a = gram.base
    return SerreOperator(a.inverse() * a.transpose(), gram)


def numerically_exceptional(gram: GramMatrix) -> bool:
    """Unit diagonal and vanishing pairings of later objects against earlier."""
    rows = gram.base.int_rows()  # residues mod p, so 1 is the unit there too
    return all(rows[i][j] == (i == j) for i in range(gram.size) for j in range(i + 1))


def chern_identity(n: int) -> int:
    """The Chern number c_1 c_(n-1) forced by projective-space Hodge data."""
    if n < 1:
        raise ValueError("n must be positive")
    v = n * (n + 1) ** 2
    assert v % 2 == 0
    return v // 2


# -- equivariant Hochschild counting ---------------------------------------

@dataclass(frozen=True)
class EquivariantRow:
    """Curated invariants of a quotient-surface resolution.

    r_g counts non-special stabilizer characters at the fixed points;
    euler_char is the topological Euler characteristic of the minimal
    resolution; both are shipped data, not derived here.
    """

    group: str
    irrep_count: int
    singularities: tuple[str, ...]
    r_g: int
    euler_char: int
    kodaira: int

    def __post_init__(self):
        if self.r_g < 0:
            raise ValueError("r_g must be nonnegative")
        if self.euler_char < 3:
            raise ValueError("Euler characteristic below 3 is impossible here")


EQUIVARIANT_ROWS: tuple[EquivariantRow, ...] = (
    EquivariantRow("1", 1, (), 0, 3, 2),
    EquivariantRow("Z/3", 3, ("1/3(1,2)",) * 3, 0, 9, 2),
    EquivariantRow("Z/7", 7, ("1/7(1,3)",) * 3, 9, 12, 1),
    EquivariantRow("G21", 5, ("1/3(1,2)",) * 3 + ("1/7(1,3)",), 3, 12, 1),
)


def equivariant_count_check(row: EquivariantRow) -> bool:
    """3 * #irreducibles == euler characteristic of resolution + r_g."""
    return 3 * row.irrep_count == row.euler_char + row.r_g


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


def orbifold_hh_dimension(conjugacy_class_count: int) -> int:
    """Total orbifold cohomology dimension: 3 per conjugacy class.

    Valid under the two standing hypotheses (trivial action on cohomology,
    three fixed points per nontrivial element); the caller asserts them.
    """
    if conjugacy_class_count < 1:
        raise ValueError("class count must be positive")
    return 3 * conjugacy_class_count
