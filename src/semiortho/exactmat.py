"""Exact square matrices over Q or F_p, and one elimination routine.

``rref`` is the single Gauss-Jordan reduction, over F_p (p prime) or Q
(p = 0); ranks, nullspaces, inverses and determinants mod p are read off
its output.  Determinants over Q are computed fraction-free instead, by
Bareiss elimination over the integers after clearing denominators row by
row, since its intermediate entries stay bounded by minors.  No floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class ExactMatrix:
    """Immutable square matrix over Q (modulus 0) or F_p (modulus a prime).

    Entries are Fractions in characteristic zero and ints in [0, p) mod p.
    """

    __slots__ = ("rows", "modulus")

    def __init__(self, rows, modulus: int = 0):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if modulus == 0:
            entries = tuple(tuple(Fraction(x) for x in r) for r in rows)
        else:
            if not is_prime(modulus):
                raise ValueError(f"modulus {modulus} is not prime")
            entries = tuple(tuple(int(x) % modulus for x in r) for r in rows)
        object.__setattr__(self, "rows", entries)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int, modulus: int = 0) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], modulus)

    @property
    def size(self) -> int:
        return len(self.rows)

    def is_integer(self) -> bool:
        if self.modulus:
            return True
        return all(x.denominator == 1 for r in self.rows for x in r)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Entries as plain ints; requires denominator-free entries."""
        if self.modulus:
            return self.rows
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return tuple(tuple(int(x) for x in r) for r in self.rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)), self.modulus)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.modulus == other.modulus and self.rows == other.rows

    def __hash__(self):
        return hash((self.rows, self.modulus))

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if other.modulus != self.modulus or other.size != self.size:
            raise ValueError("incompatible matrices")
        n = self.size
        p = self.modulus
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
                row.append(s % p if p else s)
            out.append(row)
        return ExactMatrix(out, p)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = ExactMatrix.identity(self.size, self.modulus)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def apply(self, vector):
        """Matrix-vector product, reduced mod p when applicable."""
        n = self.size
        if len(vector) != n:
            raise ValueError("vector length mismatch")
        p = self.modulus
        out = []
        for i in range(n):
            s = sum(self.rows[i][j] * vector[j] for j in range(n))
            out.append(s % p if p else s)
        return tuple(out)

    def determinant(self):
        """Exact determinant: int mod p, Fraction in characteristic zero."""
        if self.modulus:
            _, pivots, det = rref(self.rows, self.size, self.modulus)
            return det if len(pivots) == self.size else 0
        scale = Fraction(1)
        int_rows = []
        for r in self.rows:
            d = lcm(*(x.denominator for x in r)) if r else 1
            scale *= d
            int_rows.append([int(x * d) for x in r])
        return Fraction(_det_bareiss(int_rows)) / scale

    def inverse(self) -> "ExactMatrix":
        n = self.size
        aug = [list(r) + [1 if i == j else 0 for j in range(n)]
               for i, r in enumerate(self.rows)]
        reduced, pivots, _ = rref(aug, 2 * n, self.modulus)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix([r[n:] for r in reduced], self.modulus)

    def is_identity(self) -> bool:
        one = 1 % self.modulus if self.modulus else 1
        return all(
            x == (one if i == j else 0)
            for i, r in enumerate(self.rows)
            for j, x in enumerate(r)
        )

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in r) for r in self.rows)
        tag = f", mod {self.modulus}" if self.modulus else ""
        return f"ExactMatrix([{body}]{tag})"


def rref(rows, ncols: int, p: int):
    """Reduced row echelon form over F_p (p prime) or Q (p = 0).

    Entries are reduced mod p, or made Fractions when p = 0.  Returns the
    nonzero reduced rows, their pivot columns in increasing order, and the
    product of the pivots times the sign of the row swaps, which for a
    square matrix of full rank is its determinant.
    """
    if p:
        m = [[x % p for x in r] for r in rows]
    else:
        m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    scale = 1
    for col in range(ncols):
        r = len(pivots)
        for piv in range(r, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale = -scale
        lead = m[r][col]
        scale *= lead
        if p:
            inv = pow(lead, -1, p)
            row = m[r] = [x * inv % p for x in m[r]]
        else:
            row = m[r] = [x / lead for x in m[r]]
        for i, other in enumerate(m):
            f = other[col]
            if f and i != r:
                m[i] = (
                    [(x - f * y) % p for x, y in zip(other, row)]
                    if p else [x - f * y for x, y in zip(other, row)]
                )
        pivots.append(col)
    return m[: len(pivots)], pivots, scale % p if p else scale


def _det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def matrix_order(matrix: ExactMatrix, bound: int | None = None) -> int | None:
    """Smallest k >= 1 with matrix**k = identity, or None if none within bound.

    The default bound mod p is 2 * p**size (a crude cap on the order of any
    element of GL_size(F_p) relevant here); in characteristic zero a bound
    must be supplied since orders can be infinite.
    """
    d = matrix.determinant()
    if d == 0:
        raise ValueError("matrix is not invertible")
    if bound is None:
        if matrix.modulus == 0:
            raise ValueError("an explicit bound is required in characteristic zero")
        bound = 2 * matrix.modulus ** matrix.size
    acc = matrix
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = acc * matrix
    return None


def lattice_index_squared(gram: ExactMatrix) -> int | None:
    """Integer square root of |det| for an integer Gram matrix.

    A rank-n sublattice of a unimodular lattice with index m has Gram
    determinant +-m**2, so the return value is the candidate index of the
    unimodular overlattice.  Returns None when |det| is not a perfect
    square (no unimodular overlattice basis change can exist).
    """
    if gram.modulus != 0 or not gram.is_integer():
        raise ValueError("lattice index requires an integer Gram matrix")
    d = gram.determinant()
    if d == 0:
        raise ValueError("Gram matrix is singular")
    a = abs(int(d))
    r = isqrt(a)
    return r if r * r == a else None
