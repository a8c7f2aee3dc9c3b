"""Exact square matrices over Q or F_p, and one elimination routine.

A matrix is int rows over one denominator D (D = 1 mod p), so its
determinant in either field is Bareiss elimination (fraction-free, exact
over Z, its entries bounded by minors) run on the stored numerators: taken
mod p, or divided by D^n over Q.  ``rref`` is the single Gauss-Jordan
reduction, over F_p (p prime) or Q (p = 0); ranks and inverses are read off
its output (``sonb.search`` cuts the Gram matrices of its constraint kernels
one constraint at a time with ``sonb._cut``, and the kernels of the found
path with ``sonb._restrict``, instead).  No floating point anywhere: a float
entry raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import isqrt, lcm
from operator import mul

from .intpoly import _common_denominator, _lowest_terms


def is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


class ExactMatrix:
    """Immutable square matrix over Q (modulus 0) or F_p (modulus a prime).

    Stored as int rows over one positive denominator in lowest terms; mod p
    as residues in [0, p) over 1, an entry a/b being a * b^(-1) (p | b
    raises).  ``rows`` gives Fractions over Q and the residues mod p.
    """

    __slots__ = ("_num", "_den", "modulus")

    def __init__(self, rows, modulus: int = 0):
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        if modulus and not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        num, den = _common_denominator(chain.from_iterable(rows))
        if modulus:
            if den % modulus == 0:
                raise ValueError(f"an entry's denominator is divisible by {modulus}")
            scale = pow(den, -1, modulus)
            num, den = [x * scale % modulus for x in num], 1
        _make(num, den, modulus, self)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int, modulus: int = 0) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], modulus)

    @property
    def rows(self) -> tuple[tuple, ...]:
        if self.modulus:
            return self._num
        return tuple(tuple(Fraction(x, self._den) for x in r) for r in self._num)

    @property
    def size(self) -> int:
        return len(self._num)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Entries as plain ints; requires denominator-free entries."""
        if self._den != 1:
            raise ValueError("matrix has non-integer entries")
        return self._num

    def transpose(self) -> "ExactMatrix":
        return _make([x for col in zip(*self._num) for x in col], self._den, self.modulus)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.modulus, self._den, self._num) == (other.modulus, other._den, other._num)

    def __hash__(self):
        return hash((self._num, self._den, self.modulus))

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if other.modulus != self.modulus or other.size != self.size:
            raise ValueError("incompatible matrices")
        p = self.modulus
        cols = list(zip(*other._num))
        flat = [sum(map(mul, row, col)) for row in self._num for col in cols]
        return _make([x % p for x in flat] if p else flat, self._den * other._den, p)

    def apply(self, vector):
        """Matrix-vector product, reduced mod p when applicable."""
        if len(vector) != self.size:
            raise ValueError("vector length mismatch")
        p, den = self.modulus, self._den
        sums = (sum(map(mul, row, vector)) for row in self._num)
        return tuple(s % p if p else Fraction(s, den) for s in sums)

    def determinant(self):
        """Exact determinant by Bareiss: int mod p, Fraction in characteristic zero."""
        det = _det_bareiss([list(r) for r in self._num])
        return det % self.modulus if self.modulus else Fraction(det, self._den**self.size)

    def inverse(self) -> "ExactMatrix":
        """(N / D)^(-1) = D * N^(-1), with N^(-1) from ``rref`` of [N | I]."""
        n, den = self.size, self._den
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self._num)]
        reduced, pivots = rref(aug, 2 * n, self.modulus)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix([[x * den for x in r[n:]] for r in reduced], self.modulus)

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in r) for r in self.rows)
        tag = f", mod {self.modulus}" if self.modulus else ""
        return f"ExactMatrix([{body}]{tag})"


def _make(flat, den: int, modulus: int, self=None) -> ExactMatrix:
    """Row-major int entries over den > 0 as a matrix in lowest terms, set on ``self`` if given."""
    flat, den = _lowest_terms(flat, den)
    n = isqrt(len(flat))
    self = object.__new__(ExactMatrix) if self is None else self
    object.__setattr__(self, "_num", tuple(flat[i * n:i * n + n] for i in range(n)))
    object.__setattr__(self, "_den", den)
    object.__setattr__(self, "modulus", modulus)
    return self


def rref(rows, ncols: int, p: int):
    """Reduced row echelon form over F_p (p prime) or Q (p = 0).

    Entries are reduced mod p, or made Fractions when p = 0.  Returns the
    nonzero reduced rows and their pivot columns in increasing order.
    """
    if p:
        m = [[x % p for x in r] for r in rows]
    else:
        m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        for piv in range(r, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        row = m[r]
        lead = row[col]
        if lead != 1:
            if p:
                inv = pow(lead, -1, p)
                row = m[r] = [x * inv % p for x in row]
            else:
                row = m[r] = [x / lead for x in row]
        for i, other in enumerate(m):
            f = other[col]
            if f and i != r:
                m[i] = (
                    [(x - f * y) % p for x, y in zip(other, row)]
                    if p else [x - f * y for x, y in zip(other, row)]
                )
        pivots.append(col)
    return m[: len(pivots)], pivots


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


def _code_action(rows, p: int, work: int):
    """code(x) -> code(M x mod p) for the F_p matrix M with these rows (codes
    as in ``sonb.vector_code``), by Four Russians tables (Arlazarov, Dinic,
    Kronrod and Faradzev, 1970).  Each chunk of k input digits indexes its
    packed image sum x_j col_j, one w-bit field per output coordinate (w bits
    hold d(p-1)^2, so fields never carry), and each g packed fields index
    their base-p digits mod p.  k and g minimise work * lookups + table
    entries for about work calls, so small inputs get small tables.  The
    identity builds no tables.
    """
    if all(x % p == (i == j) for i, r in enumerate(rows) for j, x in enumerate(r)):
        return lambda code: code

    def sums(levels):  # every sum of one value per level, the first varying fastest
        return reduce(lambda table, values: [v + t for v in values for t in table], levels, [0])

    d = len(rows)
    w = (d * (p - 1) ** 2).bit_length()
    k = min(range(1, d + 1), key=lambda k: -(-d // k) * (work + p**k), default=1)
    g = min(range(1, d + 1), key=lambda g: -(-d // g) * work + (1 << g * w), default=1)
    cols = [sum(rows[i][j] % p << i * w for i in range(d)) for j in range(d)]
    tables = [sums([[x * c for x in range(p)] for c in cols[lo:lo + k]]) for lo in range(0, d, k)]
    digits = sums([[x % p * p**i for x in range(1 << w)] for i in range(g)])
    chunk, top, mask = p**k, p**g, (1 << g * w) - 1
    shifts = [i * w for i in reversed(range(0, d, g))]

    def act(code):
        packed = 0
        for table in tables:
            packed += table[code % chunk]
            code //= chunk
        out = 0
        for shift in shifts:
            out = out * top + digits[packed >> shift & mask]
        return out

    return act


def matrix_order(matrix: ExactMatrix, bound: int | None = None) -> int | None:
    """Smallest k >= 1 with matrix**k = identity, or None if none within bound.

    The order is the lcm of the cycle lengths of the unit vectors e_i, each
    walked until it returns (as a code through ``_code_action`` mod p, by
    ``apply`` over Q); None once a walk or the lcm passes bound.  The default
    bound mod p is 2 * p**size (a crude cap on the order of any element of
    GL_size(F_p) relevant here); in characteristic zero a bound must be
    supplied since orders can be infinite.
    """
    if matrix.determinant() == 0:
        raise ValueError("matrix is not invertible")
    p, n = matrix.modulus, matrix.size
    if bound is None:
        if p == 0:
            raise ValueError("an explicit bound is required in characteristic zero")
        bound = 2 * p**n
    step = _code_action(matrix.rows, p, n * n) if p else matrix.apply  # n walks of about n steps
    starts = [p**i for i in range(n)] if p else ExactMatrix.identity(n).rows
    order = 1
    for start in starts:
        x, length = step(start), 1
        while x != start:
            if length >= bound:
                return None
            x, length = step(x), length + 1
        order = lcm(order, length)
    return order if order <= bound else None
