"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is an integer vector in the power basis 1, zeta, ...,
zeta^(phi(n)-1) over one positive common denominator, in lowest terms, so
equality compares a canonical form; ``coeffs`` gives the rational values.
Reduction uses one integral table per conductor, the rows x^k mod Phi_n
(monic) for k < n: a wide vector is folded by taking indices mod n
(zeta^n = 1), then adding each entry at k >= phi(n) through its row.
Products are schoolbook integer products and a fold.  Division multiplies by
the nontrivial Galois conjugates, whose product with the divisor is its norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intpoly import _common_denominator, _lowest_terms


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first: (x^n - 1) divided
    by Phi_d for every proper divisor d of n, each division exact over Z."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:  # divide by the monic Phi_d
            den = cyclotomic_polynomial(d)
            quotient = [0] * (len(poly) - len(den) + 1)
            for i in reversed(range(len(quotient))):
                q = quotient[i] = poly[i + len(den) - 1]
                for j, c in enumerate(den):
                    poly[i + j] -= q * c
            if any(poly):
                raise ArithmeticError("nonzero remainder in cyclotomic division")
            poly = quotient
    return tuple(poly)


@lru_cache(maxsize=None)
def _table(n: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi(n), rows): the nonzero (j, c_j) of x^k mod Phi_n, phi(n) <= k < n."""
    ph = cyclotomic_polynomial(n)
    d = len(ph) - 1
    rows, row = [], [0] * (d - 1) + [1]  # x^(d-1)
    for _ in range(d, n):
        top = row[-1]
        row = [-top * ph[0]] + [c - top * p for c, p in zip(row, ph[1:d])]
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
    return d, tuple(rows)


def _fold(n: int, wide: list[int]) -> list[int]:
    """Reduce an integer vector of any length modulo Phi_n."""
    d, rows = _table(n)
    v = wide[:n] + [0] * (n - len(wide))
    for i, c in enumerate(wide[n:]):
        v[i % n] += c
    out = v[:d]
    for c, row in zip(v[d:], rows):
        if c:
            for j, t in row:
                out[j] += c * t
    return out


def _make(n: int, num: list[int], den: int, self=None) -> "Cyclotomic":
    """The element num/den (den > 0) in lowest terms, set on ``self`` if given."""
    num, den = _lowest_terms(num, den)
    self = object.__new__(Cyclotomic) if self is None else self
    object.__setattr__(self, "n", n)
    object.__setattr__(self, "_num", num)
    object.__setattr__(self, "_den", den)
    return self


class Cyclotomic:
    """An element of Q(zeta_n): ``_num / _den`` in the reduced power basis."""

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, coeffs):
        n = int(n)
        num, den = _common_denominator(coeffs)
        _make(n, _fold(n, num), den, self)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Cyclotomic":
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> "Cyclotomic":
        return cls(n, (1,))

    @classmethod
    def rational(cls, n: int, value) -> "Cyclotomic":
        return cls(n, (value,))

    # -- predicates and coercion -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    def is_integer_value(self) -> bool:
        return self.is_rational() and self._den == 1

    def lift_to(self, m: int) -> "Cyclotomic":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n = zeta_m^(m/n); needs n | m."""
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        wide = [0] * m
        wide[::m // self.n] = self._num + (0,) * (self.n - len(self._num))
        return _make(m, _fold(m, wide), self._den)

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                raise ValueError(f"conductor mismatch: {self.n} vs {other.n}; lift explicitly")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(self.n, other)
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self._den, o._den)
        a, b = den // self._den, den // o._den
        return _make(self.n, [a * x + b * y for x, y in zip(self._num, o._num)], den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, [-c for c in self._num], self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a rational factor goes in the outer loop, which skips zero terms
        x, y = (self._num, o._num) if any(o._num[1:]) else (o._num, self._num)
        out = [0] * (2 * len(x) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    out[j] += a * b
        return _make(self.n, _fold(self.n, out), self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = Cyclotomic.one(self.n)
        for bit in bin(e)[2:]:
            acc = acc * acc * self if bit == "1" else acc * acc
        return acc

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta -> zeta^k; k must be coprime to n."""
        if gcd(k, self.n) != 1:
            raise ValueError(f"{k} is not coprime to {self.n}")
        wide = [0] * self.n
        for i, c in enumerate(self._num):
            wide[i * k % self.n] = c
        return _make(self.n, _fold(self.n, wide), self._den)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.n - 1)

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        prod = Cyclotomic.one(self.n)
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                prod = prod * self.galois(k)
        return prod * (1 / (self * prod).as_rational())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic) and other.n != self.n and other.is_rational():
            other = other.as_rational()  # rational elements compare by value
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self._num[0], self._den) == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.n == other.n and self._num == other._num and self._den == other._den

    def __hash__(self):  # a rational element equals, so hashes as, its Fraction
        return hash(self.as_rational()) if self.is_rational() else hash((self.n, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            power = f"z{self.n}" if i == 1 else f"z{self.n}^{i}"
            sign = ("- " if c < 0 else "+ ") if terms else ("-" if c < 0 else "")
            terms.append(f"{sign}{mag}{power}")
        return " ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Cyclotomic({self.n}, {self})"


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in reduced power-basis form (k taken mod n)."""
    return _make(n, _fold(n, [0] * (k % n) + [1]), 1)
