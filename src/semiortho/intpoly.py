"""Integer-valued polynomials with exact rational coefficients.

A polynomial P over Q is integer valued when P(k) is an integer for every
integer k.  Equivalently, its coordinates in the binomial basis binom(x, 0),
binom(x, 1), ... are all integers.  That equivalent test is cheap (iterated
forward differences of P(0), P(1), ...) and is enforced here at construction
time, so evaluation can always return a plain int.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class IntValuedPolynomial:
    """A polynomial with rational coefficients and integer values on Z.

    ``coeffs[j]`` is the coefficient of ``x**j``.  Trailing zeros are
    stripped; the zero polynomial has an empty coefficient tuple and
    degree -1.

    Raises ValueError at construction if the polynomial is not integer
    valued.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        for k, c in enumerate(self._binomial_coefficients()):
            if c.denominator != 1:
                raise ValueError(
                    f"not integer valued: binomial-basis coefficient {k} is {c}"
                )

    def __setattr__(self, name, value):
        raise AttributeError("IntValuedPolynomial is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "IntValuedPolynomial":
        return cls(())

    @classmethod
    def from_binomial(cls, binomial_coeffs) -> "IntValuedPolynomial":
        """Build from integer coordinates in the basis binom(x, k)."""
        out = [Fraction(0)]
        for k, c in enumerate(binomial_coeffs):
            c = int(c)
            # binom(x, k) = x(x-1)...(x-k+1) / k!
            term = [Fraction(1)]
            for i in range(k):
                term = _mul([Fraction(-i), Fraction(1)], term)
            out = _add(out, [Fraction(c, factorial(k)) * t for t in term])
        return cls(out)

    @classmethod
    def from_roots(cls, roots, scale=1) -> "IntValuedPolynomial":
        """scale * prod (x - r) over the given integer roots."""
        out = [_as_fraction(scale)]
        for r in roots:
            out = _mul(out, [Fraction(-int(r)), Fraction(1)])
        return cls(out)

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def _eval_fraction(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, k: int) -> int:
        """Evaluate at an integer; the result is an exact int."""
        v = self._eval_fraction(Fraction(int(k)))
        if v.denominator != 1:
            raise ArithmeticError(f"integrality invariant violated at {k}: {v}")
        return int(v)

    def _binomial_coefficients(self):
        """Coordinates in the binomial basis, via forward differences at 0."""
        d = len(self.coeffs) - 1
        values = [self._eval_fraction(Fraction(k)) for k in range(d + 1)]
        out = []
        while values:
            out.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        return out

    def binomial_coefficients(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self._binomial_coefficients())

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return IntValuedPolynomial(_add(list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return IntValuedPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, IntValuedPolynomial):
            return IntValuedPolynomial(_mul(list(self.coeffs), list(other.coeffs)))
        scalar = _as_fraction(other)
        return IntValuedPolynomial([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IntValuedPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntValuedPolynomial(0)"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{j}")
        return f"IntValuedPolynomial({' + '.join(terms)})"


def _coerce(value) -> IntValuedPolynomial:
    if isinstance(value, IntValuedPolynomial):
        return value
    return IntValuedPolynomial([_as_fraction(value)])


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
