"""Integer-valued polynomials with exact rational coefficients.

P over Q is integer valued when P(k) is an integer for every integer k;
equivalently, its coordinates in the binomial basis binom(x, 0), binom(x, 1),
... are all integers.  P is stored as integer coefficients N (constant term
first, trailing zeros stripped) over one positive denominator D, in lowest
terms, so equality compares a canonical form; ``coeffs`` gives the rational
values.  Evaluation is an integer Horner loop and one division by D.
Construction checks integrality: the forward differences of N(0), ...,
N(deg), which are D times the binomial coordinates, must be divisible by D.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm


def _as_fraction(value) -> Fraction:
    if isinstance(value, (int, str, Fraction)):  # Fraction last: its ABC check is slow
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _common_denominator(values) -> tuple[list[int], int]:
    """Exact values (``_as_fraction``) as int numerators over their least common denominator."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [_as_fraction(v) for v in values]
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _lowest_terms(num, den: int) -> tuple[tuple[int, ...], int]:
    """num / den (den > 0) with the common factor of all entries divided out."""
    g = gcd(den, *num)
    return (tuple(num) if g == 1 else tuple(c // g for c in num)), den // g


def _horner(num, k: int) -> int:
    acc = 0
    for c in reversed(num):
        acc = acc * k + c
    return acc


def _forward_differences(num) -> list[int]:
    """Delta^j N(0) for j = 0..deg: D times the binomial coordinates."""
    v = [_horner(num, k) for k in range(len(num))]
    for j in range(1, len(v)):
        for i in range(len(v) - 1, j - 1, -1):
            v[i] -= v[i - 1]
    return v


def _make(num: list[int], den: int, self=None) -> "IntValuedPolynomial":
    """num / den (den > 0), stripped, in lowest terms and checked integer
    valued; set on ``self`` if given."""
    while num and not num[-1]:
        num.pop()
    num, den = _lowest_terms(num, den)
    if den != 1:
        for j, c in enumerate(_forward_differences(num)):
            if c % den:
                raise ValueError(
                    f"not integer valued: binomial-basis coefficient {j} is {Fraction(c, den)}"
                )
    self = object.__new__(IntValuedPolynomial) if self is None else self
    object.__setattr__(self, "_num", num)
    object.__setattr__(self, "_den", den)
    return self


def _times_linear(num: list[int], r: int) -> list[int]:
    """The integer coefficients of num * (x - r)."""
    return [b - r * a for a, b in zip(num + [0], [0] + num)]


class IntValuedPolynomial:
    """A polynomial with rational coefficients and integer values on Z.

    ``coeffs[j]`` is the coefficient of ``x**j``.  Trailing zeros are
    stripped; the zero polynomial has an empty coefficient tuple and
    degree -1.  Raises ValueError at construction if the polynomial is not
    integer valued.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        _make(*_common_denominator(coeffs), self)

    def __setattr__(self, name, value):
        raise AttributeError("IntValuedPolynomial is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "IntValuedPolynomial":
        return cls(())

    @classmethod
    def from_binomial(cls, binomial_coeffs) -> "IntValuedPolynomial":
        """Build from integer coordinates in the basis binom(x, k)."""
        cs = [int(c) for c in binomial_coeffs]
        den = factorial(max(len(cs) - 1, 0))
        # binom(x, k) = x(x-1)...(x-k+1) / k!, put over the common den
        out, term = [0] * len(cs), [1]
        for k, c in enumerate(cs):
            scale = c * (den // factorial(k))
            for i, t in enumerate(term):
                out[i] += scale * t
            term = _times_linear(term, k)
        return _make(out, den)

    @classmethod
    def from_roots(cls, roots, scale=1) -> "IntValuedPolynomial":
        """scale * prod (x - r) over the given integer roots."""
        scale = _as_fraction(scale)
        num = [scale.numerator]
        for r in roots:
            num = _times_linear(num, int(r))
        return _make(num, scale.denominator)

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._num[-1], self._den) if self._num else Fraction(0)

    def is_zero(self) -> bool:
        return not self._num

    def __call__(self, k: int) -> int:
        """Evaluate at an integer; the result is an exact int."""
        acc = _horner(self._num, int(k))
        q, r = divmod(acc, self._den)
        if r:
            raise ArithmeticError(f"integrality invariant violated at {k}: {Fraction(acc, self._den)}")
        return q

    def binomial_coefficients(self) -> tuple[int, ...]:
        return tuple(c // self._den for c in _forward_differences(self._num))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        pairs = zip_longest(self._num, other._num, fillvalue=0)
        return _make([a * sa + b * sb for a, b in pairs], den)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, IntValuedPolynomial):
            out = [0] * (len(self._num) + len(other._num) - 1)
            for i, x in enumerate(self._num):
                if x:
                    for j, y in enumerate(other._num):
                        out[i + j] += x * y
            return _make(out, self._den * other._den)
        scalar = _as_fraction(other)
        return _make([scalar.numerator * c for c in self._num], self._den * scalar.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IntValuedPolynomial):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = [
            str(c) if j == 0 else f"{c}*x" if j == 1 else f"{c}*x^{j}"
            for j, c in enumerate(self.coeffs) if c
        ]
        return f"IntValuedPolynomial({' + '.join(terms) or 0})"


def _coerce(value) -> IntValuedPolynomial:
    if isinstance(value, IntValuedPolynomial):
        return value
    return IntValuedPolynomial([value])
