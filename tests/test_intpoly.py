import random
from fractions import Fraction

import pytest

from semiortho import IntValuedPolynomial, wilson_fourfold

from oracles import random_int_valued_poly


def test_wilson_values():
    poly = wilson_fourfold().polynomial
    assert poly(3) == 1426
    assert [poly(k) for k in range(5)] == [1, 51, 376, 1426, 3876]


def test_zero_polynomial():
    zero = IntValuedPolynomial.zero()
    assert zero(17) == 0
    assert zero.degree == -1
    assert zero.is_zero()


def test_closed_form_at_negative_argument():
    # (k-1)(k-2)/2 at k = -1: direct evaluation gives (-2)(-3)/2 = 3
    poly = IntValuedPolynomial.from_roots((1, 2), Fraction(1, 2))
    assert poly(-1) == 3
    assert poly(0) == 1
    assert poly(1) == 0 and poly(2) == 0


def test_non_integer_valued_rejected():
    with pytest.raises(ValueError):
        IntValuedPolynomial((0, Fraction(1, 2)))  # x/2
    with pytest.raises(ValueError):
        IntValuedPolynomial((Fraction(1, 3),))


def test_half_integer_coefficients_can_still_be_integer_valued():
    # x(x-1)/2 = binom(x, 2)
    poly = IntValuedPolynomial((0, Fraction(-1, 2), Fraction(1, 2)))
    assert [poly(k) for k in range(5)] == [0, 0, 1, 3, 6]


def test_binomial_basis_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))]
        poly = IntValuedPolynomial.from_binomial(coeffs)
        got = list(poly.binomial_coefficients())
        want = list(coeffs)
        while want and want[-1] == 0:
            want.pop()
        while got and got[-1] == 0:
            got.pop()
        assert got == want


def test_integrality_matches_direct_evaluation():
    rng = random.Random(11)
    for _ in range(50):
        poly = random_int_valued_poly(rng, rng.randrange(0, 7))
        for k in range(-10, 11):
            v = poly(k)
            assert isinstance(v, int)
            assert poly._eval_fraction(Fraction(k)) == v


def test_eval_poly_function():
    poly = IntValuedPolynomial((1, 1))
    assert poly(41) == 42


def test_from_roots_and_degree():
    poly = IntValuedPolynomial.from_roots((1, 2, 3), Fraction(-1, 6))
    assert poly.degree == 3
    assert poly.leading_coefficient == Fraction(-1, 6)
    assert poly(0) == 1


def test_arithmetic_operations():
    x = IntValuedPolynomial((0, 1))
    p = x * (x + 1) * Fraction(1, 2)  # binom(x+1, 2)
    assert [p(k) for k in range(4)] == [0, 1, 3, 6]
    q = p - p
    assert q.is_zero()
    assert (p + 1)(0) == 1
    assert (2 * p)(3) == 12


def test_scalar_multiple_breaking_integrality_rejected():
    x = IntValuedPolynomial((0, 1))
    with pytest.raises(ValueError):
        x * Fraction(1, 3)


def test_equality_and_hash():
    a = IntValuedPolynomial((1, 2, 1))
    b = IntValuedPolynomial.from_roots((-1, -1))
    assert a == b
    assert hash(a) == hash(b)
