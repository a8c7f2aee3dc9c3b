import random
from fractions import Fraction

import pytest

from semiortho import IntValuedPolynomial, wilson_fourfold

from oracles import binomial_eval, random_int_valued_poly


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


@pytest.mark.parametrize("coeffs, message", [
    ((0, Fraction(1, 2)), "binomial-basis coefficient 1 is 1/2"),  # x/2
    ((Fraction(1, 3),), "binomial-basis coefficient 0 is 1/3"),  # 1/3
    ((0, 0, Fraction(1, 3)), "binomial-basis coefficient 1 is 1/3"),  # x^2/3
])
def test_non_integer_valued_rejection_message(coeffs, message):
    with pytest.raises(ValueError, match=f"^not integer valued: {message}$"):
        IntValuedPolynomial(coeffs)


def test_evaluation_matches_binomial_oracle():
    rng = random.Random(2026)
    for degree in range(21):
        for _ in range(4):
            coeffs = [rng.randrange(-30, 31) for _ in range(degree)]
            coeffs.append(rng.choice([c for c in range(-30, 31) if c]))
            poly = IntValuedPolynomial.from_binomial(coeffs)
            assert poly.degree == degree
            assert poly.binomial_coefficients() == tuple(coeffs)
            again = IntValuedPolynomial(poly.coeffs)
            assert again == poly and hash(again) == hash(poly)
            for k in range(-25, 26):
                want = binomial_eval(coeffs, k)
                assert want.denominator == 1
                assert poly(k) == want and again(k) == want
                assert sum(c * Fraction(k) ** j for j, c in enumerate(poly.coeffs)) == want


# coeffs, hash and repr of these polynomials, recorded from the Fraction-tuple
# implementation this representation replaced
PINNED = [
    (lambda: IntValuedPolynomial.zero(), (), 5740354900026072187,
     "IntValuedPolynomial(0)"),
    (lambda: IntValuedPolynomial((0, 1)), (0, 1), -1950498447580522560,
     "IntValuedPolynomial(1*x)"),
    (lambda: IntValuedPolynomial((0, Fraction(-1, 2), Fraction(1, 2))),
     (0, Fraction(-1, 2), Fraction(1, 2)), -4867355596253910672,
     "IntValuedPolynomial(-1/2*x + 1/2*x^2)"),
    (lambda: wilson_fourfold().polynomial,
     (1, Fraction(25, 4), Fraction(125, 8), Fraction(75, 4), Fraction(75, 8)),
     -8643273175405985106,
     "IntValuedPolynomial(1 + 25/4*x + 125/8*x^2 + 75/4*x^3 + 75/8*x^4)"),
    (lambda: IntValuedPolynomial.from_binomial([3, -2, 0, 5]),
     (3, Fraction(-1, 3), Fraction(-5, 2), Fraction(5, 6)), 6270960393949166011,
     "IntValuedPolynomial(3 + -1/3*x + -5/2*x^2 + 5/6*x^3)"),
    (lambda: IntValuedPolynomial.from_roots((1, 2, 3), Fraction(-1, 6)),
     (1, Fraction(-11, 6), 1, Fraction(-1, 6)), -3640290205385931211,
     "IntValuedPolynomial(1 + -11/6*x + 1*x^2 + -1/6*x^3)"),
    (lambda: IntValuedPolynomial((-7, 0, 0)), (-7,), 2740262691212781950,
     "IntValuedPolynomial(-7)"),
    (lambda: IntValuedPolynomial(("1", "3/2", "1/2")),
     (1, Fraction(3, 2), Fraction(1, 2)), 965939202654714622,
     "IntValuedPolynomial(1 + 3/2*x + 1/2*x^2)"),
]


@pytest.mark.parametrize("build, coeffs, hashed, text", PINNED)
def test_coeffs_hash_and_repr_pinned(build, coeffs, hashed, text):
    poly = build()
    assert poly.coeffs == coeffs
    assert all(type(c) is Fraction for c in poly.coeffs)
    assert hash(poly) == hashed
    assert repr(poly) == text
    assert poly == IntValuedPolynomial(coeffs)
    assert poly != IntValuedPolynomial(coeffs + (1,))


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
            assert sum(c * Fraction(k) ** j for j, c in enumerate(poly.coeffs)) == v


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


def test_float_coefficient_is_rejected():
    with pytest.raises(TypeError, match="exact rational"):
        IntValuedPolynomial([1, 0.5])
    with pytest.raises(TypeError, match="exact rational"):
        IntValuedPolynomial((0, 1)) * 2.0
    with pytest.raises(TypeError, match="exact rational"):
        IntValuedPolynomial.from_roots((1, 2), 0.5)
