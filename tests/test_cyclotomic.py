import random
from fractions import Fraction
from math import gcd

import pytest

from semiortho import Cyclotomic, cyclotomic_polynomial, root_of_unity

from oracles import cyc_inverse, cyc_mul, cyc_reduce, cyc_str, cyc_substitute


def rand_elt(rng, n, allow_zero=True):
    from semiortho.cyclotomic import euler_phi

    while True:
        coeffs = [rng.randrange(-5, 6) for _ in range(euler_phi(n))]
        x = Cyclotomic(n, coeffs)
        if allow_zero or not x.is_zero():
            return x


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    assert cyclotomic_polynomial(21) == (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1)


def test_root_of_unity_is_a_root():
    for n in (3, 7, 21):
        z = root_of_unity(n, 1)
        total = Cyclotomic.zero(n)
        for i, c in enumerate(cyclotomic_polynomial(n)):
            total = total + z**i * c
        assert total.is_zero()


def test_root_of_unity_basics():
    assert root_of_unity(7, 0) == Cyclotomic.one(7)
    assert root_of_unity(7, 9) == root_of_unity(7, 2)
    # zeta^6 reduced against 1 + x + ... + x^6
    assert root_of_unity(7, 6).coeffs == tuple(Fraction(-1) for _ in range(6))


def test_b_and_conjugate():
    b = root_of_unity(7, 1) + root_of_unity(7, 2) + root_of_unity(7, 4)
    bbar = b.conjugate()
    expected = root_of_unity(7, 3) + root_of_unity(7, 5) + root_of_unity(7, 6)
    assert bbar == expected
    assert b + bbar == -1
    assert b * bbar == 2


def test_ring_laws_on_seeded_triples():
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.choice((3, 7, 21))
        a, b, c = (rand_elt(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_galois_is_ring_automorphism():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.choice((7, 21))
        k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
        a, b = rand_elt(rng, n), rand_elt(rng, n)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_galois_identity_and_error():
    rng = random.Random(5)
    x = rand_elt(rng, 7)
    assert x.galois(1) == x
    with pytest.raises(ValueError):
        x.galois(7)
    with pytest.raises(ValueError):
        rand_elt(rng, 21).galois(6)


def test_division_by_self():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.choice((3, 7, 21))
        x = rand_elt(rng, n, allow_zero=False)
        assert x / x == Cyclotomic.one(n)


def test_divide_then_multiply_round_trip():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.choice((7, 21))
        a = rand_elt(rng, n)
        b = rand_elt(rng, n, allow_zero=False)
        assert (a * b) / b == a


def test_inverse_sum_over_galois_orbit():
    # sum over k = 1..6 of 1/(1 - zeta7^k) = 3
    one = Cyclotomic.one(7)
    total = Cyclotomic.zero(7)
    for k in range(1, 7):
        total = total + one / (one - root_of_unity(7, k))
    assert total == 3


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.one(7) / Cyclotomic.zero(7)


def test_rational_scalars_mix_in():
    z = root_of_unity(7, 1)
    x = 2 * z - Fraction(1, 2)
    assert x.coeffs[0] == Fraction(-1, 2)
    assert x.coeffs[1] == 2
    assert (x - x).is_zero()


def test_lift_to_larger_conductor():
    z7 = root_of_unity(7, 1)
    lifted = z7.lift_to(21)
    assert lifted == root_of_unity(21, 3)
    assert lifted**7 == Cyclotomic.one(21)
    b7 = z7 + root_of_unity(7, 2) + root_of_unity(7, 4)
    b21 = root_of_unity(21, 3) + root_of_unity(21, 6) + root_of_unity(21, 12)
    assert b7.lift_to(21) == b21
    with pytest.raises(ValueError):
        z7.lift_to(10)


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        root_of_unity(7, 1) + root_of_unity(21, 1)


def test_rational_detection():
    x = root_of_unity(7, 1) * 0 + Fraction(3, 4)
    assert x.is_rational()
    assert x.as_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        root_of_unity(7, 1).as_rational()


def test_power_negative_exponent():
    z = root_of_unity(7, 3)
    assert z**-1 == root_of_unity(7, 4)


def _random_input(rng, n):
    """Coefficients as ints, Fractions (some with negative denominators) and
    strings, sometimes longer than n, together with their Fraction values."""
    raw = []
    for _ in range(rng.choice((0, 1, n, 2 * n + 3, rng.randrange(1, 3 * n + 2)))):
        num, den = rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, -4, -5))
        kind = rng.randrange(4)
        if kind == 0:
            raw.append(num)
        elif kind == 1:
            raw.append(Fraction(num, den))
        elif kind == 2:
            raw.append(f"{num}/{abs(den)}")
        else:
            raw.append(str(num) if rng.randrange(2) else 0)
    return raw, [Fraction(c) for c in raw]


def test_arithmetic_against_independent_oracle():
    rng = random.Random(2024)
    for n in (1, 3, 7, 21):
        ks = [k for k in range(1, max(n, 2)) if gcd(k, n) == 1]
        for _ in range(12 if n == 21 else 25):
            (xr, xv), (yr, yv) = _random_input(rng, n), _random_input(rng, n)
            x, y = Cyclotomic(n, xr), Cyclotomic(n, yr)
            xo, yo = cyc_reduce(xv, n), cyc_reduce(yv, n)
            assert type(x.coeffs) is tuple
            assert all(type(c) is Fraction for c in x.coeffs)
            assert x.coeffs == xo and y.coeffs == yo
            assert str(x) == cyc_str(xo, n)
            if any(xo[1:]):
                assert hash(x) == hash((n, xo))
            else:  # equal values hash equal
                assert x == xo[0] and hash(x) == hash(xo[0])
            assert (x * y).coeffs == cyc_mul(xo, yo, n)
            if not y.is_zero():
                assert y.inverse().coeffs == cyc_inverse(yo, n)
            k = rng.choice(ks)
            assert x.galois(k).coeffs == cyc_substitute(xo, k, n)
            m = n * rng.choice((1, 2, 3))
            assert x.lift_to(m).coeffs == cyc_substitute(xo, m // n, m)


def test_rational_element_hashes_like_its_value():
    assert 3 in {Cyclotomic.rational(7, 3)}
    assert Cyclotomic.rational(21, Fraction(1, 2)) in {Fraction(1, 2)}
    assert {Cyclotomic.one(1), 1, Fraction(1)} == {1}
    assert hash(Cyclotomic(7, [0] * 6 + [1])) == hash(Cyclotomic(7, [-1] * 6))
    a, b = Cyclotomic.rational(7, 3), Cyclotomic.rational(21, 3)
    assert a == b and b == a
    assert len({a, b, 3}) == 1
    assert root_of_unity(7, 1) != root_of_unity(21, 3)  # equal only after lift_to(21)


def test_long_and_string_inputs_reduce_like_the_oracle():
    assert Cyclotomic(7, [0] * 13 + [1]) == root_of_unity(7, 6)
    assert Cyclotomic(7, [0] * 13 + [1]).coeffs == cyc_reduce([0] * 13 + [1], 7)
    x = Cyclotomic(21, ["3/2", Fraction(5, -4), -2] + [0] * 40 + ["7"])
    assert x.coeffs == cyc_reduce(["3/2", Fraction(5, -4), -2] + [0] * 40 + ["7"], 21)
    assert Cyclotomic(3, ["3/2"]) == Fraction(3, 2)
    assert str(Cyclotomic(7, ["-1/2", 0, Fraction(6, -4)])) == "-1/2 - 3/2*z7^2"
    assert str(Cyclotomic(7, [0, "-1", 0, 0, 0, 0, 0, 0, 0, 2])) == "-z7 + 2*z7^2"


def test_float_coefficient_is_rejected():
    with pytest.raises(TypeError, match="exact rational"):
        Cyclotomic(7, [0.1])
    with pytest.raises(TypeError, match="exact rational"):
        Cyclotomic.rational(21, 0.5)
