import random
from fractions import Fraction
from math import gcd

import pytest

from semiortho import Cyclotomic, cyclotomic_polynomial, root_of_unity

from oracles import cyc_inverse, cyc_mul, cyc_reduce, cyc_str, cyc_substitute


def rand_elt(rng, n, allow_zero=True):
    while True:
        coeffs = [rng.randrange(-5, 6) for _ in range(len(cyclotomic_polynomial(n)) - 1)]
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
    # the added conductors have cyclic and non-cyclic unit groups and Galois
    # tower steps of order 2, 3 and 5 (n = 11); few draws keep the oracle quick
    added = [(n, 6) for n in (2, 4, 5, 8, 9, 11, 12, 15, 16, 20, 24)]
    for n, draws in [(1, 25), (3, 25), (7, 25), (21, 12), *added]:
        ks = [k for k in range(1, max(n, 2)) if gcd(k, n) == 1]
        for _ in range(draws):
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


def test_conductor_must_be_a_positive_integer():
    with pytest.raises(TypeError):
        Cyclotomic(7.9, [1, 2])
    with pytest.raises(TypeError):
        Cyclotomic("7", [1])
    with pytest.raises(TypeError):
        root_of_unity(7.0, 1)
    for bad in (0, -7):
        with pytest.raises(ValueError, match="conductor must be positive"):
            Cyclotomic(bad, [1])
        with pytest.raises(ValueError, match="conductor must be positive"):
            root_of_unity(bad, 1)
        with pytest.raises(ValueError, match="conductor must be positive"):
            Cyclotomic(7, [1]).lift_to(bad)
    with pytest.raises(TypeError):
        Cyclotomic(7, [1]).lift_to(21.0)


def _count_tower_work(monkeypatch, x):
    """(products of two irrational elements, Galois maps) made by x.inverse()."""
    counts = {"mul": 0, "galois": 0}
    mul, galois = Cyclotomic.__mul__, Cyclotomic.galois

    def counting_mul(a, b):
        if isinstance(b, Cyclotomic) and not a.is_rational() and not b.is_rational():
            counts["mul"] += 1
        return mul(a, b)

    def counting_galois(a, k):
        counts["galois"] += 1
        return galois(a, k)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counting_mul)
    monkeypatch.setattr(Cyclotomic, "galois", counting_galois)
    inverse = x.inverse()
    monkeypatch.undo()
    assert inverse * x == 1
    return counts["mul"], counts["galois"]


def test_inverse_climbs_a_galois_tower(monkeypatch):
    # the product of all phi(n) - 1 conjugates takes 11 and 11 in Q(zeta_21)
    rng = random.Random(18)
    for n, products, maps in ((21, 6, 4), (7, 4, 3)):
        for _ in range(3):
            x = rand_elt(rng, n, allow_zero=False)
            if not x.is_rational():
                used = _count_tower_work(monkeypatch, x)
                assert used[0] <= products and used[1] <= maps, (n, used)


def test_rational_factors_scale_like_the_oracle():
    rng = random.Random(31)
    for n in (1, 7, 21):
        for _ in range(6):
            x = rand_elt(rng, n)
            xo = x.coeffs
            k = rng.randrange(-9, 10)
            f = Fraction(rng.randrange(1, 9), -rng.randrange(2, 9))
            r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
            for factor, value in ((k, k), (f, f), (0, 0), (Cyclotomic.rational(n, r), r)):
                for product in (x * factor, factor * x):
                    assert type(product) is Cyclotomic
                    assert product.coeffs == cyc_mul(xo, (value,), n)
                    assert product._den > 0 and gcd(product._den, *product._num) == 1
            for divisor in (rng.choice((-3, 2, 5)), Fraction(-4, 3)):
                quotient = x / divisor
                assert quotient.coeffs == cyc_mul(xo, (1 / Fraction(divisor),), n)
                assert quotient._den > 0 and gcd(quotient._den, *quotient._num) == 1
            for zero in (0, Fraction(0), Cyclotomic.zero(n)):
                with pytest.raises(ZeroDivisionError):
                    x / zero
            with pytest.raises(TypeError):
                x * 0.5
            with pytest.raises(TypeError):
                0.5 * x
            with pytest.raises(TypeError):
                x / 2.0
            other = 3 if n == 1 else 1
            for mixed in (Cyclotomic.rational(other, 2), root_of_unity(other, 1)):
                with pytest.raises(ValueError, match="conductor mismatch"):
                    x * mixed
                with pytest.raises(ValueError, match="conductor mismatch"):
                    mixed * x


def test_rational_terms_add_like_the_oracle():
    # an int or Fraction term, on either side, moves only the constant
    # coefficient, and the result stays over a positive lowest denominator
    rng = random.Random(19)
    cases = []
    for n in (1, 7, 21):
        for _ in range(6):
            x = rand_elt(rng, n) / rng.choice((1, 3, 4))
            cases.append((x, (0, rng.randrange(-9, 10), Fraction(0, -5),
                              Fraction(rng.randrange(-9, 10), -rng.randrange(2, 9)))))

    for x, values in cases:
        xo, n = x.coeffs, x.n
        for value in values:
            plus = cyc_reduce([xo[0] + value, *xo[1:]], n)
            minus = cyc_reduce([xo[0] - value, *xo[1:]], n)
            for result, expected in ((x + value, plus), (value + x, plus), (x - value, minus),
                                     (value - x, tuple(-c for c in minus))):
                assert type(result) is Cyclotomic
                assert result.coeffs == expected
                assert result._den > 0 and gcd(result._den, *result._num) == 1
    for x, values in cases[::2]:  # a rational over an element is its inverse times it
        if not x.is_zero():
            inverse = cyc_inverse(x.coeffs, x.n)
            for value in values:
                quotient = value / x
                assert quotient.coeffs == cyc_mul(inverse, (value,), x.n)
                assert quotient._den > 0 and gcd(quotient._den, *quotient._num) == 1
    x = cases[-1][0]
    for call in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: 0.5 - x,
                 lambda: 0.5 / x):
        with pytest.raises(TypeError):
            call()
