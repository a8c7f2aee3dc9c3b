import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from semiortho import (
    ExactMatrix,
    IntValuedPolynomial,
    gram_from_twists,
    lattice_index_squared,
    matrix_order,
    profile_from_polynomial,
    wilson_fourfold,
)
from semiortho.exactmat import _code_action, rref
from semiortho.sonb import _cut, _restrict, _roots, vector_code

from oracles import cofactor_determinant, random_int_valued_poly


def poly_matrix(poly, size):
    return ExactMatrix([[poly(j - i) for j in range(size)] for i in range(size)])


def test_monic_product_determinant():
    # P0 = (x+1)(x+2), n = 2: upper triangular with n! on the diagonal
    p0 = IntValuedPolynomial.from_roots((-1, -2))
    assert poly_matrix(p0, 3).determinant() == 8  # (2!)^3


def test_identity_determinant():
    assert ExactMatrix.identity(5).determinant() == 1
    assert ExactMatrix.identity(4, 7).determinant() == 1


def test_fractional_leading_coefficient_determinant():
    # degree 3 with p_3 = 5/6: det = (3! * 5/6)^4 = 625 regardless of the tail
    rng = random.Random(3)
    for _ in range(5):
        lower = [rng.randrange(-9, 10) for _ in range(3)]
        poly = IntValuedPolynomial.from_binomial(lower + [5])
        assert poly.leading_coefficient == Fraction(5, 6)
        mat = poly_matrix(poly, 4)
        assert mat.determinant() == 625
        assert cofactor_determinant(mat.int_rows()) == 625


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(20240)
    count = 0
    while count < 200:
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert ExactMatrix(rows).determinant() == cofactor_determinant(rows)
        count += 1


def test_determinant_matches_oracle_mod_p():
    rng = random.Random(555)
    for p in (2, 3, 5, 7):
        for _ in range(30):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            assert ExactMatrix(rows, p).determinant() == cofactor_determinant(rows, p)
    # singular mod p, not over Z: the integer elimination's det is reduced mod p
    for rows, p in [([[2, 0], [0, 1]], 2), ([[1, 2], [3, 1]], 5), ([[3, 1, 0], [0, 3, 1], [1, 0, 3]], 7)]:
        assert cofactor_determinant(rows) % p == 0 != cofactor_determinant(rows)
        assert ExactMatrix(rows, p).determinant() == 0 == cofactor_determinant(rows, p)


def test_determinant_matches_oracle_rational():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 5)
        rows = [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        mine = ExactMatrix(rows).determinant()
        oracle = cofactor_determinant([[Fraction(x) for x in r] for r in rows])
        assert mine == oracle


def test_determinant_identity_for_exact_degree():
    rng = random.Random(42)
    for _ in range(60):
        d = rng.randrange(1, 7)
        poly = random_int_valued_poly(rng, d)
        top = poly.binomial_coefficients()[-1]
        assert poly_matrix(poly, d + 1).determinant() == top ** (d + 1)


def test_determinant_zero_below_degree():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randrange(0, 5)
        poly = random_int_valued_poly(rng, d)
        size = d + 1 + rng.randrange(1, 3)
        assert poly_matrix(poly, size).determinant() == 0


def test_matrix_multiplication_and_inverse():
    rng = random.Random(5)
    for p in (0, 5):
        for _ in range(20):
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            m = ExactMatrix(rows, p)
            if m.determinant() == 0:
                with pytest.raises(ValueError):
                    m.inverse()
                continue
            assert (m * m.inverse()).is_identity()


def test_inverse_of_empty_matrix():
    for p in (0, 5):
        inv = ExactMatrix.identity(0, p).inverse()
        assert inv == ExactMatrix.identity(0, p) and inv.size == 0


def _minor_rank(rows, p):
    """Largest k with a nonzero k x k minor, by cofactor expansion."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                if cofactor_determinant([[rows[i][j] for j in cs] for i in rs], p):
                    return k
    return 0


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_rref_rank_and_nullspace_match_minor_oracle(p):
    rng = random.Random(1000 + p)
    forms = random.Random(2000 + p)  # the forms A, apart from the matrices

    def entry():
        return rng.randrange(-3, 4) if p else Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))

    shapes = [(1, 1), (1, 5), (2, 6), (3, 3), (3, 4), (4, 2), (4, 4), (5, 5)]
    for m, n in shapes:
        for trial in range(10):
            # a product of m x r and r x n factors has rank at most r
            r = 0 if trial == 0 else rng.randrange(1, min(m, n) + 1)
            left = [[entry() for _ in range(r)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(r)]
            rows = [[sum((a[k] * right[k][j] for k in range(r)), 0) for j in range(n)]
                    for a in left]
            if p:
                rows = [[x % p for x in row] for row in rows]
            reduced, pivots = rref(rows, n, p)
            rank = _minor_rank(rows, p)
            assert len(pivots) == len(reduced) == rank
            assert pivots == sorted(set(pivots))
            for i, (row, pc) in enumerate(zip(reduced, pivots)):
                assert row[pc] == 1
                assert all(other[pc] == 0 for k, other in enumerate(reduced) if k != i)
            if p:
                # cut the unit basis and the Gram matrix of a random form A by each row
                form = [[forms.randrange(p) for _ in range(n)] for _ in range(n)]
                basis, gram = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), form
                for w in rows:
                    c = [sum(a * b for a, b in zip(w, v)) for v in basis]
                    basis, gram = _restrict(basis, c, p), _cut(gram, c, p)
                assert len(basis) == n - rank
                assert all(sum(a * b for a, b in zip(w, v)) % p == 0
                           for v in basis for w in rows)
                assert not basis or _minor_rank(basis, p) == len(basis)
                assert [list(g) for g in gram] == [
                    [sum(u[i] * form[i][j] * v[j] for i in range(n) for j in range(n)) % p
                     for v in basis] for u in basis]
                if p**n <= 729:  # brute force over F_p^n: the node's decoded candidates
                    # are the nullspace vectors with (x, x) = 1, in increasing code order
                    kernel = sorted(
                        (v for v in product(range(p), repeat=n) if any(v)
                         and all(sum(a * b for a, b in zip(w, v)) % p == 0 for w in rows)),
                        key=lambda v: vector_code(v, p),
                    )
                    ones = [v for v in kernel if sum(
                        v[i] * form[i][j] * v[j] for i in range(n) for j in range(n)) % p == 1]
                    decoded = [
                        tuple(sum(tk * b[j] for tk, b in zip(t, basis)) % p for j in range(n))
                        for _, t in _roots(gram, p)] if basis else []
                    assert decoded == ones


def test_matrix_order_identity():
    assert matrix_order(ExactMatrix.identity(3, 2)) == 1
    assert matrix_order(ExactMatrix.identity(3), bound=10) == 1
    assert matrix_order(ExactMatrix.identity(0, 5)) == 1


def test_matrix_order_by_repeated_multiplication_oracle():
    for p in (2, 3, 5, 7, 0):
        _check_matrix_order_against_repeated_multiplication(p)


def _check_matrix_order_against_repeated_multiplication(p):
    rng = random.Random(77 + p)
    tested = 0
    while tested < 20:
        n = rng.randrange(1, 7)
        if p:
            if p**n > 800:  # keeps the oracle's repeated multiplication short
                continue
            m = ExactMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
            if m.determinant() == 0:
                continue
        else:
            # a signed permutation conjugated by a unimodular T has finite order over Q
            perm = rng.sample(range(n), n)
            m = ExactMatrix([[rng.choice((1, -1)) * (j == perm[i]) for j in range(n)]
                             for i in range(n)])
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    t = ExactMatrix([[int(r == c) + (r == i and c == j) * rng.choice((-2, -1, 1, 2))
                                      for c in range(n)] for r in range(n)])
                    m = t * m * t.inverse()
        acc = m
        expected = 1
        while not acc.is_identity():
            acc = acc * m
            expected += 1
        assert matrix_order(m, bound=expected) == expected
        assert matrix_order(m, bound=expected - 1) is None
        if p:
            assert matrix_order(m) == expected
        tested += 1


def test_matrix_order_bound_applies_to_the_lcm():
    # e_0, e_1 lie on a 2-cycle and e_2, e_3, e_4 on a 3-cycle: each walk is
    # within bound 5, but the order is lcm(2, 3) = 6
    rows = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    for p in (7, 0):
        assert matrix_order(ExactMatrix(rows, p), bound=5) is None
        assert matrix_order(ExactMatrix(rows, p), bound=6) == 6


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_code_action_matches_direct_product(p):
    """The table-driven action on codes against sum_j M_ij x_j mod p digit by
    digit: every code of the small spaces and sampled codes of the others,
    random, unreduced or negative, rank-one and zero rows, and tables from
    one digit per lookup (work 1) to whole-space chunks."""
    rng = random.Random(800 + p)
    for d in range(1, 13):
        codes = range(p**d) if p**d <= 300 else [rng.randrange(p**d) for _ in range(300)]
        u, v = [rng.randrange(p) for _ in range(d)], [rng.randrange(p) for _ in range(d)]
        matrices = [
            [[rng.randrange(p) for _ in range(d)] for _ in range(d)],
            [[rng.randrange(-3 * p, 3 * p) for _ in range(d)] for _ in range(d)],
            [[a * b for b in v] for a in u],
            [[0] * d for _ in range(d)],
        ]
        for rows in matrices:
            for work in (1, 300, 20_000):
                act = _code_action(rows, p, work)
                for code in codes:
                    x = [code // p**j % p for j in range(d)]
                    image = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
                    assert act(code) == sum(y * p**i for i, y in enumerate(image)), (rows, code)


def test_matrix_order_rotation_char_zero():
    rot = ExactMatrix([[0, -1], [1, 0]])
    assert matrix_order(rot, bound=10) == 4
    assert matrix_order(rot, bound=3) is None


def test_matrix_order_requires_bound_in_char_zero():
    with pytest.raises(ValueError):
        matrix_order(ExactMatrix([[2]]))


def test_matrix_order_rejects_singular():
    with pytest.raises(ValueError):
        matrix_order(ExactMatrix([[0]], 2))


def test_lattice_index_unimodular():
    assert lattice_index_squared(ExactMatrix([[1, 3], [0, 1]])) == 1


def test_lattice_index_square_determinants():
    # per-matrix determinant 225 (the degree value): index 15
    assert lattice_index_squared(ExactMatrix([[15, 0], [0, 15]])) == 15
    # degree 9 (a square of a canonical cube root): index 3
    assert lattice_index_squared(ExactMatrix([[3, 0], [0, 3]])) == 3


def test_lattice_index_wilson_gram():
    # the full 5x5 pairing matrix has determinant 225^5 = (15^5)^2
    gram = gram_from_twists(wilson_fourfold(), range(5))
    assert gram.determinant() == 225**5
    assert lattice_index_squared(gram.base) == 15**5


def test_lattice_index_not_a_square():
    assert lattice_index_squared(ExactMatrix([[2]])) is None


def test_lattice_index_errors():
    with pytest.raises(ValueError):
        lattice_index_squared(ExactMatrix([[0]]))
    with pytest.raises(ValueError):
        lattice_index_squared(ExactMatrix([[1, 0], [0, 1]], 3))
    with pytest.raises(ValueError):
        lattice_index_squared(ExactMatrix([[Fraction(1, 2)]]))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3, 4], [5, 6]])


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        ExactMatrix([[1]], 6)


def test_determinant_function_alias():
    m = ExactMatrix([[2, 1], [1, 1]])
    assert m.determinant() == 1


def test_gram_determinant_of_custom_profile():
    poly = IntValuedPolynomial.from_binomial([1, 2, 3])
    profile = profile_from_polynomial(poly)
    gram = gram_from_twists(profile, range(3))
    assert gram.determinant() == 3**3


def test_rational_entry_mod_p_is_a_times_the_inverse_of_b():
    assert ExactMatrix([[Fraction(1, 2)]], 3).rows == ((2,),)
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            a, b = rng.randrange(-50, 51), rng.choice([b for b in range(1, 30) if b % p])
            entry = rng.choice((Fraction(a, b), f"{a}/{b}"))
            (x,), = ExactMatrix([[entry]], p).rows
            assert 0 <= x < p and (x * b - a) % p == 0


def test_entry_with_denominator_divisible_by_p_is_rejected():
    with pytest.raises(ValueError, match="divisible by 3"):
        ExactMatrix([[Fraction(1, 3)]], 3)
    with pytest.raises(ValueError, match="divisible by 2"):
        ExactMatrix([[1, "5/6"], [0, 1]], 2)


@pytest.mark.parametrize("value, modulus", [(2.7, 3), (0.1, 0), (2.0, 0)])
def test_float_entry_is_rejected(value, modulus):
    with pytest.raises(TypeError, match="exact rational"):
        ExactMatrix([[value]], modulus)


def test_equal_entries_give_equal_matrices_and_hashes():
    for p in (0, 5):
        halves = (Fraction(2, 4), "1/2", Fraction(1, 2))
        same = [ExactMatrix([[half, 1], [0, "3/1"]], p) for half in halves]
        assert all(m == same[0] for m in same)
        assert len({hash(m) for m in same}) == 1
    assert ExactMatrix([["1/2"]], 3) == ExactMatrix([[2]], 3)
    assert ExactMatrix([[Fraction(1, 2)]]) != ExactMatrix([[1]])


def _fraction_product(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
                 for i in range(n))


def test_rational_matrices_against_fraction_oracles():
    """Sizes 0-6 with int, Fraction and "a/b" entries, a third of them
    singular, against cofactor expansion and a Fraction triple loop."""
    rng = random.Random(1010)

    def entry():
        a, b = rng.randrange(-6, 7), rng.randrange(1, 5)
        return rng.choice((a, Fraction(a, b), f"{a}/{b}"))

    singular = 0
    for trial in range(210):
        n = trial % 7
        raw = [[entry() for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:  # the last row a multiple of the first
            c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            raw[-1] = [str(Fraction(x) * c) for x in raw[0]]
        exact = tuple(tuple(Fraction(x) for x in r) for r in raw)
        m = ExactMatrix(raw)
        assert m.rows == exact
        assert ExactMatrix(m.rows, 0) == m and hash(ExactMatrix(m.rows, 0)) == hash(m)
        assert m.transpose().rows == tuple(zip(*exact))
        det = m.determinant()
        assert det == cofactor_determinant(exact)
        other = tuple(tuple(Fraction(entry()) for _ in range(n)) for _ in range(n))
        assert (m * ExactMatrix(other)).rows == _fraction_product(exact, other)
        if det:
            assert (m.inverse() * m).is_identity() and (m * m.inverse()).is_identity()
        else:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
    assert 40 <= singular <= 150
