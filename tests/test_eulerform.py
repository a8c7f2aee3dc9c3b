from fractions import Fraction

import pytest

from semiortho import (
    EQUIVARIANT_ROWS,
    EquivariantRow,
    ExactMatrix,
    chern_identity,
    conjugacy_class_count,
    equivariant_count_check,
    fake_projective_space,
    gram_from_twists,
    matrix_order,
    numerically_exceptional,
    orbifold_hh_dimension,
    profile_from_polynomial,
    projective_space,
    reduce_mod,
    serre_operator,
    wilson_fourfold,
)
from semiortho import eulerform
from semiortho.eulerform import GramMatrix, HilbertProfile
from semiortho.intpoly import IntValuedPolynomial
from semiortho import reference as ref


def test_fake_plane_closed_form():
    profile = fake_projective_space(2)
    poly = profile.polynomial
    assert [poly(k) for k in (-1, 0, 1, 2, 3)] == [3, 1, 0, 0, 1]
    assert poly.leading_coefficient == Fraction(1, 2)
    assert profile.deg == 1


def test_fake_line_profile():
    poly = fake_projective_space(1).polynomial
    assert poly(0) == 1
    assert [poly(k) for k in range(-2, 3)] == [3, 2, 1, 0, -1]  # 1 - k


def test_fake_p4_value():
    assert fake_projective_space(4).polynomial(-1) == 5


def test_wilson_profile():
    profile = wilson_fourfold()
    assert profile.dimension == 4
    assert profile.deg == 225
    poly = profile.polynomial
    assert poly(1) == 51
    assert poly(0) == 1
    for k in range(-10, 11):
        assert poly(k) == poly(-1 - k)


def test_wilson_mod2_period_eight():
    poly = wilson_fourfold().polynomial
    for k in range(-16, 9):
        assert poly(k) % 2 == poly(k + 8) % 2


def test_gram_projective_plane():
    gram = gram_from_twists(projective_space(2), (0, 1, 2))
    assert gram.base.int_rows() == ((1, 3, 6), (0, 1, 3), (0, 0, 1))


def test_gram_wilson_mod_2():
    gram = reduce_mod(gram_from_twists(wilson_fourfold(), range(5)), 2)
    assert gram.base.rows == ref.WILSON_GRAM_MOD2
    assert gram.p_divides_deg is False


def test_gram_fake_plane_descending_twists():
    gram = gram_from_twists(fake_projective_space(2), (0, -1, -2))
    assert gram.base.int_rows() == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    assert numerically_exceptional(gram)


def test_reduce_mod_three_flags_degree_divisor():
    gram = gram_from_twists(wilson_fourfold(), range(5))
    reduced = reduce_mod(gram, 3)
    assert reduced.p_divides_deg is True  # 225 = 3^2 * 5^2
    assert reduce_mod(gram, 2).p_divides_deg is False


def test_reduce_mod_requires_prime():
    gram = gram_from_twists(projective_space(1), (0, 1))
    with pytest.raises(ValueError):
        reduce_mod(gram, 6)
    with pytest.raises(ValueError):
        reduce_mod(reduce_mod(gram, 2), 2)


def test_reduce_of_already_reduced_entries_unchanged():
    gram = gram_from_twists(projective_space(2), (0, 1, 2))
    reduced = reduce_mod(gram, 7)
    assert reduced.base.rows == gram.base.int_rows()


def test_entry_law_enforced():
    profile = projective_space(1)
    good = gram_from_twists(profile, (0, 1))
    assert good.base.int_rows() == ((1, 2), (0, 1))
    # the entries are derived, so a matrix is no constructor argument, nor a modulus
    with pytest.raises((TypeError, ValueError)):
        GramMatrix(profile, (0, 1), ExactMatrix([[1, 3], [0, 1]]))


@pytest.mark.parametrize("twists", [(0, 1, 2, 3, 4), (0, -1, -2, -3, -4), (3, -2, 7, 0, 5)])
def test_entry_law_catches_one_tampered_entry(twists):
    # every entry is checked against P evaluated here, over Z and mod 5
    gram = gram_from_twists(wilson_fourfold(), twists)
    reduced = reduce_mod(gram, 5)
    for i in range(5):
        for j in range(5):
            want = gram.profile.polynomial(twists[j] - twists[i])
            assert gram.base.rows[i][j] == want
            assert reduced.base.rows[i][j] == want % 5


def test_entry_rows_evaluated_once_per_gram(monkeypatch):
    calls = []
    entry_rows = eulerform._entry_rows

    def counting(poly, twists):
        calls.append(twists)
        return entry_rows(poly, twists)

    monkeypatch.setattr(eulerform, "_entry_rows", counting)
    gram = gram_from_twists(wilson_fourfold(), range(5))
    assert len(calls) == 1
    reduce_mod(gram, 2)
    assert len(calls) == 2


def test_determinant_equals_deg_power():
    for profile in (
        projective_space(1),
        projective_space(3),
        fake_projective_space(2),
        fake_projective_space(5),
        wilson_fourfold(),
    ):
        n = profile.dimension
        gram = gram_from_twists(profile, range(n + 1))
        assert gram.determinant() == profile.deg ** (n + 1)


def test_wilson_determinant_value():
    gram = gram_from_twists(wilson_fourfold(), range(5))
    assert gram.determinant() == 225**5


def test_serre_operator_wilson_mod_2():
    gram = reduce_mod(gram_from_twists(wilson_fourfold(), range(5)), 2)
    op = serre_operator(gram)
    assert op.matrix.rows == ref.WILSON_SERRE_MOD2
    assert matrix_order(op.matrix) == 8


def test_serre_operator_of_symmetric_matrix_is_identity():
    poly = IntValuedPolynomial((2, 0, 1))  # x^2 + 2, even: P(j-i) symmetric
    profile = profile_from_polynomial(poly)
    gram = gram_from_twists(profile, (0, 1, 2))
    assert gram.base == gram.base.transpose()
    assert serre_operator(gram).matrix.is_identity()


def test_serre_operator_p3_mod_5():
    gram = reduce_mod(gram_from_twists(projective_space(3), range(4)), 5)
    op = serre_operator(gram)
    a, s = gram.base, op.matrix
    assert s.transpose() * a * s == a
    assert a * s == a.transpose()


def test_serre_operator_p2_mod_2_order():
    gram = reduce_mod(gram_from_twists(projective_space(2), range(3)), 2)
    s = serre_operator(gram).matrix
    # oracle: repeated multiplication
    acc, order = s, 1
    while not acc.is_identity():
        acc = acc * s
        order += 1
    assert matrix_order(s, 100) == order == 4


def test_serre_operator_rejects_singular():
    poly = IntValuedPolynomial((1, 1))  # degree 1 but used on a 3x3 grid
    profile = profile_from_polynomial(poly)
    gram = reduce_mod(gram_from_twists(profile, (0, 1, 2)), 3)
    assert gram.determinant() == 0
    with pytest.raises(ValueError, match="matrix is singular"):
        serre_operator(gram)


def test_numerically_exceptional_cases():
    assert numerically_exceptional(
        gram_from_twists(fake_projective_space(2), (0, -1, -2))
    )
    # 1 - x^2 vanishes at +-1, so twists (0, 1) give the identity matrix
    flat = profile_from_polynomial(IntValuedPolynomial((1, 0, -1)))
    identity_gram = gram_from_twists(flat, (0, 1))
    assert identity_gram.base.int_rows() == ((1, 0), (0, 1))
    assert numerically_exceptional(identity_gram)
    wilson = gram_from_twists(wilson_fourfold(), range(5))
    assert wilson.base.rows[1][0] == 1  # P(-1) = P(0) = 1 by duality
    assert not numerically_exceptional(wilson)


def test_numerically_exceptional_fake_pn_through_dimension_six():
    for n in range(1, 7):
        gram = gram_from_twists(fake_projective_space(n), range(0, -n - 1, -1))
        assert numerically_exceptional(gram)


def test_chern_identity_values():
    assert chern_identity(4) == 50
    assert chern_identity(1) == 2
    assert chern_identity(3) == 24


def test_equivariant_table_identity():
    assert len(EQUIVARIANT_ROWS) == 4
    for row in EQUIVARIANT_ROWS:
        assert equivariant_count_check(row)
        assert orbifold_hh_dimension(row.irrep_count) == 3 * row.irrep_count
        assert conjugacy_class_count(row.group) == row.irrep_count


def test_conjugacy_class_count():
    assert [conjugacy_class_count(g) for g in ("1", "Z/3", "Z/7", "G21")] == [1, 3, 7, 5]
    with pytest.raises(ValueError):
        conjugacy_class_count("S3")


def test_equivariant_rows_data():
    by_group = {row.group: row for row in EQUIVARIANT_ROWS}
    assert by_group["Z/7"].r_g == 9 and by_group["Z/7"].euler_char == 12
    assert by_group["1"].irrep_count == 1 and by_group["1"].euler_char == 3
    assert by_group["G21"].irrep_count == 5 and by_group["G21"].r_g == 3
    assert orbifold_hh_dimension(5) == 15
    assert orbifold_hh_dimension(1) == 3
    assert orbifold_hh_dimension(3) == 9 == by_group["Z/3"].euler_char


def test_equivariant_row_validation():
    with pytest.raises(ValueError):
        EquivariantRow("bad", 1, (), -1, 3, 1)
    with pytest.raises(ValueError):
        EquivariantRow("bad", 1, (), 0, 2, 1)


def test_failed_count_identity_detected():
    row = EquivariantRow("fake", 2, (), 0, 5, 1)
    assert not equivariant_count_check(row)


def test_profile_validation():
    with pytest.raises(ValueError):
        HilbertProfile("bad", 2, IntValuedPolynomial((1, 1)))  # degree mismatch
    with pytest.raises(ValueError):
        profile_from_polynomial(IntValuedPolynomial.zero())  # deg = 0
