from itertools import product

import pytest

from semiortho import (
    B,
    B_BAR,
    Cyclotomic,
    IDENTITY,
    OMEGA,
    SIGMA,
    TAU,
    XI,
    character_table,
    classify_h0,
    conjugacy_classes,
    decompose,
    inner_product,
    irrep_dimensions,
    irreducible,
    regular_character,
    root_of_unity,
)
from semiortho.reptheory import (
    all_elements,
    dimension_candidates,
    v3_matrix,
)


def test_group_axioms():
    elements = all_elements()
    assert len(elements) == 21
    for a, b, c in product(elements[:9], elements[:9], elements):
        assert (a * b) * c == a * (b * c)
    for g in elements:
        assert g * IDENTITY == g == IDENTITY * g
        assert g * g.inverse() == IDENTITY


def test_full_associativity():
    elements = all_elements()
    for a in elements:
        for b in elements:
            ab = a * b
            for c in elements:
                assert ab * c == a * (b * c)


def test_generator_orders_and_relation():
    assert [k for k in range(1, 8) if SIGMA**k == IDENTITY] == [7]
    assert [k for k in range(1, 4) if TAU**k == IDENTITY] == [3]
    assert TAU.inverse() * SIGMA * TAU == SIGMA * SIGMA  # t^-1 s t = s^2
    assert SIGMA * TAU == TAU * SIGMA**2


def test_conjugacy_classes():
    classes = conjugacy_classes()
    reps = [rep for rep, _ in classes]
    assert reps == [IDENTITY, SIGMA, SIGMA**3, TAU, TAU**2]
    assert [size for _, size in classes] == [1, 3, 3, 7, 7]
    assert sum(size for _, size in classes) == 21


def test_class_membership():
    def conjugacy_class_of(element):
        return {element.conjugate_by(g) for g in all_elements()}

    assert conjugacy_class_of(SIGMA) == {SIGMA, SIGMA**2, SIGMA**4}
    assert conjugacy_class_of(IDENTITY) == {IDENTITY}
    assert len(conjugacy_class_of(TAU)) == 7
    assert conjugacy_class_of(TAU) == {TAU * SIGMA**k for k in range(7)}


def test_irrep_dimensions_unique():
    assert irrep_dimensions() == (1, 1, 1, 3, 3)
    assert dimension_candidates(21, 5) == ((1, 1, 1, 3, 3),)


def test_dimension_candidates_abelian_control():
    assert dimension_candidates(5, 5) == ((1, 1, 1, 1, 1),)


def test_dimension_candidates_against_exhaustive_oracle():
    divisors = [d for d in range(1, 22) if 21 % d == 0]
    oracle = {
        tup
        for tup in product(divisors, repeat=5)
        if tup == tuple(sorted(tup)) and sum(d * d for d in tup) == 21
    }
    assert set(dimension_candidates(21, 5)) == oracle


def test_character_table_matches_printed_values():
    table = {chi.name: chi.values for chi in character_table()}
    one = Cyclotomic.one(21)
    zero = Cyclotomic.zero(21)
    omega_bar = OMEGA.conjugate()
    three = Cyclotomic.rational(21, 3)
    assert table["C"] == (one, one, one, one, one)
    assert table["V1"] == (one, one, one, OMEGA, omega_bar)
    assert table["V1bar"] == (one, one, one, omega_bar, OMEGA)
    assert table["V3"] == (three, B, B_BAR, zero, zero)
    assert table["V3bar"] == (three, B_BAR, B, zero, zero)


def test_b_is_the_quadratic_irrationality():
    # b + bbar = -1 and b * bbar = 2: the two roots of x^2 + x + 2
    assert B + B_BAR == -1
    assert B * B_BAR == 2
    assert OMEGA == root_of_unity(21, 7)
    assert XI == root_of_unity(21, 3)


def test_v3_matrices_satisfy_presentation():
    def mat_eq(x, y):
        return all(x[i][j] == y[i][j] for i in range(3) for j in range(3))

    for conjugate in (False, True):
        for g, h in product(all_elements(), repeat=2):
            assert mat_eq(
                v3_matrix(g * h, conjugate),
                _mul3(v3_matrix(g, conjugate), v3_matrix(h, conjugate)),
            )
    sigma_m = v3_matrix(SIGMA)
    assert sigma_m[0][0] == XI and sigma_m[1][1] == XI**2 and sigma_m[2][2] == XI**4


def test_v3_matrix_equals_generator_product():
    # rho(t^a s^u) = rho_t^a rho_s^u, built here by generic 3x3 products
    zero, one = Cyclotomic.zero(21), Cyclotomic.one(21)
    identity = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    rho_t = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    for conjugate in (False, True):
        xi = XI.conjugate() if conjugate else XI
        rho_s = ((xi, zero, zero), (zero, xi**2, zero), (zero, zero, xi**4))
        for g in all_elements():
            expected = identity
            for _ in range(g.a):
                expected = _mul3(expected, rho_t)
            for _ in range(g.u):
                expected = _mul3(expected, rho_s)
            assert v3_matrix(g, conjugate) == expected


def _mul3(x, y):
    return tuple(
        tuple(
            sum((x[i][k] * y[k][j] for k in range(3)), Cyclotomic.zero(21))
            for j in range(3)
        )
        for i in range(3)
    )


def test_v3_trace_at_tau_is_zero():
    m = v3_matrix(TAU)
    assert (m[0][0] + m[1][1] + m[2][2]).is_zero()


def test_degrees():
    assert [chi.degree for chi in character_table()] == [1, 1, 1, 3, 3]
    assert sum(chi.degree**2 for chi in character_table()) == 21


def test_orthogonality_all_pairs():
    table = character_table()
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_inner_product_values():
    v3 = irreducible("V3")
    assert inner_product(v3, v3) == 1
    assert inner_product(irreducible("C"), irreducible("V1")) == 0
    triple = irreducible("C") + irreducible("V1") + irreducible("V1bar")
    assert inner_product(triple, triple) == 3


def test_decompose_regular_character():
    mults = decompose(regular_character())
    assert mults == {"C": 1, "V1": 1, "V1bar": 1, "V3": 3, "V3bar": 3}


def test_decompose_round_trip():
    chi = irreducible("V3").scaled(2) + irreducible("C")
    mults = decompose(chi)
    assert mults == {"C": 1, "V1": 0, "V1bar": 0, "V3": 2, "V3bar": 0}


def test_classify_h0():
    assert classify_h0(3, B_BAR).verdict == "irreducible"
    assert classify_h0(3, B_BAR).isomorphic_to == "V3bar"
    assert classify_h0(3, B).isomorphic_to == "V3"
    assert classify_h0(3, Cyclotomic.rational(21, 3)).verdict == "sum-of-ones"
    assert classify_h0(3, root_of_unity(7, 1)).verdict == "inconsistent"
    with pytest.raises(ValueError):
        classify_h0(2, B)


def test_classify_h0_accepts_conductor_seven_input():
    b7 = root_of_unity(7, 1) + root_of_unity(7, 2) + root_of_unity(7, 4)
    assert classify_h0(3, b7.conjugate()).isomorphic_to == "V3bar"


def test_three_dim_sigma_traces_never_three():
    for chi in character_table():
        if chi.degree == 3:
            assert chi.values[1] in (B, B_BAR)
            assert chi.values[1] != Cyclotomic.rational(21, 3)


def test_no_faithful_two_dimensional_representation():
    # no 2-dimensional irreducible, and s lies in the kernel of every
    # linear character, so no sum of two of them is faithful either
    assert 2 not in irrep_dimensions()
    one = Cyclotomic.one(21)
    assert all(chi.values[1] == one for chi in character_table() if chi.degree == 1)
