from itertools import product

import pytest

from semiortho import (
    Cyclotomic,
    FixedPointDatum,
    canonical_trace,
    conjugate_branch,
    default_branch,
    h0_O2_vanishing,
    h0_trace,
    root_of_unity,
    solve_hlfp0,
    twist_traces,
)

B7 = root_of_unity(7, 1) + root_of_unity(7, 2) + root_of_unity(7, 4)
B7_BAR = B7.conjugate()


def test_solution_set():
    sols = solve_hlfp0()
    assert sols == ((1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6))


def test_solution_set_closure_properties():
    sols = set(solve_hlfp0())
    assert len(sols) == 6
    for a, b in sols:
        assert tuple(sorted((2 * a % 7, 2 * b % 7))) in sols  # doubling
        assert tuple(sorted((-a % 7, -b % 7))) in sols  # conjugation
    # exactly two doubling orbits
    orbits = set()
    for pair in sols:
        orbit = set()
        cur = pair
        for _ in range(3):
            orbit.add(cur)
            cur = tuple(sorted((2 * cur[0] % 7, 2 * cur[1] % 7)))
        orbits.add(frozenset(orbit))
    assert len(orbits) == 2


def test_datum_validation():
    with pytest.raises(ValueError):
        FixedPointDatum(((0, 3), (0, 6), (0, 5)))
    with pytest.raises(ValueError):
        FixedPointDatum(((1, 3), (2, 6), (4, 4)))  # doubling broken
    datum = FixedPointDatum.from_first_pair(1, 3)
    assert datum.exponent_pairs == ((1, 3), (2, 6), (4, 5))


def test_canonical_exponents():
    assert canonical_trace(default_branch()) == (4, 1, 2)
    assert canonical_trace(conjugate_branch()) == (3, 6, 5)


def test_canonical_exponents_double():
    for a, b in solve_hlfp0():
        canon = canonical_trace(FixedPointDatum.from_first_pair(a, b))
        assert canon[1] == 2 * canon[0] % 7
        assert canon[2] == 4 * canon[0] % 7


def test_twist_exponents():
    table = twist_traces(default_branch())
    assert table.exponents == (6, 5, 3)
    for (a, b), t in zip(table.datum.exponent_pairs, table.exponents):
        assert 3 * t % 7 == (a + b) % 7
    assert [table.trace_exponent(i, 0) for i in range(3)] == [0, 0, 0]
    # k = 3 recovers the canonical exponents
    assert tuple(table.trace_exponent(i, 3) for i in range(3)) == (4, 1, 2)


def test_twist_consistency_for_all_solutions():
    for a, b in solve_hlfp0():
        datum = FixedPointDatum.from_first_pair(a, b)
        table = twist_traces(datum)
        for (ai, bi), t in zip(datum.exponent_pairs, table.exponents):
            assert 3 * t % 7 == (ai + bi) % 7


def test_twist_exponents_solve_three_t_for_every_datum():
    for a, b in product(range(1, 7), repeat=2):
        datum = FixedPointDatum.from_first_pair(a, b)
        table = twist_traces(datum)
        for (ai, bi), t in zip(datum.exponent_pairs, table.exponents):
            assert 3 * t % 7 == (ai + bi) % 7
        assert tuple(table.trace_exponent(i, 3) for i in range(3)) == canonical_trace(datum)


def test_trace_at_zero_is_one_for_every_solution():
    for a, b in solve_hlfp0():
        datum = FixedPointDatum.from_first_pair(a, b)
        assert h0_trace(datum, 0) == Cyclotomic.one(7)


def test_trace_at_four():
    assert h0_trace(default_branch(), 4) == B7_BAR
    assert h0_trace(conjugate_branch(), 4) == B7


def test_canonical_power_traces_fixed_by_doubling_automorphism():
    datum = default_branch()
    for m in (0, 1, 2):
        tr = h0_trace(datum, 3 * m)
        assert tr.galois(2) == tr


def test_normalized_rotation():
    datum = FixedPointDatum.from_first_pair(4, 5).normalized()
    assert datum.exponent_pairs[0] == (1, 3)
    conj = FixedPointDatum.from_first_pair(6, 4).normalized()
    assert tuple(sorted(conj.exponent_pairs[0])) == (1, 5)


def test_conjugate_datum():
    assert default_branch().conjugate().exponent_pairs == conjugate_branch().exponent_pairs


def test_deduction_with_three_sections():
    ded = h0_O2_vanishing(3)
    assert ded.delta_upper_bound == 2
    assert ded.zero_map_applied
    assert ded.delta == 0
    assert len(ded.steps) >= 2
    assert any("delta <= 2" in s for s in ded.steps)
    assert any("delta = 0" in s for s in ded.steps)


def test_deduction_with_no_sections():
    ded = h0_O2_vanishing(0)
    assert ded.delta == 0
    assert not ded.zero_map_applied


def test_deduction_bound_only_when_too_many_sections():
    ded = h0_O2_vanishing(9)
    assert ded.delta_upper_bound == 5
    assert ded.delta is None


def test_deduction_rejects_negative():
    with pytest.raises(ValueError):
        h0_O2_vanishing(-1)
