"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
criterion asserts exact values (no tolerances: all arithmetic is exact) and
its own wall-clock budget.
"""

import random
import time

from semiortho import (
    Cyclotomic,
    ExactMatrix,
    FormSpace,
    canonical_trace,
    character_table,
    class_sizes,
    classify_h0,
    conjugacy_class_count,
    conjugate_branch,
    default_branch,
    dump_records,
    enumerate_candidates,
    equivariant_count_check,
    fake_projective_space,
    gram_from_twists,
    h0_O2_vanishing,
    h0_trace,
    inner_product,
    irrep_dimensions,
    load_default,
    load_records,
    k_phantom_pairs,
    matrix_order,
    numerically_exceptional,
    orbifold_hh_dimension,
    pairing_matrix,
    projective_space,
    query_aut,
    reduce_mod,
    root_of_unity,
    search,
    serre_operator,
    serre_orbits,
    solve_hlfp0,
    three_torsion_free,
    twist_traces,
    verify_semi_orthonormal,
    wilson_fourfold,
)
from semiortho import reference as ref
from semiortho.eulerform import EQUIVARIANT_ROWS
from semiortho.reptheory import B, B_BAR, OMEGA

from oracles import brute_force_sonb, random_int_valued_poly


def report(number, name, ok, budget, elapsed):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.3f}s < {budget}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.3f}s"


def test_criterion_1_determinant_identity():
    start = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        d = rng.randrange(1, 7)
        poly = random_int_valued_poly(rng, d)
        rows = [[poly(j - i) for j in range(d + 1)] for i in range(d + 1)]
        expected = poly.binomial_coefficients()[-1] ** (d + 1)
        ok = ok and ExactMatrix(rows).determinant() == expected
    for _ in range(50):
        d = rng.randrange(0, 6)
        poly = random_int_valued_poly(rng, d)
        size = d + 1 + rng.randrange(1, 3)
        rows = [[poly(j - i) for j in range(size)] for i in range(size)]
        ok = ok and ExactMatrix(rows).determinant() == 0
    report(1, "determinant-identity", ok, 5.0, time.perf_counter() - start)


def test_criterion_2_wilson_no_go():
    start = time.perf_counter()
    profile = wilson_fourfold()
    chi = tuple(profile.polynomial(k) for k in range(5))
    ok = chi == ref.WILSON_CHI
    ok = ok and tuple(v % 2 for v in chi) == ref.WILSON_CHI_MOD2

    gram = reduce_mod(gram_from_twists(profile, range(5)), 2)
    ok = ok and gram.base.rows == ref.WILSON_GRAM_MOD2

    op = serre_operator(gram)
    ok = ok and op.matrix.rows == ref.WILSON_SERRE_MOD2
    ok = ok and matrix_order(op.matrix) == 8

    space = FormSpace.from_gram(gram)
    cands = enumerate_candidates(space)
    ok = ok and len(cands) == 12

    orbits = serre_orbits(cands, op)
    ok = ok and tuple(len(o) for o in orbits) == (8, 4)
    ok = ok and tuple(o[0] for o in orbits) == ref.WILSON_ORBIT_GENERATORS

    ordered = [v for orbit in orbits for v in orbit]
    ok = ok and pairing_matrix(space, ordered) == ref.WILSON_PAIRING_12

    result = search(space)
    ok = ok and result.exhausted and result.nodes_explored < 10**6
    report(2, "wilson-no-go", ok, 1.0, time.perf_counter() - start)


def test_criterion_3_positive_controls():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        standard = tuple(
            tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1)
        )
        gram_z = gram_from_twists(projective_space(n), range(n + 1))
        ok = ok and verify_semi_orthonormal(FormSpace.from_gram(gram_z), standard)
        for p in (2, 3, 5, 7):
            space = FormSpace.from_gram(reduce_mod(gram_z, p))
            found = search(space).basis
            ok = ok and found == standard
    fake_plane = gram_from_twists(fake_projective_space(2), (0, -1, -2))
    ok = ok and numerically_exceptional(fake_plane)
    report(3, "positive-controls", ok, 1.0, time.perf_counter() - start)


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for p in (2, 3):
        rng = random.Random(1000 + p)
        for _ in range(20):
            d = rng.randrange(2, 6)
            rows = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
            space = FormSpace(d, p, rows)
            oracle_basis, _, _ = brute_force_sonb(rows, p, d)
            result = search(space)
            ok = ok and (oracle_basis is None) == result.exhausted
            if result.found:
                ok = ok and result.basis == oracle_basis
                ok = ok and verify_semi_orthonormal(space, result.basis)
    report(4, "oracle-equivalence", ok, 60.0, time.perf_counter() - start)


def test_criterion_5_lefschetz():
    start = time.perf_counter()
    ok = solve_hlfp0() == ref.HLFP0_SOLUTIONS
    datum = default_branch()
    ok = ok and canonical_trace(datum) == (4, 1, 2)
    ok = ok and twist_traces(datum).exponents == (6, 5, 3)
    ok = ok and h0_trace(datum, 0) == Cyclotomic.one(7)
    b7 = root_of_unity(7, 1) + root_of_unity(7, 2) + root_of_unity(7, 4)
    bbar7 = root_of_unity(7, 3) + root_of_unity(7, 5) + root_of_unity(7, 6)
    ok = ok and bbar7 == b7.conjugate()
    ok = ok and h0_trace(datum, 4) == bbar7
    ok = ok and h0_trace(conjugate_branch(), 4) == b7
    report(5, "lefschetz", ok, 1.0, time.perf_counter() - start)


def test_criterion_6_representation_theory():
    start = time.perf_counter()
    ok = class_sizes() == (1, 3, 3, 7, 7)
    ok = ok and irrep_dimensions() == (1, 1, 1, 3, 3)
    table = character_table()
    one = Cyclotomic.one(21)
    zero = Cyclotomic.zero(21)
    three = Cyclotomic.rational(21, 3)
    printed = {
        "C": (one, one, one, one, one),
        "V1": (one, one, one, OMEGA, OMEGA.conjugate()),
        "V1bar": (one, one, one, OMEGA.conjugate(), OMEGA),
        "V3": (three, B, B_BAR, zero, zero),
        "V3bar": (three, B_BAR, B, zero, zero),
    }
    ok = ok and {chi.name: chi.values for chi in table} == printed
    ok = ok and all(
        inner_product(a, b) == (1 if i == j else 0)
        for i, a in enumerate(table)
        for j, b in enumerate(table)
    )
    verdict = classify_h0(3, B_BAR)
    ok = ok and verdict.verdict == "irreducible" and verdict.isomorphic_to == "V3bar"
    report(6, "representation-theory", ok, 2.0, time.perf_counter() - start)


def test_criterion_7_equivariant_counting():
    start = time.perf_counter()
    ok = len(EQUIVARIANT_ROWS) == 4
    for row in EQUIVARIANT_ROWS:
        ok = ok and equivariant_count_check(row)
        ok = ok and orbifold_hh_dimension(row.irrep_count) == 3 * row.irrep_count
        ok = ok and conjugacy_class_count(row.group) == row.irrep_count
    report(7, "equivariant-counting", ok, 0.1, time.perf_counter() - start)


def test_criterion_8_atlas():
    start = time.perf_counter()
    records = load_default()
    ok = len(records) == 50
    g21 = query_aut(records, "G21")
    ok = ok and g21.surface_count == 6 and len(g21) == 3
    ok = ok and all(three_torsion_free(r) for r in g21.records)
    ok = ok and sorted(r.h1_order for r in g21.records) == [8, 16, 64]
    ok = ok and len(k_phantom_pairs(records)) == 4
    ok = ok and load_records(dump_records(records)) == records
    report(8, "atlas", ok, 0.5, time.perf_counter() - start)


def test_criterion_9_deduction_chain():
    start = time.perf_counter()
    ded = h0_O2_vanishing(3)
    ok = ded.delta_upper_bound == 2
    ok = ok and ded.zero_map_applied and ded.delta == 0
    ok = ok and any("delta <= 2" in step for step in ded.steps)
    ok = ok and any("Schur" in step for step in ded.steps)
    ok = ok and any("delta = 0" in step for step in ded.steps)
    report(9, "deduction-chain", ok, 0.1, time.perf_counter() - start)


def test_criterion_10_serre_search_and_candidates_scale():
    # A symmetric search must not enumerate the space, candidate enumeration
    # must walk p^(d-1) prefixes rather than all p^d vectors, and the orbit
    # partition must apply the operator by table lookups on codes.
    gram = reduce_mod(gram_from_twists(projective_space(6), range(7)), 7)
    start = time.perf_counter()
    result = search(FormSpace.from_gram(gram), symmetry=serre_operator(gram))
    ok = result.found and result.nodes_explored == 7
    report(10, "serre-search-pn6-mod7", ok, 1.0, time.perf_counter() - start)

    space = FormSpace.from_gram(reduce_mod(gram_from_twists(projective_space(5), range(6)), 7))
    start = time.perf_counter()
    ok = len(enumerate_candidates(space)) == 16464
    report(10, "candidates-pn5-mod7", ok, 1.0, time.perf_counter() - start)

    gram = reduce_mod(gram_from_twists(projective_space(14), range(15)), 2)
    candidates = enumerate_candidates(FormSpace.from_gram(gram))
    op = serre_operator(gram)
    start = time.perf_counter()
    orbits = serre_orbits(candidates, op)
    ok = len(candidates) == 16256 and len(orbits) == 1024
    report(10, "serre-orbits-pn14-mod2", ok, 0.2, time.perf_counter() - start)
