import gc
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from semiortho import (
    ExactMatrix,
    FormSpace,
    enumerate_candidates,
    fake_projective_space,
    gram_from_twists,
    matrix_order,
    mutate,
    mutate_inverse,
    pairing_matrix,
    projective_space,
    reduce_mod,
    search,
    serre_operator,
    serre_orbits,
    verify_semi_orthonormal,
    wilson_fourfold,
)
from semiortho import reference as ref
from semiortho import sonb
from semiortho.reptheory import dimension_candidates
from semiortho.sonb import (
    DEFAULT_ENUMERATION_CAP,
    CandidateSet,
    is_semi_orthonormal_family,
    vector_code,
)

from oracles import (
    _vectors,
    brute_force_candidates,
    brute_force_sonb,
    closed_form_candidate_count,
    first_slot_reference,
    orbit_partition,
    orbit_sizes_by_moebius,
)


def wilson_space():
    gram = reduce_mod(gram_from_twists(wilson_fourfold(), range(5)), 2)
    return FormSpace.from_gram(gram), serre_operator(gram)


def pn_space(n, p):
    gram = reduce_mod(gram_from_twists(projective_space(n), range(n + 1)), p)
    return FormSpace.from_gram(gram)


def criterion_4_slowest():
    rng = random.Random(1003)  # the slowest form of acceptance criterion 4
    d = rng.randrange(2, 6)
    return FormSpace(d, 3, tuple(tuple(rng.randrange(3) for _ in range(d)) for _ in range(d)))


def standard_basis(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def test_vector_codes_round_trip():
    for p in (2, 3, 5):
        codes = sorted(vector_code(v, p) for v in product(range(p), repeat=3))
        assert codes == list(range(p**3))
    assert vector_code((1, 0, 0, 0, 0), 2) == 1


def test_wilson_candidates():
    space, _ = wilson_space()
    cands = enumerate_candidates(space)
    assert len(cands) == 12
    for v in cands.vectors:
        assert space.pair(v, v) == 1


def test_identity_form_candidates():
    space = FormSpace(5, 2, tuple(tuple(ExactMatrix.identity(5, 2).rows[i]) for i in range(5)))
    # (x, x) = sum x_i over F_2: the 16 odd-weight vectors
    cands = enumerate_candidates(space)
    assert len(cands) == 16
    assert all(sum(v) % 2 == 1 for v in cands.vectors)


def test_zero_form_has_no_candidates():
    space = FormSpace(4, 3, tuple(tuple(0 for _ in range(4)) for _ in range(4)))
    assert len(enumerate_candidates(space)) == 0


def test_enumeration_cap():
    space = FormSpace(21, 2, standard_basis(21))  # 2^21 vectors
    assert space.total_vectors > DEFAULT_ENUMERATION_CAP
    for call in (enumerate_candidates, search):
        with pytest.raises(ValueError, match="enumeration cap exceeded"):
            call(space)


def test_wilson_orbits():
    space, op = wilson_space()
    assert not _check_first_slot_against_reference(space, op, op.matrix.rows)
    orbits = serre_orbits(enumerate_candidates(space), op)
    assert tuple(len(o) for o in orbits) == (8, 4)
    assert orbits[0][0] == (1, 0, 0, 0, 0)
    assert orbits[1][0] == (1, 0, 1, 0, 0)
    # successive entries are images under the operator
    rows = op.matrix.rows
    for orbit in orbits:
        for a, b in zip(orbit, orbit[1:]):
            assert tuple(sum(r[j] * a[j] for j in range(5)) % 2 for r in rows) == b


def test_identity_operator_gives_singletons():
    space, _ = wilson_space()
    cands = enumerate_candidates(space)
    orbits = serre_orbits(cands, ExactMatrix.identity(5, 2))
    assert all(len(o) == 1 for o in orbits)
    assert len(orbits) == 12
    # in code order even from a shuffled candidate set
    space = pn_space(6, 2)
    cands = enumerate_candidates(space)
    shuffled = list(cands.vectors)
    random.Random(3).shuffle(shuffled)
    codes = tuple(vector_code(v, 2) for v in shuffled)
    orbits = serre_orbits(CandidateSet(space, tuple(shuffled), codes), ExactMatrix.identity(7, 2))
    assert orbits == tuple((v,) for v in cands.vectors)
    assert search(space, symmetry=ExactMatrix.identity(7, 2)).basis == standard_basis(7)


def _random_isometry(rng, p, d):
    """A random invertible T over F_p and a form A with T^t A T = A (the sum
    of (T^k)^t B T^k over one period of T, for a random B), redrawn until
    the form has candidates and T moves at least one of them."""
    one = ExactMatrix.identity(d, p)
    while True:
        t = ExactMatrix([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
        if not t.determinant() or t == one:
            continue
        b = ExactMatrix([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
        form, power = b, t
        while power != one:
            form = ExactMatrix([[x + y for x, y in zip(r, s)] for r, s in
                                zip(form.rows, (power.transpose() * b * power).rows)], p)
            power = power * t
        assert t.transpose() * form * t == form
        space = FormSpace(d, p, form.rows)
        if any(t.apply(v) != v for v in enumerate_candidates(space).vectors):
            return space, t


def _check_orbits_against_union_find(space, operator, rows):
    cands = enumerate_candidates(space)
    p, d = space.modulus, space.dimension
    orbits = serre_orbits(cands, operator)
    assert {frozenset(o) for o in orbits} == orbit_partition(cands.vectors, rows, p)
    shuffled = list(cands.vectors)
    random.Random(len(shuffled)).shuffle(shuffled)
    codes = tuple(vector_code(v, p) for v in shuffled)
    assert serre_orbits(CandidateSet(space, tuple(shuffled), codes), operator) == orbits
    assert sum(len(o) for o in orbits) == len(cands)
    reps = [vector_code(o[0], p) for o in orbits]
    assert reps == sorted(reps)
    for orbit in orbits:
        assert vector_code(orbit[0], p) == min(vector_code(v, p) for v in orbit)
        for a, b in zip(orbit, orbit[1:] + orbit[:1]):
            assert tuple(sum(r[j] * a[j] for j in range(d)) % p for r in rows) == b
    return _check_first_slot_against_reference(space, operator, rows)


def _check_first_slot_against_reference(space, operator, rows):
    """search(symmetry=operator) walks the proof tree of a search whose first
    slot is the sorted union-find orbit representatives of the oracle's
    candidates: same basis and counts as the walk keyed by kernel sets, and
    all four stats (memo hits too) of the walk keyed by Gram matrices."""
    p, d = space.modulus, space.dimension
    cands = brute_force_candidates(space.form, p, d)
    reps = sorted(
        (min(orbit, key=lambda v: vector_code(v, p)) for orbit in orbit_partition(cands, rows, p)),
        key=lambda v: vector_code(v, p),
    )
    basis, *counts = first_slot_reference(space.form, p, d, reps)
    _, *by_gram = first_slot_reference(space.form, p, d, reps, key_by_gram=True)
    result = search(space, symmetry=operator)
    assert result.basis == basis
    assert tuple(v for _, v in result.stats)[:3] == tuple(counts[:3])
    assert tuple(v for _, v in result.stats) == tuple(by_gram)
    assert result.nodes_explored == counts[0]
    return result.found


@pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (3, 2), (3, 5), (4, 3), (6, 2), (9, 2)])
def test_pn_serre_orbits_match_union_find(n, p):
    gram = reduce_mod(gram_from_twists(projective_space(n), range(n + 1)), p)
    op = serre_operator(gram)
    _check_orbits_against_union_find(FormSpace.from_gram(gram), op, op.matrix.rows)


def test_random_isometry_orbits_match_union_find():
    rng = random.Random(44)
    outcomes = set()
    for p, d in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)] * 3:
        space, t = _random_isometry(rng, p, d)
        outcomes.add(_check_orbits_against_union_find(space, t, t.rows))
    assert outcomes == {True, False}


def _assert_rejected(space, operator):
    for run in (lambda: search(space, symmetry=operator),
                lambda: serre_orbits(enumerate_candidates(space), operator)):
        with pytest.raises(ValueError, match="does not preserve the candidate set"):
            run()


def test_non_preserving_operator_rejected():
    space, _ = wilson_space()
    shift = ExactMatrix([[0, 1, 0, 0, 0],
                         [0, 0, 1, 0, 0],
                         [0, 0, 0, 1, 0],
                         [0, 0, 0, 0, 1],
                         [1, 0, 0, 0, 0]], 2)
    # search and serre_orbits check S^t A S = A once, before any walk
    _assert_rejected(space, shift)
    # e0 -> e1 -> e1 stays on candidates but is singular, so never returns to e0
    identity = FormSpace(2, 2, ((1, 0), (0, 1)))
    _assert_rejected(identity, ExactMatrix([[0, 0], [1, 1]], 2))
    # a singular isometry of a degenerate form: e0 -> e0 + e1, a fixed point
    # of larger code, so a walk from e0 would never end
    degenerate = FormSpace(2, 2, ((1, 0), (0, 0)))
    _assert_rejected(degenerate, [[1, 0], [1, 0]])


def test_invertible_non_isometry_is_rejected():
    # S is invertible and permutes the four candidates, but S^t A S != A: a
    # first slot cut by S alone reported Exhausted on this Found form
    space = FormSpace(3, 2, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    s = ExactMatrix([[0, 1, 0], [1, 0, 1], [0, 0, 1]], 2)
    form = ExactMatrix(space.form, 2)
    candidates = enumerate_candidates(space).vectors
    assert s.determinant() == 1
    assert sorted(map(s.apply, candidates)) == sorted(candidates)
    assert s.transpose() * form * s != form
    assert search(space).basis == ((1, 0, 1), (0, 1, 1), (1, 1, 1))
    _assert_rejected(space, s)


def test_operator_of_the_wrong_size_is_rejected():
    space = FormSpace(3, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for operator in (ExactMatrix.identity(2, 2), [[1, 0, 0], [0, 1], [0, 0, 1]]):
        _assert_rejected(space, operator)


def test_serre_operator_is_an_isometry_of_its_own_form_only():
    # A S = A^t gives S^t A S = A for the operator's own A; over Z it is
    # reduced mod p and checked, and on another form it is rejected
    over_z = gram_from_twists(projective_space(2), range(3))
    gram = reduce_mod(over_z, 2)
    space, op = FormSpace.from_gram(gram), serre_operator(gram)
    cands = enumerate_candidates(space)
    assert serre_orbits(cands, serre_operator(over_z)) == serre_orbits(cands, op)
    assert search(space, symmetry=serre_operator(over_z)).stats == search(space, symmetry=op).stats
    _assert_rejected(FormSpace(3, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), op)


def test_raw_operator_rows_take_exact_entries_mod_p():
    # 7/2 = 1 mod 5, the identity; truncating it to 3 gives 3 * 3 = 4 != 1
    space = FormSpace(1, 5, ((1,),))
    cands = enumerate_candidates(space)
    for operator in ([[Fraction(7, 2)]], ExactMatrix([[Fraction(7, 2)]])):
        assert serre_orbits(cands, operator) == (((1,),), ((4,),))
        assert search(space, symmetry=operator).basis == ((1,),)
    for run in (lambda s: search(space, symmetry=s), lambda s: serre_orbits(cands, s)):
        with pytest.raises(TypeError):
            run([[1.0]])
        with pytest.raises(ValueError, match="operator is mod 3, the form mod 5"):
            run(ExactMatrix([[1]], 3))


def test_wilson_pairing_matrix_matches_reference():
    space, op = wilson_space()
    orbits = serre_orbits(enumerate_candidates(space), op)
    ordered = [v for orbit in orbits for v in orbit]
    assert pairing_matrix(space, ordered) == ref.WILSON_PAIRING_12


def test_wilson_search_exhausted_both_orientations():
    space, op = wilson_space()
    plain = search(space)
    assert plain.exhausted
    assert plain.nodes_explored < 10**6
    with_symmetry = search(space, symmetry=op)
    assert with_symmetry.exhausted
    assert with_symmetry.nodes_explored <= plain.nodes_explored
    flipped = FormSpace(5, 2, tuple(zip(*space.form)))
    assert search(flipped).exhausted


def test_p2_mod_2_finds_standard_basis():
    space = pn_space(2, 2)
    result = search(space)
    assert result.found
    assert result.basis == standard_basis(3)


def test_pn_profiles_find_standard_basis():
    for n in (1, 2, 3):
        for p in (2, 3, 5, 7):
            result = search(pn_space(n, p))
            assert result.basis == standard_basis(n + 1)


def test_integer_space_verifies_standard_basis():
    for n in (1, 2, 3, 4):
        gram = gram_from_twists(projective_space(n), range(n + 1))
        space = FormSpace.from_gram(gram)
        assert verify_semi_orthonormal(space, standard_basis(n + 1))
        with pytest.raises(ValueError):
            search(space)


def test_verifier_catches_bad_bases():
    space = pn_space(2, 5)
    good = standard_basis(3)
    assert verify_semi_orthonormal(space, good)
    assert not verify_semi_orthonormal(space, (good[1], good[0], good[2]))  # (e1,e0)=3
    assert not verify_semi_orthonormal(space, (good[0], good[0], good[2]))  # dependent
    assert not verify_semi_orthonormal(space, good[:2])  # not a full basis


def test_wilson_mod_7_agrees_with_oracle():
    gram = reduce_mod(gram_from_twists(wilson_fourfold(), range(5)), 7)
    space = FormSpace.from_gram(gram)
    oracle_basis, _, _ = brute_force_sonb(space.form, 7, 5)
    result = search(space)
    assert (oracle_basis is None) == result.exhausted
    if result.found:
        assert verify_semi_orthonormal(space, result.basis)
        assert result.basis == oracle_basis


def test_random_forms_agree_with_oracle_smoke():
    # The memoized search must credit every reused subtree: its node count
    # equals the unpruned oracle's on Found and Exhausted forms alike, and
    # its placements and rejections (no dependent rejection) equal those of
    # the kernel-set reference walk over every nonzero vector, singular
    # forms included.  All four stats, memo hits too, equal those of the
    # same walk keyed by the kernel's Gram matrix.  On an invertible form
    # the kernel fixes the span, so keying the walk by span-sets gives the
    # kernel-set memo hits.  p = 5 stops at d = 3 because the oracle needs
    # seconds per d = 4 form.
    rng = random.Random(2024)
    for p, max_d in ((2, 4), (3, 4), (5, 3)):
        outcomes = set()
        for _ in range(20):
            d = rng.randrange(2, max_d + 1)
            rows = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
            space = FormSpace(d, p, rows)
            oracle_basis, oracle_nodes, _ = brute_force_sonb(rows, p, d)
            result = search(space)
            assert result.basis == oracle_basis
            assert result.nodes_explored == oracle_nodes
            _, *counts = first_slot_reference(rows, p, d, _vectors(p, d))
            _, *by_gram = first_slot_reference(rows, p, d, _vectors(p, d), key_by_gram=True)
            assert tuple(v for _, v in result.stats)[:3] == tuple(counts[:3])
            assert tuple(v for _, v in result.stats) == tuple(by_gram)
            if ExactMatrix(rows, p).determinant():
                _, *by_span = first_slot_reference(rows, p, d, _vectors(p, d), key_by_span=True)
                assert by_span == counts
            if result.found:
                assert verify_semi_orthonormal(space, result.basis)
            outcomes.add(result.found)
        assert outcomes == {True, False}


def test_fixed_instance_search_stats():
    space, op = wilson_space()
    flipped = FormSpace(5, 2, tuple(zip(*space.form)))
    slowest = criterion_4_slowest()
    # p = 2, A = diag(0, 0, 1): the four candidates (a, b, 1) span four
    # lines with one kernel {y : y_2 = 0}, so three of them are memo hits.
    # The memo is keyed by the kernel's Gram matrix, so kernels with equal
    # Gram matrices share one entry.
    singular = FormSpace(3, 2, ((0, 0, 0), (0, 0, 0), (0, 0, 1)))
    expected = (
        (search(space), (204, 839, 0, 65)),
        (search(flipped), (204, 839, 0, 65)),
        (search(space, symmetry=op), (32, 130, 0, 16)),
        (search(slowest), (11412, 114470, 0, 1581)),
        (search(singular), (4, 15, 0, 3)),
    )
    for result, counts in expected:
        assert result.exhausted
        assert result.stats == tuple(
            zip(("placements", "pairing_rejections", "dependent_rejections", "memo_hits"), counts)
        )
        assert result.nodes_explored == counts[0]
    assert brute_force_sonb(singular.form, 2, 3)[1] == 4


def test_search_makes_no_pairing_call(monkeypatch):
    # the candidates of every level come from the walker over the kernel's
    # Gram matrix, never from FormSpace.pair
    space, op = wilson_space()
    slowest = criterion_4_slowest()
    calls = [lambda: search(space), lambda: search(space, symmetry=op), lambda: search(slowest)]
    before = [call() for call in calls]

    def refuse(self, u, v):
        raise AssertionError("search called FormSpace.pair")

    monkeypatch.setattr(FormSpace, "pair", refuse)
    assert [call() for call in calls] == before


def test_found_search_at_the_cap_draws_few_candidates(monkeypatch):
    # pn:19 mod 2 has 2^20 vectors; a Found search pulls about one candidate
    # per placement from the lazy walker, so an eager enumeration fails here
    space = pn_space(19, 2)
    assert space.total_vectors == DEFAULT_ENUMERATION_CAP
    walk, pulled = sonb._roots, []

    def counting(gram, p):
        for item in walk(gram, p):
            pulled.append(item)
            yield item

    monkeypatch.setattr(sonb, "_roots", counting)
    result = search(space)
    assert result.basis == standard_basis(20)
    assert 20 <= len(pulled) <= 2 * 20


def test_large_prime_search_solves_only_the_roots_it_reaches():
    # within the cap p can be large (p^d <= 2^20): each walk solves the quadratic
    # for digit 0 only at the prefixes it visits, by one scan of p values each,
    # never for all p^2 coefficient pairs
    p = 1048573
    sonb._solve.cache_clear()
    assert search(FormSpace(1, p, ((1,),))).basis == ((1,),)
    assert enumerate_candidates(FormSpace(1, p, ((1,),))).vectors == ((1,), (p - 1,))
    assert sonb._solve.cache_info().misses == 1
    p = 1021
    sonb._solve.cache_clear()
    assert search(FormSpace(2, p, ((1, 0), (0, 1)))).basis == ((1, 0), (0, 1))
    assert sonb._solve.cache_info().misses == 1  # both levels solve t^2 = 1
    sonb._solve.cache_clear()
    exhausted = search(FormSpace(2, p, ((378, 937), (618, 485))))
    assert exhausted.exhausted and dict(exhausted.stats)["placements"] == p - 1
    assert sonb._solve.cache_info().misses <= 2 * p  # p prefixes, then one per placement


def test_pairing_rejects_vectors_of_the_wrong_length():
    space = FormSpace(2, 2, ((1, 0), (0, 1)))
    assert verify_semi_orthonormal(space, [(1, 0), (0, 1)])
    for family in ([(1, 0, 0), (0, 1, 0)], [(1, 0, 1), (0, 1, 0)], [(1,), (0, 1)], [(1, 0), (0,)]):
        for call in (verify_semi_orthonormal, is_semi_orthonormal_family, pairing_matrix,
                     lambda space, vectors: mutate(vectors, 0, space)):
            with pytest.raises(ValueError):
                call(space, family)
    with pytest.raises(ValueError):
        FormSpace(2, 0, ((1, 0), (0, 1))).pair((1, 0, 0), (1, 0))


def test_memo_hits_reported():
    space, _ = wilson_space()
    assert dict(search(space).stats)["memo_hits"] > 0
    assert dict(search(pn_space(2, 2)).stats)["memo_hits"] == 0


def test_symmetry_outcome_matches_plain_search():
    # With an isometry the first basis is the plain one: S^k maps a basis to a
    # basis, so the least extendable candidate is its orbit's least code.
    rng = random.Random(31)
    checked = 0
    while checked < 10:
        d = rng.randrange(2, 5)
        p = rng.choice((2, 3))
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        m = ExactMatrix(rows, p)
        if m.determinant() == 0:
            continue
        s = m.inverse() * m.transpose()
        space = FormSpace(d, p, m.int_rows())
        assert search(space, symmetry=s).basis == search(space).basis
        checked += 1
    outcomes = set()
    for p, d in [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)] * 4:
        space, t = _random_isometry(rng, p, d)
        plain = search(space).basis
        assert search(space, symmetry=t).basis == plain
        outcomes.add(plain is not None)
    assert outcomes == {True, False}


def test_no_reference_cycles():
    # every call frees what it allocated by reference counting alone
    space, op = wilson_space()
    calls = (
        lambda: search(space),
        lambda: search(space, symmetry=op),
        lambda: serre_orbits(enumerate_candidates(space), op),
        lambda: matrix_order(op.matrix),
        lambda: dimension_candidates(21, 5),
    )
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_mutation_p2_standard_basis():
    gram = gram_from_twists(projective_space(2), (0, 1, 2))
    space = FormSpace.from_gram(gram)
    basis = standard_basis(3)
    mutated = mutate(basis, 0, space)
    # pairing (e0, e1) = 3: new pair is (e1, e0 - 3 e1)
    assert mutated == ((0, 1, 0), (1, -3, 0), (0, 0, 1))
    assert verify_semi_orthonormal(space, mutated)
    assert mutate_inverse(mutated, 0, space) == basis


def test_mutation_zero_pairing_is_swap():
    # 1 - x^2 makes the twists (0, 1) pair to the identity matrix
    from semiortho import IntValuedPolynomial, profile_from_polynomial

    flat = profile_from_polynomial(IntValuedPolynomial((1, 0, -1)))
    space = FormSpace.from_gram(gram_from_twists(flat, (0, 1)))
    basis = standard_basis(2)
    assert mutate(basis, 0, space) == (basis[1], basis[0])


def test_mutation_over_f2_is_classical_form():
    # mutate a semi-orthonormal candidate pair of the Wilson form: the move
    # becomes (f, e + (e, f) f) in characteristic two
    space, op = wilson_space()
    orbits = serre_orbits(enumerate_candidates(space), op)
    e = orbits[0][0]
    f = orbits[0][2]
    assert space.pair(f, e) == 0 and space.pair(e, f) == 1
    mutated = mutate((e, f), 0, space)
    assert mutated == (f, tuple((ei + fi) % 2 for ei, fi in zip(e, f)))


def test_mutation_closure_seeded():
    rng = random.Random(8)
    space = pn_space(3, 7)
    result = search(space)
    assert result.found
    basis = result.basis
    for _ in range(30):
        i = rng.randrange(len(basis) - 1)
        if rng.random() < 0.5:
            basis = mutate(basis, i, space)
        else:
            basis = mutate_inverse(basis, i, space)
        assert verify_semi_orthonormal(space, basis)


def test_mutation_round_trip():
    space = pn_space(2, 5)
    basis = standard_basis(3)
    for i in range(2):
        assert mutate_inverse(mutate(basis, i, space), i, space) == basis
        assert mutate(mutate_inverse(basis, i, space), i, space) == basis


def test_mutation_rejects_non_semi_orthonormal_input():
    space = pn_space(2, 5)
    bad = (standard_basis(3)[1], standard_basis(3)[0], standard_basis(3)[2])
    with pytest.raises(ValueError):
        mutate(bad, 0, space)
    with pytest.raises(ValueError):
        mutate(standard_basis(3), 5, space)


def test_mutation_over_integers():
    gram = gram_from_twists(fake_projective_space(2), (0, -1, -2))
    space = FormSpace.from_gram(gram)
    basis = standard_basis(3)
    for i in (0, 1):
        out = mutate(basis, i, space)
        assert verify_semi_orthonormal(space, out)


def test_integer_space_has_no_candidate_enumeration():
    gram = gram_from_twists(fake_projective_space(2), (0, -1, -2))
    with pytest.raises(ValueError):
        enumerate_candidates(FormSpace.from_gram(gram))


def _oracle_forms(rng, p, d):
    """Random forms (mostly non-symmetric) plus the zero form and forms with
    A_00 = 0, the cases where the quadratic in x_0 degenerates."""
    forms = [tuple(tuple(0 for _ in range(d)) for _ in range(d))]
    for k in range(6):
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if k < 2:
            rows[0][0] = 0
        forms.append(tuple(map(tuple, rows)))
    return forms


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_candidate_walk_matches_brute_force_oracle(p):
    rng = random.Random(600 + p)
    for d in range(1, 6):
        for form in _oracle_forms(rng, p, d):
            got = enumerate_candidates(FormSpace(d, p, form))
            assert got.vectors == brute_force_candidates(form, p, d), (p, d, form)
            assert got.codes == tuple(sum(x * p**i for i, x in enumerate(v)) for v in got.vectors)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_candidate_count_matches_closed_form(p):
    rng = random.Random(700 + p)
    for d in range(1, 6):
        for form in _oracle_forms(rng, p, d):
            got = len(enumerate_candidates(FormSpace(d, p, form)))
            assert got == closed_form_candidate_count(form, p, d), (p, d, form)
    for n in range(1, 5 if p > 2 else 12):
        space = pn_space(n, p)
        expected = closed_form_candidate_count(space.form, p, n + 1)
        assert len(enumerate_candidates(space)) == expected
    if p == 2:
        assert closed_form_candidate_count(wilson_space()[0].form, 2, 5) == 12


def test_orbit_sizes_match_moebius_count():
    def check(space, operator, rows):
        want = orbit_sizes_by_moebius(space.form, rows, space.modulus, space.dimension)
        assert sorted(len(o) for o in serre_orbits(enumerate_candidates(space), operator)) == want
        return want

    space, op = wilson_space()
    assert check(space, op, op.matrix.rows) == [4, 8]
    # the pn:N mod p with p^d * d^2 <= 6e5 (d = N + 1) of the profiles-found benchmark
    profiles = [(n, p) for p in (2, 3, 5, 7) for n in range(1, 20)
                if p ** (n + 1) * (n + 1) ** 2 <= 600_000]
    assert len(profiles) == 27
    for n, p in profiles:
        gram = reduce_mod(gram_from_twists(projective_space(n), range(n + 1)), p)
        op = serre_operator(gram)
        check(FormSpace.from_gram(gram), op, op.matrix.rows)
    rng = random.Random(45)
    for p, d in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)] * 2:
        space, t = _random_isometry(rng, p, d)
        check(space, t, t.rows)


def test_search_stats_present():
    result = search(pn_space(1, 3))
    keys = dict(result.stats)
    assert "placements" in keys and keys["placements"] == result.nodes_explored


def test_last_cut_in_closed_form_matches_the_generic_cut():
    # every 2 x 2 Gram matrix over F_2, F_3 and F_5 and every root t of it
    for p in (2, 3, 5):
        for entries in product(range(p), repeat=4):
            gram = (entries[:2], entries[2:])
            for _, digits in sonb._roots(gram, p):
                c = [sum(map(mul, row, digits)) for row in gram]
                assert sonb._cut_last(gram, digits, p) == sonb._cut(gram, c, p)


def test_basis_is_decoded_along_the_found_path_only(monkeypatch):
    # the walk carries Gram matrices alone; only the found path is replayed
    # through _restrict, once per basis vector, and an Exhausted search never is
    restrict, calls = sonb._restrict, []

    def counting(*args):
        calls.append(args)
        return restrict(*args)

    monkeypatch.setattr(sonb, "_restrict", counting)
    wilson, _ = wilson_space()
    wilson_7 = FormSpace.from_gram(reduce_mod(gram_from_twists(wilson_fourfold(), range(5)), 7))
    for space, found in ((pn_space(8, 3), True), (wilson_7, True), (wilson, False),
                         (criterion_4_slowest(), False)):
        calls.clear()
        result = search(space)
        assert result.found == found
        assert len(calls) == (space.dimension if found else 0)
        if found:
            assert verify_semi_orthonormal(space, result.basis)


def test_search_stats_depend_on_the_input_only():
    # nothing cached across calls changes a later call's basis or counts
    wilson, op = wilson_space()
    for space, symmetry in ((wilson, None), (wilson, op), (criterion_4_slowest(), None),
                            (pn_space(4, 3), None)):
        first = search(space, symmetry=symmetry)
        again = search(space, symmetry=symmetry)
        sonb._solve.cache_clear()
        cold = search(space, symmetry=symmetry)
        for result in (again, cold):
            assert (result.basis, result.stats) == (first.basis, first.stats)
