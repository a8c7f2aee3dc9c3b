"""Exhaustive semi-orthonormal basis search for bilinear-form spaces.

The pairing is (u, v) = u^t A v.  A basis e_1, ..., e_d is semi-orthonormal
when (e_i, e_i) = 1 and (e_j, e_i) = 0 for j > i.  The search builds bases
left to right: once e_1, ..., e_k are placed, any later vector x must
satisfy the k linear constraints (x, e_i) = 0, so the feasible set at depth
k is the intersection of the self-pairing-one locus with a linear subspace,
the constraint kernel, which is walked directly (see Kernel below).

Determinism.  Vectors over F_p are ordered by their integer code
sum(x_i * p^i) -- coordinate 0 is the least significant digit -- so
(1, 0, ..., 0) is the first nonzero vector.  Candidate enumeration, orbit
representatives and the first-found basis all follow this order.  With
Serre symmetry enabled, the first slot tries only the candidates whose
orbit walk (through ``exactmat._code_action``) meets no smaller code.  This
is sound because the operator is an invertible isometry, S^t A S = A, which
one gate (``_symmetry_action``) checks for ``search`` and ``serre_orbits``
before any walk: any basis can be translated to one starting at a
representative, and the first basis is the plain search's.

Kernel.  Each node carries W_k = {y : (y, v) = 0 for every placed v} as its
reduced basis (one vector per free column, 1 there and 0 at the other free
columns), cut by one elimination step per placement (``_restrict``) and
walked in increasing code order by one addition per vector (``_walk``).  A
vector of W_k with (x, x) = 1 is never in the span of the placed v_k: x =
sum c_k v_k would give (x, x) = sum c_k (x, v_k) = 0.  So there is no
dependence test, and the ``dependent_rejections`` stat is 0 by construction.

Memo.  Each call keeps a table of failed states.  A state is the kernel
W_k, keyed by its reduced basis (canonical for W_k).  W_k alone fixes the
subtree below it: the next level walks W_k and cuts each child from it, and
dim W_k = d - k is the depth.  Every ordering of the same chosen vectors
(and, for singular A, spans that differ by a vector n with A n = 0) reaches
one kernel, and a revisited state that already failed is not walked again.
Only failed states are pruned, so the first basis in canonical order is
unchanged.  The counters describe the full canonical proof tree: a memo hit
credits the placements and rejections its subtree made when first walked,
so ``placements`` equals the node count of the unpruned walk
(``tests/oracles.brute_force_sonb``); ``memo_hits`` counts the reuses.

Integer spaces (modulus 0) support verification of supplied bases and
mutation, not open-ended search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .eulerform import GramMatrix, SerreOperator
from .exactmat import ExactMatrix, _code_action, is_prime, rref

DEFAULT_ENUMERATION_CAP = 1 << 20


@dataclass(frozen=True)
class FormSpace:
    """A bilinear form u^t A v on F_p^d (modulus p) or Z^d (modulus 0)."""

    dimension: int
    modulus: int
    form: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.modulus and not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        if len(self.form) != self.dimension or any(
            len(r) != self.dimension for r in self.form
        ):
            raise ValueError("form matrix must be square of the stated dimension")
        if self.modulus and any(
            not 0 <= x < self.modulus for r in self.form for x in r
        ):
            raise ValueError("entries must be reduced mod p")

    @classmethod
    def from_gram(cls, gram: GramMatrix) -> "FormSpace":
        return cls(gram.size, gram.modulus, gram.base.int_rows())

    @classmethod
    def from_matrix(cls, matrix: ExactMatrix) -> "FormSpace":
        return cls(matrix.size, matrix.modulus, matrix.int_rows())

    def pair(self, u, v) -> int:
        s = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.form[i]
                s += ui * sum(row[j] * v[j] for j in range(self.dimension))
        return s % self.modulus if self.modulus else s

    @property
    def total_vectors(self) -> int:
        if not self.modulus:
            raise ValueError("integer spaces are infinite")
        return self.modulus ** self.dimension


def vector_code(vector, p: int) -> int:
    """Base-p integer code with coordinate 0 least significant."""
    code = 0
    for x in reversed(vector):
        code = code * p + (x % p)
    return code


def vector_from_code(code: int, p: int, dimension: int) -> tuple[int, ...]:
    out = []
    for _ in range(dimension):
        out.append(code % p)
        code //= p
    return tuple(out)


@dataclass(frozen=True)
class CandidateSet:
    """All self-pairing-one vectors of a space in canonical order, and their codes."""

    space: FormSpace
    vectors: tuple[tuple[int, ...], ...]
    codes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.codes is None:  # vectors given without their codes
            codes = tuple(vector_code(v, self.space.modulus) for v in self.vectors)
            object.__setattr__(self, "codes", codes)

    def __len__(self):
        return len(self.vectors)


def _check_cap(space: FormSpace) -> None:
    if space.total_vectors > DEFAULT_ENUMERATION_CAP:  # raises on an integer space
        raise ValueError(f"enumeration cap exceeded: {space.total_vectors} > {DEFAULT_ENUMERATION_CAP}")


def enumerate_candidates(space: FormSpace) -> CandidateSet:
    """Exact set of vectors with (x, x) = 1, in code order (p^d within the cap).

    A walk over the p^(d-1) prefixes x' = (x_1, ..., x_{d-1}), most
    significant first, carrying b = sum (A_0i + A_i0) x_i, c = (x', x') and
    the code: a table of the roots of A_00 t^2 + b t + c = 1 gives each x_0.
    """
    _check_cap(space)
    p, d, a = space.modulus, space.dimension, space.form
    sym = [[a[i][j] + a[j][i] for j in range(i)] for i in range(d)]
    roots = [[t for t in range(p) if (a[0][0] * t * t + b * t + c) % p == 1]
             for b in range(p) for c in range(p)]
    vecs, codes = [], []

    def walk(k, s, c, tail, code):
        # coordinates above k are fixed in tail, worth code; s[i] = sum_j>k (A_ij + A_ji) x_j
        if not k:
            for t in roots[s[0] % p * p + c % p]:
                vecs.append((t,) + tail)
                codes.append(code + t)
            return
        for v in range(p):
            walk(k - 1, [x + v * y for x, y in zip(s, sym[k])],
                 c + v * s[k] + a[k][k] * v * v, (v,) + tail, code + v * p**k)

    walk(d - 1, [0] * d, 0, (), 0)
    del walk  # it refers to itself: free vecs now, not at a later cyclic collection
    return CandidateSet(space, tuple(vecs), tuple(codes))


_NOT_PRESERVED = "operator does not preserve the candidate set (form-preservation defect)"


def _symmetry_action(space: FormSpace, operator, work: int):
    """code(x) -> code(S x) by ``exactmat._code_action`` (about work calls) for
    S a ``SerreOperator``, an ``ExactMatrix`` or rows of exact entries that is
    d x d, invertible mod p and an isometry, S^t A S = A; else it raises.  A
    ``SerreOperator`` of A itself is one: its A S = A^t gives S^t A S = (A S)^t."""
    p, d = space.modulus, space.dimension
    a = ExactMatrix(space.form, p)
    isometry = isinstance(operator, SerreOperator) and operator.source.base == a
    if isinstance(operator, SerreOperator):
        operator = operator.matrix
    if isinstance(operator, ExactMatrix) and operator.modulus not in (0, p):
        raise ValueError(f"operator is mod {operator.modulus}, the form mod {p}")
    rows = operator.rows if isinstance(operator, ExactMatrix) else [list(r) for r in operator]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(_NOT_PRESERVED)
    s = ExactMatrix(rows, p)  # a float entry raises TypeError
    if not s.determinant() or not (isometry or s.transpose() * a * s == a):
        raise ValueError(_NOT_PRESERVED)
    return _code_action(s.rows, p, work)


def serre_orbits(candidates: CandidateSet, operator) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition candidates into orbits of an operator that passes ``search``'s
    gate (``_symmetry_action``), so every walk returns.

    Each orbit is walked from its canonically least representative as a
    cycle of codes (``candidates.codes``); orbits are sorted by their
    representative, in one pass over the codes in increasing order.  Raises
    if the operator fails the gate or a walk leaves a partial candidate set.
    """
    space = candidates.space
    p = space.modulus
    if not p:
        raise ValueError("orbit partition requires a finite modulus")
    remaining = dict(zip(candidates.codes, candidates.vectors))
    act = _symmetry_action(space, operator, len(remaining))
    orbits = []
    for rep_code in sorted(remaining):
        rep = remaining.pop(rep_code, None)
        if rep is None:  # already in the orbit of a smaller code
            continue
        orbit = [rep]
        code = act(rep_code)
        while code != rep_code:
            if code not in remaining:
                raise ValueError(_NOT_PRESERVED)
            orbit.append(remaining.pop(code))
            code = act(code)
        orbits.append(tuple(orbit))
    return tuple(orbits)


def pairing_matrix(space: FormSpace, vectors) -> tuple[tuple[int, ...], ...]:
    """(v_i, v_j) at position (i, j) for an ordered family of vectors."""
    return tuple(
        tuple(space.pair(vi, vj) for vj in vectors) for vi in vectors
    )


@dataclass(frozen=True)
class SearchResult:
    """The first basis (None when Exhausted) and the proof tree's counts:
    placements, pairing_rejections, dependent_rejections (0 by construction,
    as the carried kernel holds no dependent feasible vector) and memo_hits."""

    basis: tuple[tuple[int, ...], ...] | None
    nodes_explored: int
    stats: tuple[tuple[str, int], ...]

    @property
    def found(self) -> bool:
        return self.basis is not None

    @property
    def exhausted(self) -> bool:
        return self.basis is None

    def stat(self, key: str) -> int:
        return dict(self.stats)[key]


def _restrict(kernel, row, p: int):
    """Reduced basis of {y in span(kernel) : y . row = 0 mod p}.

    With c_j = kernel[j] . row, the first i with c_i != 0 becomes a pivot and
    kernel[j] - (c_j / c_i) kernel[i], j != i, is again reduced.  Cutting the
    unit basis by each row of a matrix gives the reduced nullspace basis.
    """
    c = [sum(map(mul, b, row)) % p for b in kernel]
    i = next((j for j, cj in enumerate(c) if cj), None)
    if i is None:
        return kernel
    pivot, inv = kernel[i], pow(c[i], -1, p)
    return tuple(
        tuple((x - cj * inv * y) % p for x, y in zip(b, pivot)) if cj else b
        for j, (b, cj) in enumerate(zip(kernel, c)) if j != i
    )


def _walk(kernel, p: int):
    """(t, sum t_k kernel[k]) for t = 1, ..., p^m - 1, t_k the base-p digits of t.

    Raising t adds kernel[0] + ... + kernel[k], k the trailing zero digits of
    the new t.  A reduced basis is walked in increasing code order; for the
    unit basis, t is the code of x.
    """
    steps = list(accumulate(kernel, lambda s, b: tuple((u + v) % p for u, v in zip(s, b))))
    x = (0,) * len(kernel[0]) if kernel else ()
    for t in range(1, p ** len(kernel)):
        k, q = 0, t
        while not q % p:
            k, q = k + 1, q // p
        x = tuple((u + v) % p for u, v in zip(x, steps[k]))
        yield t, x


def search(
    space: FormSpace,
    symmetry: SerreOperator | ExactMatrix | None = None,
) -> SearchResult:
    """Find a semi-orthonormal basis or prove none exists.

    Returns the first basis in canonical order, or an Exhausted result with
    the number of partial placements explored.  With symmetry, the first
    basis vector ranges over orbit representatives only, found lazily.  The
    symmetry must be an invertible isometry of the form (S^t A S = A mod p);
    it is checked once, before the first placement, and anything else raises.

    Each level walks the carried constraint kernel, where a feasible vector
    is never dependent, so ``dependent_rejections`` is 0 by construction.

    Failed subtrees are memoized by their constraint kernel and not walked
    twice; the stats still count the full proof tree, crediting each of the
    ``memo_hits`` reused subtrees with its counts.
    """
    p = space.modulus
    if not p:
        raise ValueError("integer spaces support verification only; use verify_semi_orthonormal")
    _check_cap(space)
    d, form = space.dimension, space.form
    representative = None
    if symmetry is not None:
        act = _symmetry_action(space, symmetry, d * d)

        def representative(code):  # its orbit walk meets no smaller code
            image = act(code)
            while image > code:
                image = act(image)
            return image == code

    nodes = pairing_rejections = memo_hits = 0
    # reduced basis of a kernel -> counts of its failed subtree
    failed: dict[tuple, tuple[int, int]] = {}

    def dfs(chosen, kernel) -> tuple[tuple[int, ...], ...] | None:
        # kernel = {y : (y, v) = 0 for every chosen v}, cut by the parent
        nonlocal nodes, pairing_rejections, memo_hits
        if len(chosen) == d:
            return chosen
        if kernel in failed:
            memo_hits += 1
            dn, dpair = failed[kernel]
            nodes += dn
            pairing_rejections += dpair
            return None
        first_slot = representative if not chosen else None
        before = (nodes, pairing_rejections)
        for t, x in _walk(kernel, p):
            if space.pair(x, x) != 1:
                pairing_rejections += first_slot is None  # none at a symmetric root
                continue
            if first_slot is not None and not first_slot(t):  # t is x's code at the root
                continue
            nodes += 1
            row = [sum(map(mul, r, x)) for r in form]  # (y, x) = y . row
            result = dfs((*chosen, x), _restrict(kernel, row, p))
            if result is not None:
                return result
        failed[kernel] = (nodes - before[0], pairing_rejections - before[1])
        return None

    basis = dfs((), tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))
    del dfs  # it refers to itself: free the memo now, not at a later cyclic collection
    stats = (("placements", nodes), ("pairing_rejections", pairing_rejections),
             ("dependent_rejections", 0), ("memo_hits", memo_hits))
    return SearchResult(basis, nodes, stats)


def is_semi_orthonormal_family(space: FormSpace, vectors) -> bool:
    """Pairing conditions plus linear independence, for any family length."""
    vectors = [tuple(v) for v in vectors]
    for i, vi in enumerate(vectors):
        if space.pair(vi, vi) != 1:
            return False
        for j in range(i):
            if space.pair(vi, vectors[j]) != 0:
                return False
    _, pivots = rref(vectors, space.dimension, space.modulus)
    return len(pivots) == len(vectors)


def verify_semi_orthonormal(space: FormSpace, basis) -> bool:
    """Independent check of a full basis: pairing conditions plus full rank."""
    basis = [tuple(v) for v in basis]
    if len(basis) != space.dimension:
        return False
    return is_semi_orthonormal_family(space, basis)


def mutate(basis, index: int, space: FormSpace):
    """Exchange move at (index, index+1), 0-based.

    Replaces the pair (e, f) with (f, e - (e, f) f), which stays
    semi-orthonormal and spans the same sublattice.  With (e, f) = 0 this
    is a pure swap; over F_2 it is the classical move (f, e + (e, f) f).
    """
    return _exchange(basis, index, space, forward=True)


def mutate_inverse(basis, index: int, space: FormSpace):
    """Inverse of mutate at the same position: (g, h) -> (h - (g, h) g, g)."""
    return _exchange(basis, index, space, forward=False)


def _exchange(basis, index: int, space: FormSpace, forward: bool):
    """(e, f) -> (f, e - c f) forward, (f - c e, e) backward, with c = (e, f)."""
    basis = [tuple(v) for v in basis]
    if not 0 <= index < len(basis) - 1:
        raise ValueError("index out of range")
    if not is_semi_orthonormal_family(space, basis):
        raise ValueError("input basis is not semi-orthonormal")
    e, f = basis[index], basis[index + 1]
    c = space.pair(e, f)
    p = space.modulus
    a, b = (e, f) if forward else (f, e)
    new = tuple((x - c * y) % p if p else x - c * y for x, y in zip(a, b))
    pair = [f, new] if forward else [new, e]
    return tuple(basis[:index] + pair + basis[index + 2 :])
