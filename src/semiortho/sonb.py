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
reduced basis B (one vector per free column, 1 there and 0 at the other free
columns) and its Gram matrix G = B A B^t, both cut by one elimination step
per placement (``_restrict``).  Its candidates x = t B, the roots of
t^t G t = 1, come from ``_roots``, the lazy walk that ``enumerate_candidates``
runs to the end; B is reduced, so increasing t is increasing code order of x.
A vector of W_k with (x, x) = 1 is never in the span of the placed v_k:
x = sum c_k v_k would give (x, x) = sum c_k (x, v_k) = 0.  So there is no
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
from functools import lru_cache
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
        if len(u) != self.dimension or len(v) != self.dimension:
            raise ValueError(f"vectors must have {self.dimension} entries")
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
    """Exact set of vectors with (x, x) = 1, in code order (p^d within the cap):
    ``search``'s lazy candidate walk ``_roots`` over the form, run to the end."""
    _check_cap(space)
    codes, vectors = tuple(zip(*_roots(space.form, space.modulus))) or ((), ())
    return CandidateSet(space, vectors, codes)


@lru_cache(maxsize=1 << 16)
def _solve(a: int, b: int, c: int, p: int) -> tuple[int, ...]:
    """The roots t of a t^2 + b t + c = 1 mod p, scanned once per triple that a
    walk reaches and kept in a bounded cache."""
    return tuple(t for t in range(p) if (a * t * t + b * t + c) % p == 1)


def _roots(g, p: int):
    """(t, digits), t = sum digits_k p^k, for each root of digits^t g digits = 1 mod p,
    in increasing t and drawn lazily, for an m x m form g (m >= 1).

    An odometer over the prefixes (digits 1..m-1) keeps, for the digits at k and
    above, s[k][i] = sum_j (g_ij + g_ji) digits_j (i < k) and their quadratic
    form q[k]; ``_solve`` gives digit 0, the roots of g_00 t^2 + s[1][0] t + q[1] = 1,
    so a walk costs at most p steps per prefix, p^m in all."""
    m, a = len(g), g[0][0] % p
    sym = [None] * m  # sym[k][i] = g_ki + g_ik, i < k, built when digit k first moves
    digits, s, q = [0] * m, [[0] * m] * (m + 1), [0] * (m + 1)
    for prefix in range(0, p**m, p):
        if prefix:  # count up digits 1..m-1: digit k moves, the digits below it reset
            k = 1
            while digits[k] == p - 1:
                k += 1
            v = digits[k] = digits[k] + 1
            row = sym[k] = sym[k] or [g[k][i] + g[i][k] for i in range(k)]
            up = s[k + 1]
            s[k] = [x + v * y for x, y in zip(up, row)]
            q[k] = q[k + 1] + v * up[k] + g[k][k] * v * v
            if k > 1:
                digits[1:k] = [0] * (k - 1)
                s[1:k] = [s[k]] * (k - 1)
                q[1:k] = [q[k]] * (k - 1)
        for t in _solve(a, s[1][0] % p, q[1] % p, p):
            digits[0] = t
            yield prefix + t, tuple(digits)


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
    """The first basis (None when Exhausted) and the proof tree's counts: placements,
    pairing_rejections (derived, see ``search``), dependent_rejections (0 by construction,
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


def _restrict(kernel, gram, c, p: int):
    """Cut span(kernel) by sum y_j c_j = 0 mod p: its reduced basis and R gram R^t.

    The first i with c_i != 0 mod p is the pivot; R maps row j != i to row j
    - (c_j / c_i) row i, which keeps a reduced basis reduced.  Cutting the
    unit basis by each row w of a matrix (c_j = kernel[j] . w) gives the
    reduced nullspace basis."""
    i = next((j for j, cj in enumerate(c) if cj % p), None)
    if i is None:
        return kernel, gram
    inv = pow(c[i], -1, p)
    r = [cj * inv % p for cj in c]
    pivot, gi = kernel[i], gram[i]
    basis, cut = [], []
    for j, (b, h, rj) in enumerate(zip(kernel, gram, r)):
        if j != i:
            if rj:
                b = tuple([(x - rj * y) % p for x, y in zip(b, pivot)])
                h = [(x - rj * y) % p for x, y in zip(h, gi)]
            if hi := h[i]:
                h = [(x - hi * y) % p for x, y in zip(h, r)]
            basis.append(b)
            cut.append(h[:i] + h[i + 1:])
    return tuple(basis), cut


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

    Each level draws its candidates from ``_roots`` over the Gram matrix of
    the carried constraint kernel, where a feasible vector is never
    dependent, so ``dependent_rejections`` is 0 by construction.  The
    ``pairing_rejections`` of a level of dimension m are derived: t - 1 - i
    when it returns candidate i, of code t; p^m - 1 minus its candidates
    when it fails; none at a symmetric root.

    Failed subtrees are memoized by their constraint kernel and not walked
    twice; the stats still count the full proof tree, crediting each of the
    ``memo_hits`` reused subtrees with its counts.
    """
    p = space.modulus
    if not p:
        raise ValueError("integer spaces support verification only; use verify_semi_orthonormal")
    _check_cap(space)
    d = space.dimension
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

    def dfs(kernel, gram) -> tuple[tuple[int, ...], ...] | None:
        # the rest of a basis in span(kernel), the constraint kernel; gram = kernel A kernel^t
        nonlocal nodes, pairing_rejections, memo_hits
        if not kernel:
            return ()
        if kernel in failed:
            memo_hits += 1
            dn, dpair = failed[kernel]
            nodes += dn
            pairing_rejections += dpair
            return None
        first_slot = representative if len(kernel) == d else None
        before, i = (nodes, pairing_rejections), -1
        for i, (t, digits) in enumerate(_roots(gram, p)):
            if first_slot and not first_slot(t):  # t is x's code at the root
                continue
            nodes += 1
            # c_j = (kernel[j], x) for x = t . kernel
            rest = dfs(*_restrict(kernel, gram, [sum(map(mul, row, digits)) for row in gram], p))
            if rest is not None:
                pairing_rejections += 0 if first_slot else t - 1 - i
                return (tuple(sum(map(mul, col, digits)) % p for col in zip(*kernel)), *rest)
        pairing_rejections += 0 if first_slot else p ** len(kernel) - 2 - i
        failed[kernel] = (nodes - before[0], pairing_rejections - before[1])
        return None

    basis = dfs(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), space.form)
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
