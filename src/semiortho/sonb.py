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

Kernel.  Below e_1, ..., e_k lies W_k = {y : (y, v) = 0 for every placed v},
with its reduced basis B (one vector per free column, 1 there and 0 at the
other free columns) and its Gram matrix G = B A B^t.  A node carries G alone,
as a tuple of rows.  Its candidates x = t B, the roots of t^t G t = 1, come
from ``_roots``, the lazy walk that ``enumerate_candidates`` runs to the end;
B is reduced, so increasing t is increasing code order of x.  Placing x cuts
W_k by the constraint (y, x) = 0, whose coefficients on B are G t, and the
child's Gram matrix follows from G and t alone (``_cut``; in closed form
from a 2 x 2 G, ``_cut_last``).  So G fixes the whole subtree below a node:
its candidates, their order and codes t, and every child's G.  The walk
returns G and t for each level of the path it found, and ``search`` replays
only them, cutting B by G t with ``_restrict``, to decode the basis.
A vector of W_k with (x, x) = 1 is never in the span of the placed v_k:
x = sum c_k v_k would give (x, x) = sum c_k (x, v_k) = 0.  So there is no
dependence test, and the ``dependent_rejections`` stat is 0 by construction.

Memo.  Each call keeps a table of failed states.  A state is the Gram
matrix G of a kernel; m = dim W_k = d - k, its size, is the depth.  Since B
fixes G, this is coarser than keying by the kernel: every ordering of the
same chosen vectors, spans that differ by a vector n with A n = 0 (singular
A), and distinct kernels with equal Gram matrices all share one entry, and
a revisited state that already failed is not walked again.  Only failed
states are pruned, so the first basis in canonical order is unchanged.  The
counters describe the full canonical proof tree: a memo hit credits the
placements and rejections its subtree made when first walked, so
``placements`` equals the node count of the unpruned walk
(``tests/oracles.brute_force_sonb``).  ``memo_hits`` counts the reuses of a
failed Gram matrix, each at the node where it was met again.

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
    as the constraint kernel holds no dependent feasible vector) and memo_hits, the
    reuses of a failed kernel Gram matrix.  All four depend on the input alone."""

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


def _cut(gram, c, p: int):
    """For a kernel with Gram matrix gram, the Gram matrix R gram R^t of its cut
    by sum y_j c_j = 0 mod p, as a tuple of rows (gram itself when c = 0 mod p).

    The first i with c_i != 0 mod p is the pivot; R maps row j != i to row j
    - r_j row i, r = c / c_i, which keeps a reduced basis reduced.  Row j of
    R gram is h = g_j - r_j g_i, and its row of the cut is h - h_i r without
    entry i; a zero r_j or h_i skips its pass."""
    i = next((j for j, cj in enumerate(c) if cj % p), None)
    if i is None:
        return gram
    inv = pow(c[i], -1, p)
    r = [cj * inv % p for cj in c]
    gi = gram[i]
    cut = []
    for j, (h, rj) in enumerate(zip(gram, r)):
        if j != i:
            if rj:
                h = [(x - rj * y) % p for x, y in zip(h, gi)]
            if hi := h[i]:
                h = [(x - hi * y) % p for x, y in zip(h, r)]
            cut.append(tuple(h[:i] + h[i + 1:]))
    return tuple(cut)


def _cut_last(gram, digits, p: int):
    """``_cut`` of a 2 x 2 gram ((a, b), (c, e)) by gram t for a root t, in closed
    form: with c_0 = a t_0 + b t_1 and c_1 = c t_0 + e t_1, the line left
    pairs with itself to g = a k^2 - (b + c) k + e, k = c_1 / c_0, or to g = a
    when c_0 = 0 (then c_1 != 0, as t_0 c_0 + t_1 c_1 = 1)."""
    (a, b), (c, e) = gram
    t0, t1 = digits
    if c0 := (a * t0 + b * t1) % p:
        k = (c * t0 + e * t1) * pow(c0, -1, p) % p
        return ((((a * k - b - c) * k + e) % p,),)
    return ((a,),)


def _restrict(kernel, c, p: int):
    """Cut span(kernel) by sum y_j c_j = 0 mod p: its reduced basis R kernel,
    with R as in ``_cut``.  Cutting the unit basis by each row w of a matrix
    (c_j = kernel[j] . w) gives the reduced nullspace basis."""
    i = next((j for j, cj in enumerate(c) if cj % p), None)
    if i is None:
        return kernel
    inv = pow(c[i], -1, p)
    pivot, basis = kernel[i], []
    for j, (b, cj) in enumerate(zip(kernel, c)):
        if j != i:
            if rj := cj * inv % p:
                b = tuple([(x - rj * y) % p for x, y in zip(b, pivot)])
            basis.append(b)
    return tuple(basis)


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

    The walk carries only the Gram matrix G of each node's constraint kernel
    and draws its candidates from ``_roots`` over G, where a feasible vector
    is never dependent, so ``dependent_rejections`` is 0 by construction.
    It returns each level's Gram matrix and digits along the path it found,
    and only that path is replayed through ``_restrict`` to decode the basis:
    d cuts of a d-wide basis on Found, none on Exhausted.  The
    ``pairing_rejections`` of a level of dimension m are derived: t - 1 - i
    when it returns candidate i, of code t; p^m - 1 minus its candidates when
    it fails; none at a symmetric root.

    Failed subtrees are memoized by their Gram matrix and not walked twice;
    the stats still count the full proof tree, crediting each of the
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
    # Gram matrix of a kernel -> counts of its failed subtree
    failed: dict[tuple, tuple[int, int]] = {}

    def dfs(gram) -> tuple[tuple[tuple, tuple], ...] | None:
        # (Gram matrix, digits) of each level of the rest of a basis in the
        # constraint kernel whose Gram matrix is gram
        nonlocal nodes, pairing_rejections, memo_hits
        m = len(gram)
        if not m:
            return ()
        if gram in failed:
            memo_hits += 1
            dn, dpair = failed[gram]
            nodes += dn
            pairing_rejections += dpair
            return None
        first_slot = representative if m == d else None
        before, i = (nodes, pairing_rejections), -1
        for i, (t, digits) in enumerate(_roots(gram, p)):
            if first_slot and not first_slot(t):  # t is x's code at the root
                continue
            nodes += 1
            if m == 2:
                rest = dfs(_cut_last(gram, digits, p))
            else:  # c_j = (kernel[j], x) for x = t . kernel
                rest = dfs(_cut(gram, [sum(map(mul, row, digits)) for row in gram], p))
            if rest is not None:
                pairing_rejections += 0 if first_slot else t - 1 - i
                return ((gram, digits), *rest)
        pairing_rejections += 0 if first_slot else p ** m - 2 - i
        failed[gram] = (nodes - before[0], pairing_rejections - before[1])
        return None

    path = dfs(tuple(map(tuple, space.form)))
    del dfs  # it refers to itself: free the memo now, not at a later cyclic collection
    basis = None
    if path is not None:  # decode the path: x = t . kernel, then cut the kernel by x
        kernel = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        vectors = []
        for gram, digits in path:
            vectors.append(tuple(sum(map(mul, col, digits)) % p for col in zip(*kernel)))
            kernel = _restrict(kernel, [sum(map(mul, row, digits)) for row in gram], p)
        basis = tuple(vectors)
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
