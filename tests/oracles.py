"""Independent oracles the production code is checked against.

Nothing here shares an algorithm with the package: determinants come from
cofactor expansion, the basis search is plain enumeration over candidate
tuples with the defining conditions checked directly, integrality is
checked by evaluation, and Q(zeta_n) arithmetic is Fraction long division by
a Phi_n built from the Moebius product, with inverses from a linear solve.
Integer-valued polynomials are evaluated term by term in the binomial basis,
and orbits come from a union-find over the operator's graph.  Candidate sets
are a scan of every vector, and their sizes also follow in closed form from
the rank and discriminant of a congruence-diagonalized form (odd p) or from
a symplectic reduction and the Arf invariant (p = 2); orbit sizes follow by
Moebius inversion of the closed-form counts on the fixed spaces of the
operator's powers.  The proof tree of a symmetric search is a walk that
tests dependence against the set of all vectors of the span.
"""

from fractions import Fraction


def cofactor_determinant(rows, modulus=0):
    """Naive Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1 % modulus if modulus else Fraction(1)
    if n == 1:
        return rows[0][0] % modulus if modulus else Fraction(rows[0][0])
    total = 0
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = a * cofactor_determinant(minor, modulus)
        total = total - term if j % 2 else total + term
    return total % modulus if modulus else Fraction(total)


def _vectors(p, d):
    """Every vector of F_p^d except zero, in increasing base-p code
    (coordinate 0 least significant)."""
    out = []
    for code in range(1, p**d):
        v = []
        for _ in range(d):
            v.append(code % p)
            code //= p
        out.append(tuple(v))
    return out


def brute_force_sonb(form, p, dimension):
    """Unpruned search: try every candidate in every slot, checking the
    defining pairing conditions against the chosen prefix directly and
    linear independence by incremental elimination.

    Returns (basis-or-None, nodes, candidate_count).
    """
    d = dimension

    def pair(u, v):
        return sum(u[i] * form[i][j] * v[j] for i in range(d) for j in range(d)) % p

    candidates = brute_force_candidates(form, p, d)
    nc = len(candidates)
    memo = {}

    def cand_pair(i, j):
        key = (i, j)
        if key not in memo:
            memo[key] = pair(candidates[i], candidates[j])
        return memo[key]

    nodes = 0
    echelon = []

    def reduced_nonzero(v):
        w = list(v)
        for pc, row in echelon:
            f = w[pc] % p
            if f:
                for j in range(d):
                    w[j] = (w[j] - f * row[j]) % p
        pc = next((j for j in range(d) if w[j]), None)
        if pc is None:
            return None
        inv = pow(w[pc], -1, p)
        return pc, tuple(x * inv % p for x in w)

    def dfs(chosen):
        nonlocal nodes
        if len(chosen) == d:
            return tuple(candidates[i] for i in chosen)
        for i in range(nc):
            if any(cand_pair(i, e) for e in chosen):
                continue
            step = reduced_nonzero(candidates[i])
            if step is None:
                continue
            echelon.append(step)
            nodes += 1
            result = dfs(chosen + [i])
            echelon.pop()
            if result is not None:
                return result
        return None

    return dfs([]), nodes, nc


def brute_force_candidates(form, p, dimension):
    """Every x with x^t A x = 1 (mod p), by a scan of all p^d vectors."""
    d = dimension
    return tuple(
        v for v in _vectors(p, d)
        if sum(v[i] * form[i][j] * v[j] for i in range(d) for j in range(d)) % p == 1
    )


def _legendre(a, p):
    return 0 if a % p == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def closed_form_candidate_count(form, p, dimension):
    """#{x in F_p^d : x^t A x = 1} without enumeration.

    p = 2 goes to the Arf invariant count ``_count_mod2``.  For odd p, the
    quadratic form x^t A x has the symmetric matrix B = (A + A^t) / 2.
    Congruence diagonalization gives its rank r and the discriminant D, the
    product of the nonzero diagonal entries.  With radical of dimension
    d - r the count is p^(d-r) * N_r(1), where for a nondegenerate form in r
    variables (Lidl and Niederreiter, Finite Fields, Thms 6.26 and 6.27)
      r odd:  N_r(1) = p^(r-1) + p^((r-1)/2) * eta((-1)^((r-1)/2) * D),
      r even: N_r(1) = p^(r-1) - p^((r-2)/2) * eta((-1)^(r/2) * D),
    and eta is the quadratic character of F_p.
    """
    if p == 2:
        return _count_mod2(form, dimension)
    d = dimension
    half = pow(2, -1, p)
    b = [[(form[i][j] + form[j][i]) * half % p for j in range(d)] for i in range(d)]
    r, disc = 0, 1
    while r < d:
        pivot = next((i for i in range(r, d) if b[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(r, d) for j in range(i + 1, d) if b[i][j]), None)
            if pair is None:
                break
            i, j = pair  # e_i -> e_i + e_j makes b_ii = 2 b_ij nonzero
            for k in range(d):
                b[i][k] = (b[i][k] + b[j][k]) % p
            for k in range(d):
                b[k][i] = (b[k][i] + b[k][j]) % p
            pivot = i
        b[r], b[pivot] = b[pivot], b[r]
        for row in b:
            row[r], row[pivot] = row[pivot], row[r]
        inv = pow(b[r][r], -1, p)
        for i in range(r + 1, d):
            f = b[i][r] * inv % p
            if f:
                b[i] = [(x - f * y) % p for x, y in zip(b[i], b[r])]
                for row in b:
                    row[i] = (row[i] - f * row[r]) % p
        disc = disc * b[r][r] % p
        r += 1
    if r == 0:
        return 0
    if r % 2:
        n_r = p ** (r - 1) + p ** ((r - 1) // 2) * _legendre((-1) ** ((r - 1) // 2) * disc, p)
    else:
        n_r = p ** (r - 1) - p ** ((r - 2) // 2) * _legendre((-1) ** (r // 2) * disc, p)
    return p ** (d - r) * n_r


def _count_mod2(form, dimension):
    """#{x in F_2^d : x^t A x = 1} without enumeration.

    Over F_2, Q(x) = x^t A x has the alternating polar form B = A + A^t, and
    Q is additive on the radical R of B.  A symplectic reduction of B splits
    F_2^d into R and m hyperbolic pairs (e_i, f_i), rank B = 2m.  If Q is
    nonzero somewhere on R, adding such a radical vector swaps Q = 0 and
    Q = 1, so the count is 2^(d-1).  Otherwise Q lives on F_2^d / R, a
    nondegenerate form of Arf invariant a = sum Q(e_i) Q(f_i), and the count
    is 2^(d-2m) * (2^(2m-1) - (-1)^a * 2^(m-1)) (Lidl and Niederreiter,
    Finite Fields, ch. 6), which is 0 when m = 0.
    """
    d = dimension

    def q(x):
        return sum(x[i] * form[i][j] * x[j] for i in range(d) for j in range(d)) % 2

    def b(x, y):
        return (q([(u + v) % 2 for u, v in zip(x, y)]) + q(x) + q(y)) % 2

    rest = [[int(i == j) for j in range(d)] for i in range(d)]
    radical, arf, m = [], 0, 0
    while rest:
        e = rest.pop()
        f = next((y for y in rest if b(e, y)), None)
        if f is None:  # e is orthogonal to rest and to every pair split off
            radical.append(e)
            continue
        rest.remove(f)
        arf ^= q(e) & q(f)
        m += 1
        # make the rest orthogonal to e and f: y + B(y, f) e + B(y, e) f
        rest = [[(y_ + b(y, f) * e_ + b(y, e) * f_) % 2 for y_, e_, f_ in zip(y, e, f)]
                for y in rest]
    if any(q(r) for r in radical):
        return 2 ** (d - 1)
    if m == 0:
        return 0
    return 2 ** (d - 2 * m) * (2 ** (2 * m - 1) - (-1) ** arf * 2 ** (m - 1))


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _kernel(rows, p, d):
    """A basis of {x : rows x = 0 (mod p)}, by Gauss-Jordan elimination."""
    m = [[x % p for x in r] for r in rows]
    pivots = []
    for col in range(d):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [(x - m[i][col] * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(d) if c not in pivots):
        x = [0] * d
        x[free] = 1
        for r, col in enumerate(pivots):
            x[col] = -m[r][free] % p
        basis.append(x)
    return basis


def orbit_sizes_by_moebius(form, rows, p, dimension):
    """Sorted orbit sizes of x -> S x (S given by rows, an isometry of the
    form) on {x : x^t A x = 1}, without enumerating the space.

    F(k), the number of candidates fixed by S^k, is the closed-form count of
    the form restricted to ker(S^k - I).  The candidates on orbits of size
    exactly m number sum over k | m of mu(m/k) F(k), and every orbit size
    divides the order of S, found by repeated multiplication.
    """
    d = dimension
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    powers = [None, [[x % p for x in r] for r in rows]]
    while powers[-1] != identity:
        powers.append(_mat_mul(powers[-1], powers[1], p))
    order = len(powers) - 1

    def fixed(k):
        basis = _kernel([[x - y for x, y in zip(r, e)] for r, e in zip(powers[k], identity)], p, d)
        restricted = [[sum(u[i] * form[i][j] * v[j] for i in range(d) for j in range(d)) % p
                       for v in basis] for u in basis]
        return closed_form_candidate_count(restricted, p, len(basis))

    f = {k: fixed(k) for k in range(1, order + 1) if order % k == 0}
    sizes = []
    for m in f:
        exact = sum(_moebius(m // k) * f[k] for k in f if m % k == 0)
        assert exact % m == 0, (m, exact)
        sizes += [m] * (exact // m)
    return sorted(sizes)


def first_slot_reference(form, p, dimension, first_slot, key_by_span=False, key_by_gram=False):
    """The proof tree of a search whose first vector ranges over first_slot.

    Later slots range over every nonzero vector in code order with
    (x, e) = 0 for each e placed; x is a pairing rejection if (x, x) != 1, a
    dependent rejection if it lies in the span of the placed vectors, and a
    placement otherwise.  A state whose subtree failed is not walked again:
    the revisit is a memo hit and is credited with that subtree's counts.
    The state is the set of nonzero vectors orthogonal to every placed
    vector, or with key_by_span the span of the placed vectors (each as the
    set of its vectors).  With key_by_gram it is the Gram matrix of the first
    set's span over the ``_kernel`` basis of the rows A x for the placed x,
    since y . A x = (y, x).

    Returns (basis-or-None, placements, pairing_rejections,
    dependent_rejections, memo_hits).
    """
    d = dimension
    everything = _vectors(p, d)

    def pair(u, v):
        return sum(u[i] * form[i][j] * v[j] for i in range(d) for j in range(d)) % p

    def widen(spanned, e):  # span(placed + [e]) from span(placed)
        return frozenset(tuple((x + c * y) % p for x, y in zip(v, e)) for v in spanned for c in range(p))

    failed = {}
    counts = [0, 0, 0, 0]  # placements, pairing, dependent, memo hits
    norm = {x: pair(x, x) for x in everything}

    # orthogonal: the nonzero vectors orthogonal to every placed vector;
    # spanned: the span of the placed vectors
    def walk(chosen, orthogonal, spanned):
        if len(chosen) == d:
            return tuple(chosen)
        if key_by_gram:
            rows = [[sum(a * b for a, b in zip(row, x)) for row in form] for x in chosen]
            basis = _kernel(rows, p, d)
            key = tuple(tuple(pair(u, v) for v in basis) for u in basis)
        else:
            key = spanned if key_by_span else frozenset(orthogonal)
        if key in failed:
            counts[3] += 1
            for k, n in enumerate(failed[key]):
                counts[k] += n
            return None
        before = counts[:3]
        for x in first_slot if not chosen else orthogonal:
            if norm[x] != 1:
                counts[1] += 1
            elif x in spanned:
                counts[2] += 1
            else:
                counts[0] += 1
                found = walk(chosen + [x], [y for y in orthogonal if pair(y, x) == 0],
                             widen(spanned, x))
                if found is not None:
                    return found
        failed[key] = tuple(n - b for n, b in zip(counts, before))
        return None

    basis = walk([], everything, frozenset([tuple([0] * d)]))
    return (basis, *counts)


def random_int_valued_poly(rng, degree):
    """Random integer-valued polynomial of exact given degree (binomial basis)."""
    from semiortho import IntValuedPolynomial

    coeffs = [rng.randrange(-9, 10) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
    return IntValuedPolynomial.from_binomial(coeffs)


def binomial_eval(binomial_coeffs, k):
    """sum c_j * binom(k, j) in Fractions, binom(k, j) = k(k-1)...(k-j+1) / j!."""
    total = Fraction(0)
    for j, c in enumerate(binomial_coeffs):
        falling, j_factorial = 1, 1
        for i in range(j):
            falling *= k - i
            j_factorial *= i + 1
        total += c * Fraction(falling, j_factorial)
    return total


def orbit_partition(vectors, rows, p):
    """The orbits of v -> rows * v (mod p) on a finite set of vectors, as a
    set of frozensets, by union-find over the edges v -- rows * v."""
    parent = {v: v for v in vectors}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in vectors:
        image = tuple(sum(a * b for a, b in zip(row, v)) % p for row in rows)
        parent[find(v)] = find(image)
    classes = {}
    for v in vectors:
        classes.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in classes.values()}


# -- Q(zeta_n): Fraction polynomials, constant term first --------------------

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    """Long division over Fraction; returns (quotient, remainder)."""
    num = [Fraction(c) for c in num]
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    quotient = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        q = num[i + len(den) - 1] / den[-1]
        quotient[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    return quotient, num[: len(den) - 1]


def _moebius(m):
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def phi_oracle(n):
    """Phi_n as the product of (x^d - 1)^mu(n/d) over the divisors d of n."""
    top, bottom = [Fraction(1)], [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0 and _moebius(n // d):
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            if _moebius(n // d) == 1:
                top = _poly_mul(top, factor)
            else:
                bottom = _poly_mul(bottom, factor)
    quotient, remainder = _poly_divmod(top, bottom)
    assert not any(remainder)
    return quotient[: len(top) - len(bottom) + 1]


def cyc_reduce(coeffs, n):
    """Coefficients (any length, any Fraction() input) reduced modulo Phi_n."""
    phi = phi_oracle(n)
    coeffs = [Fraction(c) for c in coeffs] + [Fraction(0)] * len(phi)
    return tuple(_poly_divmod(coeffs, phi)[1])


def cyc_mul(x, y, n):
    return cyc_reduce(_poly_mul(list(x), list(y)), n)


def cyc_substitute(x, step, m):
    """Image of sum c_i zeta^i under zeta -> zeta_m^step, reduced modulo Phi_m."""
    out = [Fraction(0)] * (step * len(x) + 1)
    for i, c in enumerate(x):
        out[i * step] += c
    return cyc_reduce(out, m)


def cyc_inverse(x, n):
    """Solve x * y = 1 as a linear system over Q (Gauss-Jordan)."""
    d = len(x)
    unit = [Fraction(int(i == j)) for i in range(d) for j in range(d)]
    columns = [cyc_mul(x, unit[j * d:(j + 1) * d], n) for j in range(d)]
    rows = [[columns[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple(row[-1] for row in rows)


def cyc_str(x, n):
    """The printed form: nonzero terms in increasing power, "a/b*zN^i"."""
    parts = []
    for i, c in enumerate(x):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        body = ("" if abs(c) == 1 else f"{abs(c)}*") + (f"z{n}" if i == 1 else f"z{n}^{i}")
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) or "0"
