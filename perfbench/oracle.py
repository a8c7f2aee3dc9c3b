"""Independent answers the benchmark checks the program's verdicts against.

Nothing here imports or shares an algorithm with ``semiortho``.  The basis
search is an unpruned depth-first walk over all self-pairing-one vectors in
canonical order, with the pairing conditions precomputed as bit masks; the
cyclotomic helpers reduce power-basis vectors modulo Phi_n directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _pair(form, u, v, p):
    d = len(form)
    return sum(u[i] * form[i][j] * v[j] for i in range(d) for j in range(d)) % p


@lru_cache(maxsize=None)
def canonical_vectors(p, d):
    """All nonzero vectors of F_p^d, ordered by sum(x_i p^i)."""
    out = []
    for code in range(1, p**d):
        v = []
        for _ in range(d):
            v.append(code % p)
            code //= p
        out.append(tuple(v))
    return out


def sonb(form, p):
    """First semi-orthonormal basis in canonical order, or None.

    Returns (basis, nodes, candidate_count).  Every candidate is tried in
    every slot; a candidate may follow the chosen prefix when it pairs to
    zero against each chosen vector and is linearly independent of them.
    """
    d = len(form)

    def image(v):
        return [sum(a * b for a, b in zip(row, v)) for row in form]

    def dot(u, w):
        return sum(a * b for a, b in zip(u, w)) % p

    cands = [v for v in canonical_vectors(p, d) if dot(v, image(v)) == 1]
    n = len(cands)
    images = [image(v) for v in cands]
    # Bit j of may_follow[i]: cands[j] pairs to zero against cands[i].
    may_follow = [
        sum(1 << j for j, u in enumerate(cands) if dot(u, images[i]) == 0)
        for i in range(n)
    ]
    nodes = 0

    def reduce(v, echelon):
        w = list(v)
        for pc, row in echelon:
            f = w[pc]
            if f:
                w = [(a - f * b) % p for a, b in zip(w, row)]
        pc = next((j for j in range(d) if w[j]), None)
        if pc is None:
            return None
        inv = pow(w[pc], -1, p)
        return pc, [x * inv % p for x in w]

    def dfs(allowed, echelon, chosen):
        nonlocal nodes
        if len(chosen) == d:
            return tuple(cands[i] for i in chosen)
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            step = reduce(cands[i], echelon)
            if step is None:
                continue
            nodes += 1
            found = dfs(allowed & may_follow[i], echelon + [step], chosen + [i])
            if found is not None:
                return found
        return None

    basis = dfs((1 << n) - 1, [], [])
    return basis, nodes, n


def is_semi_orthonormal(form, p, basis):
    """Pairing conditions and full rank, checked directly."""
    d = len(form)
    if basis is None or len(basis) != d:
        return False
    for i, e in enumerate(basis):
        if _pair(form, e, e, p) != 1:
            return False
        if any(_pair(form, e, basis[j], p) for j in range(i)):
            return False
    rows = [list(v) for v in basis]
    rank = 0
    for col in range(d):
        piv = next((i for i in range(rank, d) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(d):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank == d


@lru_cache(maxsize=None)
def _cyclotomic_polynomial(n):
    """Phi_n by exact division of x^n - 1 by Phi_d for the proper divisors d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = _cyclotomic_polynomial(d)
        quot = [0] * (len(poly) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            q = poly[i + len(den) - 1] // den[-1]
            quot[i] = q
            for j, c in enumerate(den):
                poly[i + j] -= q * c
        poly = quot
    return tuple(poly)


def reduce_cyclotomic(coeffs, n):
    """Power-basis coordinates of sum c_i zeta_n^i, a tuple of phi(n) Fractions."""
    phi = _cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cs = [Fraction(c) for c in coeffs] + [Fraction(0)] * deg
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            cs[i] = Fraction(0)
            for j in range(deg):
                cs[i - deg + j] -= c * phi[j]
    return tuple(cs[:deg])


def zeta_sum(n, exponents):
    """Reduced coordinates of sum over e of zeta_n^e."""
    coeffs = [0] * n
    for e in exponents:
        coeffs[e % n] += 1
    return reduce_cyclotomic(coeffs, n)


def complex_conjugate(coeffs, n):
    """Image under zeta -> zeta^(-1)."""
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        out[-i % n] += c
    return reduce_cyclotomic(out, n)


def g21_character_table():
    """The printed table of the order-21 group over Q(zeta_21).

    Classes in the order 1, s, s^3, t, t^2; omega = zeta^7, and
    b = xi + xi^2 + xi^4 with xi = zeta^3.
    """
    n = 21
    one = zeta_sum(n, [0])
    three = zeta_sum(n, [0, 0, 0])
    zero = zeta_sum(n, [])
    omega = zeta_sum(n, [7])
    omega_bar = zeta_sum(n, [14])
    b = zeta_sum(n, [3, 6, 12])
    b_bar = zeta_sum(n, [18, 15, 9])
    return {
        "C": (one,) * 5,
        "V1": (one, one, one, omega, omega_bar),
        "V1bar": (one, one, one, omega_bar, omega),
        "V3": (three, b, b_bar, zero, zero),
        "V3bar": (three, b_bar, b, zero, zero),
    }
