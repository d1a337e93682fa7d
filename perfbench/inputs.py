"""Seeded input generators for the benchmark, in plain Python.

Inputs are built here rather than by the library's own ``random_*``
helpers, so that a change to the program can never change what it is
given: a seed names the same complexes, maps and squares on every
commit.  Matrices are lists of rows of Python ints.
"""

from __future__ import annotations


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b, cols):
    "Product a.b; ``cols`` is the column count of b, which an empty b cannot show."
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        orow = out[i]
        for k, c in enumerate(row):
            if c:
                bk = b[k]
                for j in range(cols):
                    orow[j] += c * bk[j]
    return out


def is_zero(a):
    return all(not v for row in a for v in row)


def unimodular(rng, k):
    """A random unimodular k x k matrix and its exact inverse.

    U is a product of elementary row operations applied to the identity;
    the inverse applies the inverse operations as column operations in
    the same order.
    """
    u, uinv = eye(k), eye(k)
    if k == 0:
        return u, uinv
    for _ in range(k + 2):
        kind = rng.choice(("add", "swap", "neg"))
        i, j = rng.randrange(k), rng.randrange(k)
        c = rng.choice((-2, -1, 1, 2))
        if kind == "add" and i != j:
            u[j] = [x + c * y for x, y in zip(u[j], u[i])]
            for row in uinv:
                row[i] -= c * row[j]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]
        elif kind == "neg":
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]
    if matmul(u, uinv, k) != eye(k):
        raise AssertionError("unimodular inverse is wrong")
    return u, uinv


class Complex:
    """Ranks and differentials of a bounded free complex, d_n: C_n -> C_{n-1}."""

    def __init__(self, ranks, diffs):
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.diffs = {n: d for n, d in diffs.items() if d and not is_zero(d)}

    def rank(self, n):
        return self.ranks.get(n, 0)

    def d(self, n):
        return self.diffs.get(n) or zeros(self.rank(n - 1), self.rank(n))

    def degrees(self):
        return sorted(self.ranks)


def random_complex(rng, max_window, max_rank):
    """Shifted disks and spheres, conjugated degree-wise by unimodular maps.

    d.d = 0 holds by construction: each disk contributes one 1 from its
    top to its bottom basis vector, and conjugation preserves d.d = 0.
    """
    lo = rng.randint(-3, 3)
    length = rng.randint(1, max_window)
    hi = lo + length - 1
    ranks, ones = {}, {}
    for _ in range(rng.randint(1, 2 * max_rank)):
        n = rng.randint(lo, hi)
        if length > 1 and n > lo and rng.random() < 0.6:
            if ranks.get(n, 0) < max_rank and ranks.get(n - 1, 0) < max_rank:
                col, row = ranks.get(n, 0), ranks.get(n - 1, 0)
                ranks[n], ranks[n - 1] = col + 1, row + 1
                ones.setdefault(n, []).append((row, col))
        elif ranks.get(n, 0) < max_rank:
            ranks[n] = ranks.get(n, 0) + 1
    if not ranks:
        ranks[lo] = 1
    us = {n: unimodular(rng, r) for n, r in sorted(ranks.items())}
    diffs = {}
    for n, entries in ones.items():
        d = zeros(ranks[n - 1], ranks[n])
        for row, col in entries:
            d[row][col] = 1
        um, uinv = us[n - 1][0], us[n][1]
        diffs[n] = matmul(matmul(um, d, ranks[n]), uinv, ranks[n])
    return Complex(ranks, diffs)


def random_chain_map(rng, x, y, same):
    """Blocks of a chain map x -> y: d.g + g.d for a random g of degree +1,
    plus a random multiple of the identity when ``same``."""
    g = {n: [[rng.randint(-2, 2) for _ in range(x.rank(n))]
             for _ in range(y.rank(n + 1))] for n in x.degrees()}
    blocks = {}
    for n in sorted(set(x.degrees()) | set(y.degrees())):
        b = zeros(y.rank(n), x.rank(n))
        if n in g:
            b = _add(b, matmul(y.d(n + 1), g[n], x.rank(n)))
        if n - 1 in g:
            b = _add(b, matmul(g[n - 1], x.d(n), x.rank(n)))
        blocks[n] = b
    if same:
        lam = rng.choice((0, 1, -1, 2))
        for n in x.degrees():
            for i in range(x.rank(n)):
                blocks[n][i][i] += lam
    return blocks


def _add(a, b):
    return [[p + q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)]


def _kron(a, arows, acols, b, brows, bcols):
    out = zeros(arows * brows, acols * bcols)
    for i in range(arows):
        for j in range(acols):
            if a[i][j]:
                for k in range(brows):
                    for m in range(bcols):
                        out[i * brows + k][j * bcols + m] = a[i][j] * b[k][m]
    return out


def random_bicomplex(rng, kappa, s):
    """A bicomplex obeying the kappa-square law by construction.

    The cell (n, m) holds P_u (x) Q_m with n = u - dn.m, where the second
    differential has bidegree (dn, -1): dn = 0 when the squares commute
    (kappa = -1) and dn = -s when they anticommute (kappa = +1).  The
    vertical differential is p (x) 1, twisted by (-1)^m for kappa = +1,
    and the second one is 1 (x) q; every cell is then conjugated by a
    random unimodular matrix.  Returns (ranks, d1, d2, bidegree).
    """
    p = random_complex(rng, 3, 2)
    q = random_complex(rng, 3, 2)
    if rng.random() < 0.2:
        q = Complex(q.ranks, {})
    dn = 0 if kappa == -1 else -s
    ranks, d1, d2 = {}, {}, {}
    for u in p.degrees():
        for m in q.degrees():
            ranks[(u - dn * m, m)] = p.rank(u) * q.rank(m)
    for u in p.degrees():
        for m in q.degrees():
            cell = (u - dn * m, m)
            pr, qr = p.rank(u), q.rank(m)
            if p.rank(u - 1):
                sign = -1 if (kappa == 1 and m % 2) else 1
                k = _kron(p.d(u), p.rank(u - 1), pr, eye(qr), qr, qr)
                d1[cell] = [[sign * v for v in row] for row in k]
            if q.rank(m - 1):
                d2[cell] = _kron(eye(pr), pr, pr, q.d(m), q.rank(m - 1), qr)
    us = {cell: unimodular(rng, r) for cell, r in sorted(ranks.items())}
    c1, c2 = {}, {}
    for (n, m), d in d1.items():
        src = ranks[(n, m)]
        c1[(n, m)] = matmul(matmul(us[(n - 1, m)][0], d, src),
                            us[(n, m)][1], src)
    for (n, m), d in d2.items():
        src = ranks[(n, m)]
        c2[(n, m)] = matmul(matmul(us[(n + dn, m - 1)][0], d, src),
                            us[(n, m)][1], src)
    return ranks, c1, c2, (dn, -1)


def violating_square(rng, kappa, s):
    """One square whose two composites break the kappa-square law.

    Four cells around a top cell t: d1 and d2 leave t, d2 and d1 arrive
    at the bottom cell.  Entries are random and redrawn until
    d2.d1 != -kappa . d1.d2 at t, which is the law second_differential
    enforces (commute for kappa = -1, anticommute for kappa = +1).
    Returns (ranks, d1, d2, bidegree, top cell).
    """
    dn = 0 if kappa == -1 else -s
    top = (1 - dn, 1) if dn < 0 else (1, 1)
    left = (top[0] - 1, top[1])            # d1 image of top
    right = (top[0] + dn, top[1] - 1)      # d2 image of top
    bottom = (top[0] - 1 + dn, top[1] - 1)
    r = {c: rng.randint(1, 2) for c in (top, left, right, bottom)}

    def block(rows, cols):
        return [[rng.choice((-2, -1, 1, 2)) for _ in range(cols)]
                for _ in range(rows)]

    while True:
        a = block(r[left], r[top])      # d1: top -> left
        b = block(r[bottom], r[left])   # d2: left -> bottom
        c = block(r[right], r[top])     # d2: top -> right
        e = block(r[bottom], r[right])  # d1: right -> bottom
        via_d1 = matmul(b, a, r[top])
        via_d2 = matmul(e, c, r[top])
        want = via_d2 if kappa == -1 else [[-v for v in row] for row in via_d2]
        if via_d1 != want:
            break
    d1 = {top: a, right: e}
    d2 = {top: c, left: b}
    return r, d1, d2, (dn, -1), top


def bicomplex_sum(first, second, dn):
    """Direct sum of two bicomplexes (ranks, d1, d2) whose d2 has bidegree (dn, -1).

    Ranks add cell by cell and every differential is block diagonal, so a
    composite of the sum is the block diagonal of the summands' composites:
    the sum breaks the square law exactly where one summand does.
    """
    (r1, a1, b1), (r2, a2, b2) = first, second
    ranks = {c: r1.get(c, 0) + r2.get(c, 0) for c in set(r1) | set(r2)}

    def summed(m1, m2, step):
        out = {}
        for cell in set(m1) | set(m2):
            target = (cell[0] + step[0], cell[1] + step[1])
            block = zeros(ranks[target], ranks[cell])
            top, left = r1.get(target, 0), r1.get(cell, 0)
            for i, row in enumerate(m1.get(cell, [])):
                block[i][:left] = row
            for i, row in enumerate(m2.get(cell, [])):
                block[top + i][left:] = row
            out[cell] = block
        return out

    return ranks, summed(a1, a2, (-1, 0)), summed(b1, b2, (dn, -1))
