"""Bounded chain complexes of finitely generated free Z-modules.

Covers the symmetric monoidal closed structure (tensor with Koszul
signs, internal hom, currying), the adjoint triple between complexes and
graded modules (a graded module being a complex with no differential,
and a graded map a chain map between two of them), the comparison of
the induced comonad with tensoring by the two-term Hopf ring carrier,
and bicomplexes with a second
differential whose commutation sign is controlled by the grading
coelement's kappa.

Matrices are small exact integer matrices (lists of rows of Python
ints, see ``mat``), so all arithmetic is exact.
"""

from __future__ import annotations

import weakref

from .diffhopf import two_term_ring
from .laws import Comodule
from .linalg import (
    UNIT, CheckResult, Counterexample, LinMap, Vec, _interned, atom, equal_on_window,
    finite_space, left, pair, right, split_label, tensor_space,
)


class IllegalChain(Exception):
    "A differential whose square is not zero, or a shape mismatch."


class _Matrix:
    """An exact integer matrix: a list of rows of Python ints and a column
    count, so that a matrix with no rows keeps its shape.

    ``mat`` builds one from plain rows; ``zeros``, ``eye`` and ``_eye_at``
    build the constant ones.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.rows[i][j] = value

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if not isinstance(other, _Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __neg__(self):
        return _Matrix([[-a for a in r] for r in self.rows], self.ncols)

    def __rmul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return _Matrix([[c * a for a in r] for r in self.rows], self.ncols)

    def dot(self, other):
        """The product; each nonzero entry a[i][k] adds a multiple of row k of
        other.  A row starts as a copy of its first term, never as zeros."""
        if self.ncols != len(other.rows):
            raise ValueError("shapes %s and %s not aligned" % (self.shape, other.shape))
        n = other.ncols
        out = []
        for r in self.rows:
            acc = None
            for a, row in zip(r, other.rows):
                if not a:
                    continue
                if acc is None:
                    acc = row[:] if a == 1 else [a * b for b in row]
                else:
                    acc = [x + a * b for x, b in zip(acc, row)]
            out.append([0] * n if acc is None else acc)
        return _Matrix(out, n)


def mat(rows):
    """The exact matrix with these rows; a matrix is returned as it stands.

    Entries must be ints (not bools): anything else is a ValueError that
    names its row and column.  Rows of unequal length are IllegalChain.
    """
    if isinstance(rows, _Matrix):
        return rows
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError("entry (%d, %d) is %r, not an integer" % (i, j, v))
        if out and len(row) != len(out[0]):
            raise IllegalChain("row %d has %d entries, row 0 has %d"
                               % (i, len(row), len(out[0])))
        out.append(row)
    return _Matrix(out, len(out[0]) if out else 0)


def zeros(m, n):
    return _Matrix([[0] * n for _ in range(m)], n)


def eye(n):
    return _eye_at((n, n), 0, 0, n)


def _eye_at(shape, top, left, k):
    """The matrix of this shape that is zero but for eye(k) with its top-left
    entry at (top, left), built row by row, with no zero matrix written over."""
    m, n = shape
    return _Matrix([[0] * n for _ in range(top)]
                   + [[0] * (left + i) + [1] + [0] * (n - left - i - 1) for i in range(k)]
                   + [[0] * n for _ in range(m - top - k)], n)


def is_zero(a):
    "No nonzero entry; the scan stops at the first nonzero row."
    return not any(map(any, a.rows))


def _product(a, b):
    """a.b for two stored blocks, each a matrix or None for an absent (zero)
    one; a product with an absent factor is None, decided without building it."""
    if a is None or b is None:
        return None
    return a.dot(b)


def _agree(a, b):
    "a == b for two blocks, each a matrix or None for zero."
    if a is None:
        return b is None or is_zero(b)
    if b is None:
        return is_zero(a)
    return a == b


def _check_shapes(name, blocks, want):
    "Every block name_n has the shape want(n), or IllegalChain names both."
    for n, b in blocks.items():
        if b.shape != want(n):
            raise IllegalChain("%s_%s has shape %s, expected %s"
                               % (name, n, b.shape, want(n)))


def _nonzero(blocks):
    "The blocks as matrices, dropping those that are zero."
    out = {}
    for k, b in blocks.items():
        if not isinstance(b, _Matrix):
            b = mat(b)
        if not is_zero(b):
            out[k] = b
    return out


def _column(block, i, label):
    """Column i of a stored block as label entries: {label(j): entry} over
    its nonzero entries, and {} for an absent (zero) block.  It is the one
    place where a block meets the labels of a based space."""
    if block is None:
        return {}
    return {label(j): row[i] for j, row in enumerate(block.rows) if row[i]}


def _place(m, block, top, left):
    "Write block into m with its top-left entry at (top, left)."
    for i, r in enumerate(block.rows, top):
        m.rows[i][left:left + block.ncols] = r


class ChainComplex:
    """A bounded complex: ranks per degree and differentials d_n: B_n -> B_{n-1}.

    The constructor enforces d.d = 0 exactly and that all components
    outside the stored window vanish.
    """

    def __init__(self, ranks, diffs, name="c"):
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.diffs = _nonzero(diffs)
        self.name = name
        self._check()

    def _check(self):
        _check_shapes("d", self.diffs, lambda n: (self.rank(n - 1), self.rank(n)))
        for n, d in self.diffs.items():
            if not _agree(_product(self.diffs.get(n - 1), d), None):
                raise IllegalChain("d.d != 0 at degree %d" % n)

    def rank(self, n):
        return self.ranks.get(n, 0)

    def degrees(self):
        return sorted(self.ranks)

    def basis(self):
        "Labels for the underlying based space, degree-major."
        return [atom(self.name, n, i)
                for n in self.degrees() for i in range(self.rank(n))]

    def space(self):
        return finite_space(self.name, self.basis())

    def to_json(self):
        degs = self.degrees()
        window = [degs[0], degs[-1]] if degs else [0, 0]
        return {"window": window,
                "ranks": {str(n): r for n, r in sorted(self.ranks.items())},
                "differentials": {str(n): [list(row) for row in d]
                                  for n, d in sorted(self.diffs.items())}}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.ranks != other.ranks or self.diffs.keys() != other.diffs.keys():
            return False
        return all(d == other.diffs[n] for n, d in self.diffs.items())

    def __repr__(self):
        return "ChainComplex(%s: %s)" % (self.name, self.ranks)


class ChainMap:
    """Degree-wise matrices commuting with the differentials.

    Every nonzero block f_n must have shape (tgt.rank(n), src.rank(n)),
    with or without ``check``; ``check`` asks for d.f = f.d as well.
    """

    def __init__(self, src, tgt, blocks, check=True):
        self.src = src
        self.tgt = tgt
        self.blocks = _nonzero(blocks)
        _check_shapes("f", self.blocks, lambda n: (tgt.rank(n), src.rank(n)))
        if check and not self.is_chain_map():
            raise IllegalChain("blocks do not commute with the differentials")

    def is_chain_map(self):
        f, dx, dy = self.blocks.get, self.src.diffs.get, self.tgt.diffs.get
        for n in set(self.src.ranks) | set(self.tgt.ranks):
            if not _agree(_product(f(n - 1), dx(n)), _product(dy(n), f(n))):
                return False
        return True

    def then(self, other):
        "self, then other; other's source must be the complex self lands in."
        if other.src != self.tgt:
            raise IllegalChain("cannot compose: the map ends at %r, the next starts at "
                               "another complex, %r" % (self.tgt, other.src))
        blocks = {}
        for n, b in self.blocks.items():
            c = _product(other.blocks.get(n), b)
            if c is not None:
                blocks[n] = c
        return ChainMap(self.src, other.tgt, blocks, check=False)

    def __eq__(self, other):
        "Equal ends (as complexes, as ``then`` asks) and equal nonzero blocks."
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (self.src == other.src and self.tgt == other.tgt
                and self.blocks == other.blocks)

    def __repr__(self):
        return "ChainMap(%s -> %s)" % (self.src.name, self.tgt.name)


def identity_chain_map(X):
    return ChainMap(X, X, {n: eye(X.rank(n)) for n in X.degrees()}, check=False)


# ---------------------------------------------------------------------------
# tensor, symmetry, hom, currying


def _offsets(ra, rb, sign):
    """The basis layout of A (x) B (sign 1) or [A, B] (sign -1) from the
    ranks of A and B: the rank of each degree and the first index of the
    block (i, j) in degree sign.i + j, keyed (i, j).  Blocks come by
    ascending i; within A_i (x) B_j, a_p (x) b_q is row p * rank(B_j) + q,
    and within Hom(A_i, B_j) the map sending a_q to b_p is row
    p * rank(A_i) + q (a matrix read row by row).
    """
    ranks, offset = {}, {}
    for i in sorted(ra):
        for j, r in rb.items():
            n = sign * i + j
            offset[i, j] = ranks.get(n, 0)
            ranks[n] = offset[i, j] + ra[i] * r
    return ranks, offset


def _kron(a, b):
    "The Kronecker product a (x) b: row p * b.rows + q is row p of a times row q of b."
    return _Matrix([[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows],
                   a.ncols * b.ncols)


def _block_at(blocks, n, shape):
    "blocks[n], made a zero matrix of this shape when it is first asked for."
    b = blocks.get(n)
    if b is None:
        b = blocks[n] = zeros(*shape)
    return b


# the live tensors and internal homs, keyed by their maker and the ids of
# their two factors; each holds its factors, so the ids in its key name
# them for as long as it lives
_BY_FACTORS = weakref.WeakValueDictionary()


def _of_factors(make, A, B):
    "The one live ``make(A, B)``, built and checked only when none is alive."
    key = make, id(A), id(B)
    T = _BY_FACTORS.get(key)
    if T is None:
        T = _BY_FACTORS[key] = make(A, B)
        T._factors = A, B
    return T


def tensor_chains(A, B):
    """Componentwise tensor with the Koszul-signed differential.

    d(a (x) b) = da (x) b + (-1)^i a (x) db for a of degree i.  The basis
    of degree n lists A_i (x) B_{n-i} by ascending i, each as a_p (x) b_q
    in (p, q) order (``_offsets``).  There is one live A (x) B per pair
    of factor objects: it is built, and its d.d = 0 checked, only when
    none is alive, and freed with its last user:

    >>> A = ChainComplex({1: 1, 0: 1}, {1: [[2]]}, name="a")
    >>> B = ChainComplex({1: 1, 0: 2}, {1: [[1], [0]]}, name="b")
    >>> T = tensor_chains(A, B)
    >>> sorted(T.ranks.items())   # degree 1: a0 (x) b1, a1 (x) b0, a1 (x) b0'
    [(0, 2), (1, 3), (2, 1)]
    >>> T.diffs[2].rows           # a1 (x) b1 |-> 2 a0 (x) b1 - a1 (x) b0
    [[2], [-1], [0]]
    >>> T.diffs[1].rows
    [[1, 2, 0], [0, 0, 2]]
    >>> tensor_chains(A, B) is T
    True
    """
    return _of_factors(_tensor_complex, A, B)


def _tensor_complex(A, B):
    "A (x) B, built and checked."
    ranks, offset = _offsets(A.ranks, B.ranks, 1)
    diffs = {}
    for (i, j), col in offset.items():
        da, db = A.diffs.get(i), B.diffs.get(j)
        if da is None and db is None:
            continue
        n = i + j
        d = _block_at(diffs, n, (ranks[n - 1], ranks[n]))
        if da is not None:
            _place(d, _kron(da, eye(B.ranks[j])), offset[i - 1, j], col)
        if db is not None:
            sign = -1 if i % 2 else 1
            _place(d, sign * _kron(eye(A.ranks[i]), db), offset[i, j - 1], col)
    return ChainComplex(ranks, diffs, name="(%s(x)%s)" % (A.name, B.name))


def tensor_chain_maps(f, g):
    """f (x) g: A (x) B -> A' (x) B', whose block on A_i (x) B_j is the
    Kronecker product f_i (x) g_j, placed by the ``_offsets`` of both ends.
    It needs no sign, as f and g keep degrees."""
    src, tgt = tensor_chains(f.src, g.src), tensor_chains(f.tgt, g.tgt)
    _, cols = _offsets(f.src.ranks, g.src.ranks, 1)
    _, rows = _offsets(f.tgt.ranks, g.tgt.ranks, 1)
    blocks = {}
    for (i, j), col in cols.items():
        fb, gb = f.blocks.get(i), g.blocks.get(j)
        if fb is not None and gb is not None:
            n = i + j
            _place(_block_at(blocks, n, (tgt.rank(n), src.rank(n))),
                   _kron(fb, gb), rows[i, j], col)
    return ChainMap(src, tgt, blocks, check=False)


def chain_symmetry(A, B):
    """The signed swap a (x) b |-> (-1)^(ij) b (x) a, a chain map.

    On A_i (x) B_j it is a signed permutation, written entry by entry
    from the two ``_offsets`` tables: a_p (x) b_q, column p * rank(B_j) + q
    of the block, goes to b_q (x) a_p, row q * rank(A_i) + p of B_j (x) A_i.
    """
    AB = tensor_chains(A, B)
    BA = tensor_chains(B, A)
    _, src = _offsets(A.ranks, B.ranks, 1)
    _, tgt = _offsets(B.ranks, A.ranks, 1)
    blocks = {n: zeros(BA.rank(n), r) for n, r in AB.ranks.items()}
    for (i, j), col in src.items():
        ra, rb, top = A.ranks[i], B.ranks[j], tgt[j, i]
        rows = blocks[i + j].rows
        sign = -1 if (i * j) % 2 else 1
        for p in range(ra):
            for q in range(rb):
                rows[top + q * ra + p][col + p * rb + q] = sign
    return ChainMap(AB, BA, blocks)


def internal_hom(B, C):
    """[B, C]_n = prod_j Hom(B_j, C_{j+n}) with differential
    (df)_j b = d(f_j b) - (-1)^n f_{j-1}(db).

    On the row-major basis of ``_offsets`` (sign -1), f |-> dc f is dc (x) 1
    and f |-> f db is 1 (x) db^T.  There is one live [B, C] per pair of
    factor objects, as there is one live B (x) C.
    """
    return _of_factors(_hom_complex, B, C)


def _hom_complex(B, C):
    "[B, C], built and checked."
    ranks, offset = _offsets(B.ranks, C.ranks, -1)
    diffs = {}
    for (j, k), col in offset.items():
        dc, db = C.diffs.get(k), B.diffs.get(j + 1)
        if dc is None and db is None:
            continue
        n = k - j
        d = _block_at(diffs, n, (ranks[n - 1], ranks[n]))
        if dc is not None:
            _place(d, _kron(dc, eye(B.ranks[j])), offset[j, k - 1], col)
        if db is not None:
            sign = 1 if n % 2 else -1
            dbt = _Matrix([list(c) for c in zip(*db.rows)], len(db.rows))
            _place(d, sign * _kron(eye(C.ranks[k]), dbt), offset[j + 1, k], col)
    return ChainComplex(ranks, diffs, name="[%s,%s]" % (B.name, C.name))


def curry_adjunction(A, B, C):
    """The closed-structure bijection between maps A (x) B -> C and A -> [B, C].

    Returns (curry, uncurry); both directions produce genuine chain maps
    and are mutually inverse.  Both reshape a block between the layouts
    of ``_offsets`` for both signs: entry (c_p, a (x) b_q) of a map
    on A_i (x) B_j is entry (Hom row p * rank(B_j) + q, a) of its curry.
    """
    AB = tensor_chains(A, B)
    H = internal_hom(B, C)
    _, tensor = _offsets(A.ranks, B.ranks, 1)
    _, hom = _offsets(B.ranks, C.ranks, -1)
    # the (i, j) blocks that meet C: A_i (x) B_j -> C_{i+j}
    pieces = [(i, j, tensor[i, j], hom[j, i + j]) for i, j in tensor if (j, i + j) in hom]

    def curry(phi):
        out = {i: zeros(H.rank(i), r) for i, r in A.ranks.items()}
        for i, j, left, top in pieces:
            b = phi.blocks.get(i + j)
            if b is None:
                continue
            rb, width = B.ranks[j], A.ranks[i] * B.ranks[j]
            m = out[i].rows
            for p, row in enumerate(b.rows):
                for q in range(rb):
                    m[top + p * rb + q] = row[left + q:left + width:rb]
        return ChainMap(A, H, out)

    def uncurry(psi):
        out = {n: zeros(C.rank(n), r) for n, r in AB.ranks.items()}
        for i, j, left, top in pieces:
            b = psi.blocks.get(i)
            if b is None:
                continue
            rb, width = B.ranks[j], A.ranks[i] * B.ranks[j]
            m = out[i + j].rows
            for p in range(C.ranks[i + j]):
                rows = b.rows[top + p * rb:top + (p + 1) * rb]
                m[p][left:left + width] = [x for col in zip(*rows) for x in col]
        return ChainMap(AB, C, out)

    return curry, uncurry


# ---------------------------------------------------------------------------
# the adjoint triple against graded modules, each a complex with no differential


def underlying_graded(X):
    """The forgetful functor: the complex with X's ranks and no differential.

    There is one live U X per ranks and name, as there is one live L(M)
    and R(M), so a tensor with U X is found again while it lives.
    """
    return _interned(_graded_module, tuple(sorted(X.ranks.items())), X.name)


def _graded_module(ranks, name):
    return ChainComplex(dict(ranks), {}, name=name)


def underlying_graded_map(f):
    return ChainMap(underlying_graded(f.src), underlying_graded(f.tgt), f.blocks)


def _shift_pair_complex(ranks, name, shift):
    """Complex with degree-n component M_{k+1} + M_k for k = n - shift,
    where M has these (degree, rank) pairs, and the square-zero block
    differential [[0, 1], [0, 0]]: L(M) for shift 0 and R(M) for shift 1."""
    rank = dict(ranks).get
    out, diffs = {}, {}
    for k, r in ranks:
        above, below = rank(k + 1, 0), rank(k - 1, 0)
        out[k + shift] = above + r
        out[k + shift - 1] = r + below
        # d_n for n = k + shift sends the M_k summand of degree n onto that of n - 1
        diffs[k + shift] = _eye_at((r + below, above + r), 0, above, r)
    return ChainComplex(out, diffs, name=("L(%s)" if shift == 0 else "R(%s)") % name)


def _adjoint_complex(M, shift):
    """The one live L(M) (shift 0) or R(M) (shift 1): it is built, and its
    d.d = 0 checked, only when none is alive for M's ranks and name."""
    return _interned(_shift_pair_complex, tuple(sorted(M.ranks.items())), M.name, shift)


def left_adjoint_complex(M):
    """L(M)_n = M_{n+1} + M_n with the identity block differential.

    It reads only M's ranks, and there is one live L(M) per graded
    module M, as there is one live space per structure.
    """
    return _adjoint_complex(M, 0)


def right_adjoint_complex(M):
    "R(M)_n = M_n + M_{n-1} with the identity block differential; one live R(M) per M."
    return _adjoint_complex(M, 1)


def _pair_map(g, shift):
    "The chain map L(g) (shift 0) or R(g) (shift 1): g_{k+1} + g_k at degree n = k + shift."
    P1, P2 = _adjoint_complex(g.src, shift), _adjoint_complex(g.tgt, shift)
    blocks = {}
    for n in P1.degrees():
        k = n - shift
        top, bot = g.blocks.get(k + 1), g.blocks.get(k)
        if top is None and bot is None:
            continue
        m = zeros(P2.rank(n), P1.rank(n))
        if top is not None:
            _place(m, top, 0, 0)
        if bot is not None:
            _place(m, bot, g.tgt.rank(k + 1), g.src.rank(k + 1))
        blocks[n] = m
    return ChainMap(P1, P2, blocks, check=False)


def left_adjoint_map(g):
    return _pair_map(g, 0)


def right_adjoint_map(g):
    return _pair_map(g, 1)


def unit_ur(X):
    "X -> R(U X), x |-> (x, dx); a chain map."
    RU = right_adjoint_complex(underlying_graded(X))
    blocks = {}
    for n in X.degrees():
        k = X.rank(n)
        m = _eye_at((k + X.rank(n - 1), k), 0, 0, k)
        d = X.diffs.get(n)
        if d is not None:
            _place(m, d, k, 0)
        blocks[n] = m
    return ChainMap(X, RU, blocks)


def counit_ur(M):
    "U(R M) -> M, (u, v) |-> u."
    R = right_adjoint_complex(M)
    blocks = {}
    for n in R.degrees():
        k = M.rank(n)
        blocks[n] = _eye_at((k, R.rank(n)), 0, 0, k)
    return ChainMap(underlying_graded(R), M, blocks)


def unit_lu(M):
    "M -> U(L M), c |-> (0, c)."
    L = left_adjoint_complex(M)
    blocks = {}
    for n, k in M.ranks.items():
        blocks[n] = _eye_at((L.rank(n), k), M.rank(n + 1), 0, k)
    return ChainMap(M, underlying_graded(L), blocks)


def counit_lu(X):
    "L(U X) -> X, (u, v) |-> du + v; a chain map."
    LU = left_adjoint_complex(underlying_graded(X))
    blocks = {}
    for n in X.degrees():
        k, above = X.rank(n), X.rank(n + 1)
        m = _eye_at((k, above + k), 0, above, k)
        d = X.diffs.get(n + 1)
        if d is not None:
            _place(m, d, 0, 0)
        blocks[n] = m
    return ChainMap(LU, X, blocks)


def triangle_identities_hold(X):
    """Both triangle identities for L -| U and U -| R, on the complex X
    and its underlying graded module."""
    M = underlying_graded(X)
    idm = identity_chain_map(M)
    # held for the whole check, so that every unit and counit below
    # finds the one live R(M) and L(M), and their one live U R(M) and U L(M)
    RM, LM = right_adjoint_complex(M), left_adjoint_complex(M)
    URM, ULM = underlying_graded(RM), underlying_graded(LM)

    eta = unit_ur(X)
    ok_ur1 = underlying_graded_map(eta).then(counit_ur(M)) == idm
    lhs = unit_ur(RM).then(right_adjoint_map(counit_ur(M)))
    ok_ur2 = lhs == identity_chain_map(RM)

    ok_lu1 = unit_lu(M).then(underlying_graded_map(counit_lu(X))) == idm
    lhs = left_adjoint_map(unit_lu(M)).then(counit_lu(LM))
    ok_lu2 = lhs == identity_chain_map(LM)
    return ok_ur1 and ok_ur2 and ok_lu1 and ok_lu2


# ---------------------------------------------------------------------------
# the comonad comparison U.R = (I + D) (x) -


def comonad_comparison(X, maps=()):
    """Check (U R X)_n = X_n + X_{n-1} = ((I+D) (x) U X)_n, naturally.

    ``maps`` holds sample chain maps out of X; each is pushed through
    both functors and the resulting graded maps compared entrywise.  A
    failure names the first degree where the two sides differ: in
    dimension, or for the map at index ``map`` of ``maps``.
    """
    M = underlying_graded(X)
    ID = ChainComplex({0: 1, 1: 1}, {}, name="(I+D)")
    RM = right_adjoint_complex(M)   # held, so right_adjoint_map finds it below
    tens = tensor_chains(ID, M)
    for n in sorted(set(RM.ranks) | set(tens.ranks)):
        if RM.rank(n) != tens.rank(n):
            return CheckResult("comonad-comparison", "differ", 1,
                               Counterexample(atom("degree", n),
                                              Vec.basis(UNIT, RM.rank(n)),
                                              Vec.basis(UNIT, tens.rank(n))))
    checked = 1
    id_id = identity_chain_map(ID)
    for index, f in enumerate(maps):
        gf = underlying_graded_map(f)
        lhs = right_adjoint_map(gf).blocks
        rhs = tensor_chain_maps(id_id, gf).blocks
        checked += 1
        for n in sorted(set(lhs) | set(rhs)):
            if lhs.get(n) != rhs.get(n):
                return CheckResult("comonad-comparison", "differ", checked,
                                   {"map": index, "degree": n})
    return CheckResult("comonad-comparison", "equal", checked)


# ---------------------------------------------------------------------------
# bicomplexes and the second differential


class Bicomplex:
    """Bigraded ranks with a vertical differential d and a second family d2.

    d has bidegree (-1, 0); d2 has the declared ``d2_bidegree`` (its
    second component is always -1).  Both squares are enforced to be
    zero; the commutation law between them is checked by
    ``second_differential``.  Its basis labels are named ``b``.
    """

    name = "b"

    def __init__(self, ranks, d1, d2, d2_bidegree):
        self.ranks = {c: r for c, r in ranks.items() if r}
        self.d2_bidegree = tuple(d2_bidegree)
        self.d1 = _nonzero(d1)
        self.d2 = _nonzero(d2)
        if self.d2_bidegree[1] != -1:
            raise IllegalChain("second differential must lower the inner degree")
        self._check()

    def rank(self, cell):
        return self.ranks.get(cell, 0)

    def cells(self):
        return sorted(self.ranks)

    def _check(self):
        dn, dm = self.d2_bidegree
        _check_shapes("d", self.d1, lambda c: (self.rank((c[0] - 1, c[1])), self.rank(c)))
        _check_shapes("d'", self.d2,
                      lambda c: (self.rank((c[0] + dn, c[1] + dm)), self.rank(c)))
        d1, d2 = self.d1.get, self.d2.get
        for (n, m) in self.cells():
            if not _agree(_product(d1((n - 1, m)), d1((n, m))), None):
                raise IllegalChain("d.d != 0 at %s" % ((n, m),))
            if not _agree(_product(d2((n + dn, m + dm)), d2((n, m))), None):
                raise IllegalChain("d'.d' != 0 at %s" % ((n, m),))

    def basis(self):
        return [atom(self.name, n, m, i)
                for (n, m) in self.cells() for i in range(self.rank((n, m)))]


class SecondDifferentialResult:
    def __init__(self, accepted, violations, comodule, chain_compat):
        self.accepted = accepted
        self.violations = tuple(violations)
        self.comodule = comodule
        self.chain_compat = chain_compat

    def __bool__(self):
        return self.accepted

    def __repr__(self):
        if self.accepted:
            return "SecondDifferential(accepted)"
        return "SecondDifferential(rejected at %s)" % (self.violations,)


def second_differential(B, kappa, s):
    """Decide the kappa-square law and emit the two-term-ring coaction.

    kappa = -1 asks the squares to commute (d2 of bidegree (0, -1));
    kappa = +1 asks them to anticommute (bidegree (-s, -1)).  On success
    the coaction b |-> 1 (x) b + d (x) d2(b) over the Hopf ring built on
    I + D is returned and its comodule legality verified, together with
    an independent check that the coaction is a chain map for the
    Koszul-signed differential on the tensor product.  That ring is
    ``two_term_ring`` of d's degree (s(1 + kappa)/2, 1) and kappas
    (-1, kappa), one per datum in a process (kappa = -1 gives one ring
    for both signs); the square law, the comodule and the chain-map check
    are decided anew for every B.
    """
    expected = (0, -1) if kappa == -1 else (-s, -1)
    if B.d2_bidegree != expected:
        raise IllegalChain("second differential has bidegree %s, expected %s"
                           % (B.d2_bidegree, expected))
    dn, dm = expected
    d1, d2 = B.d1.get, B.d2.get
    violations = []
    for (n, m) in B.cells():
        after_d = _product(d2((n - 1, m)), d1((n, m)))
        after_d2 = _product(d1((n + dn, m - 1)), d2((n, m)))
        if kappa != -1 and after_d2 is not None:
            after_d2 = -after_d2
        if not _agree(after_d, after_d2):
            violations.append((n, m))
    if violations:
        return SecondDifferentialResult(False, violations, None, None)

    ddeg = (s * (1 + kappa) // 2, 1)
    H = two_term_ring(ddeg, (-1, kappa)).hopf
    dlabel = atom("d", *ddeg, 0)
    carrier = finite_space(B.name, B.basis())

    def coact_fn(label):
        n, m, i = label[2]
        return Vec({pair(right(UNIT), label): 1,
                    **_column(B.d2.get((n, m)), i,
                              lambda j: pair(left(dlabel), atom(B.name, n + dn, m - 1, j)))})

    coaction = LinMap(carrier, tensor_space(H.carrier, carrier), coact_fn,
                      name="coaction")
    comodule = Comodule(H, carrier, coaction, check_window=0)

    # independent route: the coaction must be a chain map for the
    # Koszul-signed differential on H (x) X (the H part has zero d).
    def dx_fn(label):
        n, m, i = label[2]
        return Vec(_column(B.d1.get((n, m)), i, lambda j: atom(B.name, n - 1, m, j)))

    dx = LinMap(carrier, carrier, dx_fn, name="d")
    hdeg = {right(UNIT): 0, left(dlabel): ddeg[0]}

    def dhx_fn(label):
        h, x = split_label(H.carrier, carrier, label)
        sign = -1 if hdeg[h] % 2 else 1
        return sign * Vec({pair(h, k): c for k, c in dx.apply(x).items()})

    dhx = LinMap(coaction.cod, coaction.cod, dhx_fn, name="d(x)")
    compat = equal_on_window(dx >> coaction, coaction >> dhx, 0,
                             law="coaction-chain-map")
    return SecondDifferentialResult(True, (), comodule, compat)


# ---------------------------------------------------------------------------
# seeded random generators (disks and spheres conjugated by unimodular maps)


def random_unimodular(rng, k):
    "A unimodular integer matrix and its exact inverse."
    U, Uinv = eye(k), eye(k)
    if k == 0:
        return U, Uinv
    steps = []
    for _ in range(k + 2):
        kind = rng.choice(("add", "swap", "neg"))
        i, j = rng.randrange(k), rng.randrange(k)
        c = rng.choice((-2, -1, 1, 2))
        steps.append((kind, i, j, c))
    rows = U.rows
    for kind, i, j, c in steps:
        if kind == "add" and i != j:
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "neg":
            rows[i] = [-a for a in rows[i]]
    for kind, i, j, c in steps:
        for row in Uinv.rows:
            if kind == "add" and i != j:
                row[i] -= c * row[j]
            elif kind == "swap":
                row[i], row[j] = row[j], row[i]
            elif kind == "neg":
                row[i] = -row[i]
    return U, Uinv


def random_complex(rng, name="c", max_window=7, max_rank=4):
    """A random bounded free complex with d.d = 0 by construction.

    Direct sums of shifted disks and spheres, conjugated degree-wise by
    random unimodular matrices so the differentials are not just 0/1.
    """
    lo = rng.randint(-3, 3)
    length = rng.randint(1, max_window)
    hi = lo + length - 1
    ranks = {}
    diag = {}
    for _ in range(rng.randint(1, 2 * max_rank)):
        n = rng.randint(lo, hi)
        if length > 1 and n > lo and rng.random() < 0.6:
            if ranks.get(n, 0) < max_rank and ranks.get(n - 1, 0) < max_rank:
                i, j = ranks.get(n, 0), ranks.get(n - 1, 0)
                ranks[n] = i + 1
                ranks[n - 1] = j + 1
                diag.setdefault(n, []).append((j, i))
        else:
            if ranks.get(n, 0) < max_rank:
                ranks[n] = ranks.get(n, 0) + 1
    if not ranks:
        ranks[lo] = 1
    diffs = {}
    for n, pairs in diag.items():
        d = zeros(ranks.get(n - 1, 0), ranks[n])
        for (row, col) in pairs:
            d[row, col] = 1
        diffs[n] = d
    X = ChainComplex(ranks, diffs, name=name)
    us = {n: random_unimodular(rng, X.rank(n)) for n in X.degrees()}
    conj = {n: us[n - 1][0].dot(d).dot(us[n][1]) for n, d in X.diffs.items()}
    return ChainComplex(ranks, conj, name=name)


def random_bicomplex(rng, kappa, s):
    """A random bicomplex b satisfying the kappa-square law by construction.

    Built from two small random complexes P, Q: the cell (n, m) holds
    P_u (x) Q_m with u = n (kappa = -1) or u = n - s m (kappa = +1); the
    vertical differential is p (x) 1 (twisted by (-1)^m when the squares
    must anticommute) and the second differential is 1 (x) q.  Cells are
    then conjugated by random unimodular matrices.
    """
    P = random_complex(rng, name="p", max_window=3, max_rank=2)
    Q = random_complex(rng, name="q", max_window=3, max_rank=2)
    if rng.random() < 0.2:
        Q = ChainComplex(dict(Q.ranks), {}, name="q")  # zero second differential
    dn = 0 if kappa == -1 else -s

    def cell_of(u, m):
        return (u - dn * m, m)

    ranks = {}
    for u in P.degrees():
        for m in Q.degrees():
            r = P.rank(u) * Q.rank(m)
            if r:
                ranks[cell_of(u, m)] = r

    d1, d2 = {}, {}
    for u in P.degrees():
        for m in Q.degrees():
            cell = cell_of(u, m)
            if not ranks.get(cell):
                continue
            p, q = P.diffs.get(u), Q.diffs.get(m)
            if p is not None:
                sign = -1 if (kappa == 1 and m % 2) else 1
                d1[cell] = sign * _kron(p, eye(Q.rank(m)))
            if q is not None:
                d2[cell] = _kron(eye(P.rank(u)), q)
    B = Bicomplex(ranks, d1, d2, (dn, -1))

    us = {cell: random_unimodular(rng, B.rank(cell)) for cell in B.cells()}
    c1 = {(n, m): us[n - 1, m][0].dot(d).dot(us[n, m][1]) for (n, m), d in B.d1.items()}
    c2 = {(n, m): us[n + dn, m - 1][0].dot(d).dot(us[n, m][1]) for (n, m), d in B.d2.items()}
    return Bicomplex(ranks, c1, c2, (dn, -1))
