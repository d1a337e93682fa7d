"""Bounded chain complexes of finitely generated free Z-modules.

Covers the symmetric monoidal closed structure (tensor with Koszul
signs, internal hom, currying), the adjoint triple between complexes and
graded modules, the comparison of the induced comonad with tensoring by
the two-term Hopf ring carrier, and bicomplexes with a second
differential whose commutation sign is controlled by the grading
coelement's kappa.

Matrices are small exact integer matrices (lists of rows of Python
ints, see ``mat``), so all arithmetic is exact.
"""

from __future__ import annotations

from .diffhopf import build_differential_hopf
from .grading import Bicharacter, GradedModule, graded_to_comodule, sign_coelement
from .laws import Comodule
from .linalg import (
    UNIT, CheckResult, Counterexample, LinMap, Vec, atom, equal_on_window,
    finite_space, left, pair, right, split_label, tensor_space,
)


class IllegalChain(Exception):
    "A differential whose square is not zero, or a shape mismatch."


class _Matrix:
    """An exact integer matrix: a list of rows of Python ints and a column
    count, so that a matrix with no rows keeps its shape.

    Only ``mat``, ``zeros`` and ``eye`` build one.
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

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shapes %s and %s differ" % (self.shape, other.shape))
        return _Matrix([[a + b for a, b in zip(r, s)]
                        for r, s in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        return _Matrix([[-a for a in r] for r in self.rows], self.ncols)

    def __rmul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return _Matrix([[c * a for a in r] for r in self.rows], self.ncols)

    def dot(self, other):
        "The product; each nonzero entry a[i][k] adds a multiple of row k of other."
        if self.ncols != len(other.rows):
            raise ValueError("shapes %s and %s not aligned" % (self.shape, other.shape))
        n = other.ncols
        out = []
        for r in self.rows:
            acc = [0] * n
            for a, row in zip(r, other.rows):
                if a:
                    acc = [x + a * b for x, b in zip(acc, row)]
            out.append(acc)
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
    a = zeros(n, n)
    for i in range(n):
        a.rows[i][i] = 1
    return a


def is_zero(a):
    return not any(any(r) for r in a.rows)


def mat_eq(a, b):
    return a == b


def _nonzero(blocks):
    "The blocks as matrices, dropping those that are zero."
    return {k: m for k, m in ((k, mat(b)) for k, b in blocks.items()) if not is_zero(m)}


def _place(m, block, top, left):
    "Write block into m with its top-left entry at (top, left)."
    for i, r in enumerate(block.rows, top):
        m.rows[i][left:left + block.ncols] = r


class ChainComplex:
    """A bounded complex: ranks per degree and differentials d_n: B_n -> B_{n-1}.

    The constructor enforces d.d = 0 exactly and that all components
    outside the stored window vanish.
    """

    def __init__(self, ranks, diffs, name="c", check=True):
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.diffs = _nonzero(diffs)
        self.name = name
        if check:
            self._check()

    def _check(self):
        for n, d in self.diffs.items():
            want = (self.rank(n - 1), self.rank(n))
            if d.shape != want:
                raise IllegalChain("d_%d has shape %s, expected %s"
                                   % (n, d.shape, want))
        for n in list(self.diffs):
            dd = self.d(n - 1).dot(self.d(n))
            if not is_zero(dd):
                raise IllegalChain("d.d != 0 at degree %d" % n)

    def rank(self, n):
        return self.ranks.get(n, 0)

    def d(self, n):
        d = self.diffs.get(n)
        if d is None:
            return zeros(self.rank(n - 1), self.rank(n))
        return d

    def degrees(self):
        return sorted(self.ranks)

    @property
    def lo(self):
        return min(self.ranks) if self.ranks else 0

    @property
    def hi(self):
        return max(self.ranks) if self.ranks else 0

    def total_rank(self):
        return sum(self.ranks.values())

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

    @classmethod
    def from_json(cls, doc, name="c"):
        ranks = {int(n): r for n, r in doc["ranks"].items()}
        diffs = {int(n): mat(rows) for n, rows in doc["differentials"].items()}
        return cls(ranks, diffs, name=name)

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.ranks != other.ranks:
            return False
        return all(mat_eq(self.d(n), other.d(n))
                   for n in set(self.diffs) | set(other.diffs))

    def __repr__(self):
        return "ChainComplex(%s: %s)" % (self.name, self.ranks)


def sphere(n, rank=1, name="s"):
    return ChainComplex({n: rank}, {}, name=name)


def disk(n, name="d"):
    "The contractible complex Z at degrees n, n-1 with identity differential."
    return ChainComplex({n: 1, n - 1: 1}, {n: eye(1)}, name=name)


class ChainMap:
    """Degree-wise matrices commuting with the differentials."""

    def __init__(self, src, tgt, blocks, check=True):
        self.src = src
        self.tgt = tgt
        self.blocks = _nonzero(blocks)
        if check and not self.is_chain_map():
            raise IllegalChain("blocks do not commute with the differentials")

    def block(self, n):
        b = self.blocks.get(n)
        if b is None:
            return zeros(self.tgt.rank(n), self.src.rank(n))
        return b

    def is_chain_map(self):
        for n in set(self.src.degrees()) | set(self.tgt.degrees()):
            lhs = self.block(n - 1).dot(self.src.d(n))
            rhs = self.tgt.d(n).dot(self.block(n))
            if not mat_eq(lhs, rhs):
                return False
        return True

    def then(self, other):
        if other.src is not self.tgt and other.src.ranks != self.tgt.ranks:
            raise IllegalChain("composition shape mismatch")
        blocks = {n: other.block(n).dot(self.block(n))
                  for n in self.src.degrees()}
        return ChainMap(self.src, other.tgt, blocks, check=False)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        degs = set(self.blocks) | set(other.blocks)
        return all(mat_eq(self.block(n), other.block(n)) for n in degs)

    def __repr__(self):
        return "ChainMap(%s -> %s)" % (self.src.name, self.tgt.name)


def identity_chain_map(X):
    return ChainMap(X, X, {n: eye(X.rank(n)) for n in X.degrees()}, check=False)


# ---------------------------------------------------------------------------
# tensor, symmetry, hom, currying


def _tensor_index(A, B, n):
    "(i, p, q) triples indexing (A (x) B)_n, i ascending."
    out = []
    for i in A.degrees():
        rb = B.rank(n - i)
        for p in range(A.rank(i)):
            for q in range(rb):
                out.append((i, p, q))
    return out


def tensor_chains(A, B, name=None):
    """Componentwise tensor with the Koszul-signed differential.

    d(a (x) b) = da (x) b + (-1)^i a (x) db for a of degree i.
    """
    name = name or "(%s(x)%s)" % (A.name, B.name)
    ranks = {}
    for i in A.degrees():
        for j in B.degrees():
            n = i + j
            ranks[n] = ranks.get(n, 0) + A.rank(i) * B.rank(j)
    index = {n: _tensor_index(A, B, n) for n in ranks}
    lookup = {n: {t: k for k, t in enumerate(ix)} for n, ix in index.items()}
    diffs = {}
    for n in ranks:
        rows = index.get(n - 1, [])
        if not rows:
            continue
        d = zeros(len(rows), len(index[n]))
        row_of = lookup[n - 1]
        for col, (i, p, q) in enumerate(index[n]):
            da = A.d(i)
            for p2 in range(A.rank(i - 1)):
                if da[p2, p]:
                    d[row_of[(i - 1, p2, q)], col] += da[p2, p]
            db = B.d(n - i)
            sign = -1 if i % 2 else 1
            for q2 in range(B.rank(n - i - 1)):
                if db[q2, q]:
                    d[row_of[(i, p, q2)], col] += sign * db[q2, q]
        diffs[n] = d
    return ChainComplex(ranks, diffs, name=name)


def chain_symmetry(A, B):
    "The signed swap a (x) b |-> (-1)^(ij) b (x) a, a chain map."
    AB = tensor_chains(A, B)
    BA = tensor_chains(B, A)
    blocks = {}
    for n in AB.degrees():
        src_ix = _tensor_index(A, B, n)
        tgt_pos = {t: k for k, t in enumerate(_tensor_index(B, A, n))}
        b = zeros(len(tgt_pos), len(src_ix))
        for col, (i, p, q) in enumerate(src_ix):
            j = n - i
            sign = -1 if (i * j) % 2 else 1
            b[tgt_pos[(j, q, p)], col] = sign
        blocks[n] = b
    return ChainMap(AB, BA, blocks)


def _hom_index(B, C, n):
    "(j, p, q) triples indexing [B, C]_n: the map sending q in B_j to p in C_{j+n}."
    out = []
    for j in B.degrees():
        rc = C.rank(j + n)
        for p in range(rc):
            for q in range(B.rank(j)):
                out.append((j, p, q))
    return out


def internal_hom(B, C, name=None):
    """[B, C]_n = prod_j Hom(B_j, C_{j+n}) with differential
    (df)_j b = d(f_j b) - (-1)^n f_{j-1}(db)."""
    name = name or "[%s,%s]" % (B.name, C.name)
    ranks = {}
    degs = range(C.lo - B.hi, C.hi - B.lo + 1)
    for n in degs:
        r = sum(B.rank(j) * C.rank(j + n) for j in B.degrees())
        if r:
            ranks[n] = r
    index = {n: _hom_index(B, C, n) for n in ranks}
    diffs = {}
    for n in ranks:
        rows = index.get(n - 1, [])
        if not rows:
            continue
        d = zeros(len(rows), len(index[n]))
        row_of = {t: k for k, t in enumerate(rows)}
        sign = -1 if n % 2 else 1
        for col, (j, p, q) in enumerate(index[n]):
            dc = C.d(j + n)
            for p2 in range(C.rank(j + n - 1)):
                if dc[p2, p]:
                    d[row_of[(j, p2, q)], col] += dc[p2, p]
            db = B.d(j + 1)
            for q2 in range(B.rank(j + 1)):
                if db[q, q2]:
                    d[row_of[(j + 1, p, q2)], col] += -sign * db[q, q2]
        diffs[n] = d
    return ChainComplex(ranks, diffs, name=name)


def curry_adjunction(A, B, C):
    """The closed-structure bijection between maps A (x) B -> C and A -> [B, C].

    Returns (curry, uncurry); both directions produce genuine chain maps
    and are mutually inverse.
    """
    AB = tensor_chains(A, B)
    H = internal_hom(B, C)

    def curry(phi):
        blocks = {}
        for i in A.degrees():
            rows = _hom_index(B, C, i)
            m = zeros(len(rows), A.rank(i))
            for r, (j, p, q) in enumerate(rows):
                n = i + j
                cols = {t: k for k, t in enumerate(_tensor_index(A, B, n))}
                for pa in range(A.rank(i)):
                    m[r, pa] = phi.block(n)[p, cols[(i, pa, q)]]
            blocks[i] = m
        return ChainMap(A, H, blocks)

    def uncurry(psi):
        blocks = {}
        for n in AB.degrees():
            cols = _tensor_index(A, B, n)
            m = zeros(C.rank(n), len(cols))
            for cix, (i, p, q) in enumerate(cols):
                rows = {t: k for k, t in enumerate(_hom_index(B, C, i))}
                for pc in range(C.rank(n)):
                    m[pc, cix] = psi.block(i)[rows[(n - i, pc, q)], p]
            blocks[n] = m
        return ChainMap(AB, C, blocks)

    return curry, uncurry


def evaluation_map(B, C):
    "uncurry of the identity on [B, C]: the map [B, C] (x) B -> C."
    H = internal_hom(B, C)
    _, uncurry = curry_adjunction(H, B, C)
    return uncurry(identity_chain_map(H))


# ---------------------------------------------------------------------------
# the adjoint triple against graded modules


class GradedMap:
    "A degree-wise matrix family between rank-1 graded modules."

    def __init__(self, src, tgt, blocks):
        self.src = src
        self.tgt = tgt
        self.blocks = {n: mat(b) for n, b in blocks.items()}

    def block(self, n):
        b = self.blocks.get(n)
        if b is None:
            return zeros(self.tgt.dim_at(n), self.src.dim_at(n))
        return b

    def then(self, other):
        degs = {n for n, _ in self.src.components}
        return GradedMap(self.src, other.tgt,
                         {n[0]: other.block(n[0]).dot(self.block(n[0]))
                          for n in degs})

    def __eq__(self, other):
        degs = set(self.blocks) | set(other.blocks)
        return all(mat_eq(self.block(n), other.block(n)) for n in degs)


def underlying_graded(X):
    "The forgetful functor: drop the differential."
    return GradedModule.of({(n,): X.rank(n) for n in X.degrees()},
                           rank=1, name=X.name)


def underlying_graded_map(f):
    return GradedMap(underlying_graded(f.src), underlying_graded(f.tgt),
                     dict(f.blocks))


def _shift_pair_complex(M, shift, name):
    """Complex with degree-n component M_{k+1} + M_k for k = n - shift,
    and the square-zero block differential [[0, 1], [0, 0]]."""
    ranks = {}
    degs = [d[0] for d in M.degrees()]
    for n in {d + shift for d in degs} | {d + shift - 1 for d in degs}:
        k = n - shift
        r = M.dim_at(k + 1) + M.dim_at(k)
        if r:
            ranks[n] = r
    diffs = {}
    for n in ranks:
        if ranks.get(n - 1):
            k = n - shift
            top, bot = M.dim_at(k + 1), M.dim_at(k)
            t2, b2 = M.dim_at(k), M.dim_at(k - 1)
            d = zeros(t2 + b2, top + bot)
            for i in range(min(bot, t2)):
                d[i, top + i] = 1
            diffs[n] = d
    return ChainComplex(ranks, diffs, name=name)


def left_adjoint_complex(M):
    "L(M)_n = M_{n+1} + M_n with the identity block differential."
    return _shift_pair_complex(M, 0, name="L(%s)" % M.name)


def right_adjoint_complex(M):
    "R(M)_n = M_n + M_{n-1} with the identity block differential."
    return _shift_pair_complex(M, 1, name="R(%s)" % M.name)


def left_adjoint_map(g):
    L1, L2 = left_adjoint_complex(g.src), left_adjoint_complex(g.tgt)
    blocks = {}
    for n in L1.degrees():
        top, bot = g.block(n + 1), g.block(n)
        m = zeros(L2.rank(n), L1.rank(n))
        _place(m, top, 0, 0)
        _place(m, bot, *top.shape)
        blocks[n] = m
    return ChainMap(L1, L2, blocks, check=False)


def right_adjoint_map(g):
    R1, R2 = right_adjoint_complex(g.src), right_adjoint_complex(g.tgt)
    blocks = {}
    for n in R1.degrees():
        top, bot = g.block(n), g.block(n - 1)
        m = zeros(R2.rank(n), R1.rank(n))
        _place(m, top, 0, 0)
        _place(m, bot, *top.shape)
        blocks[n] = m
    return ChainMap(R1, R2, blocks, check=False)


def unit_ur(X):
    "X -> R(U X), x |-> (x, dx); a chain map."
    RU = right_adjoint_complex(underlying_graded(X))
    blocks = {}
    for n in X.degrees():
        m = zeros(X.rank(n) + X.rank(n - 1), X.rank(n))
        _place(m, eye(X.rank(n)), 0, 0)
        _place(m, X.d(n), X.rank(n), 0)
        blocks[n] = m
    return ChainMap(X, RU, blocks)


def counit_ur(M):
    "U(R M) -> M, (u, v) |-> u; a graded map."
    R = right_adjoint_complex(M)
    blocks = {}
    for n in R.degrees():
        k = M.dim_at(n)
        m = zeros(k, R.rank(n))
        _place(m, eye(k), 0, 0)
        blocks[n] = m
    return GradedMap(underlying_graded(R), M, blocks)


def unit_lu(M):
    "M -> U(L M), c |-> (0, c); a graded map."
    L = left_adjoint_complex(M)
    blocks = {}
    for n, _ in M.components:
        k = M.dim_at(n)
        m = zeros(L.rank(n[0]), k)
        _place(m, eye(k), M.dim_at(n[0] + 1), 0)
        blocks[n[0]] = m
    return GradedMap(M, underlying_graded(L), blocks)


def counit_lu(X):
    "L(U X) -> X, (u, v) |-> du + v; a chain map."
    LU = left_adjoint_complex(underlying_graded(X))
    blocks = {}
    for n in X.degrees():
        m = zeros(X.rank(n), X.rank(n + 1) + X.rank(n))
        _place(m, X.d(n + 1), 0, 0)
        _place(m, eye(X.rank(n)), 0, X.rank(n + 1))
        blocks[n] = m
    return ChainMap(LU, X, blocks)


def triangle_identities_hold(X):
    """Both triangle identities for L -| U and U -| R, on the complex X
    and its underlying graded module."""
    M = underlying_graded(X)
    idm = GradedMap(M, M, {n[0]: eye(d) for n, d in M.components})

    eta = unit_ur(X)
    ok_ur1 = underlying_graded_map(eta).then(counit_ur(M)) == idm
    RM = right_adjoint_complex(M)
    lhs = unit_ur(RM).then(right_adjoint_map(counit_ur(M)))
    ok_ur2 = lhs == identity_chain_map(RM)

    ok_lu1 = unit_lu(M).then(underlying_graded_map(counit_lu(X))) == idm
    LM = left_adjoint_complex(M)
    lhs = left_adjoint_map(unit_lu(M)).then(counit_lu(LM))
    ok_lu2 = lhs == identity_chain_map(LM)
    return ok_ur1 and ok_ur2 and ok_lu1 and ok_lu2


# ---------------------------------------------------------------------------
# the comonad comparison U.R = (I + D) (x) -


def graded_tensor(M, N):
    "Tensor of rank-1 graded modules, basis ordered (i, p, q) with i ascending."
    comps = {}
    for (i,), dm in M.components:
        for (j,), dn in N.components:
            comps[i + j] = comps.get(i + j, 0) + dm * dn
    return GradedModule.of(comps, rank=1, name="(%s(x)%s)" % (M.name, N.name))


def graded_tensor_map(f, g):
    src = graded_tensor(f.src, g.src)
    tgt = graded_tensor(f.tgt, g.tgt)
    blocks = {}
    for (n,), _ in src.components:
        m = zeros(tgt.dim_at(n), src.dim_at(n))
        col = 0
        for (i,), dm in f.src.components:
            for p in range(dm):
                for q in range(g.src.dim_at(n - i)):
                    row = 0
                    for (i2,), dm2 in f.tgt.components:
                        for p2 in range(dm2):
                            for q2 in range(g.tgt.dim_at(n - i2)):
                                if i2 == i:
                                    m[row, col] = f.block(i)[p2, p] * g.block(n - i)[q2, q]
                                row += 1
                    col += 1
        blocks[n] = m
    return GradedMap(src, tgt, blocks)


def two_term_carrier():
    "The graded carrier I + D with D = Z in degree 1."
    return GradedModule.of({0: 1, 1: 1}, rank=1, name="(I+D)")


def comonad_comparison(X, maps=()):
    """Check (U R X)_n = X_n + X_{n-1} = ((I+D) (x) U X)_n, naturally.

    ``maps`` holds sample chain maps out of X; each is pushed through
    both functors and the resulting graded maps compared entrywise.
    """
    M = underlying_graded(X)
    ID = two_term_carrier()
    ur = underlying_graded(right_adjoint_complex(M))
    tens = graded_tensor(ID, M)
    for n in set(d[0] for d in ur.components) | set(d[0] for d in tens.components):
        if ur.dim_at(n) != tens.dim_at(n):
            return CheckResult("comonad-comparison", False, 1,
                               Counterexample(atom("degree", n),
                                              Vec.basis(UNIT, ur.dim_at(n)),
                                              Vec.basis(UNIT, tens.dim_at(n))))
    checked = 1
    id_id = GradedMap(ID, ID, {n[0]: eye(d) for n, d in ID.components})
    for f in maps:
        gf = underlying_graded_map(f)
        lhs = underlying_graded_map(right_adjoint_map(gf))
        rhs = graded_tensor_map(id_id, gf)
        checked += 1
        if lhs != rhs:
            return CheckResult("comonad-comparison", False, checked,
                               Counterexample(atom("map", checked), Vec.zero(),
                                              Vec.zero()))
    return CheckResult("comonad-comparison", True, checked)


# ---------------------------------------------------------------------------
# bicomplexes and the second differential


class SquareViolation(Exception):
    "The kappa-square law fails; carries the offending cells."

    def __init__(self, cells):
        self.cells = tuple(cells)
        super().__init__("square law fails at %s" % (self.cells,))


class Bicomplex:
    """Bigraded ranks with a vertical differential d and a second family d2.

    d has bidegree (-1, 0); d2 has the declared ``d2_bidegree`` (its
    second component is always -1).  Both squares are enforced to be
    zero; the commutation law between them is checked by
    ``second_differential``.
    """

    def __init__(self, ranks, d1, d2, d2_bidegree, name="b", check=True):
        self.ranks = {c: r for c, r in ranks.items() if r}
        self.name = name
        self.d2_bidegree = tuple(d2_bidegree)
        self.d1 = _nonzero(d1)
        self.d2 = _nonzero(d2)
        if self.d2_bidegree[1] != -1:
            raise IllegalChain("second differential must lower the inner degree")
        if check:
            self._check()

    def rank(self, cell):
        return self.ranks.get(cell, 0)

    def vertical(self, cell):
        n, m = cell
        d = self.d1.get(cell)
        return d if d is not None else zeros(self.rank((n - 1, m)), self.rank(cell))

    def second(self, cell):
        n, m = cell
        dn, dm = self.d2_bidegree
        d = self.d2.get(cell)
        return d if d is not None else zeros(self.rank((n + dn, m + dm)), self.rank(cell))

    def cells(self):
        return sorted(self.ranks)

    def _check(self):
        dn, dm = self.d2_bidegree
        for (n, m), d in self.d1.items():
            want = (self.rank((n - 1, m)), self.rank((n, m)))
            if d.shape != want:
                raise IllegalChain("d at %s has shape %s, want %s" % ((n, m), d.shape, want))
        for (n, m), d in self.d2.items():
            want = (self.rank((n + dn, m + dm)), self.rank((n, m)))
            if d.shape != want:
                raise IllegalChain("d' at %s has shape %s, want %s" % ((n, m), d.shape, want))
        for (n, m) in self.cells():
            if not is_zero(self.vertical((n - 1, m)).dot(self.vertical((n, m)))):
                raise IllegalChain("d.d != 0 at %s" % ((n, m),))
            if not is_zero(self.second((n + dn, m + dm)).dot(self.second((n, m)))):
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


def second_differential(B, kappa, s, strict=False):
    """Decide the kappa-square law and emit the two-term-ring coaction.

    kappa = -1 asks the squares to commute (d2 of bidegree (0, -1));
    kappa = +1 asks them to anticommute (bidegree (-s, -1)).  On success
    the coaction b |-> 1 (x) b + d (x) d2(b) over the Hopf ring built on
    I + D is returned and its comodule legality verified, together with
    an independent check that the coaction is a chain map for the
    Koszul-signed differential on the tensor product.
    """
    expected = (0, -1) if kappa == -1 else (-s, -1)
    if B.d2_bidegree != expected:
        raise IllegalChain("second differential has bidegree %s, expected %s"
                           % (B.d2_bidegree, expected))
    dn, dm = expected
    violations = []
    for (n, m) in B.cells():
        after_d = B.second((n - 1, m)).dot(B.vertical((n, m)))
        after_d2 = B.vertical((n + dn, m - 1)).dot(B.second((n, m)))
        want = after_d2 if kappa == -1 else -after_d2
        if not mat_eq(after_d, want):
            violations.append((n, m))
    if violations:
        if strict:
            raise SquareViolation(violations)
        return SecondDifferentialResult(False, violations, None, None)

    # the degree of the differential generator in the double grading
    ddeg = (s * (1 + kappa) // 2, 1)
    bich = Bicharacter(2, (-1, kappa))
    dmodule = GradedModule.of({ddeg: 1}, rank=2, name="dgen")
    hb = build_differential_hopf(graded_to_comodule(dmodule),
                                 sign_coelement(bich))
    H = hb.hopf
    dlabel = dmodule.basis()[0]
    carrier = finite_space(B.name, B.basis())

    def coact_fn(label):
        n, m, i = label[2]
        out = Vec.basis(pair(right(UNIT), label))
        d2 = B.second((n, m))
        for j in range(B.rank((n + dn, m - 1))):
            if d2[j, i]:
                tgt = atom(B.name, n + dn, m - 1, j)
                out = out + d2[j, i] * Vec.basis(pair(left(dlabel), tgt))
        return out

    coaction = LinMap(carrier, tensor_space(H.carrier, carrier), coact_fn,
                      name="coaction")
    comodule = Comodule(H, carrier, coaction, check_window=0)

    # independent route: the coaction must be a chain map for the
    # Koszul-signed differential on H (x) X (the H part has zero d).
    def dx_fn(label):
        n, m, i = label[2]
        d1 = B.vertical((n, m))
        out = Vec.zero()
        for j in range(B.rank((n - 1, m))):
            if d1[j, i]:
                out = out + d1[j, i] * Vec.basis(atom(B.name, n - 1, m, j))
        return out

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


def random_unimodular(rng, k, ops=None):
    "A unimodular integer matrix and its exact inverse."
    U, Uinv = eye(k), eye(k)
    if k == 0:
        return U, Uinv
    steps = []
    for _ in range(ops if ops is not None else k + 2):
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
    conj = {}
    for n in list(X.diffs):
        um, _ = us.get(n - 1, (eye(0), eye(0)))
        _, uinv = us[n]
        conj[n] = um.dot(X.d(n)).dot(uinv)
    return ChainComplex(ranks, conj, name=name)


def random_graded_map(rng, X, Y, shift=0, bound=2):
    "Random degree-`shift` family of matrices X_n -> Y_{n+shift}."
    blocks = {}
    for n in X.degrees():
        rows, cols = Y.rank(n + shift), X.rank(n)
        if rows and cols:
            blocks[n] = mat([[rng.randint(-bound, bound) for _ in range(cols)]
                             for _ in range(rows)])
    return blocks


def random_chain_map(rng, X, Y=None):
    """A random chain map X -> Y: a null-homotopic part dg + gd, plus a
    multiple of the identity when the endpoints coincide."""
    Y = Y if Y is not None else X
    g = random_graded_map(rng, X, Y, shift=1)
    blocks = {}
    for n in set(X.degrees()) | set(Y.degrees()):
        b = zeros(Y.rank(n), X.rank(n))
        gn = g.get(n)
        if gn is not None:
            b = b + Y.d(n + 1).dot(gn)
        gn1 = g.get(n - 1)
        if gn1 is not None and gn1.shape[0] == Y.rank(n):
            b = b + gn1.dot(X.d(n))
        blocks[n] = b
    f = ChainMap(X, Y, blocks, check=False)
    if Y is X:
        lam = rng.choice((0, 1, -1, 2))
        if lam:
            ident = identity_chain_map(X)
            f = ChainMap(X, Y, {n: f.block(n) + lam * ident.block(n)
                                for n in X.degrees()}, check=False)
    return f


def random_bicomplex(rng, kappa, s, name="b"):
    """A random bicomplex satisfying the kappa-square law by construction.

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

    def kron_left(pmat, qdim):
        rows, cols = pmat.shape
        out = zeros(rows * qdim, cols * qdim)
        for i in range(rows):
            for j in range(cols):
                if pmat[i, j]:
                    for q in range(qdim):
                        out[i * qdim + q, j * qdim + q] = pmat[i, j]
        return out

    def kron_right(pdim, qmat):
        rows, cols = qmat.shape
        out = zeros(pdim * rows, pdim * cols)
        for p in range(pdim):
            for i in range(rows):
                for j in range(cols):
                    if qmat[i, j]:
                        out[p * rows + i, p * cols + j] = qmat[i, j]
        return out

    d1, d2 = {}, {}
    for u in P.degrees():
        for m in Q.degrees():
            cell = cell_of(u, m)
            if not ranks.get(cell):
                continue
            if P.rank(u - 1):
                sign = -1 if (kappa == 1 and m % 2) else 1
                d1[cell] = sign * kron_left(P.d(u), Q.rank(m))
            if Q.rank(m - 1):
                d2[cell] = kron_right(P.rank(u), Q.d(m))
    B = Bicomplex(ranks, d1, d2, (dn, -1), name=name)

    us = {cell: random_unimodular(rng, B.rank(cell)) for cell in B.cells()}
    c1, c2 = {}, {}
    for (n, m) in B.cells():
        _, uinv = us[(n, m)]
        if B.rank((n - 1, m)):
            um, _ = us[(n - 1, m)]
            c1[(n, m)] = um.dot(B.vertical((n, m))).dot(uinv)
        if B.rank((n + dn, m - 1)):
            um, _ = us[(n + dn, m - 1)]
            c2[(n, m)] = um.dot(B.second((n, m))).dot(uinv)
    return Bicomplex(ranks, c1, c2, (dn, -1), name=name)
