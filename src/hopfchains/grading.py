"""The grading Hopf ring: Laurent monomials in r commuting variables.

The ring ``laurent_hopf(r)`` has basis x^g for g in Z^r, with every x^g
group-like and the antipode inverting exponents.  Comodules over it are
exactly Z^r-graded free modules: ``graded_to_comodule`` sends a degree-g
basis vector b to x^g (x) b, and ``comodule_to_graded_projections``
recovers the degree decomposition of any legal comodule as a family of
idempotent projections (no integer column reduction is ever needed).

Sign bicharacters supply the braiding coelements: gamma(x^g, x^h) is a
product of kappa_c^(g_c h_c) over the grading coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from .laws import Bimonoid, Coelement, Comodule, IllegalComodule, verify
from .linalg import (
    UNIT, UNIT_SPACE, ZERO, LinMap, Space, Vec, atom,
    finite_space, pair, split_label, tensor_space,
)


def _laurent_space(r):
    "The carrier of ``laurent_hopf(r)``, made once with its ring."
    def window(K):
        rng = range(-K, K + 1)
        return [atom("x", *g) for g in product(rng, repeat=r)]

    return Space("Z" if r == 1 else "Z^%d" % r, 1, window)


def monomial(*g):
    return atom("x", *g)


def degree_of(label):
    "Exponent vector of a Laurent monomial label."
    return label[2]


def laurent_hopf(r=1):
    """The group ring of Z^r with its Hopf structure.

    There is one ring per rank in a process, however r is passed, so
    the memos of its pure structure maps serve every caller.

    >>> Z = laurent_hopf(1)
    >>> Z is laurent_hopf(r=1)
    True
    >>> Z.delta.apply(monomial(3)) == Vec.basis(pair(monomial(3), monomial(3)))
    True
    >>> Z.antipode.apply(monomial(3)) == Vec.basis(monomial(-3))
    True
    """
    return _laurent_hopf(r)


@functools.lru_cache(maxsize=None)
def _laurent_hopf(r):
    "The one ``laurent_hopf(r)``, keyed by r alone."
    A = _laurent_space(r)
    AA = tensor_space(A, A)

    def mu_fn(label):
        a, b = split_label(A, A, label)
        g = tuple(i + j for i, j in zip(degree_of(a), degree_of(b)))
        return Vec.basis(atom("x", *g))

    def delta_fn(label):
        return Vec.basis(pair(label, label))

    zero = atom("x", *([0] * r))
    mu = LinMap(AA, A, mu_fn, name="mu")
    eta = LinMap(UNIT_SPACE, A, lambda l: Vec.basis(zero), name="eta")
    delta = LinMap(A, AA, delta_fn, name="delta")
    epsilon = LinMap(A, UNIT_SPACE, lambda l: Vec.basis(UNIT), name="epsilon")
    antipode = LinMap(
        A, A, lambda l: Vec.basis(atom("x", *[-i for i in degree_of(l)])),
        name="antipode")
    return Bimonoid(A, mu, eta, delta, epsilon, antipode)


@dataclass(frozen=True)
class Bicharacter:
    """Diagonal sign bicharacter on Z^r: gamma(g, h) = prod kappa_c^(g_c h_c)."""
    rank: int
    kappas: tuple

    def __post_init__(self):
        if self.rank < 1 or len(self.kappas) != self.rank:
            raise ValueError("need one kappa per grading coordinate")
        if any(k not in (1, -1) for k in self.kappas):
            raise ValueError("kappas must be +-1")

    def pairing(self, g, h):
        parity = 0
        for k, gc, hc in zip(self.kappas, g, h):
            if k == -1:
                parity += gc * hc
        return -1 if parity % 2 else 1


def sign_coelement(bich):
    "The coelement gamma(x^g, x^h) = prod kappa_c^(g_c h_c) on ``laurent_hopf(bich.rank)``."
    def gamma(a, b):
        return bich.pairing(degree_of(a), degree_of(b))

    return Coelement(laurent_hopf(bich.rank), gamma, name="gamma%s" % (bich.kappas,))


# ---------------------------------------------------------------------------
# graded modules


@dataclass(frozen=True)
class GradedModule:
    """A finitely supported Z^r-graded free module, components by rank."""
    rank: int
    components: tuple  # sorted tuple of (degree tuple, dim)
    name: str = "m"

    @classmethod
    def of(cls, components, rank=None, name="m"):
        comps = []
        for deg, dim in dict(components).items():
            deg = (deg,) if isinstance(deg, int) else tuple(deg)
            if dim:
                comps.append((deg, dim))
        comps.sort()
        if rank is None:
            rank = len(comps[0][0]) if comps else 1
        for deg, _ in comps:
            if len(deg) != rank:
                raise ValueError("degree %s has wrong rank" % (deg,))
        return cls(rank, tuple(comps), name)

    def __post_init__(self):
        # dim_at's table; not a field, so it is left out of ==, hash and repr
        object.__setattr__(self, "_dims", dict(self.components))

    def degrees(self):
        return [deg for deg, _ in self.components]

    def dim_at(self, deg):
        return self._dims.get((deg,) if isinstance(deg, int) else tuple(deg), 0)

    def basis_at(self, deg):
        deg = (deg,) if isinstance(deg, int) else tuple(deg)
        return [atom(self.name, *deg, i) for i in range(self.dim_at(deg))]

    def basis(self):
        out = []
        for deg, _ in self.components:
            out.extend(self.basis_at(deg))
        return out


def sigma_space(M):
    "Forget the grading: the underlying free module as a based space."
    return finite_space("Sigma(%s)" % M.name, M.basis())


def graded_to_comodule(M, ring=None):
    """The equivalence GAb -> Comod(Z): coaction b |-> x^(deg b) (x) b."""
    ring = ring or laurent_hopf(M.rank)
    carrier = sigma_space(M)

    def fn(label):
        deg = label[2][:M.rank]
        return Vec.basis(pair(atom("x", *deg), label))

    coact = LinMap(carrier, tensor_space(ring.carrier, carrier), fn, name="beta")
    return Comodule(ring, carrier, coact, check_window=0)


def comodule_to_graded_projections(X):
    """Degree projections of a legal comodule over a Laurent ring.

    Returns {degree: p_g}, the nonzero p_g of the coaction
    b |-> sum_g x^g (x) p_g(b), once its laws pass on window 0 and its ring
    terms are group-like (else IllegalComodule): then the counit law says
    they sum to 1, and coassociativity that they are orthogonal idempotents.
    """
    verify(X, 0)
    columns = {}
    for b in X.carrier.enumerate(0):
        for a_x, c in X.coaction.apply(b).items():
            a, x0 = split_label(X.ring.carrier, X.carrier, a_x)
            if X.ring.delta.apply(a) != Vec.basis(pair(a, a)):
                raise IllegalComodule("ring term %s of the coaction is not group-like" % (a,))
            columns.setdefault(degree_of(a), {}).setdefault(b, {})[x0] = c

    def projection(deg, col):
        col = {b: Vec(v) for b, v in col.items()}
        return LinMap(X.carrier, X.carrier, lambda l: col.get(l, ZERO), name="p%s" % (deg,))
    return {deg: projection(deg, col) for deg, col in sorted(columns.items())}
