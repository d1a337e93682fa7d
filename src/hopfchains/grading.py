"""The grading Hopf ring: Laurent monomials in r commuting variables.

The ring ``laurent_hopf(r)`` has basis x^g for g in Z^r, with every x^g
group-like and the antipode inverting exponents.  A Z^r-graded free
module is a comodule over it: ``graded_to_comodule`` sends a degree-g
basis vector b to x^g (x) b, and its laws are verified on construction.

Sign bicharacters supply the braiding coelements: gamma(x^g, x^h) is a
product of kappa_c^(g_c h_c) over the grading coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from .laws import Bimonoid, Coelement, Comodule
from .linalg import (
    UNIT, UNIT_SPACE, LinMap, Space, SpaceMismatch, Vec, atom, finite_space,
    monomial_map, pair, tensor_space,
)


def monomial(*g):
    return atom("x", *g)


def degree_of(label):
    "Exponent vector of a Laurent monomial label."
    return label[2]


@functools.lru_cache(maxsize=None)
def laurent_hopf(r, /):
    """The group ring of Z^r with its Hopf structure.

    There is one ring per rank in a process, so the memos of its pure
    structure maps serve every caller.  The rank is passed by position,
    so that one call spelling is one cache key.

    >>> Z = laurent_hopf(1)
    >>> Z is laurent_hopf(1)
    True
    >>> laurent_hopf(r=1)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    TypeError: laurent_hopf() got some positional-only arguments passed as keyword arguments...
    >>> Z.delta.apply(monomial(3)) == Vec.basis(pair(monomial(3), monomial(3)))
    True
    >>> Z.antipode.apply(monomial(3)) == Vec.basis(monomial(-3))
    True
    """
    def window(K):
        rng = range(-K, K + 1)
        return [atom("x", *g) for g in product(rng, repeat=r)]

    A = Space("Z" if r == 1 else "Z^%d" % r, 1, window)
    AA = tensor_space(A, A)

    def mu_fn(label):
        # a label of A (x) A is ("t", x^g, x^h)
        g = tuple(i + j for i, j in zip(degree_of(label[1]), degree_of(label[2])))
        return Vec.basis(atom("x", *g))

    def delta_fn(label):
        return Vec.basis(pair(label, label))

    zero = atom("x", *([0] * r))
    mu = monomial_map(AA, A, mu_fn, "mu")
    eta = monomial_map(UNIT_SPACE, A, lambda l: Vec.basis(zero), "eta")
    delta = monomial_map(A, AA, delta_fn, "delta")
    epsilon = monomial_map(A, UNIT_SPACE, lambda l: Vec.basis(UNIT), "epsilon")
    antipode = monomial_map(
        A, A, lambda l: Vec.basis(atom("x", *[-i for i in degree_of(l)])), "antipode")
    return Bimonoid(A, mu, eta, delta, epsilon, antipode)


@dataclass(frozen=True)
class Bicharacter:
    """Diagonal sign bicharacter on Z^r: gamma(g, h) = prod kappa_c^(g_c h_c),
    which is -1 when g_c h_c summed over the odd coordinates (kappa_c = -1) is odd."""
    rank: int
    kappas: tuple

    def __post_init__(self):
        if self.rank < 1 or len(self.kappas) != self.rank:
            raise ValueError("need one kappa per grading coordinate")
        if any(k not in (1, -1) for k in self.kappas):
            raise ValueError("kappas must be +-1")
        # the odd coordinates; not a field, so it is left out of ==, hash and repr
        object.__setattr__(self, "_odd", tuple(c for c, k in enumerate(self.kappas) if k == -1))

    def pairing(self, g, h):
        parity = 0
        for c in self._odd:
            parity += g[c] * h[c]
        return -1 if parity % 2 else 1


def sign_coelement(bich):
    """The coelement gamma(x^g, x^h) = prod kappa_c^(g_c h_c) on ``laurent_hopf(bich.rank)``:
    g_c h_c summed over the odd coordinates, with g and h read from the labels."""
    odd = bich._odd

    def gamma(a, b):
        g, h = a[2], b[2]
        parity = 0
        for c in odd:
            parity += g[c] * h[c]
        return -1 if parity % 2 else 1

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
        """From a dict or pairs of degree and dim; a degree is an int or a
        sequence, and the dims of one degree however spelled add up.  A
        negative dim is a ValueError that names its degree."""
        dims = {}
        for deg, dim in components.items() if isinstance(components, dict) else components:
            deg = (deg,) if isinstance(deg, int) else tuple(deg)
            if dim < 0:
                raise ValueError("degree %s has negative dim %d" % (deg, dim))
            dims[deg] = dims.get(deg, 0) + dim
        comps = sorted((deg, dim) for deg, dim in dims.items() if dim)
        if rank is None:
            rank = len(comps[0][0]) if comps else 1
        for deg, _ in comps:
            if len(deg) != rank:
                raise ValueError("degree %s has wrong rank" % (deg,))
        return cls(rank, tuple(comps), name)

    def basis(self):
        return [atom(self.name, *deg, i) for deg, dim in self.components for i in range(dim)]


def sigma_space(M):
    "Forget the grading: the underlying free module as a based space."
    return finite_space("Sigma(%s)" % M.name, M.basis())


def graded_to_comodule(M, ring=None):
    """The equivalence GAb -> Comod(Z): coaction b |-> x^(deg b) (x) b, over
    ``laurent_hopf(M.rank)``; another ring has no label x^(deg b)."""
    ring = ring or laurent_hopf(M.rank)
    if ring.carrier is not laurent_hopf(M.rank).carrier:
        raise SpaceMismatch("a graded module of rank %d is a comodule over laurent_hopf(%d), "
                            "not over %s" % (M.rank, M.rank, ring.carrier.name))
    carrier = sigma_space(M)

    def fn(label):
        deg = label[2][:M.rank]
        return Vec.basis(pair(atom("x", *deg), label))

    coact = LinMap(carrier, tensor_space(ring.carrier, carrier), fn, name="beta")
    return Comodule(ring, carrier, coact, check_window=0)
