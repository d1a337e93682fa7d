"""A differential fuzz of the law-kernel compiler: Hypothesis draws
law-shaped pairs of maps over ``P``, ``P+``, ``laurent_hopf(2)`` and the
semidirect product ``(I + D) >< Z``, a carrier of two tensor factors, and
each law kernel's verdict must be the one a plain loop of ``apply``
gives.

A pair is built from a recipe: a prefix diagram of the ring's structure
maps, then one of five kinds of pair on its output, then a suffix
diagram that both sides share.  The kinds are
- ``opaque``: a diagram against one plain leaf with its ``apply``;
- ``interchange``: ``(a (x) id) ; (id (x) b)`` against ``(id (x) b) ; (a (x) id)``;
- ``symmetry``: ``a (x) b`` against ``swap ; (b (x) a) ; swap``;
- ``permuted``: a diagram against the same diagram after a permutation
  of its input factors;
- ``defect``: a diagram against itself with one leaf doubled on every
  label that holds a chosen factor, the leaf keeping its kind.

So both sides apply the same leaves, often on overlapping factors, and
the first three kinds are equal maps.  The leaves are the rings' own
monomial leaves, ``P``'s coproduct (a plain leaf), the product's
memoised composites, a pairing leaf, and plain copies of the others.
A part is a primitive factor of the domain.  Its window holds six labels
on the first three rings, more than the conftest's check of a newly
compiled shape cuts to, and two or three on the product, whose parts
``I + D`` and ``Z`` differ in size; the products reach labels outside
the windows, which a kernel numbers after its rows are made.
"""

import functools
import itertools

from hypothesis import Phase, example, given, settings, strategies as st

from hopfchains import linalg
from hopfchains.diffhopf import two_term_ring
from hopfchains.grading import Bicharacter, laurent_hopf, sign_coelement
from hopfchains.linalg import (
    LinMap, UNIT_SPACE, compose_maps, factors, identity_map, monomial_map, pair,
    pairing_map, perm_map, tensor_maps, tensor_space,
)
from hopfchains.pareigis import pareigis_ring
from hopfchains.semidirect import semidirect_product

LABELS = 6      # labels per part of the domain
MAX_ARITY = 3   # tensor factors between two layers of a diagram


def parity(a, b):
    "A pairing on P that is not symmetric."
    return -1 if (a[2][0] + a[2][1] * b[2][1]) % 2 else 1


def product_parity(a, b):
    "A pairing on the labels h (x) x^k of (I + D) >< Z that is not symmetric."
    return -1 if ((a[1][0] == "L") + a[2][2][0] * b[2][2][0]) % 2 else 1


def product():
    """(I + D) >< Z, unverified: it is built at its first recipe, so that a
    broken kernel fails this test, not its import."""
    return semidirect_product(two_term_ring((1,), (-1,)), None)


# name -> (the ring, built when first drawn, and a pairing on its labels)
RINGS = {"P": (functools.partial(pareigis_ring, -1), parity),
         "P+": (functools.partial(pareigis_ring, 1), parity),
         "Z^2": (functools.partial(laurent_hopf, 2),
                 sign_coelement(Bicharacter(2, (-1, 1))).gamma),
         "(I+D)><Z": (product, product_parity)}

# a leaf's (inputs, outputs) in tensor factors of the carrier
ARITIES = {"mu": (2, 1), "eta": (0, 1), "delta": (1, 2), "epsilon": (1, 0),
           "antipode": (1, 1), "gamma": (2, 0)}


def power(A, k):
    "A (x) ... (x) A, k factors."
    space = UNIT_SPACE
    for _ in range(k):
        space = tensor_space(space, A)
    return space


@st.composite
def layer(draw, k):
    """A recipe for one layer on k factors: a permutation of them, then a
    tensor of leaves and identities that covers them, and its output
    arity."""
    pieces, out, left = [], 0, k
    if k < MAX_ARITY and draw(st.booleans()):
        pieces.append(("leaf", "eta", draw(st.booleans())))
        out += 1
    while left:
        fits = ["id"] + [name for name, (i, o) in ARITIES.items()
                         if 1 <= i <= left and out + o <= MAX_ARITY]
        name = draw(st.sampled_from([n for n in fits if n != "id" or out < MAX_ARITY]))
        i, o = (1, 1) if name == "id" else ARITIES[name]
        pieces.append(("id",) if name == "id" else ("leaf", name, draw(st.booleans())))
        left, out = left - i, out + o
    perm = tuple(draw(st.permutations(range(k)))) if k > 1 else tuple(range(k))
    return ("layer", k, perm, tuple(pieces)), out


@st.composite
def diagram(draw, k, least, most):
    "A recipe for ``least`` to ``most`` layers on k factors, and its output arity."
    layers = []
    for _ in range(draw(st.integers(least, most))):
        if not k:
            break
        recipe, k = draw(layer(k))
        layers.append(recipe)
    return ("diagram", tuple(layers)), k


@st.composite
def law(draw):
    "A ring's name and the recipe of a law-shaped pair on it."
    name = draw(st.sampled_from(sorted(RINGS)))
    m = draw(st.integers(2, 3))
    prefix, k = draw(diagram(m, 0, 1))
    kind = draw(st.sampled_from(["opaque", "interchange", "symmetry", "permuted", "defect"]))
    if kind in ("interchange", "symmetry") and k < 2:
        kind = "permuted"
    if kind in ("interchange", "symmetry"):
        p = draw(st.integers(1, k - 1))
        a, q = draw(diagram(p, 1, 1))
        b, s = draw(diagram(k - p, 1, 1))
        middle, k = ((a, p, q), (b, k - p, s)), q + s
    else:
        middle, k = draw(diagram(k, 1, 2))
    if kind == "permuted":
        perm = tuple(draw(st.permutations(range(m))))
        middle = (middle, perm if perm != tuple(range(m)) else perm[::-1])
    elif kind == "defect":
        middle = (middle, draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 6)))
    suffix, _ = draw(diagram(k, 0, 1))
    return name, m, prefix, kind, middle, suffix


class Builder:
    "Builds maps from recipes over one ring; a leaf and its plain copy are made once."

    def __init__(self, name):
        ring, gamma = RINGS[name]
        self.ring = ring()
        self.A = self.ring.carrier
        self.leaves = {("gamma", False): pairing_map(self.A, gamma, "gamma")}
        self.planted = {}

    def leaf(self, name, plain):
        key = (name, plain)
        if key not in self.leaves:
            m = self.leaves[("gamma", False)] if name == "gamma" else getattr(self.ring, name)
            self.leaves[key] = LinMap(m.dom, m.cod, m.apply, name=name + "'") if plain else m
        return self.planted.get(key, self.leaves[key])

    def build(self, recipe, k):
        "The map of a recipe on k factors."
        kind = recipe[0]
        if kind == "diagram":
            f = identity_map(power(self.A, k))
            for step in recipe[1]:
                f = compose_maps(f, self.build(step, step[1]))
            return f
        _, k, perm, pieces = recipe
        f = None
        for piece in pieces:
            g = identity_map(self.A) if piece[0] == "id" else self.leaf(*piece[1:])
            f = g if f is None else tensor_maps(f, g)
        return compose_maps(perm_map([self.A] * k, perm), f) if k > 1 else f

    def plant(self, key, bad):
        """Double the leaf ``key`` on every label holding the carrier label
        ``bad`` as one of its carrier factors, keeping the leaf's kind."""
        m = self.leaf(*key)
        if m._pairing is not None:
            gamma = m._pairing
            self.planted[key] = pairing_map(
                self.A, lambda x, y: 2 * gamma(x, y) if bad in (x, y) else gamma(x, y), "gamma~")
            return
        a = self.A.arity

        def fn(label):
            image = m.apply(label)
            fs = factors(label)
            held = [pair(*fs[i:i + a]) for i in range(0, len(fs), a)]
            return 2 * image if bad in held else image
        make = monomial_map if m._monomial else LinMap
        self.planted[key] = make(m.dom, m.cod, fn, name=m.name + "~")


def leaves_of(recipe):
    "The (name, plain) keys of a recipe's leaves, in order."
    if recipe[:1] == ("leaf",):
        return [recipe[1:]]
    return [key for part in recipe if isinstance(part, tuple) for key in leaves_of(part)]


def sides(name, m, prefix, kind, middle, suffix):
    "Both sides of the law a recipe draws."
    b = Builder(name)
    A = b.A
    head = b.build(prefix, m)
    k = head.cod.arity // A.arity   # in factors of the carrier
    if kind in ("interchange", "symmetry"):
        (a, p, q), (c, r, s) = middle
        fa, fc = b.build(a, p), b.build(c, r)
        if kind == "interchange":
            lhs = compose_maps(tensor_maps(fa, identity_map(power(A, r))),
                               tensor_maps(identity_map(power(A, q)), fc))
            rhs = compose_maps(tensor_maps(identity_map(power(A, p)), fc),
                               tensor_maps(fa, identity_map(power(A, s))))
        else:
            lhs = tensor_maps(fa, fc)
            back = identity_map(power(A, q + s))
            if q and s:
                back = perm_map([A] * (q + s), tuple(range(s, q + s)) + tuple(range(s)))
            rhs = compose_maps(compose_maps(perm_map([A] * k, tuple(range(p, k)) + tuple(range(p))),
                                            tensor_maps(fc, fa)), back)
    elif kind == "permuted":
        lhs = rhs = b.build(middle[0], k)
    else:
        lhs = b.build(middle[0] if kind == "defect" else middle, k)
    tail = b.build(suffix, lhs.cod.arity // A.arity)
    f = compose_maps(compose_maps(head, lhs), tail)
    if kind == "opaque":
        return f, LinMap(f.dom, f.cod, f.apply, name="opaque")
    if kind == "permuted":
        wire = perm_map([A] * m, middle[1])
        return f, compose_maps(compose_maps(wire, compose_maps(head, rhs)), tail)
    if kind == "defect":
        keys = leaves_of((prefix, middle[0], suffix))
        if not keys:
            return f, f
        window = A.enumerate(2)
        b.plant(keys[middle[1] % len(keys)], window[middle[2] % len(window)])
        return f, compose_maps(compose_maps(b.build(prefix, m), b.build(middle[0], k)),
                               b.build(suffix, lhs.cod.arity // A.arity))
    return f, compose_maps(compose_maps(head, rhs), tail)


def by_apply(f, g, windows):
    "The law kernel's answer, from a plain loop of ``apply`` over the windows' labels."
    n = 0
    for labels in itertools.product(*windows):
        n += 1
        label = pair(*labels)
        if f.apply(label) != g.apply(label):
            return n, label
    return n, None


# Z^2 is commutative: mu(mu(a0, a1), a2) == mu(mu(a2, a1), a0), where the
# inner mu reads two arguments that end in the same factor and differ
# before it, so that one lookup for both would be wrong
COMMUTED = ("Z^2", 3, ("diagram", ()), "permuted",
            (("diagram", (("layer", 3, (0, 1, 2), (("leaf", "mu", False), ("id",))),
                          ("layer", 2, (0, 1), (("leaf", "mu", False),)))), (2, 1, 0)),
            ("diagram", ()))


# no shrinking: a failing recipe is reported as drawn, as shrinking one
# whose every kernel fails can take minutes
@settings(deadline=None, max_examples=60, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(law())
@example(COMMUTED)
def test_a_law_kernel_answers_as_a_plain_loop_of_apply(drawn):
    f, g = sides(*drawn)
    parts = f.dom.parts
    windows = [p.enumerate(1)[:LABELS] for p in parts]
    assert linalg._kernel(f, g, parts)(*windows) == by_apply(f, g, windows), drawn
