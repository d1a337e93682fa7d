"""Exact sparse linear algebra over the integers on structured countable bases.

Everything downstream is built from four ingredients:

* basis labels -- hashable tagged tuples with a canonical (strictly
  associative, strictly unital) tensor structure,
* ``Vec`` -- finitely supported integer combinations of labels,
* ``Space`` -- a named basis: a validity predicate plus a window
  enumerator ``enumerate(K)`` that is monotone in ``K``,
* ``LinMap`` -- a linear map given label-wise and extended by linearity.

Map equality is decided exactly on windows: ``equal_on_window(f, g, K)``
compares ``f`` and ``g`` on every label the domain enumerates at ``K``.
Coefficients are plain Python integers, so nothing ever overflows.

>>> x = atom("x", 3)
>>> show_label(pair(x, UNIT))
'x(3)'
>>> show_label(pair(x, left(atom("d"))))
'x(3)*L[d]'
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# labels


UNIT = "1"

_ATOM = "a"
_LEFT = "L"
_RIGHT = "R"
_TENSOR = "t"


def atom(family, *index):
    """A generator label, e.g. ``atom("x", 3)`` for x^3 or ``atom("e", n, i)``."""
    return (_ATOM, family, tuple(index))


def left(label):
    "Tag a label as living in the left summand of a direct sum."
    return (_LEFT, label)


def right(label):
    "Tag a label as living in the right summand of a direct sum."
    return (_RIGHT, label)


def factors(label):
    "Primitive tensor factors of a canonical label (unit has none)."
    if label == UNIT:
        return ()
    if label[0] == _TENSOR:
        return label[1:]
    return (label,)


def pair(*labels):
    """Tensor of labels in canonical form.

    Unit factors are absorbed and nested tensors flattened, so the
    associator and unitors are identities on labels:

    >>> pair(atom("x", 1), pair(atom("x", 2), UNIT)) == pair(pair(atom("x", 1), atom("x", 2)))
    True
    """
    parts = ()
    for lbl in labels:
        parts += factors(lbl)
    return _join(parts)


def _join(parts):
    "The canonical label of a tuple of primitive factors."
    if not parts:
        return UNIT
    if len(parts) == 1:
        return parts[0]
    return (_TENSOR,) + parts


def label_key(label):
    "Total-order key; labels of mixed shapes sort deterministically."
    if label == UNIT:
        return (0,)
    tag = label[0]
    if tag == _ATOM:
        return (1, label[1], label[2])
    if tag == _LEFT:
        return (2, label_key(label[1]))
    if tag == _RIGHT:
        return (3, label_key(label[1]))
    return (4,) + tuple(label_key(f) for f in label[1:])


def show_label(label):
    if label == UNIT:
        return "1"
    tag = label[0]
    if tag == _ATOM:
        family, index = label[1], label[2]
        if not index:
            return str(family)
        return "%s(%s)" % (family, ",".join(str(i) for i in index))
    if tag == _LEFT:
        return "L[%s]" % show_label(label[1])
    if tag == _RIGHT:
        return "R[%s]" % show_label(label[1])
    return "*".join(show_label(f) for f in label[1:])


def label_to_json(label):
    "JSON-friendly encoding; ``label_from_json`` inverts it exactly."
    if label == UNIT:
        return ["1"]
    tag = label[0]
    if tag == _ATOM:
        return ["a", label[1], list(label[2])]
    if tag in (_LEFT, _RIGHT):
        return [tag, label_to_json(label[1])]
    return ["t"] + [label_to_json(f) for f in label[1:]]


def label_from_json(data):
    tag = data[0]
    if tag == "1":
        return UNIT
    if tag == "a":
        return (_ATOM, data[1], tuple(data[2]))
    if tag in (_LEFT, _RIGHT):
        return (tag, label_from_json(data[1]))
    return (_TENSOR,) + tuple(label_from_json(f) for f in data[1:])


# ---------------------------------------------------------------------------
# vectors


class Vec:
    """Finitely supported map from labels to integers.

    Zero coefficients are never stored.  All arithmetic is exact; there
    is no overflow because coefficients are Python integers.

    >>> v = Vec.basis(atom("x", 1)) - 2 * Vec.basis(atom("x", 2))
    >>> v + 2 * Vec.basis(atom("x", 2)) == Vec.basis(atom("x", 1))
    True
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {k: c for k, c in (entries or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, label, coeff=1):
        v = cls.__new__(cls)
        v.entries = {label: coeff} if coeff else {}
        return v

    def items(self):
        return self.entries.items()

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __add__(self, other):
        out = dict(self.entries)
        for k, c in other.entries.items():
            new = out.get(k, 0) + c
            if new:
                out[k] = new
            else:
                out.pop(k, None)
        v = Vec.__new__(Vec)
        v.entries = out
        return v

    def __neg__(self):
        v = Vec.__new__(Vec)
        v.entries = {k: -c for k, c in self.entries.items()}
        return v

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        if scalar == 0:
            return Vec.zero()
        v = Vec.__new__(Vec)
        v.entries = {k: scalar * c for k, c in self.entries.items()}
        return v

    def tensor(self, other):
        "Bilinear tensor: labels are paired canonically."
        out = {}
        for k1, c1 in self.entries.items():
            f1 = factors(k1)
            for k2, c2 in other.entries.items():
                lbl = _join(f1 + factors(k2))
                new = out.get(lbl, 0) + c1 * c2
                if new:
                    out[lbl] = new
                else:
                    out.pop(lbl, None)
        v = Vec.__new__(Vec)
        v.entries = out
        return v

    def coefficient(self, label):
        return self.entries.get(label, 0)

    def to_json(self):
        terms = sorted(self.entries.items(), key=lambda kv: label_key(kv[0]))
        return [[c, label_to_json(k)] for k, c in terms]

    def __repr__(self):
        if not self.entries:
            return "0"
        terms = sorted(self.entries.items(), key=lambda kv: label_key(kv[0]))
        bits = []
        for k, c in terms:
            s = show_label(k)
            if c == 1:
                bits.append("+%s" % s)
            elif c == -1:
                bits.append("-%s" % s)
            else:
                bits.append("%+d*%s" % (c, s))
        text = " ".join(bits)
        return text[1:] if text.startswith("+") else text


ZERO = Vec.zero()


# ---------------------------------------------------------------------------
# spaces


class SpaceMismatch(Exception):
    "Raised when maps are combined across incompatibly named spaces."


class Space:
    """A named based space: validity predicate plus window enumeration.

    ``arity`` counts primitive tensor factors per label, which is what
    makes the strictified tensor splittable: a label of ``X (x) Y`` is cut
    after the first ``X.arity`` factors.  Spaces with a finite basis
    enumerate it for every window.
    """

    __slots__ = ("name", "arity", "contains", "_window", "basis", "parts",
                 "left", "right")

    def __init__(self, name, arity, contains, window=None, basis=None):
        self.name = name
        self.arity = arity
        self.contains = contains
        self._window = window
        self.basis = None if basis is None else list(basis)
        self.parts = (self,)
        self.left = None
        self.right = None

    def enumerate(self, K):
        "Labels inside window K, in deterministic order; monotone in K."
        if self.basis is not None:
            return list(self.basis)
        return list(self._window(K))

    def __repr__(self):
        return "Space(%r)" % self.name


def finite_space(name, basis):
    basis = list(basis)
    members = set(basis)
    return Space(name, 1, lambda l: l in members, basis=basis)


UNIT_SPACE = Space("I", 0, lambda l: l == UNIT, basis=[UNIT])
UNIT_SPACE.parts = ()


def tensor_space(X, Y):
    "Strictified tensor of spaces; the unit is absorbed, factors flatten."
    if X.arity == 0:
        return Y
    if Y.arity == 0:
        return X
    parts = X.parts + Y.parts
    name = "(" + "*".join(p.name for p in parts) + ")"
    arities = [p.arity for p in parts]

    def contains(label, parts=parts, arities=arities):
        fs = factors(label)
        if len(fs) != sum(arities):
            return False
        pos = 0
        for p, a in zip(parts, arities):
            if not p.contains(pair(*fs[pos:pos + a])):
                return False
            pos += a
        return True

    def window(K, parts=parts):
        combos = itertools.product(*[p.enumerate(K) for p in parts])
        return [pair(*combo) for combo in combos]

    space = Space(name, sum(arities), contains, window=window)
    space.parts = parts
    return space


def sum_space(X, Y, name=None):
    "Direct sum; labels are Left/Right-tagged labels of the summands."
    name = name or "(%s+%s)" % (X.name, Y.name)

    def contains(label):
        if label == UNIT or label[0] not in (_LEFT, _RIGHT):
            return False
        return X.contains(label[1]) if label[0] == _LEFT else Y.contains(label[1])

    def window(K):
        return [left(l) for l in X.enumerate(K)] + [right(l) for l in Y.enumerate(K)]

    space = Space(name, 1, contains, window=window)
    space.left = X
    space.right = Y
    return space


def split_label(X, Y, label):
    "Cut a label of the strict tensor X (x) Y into its X and Y parts."
    fs = factors(label)
    return _join(fs[:X.arity]), _join(fs[X.arity:])


# ---------------------------------------------------------------------------
# linear maps


class LinMap:
    """A linear map given basis-wise; pure, total on valid labels.

    A leaf map, built directly from a label function (a structure map,
    a coaction, a braiding), memoises its value per label; the map is
    pure, so this is observationally transparent.  Composites built by
    ``compose_maps`` and ``tensor_maps`` hold no memo and stream each
    label through their leaves, so their memory does not grow with the
    window; ``memoised`` makes a leaf of a composite kept as structure,
    such as a coaction.  ``f >> g`` is "f then g", ``f @ g`` the tensor
    product.
    """

    __slots__ = ("dom", "cod", "fn", "name", "_cache")

    def __init__(self, dom, cod, fn, name=""):
        self.dom = dom
        self.cod = cod
        self.fn = fn
        self.name = name
        self._cache = {}

    def apply(self, label):
        cache = self._cache
        if cache is None:
            return self.fn(label)
        out = cache.get(label)
        if out is None:
            out = cache[label] = self.fn(label)
        return out

    def __call__(self, v):
        if not isinstance(v, Vec):
            return self.apply(v)
        entries = v.entries
        # A basis label most often maps to one basis label; its image is
        # then the answer as it stands (vectors are never mutated).
        if len(entries) == 1:
            (label, coeff), = entries.items()
            if coeff == 1:
                return self.apply(label)
        out = {}
        for label, coeff in entries.items():
            for k, c in self.apply(label).entries.items():
                new = out.get(k, 0) + coeff * c
                if new:
                    out[k] = new
                else:
                    del out[k]
        w = Vec.__new__(Vec)
        w.entries = out
        return w

    def __rshift__(self, other):
        return compose_maps(self, other)

    def __matmul__(self, other):
        return tensor_maps(self, other)

    def __add__(self, other):
        if self.dom.name != other.dom.name or self.cod.name != other.cod.name:
            raise SpaceMismatch("cannot add %s and %s" % (self, other))
        return LinMap(self.dom, self.cod,
                      lambda l: self.apply(l) + other.apply(l),
                      name="(%s+%s)" % (self.name, other.name))

    def __neg__(self):
        return scale_map(self, -1)

    def supported_on_codomain(self, K):
        "Debug check: outputs on window K land on valid codomain labels."
        for l in self.dom.enumerate(K):
            for out_label in self.apply(l).entries:
                if not self.cod.contains(out_label):
                    return False, (l, out_label)
        return True, None

    def __repr__(self):
        return "LinMap(%s: %s -> %s)" % (self.name or "?", self.dom.name, self.cod.name)


def identity_map(X):
    return LinMap(X, X, Vec.basis, name="id")


def zero_map(X, Y):
    return LinMap(X, Y, lambda l: ZERO, name="0")


def scale_map(f, c):
    return LinMap(f.dom, f.cod, lambda l: c * f.apply(l), name="%d*%s" % (c, f.name))


def _streamed(dom, cod, fn, name):
    "A composite map: evaluated afresh on every label, with no memo."
    m = LinMap(dom, cod, fn, name=name)
    m._cache = None
    return m


def memoised(f):
    """``f`` as a leaf map, memoising per label.

    A composite kept as structure, such as a coaction, meets the same
    labels again and again, so it remembers its values like a leaf.
    """
    if f._cache is not None:
        return f
    return LinMap(f.dom, f.cod, f.apply, name=f.name)


def compose_maps(f, g):
    "f then g; domains must agree by space name."
    if f.cod.name != g.dom.name:
        raise SpaceMismatch("compose: %s -> %s vs %s" % (f.cod.name, g.dom.name, g))
    return _streamed(f.dom, g.cod, lambda l: g(f.apply(l)),
                     name="(%s;%s)" % (f.name, g.name))


def tensor_maps(f, g):
    dom = tensor_space(f.dom, g.dom)
    cod = tensor_space(f.cod, g.cod)

    def fn(label):
        lx, ly = split_label(f.dom, g.dom, label)
        return f.apply(lx).tensor(g.apply(ly))

    return _streamed(dom, cod, fn, name="(%s@%s)" % (f.name, g.name))


def direct_sum_maps(f, g):
    "Acts as f on Left labels and g on Right labels."
    dom = sum_space(f.dom, g.dom)
    cod = sum_space(f.cod, g.cod)

    def fn(label):
        if label[0] == _LEFT:
            return Vec({left(k): c for k, c in f.apply(label[1]).items()})
        return Vec({right(k): c for k, c in g.apply(label[1]).items()})

    return LinMap(dom, cod, fn, name="(%s(+)%s)" % (f.name, g.name))


def swap_map(X, Y):
    "The plain symmetry of Ab: no signs."
    def fn(label):
        fs = factors(label)
        return Vec.basis(_join(fs[X.arity:] + fs[:X.arity]))
    return LinMap(tensor_space(X, Y), tensor_space(Y, X), fn, name="swap")


def perm_map(spaces, perm):
    """Wire permutation: output slot i carries input factor perm[i]."""
    dom = spaces[0]
    for sp in spaces[1:]:
        dom = tensor_space(dom, sp)
    cod = spaces[perm[0]]
    for i in perm[1:]:
        cod = tensor_space(cod, spaces[i])

    offsets = []
    pos = 0
    for sp in spaces:
        offsets.append((pos, pos + sp.arity))
        pos += sp.arity
    slices = [offsets[i] for i in perm]

    def fn(label):
        fs = factors(label)
        return Vec.basis(_join(tuple(f for a, b in slices for f in fs[a:b])))

    return LinMap(dom, cod, fn, name="perm%s" % (perm,))


# ---------------------------------------------------------------------------
# window-exact equality


@dataclass(frozen=True)
class Counterexample:
    label: object
    lhs: Vec
    rhs: Vec

    def to_json(self):
        return {"label": label_to_json(self.label),
                "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json()}

    def __repr__(self):
        return "at %s: %r != %r" % (show_label(self.label), self.lhs, self.rhs)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one window-exact comparison (tolerance is zero)."""
    law: str
    equal: bool
    instances: int
    counterexample: Counterexample | None = None

    @property
    def verdict(self):
        return "equal" if self.equal else "differ"

    def __bool__(self):
        return self.equal

    def to_json(self):
        doc = {"law": self.law, "verdict": self.verdict,
               "instances_checked": self.instances}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample.to_json()
        return doc

    def __repr__(self):
        if self.equal:
            return "%s: equal (%d labels)" % (self.law, self.instances)
        return "%s: differ %r" % (self.law, self.counterexample)


def equal_on_window(f, g, K, law=""):
    """Exact comparison of f and g on every domain label within window K.

    Returns the first counterexample in enumeration order, if any.
    """
    if f.dom.name != g.dom.name or f.cod.name != g.cod.name:
        raise SpaceMismatch("cannot compare %r with %r" % (f, g))
    checked = 0
    for label in f.dom.enumerate(K):
        checked += 1
        lhs = f.apply(label)
        rhs = g.apply(label)
        if lhs != rhs:
            return CheckResult(law, False, checked, Counterexample(label, lhs, rhs))
    return CheckResult(law, True, checked)
