"""Exact sparse linear algebra over the integers on structured countable bases.

Everything downstream is built from four ingredients:

* basis labels -- hashable tagged tuples with a canonical (strictly
  associative, strictly unital) tensor structure,
* ``Vec`` -- finitely supported integer combinations of labels,
* ``Space`` -- a named basis given by its windows: a name, an arity
  and a window enumerator ``enumerate(K)`` that is monotone in ``K``,
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

import functools
import itertools
import operator
import time
import weakref
from dataclasses import dataclass, field


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
    "JSON-friendly encoding: distinct labels encode to distinct JSON values."
    if label == UNIT:
        return ["1"]
    tag = label[0]
    if tag == _ATOM:
        return ["a", label[1], list(label[2])]
    if tag in (_LEFT, _RIGHT):
        return [tag, label_to_json(label[1])]
    return ["t"] + [label_to_json(f) for f in label[1:]]


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


# ---------------------------------------------------------------------------
# spaces


class SpaceMismatch(Exception):
    "Raised when maps are combined across distinct spaces."


class Space:
    """A named based space: a name, an arity and a window.

    ``arity`` counts primitive tensor factors per label, which is what
    makes the strictified tensor splittable: a label of ``X (x) Y`` is cut
    after the first ``X.arity`` factors.  The window ``enumerate(K)`` is
    the only description of the basis: every law is decided on the
    labels it lists.  A space with a finite basis lists all of it for
    every window.

    The constructors (``finite_space``, ``tensor_space`` and the ring
    carriers) intern their spaces: while a space is alive, every
    construction from the same data returns that one object, so two
    spaces are one space exactly when they are the same object (``is``).
    A space made by calling ``Space`` directly is its own, unlike any
    other.  A name is part of the data of a finite space only, and no
    check compares names on their own.
    """

    __slots__ = ("name", "arity", "_window", "_parts", "__weakref__")

    def __init__(self, name, arity, window):
        self.name = name
        self.arity = arity
        self._window = window
        self._parts = None

    @property
    def parts(self):
        """The primitive spaces this one is the tensor of: ``(self,)`` for a
        primitive space, made on each call so that no space holds itself
        and reference counting alone frees it.
        """
        parts = self._parts
        return (self,) if parts is None else parts

    def enumerate(self, K):
        "Labels inside window K, in deterministic order; monotone in K."
        return list(self._window(K))

    def __repr__(self):
        return "Space(%r)" % self.name


# every live interned space, keyed by its maker and generating data, as a
# weak reference whose callback removes the entry when the space dies
_SPACES = {}


def _interned(make, *data):
    """The one live space ``make(*data)``, made only if none is alive.

    The table holds its spaces weakly, so a space dies with its last
    user and the table does not grow with the spaces a run throws away.
    """
    key = (make,) + data
    ref = _SPACES.get(key)
    if ref is not None:
        space = ref()
        if space is not None:
            return space
    space = make(*data)
    _SPACES[key] = weakref.ref(space, functools.partial(_forget, key))
    return space


def _forget(key, ref):
    "A dead space's callback: drop its entry, unless a later space holds the key."
    if _SPACES.get(key) is ref:
        del _SPACES[key]


def finite_space(name, basis):
    "The space with this name and this basis, in this order."
    return _interned(_finite_space, name, tuple(basis))


def _finite_space(name, basis):
    return Space(name, 1, lambda K: basis)


UNIT_SPACE = Space("I", 0, lambda K: (UNIT,))
UNIT_SPACE._parts = ()


def tensor_space(X, Y):
    """Strictified tensor of spaces; the unit is absorbed, factors flatten.

    A tensor space is interned by its tuple of primitive factors, so
    ``(X (x) Y) (x) Z`` and ``X (x) (Y (x) Z)`` are one object.
    """
    if X.arity == 0:
        return Y
    if Y.arity == 0:
        return X
    return _interned(_tensor_space, X.parts + Y.parts)


def _tensor_space(parts):
    name = "(" + "*".join(p.name for p in parts) + ")"
    space = Space(name, sum(p.arity for p in parts),
                  lambda K: _joined(parts, [p.enumerate(K) for p in parts]))
    space._parts = parts
    return space


def _joined(parts, windows):
    "The labels of the tensor of some parts, joined from their windows in order."
    if len(parts) == 1:
        return windows[0]
    # each part's labels cut into factor tuples, then joined
    cuts = [[(l,) if p.arity == 1 else l[1:] for l in w]
            for p, w in zip(parts, windows)]
    return [sum(combo, (_TENSOR,)) for combo in itertools.product(*cuts)]


def split_label(X, Y, label):
    "Cut a label of the strict tensor X (x) Y into its X and Y parts."
    fs = factors(label)
    return _join(fs[:X.arity]), _join(fs[X.arity:])


# ---------------------------------------------------------------------------
# linear maps


class LinMap:
    """A linear map given basis-wise; pure, total on valid labels.

    There are three kinds of map:

    * a leaf, built directly from a label function (a structure map, a
      coaction, a braiding), memoises its value per label; the map is
      pure, so this is observationally transparent; a leaf made by
      ``monomial_map`` promises an image of at most one term per label,
      which the law kernel keeps as one term, and one made by
      ``pairing_map`` is a bilinear form, which it calls (see ``_kernel``);
    * a composite, built by ``compose_maps`` and ``tensor_maps``, holds
      no memo and its ``apply`` is the plain definition: f's image put
      through g, or the tensor of the images of a label's two parts, so
      its memory does not grow with the window; ``memoised`` makes a
      leaf of a composite kept as structure, such as a coaction or a
      product's structure map, whose misses a compiled image evaluates;
    * a wire (``identity_map``, ``swap_map``, ``perm_map``) sends each
      basis label to one basis label with coefficient 1: it permutes the
      label's tensor factors.  It holds no memo; wires composed or
      tensored make a composite like any other maps.

    A composite and a wire keep their stage tree in ``_stages``
    (``("compose", f, g)``, ``("tensor", f, g)`` or ``("wire", picks)``;
    ``None`` on a leaf).  Only the law kernel optimises a tree: it works
    out wires, cuts and joins while compiling.  ``equal_on_window``
    checks every window with one law kernel (see ``_kernel``) made from
    both sides' trees: one nested loop per factor of the domain, in
    which each leaf application is a lookup in a table of the check's
    own, a list indexed by numbers the check gives the labels it meets,
    one number per level of rows (lists too) when the leaf reads two or
    more factors, and a miss there reads the leaf's memo and calls
    ``apply`` only on a miss in it (a kernel over one part looks up the
    memo directly); a monomial leaf's image there is one term, not a
    loop over terms, and a pairing leaf's miss calls its bilinear form,
    never its memo.
    A lookup, or a row fetch, is made once per value of the factors it
    reads, in the loop of the last of them, and once for both sides.
    The kernel is made once per law shape in a process and shared by
    every law of that shape, with the leaves bound per check.  A side
    whose leaves would nest more loops than CPython allows
    (``_MAX_LOOPS``, counting the domain's) is one call of its ``apply``
    inside the kernel.  The same
    compiler makes a memoised composite's image function (see
    ``memoised``).  Every other caller evaluates any map through
    ``apply``.

    ``f >> g`` is "f then g", ``f @ g`` the tensor product.
    """

    __slots__ = ("dom", "cod", "fn", "name", "_cache", "_stages", "_monomial", "_pairing")

    def __init__(self, dom, cod, fn, name=""):
        self.dom = dom
        self.cod = cod
        self.fn = fn
        self.name = name
        self._cache = {}
        self._stages = None
        self._monomial = False
        self._pairing = None

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

    def __repr__(self):
        return "LinMap(%s: %s -> %s)" % (self.name or "?", self.dom.name, self.cod.name)


def _vec(entries):
    "A Vec over ``entries`` as it stands; no coefficient may be zero."
    v = Vec.__new__(Vec)
    v.entries = entries
    return v


@functools.lru_cache(maxsize=None)
def _wiring(picks):
    """The stage tree and label function every wire with these ``picks`` shares.

    Output factor i of the wire is input factor picks[i].  Only a label
    of two or more factors can be permuted, and such a label is always
    ``("t", f1, ...)``.
    """
    if picks == tuple(range(len(picks))):
        return ("wire", picks), Vec.basis
    pick = operator.itemgetter(*[1 + p for p in picks])
    return ("wire", picks), lambda l: _vec({(_TENSOR,) + pick(l): 1})


def _wire(dom, cod, picks, name):
    "A wire: each basis label goes to the label of its factors in ``picks`` order."
    stages, fn = _wiring(picks)
    return _streamed(dom, cod, fn, name, stages)


def identity_map(X):
    return _wire(X, X, tuple(range(X.arity)), "id")


def scale_map(f, c):
    return LinMap(f.dom, f.cod, lambda l: c * f.apply(l), name="%d*%s" % (c, f.name))


def _streamed(dom, cod, fn, name, stages):
    "A composite map or a wire: evaluated afresh on every label, with no memo."
    m = LinMap(dom, cod, fn, name)
    m._cache = None
    m._stages = stages
    return m


def monomial_map(dom, cod, fn, name):
    """A leaf like ``LinMap(dom, cod, fn, name)`` that promises each basis
    label an image of at most one term: a multiple of one basis label,
    or zero.

    A law kernel over two or more parts keeps such a leaf's image as one
    term, not a list of them, and checks the promise as it fills its
    table: an image of two terms there raises a ``RuntimeError`` naming
    the label, and no verdict is given.  ``apply`` and the memo are any
    leaf's.
    """
    m = LinMap(dom, cod, fn, name)
    m._monomial = True
    return m


def pairing_map(X, gamma, name):
    """The leaf ``X (x) X -> I`` sending ``x (x) y`` to ``gamma(x, y)``
    times the unit label.  ``apply`` and the memo are any leaf's; a law
    kernel that numbers its labels calls ``gamma`` instead (``_kernel``).
    """
    def fn(label):
        x, y = split_label(X, X, label)
        return Vec.basis(UNIT, gamma(x, y))

    m = LinMap(tensor_space(X, X), UNIT_SPACE, fn, name)
    m._pairing = gamma
    return m


def memoised(f):
    """``f`` as a leaf map, memoising per label.

    A composite kept as structure, such as a coaction or a product's
    structure map, meets the same labels again and again, so it
    remembers its values like a leaf.  A label it has not met is
    evaluated by the image function that the law kernels' compiler makes
    from f's stage tree (``_image``); f's ``apply`` stays the reference.
    """
    if f._cache is not None:
        return f
    return LinMap(f.dom, f.cod, _image(f), name=f.name)


def compose_maps(f, g):
    """f then g; f's codomain must be g's domain.

    A label goes through f and its image through g; the law kernel works
    out the wires while compiling.
    """
    if f.cod is not g.dom:
        raise SpaceMismatch("compose: codomain %s of %r is not the domain %s of %r"
                            % (f.cod.name, f, g.dom.name, g))
    fa = f.apply
    return _streamed(f.dom, g.cod, lambda label: g(fa(label)),
                     "(%s;%s)" % (f.name, g.name), ("compose", f, g))


def tensor_maps(f, g):
    """f (x) g: a label is split into its f and g parts, and their images tensored.

    The law kernel works out the wires and every cut and join while
    compiling.
    """
    X, Y = f.dom, g.dom
    fa, ga = f.apply, g.apply

    def fn(label):
        x, y = split_label(X, Y, label)
        return fa(x).tensor(ga(y))
    return _streamed(tensor_space(X, Y), tensor_space(f.cod, g.cod), fn,
                     "(%s@%s)" % (f.name, g.name), ("tensor", f, g))


def swap_map(X, Y):
    "The plain symmetry of Ab: no signs."
    return _permutation([X, Y], (1, 0), "swap")


def perm_map(spaces, perm):
    """Wire permutation: output slot i carries input factor perm[i]."""
    return _permutation(spaces, perm, "perm%s" % (perm,))


def _permutation(spaces, perm, name):
    if sorted(perm) != list(range(len(spaces))):
        raise ValueError("%r is not a permutation of %d slots" % (perm, len(spaces)))
    dom = spaces[0]
    for sp in spaces[1:]:
        dom = tensor_space(dom, sp)
    cod = spaces[perm[0]]
    for i in perm[1:]:
        cod = tensor_space(cod, spaces[i])

    starts = [0]
    for sp in spaces:
        starts.append(starts[-1] + sp.arity)
    # the input factors the output carries, in order
    picks = tuple(j for i in perm for j in range(starts[i], starts[i + 1]))
    return _wire(dom, cod, picks, name)


# ---------------------------------------------------------------------------
# law kernels: one generated loop per law over the window's factors


# for-loops one kernel may nest: CPython allows 20 statically nested blocks
_MAX_LOOPS = 20

# shape -> its compiled function: a law's kernel (its shape starts with a
# tuple of arities) or a map's image function (its shape with an int); a
# shape is ints, strings and tuples, and a function holds code, so the
# table keeps no map, space or vector alive
_kernels = {}


def _kernel(f, g, parts):
    """The law kernel of ``f == g`` on a domain of these parts.

    Called with one window per part, it checks the labels of their
    tensor one at a time, in enumeration order.  It returns ``(n,
    label)`` at the n-th label, the first whose two images differ, and
    ``(n, None)`` after n labels that all agree; ``equal_on_window``
    takes the images of a failing label from ``apply``.

    The kernel is one generated function with one nested ``for`` per
    part.  Inside them each side is compiled from its stage tree: wires
    and tensor cuts and joins are worked out on the label's factors
    while compiling, so at run time they are tuple slots, and a label
    is only built where a leaf needs it.  Each side's terms are summed
    into one dict, or into an int when the codomain is the unit space; a
    side whose leaves are all monomial keeps its one term (see below).

    Labels are nested tuples, and CPython does not cache a tuple's hash,
    so a kernel over two or more parts works on numbers instead.  On
    entry it numbers the labels it meets in a dict of its own, in
    first-seen order, so that two labels get one number exactly when
    they are equal.  Each leaf gets a table of its own, which holds its
    image as ``(numbers, coefficient, label)`` terms, or as the one
    coefficient when its codomain is the unit space.  A table is a list
    indexed by number, ``None`` where the image is missing (no image is
    ``None``).  The table of a leaf whose argument has one factor is
    indexed by its number; for two or more factors it is rows of nested
    lists: the first factor's number selects a row, each later number
    the next row, and the last number the image, so a lookup is a list
    subscript that builds and hashes nothing.  A leaf of no factors is
    read once, at the kernel's top, and keeps no table.  Tables and rows
    are made as long as the labels numbered so far; a term's label may
    be numbered after a row was made, so a read at a term's number past
    a row's end grows the row to the numbers there are.  The sides'
    dicts are keyed by numbers too (a tuple of them for a codomain of
    two or more factors).  On a miss the kernel
    builds the label, looks it up in the leaf's memo, and calls
    ``apply`` only on a miss there, so the memos fill as before, but
    for a pairing leaf's (see below).  The numbers and tables die with
    the call.  A kernel over one part works
    on labels and looks leaves up in their memos: its window is small in
    every check the package makes, and a verification on construction
    runs on window 0, where numbering would cost more than it saves.  So
    does a law whose two sides are single leaves, which looks each label
    up once.

    A monomial leaf (``monomial_map``) keeps one ``(numbers,
    coefficient, label)`` triple in its table, or ``()`` for zero, and
    the kernel unpacks it under ``if e:`` where it loops over another
    leaf's terms.  Filling its table checks the promise: an image of two
    terms raises a ``RuntimeError`` naming the leaf and the label, so a
    wrong declaration never gives a verdict.  When every leaf of both
    sides is monomial (wires, and leaves into the unit space, count as
    monomial), each side is ``None`` or one ``(key, coefficient)`` pair,
    and the kernel compares the pairs instead of building two dicts.

    A pairing leaf (``pairing_map``) fills its table on a miss with its
    bilinear form called on the label's two halves, with no memo,
    ``apply`` or ``Vec``, so only ``apply`` fills its memo.  A kernel
    that works on labels looks it up in its memo, as any leaf.

    A lookup, and each row fetch, is hoisted to the top of the loop that
    binds the last factor it reads, or to the kernel's top if it reads
    none, so that ``mu(a0, a1)`` on three parts fetches ``a0``'s row
    once per ``a0`` and looks its image up once per pair, not once per
    label; one lookup or row serves both sides wherever they apply the
    same leaf to the same leading factors; and each term loop multiplies
    the coefficients so far once, before the loop inside it.  A side
    whose leaves, one loop each, would nest more than ``_MAX_LOOPS``
    loops with the domain's is one call of its ``apply``.

    The function is made from the law's shape alone (``_shape``), once
    per shape in a process (``_kernels``), and serves every law of that
    shape.  Its first parameters are each leaf's ``apply`` and memo dict
    (a pairing leaf's bilinear form, where the kernel numbers its
    labels), in the leaves' order of first use; they are bound here, for
    this one law.
    """
    leaves = {}
    return _compiled("kernel", _shape(f, g, parts, leaves), leaves)


def _image(f):
    """f's image of one label as a Vec, compiled from f's stage tree as
    one side of a law kernel is, once per shape ``(dom arity, tree)``;
    f's ``apply`` if its leaves would nest more than ``_MAX_LOOPS`` loops.
    It meets each label once, so it works on labels, not numbers."""
    leaves = {}
    tree, loops = _tree(f, leaves)
    if loops > _MAX_LOOPS:
        return f.apply
    return _compiled("image", (f.dom.arity, tree), leaves)


def _compiled(kind, shape, leaves):
    """The ``kind`` function (kernel or image) of ``shape``, bound to each
    leaf's ``apply`` and memo dict (``None`` for a leaf without one), in
    the leaves' order of first use; the function reads a memo with the
    dict's own ``get``.  A function that numbers its labels gets a
    pairing leaf's bilinear form in place of its memo."""
    made = _kernels.get(shape)
    if made is None:
        made = _kernels[shape] = getattr(_Compiler(), kind)(shape)
    args = []
    for m in leaves:
        if m._pairing is not None and _numbered(shape):
            args += (m.apply, m._pairing)
        else:
            args += (m.apply, m._cache)
    return functools.partial(made, *args)


def _numbered(shape):
    "Does a law kernel of this shape number its labels?  An image function's never does."
    if type(shape[0]) is int:
        return False
    arities, cod, f, g = shape
    return len(arities) > 1 and (type(f[0]) is not int or type(g[0]) is not int)


def _shape(f, g, parts, leaves):
    """The shape of the law ``f == g`` on a domain of these parts.

    It is the parts' arities, the codomain's arity and the stage tree of
    each side, with each wire replaced by ``("wire", picks)``, each
    composite by ``(kind, dom arity of its first map, shape, shape)`` and
    each leaf by ``(index, dom arity, cod arity, has a memo, is
    monomial, is a pairing)``.  The index is the leaf's place in order
    of first use across both sides, so laws whose leaves repeat
    differently have different shapes;
    ``leaves`` maps each leaf met to its index.  A side whose leaves,
    one loop each, would nest more than ``_MAX_LOOPS`` loops with the
    domain's stands as a leaf itself, after the leaves it holds (whose
    parameters the kernel then leaves unused).
    """
    sides = []
    for m in (f, g):
        tree, loops = _tree(m, leaves)
        sides.append(_leaf(m, leaves) if len(parts) + loops > _MAX_LOOPS else tree)
    return (tuple(p.arity for p in parts), f.cod.arity) + tuple(sides)


def _tree(m, leaves):
    "m's stage tree as a shape has it, and how many loops it nests: one per leaf."
    stages = m._stages
    if stages is None:
        return _leaf(m, leaves), 1
    if stages[0] == "wire":
        return stages[:2], 0
    kind, f, g = stages
    first, loops_f = _tree(f, leaves)
    then, loops_g = _tree(g, leaves)
    return (kind, f.dom.arity, first, then), loops_f + loops_g


def _leaf(m, leaves):
    "m as a leaf of a shape; ``leaves`` gives it its index at its first use."
    return (leaves.setdefault(m, len(leaves)), m.dom.arity, m.cod.arity, m._cache is not None,
            m._monomial, m._pairing is not None)


class _Compiler:
    """Writes and makes the law kernel of one shape (see ``_kernel``), or
    the image function of one map's shape (see ``_image``).

    It reads the shape only, never a map.  Leaf i's ``apply`` and memo
    dict are the parameters ``Li`` and ``Mi``; in a numbered kernel
    ``Mi`` of a pairing leaf is its bilinear form, its table is the list
    ``Ti``, and a row of a leaf keyed by two or more factors is a list
    in a variable ``r<n>``.  A read at a domain factor's number is a
    plain subscript, as every table and row is made after the windows
    are numbered; a read at a term's number catches the ``IndexError``
    of a row made before the term's label was numbered, and grows the
    row (``fetch``).  A monomial
    leaf's term is unpacked in an ``if`` block that the compiler opens
    and heads as it would a term loop.  While
    compiling, a label is a tuple of factors, one per tensor factor, and
    a factor is a triple: an expression for its number (``None`` where
    the kernel works on labels), an expression for its label, and the
    depth of the loop that binds it (a domain factor its part's loop, a
    term of an image its term loop).  A label that a loop binds whole keeps the
    variable that names it, and so do its numbers (``spans``), so a
    stage that needs the whole label or all its numbers takes that
    variable.  Every loop keeps a head, the lines at the top of its
    body.  A lookup goes to the head of the deepest loop its key reads,
    once per leaf and key expression, and a row fetch to the head of the
    deepest loop its leading numbers read, once per leaf and numbers.
    """

    def __init__(self):
        self.lines = [[]]    # blocks of lines, a loop's head a block of its own
        self.heads = {}      # depth -> the head of the loop open at that depth
        self.images = {}     # (leaf index, key expression) -> the variable of its image,
                             # and (leaf index, leading numbers) -> the variable of a row
        self.spans = {}      # factor expressions -> the variable of that label or its numbers
        self.leaves = 0      # how many leaves the kernel's parameters carry
        self.tables = []     # the leaves with a table, in a numbered kernel
        self.numbered = False
        self.parts = 0       # the depth of the innermost domain loop
        self.one_term = False  # does each side have one term at most?
        self.count = 0

    def kernel(self, shape):
        arities, cod, f, g = shape
        # one part, or two single leaves: the kernel works on labels
        self.numbered = _numbered(shape)
        self.parts = len(arities)
        self.one_term = self.numbered and _one_term(f) and _one_term(g)
        windows = ["W%d" % i for i in range(len(arities))]
        if self.numbered:
            self.line(0, "ids = {}")
            self.line(0, "number = ids.setdefault")
            for w, arity in zip(windows, arities):
                self.line(0, "%s = [(%s, l) for l in %s]" % (w, self.number("l", arity), w))
        self.line(0, "n = 0")
        self.open(0)
        label = ()
        for i, arity in enumerate(arities):
            if self.numbered:
                self.line(i, "for i%d, a%d in W%d:" % (i, i, i))
            else:
                self.line(i, "for a%d in W%d:" % (i, i))
            self.open(i + 1)
            label += self.factors("i%d" % i if self.numbered else None, "a%d" % i, arity, i + 1)
        depth = len(arities)
        self.line(depth, "n += 1")
        self.side(f, label, "lhs", depth, cod)
        self.side(g, label, "rhs", depth, cod)
        self.line(depth, "if lhs != rhs:")
        self.line(depth + 1, "return n, %s" % self.whole(label))
        self.line(0, "return n, None")
        for i in self.tables:
            self.lines[0].append("T%d = [None] * len(ids)" % i)
        return self.made("kernel", windows)

    def image(self, shape):
        arity, tree = shape
        self.open(0)
        self.side(tree, self.factors(None, "x", arity, 0), "out", 0, None)
        self.line(0, "return _vec(out)")
        return self.made("image", ["x"])

    def made(self, name, params):
        "The function ``name`` of the lines written: the leaves' parameters, then ``params``."
        params = ["L%d, M%d" % (i, i) for i in range(self.leaves)] + params
        source = "def %s(%s):\n%s\n" % (
            name, ", ".join(params), "\n".join("    " + l for b in self.lines for l in b))
        env = {"_vec": _vec, "_broken": _broken}
        exec(compile(source, "<%s>" % name, "exec"), env)
        # taken out of the globals it was defined in, so that only the
        # table keeps the function alive, and no cycle does
        return env.pop(name)

    def side(self, tree, label, out, depth, cod):
        """Emit one side of the law, leaving its image in ``out``: a dict
        of entries, or an int when a numbered kernel's codomain ``cod``
        is the unit space."""
        if type(tree[0]) is int and not self.numbered:
            self.line(depth, "%s = %s.entries" % (out, self.call(tree, label)))
            return
        if self.numbered and cod == 0:
            self.line(depth, "%s = 0" % out)
            op = "=" if self.one_term else "+="
            self.stage(tree, label, None, depth,
                       lambda label, coeff, depth: self.line(
                           depth, "%s %s %s" % (out, op, coeff or "1")))
            return
        if self.one_term:
            # None, or the one term as a (key, coefficient) pair
            self.line(depth, "%s = None" % out)
            self.stage(tree, label, None, depth,
                       lambda label, coeff, depth: self.line(
                           depth, "%s = %s, %s" % (out, self.key(label), coeff or "1")))
            return

        def collect(label, coeff, depth):
            key = self.key(label)
            if not key.isidentifier():
                self.line(depth, "key = %s" % key)
                key = "key"
            self.line(depth, "v = get(%s, 0) + %s" % (key, coeff or "1"))
            self.line(depth, "if v:")
            self.line(depth + 1, "%s[%s] = v" % (out, key))
            self.line(depth, "else:")
            self.line(depth + 1, "del %s[%s]" % (out, key))

        self.line(depth, "%s = {}" % out)
        self.line(depth, "get = %s.get" % out)
        self.stage(tree, label, None, depth, collect)

    def line(self, depth, text):
        self.lines[-1].append("    " * depth + text)

    def open(self, depth):
        "Start the body of a loop at ``depth``."
        self.heads[depth] = []
        self.lines += [self.heads[depth], []]

    def fresh(self, stem):
        self.count += 1
        return "%s%d" % (stem, self.count)

    def number(self, whole, n):
        "An expression numbering the n factors of the label in ``whole``."
        if n == 1:
            return "number(%s, len(ids))" % whole
        return "(%s)" % ", ".join("number(%s[%d], len(ids))" % (whole, i)
                                  for i in range(1, n + 1))

    def factors(self, numbers, whole, n, depth):
        """The n factors of the label a loop at ``depth`` binds to ``whole``,
        and its numbers to ``numbers``."""
        if n == 1:
            return ((numbers, whole, depth),)
        labels = tuple("%s[%d]" % (whole, i) for i in range(1, n + 1))
        nums = (None,) * n
        if n:
            self.spans[labels] = whole
        if n and numbers:
            nums = tuple("%s[%d]" % (numbers, i) for i in range(n))
            self.spans[nums] = numbers
        return tuple(zip(nums, labels, (depth,) * n))

    def whole(self, label):
        "An expression for a label."
        labels = tuple(f[1] for f in label)
        if labels in self.spans:
            return self.spans[labels]
        if not labels:
            return repr(UNIT)
        if len(labels) == 1:
            return labels[0]
        return "(%r, %s)" % (_TENSOR, ", ".join(labels))

    def key(self, label):
        "An expression for a label's key: its numbers in a numbered kernel, else itself."
        if not self.numbered:
            return self.whole(label)
        nums = tuple(f[0] for f in label)
        if nums in self.spans:
            return self.spans[nums]
        if len(nums) == 1:
            return nums[0]
        return "(%s)" % ", ".join(nums)

    def call(self, leaf, label):
        """Apply a leaf to a label; the variable that holds its image: the
        Vec, or in a numbered kernel its terms (its one term or ``()``,
        if it is monomial; its coefficient, if its codomain is the unit
        space).

        In a numbered kernel the leaf's table is read first (its last row,
        for two or more factors), and its memo and then ``apply`` on a
        miss there, or a pairing leaf's bilinear form on the label's two
        halves; otherwise its memo and then ``apply``.  The lookup
        goes to the head of the deepest loop the label reads, and is made
        once there for each leaf and key expression.
        """
        i, cod, memo = leaf[0], leaf[2], leaf[3]
        x = self.key(label)
        image = self.images.get((i, x))
        if image is not None:
            return image
        image = self.images[(i, x)] = self.fresh("e")
        self.leaves = max(self.leaves, i + 1)
        whole = self.whole(label)
        vec = "v" if self.numbered else image
        read = ["%s = L%d(%s)" % (vec, i, whole)]
        if memo:
            read = ["%s = M%d.get(%s)" % (vec, i, whole), "if %s is None:" % vec, "    " + read[0]]
        if self.numbered:
            # a leaf of no factors is read once, at the kernel's top: it keeps no table
            store = ""
            if label:
                if i not in self.tables:
                    self.tables.append(i)
                table = "T%d" % i
                # a row per leading factor, each fetched where its last factor is bound
                for j in range(1, len(label)):
                    table = self.row(i, label[:j], table)
                store = "%s[%s] = " % (table, label[-1][0])
            if leaf[5]:
                # a pairing leaf's coefficient, its bilinear form on the two halves
                half = len(label) // 2
                read, terms = [], ["%s = %sM%d(%s, %s)" % (
                    image, store, i, self.whole(label[:half]), self.whole(label[half:]))]
            elif cod and leaf[4]:
                # a monomial leaf's one term, or (); a second term breaks its promise
                terms = ["%s = ()" % image,
                         "for k, c in v.entries.items():",
                         "    if %s:" % image,
                         "        _broken(L%d, %s)" % (i, whole),
                         "    %s = (%s, c, k)" % (image, self.number("k", cod))]
                if store:
                    terms.append(store + image)
            elif cod:
                terms = ["%s = %s[]" % (image, store),
                         "for k, c in v.entries.items():",
                         "    %s.append((%s, c, k))" % (image, self.number("k", cod))]
            else:
                terms = ["%s = %sv.entries.get(%r, 0)" % (image, store, UNIT)]
            read += terms
            if label:
                read = (self.fetch(image, table, label[-1]) + ["if %s is None:" % image]
                        + ["    " + l for l in read])
        self.head(label, read)
        return image

    def row(self, i, lead, table):
        """The variable of leaf i's row for the numbers of the factors
        ``lead``, fetched from ``table`` once per leaf and numbers, and
        made on a miss."""
        nums = tuple(f[0] for f in lead)
        row = self.images.get((i, nums))
        if row is None:
            row = self.images[(i, nums)] = self.fresh("r")
            self.head(lead, self.fetch(row, table, lead[-1]) + [
                "if %s is None:" % row, "    %s = %s[%s] = [None] * len(ids)" % (row, table, nums[-1])])
        return row

    def fetch(self, var, table, factor):
        """Lines reading a table or row at a factor's number into ``var``, ``None``
        if missing; a term's number may be past its end, which then grows."""
        read = "%s = %s[%s]" % (var, table, factor[0])
        if factor[2] <= self.parts:
            return [read]
        return ["try:", "    " + read, "except IndexError:",
                "    %s += [None] * (len(ids) - len(%s))" % (table, table), "    %s = None" % var]

    def head(self, label, lines):
        "Put lines at the head of the deepest loop that binds a factor of the label."
        depth = max((f[2] for f in label), default=0)
        self.heads[depth] += ["    " * depth + l for l in lines]

    def stage(self, tree, label, coeff, depth, then):
        "Emit a shape tree on a label; ``then(label, coeff, depth)`` emits what takes each term."
        kind = tree[0]
        if kind == "wire":
            then(tuple(label[p] for p in tree[1]), coeff, depth)
        elif kind == "compose":
            g = tree[3]
            self.stage(tree[2], label, coeff, depth,
                       lambda l, c, d: self.stage(g, l, c, d, then))
        elif kind == "tensor":
            # f on the first factors, then g on the rest for each term of f
            cut, f, g = tree[1:]
            self.stage(f, label[:cut], coeff, depth, lambda l, c, d: self.stage(
                g, label[cut:], c, d, lambda r, c, d: then(l + r, c, d)))
        else:
            # a loop over the terms of the leaf's image; the coefficients
            # so far are multiplied once, before it
            image = self.call(tree, label)
            if coeff is not None and not coeff.isidentifier():
                product = self.fresh("p")
                self.line(depth, "%s = %s" % (product, coeff))
                coeff = product
            if self.numbered and not tree[2]:
                # a unit codomain: the image is its coefficient
                self.line(depth, "if %s:" % image)
                then((), image if coeff is None else "%s * %s" % (coeff, image), depth + 1)
                return
            k, c = self.fresh("k"), self.fresh("c")
            if self.numbered and tree[4]:
                # a monomial leaf's image is one term or none
                numbers = self.fresh("n")
                self.line(depth, "if %s:" % image)
                self.line(depth + 1, "%s, %s, %s = %s" % (numbers, c, k, image))
            elif self.numbered:
                numbers = self.fresh("n")
                self.line(depth, "for %s, %s, %s in %s:" % (numbers, c, k, image))
            else:
                numbers = None
                self.line(depth, "for %s, %s in %s.entries.items():" % (k, c, image))
            self.open(depth + 1)
            then(self.factors(numbers, k, tree[2], depth + 1),
                 c if coeff is None else "%s * %s" % (coeff, c), depth + 1)


def _one_term(tree):
    "Has a shape tree one term at most on each label: is its every leaf monomial?"
    kind = tree[0]
    if kind == "wire":
        return True
    if kind in ("compose", "tensor"):
        return _one_term(tree[2]) and _one_term(tree[3])
    # a leaf into the unit space has one term at most, its coefficient
    return tree[4] or not tree[2]


def _broken(apply, label):
    "Raise for a monomial leaf whose image of ``label`` has two terms or more."
    image = apply(label)
    raise RuntimeError("the monomial map %s has %d terms at %s: %r"
                       % (apply.__self__.name, len(image.entries), show_label(label), image))


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


def counterexample_json(cx):
    "A row's counterexample in JSON: a ``Counterexample`` or a plain JSON value."
    return cx.to_json() if isinstance(cx, Counterexample) else cx


@dataclass(frozen=True)
class CheckResult:
    """One verdict row: a law checked window-exactly (tolerance is zero),
    or a decision.

    ``verdict`` is the row's word: ``equal``/``differ`` for a law and
    ``accept``/``reject`` for a decision.  ``counterexample`` is a
    ``Counterexample`` or a plain JSON value.  ``seconds`` is the wall
    time of the row's own check; it is left out of equality, ``repr``
    and ``to_json``, so verdicts and reports do not depend on timing.
    """
    law: str
    verdict: str
    instances: int
    counterexample: object = None
    seconds: float = field(default=0.0, compare=False, repr=False)

    @property
    def equal(self):
        return self.verdict in ("equal", "accept")

    def __bool__(self):
        return self.equal

    def to_json(self):
        doc = {"law": self.law, "verdict": self.verdict,
               "instances_checked": self.instances}
        if self.counterexample is not None:
            doc["counterexample"] = counterexample_json(self.counterexample)
        return doc

    def __repr__(self):
        if self.equal:
            # a law counts window labels, a decision its instances
            unit = "labels" if self.verdict == "equal" else "instances"
            return "%s: %s (%d %s)" % (self.law, self.verdict, self.instances, unit)
        return "%s: %s %r" % (self.law, self.verdict, self.counterexample)


def equal_on_window(f, g, K, law=""):
    """Exact comparison of f and g on every domain label within window K.

    Returns the first counterexample in enumeration order, if any.  The
    labels are taken one at a time, in that order, so a failing check
    stops at its first counterexample.  Every window is checked by one
    law kernel (``_kernel``), which loops over the domain's part windows
    and never lists the window, and drops its leaves when it returns.  A
    domain of more parts than one kernel may nest loops is listed, and
    its kernel has one loop over that list.  The kernel names the failing
    label, and the counterexample's images are both sides' ``apply``
    there; if they agree, the kernel is wrong and a ``RuntimeError`` is
    raised.  A check fills each leaf's memo as ``apply`` would, but for
    a pairing leaf's, which a kernel that numbers labels never touches.
    The result records the check's wall time in ``seconds``.
    """
    if f.dom is not g.dom or f.cod is not g.cod:
        raise SpaceMismatch("cannot compare %r with %r" % (f, g))
    started = time.perf_counter()
    parts = f.dom.parts
    if len(parts) > _MAX_LOOPS:
        parts = (f.dom,)
    checked, label = _kernel(f, g, parts)(*[p.enumerate(K) for p in parts])
    if label is None:
        return CheckResult(law, "equal", checked, None, time.perf_counter() - started)
    cx = Counterexample(label, f.apply(label), g.apply(label))
    if cx.lhs == cx.rhs:
        raise RuntimeError("the law kernel of %r names %s, where both sides are %r"
                           % (law, show_label(label), cx.lhs))
    return CheckResult(law, "differ", checked, cx, time.perf_counter() - started)
