"""The Pareigis Hopf ring, its twin, and the chain-complex equivalence.

The ring is presented by invertible xi and odd psi with xi.psi = -psi.xi
and psi^2 = 0; normal forms are psi^a xi^k with a in {0, 1}.  The sign
``s`` picks the coproduct of psi (xi^s (x) psi tail) and with it the
direction the differential travels: comodules over the ring are exactly
bounded chain complexes, with coaction

    b in degree n  |->  xi^m (x) b + psi xi^(m-s) (x) db,   m = s.n.

``identify_semidirect`` rebuilds the ring as the semidirect product of
the two-term differential Hopf ring with the Laurent grading ring and
checks the label bijection between the two is a Hopf map.
"""

from __future__ import annotations

import functools
import json

from .chains import ChainComplex, ChainMap, IllegalChain, _block_at, _column, zeros
from .diffhopf import two_term_ring
from .laws import Bimonoid, Comodule, IllegalComodule, check_hopf_morphism
from .linalg import (
    UNIT, UNIT_SPACE, LinMap, Space, Vec, _is_int, _json_type, atom,
    equal_on_window, finite_space, identity_map, label_from_json, label_key,
    label_to_json, left, monomial_map, pair, right, show_label, split_label,
    tensor_space,
)
from .semidirect import WComodule, semidirect_product

XI = "xi"
XI_INV = "xi'"
PSI = "psi"
ALPHABET = (XI, XI_INV, PSI)

_FAMILY = "pareigis"


def monomial(a, k):
    "Normal-form label psi^a xi^k."
    return atom(_FAMILY, a, k)


def _is_monomial(label):
    "Is the label a normal form psi^a xi^k, with a = 0 or 1 and k an integer?"
    if not (isinstance(label, tuple) and label[:2] == ("a", _FAMILY) and len(label[2]) == 2):
        return False
    a, k = label[2]
    return type(a) is int and type(k) is int and a in (0, 1)


def word_of(label):
    "Tokens of a normal form, psi first."
    a, k = label[2]
    return [PSI] * a + ([XI] * k if k >= 0 else [XI_INV] * (-k))


def normalize_word(word):
    """Rewrite a word over {xi, xi', psi} to its normal form.

    The relations xi.psi -> -psi.xi, xi'.psi -> -psi.xi', psi.psi -> 0
    and xi.xi' -> 1 <- xi'.xi are confluent; the result is +-(psi^a xi^k)
    or zero, returned as a vector.

    >>> normalize_word([XI, PSI, XI_INV])
    -pareigis(1,0)
    >>> normalize_word([PSI, PSI])
    0
    >>> normalize_word([XI, XI_INV])
    pareigis(0,0)
    """
    sign, a, k = 1, 0, 0
    for token in word:
        if token == XI:
            k += 1
        elif token == XI_INV:
            k -= 1
        elif token == PSI:
            if a:
                return Vec.zero()
            if k % 2:
                sign = -sign
            a = 1
        else:
            raise ValueError("unknown letter %r" % (token,))
    return Vec.basis(monomial(a, k), sign)


def rewrite_once(word):
    """All single rewriting steps from a word: list of (coeff, word) pairs.

    Used to verify confluence: every maximal rewrite sequence of a word
    ends in the same signed normal form.
    """
    out = []
    for i in range(len(word) - 1):
        u, v = word[i], word[i + 1]
        head, tail = list(word[:i]), list(word[i + 2:])
        if u in (XI, XI_INV) and v == PSI:
            out.append((-1, head + [PSI, u] + tail))
        elif u == PSI and v == PSI:
            out.append((0, []))
        elif (u, v) in ((XI, XI_INV), (XI_INV, XI)):
            out.append((1, head + tail))
    return out


@functools.lru_cache(maxsize=None)
def pareigis_ring(s, /):
    """The Hopf ring on normal forms psi^a xi^k.

    s = -1 gives the classical presentation (coproduct tail xi^{-1} (x)
    psi, antipode s(psi) = psi.xi); s = +1 exchanges xi and xi^{-1}.
    Each structure map is a closed formula on normal forms:

        mu(psi^a xi^k (x) psi^b xi^l) = (-1)^(b.k) psi^(a+b) xi^(k+l),
            zero if a = b = 1,
        delta(xi^k) = xi^k (x) xi^k,
        delta(psi xi^k) = psi xi^k (x) xi^k + xi^(k+s) (x) psi xi^k,
        S(psi^a xi^k) = (-1)^(a.k) psi^a xi^(-k-a.s);

    ``normalize_word`` rewrites words independently of them.
    There is one ring per sign in a process: every call returns it, so
    the memos of its pure structure maps serve every caller.  A bad sign
    raises a ``ValueError`` on every call.
    """
    if s not in (-1, 1):
        raise ValueError("s must be +-1")

    def window(K):
        return [monomial(a, k) for a in (0, 1) for k in range(-K, K + 1)]

    P = Space("P" if s == -1 else "P+", 1, window)
    PP = tensor_space(P, P)
    one = monomial(0, 0)

    def mu_fn(label):
        # psi^a xi^k . psi^b xi^l: psi^b moves past xi^k with sign (-1)^(b.k)
        l1, l2 = split_label(P, P, label)
        (a, k), (b, l) = l1[2], l2[2]
        if a and b:
            return Vec.zero()
        return Vec.basis(monomial(a + b, k + l), -1 if b and k % 2 else 1)

    def delta_fn(label):
        a, k = label[2]
        xk = monomial(0, k)
        if not a:
            return Vec.basis(pair(xk, xk))
        return Vec.basis(pair(label, xk)) + Vec.basis(pair(monomial(0, k + s), label))

    def antipode_fn(label):
        # S(psi xi^k) = xi^-k . psi xi^-s, S being an anti-homomorphism
        a, k = label[2]
        return Vec.basis(monomial(a, -k - a * s), -1 if a and k % 2 else 1)

    def epsilon_fn(label):
        return Vec.basis(UNIT) if label[2][0] == 0 else Vec.zero()

    ring = Bimonoid(
        P,
        monomial_map(PP, P, mu_fn, "mu"),
        monomial_map(UNIT_SPACE, P, lambda l: Vec.basis(one), "eta"),
        LinMap(P, PP, delta_fn, name="delta"),
        monomial_map(P, UNIT_SPACE, epsilon_fn, "epsilon"),
        monomial_map(P, P, antipode_fn, "antipode"),
    )
    ring.s = s
    return ring


def ring_by_name(name):
    "CLI ring names: 'pareigis' (s = -1), 'pareigis-plus' (s = +1)."
    table = {"pareigis": -1, "pareigis-plus": 1}
    if name not in table:
        raise KeyError(name)
    return pareigis_ring(table[name])


# ---------------------------------------------------------------------------
# identification with the semidirect product


def differential_comodule_bimonoid(s):
    "The two-term Hopf ring I + D over the Laurent ring, D = Z in degree s."
    return two_term_ring((s,), (-1,))


def identify_semidirect(s, K):
    """Compare (I + D) >< Z with the Pareigis ring of the same sign.

    The label bijection theta: d^a (x) x^k -> psi^a xi^k must pass
    ``check_hopf_morphism`` (one row per structure map) and invert to the
    identity (the ``label-bijection`` row).  A sign other than +-1 is
    refused by ``pareigis_ring`` before anything is built.
    """
    ring = pareigis_ring(s)
    hb = differential_comodule_bimonoid(s)
    sd = semidirect_product(hb)
    P = ring.carrier
    Q = sd.carrier

    dlabel = atom("d", s, 0)

    def theta_fn(label):
        h, a = split_label(hb.hopf.carrier, hb.ring.carrier, label)
        k = a[2][0]
        return Vec.basis(monomial(1 if h[0] == "L" else 0, k))

    def theta_inv_fn(label):
        a, k = label[2]
        h = left(dlabel) if a else right(UNIT)
        return Vec.basis(pair(h, atom("x", k)))

    theta = LinMap(Q, P, theta_fn, name="theta")
    theta_inv = LinMap(P, Q, theta_inv_fn, name="theta_inv")

    report = check_hopf_morphism(theta, sd, ring, K)
    report.append(equal_on_window(theta >> theta_inv, identity_map(Q),
                                  K, law="label-bijection"))
    return report


# ---------------------------------------------------------------------------
# chains as comodules


def chain_to_comodule(X, s):
    """View a bounded complex as a comodule over the Pareigis ring.

    The ring grading of a degree-n basis vector is m = s.n, so that the
    differential always lowers m by s; coassociativity of the coaction
    is exactly d.d = 0.
    """
    ring = pareigis_ring(s)
    carrier = X.space()

    def coact_fn(label):
        n, i = label[2]
        m = s * n
        psi = monomial(1, m - s)
        return Vec({pair(monomial(0, m), label): 1,
                    **_column(X.diffs.get(n), i, lambda j: pair(psi, atom(X.name, n - 1, j)))})

    coaction = LinMap(carrier, tensor_space(ring.carrier, carrier), coact_fn, name="beta")
    return Comodule(ring, carrier, coaction, check_window=0)


def comodule_to_chain(B):
    """Recover the chain complex from a comodule over a Pareigis ring.

    The carrier basis must be homogeneous for the xi-grading (each basis
    vector's grading term is exactly xi^m (x) itself); the differential
    is read off the terms psi xi^(m-s) (x) x with x one degree down.
    The coaction of the complex read off is its grading term plus the
    entries read, so a basis vector with any other term is refused,
    naming the first such vector, once the complex is built.  That
    coaction is legal without a check of its own: the complex's
    constructor has checked d.d = 0 exactly, and over the Pareigis ring
    that is coassociativity, while the counit law holds by its form.
    The complex is named after B's carrier.
    """
    s = B.ring.s
    P = B.ring.carrier
    basis = B.carrier.enumerate(0)

    terms, degree = {}, {}
    for b in basis:
        terms[b] = [(split_label(P, B.carrier, t), c) for t, c in B.coaction.apply(b).items()]
        grading = [(r[2][1], x, c) for (r, x), c in terms[b]
                   if _is_monomial(r) and r[2][0] == 0]
        if len(grading) != 1 or grading[0][1:] != (b, 1):
            raise IllegalComodule("basis vector %s is not homogeneous" % (b,))
        degree[b] = s * grading[0][0]

    by_degree = {}
    for b in basis:
        by_degree.setdefault(degree[b], []).append(b)
    position = {b: i for bs in by_degree.values() for i, b in enumerate(bs)}
    ranks = {n: len(bs) for n, bs in by_degree.items()}
    diffs, skipped = {}, []
    for b in basis:
        n = degree[b]
        psi = monomial(1, s * n - s)
        read = 1   # the grading term
        for (r, x), c in terms[b]:
            if r == psi and degree.get(x) == n - 1:
                _block_at(diffs, n, (ranks[n - 1], ranks[n]))[position[x], position[b]] += c
                read += 1
        if read != len(terms[b]):
            skipped.append(b)
    try:
        X = ChainComplex(ranks, diffs, name=B.carrier.name)
    except IllegalChain as err:
        raise IllegalComodule(str(err))
    if skipped:
        raise IllegalComodule("round trip does not reproduce the coaction of %s"
                              % (skipped[0],))
    return X


def chain_map_to_linmap(f, src_comodule, tgt_comodule):
    "Transport a chain map to a map of the underlying based spaces."
    def fn(label):
        n, i = label[2]
        return Vec(_column(f.blocks.get(n), i, lambda j: atom(f.tgt.name, n, j)))

    return LinMap(src_comodule.carrier, tgt_comodule.carrier, fn,
                  name="chainmap")


def linmap_to_chain_map(g, X, Y):
    """Read a based-space map back into degree-wise matrices; an image
    label outside Y's basis in its source's degree is IllegalChain."""
    blocks = {}
    for n in X.degrees():
        b = zeros(Y.rank(n), X.rank(n))
        rows = {atom(Y.name, n, j): j for j in range(Y.rank(n))}
        for i in range(X.rank(n)):
            for lbl, c in g.apply(atom(X.name, n, i)).items():
                if lbl not in rows:
                    raise IllegalChain("image label %s is not in the degree-%d basis of %s"
                                       % (show_label(lbl), n, Y.name))
                b[rows[lbl], i] = c
        blocks[n] = b
    return ChainMap(X, Y, blocks)


def chain_to_wcomodule(X, s, hb):
    """View a complex as a comodule over ``hb``, an I + D of sign s, inside
    the graded category.

    The grading coaction sends a degree-n vector to x^(s.n) (x) itself;
    the H-coaction records the differential on the Left(d) leg.  Feeding
    the result to the comparison functor recovers ``chain_to_comodule``
    up to the semidirect label bijection.  It is verified on window 0.
    """
    A = hb.ring
    H = hb.hopf
    dlabel = atom("d", s, 0)
    carrier = X.space()

    def alpha_fn(label):
        n, _ = label[2]
        return Vec.basis(pair(atom("x", s * n), label))

    def chi_fn(label):
        n, i = label[2]
        return Vec({pair(right(UNIT), label): 1,
                    **_column(X.diffs.get(n), i,
                              lambda j: pair(left(dlabel), atom(X.name, n - 1, j)))})

    alpha = LinMap(carrier, tensor_space(A.carrier, carrier), alpha_fn, name="alpha")
    chi = LinMap(carrier, tensor_space(H.carrier, carrier), chi_fn, name="chi")
    return WComodule(hb, carrier, alpha, chi, window=0)


def comodule_to_json(B):
    """Serialize a finite comodule: ring name, basis, coaction terms.

    Coaction values are triples [coeff, ring label, carrier label]; keys
    are the JSON encodings of the basis labels.
    """
    ring_name = "pareigis" if B.ring.s == -1 else "pareigis-plus"
    P = B.ring.carrier
    basis = B.carrier.enumerate(0)
    coaction = {}
    for b in basis:
        terms = []
        items = sorted(B.coaction.apply(b).items(),
                       key=lambda kv: label_key(kv[0]))
        for t, c in items:
            r, x = split_label(P, B.carrier, t)
            terms.append([c, label_to_json(r), label_to_json(x)])
        coaction[json.dumps(label_to_json(b))] = terms
    return {"ring": ring_name,
            "basis": [label_to_json(b) for b in basis],
            "coaction": coaction}


def comodule_from_json(doc):
    """Inverse of comodule_to_json; every coefficient must be a JSON integer.

    A document of another shape, or two coaction keys that encode one
    label, raises a ``ValueError`` naming the key, the label or the
    expected shape; a coaction that breaks a comodule law raises
    ``IllegalComodule``.
    """
    if not isinstance(doc, dict):
        raise ValueError('a comodule is a JSON object with "ring", "basis" and "coaction", '
                         'not %s' % _json_type(doc))
    for key, kind in (("ring", str), ("basis", list), ("coaction", dict)):
        if key not in doc:
            raise ValueError('the comodule has no "%s" key' % key)
        if not isinstance(doc[key], kind):
            raise ValueError('"%s" is %s, not %s'
                             % (key, _json_type(kind()), _json_type(doc[key])))
    try:
        ring = ring_by_name(doc["ring"])
    except KeyError:
        raise ValueError("unknown ring %r (try pareigis, pareigis-plus)" % doc["ring"]) from None
    basis = [label_from_json(b) for b in doc["basis"]]
    if len(set(basis)) != len(basis):
        raise ValueError("the basis lists a label twice")
    members = set(basis)
    table = {}
    for key, terms in doc["coaction"].items():
        try:
            b = label_from_json(json.loads(key))
        except ValueError:
            raise ValueError("the coaction key %r does not encode a label" % key) from None
        if b not in members:
            raise ValueError("the coaction key %s is not a basis label" % key)
        if b in table:
            raise ValueError("the coaction key %s names a label that another key names" % key)
        if not isinstance(terms, list):
            raise ValueError("the coaction under basis key %s is a list, not %s"
                             % (key, _json_type(terms)))
        out = {}
        for term in terms:
            if not (isinstance(term, list) and len(term) == 3):
                raise ValueError("a term under basis key %s is a [coefficient, ring label, "
                                 "basis label] triple, not %r" % (key, term))
            c, rdata, xdata = term
            if not _is_int(c):
                raise ValueError("coefficient %r under basis key %s is not an integer"
                                 % (c, key))
            r, x = label_from_json(rdata), label_from_json(xdata)
            if not _is_monomial(r):
                raise ValueError("ring label %s under basis key %s is not psi^a xi^k"
                                 % (json.dumps(rdata), key))
            if x not in members:
                raise ValueError("label %s under basis key %s is not a basis label"
                                 % (json.dumps(xdata), key))
            out[pair(r, x)] = out.get(pair(r, x), 0) + c
        table[b] = Vec(out)
    for b, data in zip(basis, doc["basis"]):
        if b not in table:
            raise ValueError("basis label %s has no coaction entry" % json.dumps(data))
    carrier = finite_space("comodule", basis)
    coaction = LinMap(carrier, tensor_space(ring.carrier, carrier),
                      lambda l: table[l], name="beta")
    return Comodule(ring, carrier, coaction, check_window=0)
