"""The Pareigis Hopf ring, its twin, and the chain-complex equivalence.

The ring is presented by invertible xi and odd psi with xi.psi = -psi.xi
and psi^2 = 0; normal forms are psi^a xi^k with a in {0, 1}.  The sign
``s`` picks the coproduct of psi (xi^s (x) psi tail) and with it the
direction the differential travels: comodules over the ring are exactly
bounded chain complexes, with coaction

    b in degree n  |->  xi^m (x) b + psi xi^(m-s) (x) db,   m = s.n.

``identify_semidirect`` rebuilds the ring as the semidirect product of
the two-term differential Hopf ring with the Laurent grading ring and
checks all five structure maps agree label-for-label.
"""

from __future__ import annotations

import functools

from .chains import ChainComplex, ChainMap, IllegalChain, is_zero, zeros
from .diffhopf import build_differential_hopf
from .grading import Bicharacter, GradedModule, graded_to_comodule, sign_coelement
from .laws import Bimonoid, Comodule, IllegalComodule, Report
from .linalg import (
    UNIT, UNIT_SPACE, LinMap, Space, Vec, atom, equal_on_window,
    identity_map, left, pair, right, split_label, tensor_maps, tensor_space,
)

XI = "xi"
XI_INV = "xi'"
PSI = "psi"
ALPHABET = (XI, XI_INV, PSI)

_FAMILY = "pareigis"


def monomial(a, k):
    "Normal-form label psi^a xi^k."
    return atom(_FAMILY, a, k)


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


def pareigis_space(s):
    name = "P" if s == -1 else "P+"

    def contains(label):
        return (label != UNIT and label[0] == "a" and label[1] == _FAMILY
                and label[2][0] in (0, 1))

    def window(K):
        return [monomial(a, k) for a in (0, 1) for k in range(-K, K + 1)]

    return Space(name, 1, contains, window=window)


def pareigis_ring(s=-1):
    """The Hopf ring on normal forms psi^a xi^k.

    s = -1 gives the classical presentation (coproduct tail xi^{-1} (x)
    psi, antipode s(psi) = psi.xi); s = +1 exchanges xi and xi^{-1}.
    """
    if s not in (-1, 1):
        raise ValueError("s must be +-1")
    P = pareigis_space(s)
    PP = tensor_space(P, P)
    one = monomial(0, 0)

    def mu_fn(label):
        l1, l2 = split_label(P, P, label)
        return normalize_word(word_of(l1) + word_of(l2))

    def pp_mul(v1, v2):
        "Multiplication of P (x) P, factor-wise with no signs."
        out = Vec.zero()
        for t1, c1 in v1.items():
            a1, b1 = split_label(P, P, t1)
            for t2, c2 in v2.items():
                a2, b2 = split_label(P, P, t2)
                prod = normalize_word(word_of(a1) + word_of(a2)).tensor(
                    normalize_word(word_of(b1) + word_of(b2)))
                out = out + (c1 * c2) * prod
        return out

    gen_delta = {
        XI: Vec.basis(pair(monomial(0, 1), monomial(0, 1))),
        XI_INV: Vec.basis(pair(monomial(0, -1), monomial(0, -1))),
        PSI: (Vec.basis(pair(monomial(1, 0), one))
              + Vec.basis(pair(monomial(0, s), monomial(1, 0)))),
    }

    def delta_fn(label):
        out = Vec.basis(pair(one, one))
        for token in word_of(label):
            out = pp_mul(out, gen_delta[token])
        return out

    gen_antipode = {
        XI: monomial(0, -1),
        XI_INV: monomial(0, 1),
        PSI: monomial(1, -s),
    }

    def antipode_fn(label):
        out = Vec.basis(one)
        for token in reversed(word_of(label)):
            piece = Vec.zero()
            for m, c in out.items():
                piece = piece + c * normalize_word(
                    word_of(m) + word_of(gen_antipode[token]))
            out = piece
        return out

    def epsilon_fn(label):
        return Vec.basis(UNIT) if label[2][0] == 0 else Vec.zero()

    ring = Bimonoid(
        P,
        LinMap(PP, P, mu_fn, name="mu"),
        LinMap(UNIT_SPACE, P, lambda l: Vec.basis(one), name="eta"),
        LinMap(P, PP, delta_fn, name="delta"),
        LinMap(P, UNIT_SPACE, epsilon_fn, name="epsilon"),
        LinMap(P, P, antipode_fn, name="antipode"),
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
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    dmod = GradedModule.of({s: 1}, rank=1, name="d")
    return build_differential_hopf(graded_to_comodule(dmod, gamma.ring), gamma)


@functools.lru_cache(maxsize=None)
def _identified_bimonoid(s):
    """The I + D that every identification of sign s shares.

    Building it checks comodule legality, the H suite and the product
    suite; the maps are pure, so one build per sign serves every call.
    """
    return differential_comodule_bimonoid(s)


def identify_semidirect(s, K=6):
    """Compare (I + D) >< Z with the Pareigis ring of the same sign.

    Transport along the label bijection d^a (x) x^k <-> psi^a xi^k and
    test all five structure maps for window-exact equality; the report
    carries one verdict per map.  The I + D is built once per sign.
    """
    hb = _identified_bimonoid(s)
    sd = hb.product()
    ring = pareigis_ring(s)
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

    tt = tensor_maps(theta, theta)
    report = Report()
    report.append(equal_on_window(sd.mu >> theta, tt >> ring.mu, K, law="mu"))
    report.append(equal_on_window(sd.eta >> theta, ring.eta, K, law="eta"))
    report.append(equal_on_window(sd.delta >> tt, theta >> ring.delta, K, law="delta"))
    report.append(equal_on_window(sd.epsilon, theta >> ring.epsilon, K, law="epsilon"))
    report.append(equal_on_window(sd.antipode >> theta, theta >> ring.antipode,
                                  K, law="antipode"))

    report.append(equal_on_window(theta >> theta_inv, identity_map(Q),
                                  K, law="label-bijection"))
    return report


# ---------------------------------------------------------------------------
# chains as comodules


def chain_to_comodule(X, s, ring=None):
    """View a bounded complex as a comodule over the Pareigis ring.

    The ring grading of a degree-n basis vector is m = s.n, so that the
    differential always lowers m by s; coassociativity of the coaction
    is exactly d.d = 0.
    """
    ring = ring or pareigis_ring(s)
    for n in list(X.diffs):
        if not is_zero(X.d(n - 1).dot(X.d(n))):
            raise IllegalChain("d.d != 0 at degree %d" % n)
    carrier = X.space()

    def coact_fn(label):
        n, i = label[2]
        m = s * n
        out = Vec.basis(pair(monomial(0, m), label))
        d = X.d(n)
        for j in range(X.rank(n - 1)):
            if d[j, i]:
                out = out + d[j, i] * Vec.basis(
                    pair(monomial(1, m - s), atom(X.name, n - 1, j)))
        return out

    coaction = LinMap(carrier, tensor_space(ring.carrier, carrier), coact_fn,
                      name="beta")
    return Comodule(ring, carrier, coaction, check_window=0)


def comodule_to_chain(B, name=None):
    """Recover the chain complex from a comodule over a Pareigis ring.

    The carrier basis must be homogeneous for the xi-grading (each basis
    vector's grading term is exactly xi^m (x) itself); the differential
    is read off the psi xi^(m-s) components.  The rebuilt coaction is
    compared against the original, label for label.
    """
    ring = B.ring
    s = ring.s
    P = ring.carrier
    name = name or B.carrier.name
    basis = B.carrier.enumerate(0)

    grade = {}
    dvec = {}
    for b in basis:
        grading_terms = []
        diff_terms = []
        for t, c in B.coaction.apply(b).items():
            r, x = split_label(P, B.carrier, t)
            a, k = r[2]
            (grading_terms if a == 0 else diff_terms).append((k, x, c))
        if len(grading_terms) != 1 or grading_terms[0][1:] != (b, 1):
            raise IllegalComodule("basis vector %s is not homogeneous" % (b,))
        m = grading_terms[0][0]
        grade[b] = m
        for k, x, c in diff_terms:
            if k != m - s:
                raise IllegalComodule(
                    "differential term of %s has grade %d, expected %d"
                    % (b, k, m - s))
        dvec[b] = diff_terms

    by_degree = {}
    for b in basis:
        by_degree.setdefault(s * grade[b], []).append(b)
    position = {b: i for bs in by_degree.values() for i, b in enumerate(bs)}
    degree = {b: n for n, bs in by_degree.items() for b in bs}

    ranks = {n: len(bs) for n, bs in by_degree.items()}
    diffs = {}
    for n, bs in by_degree.items():
        if not by_degree.get(n - 1):
            continue
        d = zeros(len(by_degree[n - 1]), len(bs))
        for i, b in enumerate(bs):
            for _, x, c in dvec[b]:
                if degree.get(x) != n - 1:
                    raise IllegalComodule(
                        "differential of %s lands outside degree %d" % (b, n - 1))
                d[position[x], i] += c
        diffs[n] = d
    for n, bs in by_degree.items():
        if not by_degree.get(n - 1):
            for b in bs:
                if dvec[b]:
                    raise IllegalComodule("differential of %s has no target" % (b,))

    try:
        X = ChainComplex(ranks, diffs, name=name)
    except IllegalChain as err:
        raise IllegalComodule(str(err))

    relabel = {b: atom(name, degree[b], position[b]) for b in basis}
    rebuilt = chain_to_comodule(X, s, ring=ring)
    for b in basis:
        want = Vec.zero()
        for rx, c in B.coaction.apply(b).items():
            r, x = split_label(P, B.carrier, rx)
            want = want + c * Vec.basis(pair(r, relabel.get(x, x)))
        if rebuilt.coaction.apply(relabel[b]) != want:
            raise IllegalComodule("round trip does not reproduce the coaction")
    return X


def chain_map_to_linmap(f, s, src_comodule, tgt_comodule):
    "Transport a chain map to a map of the underlying based spaces."
    def fn(label):
        n, i = label[2]
        out = Vec.zero()
        block = f.block(n)
        for j in range(f.tgt.rank(n)):
            if block[j, i]:
                out = out + block[j, i] * Vec.basis(atom(f.tgt.name, n, j))
        return out

    return LinMap(src_comodule.carrier, tgt_comodule.carrier, fn,
                  name="chainmap")


def linmap_to_chain_map(g, X, Y):
    "Read a based-space map back into degree-wise matrices."
    blocks = {}
    for n in X.degrees():
        b = zeros(Y.rank(n), X.rank(n))
        for i in range(X.rank(n)):
            for lbl, c in g.apply(atom(X.name, n, i)).items():
                n2, j = lbl[2]
                if n2 != n:
                    raise IllegalChain("transport is not degree-preserving")
                b[j, i] = c
        blocks[n] = b
    return ChainMap(X, Y, blocks)


def chain_to_wcomodule(X, s, hb=None):
    """View a complex as a comodule over I + D inside the graded category.

    The grading coaction sends a degree-n vector to x^(s.n) (x) itself;
    the H-coaction records the differential on the Left(d) leg.  Feeding
    the result to the comparison functor recovers ``chain_to_comodule``
    up to the semidirect label bijection.  It is verified on window 0.
    """
    from .semidirect import WComodule

    hb = hb or differential_comodule_bimonoid(s)
    A = hb.ring
    H = hb.hopf
    dlabel = atom("d", s, 0)
    carrier = X.space()

    def alpha_fn(label):
        n, _ = label[2]
        return Vec.basis(pair(atom("x", s * n), label))

    def chi_fn(label):
        n, i = label[2]
        out = Vec.basis(pair(right(UNIT), label))
        d = X.d(n)
        for j in range(X.rank(n - 1)):
            if d[j, i]:
                out = out + d[j, i] * Vec.basis(
                    pair(left(dlabel), atom(X.name, n - 1, j)))
        return out

    alpha = LinMap(carrier, tensor_space(A.carrier, carrier), alpha_fn, name="alpha")
    chi = LinMap(carrier, tensor_space(H.carrier, carrier), chi_fn, name="chi")
    return WComodule(hb, carrier, alpha, chi, window=0)


def comodule_to_json(B):
    """Serialize a finite comodule: ring name, basis, coaction terms.

    Coaction values are triples [coeff, ring label, carrier label]; keys
    are the JSON encodings of the basis labels.
    """
    import json

    from .linalg import label_key, label_to_json

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
    "Inverse of comodule_to_json; every coefficient must be a JSON integer."
    import json

    from .linalg import finite_space, label_from_json

    ring = ring_by_name(doc["ring"])
    basis = [label_from_json(b) for b in doc["basis"]]
    carrier = finite_space("comodule", basis)
    table = {}
    for key, terms in doc["coaction"].items():
        b = label_from_json(json.loads(key))
        out = Vec.zero()
        for c, r, x in terms:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError("coefficient %r under basis key %s is not an integer"
                                 % (c, key))
            out = out + c * Vec.basis(pair(label_from_json(r), label_from_json(x)))
        table[b] = out
    coaction = LinMap(carrier, tensor_space(ring.carrier, carrier),
                      lambda l: table[l], name="beta")
    return Comodule(ring, carrier, coaction, check_window=0)
