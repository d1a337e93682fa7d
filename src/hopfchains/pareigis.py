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

from .chains import ChainComplex, IllegalChain, _block_at, _column
from .diffhopf import two_term_ring
from .laws import Bimonoid, Comodule, IllegalComodule, check_hopf_morphism
from .linalg import (
    UNIT, UNIT_SPACE, LinMap, Space, Vec, atom, equal_on_window, identity_map, left,
    monomial_map, pair, right, split_label, tensor_space,
)
from .semidirect import WComodule, semidirect_product

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

    The rewriting oracle in ``tests/test_pareigis.py`` rewrites words
    independently of them.
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
        # psi^a xi^k . psi^b xi^l: psi^b moves past xi^k with sign (-1)^(b.k);
        # a label of P (x) P is ("t", psi^a xi^k, psi^b xi^l)
        (a, k), (b, l) = label[1][2], label[2][2]
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
