"""Semidirect product of a bimonoid in comodules with its grading ring.

Given a bimonoid A with braiding coelement gamma and a bimonoid H living
inside the A-comodule category, the semidirect product lives on H (x) A:
the multiplication braids A past H using gamma of the coaction, and the
comultiplication pushes the second H-leg across A with the distributive
law tau_H.  Writing h_(-1) (x) h_(0) for the coaction and Sweedler
subscripts for coproducts:

    (h (x) a) . (h' (x) a') = gamma(a_1, h'_(-1)) h.h'_(0) (x) a_2.a'
    delta(h (x) a) = (h_1 (x) (h_2)_(-1).a_1) (x) ((h_2)_(0) (x) a_2)

Both are law-checked on a validation window as part of construction; the
checks are the executable content of the underlying proposition, not an
optional extra.  Each ComoduleBimonoid builds its product once, and the
suite runs again only for a window larger than any on which it passed.
The comparison functors translate between comodules over H inside
A-comodules and comodules over the product ring.
"""

from __future__ import annotations

from .laws import (
    VALIDATION_WINDOW, Bimonoid, Comodule, LawViolation, Report, Verified,
    check_bialgebra_laws, check_comodule_morphism, coelement_braiding,
    comodule_braiding, plain_swap, same_ring, tensor_comodule, unit_comodule,
    verify,
)
from .linalg import (
    UNIT, UNIT_SPACE, LinMap, SpaceMismatch, Vec, _same_space, equal_on_window,
    identity_map, memoised, pair, split_label, tensor_maps, tensor_space,
)


class ComoduleBimonoid(Verified):
    """A bimonoid whose carrier is a comodule over (A, gamma).

    Construction verifies on ``window`` (None: not at all) that all four
    structure maps are A-comodule morphisms and that the bialgebra laws
    hold for the coelement-induced braiding.  The semidirect product is
    built at most once per object and verified at most once per window
    (``product``).
    """

    def __init__(self, hopf, comodule, coelement, window=VALIDATION_WINDOW):
        if not _same_space(hopf.carrier, comodule.carrier):
            raise SpaceMismatch("bimonoid and comodule must share a carrier")
        if not same_ring(comodule.ring, coelement.ring):
            raise SpaceMismatch("coelement is for a different ring")
        self.hopf = hopf
        self.comodule = comodule
        self.coelement = coelement
        self.ring = comodule.ring
        self._product = None
        verify(self, window)

    def suite(self, K):
        "The morphism report, then (if it passes) the braided bialgebra suite."
        report = self.morphism_report(K)
        if report.ok:
            report += check_bialgebra_laws(self.hopf, self.braiding(), K)
        return report

    def braiding(self):
        return coelement_braiding(self.coelement, [self.comodule])

    def morphism_report(self, K):
        "Are mu, eta, delta, epsilon morphisms of A-comodules?"
        H, com = self.hopf, self.comodule
        hh = tensor_comodule(com, com)
        one = unit_comodule(self.ring)
        return Report([
            check_comodule_morphism(H.mu, hh, com, K),
            check_comodule_morphism(H.eta, one, com, K),
            check_comodule_morphism(H.delta, com, hh, K),
            check_comodule_morphism(H.epsilon, com, one, K),
        ])

    def product(self, window=VALIDATION_WINDOW):
        "The memoised H >< A, verified on ``window`` (``semidirect_product``)."
        return semidirect_product(self, window)


class SemidirectRing(Bimonoid, Verified):
    "The product bimonoid on H (x) A, remembering where it came from."

    def __init__(self, carrier, mu, eta, delta, epsilon, antipode, source):
        super().__init__(carrier, mu, eta, delta, epsilon, antipode)
        self.source = source

    def suite(self, K):
        "The bimonoid suite under the plain swap, antipode identities included."
        return check_bialgebra_laws(self, plain_swap(), K)


def semidirect_product(HB, window=VALIDATION_WINDOW):
    """H >< A, built once per ``HB`` and verified on ``window``.

    Every call for the same ``HB`` returns the same ``SemidirectRing``.
    The full bimonoid suite under the plain swap must hold on ``window``
    (None builds without verifying); the antipode is attached when both
    H and A carry one, and both antipode identities are part of that
    suite.  See ``laws.verify`` for when the suite actually runs.
    """
    ring = HB._product
    if ring is None:
        ring = HB._product = _build_product(HB)
    verify(ring, window)
    return ring


def _build_product(HB):
    "The structure maps of H >< A, unverified."
    H, A = HB.hopf, HB.ring
    gamma = HB.coelement.gamma
    coact = HB.comodule.coaction
    Hs, As = H.carrier, A.carrier
    Q = tensor_space(Hs, As)
    QQ = tensor_space(Q, Q)

    def split_q(label):
        return split_label(Hs, As, label)

    def mu_fn(label):
        lq, lq2 = split_label(Q, Q, label)
        h, a = split_q(lq)
        hp, ap = split_q(lq2)
        out = Vec.zero()
        for a_pair, c1 in A.delta.apply(a).items():
            a_1, a_2 = split_label(As, As, a_pair)
            for m_h0, c2 in coact.apply(hp).items():
                hm, h0 = split_label(As, Hs, m_h0)
                sign = gamma(a_1, hm)
                if not sign:
                    continue
                hh = H.mu.apply(pair(h, h0))
                aa = A.mu.apply(pair(a_2, ap))
                out = out + (c1 * c2 * sign) * hh.tensor(aa)
        return out

    def delta_fn(label):
        h, a = split_q(label)
        out = Vec.zero()
        for h_pair, c1 in H.delta.apply(h).items():
            h_1, h_2 = split_label(Hs, Hs, h_pair)
            for a_pair, c2 in A.delta.apply(a).items():
                a_1, a_2 = split_label(As, As, a_pair)
                for m_h0, c3 in coact.apply(h_2).items():
                    hm, h0 = split_label(As, Hs, m_h0)
                    first = Vec.basis(h_1).tensor(A.mu.apply(pair(hm, a_1)))
                    second = Vec.basis(pair(h0, a_2))
                    out = out + (c1 * c2 * c3) * first.tensor(second)
        return out

    mu = LinMap(QQ, Q, mu_fn, name="mu")
    eta = LinMap(UNIT_SPACE, Q, lambda l: H.eta.apply(UNIT).tensor(A.eta.apply(UNIT)),
                 name="eta")
    delta = LinMap(Q, QQ, delta_fn, name="delta")
    epsilon = LinMap(Q, UNIT_SPACE,
                     lambda l: H.epsilon(Vec.basis(split_q(l)[0]))
                     .tensor(A.epsilon(Vec.basis(split_q(l)[1]))),
                     name="epsilon")

    antipode = None
    if H.antipode is not None and A.antipode is not None:
        antipode = _antipode_map(HB, mu, Q)

    return SemidirectRing(Q, mu, eta, delta, epsilon, antipode, HB)


def _antipode_map(HB, mu, Q):
    """The biproduct antipode, multiplied out with the product's own ``mu``.

        S(h (x) a) = (1 (x) S_A(h_(-1) a)) . (S_H(h_(0)) (x) 1)

    (Radford, J. Algebra 1985; Majid, J. Algebra 1994).
    """
    H, A = HB.hopf, HB.ring
    coact = HB.comodule.coaction
    Hs, As = H.carrier, A.carrier
    one_h, one_a = H.eta.apply(UNIT), A.eta.apply(UNIT)

    def fn(label):
        h, a = split_label(Hs, As, label)
        out = Vec.zero()
        for m_h0, c in coact.apply(h).items():
            hm, h0 = split_label(As, Hs, m_h0)
            left = one_h.tensor(A.antipode(A.mu.apply(pair(hm, a))))
            right = H.antipode.apply(h0).tensor(one_a)
            out = out + c * mu(left.tensor(right))
        return out

    return LinMap(Q, Q, fn, name="antipode")


def semidirect_antipode(HB, window=VALIDATION_WINDOW):
    """The antipode of the memoised H >< A.

    The product's suite must hold on ``window`` (None: unverified); that
    suite contains both antipode identities, on the same maps under the
    same plain swap, so no separate check runs here.
    """
    if HB.hopf.antipode is None or HB.ring.antipode is None:
        raise ValueError("both H and A must carry antipodes")
    return semidirect_product(HB, window).antipode


# ---------------------------------------------------------------------------
# comodules over H inside the comodule category, and the comparison functors


class WComodule(Verified):
    """A carrier with compatible A- and H-coactions (alpha and chi).

    This is a comodule over H taken inside the category of A-comodules:
    alpha must be a legal A-coaction, chi a legal H-coaction, and chi an
    A-comodule morphism into H (x) B with its tensor coaction.  All three
    are verified on ``window``; None builds without verifying.
    """

    def __init__(self, hb, carrier, alpha, chi, window=VALIDATION_WINDOW):
        self.hb = hb
        self.carrier = carrier
        self.alpha = memoised(alpha)
        self.chi = memoised(chi)
        self.as_comodule = Comodule(hb.ring, carrier, self.alpha, check_window=None)
        verify(self, window)

    def suite(self, K):
        "Legality of alpha (IllegalComodule), then of chi (``legality``)."
        verify(self.as_comodule, K)
        return self.legality(K)

    def legality(self, K):
        H = self.hb.hopf
        idb = identity_map(self.carrier)
        report = Report()
        report.append(equal_on_window(
            self.chi >> tensor_maps(H.epsilon, idb), idb, K, law="chi-counit"))
        report.append(equal_on_window(
            self.chi >> tensor_maps(H.delta, idb),
            self.chi >> tensor_maps(identity_map(H.carrier), self.chi),
            K, law="chi-coassociativity"))
        hb_comod = tensor_comodule(self.hb.comodule, self.as_comodule)
        report.append(check_comodule_morphism(
            self.chi, self.as_comodule, hb_comod, K))
        return report

    def __repr__(self):
        return "WComodule(%s)" % self.carrier.name


def tensor_wcomodule(B, C, window=None):
    "Tensor in the braided category: multiply H-legs across the braiding."
    if B.hb is not C.hb:
        raise SpaceMismatch("tensor of comodules over different data")
    hb = B.hb
    H = hb.hopf
    alpha = tensor_comodule(B.as_comodule, C.as_comodule).coaction
    sigma = comodule_braiding(B.as_comodule, hb.comodule, hb.coelement)
    idh = identity_map(H.carrier)
    idb = identity_map(B.carrier)
    idc = identity_map(C.carrier)
    chi = (tensor_maps(B.chi, C.chi)
           >> tensor_maps(tensor_maps(idh, sigma), idc)
           >> tensor_maps(tensor_maps(H.mu, idb), idc))
    carrier = tensor_space(B.carrier, C.carrier)
    return WComodule(hb, carrier, alpha, chi, window=window)


def comparison_f(B, window=VALIDATION_WINDOW):
    """F: comodules over H in A-comodules -> comodules over H >< A.

    The coaction is (1_H (x) alpha) . chi; the underlying map of a
    morphism is untouched.  The result is checked legal over the product.
    """
    ring = B.hb.product()
    idh = identity_map(B.hb.hopf.carrier)
    coaction = B.chi >> tensor_maps(idh, B.alpha)
    return Comodule(ring, B.carrier, coaction, check_window=window)


def comparison_f_inverse(X, window=VALIDATION_WINDOW):
    """F^{-1}: recover (alpha, chi) by killing the other leg's counit."""
    ring = X.ring
    if not isinstance(ring, SemidirectRing):
        raise SpaceMismatch("expected a comodule over a semidirect ring")
    hb = ring.source
    H, A = hb.hopf, hb.ring
    idb = identity_map(X.carrier)
    ida = identity_map(A.carrier)
    idh = identity_map(H.carrier)
    alpha = X.coaction >> tensor_maps(tensor_maps(H.epsilon, ida), idb)
    chi = X.coaction >> tensor_maps(tensor_maps(idh, A.epsilon), idb)
    return WComodule(hb, X.carrier, alpha, chi, window=window)
