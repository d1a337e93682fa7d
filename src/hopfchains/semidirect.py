"""Semidirect product of a bimonoid in comodules with its grading ring.

Given a bimonoid A with braiding coelement gamma and a bimonoid H living
inside the A-comodule category, the semidirect product lives on H (x) A:
the multiplication braids A past H using gamma of the coaction, and the
comultiplication pushes the second H-leg across A with the distributive
law tau_H.  Writing h_(-1) (x) h_(0) for the coaction and Sweedler
subscripts for coproducts:

    (h (x) a) . (h' (x) a') = gamma(a_1, h'_(-1)) h.h'_(0) (x) a_2.a'
    delta(h (x) a) = (h_1 (x) (h_2)_(-1).a_1) (x) ((h_2)_(0) (x) a_2)

Each structure map of the product is its formula drawn as a string
diagram: the factors' structure maps, the coaction, gamma, tau and
wires, composed and tensored, so the construction needs no more than a
symmetric monoidal additive category offers.  All are law-checked on a
validation window as part of construction; the checks are the
executable content of the underlying proposition, not an optional
extra.  ``semidirect_product`` builds the product once per
ComoduleBimonoid, and the suite runs again only for a window larger
than any on which it passed.
The comparison functors translate between comodules over H inside
A-comodules and comodules over the product ring.
"""

from __future__ import annotations

from .laws import (
    VALIDATION_WINDOW, Bimonoid, Comodule, Report, Verified,
    check_bialgebra_laws, check_comodule_morphism, comodule_braiding,
    distributive_law_tau, plain_swap, tensor_comodule, unit_comodule, verify,
)
from .linalg import (
    SpaceMismatch, identity_map, memoised, perm_map, tensor_maps, tensor_space,
)


class ComoduleBimonoid(Verified):
    """A bimonoid whose carrier is a comodule over (A, gamma).

    Construction verifies on ``window`` (None: not at all) that all four
    structure maps are A-comodule morphisms and that the bialgebra laws
    hold for the coelement-induced braiding.  ``semidirect_product``
    builds its semidirect product.
    """

    def __init__(self, hopf, comodule, coelement, window=VALIDATION_WINDOW):
        if hopf.carrier is not comodule.carrier:
            raise SpaceMismatch("bimonoid and comodule must share a carrier")
        if comodule.ring.carrier is not coelement.ring.carrier:
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
        """The braiding ``(X, Y) -> map`` of the carrier with itself, from the
        coelement; any other pair of spaces is a SpaceMismatch."""
        com = self.comodule

        def braid(X, Y):
            if not (X is Y is com.carrier):
                raise SpaceMismatch("no braiding of %s with %s" % (X.name, Y.name))
            return comodule_braiding(com, com, self.coelement)

        return braid

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
    (None builds without verifying); both antipode identities are part
    of that suite.  See ``laws.verify`` for when the suite actually runs.
    """
    ring = HB._product
    if ring is None:
        ring = HB._product = _build_product(HB)
    verify(ring, window)
    return ring


def _build_product(HB):
    """The structure maps of H >< A, unverified.

    Each is the module docstring's formula as a memoised composite of
    the factors' structure maps, the coaction, gamma, tau and wires.
    The antipode is the biproduct formula

        S(h (x) a) = (1 (x) S_A(h_(-1) a)) . (S_H(h_(0)) (x) 1)

    multiplied out with the product's own ``mu`` (Radford, J. Algebra
    1985; Majid, J. Algebra 1994).
    """
    H, A = HB.hopf, HB.ring
    Hs, As = H.carrier, A.carrier
    coact = HB.comodule.coaction
    idh, ida = identity_map(Hs), identity_map(As)
    # h, a  ->  h_(-1).a, h_(0)
    tau = distributive_law_tau(HB.comodule)

    # h, a_1, a_2, h'_(-1), h'_(0), a'  ->  a_1, h'_(-1), h, h'_(0), a_2, a'
    mu = _kept("mu", idh @ A.delta @ coact @ ida
               >> perm_map([Hs, As, As, As, Hs, As], (1, 3, 0, 4, 2, 5))
               >> HB.coelement.as_map() @ H.mu @ A.mu)
    eta = _kept("eta", H.eta @ A.eta)
    delta = _kept("delta", H.delta @ A.delta >> idh @ tau @ ida)
    epsilon = _kept("epsilon", H.epsilon @ A.epsilon)

    antipode = _kept("antipode", tau >> H.eta @ A.antipode @ H.antipode @ A.eta >> mu)

    return SemidirectRing(tensor_space(Hs, As), mu, eta, delta, epsilon, antipode, HB)


def _kept(name, f):
    "The composite ``f`` memoised as the structure map ``name``."
    m = memoised(f)
    m.name = name
    return m


def semidirect_antipode(HB, window=VALIDATION_WINDOW):
    """The antipode of the memoised H >< A.

    The product's suite must hold on ``window`` (None: unverified); that
    suite contains both antipode identities, on the same maps under the
    same plain swap, so no separate check runs here.
    """
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
        "chi's comodule laws over H, then chi as an A-comodule morphism."
        report = Comodule(self.hb.hopf, self.carrier, self.chi, check_window=None).legality(K)
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
    ring = semidirect_product(B.hb)
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
