"""Law checkers for bimonoids, Hopf structures, comodules and coelements.

All checks are window-exact and parameterised by an explicit braiding.
The bimonoid interchange law for objects living in a comodule category
must be checked against the coelement-induced braiding; plain abelian
groups use the unsigned swap.  Conflating the two is the main hazard,
so the braiding is never implicit.
"""

from __future__ import annotations

from .linalg import (
    UNIT, UNIT_SPACE, LinMap, SpaceMismatch, Vec,
    compose_maps, equal_on_window, identity_map, memoised, pair, perm_map,
    split_label, swap_map, tensor_maps, tensor_space,
)

# the window every verify-on-construction check uses unless told otherwise
VALIDATION_WINDOW = 3


class Report(list):
    "A list of CheckResult rows with an all-clear flag and JSON form."

    @property
    def ok(self):
        return all(r.equal for r in self)

    def failures(self):
        return [r for r in self if not r.equal]

    def to_json(self):
        return [r.to_json() for r in self]

    def __repr__(self):
        return "\n".join(repr(r) for r in self)


class Bimonoid:
    """A based space with mu, eta, delta, epsilon and antipode.

    Carrying the maps does not assume the laws hold; call
    ``check_bialgebra_laws`` to establish them for a given braiding.
    """

    def __init__(self, carrier, mu, eta, delta, epsilon, antipode):
        self.carrier = carrier
        self.mu = mu
        self.eta = eta
        self.delta = delta
        self.epsilon = epsilon
        self.antipode = antipode
        hh = tensor_space(carrier, carrier)
        shapes = [(mu, hh, carrier), (eta, UNIT_SPACE, carrier),
                  (delta, carrier, hh), (epsilon, carrier, UNIT_SPACE),
                  (antipode, carrier, carrier)]
        for f, dom, cod in shapes:
            if f.dom is not dom or f.cod is not cod:
                raise SpaceMismatch("structure map %r should be %s -> %s"
                                    % (f, dom.name, cod.name))

    def __repr__(self):
        return "Bimonoid(%s)" % self.carrier.name


def plain_swap():
    "The braiding of plain abelian groups: ``(X, Y)`` to the unsigned swap."
    return swap_map


class Coelement:
    """A bilinear pairing gamma on a bimonoid, the braiding's sign source."""

    def __init__(self, ring, gamma, name="gamma"):
        self.ring = ring
        self.gamma = gamma
        self.name = name

    def as_map(self):
        "Bilinear extension A (x) A -> I."
        A = self.ring.carrier

        def fn(label):
            a, b = split_label(A, A, label)
            return Vec.basis(UNIT, self.gamma(a, b))

        return LinMap(tensor_space(A, A), UNIT_SPACE, fn, name=self.name)


class IllegalComodule(Exception):
    "A coaction failing the counit or coassociativity law."


class LawViolation(Exception):
    "An algebraic law failed; carries the offending check results."

    def __init__(self, results):
        self.results = results
        super().__init__("; ".join(repr(r) for r in results))


class Verified:
    """An object ``verify`` checks: ``suite(K)`` is its Report on window K
    and ``violation`` the exception its failures raise.  ``verify`` alone
    sets ``window`` and ``report``, the largest window that passed and
    its Report.
    """

    window = report = None
    violation = LawViolation


def verify(obj, K):
    """The passing Report of ``obj.suite`` at a window >= K; None if K is.

    The suite runs only when no window >= K has passed on ``obj`` yet:
    window enumeration is monotone in K, so an earlier pass covers every
    label of window K.  A failing suite raises ``obj.violation`` of its
    failures each time it is asked for and is never remembered.
    """
    if K is None:
        return None
    if obj.window is None or obj.window < K:
        report = obj.suite(K)
        if not report.ok:
            raise obj.violation(report.failures())
        obj.window, obj.report = K, report
    return obj.report


class Comodule(Verified):
    """A based space with a coaction into A (x) X.

    Legality (the counit law and coassociativity) is verified when built
    on ``check_window`` (None: unverified); ``legality`` runs it anew.
    """

    def __init__(self, ring, carrier, coaction, check_window=VALIDATION_WINDOW):
        self.ring = ring
        self.carrier = carrier
        self.coaction = memoised(coaction)
        verify(self, check_window)

    def violation(self, failures):
        return IllegalComodule(repr(failures[0]))

    def legality(self, K):
        A = self.ring
        id_x = identity_map(self.carrier)
        counit = Report([equal_on_window(
            compose_maps(self.coaction, tensor_maps(A.epsilon, id_x)),
            id_x, K, law="comodule-counit")])
        lhs = compose_maps(self.coaction, tensor_maps(A.delta, id_x))
        rhs = compose_maps(self.coaction,
                           tensor_maps(identity_map(A.carrier), self.coaction))
        counit.append(equal_on_window(lhs, rhs, K, law="comodule-coassociativity"))
        return counit

    suite = legality

    def __repr__(self):
        return "Comodule(%s over %s)" % (self.carrier.name, self.ring.carrier.name)


def trivial_comodule(ring, carrier):
    "Coaction x |-> eta (x) x."
    coact = ring.eta @ identity_map(carrier)
    coact.name = "trivial"
    return Comodule(ring, carrier, coact, check_window=None)


def unit_comodule(ring):
    return trivial_comodule(ring, UNIT_SPACE)


def tensor_comodule(X, Y, check_window=None):
    "Monoidal structure of the comodule category: multiply the A-legs."
    if X.ring.carrier is not Y.ring.carrier:
        raise SpaceMismatch("tensor of comodules over different rings")
    A = X.ring
    carrier = tensor_space(X.carrier, Y.carrier)
    # x_(-1), x_(0), y_(-1), y_(0)  ->  x_(-1), y_(-1), x_(0), y_(0)
    coact = (X.coaction @ Y.coaction
             >> perm_map([A.carrier, X.carrier, A.carrier, Y.carrier], (0, 2, 1, 3))
             >> A.mu @ identity_map(carrier))
    coact.name = "alpha(x)"
    return Comodule(A, carrier, coact, check_window=check_window)


# ---------------------------------------------------------------------------
# braiding from a coelement


def comodule_braiding(X, Y, coelement):
    """The braiding of comodules: swap, coact on both, pair the A-legs.

    On x (x) y it is the sum of gamma(y_{-1}, x_{-1}) . y_0 (x) x_0, so on
    homogeneous elements over a grading ring it is gamma(deg y, deg x)
    times the swap.
    """
    if not (X.ring.carrier is Y.ring.carrier is coelement.ring.carrier):
        raise SpaceMismatch("braiding requires a shared ring")
    A = X.ring.carrier
    gamma = coelement.gamma

    def fn(label):
        lx, ly = split_label(X.carrier, Y.carrier, label)
        out = {}
        for ay_y0, cy in Y.coaction.apply(ly).items():
            ay, y0 = split_label(A, Y.carrier, ay_y0)
            for ax_x0, cx in X.coaction.apply(lx).items():
                ax, x0 = split_label(A, X.carrier, ax_x0)
                coeff = cy * cx * gamma(ay, ax)
                if coeff:
                    k = pair(y0, x0)
                    new = out.get(k, 0) + coeff
                    if new:
                        out[k] = new
                    else:
                        del out[k]
        return Vec(out)

    return LinMap(tensor_space(X.carrier, Y.carrier),
                  tensor_space(Y.carrier, X.carrier), fn, name="braid")


# ---------------------------------------------------------------------------
# law suites


def check_bialgebra_laws(B, braid, K):
    """The full (co)monoid, compatibility, interchange and antipode suite.

    ``braid(X, Y)`` is the braiding map ``X (x) Y -> Y (x) X`` the
    interchange law uses.  Each law is compared window-exactly against
    its other side; the report records the first counterexample per law.
    """
    H = B.carrier
    idh = identity_map(H)
    mu, eta, delta, eps = B.mu, B.eta, B.delta, B.epsilon
    report = Report()

    def law(name, lhs, rhs):
        report.append(equal_on_window(lhs, rhs, K, law=name))

    law("associativity", tensor_maps(mu, idh) >> mu, tensor_maps(idh, mu) >> mu)
    law("unit-left", tensor_maps(eta, idh) >> mu, idh)
    law("unit-right", tensor_maps(idh, eta) >> mu, idh)
    law("coassociativity", delta >> tensor_maps(delta, idh),
        delta >> tensor_maps(idh, delta))
    law("counit-left", delta >> tensor_maps(eps, idh), idh)
    law("counit-right", delta >> tensor_maps(idh, eps), idh)
    law("epsilon-eta", eta >> eps, identity_map(UNIT_SPACE))
    law("epsilon-mu", mu >> eps, tensor_maps(eps, eps))
    law("delta-eta", eta >> delta, tensor_maps(eta, eta))

    sigma = braid(H, H)
    middle = tensor_maps(tensor_maps(idh, sigma), idh)
    law("interchange",
        tensor_maps(delta, delta) >> middle >> tensor_maps(mu, mu),
        mu >> delta)

    s = B.antipode
    law("antipode-left", delta >> tensor_maps(s, idh) >> mu, eps >> eta)
    law("antipode-right", delta >> tensor_maps(idh, s) >> mu, eps >> eta)
    return report


def check_coelement(c, K):
    """The three coelement axioms, read off the ring's string diagrams.

    Axiom 1 is the convolution commutation between gamma and the
    multiplication; axioms 2 and 3 expand gamma against a product in one
    argument into a product of two gammas.
    """
    A = c.ring.carrier
    mu, delta = c.ring.mu, c.ring.delta
    g = c.as_map()
    ida = identity_map(A)
    report = Report()

    # axiom 1 on A(x)A: both sides land in A.
    dd = tensor_maps(delta, delta)
    lhs = dd >> perm_map([A, A, A, A], (0, 2, 3, 1)) >> tensor_maps(mu, g)
    rhs = dd >> perm_map([A, A, A, A], (2, 0, 3, 1)) >> tensor_maps(g, mu)
    report.append(equal_on_window(lhs, rhs, K, law="coelement-ax1"))

    # axiom 2 on A(x)A(x)A: gamma(a, b.c) = gamma(a1, c) gamma(a2, b).
    lhs = tensor_maps(ida, mu) >> g
    rhs = (tensor_maps(delta, tensor_maps(ida, ida))
           >> perm_map([A, A, A, A], (0, 3, 1, 2)) >> tensor_maps(g, g))
    report.append(equal_on_window(lhs, rhs, K, law="coelement-ax2"))

    # axiom 3 on A(x)A(x)A: gamma(a.b, c) = gamma(a, c1) gamma(b, c2).
    lhs = tensor_maps(mu, ida) >> g
    rhs = (tensor_maps(tensor_maps(ida, ida), delta)
           >> perm_map([A, A, A, A], (0, 2, 1, 3)) >> tensor_maps(g, g))
    report.append(equal_on_window(lhs, rhs, K, law="coelement-ax3"))
    return report


def distributive_law_tau(X):
    """tau_X : X (x) A -> A (x) X, coact on x then multiply past a."""
    A = X.ring
    # x_(-1), x_(0), a  ->  x_(-1), a, x_(0)
    tau = memoised(X.coaction @ identity_map(A.carrier)
                   >> perm_map([A.carrier, X.carrier, A.carrier], (0, 2, 1))
                   >> A.mu @ identity_map(X.carrier))
    tau.name = "tau"
    return tau


def check_distributive_law(tau, X, K, comonoid=None):
    """The comonad distributive-law axioms for tau : X (x) A -> A (x) X.

    The two A-side axioms need only the ring; the two X-side axioms need
    a comonoid structure on X, supplied via ``comonoid`` (e.g. the
    bimonoid H when X is its carrier).  Omitted when absent.
    """
    A = X.ring
    idx = identity_map(X.carrier)
    ida = identity_map(A.carrier)
    if (tau.dom is not tensor_space(X.carrier, A.carrier)
            or tau.cod is not tensor_space(A.carrier, X.carrier)):
        raise SpaceMismatch("tau has shape %s -> %s" % (tau.dom.name, tau.cod.name))
    report = Report()

    report.append(equal_on_window(
        tau >> tensor_maps(A.epsilon, idx), tensor_maps(idx, A.epsilon),
        K, law="tau-counit-A"))
    lhs = tau >> tensor_maps(A.delta, idx)
    rhs = (tensor_maps(idx, A.delta) >> tensor_maps(tau, ida)
           >> tensor_maps(ida, tau))
    report.append(equal_on_window(lhs, rhs, K, law="tau-comultiplication-A"))

    if comonoid is not None:
        eps_x, delta_x = comonoid.epsilon, comonoid.delta
        report.append(equal_on_window(
            tau >> tensor_maps(ida, eps_x), tensor_maps(eps_x, ida),
            K, law="tau-counit-X"))
        lhs = tau >> tensor_maps(ida, delta_x)
        rhs = (tensor_maps(delta_x, ida) >> tensor_maps(idx, tau)
               >> tensor_maps(tau, idx))
        report.append(equal_on_window(lhs, rhs, K, law="tau-comultiplication-X"))
    return report


def check_comodule_morphism(f, X, Y, K):
    "Verdict of (1 (x) f) . alpha_X = alpha_Y . f on the window."
    if X.ring.carrier is not Y.ring.carrier:
        raise SpaceMismatch("comodule morphism across different rings")
    ida = identity_map(X.ring.carrier)
    return equal_on_window(
        X.coaction >> tensor_maps(ida, f), f >> Y.coaction,
        K, law="comodule-morphism[%s]" % f.name)
