import random

import pytest

from hopfchains.grading import (
    Bicharacter, GradedModule, degree_of, graded_to_comodule, laurent_hopf, monomial,
    sign_coelement,
)
from hopfchains.laws import (
    VALIDATION_WINDOW, Coelement, Comodule, IllegalComodule, LawViolation,
    check_bialgebra_laws, check_coelement, comodule_braiding, distributive_law_tau,
    plain_swap, tensor_comodule, trivial_comodule, verify,
)
from hopfchains.linalg import (
    UNIT, UNIT_SPACE, LinMap, SpaceMismatch, Vec, atom, equal_on_window,
    identity_map, left, pair, right, scale_map, split_label, tensor_maps,
    tensor_space,
)
from hopfchains.chains import ChainComplex, mat, random_complex
from hopfchains import laws, linalg, semidirect
from hopfchains.diffhopf import build_differential_hopf
from hopfchains.pareigis import chain_to_wcomodule, differential_comodule_bimonoid
from hopfchains.semidirect import (
    ComoduleBimonoid, SemidirectRing, WComodule, comparison_f,
    comparison_f_inverse, semidirect_antipode, semidirect_product,
    tensor_wcomodule,
)


def x(k):
    return monomial(k)


def dx(s, k):
    return pair(left(atom("d", s, 0)), x(k))


def ox(k):
    return pair(right(UNIT), x(k))


@pytest.fixture(scope="module", params=[-1, 1])
def hb(request):
    return differential_comodule_bimonoid(request.param)


def test_multiplication_braids_with_a_sign(hb):
    sd = semidirect_product(hb)
    s = 1 if left(atom("d", 1, 0)) in hb.comodule.carrier.enumerate(0) else -1
    # x^j . (d (x) x^k) = (-1)^j d (x) x^{j+k}
    for j, k in ((1, 0), (2, 3), (-3, 1)):
        want = Vec.basis(dx(s, j + k), (-1) ** j)
        assert sd.mu.apply(pair(ox(j), dx(s, k))) == want
    # (d (x) x^j) . x^k has no sign
    assert sd.mu.apply(pair(dx(s, 2), ox(3))) == Vec.basis(dx(s, 5))
    # squares of d vanish
    assert sd.mu.apply(pair(dx(s, 0), dx(s, 5))) == Vec.zero()
    # the grading part multiplies as the group ring
    assert sd.mu.apply(pair(ox(2), ox(3))) == Vec.basis(ox(5))


def test_comultiplication_pushes_the_coaction_into_the_grading_leg(hb):
    sd = semidirect_product(hb)
    s = 1 if left(atom("d", 1, 0)) in hb.comodule.carrier.enumerate(0) else -1
    got = sd.delta.apply(dx(s, 2))
    want = (Vec.basis(pair(dx(s, 2), ox(2)))
            + Vec.basis(pair(ox(s + 2), dx(s, 2))))
    assert got == want
    assert sd.delta.apply(ox(3)) == Vec.basis(pair(ox(3), ox(3)))


def test_antipode_components(hb):
    sd = semidirect_product(hb)
    s = 1 if left(atom("d", 1, 0)) in hb.comodule.carrier.enumerate(0) else -1
    # d (x) x^j |-> (-1)^j d (x) x^{-j-s}
    for j in (0, 3, -2):
        want = Vec.basis(dx(s, -j - s), (-1) ** j)
        assert sd.antipode.apply(dx(s, j)) == want
    assert sd.antipode.apply(ox(4)) == Vec.basis(ox(-4))
    assert sd.antipode.apply(ox(0)) == Vec.basis(ox(0))


def composite_antipode(HB, Q):
    """Oracle: the antipode composite, read off the product's string diagram.

    Three copies of the coaction output h_(-1) are taken; the first
    multiplies a_1 and is inverted into the A-output, the second
    multiplies a_2 and is inverted into gamma's right slot, the third
    fills gamma's left slot.  The H-output is s_H(h_(0)).
    """
    H, A = HB.hopf, HB.ring
    gamma = HB.coelement.gamma
    coact = HB.comodule.coaction
    Hs, As = H.carrier, A.carrier

    def fn(label):
        h, a = split_label(Hs, As, label)
        out = Vec.zero()
        for m_h0, c0 in coact.apply(h).items():
            hm, h0 = split_label(As, Hs, m_h0)
            sh = H.antipode.apply(h0)
            for uv, c1 in A.delta.apply(hm).items():
                u1, rest = split_label(As, As, uv)
                for vw, c2 in A.delta.apply(rest).items():
                    v1, v2 = split_label(As, As, vw)
                    for aa, c3 in A.delta.apply(a).items():
                        a_1, a_2 = split_label(As, As, aa)
                        outer = A.antipode(A.mu.apply(pair(u1, a_1)))
                        inner = A.antipode(A.mu.apply(pair(v1, a_2)))
                        for w, cw in inner.items():
                            sign = gamma(v2, w)
                            if not sign:
                                continue
                            coeff = c0 * c1 * c2 * c3 * cw * sign
                            out = out + coeff * sh.tensor(outer)
        return out

    return LinMap(Q, Q, fn, name="composite")


def test_biproduct_antipode_agrees_with_the_composite(hb):
    sd = semidirect_product(hb)
    assert equal_on_window(sd.antipode, composite_antipode(hb, sd.carrier), 8).equal


def test_full_suite_and_antipode_identities(hb):
    sd = semidirect_product(hb)
    report = check_bialgebra_laws(sd, plain_swap(), 4)
    assert report.ok, report.failures()
    s_map = semidirect_antipode(hb, window=4)
    assert s_map is sd.antipode


def test_grading_ring_is_a_sub_bimonoid(hb):
    sd = semidirect_product(hb)
    A = hb.ring
    H = hb.hopf

    def incl_fn(label):
        return Vec.basis(pair(right(UNIT), label))

    incl = LinMap(A.carrier, sd.carrier, incl_fn, name="incl")
    lhs = tensor_maps(incl, incl) >> sd.mu
    rhs = A.mu >> incl
    assert equal_on_window(lhs, rhs, 4)
    assert equal_on_window(A.eta >> incl, sd.eta, 4)
    # stripping the H-legs with epsilon_H recovers the group-like coproduct
    proj = tensor_maps(H.epsilon, identity_map(A.carrier))
    strip = sd.delta >> tensor_maps(proj, proj)
    assert equal_on_window(incl >> strip, A.delta, 4)


def test_trivial_coelement_and_coaction_give_the_plain_tensor_bimonoid():
    from hopfchains.laws import Bimonoid
    from hopfchains.linalg import Space, swap_map

    A = laurent_hopf(1)
    gamma = Coelement(A, lambda a, b: 1, name="trivial")
    H = laurent_hopf(1)
    # rename H's carrier so the two tensor factors stay distinguishable
    carrier = Space("Zh", 1, H.carrier._window)
    relabeled = Bimonoid(
        carrier,
        LinMap(tensor_space(carrier, carrier), carrier, H.mu.fn),
        LinMap(UNIT_SPACE, carrier, H.eta.fn),
        LinMap(carrier, tensor_space(carrier, carrier), H.delta.fn),
        LinMap(carrier, UNIT_SPACE, H.epsilon.fn),
        LinMap(carrier, carrier, H.antipode.fn))
    com = trivial_comodule(A, carrier)
    hb = ComoduleBimonoid(relabeled, com, gamma, window=2)
    sd = semidirect_product(hb, window=2)

    # label-for-label comparison with the plain tensor product bimonoid
    def middle(first, second):
        return tensor_maps(
            tensor_maps(identity_map(carrier), swap_map(first, second)),
            identity_map(A.carrier))

    plain_mu = middle(A.carrier, carrier) >> tensor_maps(relabeled.mu, A.mu)
    assert equal_on_window(sd.mu, plain_mu, 2)
    plain_delta = tensor_maps(relabeled.delta, A.delta) >> middle(carrier, A.carrier)
    assert equal_on_window(sd.delta, plain_delta, 2)
    assert equal_on_window(sd.antipode, composite_antipode(hb, sd.carrier), 6).equal


def skew_coelement():
    """gamma(x^g, x^h) = (-1)^(g_1 h_2) on Z^2, a bicharacter that is not
    symmetric: gamma(x^(1,0), x^(0,1)) = -1 but gamma(x^(0,1), x^(1,0)) = +1."""
    return Coelement(laurent_hopf(2),
                     lambda a, b: -1 if degree_of(a)[0] * degree_of(b)[1] % 2 else 1,
                     name="skew")


def test_a_skew_coelement_fixes_the_order_of_gammas_arguments():
    gamma = skew_coelement()
    assert check_coelement(gamma, 2).ok
    # D = Z in degree (1, 1): gamma(x^(1,1), x^(1,1)) = -1, so it is admissible
    D = graded_to_comodule(GradedModule.of({(1, 1): 1}, rank=2, name="d"), gamma.ring)
    hb = build_differential_hopf(D, gamma, window=2)
    sd = semidirect_product(hb, window=2)
    d, one = left(atom("d", 1, 1, 0)), right(UNIT)
    # (1 (x) x^(1,0)) . (d (x) x^0) = gamma(x^(1,0), x^(1,1)) d (x) x^(1,0),
    # where gamma(x^(1,1), x^(1,0)) would be +1
    got = sd.mu.apply(pair(one, monomial(1, 0), d, monomial(0, 0)))
    assert got == Vec.basis(pair(d, monomial(1, 0)), -1)
    # x (x) y |-> gamma(y_(-1), x_(-1)) y (x) x = gamma(x^(0,1), x^(1,0)) y (x) x
    X, Y = (graded_to_comodule(GradedModule.of({deg: 1}, rank=2, name=name), gamma.ring)
            for deg, name in (((1, 0), "x"), ((0, 1), "y")))
    (x,), (y,) = X.carrier.enumerate(0), Y.carrier.enumerate(0)
    assert comodule_braiding(X, Y, gamma).apply(pair(x, y)) == Vec.basis(pair(y, x))


def test_law_violation_on_illegal_input():
    # I + D under the trivial coelement is not a bimonoid: the interchange
    # needs the -1 braiding on d (x) d.
    gamma_sign = sign_coelement(Bicharacter(1, (-1,)))
    D = graded_to_comodule(GradedModule.of({1: 1}, name="d"), gamma_sign.ring)
    hb = build_differential_hopf(D, gamma_sign)
    trivial = Coelement(gamma_sign.ring, lambda a, b: 1, name="trivial")
    with pytest.raises(LawViolation):
        ComoduleBimonoid(hb.hopf, hb.comodule, trivial, window=2)


def test_comparison_of_grading_only_comodule():
    hb = differential_comodule_bimonoid(1)
    M = GradedModule.of({2: 1}, name="b")
    X = graded_to_comodule(M, hb.ring)
    b = M.basis()[0]
    chi = LinMap(X.carrier, tensor_space(hb.hopf.carrier, X.carrier),
                 lambda l: Vec.basis(pair(right(UNIT), l)), name="chi")
    from hopfchains.semidirect import WComodule
    B = WComodule(hb, X.carrier, X.coaction, chi, window=0)
    FB = comparison_f(B, window=0)
    assert FB.coaction.apply(b) == Vec.basis(pair(ox(2), b))
    back = comparison_f_inverse(FB, window=0)
    assert back.alpha.apply(b) == X.coaction.apply(b)
    assert back.chi.apply(b) == chi.apply(b)


@pytest.mark.parametrize("s", [-1, 1])
def test_comparison_functors_are_mutually_inverse_on_samples(s):
    rng = random.Random(17)
    hb = differential_comodule_bimonoid(s)
    for trial in range(8):
        X = random_complex(rng, name="t%d" % trial, max_window=4, max_rank=3)
        B = chain_to_wcomodule(X, s, hb)
        FB = comparison_f(B, window=0)
        back = comparison_f_inverse(FB, window=0)
        again = comparison_f(back, window=0)
        for b in B.carrier.enumerate(0):
            assert back.alpha.apply(b) == B.alpha.apply(b)
            assert back.chi.apply(b) == B.chi.apply(b)
            assert again.coaction.apply(b) == FB.coaction.apply(b)


def test_comparison_is_strict_monoidal_on_samples():
    rng = random.Random(23)
    s = -1
    hb = differential_comodule_bimonoid(s)
    for trial in range(5):
        X = random_complex(rng, name="a%d" % trial, max_window=3, max_rank=2)
        Y = random_complex(rng, name="b%d" % trial, max_window=3, max_rank=2)
        B = chain_to_wcomodule(X, s, hb)
        C = chain_to_wcomodule(Y, s, hb)
        lhs = comparison_f(tensor_wcomodule(B, C, window=0), window=0)
        rhs = tensor_comodule(comparison_f(B, window=0),
                              comparison_f(C, window=0), check_window=None)
        assert equal_on_window(lhs.coaction, rhs.coaction, 0).equal


# ---------------------------------------------------------------------------
# memoised composites: each miss is evaluated by a compiled image


@pytest.fixture
def kept(monkeypatch):
    "(composite, memoised map) for each composite the library memoises from now on."
    pairs = []

    def spy(f):
        m = linalg.memoised(f)
        if m is not f:
            pairs.append((f, m))
        return m
    for module in (laws, semidirect):
        monkeypatch.setattr(module, "memoised", spy)
    return pairs


@pytest.mark.parametrize("s", [-1, 1])
def test_every_memoised_composite_agrees_with_its_plain_apply(kept, s):
    hb = differential_comodule_bimonoid(s)
    sd = semidirect_product(hb, window=None)
    tau = distributive_law_tau(hb.comodule)
    trivial = trivial_comodule(hb.ring, hb.hopf.carrier)
    both = tensor_comodule(hb.comodule, hb.comodule)
    X = random_complex(random.Random(5), name="m", max_window=3, max_rank=2)
    FB = comparison_f(chain_to_wcomodule(X, s, hb), window=0)
    back = comparison_f_inverse(FB, window=0)
    composite = {m: f for f, m in kept}
    built = [sd.mu, sd.eta, sd.delta, sd.epsilon, sd.antipode, tau,
             trivial.coaction, both.coaction, FB.coaction, back.alpha, back.chi]
    assert all(m in composite for m in built)
    assert [m.name for m in built[:6]] == ["mu", "eta", "delta", "epsilon", "antipode", "tau"]
    for m, f in composite.items():
        # a miss goes to the compiled image, not to the composite's apply
        assert m.fn != f.apply, m.name
        for label in f.dom.enumerate(2):
            assert m.fn(label) == f.apply(label), (m.name, label)
            assert m.apply(label) == f.apply(label), (m.name, label)


# ---------------------------------------------------------------------------
# one memoised product per ComoduleBimonoid, verified once per window


@pytest.fixture
def product_suites(monkeypatch):
    "Windows at which the product suite runs, in call order."
    windows = []
    real = semidirect.check_bialgebra_laws

    def spy(B, braid, K):
        if isinstance(B, SemidirectRing):
            windows.append(K)
        return real(B, braid, K)

    monkeypatch.setattr(semidirect, "check_bialgebra_laws", spy)
    return windows


def test_product_then_antipode_runs_the_suite_once(product_suites):
    hb = differential_comodule_bimonoid(-1)
    sd = semidirect_product(hb, window=6)
    assert semidirect_antipode(hb, window=6) is sd.antipode
    assert semidirect_product(hb, window=6) is sd
    assert product_suites == [6]


def test_a_larger_window_runs_the_suite_again(product_suites):
    hb = differential_comodule_bimonoid(1)
    sd = semidirect_product(hb)
    assert product_suites == [3]
    assert semidirect_product(hb, window=6) is sd
    assert product_suites == [3, 6]
    assert (sd.window, sd.report[0].instances) == (6, (2 * 13) ** 3)
    # a smaller window is covered by the pass at 6
    assert semidirect_product(hb, window=4) is sd
    assert semidirect_product(hb, window=5) is sd
    assert product_suites == [3, 6]


def test_an_unchecked_product_is_verified_when_asked(product_suites):
    hb = differential_comodule_bimonoid(-1)
    sd = semidirect_product(hb, window=None)
    assert product_suites == [] and sd.window is None
    assert semidirect_product(hb, window=2) is sd
    assert product_suites == [2] and sd.window == 2


def test_a_failing_product_raises_every_time(product_suites):
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    D = graded_to_comodule(GradedModule.of({0: 1}, name="d"), gamma.ring)
    hb = build_differential_hopf(D, gamma, window=None)
    for call in (lambda: semidirect_product(hb, window=2),
                 lambda: semidirect_product(hb, window=2),
                 lambda: semidirect_antipode(hb, window=1)):
        with pytest.raises(LawViolation) as err:
            call()
        assert [r.law for r in err.value.results] == ["interchange"]
    assert product_suites == [2, 2, 1]
    assert hb._product.window is None and hb._product.report is None


@pytest.mark.parametrize("window", [None, VALIDATION_WINDOW])
def test_a_comodule_on_another_carrier_of_the_same_name_is_refused(window):
    # both rings live on (Sigma(d)+I), with d in degree 1 and in degree 3
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    hb1, hb2 = (build_differential_hopf(
        graded_to_comodule(GradedModule.of({k: 1}, name="d"), gamma.ring), gamma)
        for k in (1, 3))
    assert hb1.hopf.carrier.name == hb2.comodule.carrier.name
    with pytest.raises(SpaceMismatch, match="bimonoid and comodule must share a carrier"):
        ComoduleBimonoid(hb1.hopf, hb2.comodule, gamma, window=window)
    assert ComoduleBimonoid(hb1.hopf, hb1.comodule, gamma, window=window)


# ---------------------------------------------------------------------------
# one verify path: a window or None, memoised per object by laws.verify


@pytest.fixture
def laws_run(monkeypatch):
    "Names of the laws checked, in call order, wherever a suite checks one."
    names = []

    def spy(f, g, K, law=""):
        names.append(law)
        return equal_on_window(f, g, K, law=law)

    monkeypatch.setattr(laws, "equal_on_window", spy)
    return names


def one_path_cases():
    """For each verified type: (build on a window or None, the same with a
    broken structure map, the exception the broken one raises)."""
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    A = gamma.ring
    D = graded_to_comodule(GradedModule.of({1: 1}, name="d"), A)

    def comodule(scale):
        return lambda w: Comodule(A, D.carrier, scale_map(D.coaction, scale),
                                  check_window=w)

    hb = build_differential_hopf(D, gamma)
    B = chain_to_wcomodule(ChainComplex({0: 1, 1: 1}, {1: mat([[1]])}, name="e"), 1, hb)

    def wcomodule(alpha_scale, chi_scale):
        return lambda w: WComodule(hb, B.carrier, scale_map(B.alpha, alpha_scale),
                                   scale_map(B.chi, chi_scale), window=w)

    def bimonoid(hb, coelement):
        return lambda w: ComoduleBimonoid(hb.hopf, hb.comodule, coelement, window=w)

    trivial = Coelement(A, lambda a, b: 1, name="trivial")
    # Z in degree 0 is not admissible: its product breaks the interchange law
    hb0 = build_differential_hopf(
        graded_to_comodule(GradedModule.of({0: 1}, name="d"), A), gamma, window=None)

    def product(hb):
        return lambda w: semidirect_product(bimonoid(hb, gamma)(None), w)

    return {
        "comodule": (comodule(1), comodule(2), IllegalComodule),
        # alpha is checked before chi
        "wcomodule-alpha": (wcomodule(1, 1), wcomodule(2, 2), IllegalComodule),
        "wcomodule-chi": (wcomodule(1, 1), wcomodule(1, 2), LawViolation),
        "bimonoid": (bimonoid(hb, gamma), bimonoid(hb, trivial), LawViolation),
        "product": (product(hb), product(hb0), LawViolation),
    }


@pytest.mark.parametrize("kind", ["comodule", "wcomodule-alpha", "wcomodule-chi",
                                  "bimonoid", "product"])
def test_a_window_or_none_is_the_only_switch(kind, laws_run):
    build, build_broken, violation = one_path_cases()[kind]
    laws_run.clear()

    # None builds without checking a law, the broken maps included
    obj, broken = build(None), build_broken(None)
    assert laws_run == [] and obj.window is None and obj.report is None

    # a window runs the suite once; a window no larger runs nothing
    report = verify(obj, 2)
    assert report.ok and obj.window == 2 and obj.report is report
    ran = len(laws_run)
    assert ran > 0
    assert verify(obj, 2) is report and verify(obj, 1) is report
    assert len(laws_run) == ran
    # a larger window runs it again
    assert verify(obj, 3).ok and obj.window == 3
    assert len(laws_run) > ran
    assert verify(obj, None) is None and obj.window == 3

    # a failing suite raises every time, on construction and on verify,
    # and is never remembered
    for call in (lambda: build_broken(1), lambda: verify(broken, 1),
                 lambda: verify(broken, 1)):
        before = len(laws_run)
        with pytest.raises(violation):
            call()
        assert len(laws_run) > before
    assert broken.window is None and broken.report is None


def test_a_bimonoid_of_non_morphisms_fails_before_its_bialgebra_suite(laws_run):
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    D = graded_to_comodule(GradedModule.of({1: 1}, name="d"), gamma.ring)
    hb = build_differential_hopf(D, gamma)
    # a doubled coaction is no comodule, and mu is no morphism of it
    doubled = Comodule(hb.ring, hb.comodule.carrier,
                       scale_map(hb.comodule.coaction, 2), check_window=None)
    laws_run.clear()
    with pytest.raises(LawViolation) as err:
        ComoduleBimonoid(hb.hopf, doubled, gamma, window=1)
    assert err.value.results and all(
        r.law.startswith("comodule-morphism") for r in err.value.results)
    assert all(law.startswith("comodule-morphism") for law in laws_run)
