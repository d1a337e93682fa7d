import random

import pytest

from hopfchains.grading import (
    Bicharacter, GradedModule, graded_to_comodule, laurent_hopf, monomial,
    sign_coelement,
)
from hopfchains.laws import (
    Coelement, check_bialgebra_laws, plain_swap, tensor_comodule,
    trivial_comodule,
)
from hopfchains.linalg import (
    UNIT, UNIT_SPACE, LinMap, SpaceMismatch, Vec, atom, equal_on_window,
    identity_map, left, pair, right, tensor_maps, tensor_space,
)
from hopfchains.chains import random_complex
from hopfchains import semidirect
from hopfchains.diffhopf import build_differential_hopf
from hopfchains.pareigis import chain_to_wcomodule, differential_comodule_bimonoid
from hopfchains.semidirect import (
    ComoduleBimonoid, LawViolation, SemidirectRing, comparison_f,
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
    sd = hb.product()
    s = 1 if hb.comodule.carrier.contains(atom("d", 1, 0)) else -1
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
    sd = hb.product()
    s = 1 if hb.comodule.carrier.contains(atom("d", 1, 0)) else -1
    got = sd.delta.apply(dx(s, 2))
    want = (Vec.basis(pair(dx(s, 2), ox(2)))
            + Vec.basis(pair(ox(s + 2), dx(s, 2))))
    assert got == want
    assert sd.delta.apply(ox(3)) == Vec.basis(pair(ox(3), ox(3)))


def test_antipode_components(hb):
    sd = hb.product()
    s = 1 if hb.comodule.carrier.contains(atom("d", 1, 0)) else -1
    # d (x) x^j |-> (-1)^j d (x) x^{-j-s}
    for j in (0, 3, -2):
        want = Vec.basis(dx(s, -j - s), (-1) ** j)
        assert sd.antipode.apply(dx(s, j)) == want
    assert sd.antipode.apply(ox(4)) == Vec.basis(ox(-4))
    assert sd.antipode.apply(ox(0)) == Vec.basis(ox(0))


def test_full_suite_and_antipode_identities(hb):
    sd = hb.product()
    report = check_bialgebra_laws(sd, plain_swap(), 4)
    assert report.ok, report.failures()
    s_map = semidirect_antipode(hb, window=4)
    assert s_map is sd.antipode


def test_grading_ring_is_a_sub_bimonoid(hb):
    sd = hb.product()
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
    carrier = Space("Zh", 1, H.carrier.contains, window=H.carrier._window)
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
    assert hb.product(6) is sd
    assert product_suites == [6]


def test_a_larger_window_runs_the_suite_again(product_suites):
    hb = differential_comodule_bimonoid(1)
    sd = hb.product()
    assert product_suites == [3]
    assert hb.product(6) is sd
    assert product_suites == [3, 6]
    assert (sd.window, sd.report[0].instances) == (6, (2 * 13) ** 3)
    # a smaller window is covered by the pass at 6
    assert hb.product(4) is sd and semidirect_product(hb, window=5) is sd
    assert product_suites == [3, 6]


def test_an_unchecked_product_is_verified_when_asked(product_suites):
    hb = differential_comodule_bimonoid(-1)
    sd = semidirect_product(hb, window=2, check=False)
    assert product_suites == [] and sd.window is None
    assert semidirect_product(hb, window=2) is sd
    assert product_suites == [2] and sd.window == 2


def test_a_failing_product_raises_every_time(product_suites):
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    D = graded_to_comodule(GradedModule.of({0: 1}, name="d"), gamma.ring)
    hb = build_differential_hopf(D, gamma, force=True)
    for call in (lambda: semidirect_product(hb, window=2),
                 lambda: hb.product(2),
                 lambda: semidirect_antipode(hb, window=1)):
        with pytest.raises(LawViolation) as err:
            call()
        assert [r.law for r in err.value.results] == ["interchange"]
    assert product_suites == [2, 2, 1]
    assert hb._product.window is None and hb._product.report is None


@pytest.mark.parametrize("validate", [False, True])
def test_a_comodule_on_another_carrier_of_the_same_name_is_refused(validate):
    # both rings live on (Sigma(d)+I), with d in degree 1 and in degree 3
    gamma = sign_coelement(Bicharacter(1, (-1,)), laurent_hopf(1))
    hb1, hb2 = (build_differential_hopf(
        graded_to_comodule(GradedModule.of({k: 1}, name="d"), gamma.ring), gamma)
        for k in (1, 3))
    assert hb1.hopf.carrier.name == hb2.comodule.carrier.name
    with pytest.raises(SpaceMismatch, match="bimonoid and comodule must share a carrier"):
        ComoduleBimonoid(hb1.hopf, hb2.comodule, gamma, validate=validate)
    assert ComoduleBimonoid(hb1.hopf, hb1.comodule, gamma, validate=validate)
