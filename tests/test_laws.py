import pytest

from hopfchains.diffhopf import build_differential_hopf
from hopfchains.grading import (
    Bicharacter, GradedModule, graded_to_comodule, laurent_hopf, monomial,
    sign_coelement,
)
from hopfchains.laws import (
    Coelement, Comodule, check_bialgebra_laws, check_coelement,
    check_comodule_morphism, comodule_braiding,
    distributive_law_tau, plain_swap, tensor_comodule, trivial_comodule,
    unit_comodule,
)
from hopfchains.linalg import (
    UNIT, LinMap, Vec, atom, equal_on_window, identity_map, pair,
    tensor_space,
)
from hopfchains.pareigis import pareigis_ring


def x(k):
    return monomial(k)


def zero_map(X, Y):
    return LinMap(X, Y, lambda l: Vec.zero(), name="0")


def d_comodule(s, ring):
    return graded_to_comodule(GradedModule.of({s: 1}, name="d"), ring)


def test_laurent_ring_passes_all_laws():
    Z = laurent_hopf(1)
    report = check_bialgebra_laws(Z, plain_swap(), 6)
    assert all(report), [r for r in report if not r]


def test_pareigis_ring_passes_all_laws():
    report = check_bialgebra_laws(pareigis_ring(-1), plain_swap(), 6)
    assert all(report), [r for r in report if not r]


def test_inadmissible_carrier_breaks_interchange_at_dd():
    # D = Z in degree 0 has self-braiding +1; forcing the construction
    # through must break exactly the interchange law, at d (x) d, with
    # the double-coproduct side equal to 2(d (x) d).
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    hb = build_differential_hopf(d_comodule(0, gamma.ring), gamma, window=None)
    report = check_bialgebra_laws(hb.hopf, hb.braiding(), 3)
    bad = [r for r in report if not r]
    assert [r.law for r in bad] == ["interchange"]
    cx = bad[0].counterexample
    d = hb.hopf.carrier.enumerate(0)[0]
    assert cx.label == pair(d, d)
    assert cx.lhs == Vec.basis(pair(d, d), 2)
    assert cx.rhs == Vec.zero()


def test_sign_coelement_passes_axioms():
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    assert all(check_coelement(gamma, 5))


def test_trivial_coelement_passes_axioms():
    Z = laurent_hopf(1)
    gamma = Coelement(Z, lambda a, b: 1, name="trivial")
    assert all(check_coelement(gamma, 4))


def test_parity_pairing_is_not_a_coelement():
    Z = laurent_hopf(1)

    def parity(a, b):
        return -1 if (a[2][0] + b[2][0]) % 2 else 1

    gamma = Coelement(Z, parity)
    report = check_coelement(gamma, 3)
    failures = [r for r in report if not r]
    assert "coelement-ax2" in {r.law for r in failures}
    assert all(r.counterexample is not None for r in failures)

    # direct evaluation at (i, j, k) = (1, 1, 1): gamma(x, x.x) = -1 but
    # the product of the two gammas is (+1)(+1) = 1.
    assert parity(x(1), x(2)) == -1
    assert parity(x(1), x(1)) * parity(x(1), x(1)) == 1


@pytest.mark.parametrize("s", [-1, 1])
def test_braiding_on_differential_generator_is_minus_one(s):
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    D = d_comodule(s, gamma.ring)
    braid = comodule_braiding(D, D, gamma)
    d = D.carrier.enumerate(0)[0]
    assert braid.apply(pair(d, d)) == Vec.basis(pair(d, d), -1)


def test_braiding_of_trivial_coactions_is_plain_swap():
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    from hopfchains.linalg import finite_space
    X = trivial_comodule(gamma.ring, finite_space("T", [atom("t", 0), atom("t", 1)]))
    braid = comodule_braiding(X, X, gamma)
    got = braid.apply(pair(atom("t", 0), atom("t", 1)))
    assert got == Vec.basis(pair(atom("t", 1), atom("t", 0)))


def test_braiding_on_homogeneous_elements_uses_degree_product():
    # u of degree 1, v of degree 2 with kappa = -1: sign (-1)^2 = +1.
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    M = GradedModule.of({1: 1, 2: 1}, name="m")
    X = graded_to_comodule(M, gamma.ring)
    u, v = M.basis()
    braid = comodule_braiding(X, X, gamma)
    assert braid.apply(pair(u, v)) == Vec.basis(pair(v, u))
    assert braid.apply(pair(u, u)) == Vec.basis(pair(u, u), -1)


def test_braiding_squares_to_identity_for_sign_coelements():
    for kappa in (1, -1):
        gamma = sign_coelement(Bicharacter(1, (kappa,)))
        M = GradedModule.of({0: 1, 1: 2, 3: 1}, name="m")
        X = graded_to_comodule(M, gamma.ring)
        fwd = comodule_braiding(X, X, gamma)
        ident = identity_map(fwd.dom)
        assert equal_on_window(fwd >> fwd, ident, 0)


@pytest.mark.parametrize("s", [-1, 1])
def test_tau_on_differential_comodule(s):
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    D = d_comodule(s, gamma.ring)
    tau = distributive_law_tau(D)
    d = D.carrier.enumerate(0)[0]
    for j in (-2, 0, 3):
        assert tau.apply(pair(d, x(j))) == Vec.basis(pair(x(s + j), d))


def test_tau_on_unit_comodule_is_unitor():
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    one = unit_comodule(gamma.ring)
    tau = distributive_law_tau(one)
    assert tau.apply(pair(UNIT, x(4))) == Vec.basis(x(4))


@pytest.mark.parametrize("s", [-1, 1])
def test_structure_maps_are_comodule_morphisms(s):
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    hb = build_differential_hopf(d_comodule(s, gamma.ring), gamma)
    assert all(hb.morphism_report(4))


def test_identity_is_a_comodule_morphism():
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    X = d_comodule(1, gamma.ring)
    assert check_comodule_morphism(identity_map(X.carrier), X, X, 3)


def test_degree_shift_is_not_a_comodule_morphism():
    ring = laurent_hopf(1)
    U = graded_to_comodule(GradedModule.of({1: 1}, name="u"), ring)
    V = graded_to_comodule(GradedModule.of({2: 1}, name="v"), ring)
    u = U.carrier.enumerate(0)[0]
    v = V.carrier.enumerate(0)[0]
    f = LinMap(U.carrier, V.carrier, lambda l: Vec.basis(v), name="shift")
    assert not check_comodule_morphism(f, U, V, 3).equal


def test_failures_persist_at_larger_windows():
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    hb = build_differential_hopf(d_comodule(0, gamma.ring), gamma, window=None)
    for K in (2, 3, 4):
        report = check_bialgebra_laws(hb.hopf, hb.braiding(), K)
        assert not all(report)


def test_comodule_legality_is_enforced_at_construction():
    ring = laurent_hopf(1)
    from hopfchains.linalg import finite_space
    carrier = finite_space("bad", [atom("b")])
    broken = LinMap(carrier, tensor_space(ring.carrier, carrier),
                    lambda l: Vec.basis(pair(x(1), l), 2), name="broken")
    from hopfchains.laws import IllegalComodule
    with pytest.raises(IllegalComodule):
        Comodule(ring, carrier, broken)


def test_tensor_comodule_multiplies_the_ring_legs():
    ring = laurent_hopf(1)
    X = graded_to_comodule(GradedModule.of({1: 1}, name="u"), ring)
    Y = graded_to_comodule(GradedModule.of({2: 1}, name="v"), ring)
    T = tensor_comodule(X, Y, check_window=0)
    u = X.carrier.enumerate(0)[0]
    v = Y.carrier.enumerate(0)[0]
    assert T.coaction.apply(pair(u, v)) == Vec.basis(pair(x(3), u, v))


def test_bimonoid_rejects_maps_on_a_namesake_carrier():
    from hopfchains.grading import sigma_space
    from hopfchains.laws import Bimonoid
    from hopfchains.linalg import UNIT_SPACE, SpaceMismatch

    def zero_structure(H):
        HH = tensor_space(H, H)
        return (zero_map(HH, H), zero_map(UNIT_SPACE, H), zero_map(H, HH),
                zero_map(H, UNIT_SPACE), zero_map(H, H))

    carrier = sigma_space(GradedModule.of({0: 1}))
    other = sigma_space(GradedModule.of({3: 2}))
    assert carrier.name == other.name == "Sigma(m)"
    mu, eta, delta, eps, anti = zero_structure(other)
    own = zero_structure(carrier)
    with pytest.raises(SpaceMismatch):
        Bimonoid(carrier, mu, eta, delta, eps, anti)
    # one map on the namesake is enough, the antipode included
    with pytest.raises(SpaceMismatch):
        Bimonoid(carrier, own[0], own[1], delta, own[3], own[4])
    with pytest.raises(SpaceMismatch):
        Bimonoid(carrier, *own[:4], anti)
    # the same basis under the same name is the same carrier
    same = sigma_space(GradedModule.of({0: 1}))
    Bimonoid(same, *own)


def test_a_distributive_law_on_another_carrier_of_the_same_name_is_refused():
    # D1 and D2 are both Sigma(d), in degrees 1 and 3: tau of D2 is not a
    # map on D1 (x) A, whatever the two carriers are called
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    A = gamma.ring.carrier
    D1 = graded_to_comodule(GradedModule.of({1: 1}, name="d"), gamma.ring)
    D2 = graded_to_comodule(GradedModule.of({3: 1}, name="d"), gamma.ring)
    assert D1.carrier.name == D2.carrier.name
    tau1, tau2 = distributive_law_tau(D1), distributive_law_tau(D2)
    assert tau1.dom is tensor_space(D1.carrier, A)
    assert tau1.cod is tensor_space(A, D1.carrier)
    assert tau2.dom is not tau1.dom


def test_comodules_over_namesake_rings_are_refused():
    # two I + D rings on (Sigma(d)+I), with d in degree 1 and in degree 3
    from hopfchains.linalg import SpaceMismatch, finite_space
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    H1, H2, again = (build_differential_hopf(d_comodule(k, gamma.ring), gamma,
                                             window=None).hopf for k in (1, 3, 1))
    assert H1.carrier.name == H2.carrier.name
    B = finite_space("b", [atom("b")])
    X, Y = trivial_comodule(H1, B), trivial_comodule(H2, B)
    with pytest.raises(SpaceMismatch, match="different rings"):
        tensor_comodule(X, Y)
    with pytest.raises(SpaceMismatch, match="shared ring"):
        comodule_braiding(X, Y, Coelement(H1, lambda a, b: 1))
    with pytest.raises(SpaceMismatch, match="different rings"):
        check_comodule_morphism(identity_map(B), X, Y, 0)
    # a rebuild of the same ring is the same ring, on one carrier object
    assert again.carrier is H1.carrier and H2.carrier is not H1.carrier
    assert check_comodule_morphism(identity_map(B), X, trivial_comodule(again, B), 0)


def test_a_comodule_bimonoid_braids_its_own_carrier_alone():
    # (I + D) on d in degree 1 and in degree 3: both carriers are
    # (Sigma(d)+I), and the braiding of one must refuse the other
    from hopfchains.linalg import SpaceMismatch, left
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    hb, other = (build_differential_hopf(d_comodule(k, gamma.ring), gamma, window=None)
                 for k in (1, 3))
    H = hb.hopf.carrier
    assert H.name == other.hopf.carrier.name == "(Sigma(d)+I)" and H is not other.hopf.carrier
    d = left(atom("d", 1, 0))
    braid = hb.braiding()
    assert braid(H, H).apply(pair(d, d)) == -Vec.basis(pair(d, d))
    for X, Y in ((other.hopf.carrier,) * 2, (H, other.hopf.carrier), (other.hopf.carrier, H)):
        with pytest.raises(SpaceMismatch):
            braid(X, Y)
