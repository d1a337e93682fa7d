import random

import pytest

from hopfchains.chains import ChainComplex, mat
from hopfchains.grading import (
    Bicharacter, GradedModule, comodule_to_graded_projections,
    graded_to_comodule, laurent_hopf, monomial, sigma_space, sign_coelement,
)
from hopfchains.laws import (
    Comodule, IllegalComodule, check_coelement, plain_swap,
    check_bialgebra_laws,
)
from hopfchains.linalg import (
    LinMap, Vec, atom, equal_on_window, identity_map, pair, finite_space,
    tensor_maps, tensor_space,
)
from hopfchains.pareigis import chain_to_comodule


def x(*g):
    return monomial(*g)


def test_every_monomial_is_group_like():
    Z = laurent_hopf(1)
    assert Z.delta.apply(x(3)) == Vec.basis(pair(x(3), x(3)))
    assert Z.eta.apply("1") == Vec.basis(x(0))
    assert Z.epsilon.apply(x(7)) == Vec.basis("1")


def test_antipode_inverts_exponents_and_satisfies_hopf_identities():
    Z = laurent_hopf(1)
    assert Z.antipode.apply(x(3)) == Vec.basis(x(-3))
    idz = identity_map(Z.carrier)
    lhs = Z.delta >> tensor_maps(Z.antipode, idz) >> Z.mu
    rhs = Z.epsilon >> Z.eta
    assert equal_on_window(lhs, rhs, 5)


def test_rank_two_ring_adds_exponent_vectors():
    Z2 = laurent_hopf(2)
    assert Z2.mu.apply(pair(x(1, -2), x(3, 5))) == Vec.basis(x(4, 3))
    assert check_bialgebra_laws(Z2, plain_swap(), 2).ok


def test_sign_coelement_values():
    g1 = sign_coelement(Bicharacter(1, (-1,)))
    assert g1.gamma(x(2), x(3)) == 1
    assert g1.gamma(x(1), x(1)) == -1
    g2 = sign_coelement(Bicharacter(2, (-1, 1)))
    assert g2.gamma(x(1, 1), x(1, 1)) == -1


def test_all_sign_vectors_up_to_rank_two_pass_the_axioms():
    for kappas in [(1,), (-1,)]:
        assert check_coelement(sign_coelement(Bicharacter(1, kappas)), 3).ok
    for kappas in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert check_coelement(sign_coelement(Bicharacter(2, kappas)), 2).ok


def test_graded_to_comodule_tags_by_degree():
    M = GradedModule.of({2: 1}, name="m")
    X = graded_to_comodule(M)
    b = M.basis_at(2)[0]
    assert X.coaction.apply(b) == Vec.basis(pair(x(2), b))

    zero = graded_to_comodule(GradedModule.of({}, rank=1, name="z"))
    assert zero.carrier.enumerate(0) == []

    two = GradedModule.of({1: 1, -1: 1}, name="w")
    Y = graded_to_comodule(two)
    for deg in (1, -1):
        b = two.basis_at(deg)[0]
        assert Y.coaction.apply(b) == Vec.basis(pair(x(deg), b))


def test_projections_of_trivial_grading_is_identity():
    ring = laurent_hopf(1)
    M = GradedModule.of({0: 2}, name="m")
    X = graded_to_comodule(M, ring)
    projections = comodule_to_graded_projections(X)
    assert list(projections) == [(0,)]
    for b in M.basis():
        assert projections[(0,)].apply(b) == Vec.basis(b)


def test_projections_read_coordinates():
    M = GradedModule.of({1: 1, 2: 1}, name="m")
    X = graded_to_comodule(M)
    u, v = M.basis_at(1)[0], M.basis_at(2)[0]
    ps = comodule_to_graded_projections(X)
    assert ps[(1,)].apply(u) == Vec.basis(u)
    assert ps[(1,)].apply(v) == Vec.zero()
    assert ps[(2,)].apply(v) == Vec.basis(v)


def test_projections_on_a_non_homogeneous_basis():
    # Basis {u, w} with w = u + v in the homogeneous basis {u, v}:
    # beta(u) = x^1 (x) u, beta(w) = x^1 (x) u + x^2 (x) (w - u).
    ring = laurent_hopf(1)
    u, w = atom("b", 0), atom("b", 1)
    carrier = finite_space("uw", [u, w])

    def coact(label):
        if label == u:
            return Vec.basis(pair(x(1), u))
        return Vec.basis(pair(x(1), u)) + Vec.basis(pair(x(2), w)) - Vec.basis(pair(x(2), u))

    X = Comodule(ring, carrier, LinMap(carrier, tensor_space(ring.carrier, carrier),
                                       coact, name="beta"), check_window=0)
    ps = comodule_to_graded_projections(X)
    assert ps[(1,)].apply(w) == Vec.basis(u)
    assert ps[(2,)].apply(w) == Vec.basis(w) - Vec.basis(u)
    # idempotence and orthogonality were verified inside the call; check one:
    assert ps[(2,)](ps[(2,)].apply(w)) == ps[(2,)].apply(w)


def test_projection_round_trip_on_random_modules():
    rng = random.Random(99)
    for _ in range(40):
        r = rng.randint(1, 3)
        comps = {}
        for _ in range(rng.randint(1, 4)):
            deg = tuple(rng.randint(-3, 3) for _ in range(r))
            comps[deg] = rng.randint(1, 3)
        M = GradedModule.of(comps, rank=r, name="m")
        X = graded_to_comodule(M)
        ps = comodule_to_graded_projections(X)
        assert set(ps) == set(M.degrees())
        for deg in M.degrees():
            for b in M.basis_at(deg):
                assert ps[deg].apply(b) == Vec.basis(b)


def test_reassembling_projections_recovers_the_coaction():
    ring = laurent_hopf(1)
    u, w = atom("b", 0), atom("b", 1)
    carrier = finite_space("uw2", [u, w])

    def coact(label):
        if label == u:
            return Vec.basis(pair(x(1), u))
        return Vec.basis(pair(x(1), u)) + Vec.basis(pair(x(2), w)) - Vec.basis(pair(x(2), u))

    X = Comodule(ring, carrier, LinMap(carrier, tensor_space(ring.carrier, carrier),
                                       coact, name="beta"), check_window=0)
    ps = comodule_to_graded_projections(X)
    for b in (u, w):
        total = Vec.zero()
        for deg, p in ps.items():
            total = total + Vec.basis(x(*deg)).tensor(p.apply(b))
        assert total == X.coaction.apply(b)


def test_illegal_coaction_is_rejected_by_projections():
    ring = laurent_hopf(1)
    b = atom("b", 0)
    carrier = finite_space("bad2", [b])
    images = [
        # not counital: collapses to x^1 (x) b plus x^2 (x) b
        Vec.basis(pair(x(1), b)) + Vec.basis(pair(x(2), b)),
        # counital (2 - 1 = 1) but not coassociative: p_1 = 2 is no idempotent
        2 * Vec.basis(pair(x(1), b)) - Vec.basis(pair(x(2), b)),
    ]
    for image in images:
        X = Comodule(ring, carrier, LinMap(carrier, tensor_space(ring.carrier, carrier),
                                           lambda l, image=image: image, name="beta"),
                     check_window=None)
        with pytest.raises(IllegalComodule):
            comodule_to_graded_projections(X)


def test_a_comodule_over_a_ring_with_non_group_like_terms_is_refused():
    # a legal comodule over P: its coaction has the skew-primitive xi in it,
    # so coefficients of ring monomials are not projections
    e = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])}, name="e")
    X = chain_to_comodule(e, -1)
    with pytest.raises(IllegalComodule, match="not group-like"):
        comodule_to_graded_projections(X)


def test_sigma_forgets_the_grading():
    M = GradedModule.of({1: 1, -1: 1}, name="m")
    assert len(sigma_space(M).enumerate(0)) == 2
    assert sigma_space(GradedModule.of({}, rank=1, name="z")).enumerate(0) == []
    assert len(sigma_space(GradedModule.of({0: 2}, name="m")).enumerate(0)) == 2


def test_there_is_one_laurent_ring_per_rank():
    assert laurent_hopf() is laurent_hopf(1) is laurent_hopf(r=1)
    assert laurent_hopf(2) is not laurent_hopf(1)
    for kappas in ((1, 1), (1, -1), (-1, -1)):
        assert sign_coelement(Bicharacter(2, kappas)).ring is laurent_hopf(2)
    for M in (GradedModule.of({(1, 0): 2}), GradedModule.of({3: 1})):
        assert graded_to_comodule(M).ring is laurent_hopf(M.rank)


def test_dim_at_looks_a_degree_up_however_it_is_spelled():
    M = GradedModule.of({(1, 0): 2, (-1, 2): 1}, rank=2, name="m")
    assert M.dim_at((1, 0)) == 2 and M.dim_at([-1, 2]) == 1 and M.dim_at((0, 0)) == 0
    N = GradedModule.of({3: 4}, name="n")
    assert N.dim_at(3) == N.dim_at((3,)) == 4 and N.dim_at(2) == 0
    # the lookup table is no field: equality, hashing and repr ignore it
    same = GradedModule(2, (((-1, 2), 1), ((1, 0), 2)), "m")
    assert same == M and hash(same) == hash(M)
    assert repr(M) == "GradedModule(rank=2, components=(((-1, 2), 1), ((1, 0), 2)), name='m')"
