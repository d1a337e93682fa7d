import itertools
import re

import pytest

from hopfchains.grading import (
    Bicharacter, GradedModule, graded_to_comodule, laurent_hopf, monomial,
    sigma_space, sign_coelement,
)
from hopfchains.laws import check_bialgebra_laws, check_coelement, plain_swap
from hopfchains.linalg import (
    SpaceMismatch, Vec, atom, equal_on_window, identity_map, pair, tensor_maps,
)
from hopfchains.pareigis import pareigis_ring


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
    assert all(check_bialgebra_laws(Z2, plain_swap(), 2))


def test_sign_coelement_values():
    g1 = sign_coelement(Bicharacter(1, (-1,)))
    assert g1.gamma(x(2), x(3)) == 1
    assert g1.gamma(x(1), x(1)) == -1
    g2 = sign_coelement(Bicharacter(2, (-1, 1)))
    assert g2.gamma(x(1, 1), x(1, 1)) == -1


def test_sign_coelement_is_the_product_of_its_kappas():
    # every kappas vector of ranks 1 to 3, on every g and h in [-3, 3]^r
    for r in (1, 2, 3):
        exponents = list(itertools.product(range(-3, 4), repeat=r))
        labels = [x(*g) for g in exponents]
        for kappas in itertools.product((1, -1), repeat=r):
            b = Bicharacter(r, kappas)
            gamma = sign_coelement(b).gamma
            for g, xg in zip(exponents, labels):
                for h, xh in zip(exponents, labels):
                    want = 1
                    for k, gc, hc in zip(kappas, g, h):
                        if k == -1:
                            want *= (-1) ** ((gc * hc) % 2)
                    assert gamma(xg, xh) == b.pairing(g, h) == want, (kappas, g, h)


def test_a_bicharacter_compares_hashes_and_prints_by_its_fields_only():
    b, c = Bicharacter(3, (-1, 1, -1)), Bicharacter(3, (-1, 1, -1))
    assert b == c and hash(b) == hash(c)
    assert b != Bicharacter(3, (-1, -1, 1))
    assert repr(b) == "Bicharacter(rank=3, kappas=(-1, 1, -1))"


def test_all_sign_vectors_up_to_rank_two_pass_the_axioms():
    for kappas in [(1,), (-1,)]:
        assert all(check_coelement(sign_coelement(Bicharacter(1, kappas)), 3))
    for kappas in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert all(check_coelement(sign_coelement(Bicharacter(2, kappas)), 2))


def test_graded_to_comodule_tags_by_degree():
    M = GradedModule.of({2: 1}, name="m")
    X = graded_to_comodule(M)
    b, = M.basis()
    assert X.coaction.apply(b) == Vec.basis(pair(x(2), b))

    zero = graded_to_comodule(GradedModule.of({}, rank=1, name="z"))
    assert zero.carrier.enumerate(0) == []

    two = GradedModule.of({1: 1, -1: 1}, name="w")
    Y = graded_to_comodule(two)
    for deg, b in zip((-1, 1), two.basis()):
        assert Y.coaction.apply(b) == Vec.basis(pair(x(deg), b))


def test_sigma_forgets_the_grading():
    M = GradedModule.of({1: 1, -1: 1}, name="m")
    assert len(sigma_space(M).enumerate(0)) == 2
    assert sigma_space(GradedModule.of({}, rank=1, name="z")).enumerate(0) == []
    assert len(sigma_space(GradedModule.of({0: 2}, name="m")).enumerate(0)) == 2


def test_there_is_one_laurent_ring_per_rank():
    assert laurent_hopf(1) is laurent_hopf(1)
    assert laurent_hopf(2) is not laurent_hopf(1)
    # the rank is passed by position only, so one spelling is one cache key
    for call in (lambda: laurent_hopf(r=1), lambda: laurent_hopf()):
        with pytest.raises(TypeError):
            call()
    for kappas in ((1, 1), (1, -1), (-1, -1)):
        assert sign_coelement(Bicharacter(2, kappas)).ring is laurent_hopf(2)
    for M in (GradedModule.of({(1, 0): 2}), GradedModule.of({3: 1})):
        assert graded_to_comodule(M).ring is laurent_hopf(M.rank)


def test_a_ring_of_another_rank_is_refused():
    # x^(deg b) is a basis label of laurent_hopf(M.rank) alone
    for M, ring in ((GradedModule.of({1: 1}, rank=1), laurent_hopf(2)),
                    (GradedModule.of({(1, 0): 1}, rank=2), laurent_hopf(1)),
                    (GradedModule.of({1: 1}, rank=1), pareigis_ring(-1))):
        with pytest.raises(SpaceMismatch, match=r"rank %d is a comodule over "
                           r"laurent_hopf\(%d\), not over %s$"
                           % (M.rank, M.rank, re.escape(ring.carrier.name))):
            graded_to_comodule(M, ring)


def test_the_dims_given_for_one_degree_add_up_however_it_is_spelled():
    d = GradedModule.of({1: 2, (1,): 1, 2: 0}, rank=1, name="d")
    assert d.components == (((1,), 3),)
    # each label is listed once, so the comodule has rank 3
    assert d.basis() == [atom("d", 1, i) for i in range(3)]
    assert graded_to_comodule(d).carrier.enumerate(0) == d.basis()
    M = GradedModule.of([((1, 0), 2), ((-1, 2), 1), ([1, 0], 1)], rank=2, name="m")
    assert M.components == (((-1, 2), 1), ((1, 0), 3))
    # equality, hashing and repr see the components as normalised
    same = GradedModule(2, (((-1, 2), 1), ((1, 0), 3)), "m")
    assert same == M and hash(same) == hash(M)
    assert repr(M) == "GradedModule(rank=2, components=(((-1, 2), 1), ((1, 0), 3)), name='m')"


@pytest.mark.parametrize("components, message", [
    ({1: -2, 2: 1}, "degree (1,) has negative dim -2"),
    ([((0, 1), 3), ((0, 1), -1)], "degree (0, 1) has negative dim -1"),
])
def test_a_negative_dim_is_refused_with_its_degree(components, message):
    # summed, the second still holds a positive dim; each given dim is checked
    with pytest.raises(ValueError, match=re.escape(message)):
        GradedModule.of(components, name="n")
