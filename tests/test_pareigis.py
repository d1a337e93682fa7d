import itertools
import random
import re

import pytest

from hopfchains.chains import ChainComplex, mat, random_chain_map, random_complex
from hopfchains.grading import monomial
from hopfchains.laws import IllegalComodule, check_comodule_morphism
from hopfchains.linalg import LinMap, Vec, atom, finite_space, pair, tensor_space
from hopfchains.pareigis import (
    ALPHABET, PSI, XI, XI_INV, chain_map_to_linmap, chain_to_comodule,
    comodule_to_chain, identify_semidirect, linmap_to_chain_map, monomial as pm,
    normalize_word, pareigis_ring, rewrite_once, ring_by_name, word_of,
)


def test_normal_form_examples():
    assert normalize_word([XI, PSI, XI_INV]) == Vec.basis(pm(1, 0), -1)
    assert normalize_word([PSI, PSI]) == Vec.zero()
    assert normalize_word([XI, XI_INV]) == Vec.basis(pm(0, 0))
    assert normalize_word([]) == Vec.basis(pm(0, 0))
    assert normalize_word([XI, XI, PSI]) == Vec.basis(pm(1, 2))


def normal_forms_by_exhaustive_rewriting(word):
    "Every fully reduced signed word reachable by single rewrite steps."
    seen = set()
    results = set()
    stack = [(1, tuple(word))]
    while stack:
        sign, w = stack.pop()
        if (sign, w) in seen:
            continue
        seen.add((sign, w))
        steps = rewrite_once(list(w))
        reduced = True
        for coeff, w2 in steps:
            reduced = False
            stack.append((sign * coeff, tuple(w2)))
        if reduced:
            results.add((sign, w))
    return results


def test_rewriting_is_confluent_up_to_length_six():
    for length in range(0, 7):
        for word in itertools.product(ALPHABET, repeat=length):
            forms = normal_forms_by_exhaustive_rewriting(word)
            vecs = set()
            for sign, w in forms:
                if sign == 0:
                    vecs.add(())
                else:
                    v = normalize_word(list(w))
                    # reduced words must already be in normal form
                    assert not rewrite_once(list(w))
                    vecs.add(tuple(sorted((k, sign * c) for k, c in v.items())))
            assert len(vecs) == 1, (word, vecs)
            expected = normalize_word(list(word))
            got = next(iter(vecs))
            assert tuple(sorted(expected.items())) == got


@pytest.mark.parametrize("s", [-1, 1])
def test_generator_structure_constants(s):
    P = pareigis_ring(s)
    psi, xi = pm(1, 0), pm(0, 1)
    one = pm(0, 0)
    assert P.delta.apply(xi) == Vec.basis(pair(xi, xi))
    assert P.delta.apply(psi) == (Vec.basis(pair(psi, one))
                                  + Vec.basis(pair(pm(0, s), psi)))
    assert P.epsilon.apply(psi) == Vec.zero()
    assert P.epsilon.apply(xi) == Vec.basis("1")
    assert P.antipode.apply(xi) == Vec.basis(pm(0, -1))
    assert P.antipode.apply(psi) == Vec.basis(pm(1, -s))
    # xi.psi = -psi.xi and psi^2 = 0 in the multiplication
    assert P.mu.apply(pair(xi, psi)) == Vec.basis(pm(1, 1), -1)
    assert P.mu.apply(pair(psi, psi)) == Vec.zero()


def test_coproduct_of_psi_xi():
    P = pareigis_ring(-1)
    psixi = pm(1, 1)
    got = P.delta.apply(psixi)
    want = (Vec.basis(pair(pm(1, 1), pm(0, 1)))
            + Vec.basis(pair(pm(0, 0), pm(1, 1))))
    assert got == want


def test_the_two_rings_differ_exactly_in_the_coproduct_tail():
    P, Q = pareigis_ring(-1), pareigis_ring(1)
    psi = pm(1, 0)
    assert P.delta.apply(psi) != Q.delta.apply(psi)
    assert P.mu.apply(pair(pm(0, 1), psi)) == Q.mu.apply(pair(pm(0, 1), psi))


def test_ring_by_name():
    assert ring_by_name("pareigis").s == -1
    assert ring_by_name("pareigis-plus").s == 1
    with pytest.raises(KeyError):
        ring_by_name("nope")


@pytest.mark.parametrize("s", [-1, 1])
def test_identification_with_the_semidirect_product(s):
    report = identify_semidirect(s, K=4)
    assert report.ok, report.failures()
    assert {r.law for r in report} >= {"mu", "eta", "delta", "epsilon", "antipode"}


def test_coaction_of_the_two_step_complex():
    X = ChainComplex({1: 1, 0: 1}, {1: mat([[2]])}, name="t")
    com = chain_to_comodule(X, 1)
    b1, b0 = atom("t", 1, 0), atom("t", 0, 0)
    assert com.coaction.apply(b1) == (Vec.basis(pair(pm(0, 1), b1))
                                      + 2 * Vec.basis(pair(pm(1, 0), b0)))
    assert com.coaction.apply(b0) == Vec.basis(pair(pm(0, 0), b0))


def test_zero_differential_reduces_to_the_grading_coaction():
    X = ChainComplex({2: 1, 0: 2}, {}, name="g")
    com = chain_to_comodule(X, 1)
    for n in X.degrees():
        for i in range(X.rank(n)):
            b = atom("g", n, i)
            assert com.coaction.apply(b) == Vec.basis(pair(pm(0, n), b))


def test_differential_extraction():
    ring = pareigis_ring(1)
    u, v = atom("c", 1, 0), atom("c", 0, 0)
    carrier = finite_space("c", [u, v])

    def beta(label):
        if label == u:
            return Vec.basis(pair(pm(0, 1), u)) + Vec.basis(pair(pm(1, 0), v))
        return Vec.basis(pair(pm(0, 0), v))

    from hopfchains.laws import Comodule
    com = Comodule(ring, carrier,
                   LinMap(carrier, tensor_space(ring.carrier, carrier), beta,
                          name="beta"), check_window=0)
    X = comodule_to_chain(com)
    assert X.ranks == {1: 1, 0: 1}
    assert X.d(1)[0, 0] == 1


@pytest.mark.parametrize("s", [-1, 1])
def test_round_trip_on_random_complexes(s):
    rng = random.Random(64)
    for trial in range(20):
        X = random_complex(rng, name="r%d" % trial)
        com = chain_to_comodule(X, s)
        assert comodule_to_chain(com) == X


def test_non_homogeneous_basis_is_rejected():
    # legal comodule in a skew basis: w = u + v hides the grading
    ring = pareigis_ring(1)
    u, w = atom("k", 0), atom("k", 1)
    carrier = finite_space("k", [u, w])

    def beta(label):
        if label == u:
            return Vec.basis(pair(pm(0, 1), u))
        return (Vec.basis(pair(pm(0, 1), u)) + Vec.basis(pair(pm(0, 2), w))
                - Vec.basis(pair(pm(0, 2), u)))

    from hopfchains.laws import Comodule
    com = Comodule(ring, carrier,
                   LinMap(carrier, tensor_space(ring.carrier, carrier), beta,
                          name="beta"), check_window=0)
    with pytest.raises(IllegalComodule):
        comodule_to_chain(com)


@pytest.mark.parametrize("s", [-1, 1])
def test_chain_maps_transport_to_comodule_morphisms(s):
    rng = random.Random(7)
    for trial in range(10):
        X = random_complex(rng, name="x%d" % trial, max_window=4, max_rank=3)
        f = random_chain_map(rng, X)
        g = random_chain_map(rng, X)
        cx = chain_to_comodule(X, s)
        lf = chain_map_to_linmap(f, s, cx, cx)
        lg = chain_map_to_linmap(g, s, cx, cx)
        assert check_comodule_morphism(lf, cx, cx, 0)
        # composition is preserved and transport is invertible
        assert linmap_to_chain_map(lf >> lg, X, X) == f.then(g)
        assert linmap_to_chain_map(lf, X, X) == f


def test_word_of_inverts_normal_forms():
    for a in (0, 1):
        for k in (-3, 0, 4):
            assert normalize_word(word_of(pm(a, k))) == Vec.basis(pm(a, k))


def test_comodule_json_round_trip():
    import json

    from hopfchains.pareigis import comodule_from_json, comodule_to_json

    rng = random.Random(5)
    for s in (-1, 1):
        X = random_complex(rng, name="j", max_window=4, max_rank=3)
        com = chain_to_comodule(X, s)
        doc = json.loads(json.dumps(comodule_to_json(com)))
        back = comodule_from_json(doc)
        assert back.ring.s == s
        for b in com.carrier.enumerate(0):
            assert back.coaction.apply(b) == com.coaction.apply(b)
        assert comodule_to_chain(back, name=X.name) == X


@pytest.mark.parametrize("coeff", [True, 1.0, 1.5], ids=["boolean", "integral-float", "fraction"])
def test_comodule_json_rejects_non_integer_coefficients(coeff):
    import json

    from hopfchains.pareigis import comodule_from_json, comodule_to_json

    X = ChainComplex({0: 1}, {}, name="j")
    doc = json.loads(json.dumps(comodule_to_json(chain_to_comodule(X, -1))))
    key = next(iter(doc["coaction"]))
    doc["coaction"][key][0][0] = coeff
    with pytest.raises(ValueError, match="basis key %s" % re.escape(key)):
        comodule_from_json(doc)
