import itertools
import random
import re

import pytest

from hopfchains import diffhopf, semidirect
from hopfchains.chains import (
    ChainComplex, ChainMap, IllegalChain, _column, eye, mat, random_complex,
    tensor_chains, zeros,
)
from hopfchains.diffhopf import two_term_ring
from hopfchains.laws import (
    Bimonoid, IllegalComodule, check_bialgebra_laws, check_comodule_morphism,
    check_hopf_morphism, plain_swap, tensor_comodule,
)
from hopfchains.linalg import (
    UNIT, LinMap, Vec, atom, equal_on_window, finite_space, identity_map, left,
    pair, show_label, tensor_space,
)
from hopfchains.pareigis import (
    chain_to_comodule, comodule_to_chain, identify_semidirect, monomial as pm,
    pareigis_ring, ring_by_name,
)

from random_maps import matrix_sum, random_chain_map

# ---------------------------------------------------------------------------
# the rewriting oracle: words over the generators, rewritten by the
# relations alone, with no formula of the ring's structure maps

XI = "xi"
XI_INV = "xi'"
PSI = "psi"

# the letters of P's words
ALPHABET = (XI, XI_INV, PSI)


def word_of(label):
    "Tokens of a normal form, psi first."
    a, k = label[2]
    return [PSI] * a + ([XI] * k if k >= 0 else [XI_INV] * (-k))


def normalize_word(word):
    """Rewrite a word over {xi, xi', psi} to its normal form.

    The relations xi.psi -> -psi.xi, xi'.psi -> -psi.xi', psi.psi -> 0
    and xi.xi' -> 1 <- xi'.xi are confluent; the result is +-(psi^a xi^k)
    or zero, returned as a vector.

    >>> normalize_word([XI, PSI, XI_INV])
    -pareigis(1,0)
    >>> normalize_word([PSI, PSI])
    0
    >>> normalize_word([XI, XI_INV])
    pareigis(0,0)
    """
    sign, a, k = 1, 0, 0
    for token in word:
        if token == XI:
            k += 1
        elif token == XI_INV:
            k -= 1
        elif token == PSI:
            if a:
                return Vec.zero()
            if k % 2:
                sign = -sign
            a = 1
        else:
            raise ValueError("unknown letter %r" % (token,))
    return Vec.basis(pm(a, k), sign)


def rewrite_once(word):
    """All single rewriting steps from a word: list of (coeff, word) pairs.

    Used to verify confluence: every maximal rewrite sequence of a word
    ends in the same signed normal form.
    """
    out = []
    for i in range(len(word) - 1):
        u, v = word[i], word[i + 1]
        head, tail = list(word[:i]), list(word[i + 2:])
        if u in (XI, XI_INV) and v == PSI:
            out.append((-1, head + [PSI, u] + tail))
        elif u == PSI and v == PSI:
            out.append((0, []))
        elif (u, v) in ((XI, XI_INV), (XI_INV, XI)):
            out.append((1, head + tail))
    return out


def chain_map_to_linmap(f, src_comodule, tgt_comodule):
    "Transport a chain map to a map of the underlying based spaces."
    def fn(label):
        n, i = label[2]
        return Vec(_column(f.blocks.get(n), i, lambda j: atom(f.tgt.name, n, j)))

    return LinMap(src_comodule.carrier, tgt_comodule.carrier, fn,
                  name="chainmap")


def linmap_to_chain_map(g, X, Y):
    """Read a based-space map back into degree-wise matrices; an image
    label outside Y's basis in its source's degree is IllegalChain."""
    blocks = {}
    for n in X.degrees():
        b = zeros(Y.rank(n), X.rank(n))
        rows = {atom(Y.name, n, j): j for j in range(Y.rank(n))}
        for i in range(X.rank(n)):
            for lbl, c in g.apply(atom(X.name, n, i)).items():
                if lbl not in rows:
                    raise IllegalChain("image label %s is not in the degree-%d basis of %s"
                                       % (show_label(lbl), n, Y.name))
                b[rows[lbl], i] = c
        blocks[n] = b
    return ChainMap(X, Y, blocks)


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


def inverting_xi(sign):
    """phi: P -> P+, psi^a xi^k |-> (sign.psi)^a xi^-k, so P+ is P with its
    grading group turned round by g |-> -g."""
    def fn(label):
        a, k = label[2]
        return Vec.basis(pm(a, -k), sign ** a)
    return LinMap(pareigis_ring(-1).carrier, pareigis_ring(1).carrier, fn, name="phi")


@pytest.mark.parametrize("sign", [1, -1])
def test_inverting_xi_is_a_hopf_isomorphism_onto_p_plus(sign):
    report = check_hopf_morphism(inverting_xi(sign), pareigis_ring(-1), pareigis_ring(1), 6)
    assert [r.law for r in report] == ["mu", "eta", "delta", "epsilon", "antipode"]
    assert all(report), [r for r in report if not r]


def test_the_plain_relabelling_of_p_onto_p_plus_is_no_hopf_map():
    P, Q = pareigis_ring(-1), pareigis_ring(1)
    plain = LinMap(P.carrier, Q.carrier, lambda label: Vec.basis(pm(*label[2])), name="plain")
    report = check_hopf_morphism(plain, P, Q, 6)
    assert {r.law for r in report if not r} == {"delta", "antipode"}


def test_every_s_plus_one_coaction_is_its_twin_transported_along_phi():
    # the complexes of the roundtrip golden's seed: the s = +1 coaction is
    # the s = -1 one followed by phi (x) 1, and only for phi's sign +1
    rng = random.Random(42)
    phi, control = inverting_xi(1), inverting_xi(-1)
    differ = 0
    for trial in range(100):
        X = random_complex(rng, name="rt%d" % trial)
        plus = chain_to_comodule(X, 1).coaction
        minus = chain_to_comodule(X, -1).coaction
        idx = identity_map(X.space())
        assert equal_on_window(minus >> (phi @ idx), plus, 0), trial
        differ += not equal_on_window(minus >> (control @ idx), plus, 0)
    assert differ > 0


def test_the_s_plus_one_i_plus_d_is_its_twin_transported_along_inverting_x():
    # rho: d(1) |-> d(-1) is a Hopf map of the two I + D, and it carries
    # the coaction across x |-> x^-1, the Laurent antipode
    plus, minus = two_term_ring((1,), (-1,)), two_term_ring((-1,), (-1,))
    d = left(atom("d", -1, 0))
    rho = LinMap(plus.hopf.carrier, minus.hopf.carrier,
                 lambda label: Vec.basis(d if label[0] == "L" else label), name="rho")
    report = check_hopf_morphism(rho, plus.hopf, minus.hopf, 0)
    assert all(report), [r for r in report if not r]
    A = plus.ring
    assert A is minus.ring
    transported = rho >> minus.comodule.coaction
    assert equal_on_window(plus.comodule.coaction >> (A.antipode @ rho), transported, 0)
    control = plus.comodule.coaction >> (identity_map(A.carrier) @ rho)
    assert not equal_on_window(control, transported, 0)


def test_ring_by_name():
    assert ring_by_name("pareigis").s == -1
    assert ring_by_name("pareigis-plus").s == 1
    with pytest.raises(KeyError):
        ring_by_name("nope")


@pytest.mark.parametrize("s", [-1, 1])
def test_identification_with_the_semidirect_product(s):
    report = identify_semidirect(s, K=4)
    assert all(report), [r for r in report if not r]
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
    assert X.diffs[1][0, 0] == 1


@pytest.mark.parametrize("s", [-1, 1])
def test_round_trip_on_random_complexes(s):
    rng = random.Random(64)
    for trial in range(20):
        X = random_complex(rng, name="r%d" % trial)
        com = chain_to_comodule(X, s)
        assert comodule_to_chain(com) == X


@pytest.mark.parametrize("s", [-1, 1])
def test_the_tensor_of_comodules_is_the_koszul_tensor_of_complexes(s):
    # the ring's product mu on the psi legs carries the Koszul sign of
    # tensor_chains, and the tensor carrier lists its basis in _offsets order
    rng = random.Random(71)
    for _ in range(150):
        A = random_complex(rng, name="a", max_window=4, max_rank=3)
        B = random_complex(rng, name="b", max_window=4, max_rank=3)
        both = tensor_comodule(chain_to_comodule(A, s), chain_to_comodule(B, s))
        assert comodule_to_chain(both) == tensor_chains(A, B)


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


_K2, _K1, _K0 = atom("k", 2), atom("k", 1), atom("k", 0)

# coactions over P+ (s = +1: a degree-n vector has grade xi^n and its
# differential terms psi xi^(n-1)), each term a (ring label, vector,
# coefficient) triple; the basis vector named is the one that breaks.
# "other-family" carries psi xi^0's payload (1, 0) under another
# family's label, and "no-ring-factor" has a term pair(UNIT, k0) = k0.
MALFORMED_COMODULES = {
    "no-ring-factor": ({_K0: [(pm(0, 0), _K0, 1), (UNIT, _K0, 1)]},
                       "round trip does not reproduce the coaction of %s" % (_K0,)),
    "other-family": ({_K1: [(pm(0, 1), _K1, 1), (atom("other", 1, 0), _K0, 1)],
                      _K0: [(pm(0, 0), _K0, 1)]},
                     "round trip does not reproduce the coaction of %s" % (_K1,)),
    "wrong-grade": ({_K1: [(pm(0, 1), _K1, 1), (pm(1, 5), _K0, 1)],
                     _K0: [(pm(0, 0), _K0, 1)]},
                    "round trip does not reproduce the coaction of %s" % (_K1,)),
    "two-degrees-down": ({_K2: [(pm(0, 2), _K2, 1), (pm(1, 1), _K0, 1)],
                          _K1: [(pm(0, 1), _K1, 1)],
                          _K0: [(pm(0, 0), _K0, 1)]},
                         "round trip does not reproduce the coaction of %s" % (_K2,)),
    "no-degree-below": ({_K0: [(pm(0, 0), _K0, 1), (pm(1, -1), _K0, 1)]},
                        "round trip does not reproduce the coaction of %s" % (_K0,)),
    "d-squared": ({_K2: [(pm(0, 2), _K2, 1), (pm(1, 1), _K1, 1)],
                   _K1: [(pm(0, 1), _K1, 1), (pm(1, 0), _K0, 1)],
                   _K0: [(pm(0, 0), _K0, 1)]},
                  "d.d != 0 at degree 2"),
    # a skipped term on the first basis vector and d.d != 0: the complex's
    # own check comes first
    "d-squared-and-skipped": ({_K2: [(pm(0, 2), _K2, 1), (pm(1, 1), _K1, 1),
                                     (pm(1, 5), _K0, 1)],
                               _K1: [(pm(0, 1), _K1, 1), (pm(1, 0), _K0, 1)],
                               _K0: [(pm(0, 0), _K0, 1)]},
                              "d.d != 0 at degree 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COMODULES))
def test_comodule_to_chain_refuses_a_malformed_coaction(case):
    # built with no law check, so only comodule_to_chain can refuse them
    from hopfchains.laws import Comodule

    table, message = MALFORMED_COMODULES[case]
    ring = pareigis_ring(1)
    carrier = finite_space("k", list(table))
    beta = LinMap(carrier, tensor_space(ring.carrier, carrier),
                  lambda b: Vec({pair(r, x): c for r, x, c in table[b]}), name="beta")
    com = Comodule(ring, carrier, beta, check_window=None)
    with pytest.raises(IllegalComodule, match=re.escape(message)):
        comodule_to_chain(com)


@pytest.mark.parametrize("s", [-1, 1])
def test_comodule_to_chain_splits_each_coaction_term_once(monkeypatch, s):
    from hopfchains import pareigis

    X = random_complex(random.Random(9), name="r", max_window=4, max_rank=3)
    com = chain_to_comodule(X, s)
    terms = sum(len(list(com.coaction.apply(b).items())) for b in com.carrier.enumerate(0))
    calls = []
    real = pareigis.split_label

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pareigis, "split_label", spy)
    assert comodule_to_chain(com) == X
    assert len(calls) == terms


@pytest.mark.parametrize("s", [-1, 1])
def test_a_chain_map_between_two_complexes_transports_to_a_comodule_morphism(s):
    # Y is X under another name, and f the identity plus a null-homotopic
    # map: the image of a label of X is a vector of Y's basis, named by Y
    rng = random.Random(11)
    for trial in range(10):
        X = random_complex(rng, name="x%d" % trial, max_window=4, max_rank=3)
        Y = ChainComplex(X.ranks, X.diffs, name="y%d" % trial)
        h = random_chain_map(rng, X, Y)
        f = ChainMap(X, Y, {n: matrix_sum(eye(X.rank(n)),
                                          h.blocks.get(n, zeros(X.rank(n), X.rank(n))))
                            for n in X.degrees()})
        cx, cy = chain_to_comodule(X, s), chain_to_comodule(Y, s)
        lf = chain_map_to_linmap(f, cx, cy)
        for b in X.basis():
            assert {y for y, _ in lf.apply(b).items()} <= set(Y.basis())
        assert check_comodule_morphism(lf, cx, cy, 0)
        assert linmap_to_chain_map(lf, X, Y) == f


@pytest.mark.parametrize("s", [-1, 1])
def test_chain_maps_transport_to_comodule_morphisms(s):
    rng = random.Random(7)
    for trial in range(10):
        X = random_complex(rng, name="x%d" % trial, max_window=4, max_rank=3)
        f = random_chain_map(rng, X)
        g = random_chain_map(rng, X)
        cx = chain_to_comodule(X, s)
        lf = chain_map_to_linmap(f, cx, cx)
        lg = chain_map_to_linmap(g, cx, cx)
        assert check_comodule_morphism(lf, cx, cx, 0)
        # composition is preserved and transport is invertible
        assert linmap_to_chain_map(lf >> lg, X, X) == f.then(g)
        assert linmap_to_chain_map(lf, X, X) == f


@pytest.mark.parametrize("image", [atom("x", 0, 0), atom("y", 0, 1), atom("y", 0),
                                   atom("y", 1, 0)],
                         ids=["source-family", "out-of-range", "no-degree", "other-degree"])
def test_an_image_outside_the_target_basis_is_refused(image):
    # X and Y have the same ranks; only y(0,0) is a degree-0 label of Y
    X = ChainComplex({0: 1, 1: 1}, {}, name="x")
    Y = ChainComplex({0: 1, 1: 1}, {}, name="y")
    g = LinMap(X.space(), Y.space(), lambda l: Vec.basis(image), name="g")
    with pytest.raises(IllegalChain, match=re.escape(show_label(image))):
        linmap_to_chain_map(g, X, Y)


def test_word_of_inverts_normal_forms():
    for a in (0, 1):
        for k in (-3, 0, 4):
            assert normalize_word(word_of(pm(a, k))) == Vec.basis(pm(a, k))


@pytest.mark.parametrize("s", [-1, 1])
def test_closed_form_product_agrees_with_rewriting_words(s):
    # normalize_word is the independent oracle: it rewrites the word of
    # x followed by the word of y, with no formula for the sign
    ring = pareigis_ring(s)
    window = ring.carrier.enumerate(6)
    for x, y in itertools.product(window, window):
        assert ring.mu.apply(pair(x, y)) == normalize_word(word_of(x) + word_of(y)), (x, y)


def test_identify_semidirect_builds_i_plus_d_once_per_sign(monkeypatch):
    first = identify_semidirect(1, K=2)
    suites = []
    real = semidirect.check_bialgebra_laws

    def spy(B, braid, K):
        suites.append(B)
        return real(B, braid, K)

    monkeypatch.setattr(semidirect, "check_bialgebra_laws", spy)
    again = identify_semidirect(1, K=2)
    assert suites == []
    assert [r.to_json() for r in again] == [r.to_json() for r in first]


@pytest.mark.parametrize("s", [0, 2, 3])
def test_identify_semidirect_refuses_a_bad_sign_before_building(monkeypatch, s):
    # 0 and 2 give no admissible I + D, and 3 gives one with no Pareigis
    # ring to compare with: each is the same ValueError, and nothing is
    # built for it, neither an I + D nor a product
    built = []
    monkeypatch.setattr(diffhopf, "build_differential_hopf",
                        lambda *args, **kwargs: built.append("I + D"))
    monkeypatch.setattr(semidirect, "_build_product",
                        lambda HB: built.append("product"))
    with pytest.raises(ValueError, match=r"s must be \+-1"):
        identify_semidirect(s, K=1)
    assert built == []


def test_there_is_one_pareigis_ring_per_sign():
    P = pareigis_ring(-1)
    assert P is pareigis_ring(-1) is ring_by_name("pareigis")
    # the sign is passed by position only, so one spelling is one cache key
    for call in (lambda: pareigis_ring(s=-1), lambda: pareigis_ring()):
        with pytest.raises(TypeError):
            call()
    assert P is not pareigis_ring(1)
    assert pareigis_ring(1) is ring_by_name("pareigis-plus")
    X = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])}, name="e")
    assert chain_to_comodule(X, 1).ring is pareigis_ring(1)


def test_a_bad_sign_is_refused_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            pareigis_ring(0)


@pytest.mark.parametrize("s", [-1, 1])
def test_a_mutant_of_the_shared_ring_keeps_its_own_verdict(s):
    # the honest suite fills the shared ring's memos first; a mutant
    # built on its maps must still fail where it was broken, and the
    # shared antipode's memo must not learn the mutant's value
    ring = pareigis_ring(s)
    W = 3
    assert all(check_bialgebra_laws(ring, plain_swap(), W + 1))
    anti, tail, extra = ring.antipode, pm(1, W), Vec.basis(pm(0, 1), 2)
    broken = LinMap(anti.dom, anti.cod,
                    lambda l: anti.apply(l) + extra if l == tail else anti.apply(l),
                    name="antipode")
    mutant = Bimonoid(ring.carrier, ring.mu, ring.eta, ring.delta, ring.epsilon, broken)
    failures = [r for r in check_bialgebra_laws(mutant, plain_swap(), W) if not r]
    assert [r.law for r in failures] == ["antipode-left", "antipode-right"]
    assert all(r.counterexample.label == tail for r in failures)
    assert pareigis_ring(s) is ring
    assert all(check_bialgebra_laws(pareigis_ring(s), plain_swap(), 4))
