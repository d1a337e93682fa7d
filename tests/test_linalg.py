import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfchains.linalg import (
    UNIT, UNIT_SPACE, ZERO, LinMap, Space, SpaceMismatch, Vec, atom,
    compose_maps, direct_sum_maps, equal_on_window, factors, finite_space,
    identity_map, label_from_json, label_key, label_to_json, left, memoised,
    pair, perm_map, right, scale_map, split_label, sum_space, swap_map,
    tensor_maps, tensor_space, zero_map,
)
from hopfchains.grading import laurent_hopf, monomial
from hopfchains.laws import Comodule, trivial_comodule
from hopfchains.pareigis import differential_comodule_bimonoid, pareigis_ring, ring_by_name


def x(k):
    return monomial(k)


def test_pair_is_strictly_associative_and_unital():
    a, b, c = atom("u", 1), atom("u", 2), atom("u", 3)
    assert pair(pair(a, b), c) == pair(a, pair(b, c))
    assert pair(UNIT, a) == a
    assert pair(a, UNIT) == a
    assert pair(UNIT, UNIT) == UNIT


def random_label(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        fam = rng.choice("xyde")
        idx = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        return atom(fam, *idx)
    if roll < 0.6:
        return left(random_label(rng, depth + 1))
    if roll < 0.75:
        return right(random_label(rng, depth + 1))
    if roll < 0.8:
        return UNIT
    return pair(*[random_label(rng, depth + 1)
                  for _ in range(rng.randint(2, 3))])


def test_label_encoding_round_trips_on_random_corpus():
    rng = random.Random(2024)
    for _ in range(10_000):
        lbl = random_label(rng)
        assert label_from_json(label_to_json(lbl)) == lbl
        label_key(lbl)  # total order key never raises on mixed shapes


def test_vec_arithmetic_is_exact_and_structural():
    rng = random.Random(5)

    def rand_vec():
        return Vec({atom("v", i): rng.randint(-6, 6) for i in range(rng.randint(0, 5))})

    for _ in range(300):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        c, d = rng.randint(-4, 4), rng.randint(-4, 4)
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert c * (u + v) == c * u + c * v
        assert (c + d) * u == c * u + d * u
        assert u - u == Vec.zero()
    assert not (0 * rand_vec())
    big = (10 ** 30) * Vec.basis(atom("v", 0))
    assert big.coefficient(atom("v", 0)) == 10 ** 30


def test_compose_identity_and_scalars():
    Z = laurent_hopf(1)
    A = Z.carrier
    f = Z.antipode
    assert equal_on_window(compose_maps(identity_map(A), f), f, 4)
    assert equal_on_window(compose_maps(f, identity_map(A)), f, 4)

    S = finite_space("S", [atom("g")])
    two = scale_map(identity_map(S), 2)
    three = scale_map(identity_map(S), 3)
    assert compose_maps(three, two).apply(atom("g")) == Vec.basis(atom("g"), 6)


def test_counit_law_forces_identity():
    Z = laurent_hopf(1)
    idz = identity_map(Z.carrier)
    lhs = Z.delta >> tensor_maps(Z.epsilon, idz)
    assert lhs.apply(x(3)) == Vec.basis(x(3))
    assert equal_on_window(lhs, idz, 5)


def test_compose_rejects_mismatched_spaces():
    Z = laurent_hopf(1)
    with pytest.raises(SpaceMismatch):
        compose_maps(Z.epsilon, Z.epsilon)


def test_tensor_of_maps():
    S = finite_space("S", [atom("g"), atom("h")])
    ids = identity_map(S)
    assert tensor_maps(ids, ids).apply(pair(atom("g"), atom("h"))) \
        == Vec.basis(pair(atom("g"), atom("h")))
    two = scale_map(ids, 2)
    assert tensor_maps(two, ids).apply(pair(atom("g"), atom("h"))) \
        == Vec.basis(pair(atom("g"), atom("h")), 2)


def test_group_like_coproduct_absorbs_unit_leg():
    # (delta (x) epsilon)(x^1 (x) x^1) = x^1 (x) x^1 after unit absorption;
    # hand oracle: delta is group-like, epsilon sends x^1 to 1.
    Z = laurent_hopf(1)
    f = tensor_maps(Z.delta, Z.epsilon)
    assert f.apply(pair(x(1), x(1))) == Vec.basis(pair(x(1), x(1)))


def test_direct_sum_acts_blockwise():
    S = finite_space("S", [atom("d")])
    f = scale_map(identity_map(S), -1)
    g = identity_map(UNIT_SPACE)
    s = direct_sum_maps(f, g)
    assert s.apply(left(atom("d"))) == Vec.basis(left(atom("d")), -1)
    assert s.apply(right(UNIT)) == Vec.basis(right(UNIT))
    z = direct_sum_maps(zero_map(S, S), zero_map(S, S))
    assert z.apply(left(atom("d"))) == Vec.zero()
    fz = direct_sum_maps(f, zero_map(S, S))
    assert fz.apply(left(atom("d"))) == Vec.basis(left(atom("d")), -1)


def test_equal_on_window_reports_first_counterexample():
    Z = laurent_hopf(1)
    ida = identity_map(Z.carrier)
    two = scale_map(ida, 2)
    verdict = equal_on_window(ida, two, 1)
    assert not verdict.equal
    assert verdict.counterexample.lhs == Vec.basis(x(-1))
    assert verdict.counterexample.rhs == Vec.basis(x(-1), 2)


def test_tensor_is_functorial_on_windows():
    Z = laurent_hopf(1)
    A = Z.carrier
    f = Z.antipode
    f2 = scale_map(identity_map(A), 2)
    g = scale_map(Z.antipode, -1)
    g2 = identity_map(A)
    lhs = tensor_maps(compose_maps(f, f2), compose_maps(g, g2))
    rhs = compose_maps(tensor_maps(f, g), tensor_maps(f2, g2))
    assert equal_on_window(lhs, rhs, 3)


def test_split_label_respects_arities():
    Z = laurent_hopf(1)
    A = Z.carrier
    AA = tensor_space(A, A)
    lbl = pair(x(1), x(2), x(3))
    first, second = split_label(AA, A, lbl)
    assert first == pair(x(1), x(2))
    assert second == x(3)


def test_sum_space_window_enumeration():
    S = finite_space("S", [atom("d")])
    H = sum_space(S, UNIT_SPACE)
    assert H.enumerate(3) == [left(atom("d")), right(UNIT)]
    assert H.contains(left(atom("d")))
    assert not H.contains(atom("d"))


def test_structure_maps_land_on_valid_codomain_labels():
    Z = laurent_hopf(1)
    for f in (Z.mu, Z.delta, Z.antipode, Z.epsilon, Z.eta):
        ok, witness = f.supported_on_codomain(2)
        assert ok, witness


# ---------------------------------------------------------------------------
# the label fast paths against the generic canonicalising tensor


def reference_pair(*labels):
    "Generic tensor of labels: flatten every factor, absorb units."
    parts = []
    for lbl in labels:
        parts.extend(factors(lbl))
    if not parts:
        return UNIT
    if len(parts) == 1:
        return parts[0]
    return ("t",) + tuple(parts)


atoms = st.builds(lambda fam, idx: atom(fam, *idx),
                  st.sampled_from("xyde"),
                  st.lists(st.integers(-9, 9), max_size=3))
labels = st.recursive(
    st.just(UNIT) | atoms,
    lambda inner: (st.builds(left, inner) | st.builds(right, inner)
                   | st.lists(inner, min_size=2, max_size=3)
                     .map(lambda ls: reference_pair(*ls))),
    max_leaves=8)
vecs = st.dictionaries(labels, st.integers(-3, 3), max_size=4).map(Vec)


def space_of_arity(n, name="S"):
    return Space("%s%d" % (name, n), n, lambda l: True, window=lambda K: [])


@settings(deadline=None)
@given(st.lists(labels, max_size=4))
def test_pair_matches_reference(ls):
    assert pair(*ls) == reference_pair(*ls)


@settings(deadline=None)
@given(st.lists(labels, max_size=4))
def test_split_label_matches_reference(ls):
    lbl = reference_pair(*ls)
    fs = factors(lbl)
    for n in range(4):
        X, Y = space_of_arity(n, "X"), space_of_arity(len(fs) - n, "Y")
        assert split_label(X, Y, lbl) == (reference_pair(*fs[:n]),
                                          reference_pair(*fs[n:]))


@settings(deadline=None)
@given(st.lists(labels, max_size=4))
def test_swap_map_matches_reference(ls):
    lbl = reference_pair(*ls)
    fs = factors(lbl)
    for n in range(min(len(fs), 3) + 1):
        X, Y = space_of_arity(n, "X"), space_of_arity(len(fs) - n, "Y")
        got = swap_map(X, Y).apply(lbl)
        assert got == Vec.basis(reference_pair(reference_pair(*fs[n:]),
                                               reference_pair(*fs[:n])))


@settings(deadline=None)
@given(vecs, vecs)
def test_vec_tensor_matches_reference(u, v):
    expected = {}
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            k = reference_pair(k1, k2)
            expected[k] = expected.get(k, 0) + c1 * c2
    got = u.tensor(v)
    assert got == Vec(expected)
    assert all(got.entries.values())


@settings(deadline=None)
@given(st.lists(labels, min_size=1, max_size=4).flatmap(
    lambda ls: st.tuples(st.just(ls), st.permutations(range(len(ls))))))
def test_perm_map_matches_reference(case):
    slots, perm = case
    spaces = [space_of_arity(len(factors(l)), "P%d_" % i) for i, l in enumerate(slots)]
    got = perm_map(spaces, tuple(perm)).apply(reference_pair(*slots))
    assert got == Vec.basis(reference_pair(*[slots[i] for i in perm]))


# ---------------------------------------------------------------------------
# map application: one dict per call, memo on leaf maps only


def test_applying_a_map_to_cancelling_terms_stores_no_zero():
    g, h = atom("g"), atom("h")
    S = finite_space("S", [g, h])
    images = {g: Vec.basis(g) + Vec.basis(h), h: Vec.basis(g)}
    f = LinMap(S, S, images.__getitem__)
    collapse = LinMap(S, S, lambda l: Vec.basis(g))
    gone = collapse(Vec.basis(g) - Vec.basis(h))
    assert gone == ZERO and gone.entries == {}
    left_over = f(Vec.basis(g) - Vec.basis(h))
    assert left_over.entries == {h: 1}


def test_composites_hold_no_memo_after_a_window_check():
    P = ring_by_name("pareigis")
    idh = identity_map(P.carrier)
    lhs_t, rhs_t = tensor_maps(P.mu, idh), tensor_maps(idh, P.mu)
    lhs, rhs = compose_maps(lhs_t, P.mu), compose_maps(rhs_t, P.mu)
    assert equal_on_window(lhs, rhs, 3, law="associativity")
    for m in (lhs_t, rhs_t, lhs, rhs):
        assert m._cache is None
    window = P.carrier.enumerate(3)
    assert all(pair(a, b) in P.mu._cache for a in window for b in window)


def test_a_composite_kept_as_a_coaction_memoises():
    Z = laurent_hopf(1)
    S = finite_space("S", [atom("g")])
    leaf = trivial_comodule(Z, S).coaction
    assert memoised(leaf) is leaf
    composite = compose_maps(leaf, identity_map(leaf.cod))
    X = Comodule(Z, S, composite, check_window=2)
    assert composite._cache is None
    assert X.coaction.apply(atom("g")) == leaf.apply(atom("g"))
    assert atom("g") in X.coaction._cache


def _monotone_spaces():
    spaces = {"Z": laurent_hopf(1).carrier, "Z^2": laurent_hopf(2).carrier,
              "P": pareigis_ring(-1).carrier, "P+": pareigis_ring(1).carrier}
    for s in (-1, 1):
        hb = differential_comodule_bimonoid(s)
        Q = tensor_space(hb.hopf.carrier, hb.ring.carrier)
        spaces["I+D[s=%+d]" % s] = hb.hopf.carrier
        spaces["Q[s=%+d]" % s] = Q
        spaces["QxQ[s=%+d]" % s] = tensor_space(Q, Q)
    return spaces


MONOTONE_SPACES = _monotone_spaces()


@pytest.mark.parametrize("name", MONOTONE_SPACES)
def test_window_enumeration_is_monotone(name):
    space = MONOTONE_SPACES[name]
    # the premise that lets a law pass at window K stand for every K' <= K
    for K in range(6):
        assert set(space.enumerate(K)) <= set(space.enumerate(K + 1))
