import functools
import json
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hopfchains
from hopfchains import chains, diffhopf
from hopfchains.chains import (
    Bicomplex, ChainComplex, ChainMap, IllegalChain, chain_symmetry,
    comonad_comparison, curry_adjunction, disk, evaluation_map, eye,
    identity_chain_map, internal_hom, left_adjoint_complex, left_adjoint_map,
    mat, random_bicomplex, random_chain_map, random_complex, random_graded_map,
    random_unimodular, right_adjoint_complex, second_differential, sphere,
    tensor_chain_maps, tensor_chains, triangle_identities_hold, underlying_graded,
    underlying_graded_map, unit_lu, is_zero, zeros,
)
from hopfchains.diffhopf import two_term_ring
from hopfchains.linalg import UNIT, Counterexample, Vec, atom
from hopfchains.pareigis import differential_comodule_bimonoid, identify_semidirect

DATA = Path(__file__).parent / "data"


def two_step():
    "Z --x2--> Z in degrees 1, 0."
    return ChainComplex({1: 1, 0: 1}, {1: mat([[2]])}, name="t")


def test_constructor_rejects_nonzero_square():
    with pytest.raises(IllegalChain):
        ChainComplex({2: 1, 1: 1, 0: 1}, {2: mat([[1]]), 1: mat([[1]])})


def test_tensor_differential_carries_koszul_sign():
    A, B = two_step(), two_step()
    T = tensor_chains(A, B)
    assert T.ranks == {2: 1, 1: 2, 0: 1}
    # d(a1 (x) b1) = 2 a0 (x) b1 - 2 a1 (x) b0, basis at degree 1 ordered
    # (0, a0 (x) b1) then (1, a1 (x) b0)
    assert T.d(2)[0, 0] == 2 and T.d(2)[1, 0] == -2
    assert is_zero(T.d(1).dot(T.d(2)))


def test_unit_complex_is_strict_for_tensor():
    I = sphere(0, name="i")
    B = two_step()
    T = tensor_chains(I, B)
    assert T.ranks == B.ranks
    assert T.d(1) == B.d(1)


def test_symmetry_signs_and_involution():
    A, B = two_step(), two_step()
    sym = chain_symmetry(A, B)
    # degree 2 holds a1 (x) b1: sign (-1)^{1.1} = -1
    assert sym.blocks[2][0, 0] == -1
    # degree 0 holds a0 (x) b0: sign +1
    assert sym.blocks[0][0, 0] == 1
    assert sym.is_chain_map()
    back = chain_symmetry(B, A)
    assert sym.then(back) == identity_chain_map(tensor_chains(A, B))


def test_symmetry_is_natural_on_random_pairs():
    rng = random.Random(31)
    for _ in range(10):
        A = random_complex(rng, name="a", max_window=4, max_rank=3)
        B = random_complex(rng, name="b", max_window=4, max_rank=3)
        sym = chain_symmetry(A, B)
        assert sym.is_chain_map()
        assert sym.then(chain_symmetry(B, A)) == identity_chain_map(tensor_chains(A, B))


def test_a_symmetry_on_held_tensors_builds_no_kronecker_block_or_identity(monkeypatch):
    rng = random.Random(32)
    A = random_complex(rng, name="a", max_window=4, max_rank=3)
    B = random_complex(rng, name="b", max_window=4, max_rank=3)
    AB, BA = tensor_chains(A, B), tensor_chains(B, A)
    want = chain_symmetry(A, B)

    def refuse(*args):
        raise AssertionError("the symmetry built a block it only writes entries of")

    monkeypatch.setattr(chains, "_kron", refuse)
    monkeypatch.setattr(chains, "eye", refuse)
    got = chain_symmetry(A, B)
    assert (got.src, got.tgt) == (AB, BA) and got.blocks == want.blocks


def test_tensor_is_associative_after_flattening():
    rng = random.Random(8)
    A = random_complex(rng, name="a", max_window=3, max_rank=2)
    B = random_complex(rng, name="b", max_window=3, max_rank=2)
    C = random_complex(rng, name="c", max_window=3, max_rank=2)
    left_first = tensor_chains(tensor_chains(A, B), C)
    right_first = tensor_chains(A, tensor_chains(B, C))
    assert left_first.ranks == right_first.ranks
    for n in left_first.degrees():
        assert left_first.d(n) == right_first.d(n)


def test_hom_out_of_the_unit_is_the_target():
    B = sphere(0, name="i")
    C = two_step()
    H = internal_hom(B, C)
    assert H.ranks == C.ranks
    assert H.d(1) == C.d(1)


def test_hom_component_ranks():
    B = two_step()
    H = internal_hom(B, B)
    assert H.ranks == {0: 2, 1: 1, -1: 1}


def test_identity_element_of_hom_is_a_cycle():
    # the chain-map condition for f equals df = 0 in [B, B]_0
    B = two_step()
    H = internal_hom(B, B)
    from hopfchains.chains import _hom_offsets
    _, offset = _hom_offsets(B.ranks, B.ranks)
    column = [0] * H.rank(0)
    for j, r in B.ranks.items():
        for p in range(r):
            column[offset[j, j] + p * r + p] = 1
    d = H.d(0)
    image = d.dot(mat([[c] for c in column]))
    assert is_zero(image)


def test_curry_with_unit_source_is_reindexing():
    A = two_step()
    B = sphere(0, name="i")
    AB = tensor_chains(A, B)
    curry, uncurry = curry_adjunction(A, B, AB)
    ident = identity_chain_map(AB)
    psi = curry(ident)
    assert psi.is_chain_map()
    assert uncurry(psi) == ident


def test_evaluation_is_a_chain_map():
    rng = random.Random(4)
    B = random_complex(rng, name="b", max_window=3, max_rank=2)
    C = random_complex(rng, name="c", max_window=3, max_rank=2)
    assert evaluation_map(B, C).is_chain_map()


def test_the_evaluation_map_builds_each_complex_once(monkeypatch):
    checked = []
    real = ChainComplex._check

    def spy(self):
        checked.append(self.name)
        return real(self)

    rng = random.Random(4)
    B = random_complex(rng, name="b", max_window=3, max_rank=2)
    C = random_complex(rng, name="c", max_window=3, max_rank=2)
    monkeypatch.setattr(ChainComplex, "_check", spy)
    ev = evaluation_map(B, C)
    # [B, C] once, though both evaluation_map and curry_adjunction ask for it
    assert checked == ["[b,c]", "([b,c](x)b)"]
    assert internal_hom(B, C) is ev.src._factors[0]


def test_curry_uncurry_round_trip_on_samples():
    rng = random.Random(12)
    for _ in range(25):
        A = random_complex(rng, name="a", max_window=3, max_rank=2)
        B = random_complex(rng, name="b", max_window=3, max_rank=2)
        AB = tensor_chains(A, B)
        curry, uncurry = curry_adjunction(A, B, AB)
        phi = random_chain_map(rng, AB)
        assert phi.is_chain_map()
        psi = curry(phi)
        assert psi.is_chain_map()
        assert uncurry(psi) == phi


def test_adjoints_of_a_point():
    C = sphere(0, name="c")
    L = left_adjoint_complex(C)
    assert L.ranks == {0: 1, -1: 1}
    assert L.d(0)[0, 0] == 1
    R = right_adjoint_complex(C)
    assert R.ranks == {0: 1, 1: 1}
    assert R.d(1)[0, 0] == 1
    assert underlying_graded(L).rank(0) == 1
    assert underlying_graded(L).rank(-1) == 1


def test_shift_pair_differential_squares_to_zero():
    rng = random.Random(6)
    for _ in range(10):
        M = underlying_graded(random_complex(rng, name="m"))
        left_adjoint_complex(M)   # constructor checks d.d = 0
        right_adjoint_complex(M)


def test_triangle_identities_on_random_complexes():
    rng = random.Random(21)
    for _ in range(20):
        assert triangle_identities_hold(random_complex(rng, name="x"))


def test_comonad_comparison_point_and_zero():
    X = sphere(0, name="x")
    assert comonad_comparison(X).equal
    empty = ChainComplex({}, {}, name="z")
    assert comonad_comparison(empty).equal


def test_comonad_comparison_is_natural():
    rng = random.Random(14)
    for _ in range(20):
        X = random_complex(rng, name="x")
        fs = [random_chain_map(rng, X) for _ in range(2)]
        assert comonad_comparison(X, fs).equal


def test_a_comonad_comparison_of_unequal_dimensions_names_the_first_degree(monkeypatch):
    # a (I+D) (x) M that is one dimension too large in degrees -2 and -1
    monkeypatch.setattr(chains, "tensor_chains",
                        lambda A, B: ChainComplex({-2: 2, -1: 2, 3: 1, 4: 1}, {}))
    got = comonad_comparison(ChainComplex({-2: 1, 3: 1}, {}, name="x"))
    assert got.verdict == "differ" and got.instances == 1
    assert got.counterexample == Counterexample(atom("degree", -2), Vec.basis(UNIT),
                                                Vec.basis(UNIT, 2))


def test_a_comonad_comparison_of_unequal_maps_names_the_map_and_first_degree(monkeypatch):
    real = chains.tensor_chain_maps
    calls = []

    def second_one_off(f, g):
        # the second map's (I+D) (x) f gains 1 at the corner of degrees 1 and -1
        out = real(f, g)
        calls.append(out)
        if len(calls) == 2:
            for n in (1, -1):
                out.blocks[n].rows[0][0] += 1
        return out
    monkeypatch.setattr(chains, "tensor_chain_maps", second_one_off)
    X = ChainComplex({-1: 1, 0: 1}, {}, name="x")
    got = comonad_comparison(X, [identity_chain_map(X)] * 3)
    assert got.verdict == "differ" and got.instances == 3
    assert got.counterexample == {"map": 1, "degree": -1}
    assert repr(got) == "comonad-comparison: differ {'map': 1, 'degree': -1}"


def test_random_unimodular_inverse():
    rng = random.Random(2)
    for k in (0, 1, 2, 3, 5):
        U, Uinv = random_unimodular(rng, k)
        assert U.dot(Uinv) == eye(k)


def test_a_bicomplex_block_of_the_wrong_shape_names_its_cell():
    ranks = {(0, 0): 1, (1, 0): 1, (1, -1): 1}
    wrong = r"_\(1, 0\) has shape \(1, 2\), expected \(1, 1\)$"
    with pytest.raises(IllegalChain, match="^d" + wrong):
        Bicomplex(ranks, {(1, 0): [[1, 0]]}, {}, (0, -1))
    with pytest.raises(IllegalChain, match="^d'" + wrong):
        Bicomplex(ranks, {}, {(1, 0): [[1, 0]]}, (0, -1))
    Bicomplex(ranks, {(1, 0): [[1]]}, {(1, 0): [[1]]}, (0, -1))


def test_zero_second_differential_is_accepted_for_both_kappas():
    ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d1 = {(1, 0): mat([[1]]), (1, 1): mat([[1]])}
    for kappa, s in ((-1, 1), (1, 1), (1, -1)):
        dn = 0 if kappa == -1 else -s
        B = Bicomplex(ranks, d1, {}, (dn, -1))
        res = second_differential(B, kappa, s)
        assert res.accepted and res.comodule is not None
        assert res.chain_compat.equal


def test_identity_square_commutes_for_kappa_minus_one():
    ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d1 = {(1, 0): mat([[1]]), (1, 1): mat([[1]])}
    d2 = {(0, 1): mat([[1]]), (1, 1): mat([[1]])}
    B = Bicomplex(ranks, d1, d2, (0, -1))
    assert second_differential(B, -1, 1).accepted


def test_identity_square_is_rejected_for_kappa_plus_one():
    # kappa = +1, s = -1 gives d2 bidegree (1, -1); a square of identity
    # maps commutes, so the required anticommutation d'd = -dd' fails.
    ranks = {(1, 1): 1, (0, 1): 1, (2, 0): 1, (1, 0): 1}
    d1 = {(1, 1): mat([[1]]), (2, 0): mat([[1]])}
    d2 = {(0, 1): mat([[1]]), (1, 1): mat([[1]])}
    B = Bicomplex(ranks, d1, d2, (1, -1))
    res = second_differential(B, 1, -1)
    assert not res.accepted
    assert (1, 1) in res.violations


def test_the_two_term_ring_is_built_once_per_kappa_and_sign(monkeypatch):
    built = []
    real = diffhopf.build_differential_hopf

    def spy(*args, **kwargs):
        built.append(args[0].carrier)
        return real(*args, **kwargs)

    monkeypatch.setattr(diffhopf, "build_differential_hopf", spy)
    rng = random.Random(5)
    rings = {}
    for kappa in (-1, 1):
        for s in (-1, 1):
            first = second_differential(random_bicomplex(rng, kappa, s), kappa, s)
            assert first.accepted
            before = len(built)
            for _ in range(3):
                again = second_differential(random_bicomplex(rng, kappa, s), kappa, s)
                assert again.accepted and again.chain_compat.equal
                assert again.comodule.ring is first.comodule.ring
            assert len(built) == before
            rings[kappa, s] = first.comodule.ring
    # d has degree (s(1 + kappa)/2, 1): (0, 1) for both signs when kappa = -1
    assert len(set(rings.values())) == 3
    assert rings[-1, -1] is rings[-1, 1] is two_term_ring((0, 1), (-1, -1)).hopf
    # identify_semidirect and differential_comodule_bimonoid share the I + D
    # of their sign: once it exists, neither builds another
    for s in (-1, 1):
        hb = differential_comodule_bimonoid(s)
        before = len(built)
        assert identify_semidirect(s, K=1).ok
        assert differential_comodule_bimonoid(s) is hb is two_term_ring((s,), (-1,))
        assert len(built) == before
    # each datum was built at most once, whatever ran before this test
    assert len(built) == len(set(built)) <= 5


def test_a_violating_square_is_rejected_after_its_ring_is_made():
    ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d1 = {(1, 0): mat([[1]]), (1, 1): mat([[1]])}
    assert second_differential(Bicomplex(ranks, d1, {}, (0, -1)), -1, 1).accepted
    # d' anticommutes with d on the one square, where kappa = -1 asks
    # them to commute
    d2 = {(0, 1): mat([[1]]), (1, 1): mat([[-1]])}
    res = second_differential(Bicomplex(ranks, d1, d2, (0, -1)), -1, 1)
    assert not res.accepted and res.violations == ((1, 1),)
    assert res.comodule is None


def test_random_bicomplexes_satisfy_their_square_law():
    rng = random.Random(3)
    for _ in range(15):
        for kappa in (-1, 1):
            s = rng.choice((-1, 1))
            B = random_bicomplex(rng, kappa, s)
            res = second_differential(B, kappa, s)
            assert res.accepted, res.violations
            assert res.chain_compat.equal


def test_chain_complex_json_round_trip():
    X = two_step()
    doc = json.loads(json.dumps(X.to_json()))
    assert ChainComplex.from_json(doc, name="t") == X
    rng = random.Random(44)
    for _ in range(10):
        Y = random_complex(rng, name="y")
        assert ChainComplex.from_json(json.loads(json.dumps(Y.to_json())), name="y") == Y


def test_disk_and_sphere_shapes():
    assert disk(2).ranks == {2: 1, 1: 1}
    assert sphere(3, rank=2).ranks == {3: 2}
    assert is_zero(disk(2).d(1).dot(disk(2).d(2)))


def test_curry_uncurry_with_independent_target():
    rng = random.Random(88)
    for _ in range(10):
        A = random_complex(rng, name="a", max_window=3, max_rank=2)
        B = random_complex(rng, name="b", max_window=3, max_rank=2)
        C = random_complex(rng, name="c", max_window=3, max_rank=2)
        AB = tensor_chains(A, B)
        phi = random_chain_map(rng, AB, C)
        assert phi.is_chain_map()
        curry, uncurry = curry_adjunction(A, B, C)
        psi = curry(phi)
        assert psi.is_chain_map()
        assert uncurry(psi) == phi


def test_a_chain_map_block_of_the_wrong_shape_names_its_degree():
    X = ChainComplex({0: 2, 1: 1}, {}, name="x")
    for check in (True, False):
        with pytest.raises(IllegalChain, match=r"f_0 has shape \(1, 3\), expected \(2, 2\)"):
            ChainMap(X, X, {0: [[1, 0, 0]], 1: [[1]]}, check=check)
        # a block where the complexes are zero is never multiplied, so only
        # the shape check can see it
        with pytest.raises(IllegalChain, match=r"f_5 has shape \(1, 1\), expected \(0, 0\)"):
            ChainMap(X, X, {5: [[1]]}, check=check)
    # zero blocks are dropped before the check, whatever their shape
    assert ChainMap(X, X, {0: [[0, 0, 0]], 1: [[1]]}).blocks.keys() == {1}


def test_maps_whose_ends_do_not_meet_are_not_composed():
    # equal ranks, different differentials: d = [[1]] against d = 0
    A = ChainComplex({1: 1, 0: 1}, {1: mat([[1]])}, name="a")
    A0 = ChainComplex({1: 1, 0: 1}, {}, name="a0")
    with pytest.raises(IllegalChain, match=r"ends at ChainComplex\(a: .*ChainComplex\(a0: "):
        identity_chain_map(A).then(identity_chain_map(A0))
    # an equal complex that is another object meets it
    twin = ChainComplex({1: 1, 0: 1}, {1: mat([[1]])}, name="twin")
    assert identity_chain_map(A).then(identity_chain_map(twin)) == identity_chain_map(A)
    # graded modules (complexes with no differential): Z in degree 0 against Z in degree 1
    M, N = sphere(0, name="m"), sphere(0, name="n")
    N2, P = sphere(1, name="n2"), sphere(1, name="p")
    f, g = ChainMap(M, N, {0: [[1]]}), ChainMap(N2, P, {1: [[1]]})
    with pytest.raises(IllegalChain, match=r"ends at ChainComplex\(n: .* another complex, "
                                           r"ChainComplex\(n2: "):
        f.then(g)
    # a module of other name and equal ranks meets it
    h = ChainMap(sphere(0, name="n3"), M, {0: [[2]]})
    assert f.then(h) == ChainMap(M, M, {0: [[2]]})


def test_maps_with_equal_blocks_and_other_ends_are_unequal():
    A = ChainComplex({1: 1, 0: 1}, {1: mat([[1]])}, name="a")
    A0 = ChainComplex({1: 1, 0: 1}, {}, name="a0")
    assert identity_chain_map(A) != identity_chain_map(A0)
    assert identity_chain_map(A0) != identity_chain_map(A)
    twin = ChainComplex({1: 1, 0: 1}, {1: mat([[1]])}, name="twin")
    assert identity_chain_map(A) == identity_chain_map(twin)
    # the same block into modules of other ranks, and of equal ranks
    M = sphere(1, name="m")
    assert ChainMap(M, A0, {1: [[1]]}) != ChainMap(M, sphere(1, name="n"), {1: [[1]]})
    assert ChainMap(M, M, {1: [[1]]}) == ChainMap(M, sphere(1, name="n"), {1: [[1]]})


def test_graded_maps_compare_unequal_to_other_objects():
    g = underlying_graded_map(identity_chain_map(two_step()))
    assert (g == 3) is False and g != 3
    assert g == underlying_graded_map(identity_chain_map(two_step()))


# ---------------------------------------------------------------------------
# one live adjoint complex per graded module


def _counting_shift_pair_complexes(monkeypatch):
    built = []
    real = chains._shift_pair_complex

    def spy(*data):
        built.append(data)
        return real(*data)

    monkeypatch.setattr(chains, "_shift_pair_complex", spy)
    return built


def test_triangle_identities_build_each_adjoint_complex_once(monkeypatch):
    built = _counting_shift_pair_complexes(monkeypatch)
    rng = random.Random(21)
    for _ in range(10):
        X = random_complex(rng, name="x")
        del built[:]
        assert triangle_identities_hold(X)
        # R(M), L(M), R(U R M), L(U L M)
        assert len(built) <= 4 and len(set(built)) == len(built)


def test_triangle_identities_build_each_complex_once(monkeypatch):
    checked = []
    real = ChainComplex._check

    def spy(self):
        checked.append(self.name)
        return real(self)

    monkeypatch.setattr(ChainComplex, "_check", spy)
    rng = random.Random(21)
    for _ in range(10):
        X = random_complex(rng, name="x")
        del checked[:]
        assert triangle_identities_hold(X)
        # M = U X, R(M), L(M), U R(M), U L(M), R(U R M), L(U L M)
        assert sorted(checked) == ["L(L(x))", "L(x)", "L(x)", "R(R(x))", "R(x)", "R(x)", "x"]


def test_the_comonad_comparison_builds_one_adjoint_complex(monkeypatch):
    built = _counting_shift_pair_complexes(monkeypatch)
    rng = random.Random(14)
    for _ in range(10):
        X = random_complex(rng, name="x")
        fs = [random_chain_map(rng, X) for _ in range(2)]
        del built[:]
        assert comonad_comparison(X, fs).equal
        assert len(built) == 1


def test_an_adjoint_complex_is_shared_while_alive_and_freed_after():
    M = underlying_graded(random_complex(random.Random(9), name="w"))
    L = left_adjoint_complex(M)
    assert left_adjoint_complex(M) is L
    assert right_adjoint_complex(M) is right_adjoint_complex(M)
    assert right_adjoint_complex(M) is not L
    # an equal module, built anew, finds the same complex
    assert left_adjoint_complex(underlying_graded(random_complex(random.Random(9), name="w"))) is L
    dead = weakref.ref(L)
    f = left_adjoint_map(unit_lu(M))   # a user of L(M) as its source
    del L
    assert f.src is dead()
    del f
    assert dead() is None


def test_complexes_of_one_name_compare_by_their_differentials():
    A = ChainComplex({1: 1, 0: 1}, {1: mat([[1]])}, name="a")
    assert A == A
    # the same name, ranks and keys, and another differential
    assert A != ChainComplex({1: 1, 0: 1}, {1: mat([[2]])}, name="a")
    assert A != ChainComplex({1: 1, 0: 1}, {}, name="a")
    with pytest.raises(IllegalChain, match="cannot compose"):
        identity_chain_map(A).then(identity_chain_map(ChainComplex({1: 1, 0: 1}, {}, name="a")))


# ---------------------------------------------------------------------------
# one live tensor per pair of factors, and one live U X per complex


def _counting_tensors(monkeypatch):
    built = []
    real = chains._tensor_complex

    def spy(A, B):
        built.append((A.name, B.name))
        return real(A, B)

    monkeypatch.setattr(chains, "_tensor_complex", spy)
    return built


def test_a_tensor_is_shared_while_alive_and_freed_after():
    rng = random.Random(5)
    A = random_complex(rng, name="a", max_window=3, max_rank=2)
    B = random_complex(rng, name="b", max_window=3, max_rank=2)
    T = tensor_chains(A, B)
    assert tensor_chains(A, B) is T
    assert tensor_chains(B, A) is not T and tensor_chains(B, A).name == "(b(x)a)"
    # keyed by both factors: another second factor, or an equal first one
    # that is another object, makes another tensor
    C = sphere(0, 2, name="c")
    assert tensor_chains(A, C) is not T
    assert tensor_chains(A, C).ranks == {n: 2 * r for n, r in A.ranks.items()}
    twin = ChainComplex(A.ranks, A.diffs, name="a")
    assert tensor_chains(twin, B) is not T and tensor_chains(twin, B) == T
    dead = weakref.ref(T)
    sym = chain_symmetry(A, B)   # a user of A (x) B as its source
    del T
    assert sym.src is dead()
    del sym
    assert dead() is None


def test_the_workload_symmetry_check_builds_two_tensors(monkeypatch):
    built = _counting_tensors(monkeypatch)
    rng = random.Random(31)
    for _ in range(10):
        A = random_complex(rng, name="a", max_window=5, max_rank=3)
        B = random_complex(rng, name="b", max_window=5, max_rank=3)
        del built[:]
        sym = chain_symmetry(A, B)
        assert sym.is_chain_map()
        T = tensor_chains(A, B)
        assert sym.then(chain_symmetry(B, A)) == identity_chain_map(T)
        T.to_json()
        assert sorted(built) == [("a", "b"), ("b", "a")]


def test_currying_builds_no_tensor_its_caller_holds(monkeypatch):
    built = _counting_tensors(monkeypatch)
    rng = random.Random(12)
    for _ in range(10):
        A = random_complex(rng, name="a", max_window=3, max_rank=2)
        B = random_complex(rng, name="b", max_window=3, max_rank=2)
        AB = tensor_chains(A, B)
        phi = random_chain_map(rng, AB)
        del built[:]
        curry, uncurry = curry_adjunction(A, B, AB)
        assert uncurry(curry(phi)) == phi
        assert built == []


def test_the_comonad_comparison_builds_one_tensor(monkeypatch):
    built = _counting_tensors(monkeypatch)
    rng = random.Random(14)
    for _ in range(10):
        X = random_complex(rng, name="x")
        f = random_chain_map(rng, X)
        del built[:]
        assert comonad_comparison(X, [f]).equal
        assert built == [("(I+D)", "x")]


def test_a_graded_module_is_shared_per_ranks_and_name():
    X = random_complex(random.Random(9), name="x")
    M = underlying_graded(X)
    assert underlying_graded(X) is M and M.diffs == {} and M.ranks == X.ranks
    # an equal complex built anew finds it; one of other name does not
    assert underlying_graded(random_complex(random.Random(9), name="x")) is M
    N = underlying_graded(random_complex(random.Random(9), name="y"))
    assert N is not M and N.name == "y" and N.ranks == M.ranks
    assert [label[1] for label in N.basis()] == ["y"] * len(N.basis())
    dead = weakref.ref(M)
    del M
    assert dead() is None


# ---------------------------------------------------------------------------
# zero blocks decided without building them, against a dense reference
# (every absent block filled with zeros and multiplied)


def _dense(blocks, key, rows, cols):
    b = blocks.get(key)
    return mat(b) if b is not None else zeros(rows, cols)


def _dense_complex_error(ranks, diffs):
    "The constructor's verdict on d.d = 0, from dense products."
    rank = ranks.get
    stored = {n: mat(d) for n, d in diffs.items() if not is_zero(mat(d))}
    for n, d in stored.items():
        dd = _dense(stored, n - 1, rank(n - 2, 0), rank(n - 1, 0)).dot(d)
        if not is_zero(dd):
            return "d.d != 0 at degree %d" % n
    return None


def _dense_block(f, n):
    return _dense(f.blocks, n, f.tgt.rank(n), f.src.rank(n))


def _dense_is_chain_map(f):
    for n in set(f.src.degrees()) | set(f.tgt.degrees()):
        if _dense_block(f, n - 1).dot(f.src.d(n)) != f.tgt.d(n).dot(_dense_block(f, n)):
            return False
    return True


def _dense_bicomplex_error(ranks, d1, d2, bidegree):
    dn, dm = bidegree
    rank = ranks.get
    for (n, m) in sorted(c for c, r in ranks.items() if r):
        dd = _dense(d1, (n - 1, m), rank((n - 2, m), 0), rank((n - 1, m), 0)).dot(
            _dense(d1, (n, m), rank((n - 1, m), 0), rank((n, m), 0)))
        if not is_zero(dd):
            return "d.d != 0 at %s" % ((n, m),)
        below = (n + dn, m + dm)
        dd = _dense(d2, below, rank((below[0] + dn, below[1] + dm), 0), rank(below, 0)).dot(
            _dense(d2, (n, m), rank(below, 0), rank((n, m), 0)))
        if not is_zero(dd):
            return "d'.d' != 0 at %s" % ((n, m),)
    return None


def _dense_vertical(B, cell):
    n, m = cell
    return _dense(B.d1, cell, B.rank((n - 1, m)), B.rank(cell))


def _dense_second(B, cell):
    (n, m), (dn, dm) = cell, B.d2_bidegree
    return _dense(B.d2, cell, B.rank((n + dn, m + dm)), B.rank(cell))


def _dense_violations(B, kappa, s):
    dn = 0 if kappa == -1 else -s
    out = []
    for (n, m) in B.cells():
        after_d = _dense_second(B, (n - 1, m)).dot(_dense_vertical(B, (n, m)))
        after_d2 = _dense_vertical(B, (n + dn, m - 1)).dot(_dense_second(B, (n, m)))
        if after_d != (after_d2 if kappa == -1 else -after_d2):
            out.append((n, m))
    return tuple(out)


def _block(draw, rows, cols, entries=st.integers(-1, 1)):
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def _raw_complexes(draw):
    "Ranks on degrees 0..4 and, at random degrees, random differentials."
    ranks = {n: draw(st.integers(0, 2)) for n in range(5)}
    diffs = {}
    for n in draw(st.permutations(range(5))):
        if draw(st.booleans()):
            diffs[n] = _block(draw, ranks.get(n - 1, 0), ranks[n])
    return ranks, diffs


@settings(max_examples=300, deadline=None)
@given(_raw_complexes())
def test_the_square_check_of_a_complex_matches_the_dense_reference(raw):
    ranks, diffs = raw
    want = _dense_complex_error(ranks, diffs)
    if want is None:
        ChainComplex(ranks, diffs)
    else:
        with pytest.raises(IllegalChain, match=re.escape(want) + "$"):
            ChainComplex(ranks, diffs)


def test_a_nonzero_square_next_to_an_absent_differential_is_refused():
    # d_1 is absent, d_3 d_2 != 0 on the far side of it
    ranks = {0: 1, 1: 1, 2: 1, 3: 1}
    with pytest.raises(IllegalChain, match=r"d.d != 0 at degree 3$"):
        ChainComplex(ranks, {2: [[1]], 3: [[1]]})
    ChainComplex(ranks, {1: [[1]], 3: [[1]]})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans(), st.data())
def test_the_chain_map_check_matches_the_dense_reference(seed, plant, data):
    rng = random.Random(seed)
    X = random_complex(rng, name="x", max_window=4, max_rank=3)
    Y = X if rng.random() < 0.5 else random_complex(rng, name="y", max_window=4, max_rank=3)
    f = random_chain_map(rng, X, Y)
    blocks = {n: [list(r) for r in b] for n, b in f.blocks.items()}
    if plant:
        # one entry changed: mostly no chain map any more
        degs = [n for n in X.degrees() if Y.rank(n)]
        if degs:
            n = data.draw(st.sampled_from(degs))
            b = blocks.setdefault(n, [[0] * X.rank(n) for _ in range(Y.rank(n))])
            i = data.draw(st.integers(0, Y.rank(n) - 1))
            j = data.draw(st.integers(0, X.rank(n) - 1))
            b[i][j] += data.draw(st.sampled_from((-1, 1)))
    g = ChainMap(X, Y, blocks, check=False)
    want = _dense_is_chain_map(g)
    assert g.is_chain_map() == want
    if want:
        ChainMap(X, Y, blocks)
    else:
        with pytest.raises(IllegalChain):
            ChainMap(X, Y, blocks)


@st.composite
def _squares(draw):
    """A violating_square-style bicomplex: a top cell t, its d1 image l, its
    d2 image r and the bottom cell under both, with random (maybe zero)
    blocks, optionally beside a random legal bicomplex."""
    kappa, s = draw(st.sampled_from((-1, 1))), draw(st.sampled_from((-1, 1)))
    dn = 0 if kappa == -1 else -s
    top = (1 - dn, 1) if dn < 0 else (1, 1)
    lft, rgt = (top[0] - 1, top[1]), (top[0] + dn, top[1] - 1)
    bottom = (top[0] - 1 + dn, top[1] - 1)
    r = {c: draw(st.integers(1, 2)) for c in (top, lft, rgt, bottom)}
    entries = st.integers(-2, 2)
    d1 = {top: _block(draw, r[lft], r[top], entries),
          rgt: _block(draw, r[bottom], r[rgt], entries)}
    d2 = {top: _block(draw, r[rgt], r[top], entries),
          lft: _block(draw, r[bottom], r[lft], entries)}
    if draw(st.booleans()):
        # the square moved far from a seeded legal bicomplex beside it
        B = random_bicomplex(random.Random(draw(st.integers(0, 10 ** 6))), kappa, s)
        shift = lambda c: (c[0] + 20, c[1] + 20)
        r = {shift(c): k for c, k in r.items()}
        d1 = {shift(c): b for c, b in d1.items()}
        d2 = {shift(c): b for c, b in d2.items()}
        r.update(B.ranks)
        d1.update(B.d1)
        d2.update(B.d2)
    return kappa, s, r, d1, d2, (dn, -1)


@settings(max_examples=150, deadline=None)
@given(_squares())
def test_the_square_law_matches_the_dense_reference(square):
    kappa, s, ranks, d1, d2, bidegree = square
    assert _dense_bicomplex_error(ranks, d1, d2, bidegree) is None
    B = Bicomplex(ranks, d1, d2, bidegree)
    res = second_differential(B, kappa, s)
    assert res.violations == _dense_violations(B, kappa, s)
    assert res.accepted == (not res.violations)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((-1, 1)), st.sampled_from((-1, 1)), st.data())
def test_the_bicomplex_square_checks_match_the_dense_reference(seed, kappa, s, data):
    B = random_bicomplex(random.Random(seed), kappa, s)
    d1 = {c: [list(r) for r in b] for c, b in B.d1.items()}
    d2 = {c: [list(r) for r in b] for c, b in B.d2.items()}
    # one entry of one differential changed: d.d or d'.d' may no longer vanish
    pool = [(d, c) for d in (d1, d2) for c in sorted(d)]
    if pool:
        d, c = data.draw(st.sampled_from(pool))
        i = data.draw(st.integers(0, len(d[c]) - 1))
        j = data.draw(st.integers(0, len(d[c][0]) - 1))
        d[c][i][j] += data.draw(st.sampled_from((-1, 1)))
    want = _dense_bicomplex_error(B.ranks, d1, d2, B.d2_bidegree)
    if want is not None:
        with pytest.raises(IllegalChain, match=re.escape(want) + "$"):
            Bicomplex(B.ranks, d1, d2, B.d2_bidegree)
        return
    C = Bicomplex(B.ranks, d1, d2, B.d2_bidegree)
    assert second_differential(C, kappa, s).violations == _dense_violations(C, kappa, s)


# ---------------------------------------------------------------------------
# the tensor and hom layouts, against the per-entry constructions they
# replaced (each basis listed as (degree, p, q) triples and placed by a
# position dict)


def _ref_tensor_index(A, B, n):
    "(i, p, q) triples indexing (A (x) B)_n, i ascending."
    out = []
    for i in A.degrees():
        rb = B.rank(n - i)
        for p in range(A.rank(i)):
            for q in range(rb):
                out.append((i, p, q))
    return out


def _ref_hom_index(B, C, n):
    "(j, p, q) triples indexing [B, C]_n: the map sending q in B_j to p in C_{j+n}."
    out = []
    for j in B.degrees():
        rc = C.rank(j + n)
        for p in range(rc):
            for q in range(B.rank(j)):
                out.append((j, p, q))
    return out


def _ref_tensor_chains(A, B):
    ranks = {}
    for i in A.degrees():
        for j in B.degrees():
            n = i + j
            ranks[n] = ranks.get(n, 0) + A.rank(i) * B.rank(j)
    index = {n: _ref_tensor_index(A, B, n) for n in ranks}
    lookup = {n: {t: k for k, t in enumerate(ix)} for n, ix in index.items()}
    diffs = {}
    for n in ranks:
        rows = index.get(n - 1, [])
        if not rows:
            continue
        d = zeros(len(rows), len(index[n]))
        row_of = lookup[n - 1]
        for col, (i, p, q) in enumerate(index[n]):
            da = A.diffs.get(i)
            if da is not None:
                for p2, row in enumerate(da.rows):
                    if row[p]:
                        d[row_of[(i - 1, p2, q)], col] += row[p]
            db = B.diffs.get(n - i)
            if db is not None:
                sign = -1 if i % 2 else 1
                for q2, row in enumerate(db.rows):
                    if row[q]:
                        d[row_of[(i, p, q2)], col] += sign * row[q]
        diffs[n] = d
    return ChainComplex(ranks, diffs, name="(%s(x)%s)" % (A.name, B.name))


def _ref_chain_symmetry(A, B):
    blocks = {}
    for n in _ref_tensor_chains(A, B).degrees():
        src_ix = _ref_tensor_index(A, B, n)
        tgt_pos = {t: k for k, t in enumerate(_ref_tensor_index(B, A, n))}
        b = zeros(len(tgt_pos), len(src_ix))
        for col, (i, p, q) in enumerate(src_ix):
            j = n - i
            b[tgt_pos[(j, q, p)], col] = -1 if (i * j) % 2 else 1
        blocks[n] = b
    return blocks


def _ref_internal_hom(B, C):
    ranks = {}
    lo = min(C.ranks, default=0) - max(B.ranks, default=0)
    hi = max(C.ranks, default=0) - min(B.ranks, default=0)
    for n in range(lo, hi + 1):
        r = sum(B.rank(j) * C.rank(j + n) for j in B.degrees())
        if r:
            ranks[n] = r
    index = {n: _ref_hom_index(B, C, n) for n in ranks}
    diffs = {}
    for n in ranks:
        rows = index.get(n - 1, [])
        if not rows:
            continue
        d = zeros(len(rows), len(index[n]))
        row_of = {t: k for k, t in enumerate(rows)}
        sign = -1 if n % 2 else 1
        for col, (j, p, q) in enumerate(index[n]):
            dc = C.diffs.get(j + n)
            if dc is not None:
                for p2, row in enumerate(dc.rows):
                    if row[p]:
                        d[row_of[(j, p2, q)], col] += row[p]
            db = B.diffs.get(j + 1)
            if db is not None:
                for q2, c in enumerate(db.rows[q]):
                    if c:
                        d[row_of[(j + 1, p, q2)], col] += -sign * c
        diffs[n] = d
    return ChainComplex(ranks, diffs, name="[%s,%s]" % (B.name, C.name))


def _ref_curry_adjunction(A, B, C):
    "Curry and uncurry as functions from blocks to blocks."
    AB = _ref_tensor_chains(A, B)
    tensor_ix = {n: _ref_tensor_index(A, B, n) for n in AB.degrees()}
    tensor_pos = {n: {t: k for k, t in enumerate(ix)} for n, ix in tensor_ix.items()}
    hom_ix = {i: _ref_hom_index(B, C, i) for i in A.degrees()}
    hom_pos = {i: {t: k for k, t in enumerate(ix)} for i, ix in hom_ix.items()}

    def curry(phi):
        blocks = {}
        for i in A.degrees():
            rows = hom_ix[i]
            m = zeros(len(rows), A.rank(i))
            for r, (j, p, q) in enumerate(rows):
                n = i + j
                b = phi.blocks.get(n)
                if b is None:
                    continue
                row, cols = b.rows[p], tensor_pos[n]
                m.rows[r] = [row[cols[(i, pa, q)]] for pa in range(A.rank(i))]
            blocks[i] = m
        return blocks

    def uncurry(psi):
        blocks = {}
        for n, cols in tensor_ix.items():
            m = zeros(C.rank(n), len(cols))
            for cix, (i, p, q) in enumerate(cols):
                b = psi.blocks.get(i)
                if b is None:
                    continue
                rows = hom_pos[i]
                for pc in range(C.rank(n)):
                    m[pc, cix] = b[rows[(n - i, pc, q)], p]
            blocks[n] = m
        return blocks

    return curry, uncurry


def _ref_graded_tensor_map(f, g):
    comps = {}
    for i, dm in sorted(f.src.ranks.items()):
        for j, dn in sorted(g.src.ranks.items()):
            comps[i + j] = comps.get(i + j, 0) + dm * dn
    blocks = {}
    for n in comps:
        m = zeros(sum(dm * g.tgt.rank(n - i) for i, dm in f.tgt.ranks.items()), comps[n])
        top, row = {}, 0   # the first row of f.tgt_i (x) g.tgt_{n-i}
        for i, dm in sorted(f.tgt.ranks.items()):
            top[i] = row
            row += dm * g.tgt.rank(n - i)
        col = 0
        for i, dm in sorted(f.src.ranks.items()):
            width = g.src.rank(n - i)
            fb, gb = f.blocks.get(i), g.blocks.get(n - i)
            if fb is not None and gb is not None and i in top:
                height = g.tgt.rank(n - i)
                for p in range(dm):
                    for q in range(width):
                        for p2, frow in enumerate(fb.rows):
                            for q2, grow in enumerate(gb.rows):
                                m[top[i] + p2 * height + q2, col + p * width + q] = \
                                    frow[p] * grow[q]
            col += dm * width
        blocks[n] = m
    return blocks


def _same_blocks(got, want):
    "Two block dicts agree entry for entry, an absent block counting as zero."
    for n in set(got) | set(want):
        g, w = got.get(n), want.get(n)
        assert (g if g is not None else zeros(*w.shape)) == \
            (w if w is not None else zeros(*g.shape)), n


def _same_complex(got, want):
    assert got.ranks == want.ranks and got.name == want.name
    _same_blocks(got.diffs, want.diffs)


@st.composite
def _small_complexes(draw, name):
    "An empty complex, one free module in one degree, or a seeded random complex."
    kind = draw(st.sampled_from(("empty", "one-degree", "random", "random")))
    if kind == "empty":
        return ChainComplex({}, {}, name=name)
    if kind == "one-degree":
        return sphere(draw(st.integers(-2, 2)), draw(st.integers(1, 3)), name=name)
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return random_complex(rng, name=name, max_window=4, max_rank=3)


@settings(max_examples=150, deadline=None)
@given(_small_complexes("a"), _small_complexes("b"), _small_complexes("c"),
       st.integers(0, 10 ** 6))
def test_tensor_and_hom_blocks_match_the_per_entry_reference(A, B, C, seed):
    rng = random.Random(seed)
    AB = tensor_chains(A, B)
    _same_complex(AB, _ref_tensor_chains(A, B))
    H = internal_hom(B, C)
    _same_complex(H, _ref_internal_hom(B, C))
    _same_blocks(chain_symmetry(A, B).blocks, _ref_chain_symmetry(A, B))

    curry, uncurry = curry_adjunction(A, B, C)
    ref_curry, ref_uncurry = _ref_curry_adjunction(A, B, C)
    phi = random_chain_map(rng, AB, C)
    _same_blocks(curry(phi).blocks, ref_curry(phi))
    psi = random_chain_map(rng, A, H)
    _same_blocks(uncurry(psi).blocks, ref_uncurry(psi))

    M, N = underlying_graded(A), underlying_graded(B)
    f = ChainMap(M, underlying_graded(C), random_graded_map(rng, A, C))
    g = ChainMap(N, underlying_graded(A), random_graded_map(rng, B, A))
    got = tensor_chain_maps(f, g)
    assert got.src == tensor_chains(M, N)
    assert got.tgt == tensor_chains(underlying_graded(C), underlying_graded(A))
    _same_blocks(got.blocks, _ref_graded_tensor_map(f, g))
    # and on chain maps of the complexes themselves, differentials and all
    f, g = random_chain_map(rng, A, C), random_chain_map(rng, B, A)
    got = tensor_chain_maps(f, g)
    assert got.src == AB and got.tgt == tensor_chains(C, A) and got.is_chain_map()
    _same_blocks(got.blocks, _ref_graded_tensor_map(f, g))


# ---------------------------------------------------------------------------
# exact matrix input


def test_fractional_entry_is_rejected_with_its_position():
    doc = {"ranks": {"1": 1, "0": 1}, "differentials": {"1": [[2.7]]}}
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        ChainComplex.from_json(doc)


def test_boolean_entry_is_rejected_with_its_position():
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        mat([[1], [True]])


def test_ragged_rows_are_an_illegal_chain():
    with pytest.raises(IllegalChain):
        ChainComplex({1: 1, 0: 1}, {1: [[1], [2, 3]]})


@pytest.mark.parametrize("doc, message", [
    ([], r"a complex is a JSON object .*, not a list"),
    ({"differentials": {}}, r'no "ranks" key'),
    ({"ranks": {}}, r'no "differentials" key'),
    ({"ranks": [1], "differentials": {}}, r'"ranks" is an object keyed by degree, not a list'),
    ({"ranks": {"x": 1}, "differentials": {}}, r"\"ranks\" has the key 'x'"),
    ({"ranks": {"1": "x"}, "differentials": {}}, r"rank at degree 1 is 'x'"),
    ({"ranks": {"1": -1}, "differentials": {}}, r"rank at degree 1 is -1"),
    ({"ranks": {"1": 1, "0": 1}, "differentials": {"1": 2}},
     r"differential at degree 1 is a list of rows, not a number"),
    ({"ranks": {"1": 1, "0": 1}, "differentials": {"1": [2]}},
     r"row 0 of the differential at degree 1 is a list, not a number"),
    ({"ranks": {"1": 1, "0": 1}, "differentials": {"1": [[2.5]]}},
     r"differential at degree 1: entry \(0, 0\) is 2.5"),
])
def test_a_malformed_complex_document_names_what_is_wrong(doc, message):
    with pytest.raises(ValueError, match=message):
        ChainComplex.from_json(doc)


@pytest.mark.parametrize("table", ["ranks", "differentials"])
@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "0_1", "-0"])
def test_a_degree_key_is_an_integer_as_str_writes_it(table, key):
    # each of these keys names degree 1 (or 0) to int(), beside the key
    # str writes for that degree, so reading it would drop one of the two
    doc = {"ranks": {"1": 1, "0": 1}, "differentials": {"1": [[1]]}}
    doc[table][key] = 2 if table == "ranks" else [[1]]
    with pytest.raises(ValueError, match=r'"%s" has the key %s, not an integer degree'
                       % (table, re.escape(repr(key)))):
        ChainComplex.from_json(doc)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


def _paths(doc, here=()):
    "Every place in a JSON document, the root first."
    yield here
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, here + (k,))


@st.composite
def _malformed(draw, doc):
    "A well-formed document with one to three places replaced, dropped or renamed."
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JSON)
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        kind = draw(st.sampled_from(("replace", "drop", "rename")))
        if kind == "replace":
            parent[path[-1]] = draw(_JSON)
        elif kind == "drop":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=3))] = parent.pop(path[-1])
    return doc


def _complex_document(seed):
    rng = random.Random(seed)
    return random_complex(rng, name="x", max_window=3, max_rank=2).to_json()


@functools.lru_cache(maxsize=None)
def _comodule_document(seed):
    from hopfchains.pareigis import chain_to_comodule, comodule_to_json
    rng = random.Random(seed)
    X = random_complex(rng, name="x", max_window=3, max_rank=2)
    return comodule_to_json(chain_to_comodule(X, rng.choice((-1, 1))))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20).flatmap(lambda seed: _malformed(_complex_document(seed))))
def test_a_malformed_complex_document_raises_only_a_named_error(doc):
    from hopfchains.laws import IllegalComodule
    try:
        ChainComplex.from_json(doc)
    except (ValueError, IllegalChain, IllegalComodule) as err:
        assert str(err)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda seed: _malformed(_comodule_document(seed))))
def test_a_malformed_comodule_document_raises_only_a_named_error(doc):
    from hopfchains.laws import IllegalComodule
    from hopfchains.pareigis import comodule_from_json
    try:
        comodule_from_json(doc)
    except (ValueError, IllegalChain, IllegalComodule) as err:
        assert str(err)


# ---------------------------------------------------------------------------
# matrix arithmetic against a triple-loop reference


def _ref_dot(a, b, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def _mat(rows, cols):
    "mat() reads the column count off the first row, so an empty list needs zeros()."
    return mat(rows) if rows else zeros(0, cols)


def _listed(m):
    return [list(row) for row in m]


@st.composite
def _three_matrices(draw):
    "A p x q matrix, a second p x q matrix, and a q x r matrix."
    p, q, r = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.integers(-5, 5)

    def block(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    return block(p, q), block(p, q), block(q, r), r


@settings(max_examples=200, deadline=None)
@given(_three_matrices(), st.integers(-3, 3))
def test_matrix_arithmetic_matches_the_reference(abc, c):
    a, a2, b, r = abc
    q = len(b)
    A, A2, B = _mat(a, q), _mat(a2, q), _mat(b, r)
    AB = A.dot(B)
    assert AB.shape == (len(a), r)
    assert _listed(AB) == _ref_dot(a, b, r)
    assert _listed(A + A2) == [[x + y for x, y in zip(u, v)] for u, v in zip(a, a2)]
    assert _listed(-A) == [[-x for x in u] for u in a]
    assert _listed(c * A) == [[c * x for x in u] for u in a]
    assert (A + A2).shape == (-A).shape == (c * A).shape == A.shape
    assert (A == A2) == (a == a2)
    assert (A == zeros(len(a), q)) == is_zero(A)
    assert A != zeros(len(a), q + 1)


@st.composite
def _sparse_product(draw):
    "A p x q and a q x r matrix, mostly zero, whose rows often hold a single 1."
    p, q, r = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.sampled_from((0, 0, 0, 1, 1, -1, 2))

    def block(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    return block(p, q), block(q, r), r


@settings(max_examples=200, deadline=None)
@given(_sparse_product())
@example(([[0, 1], [0, 1], [0, 0]], [[3, 4], [5, 6]], 2))
def test_the_product_matches_the_per_entry_reference_and_owns_its_rows(ab):
    a, b, r = ab
    A, B = _mat(a, len(b)), _mat(b, r)
    AB = A.dot(B)
    want = _ref_dot(a, b, r)
    assert AB.shape == (len(a), r) and _listed(AB) == want
    # a product's rows are its own: writing into them changes neither
    # operand, nor another row of the product
    for row in AB.rows:
        for j in range(r):
            row[j] += 7
    assert _listed(A) == a and _listed(B) == b
    assert _listed(AB) == [[x + 7 for x in row] for row in want]


@given(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2))
def test_identities_match_the_per_entry_reference(k, top, left, below, right):
    assert _listed(eye(k)) == [[int(i == j) for j in range(k)] for i in range(k)]
    # eye(k) placed at (top, left) in a zero matrix with room below and right
    m, w = top + k + below, left + k + right
    placed = chains._eye_at((m, w), top, left, k)
    assert placed.shape == (m, w)
    assert _listed(placed) == [[int(0 <= i - top == j - left < k) for j in range(w)]
                               for i in range(m)]


def test_empty_products_keep_their_shapes():
    assert zeros(0, 3).dot(zeros(3, 2)).shape == (0, 2)
    assert zeros(2, 0).dot(zeros(0, 3)) == zeros(2, 3)


# ---------------------------------------------------------------------------
# the seeded generators, pinned byte for byte


def _cell(n):
    return ",".join(map(str, n)) if isinstance(n, tuple) else str(n)


def _blocks(blocks):
    return {_cell(n): [[int(v) for v in row] for row in b]
            for n, b in sorted(blocks.items())}


def seeded_generator_lines():
    "One JSON line per seed 0-29 with everything the seeded generators drew."
    lines = []
    for seed in range(30):
        rng = random.Random(seed)
        X = random_complex(rng, name="x")
        endo = random_chain_map(rng, X)
        Y = random_complex(rng, name="y", max_window=3, max_rank=2)
        other = random_chain_map(rng, X, Y)
        bicomplexes = {}
        for kappa in (-1, 1):
            s = rng.choice((-1, 1))
            B = random_bicomplex(rng, kappa, s)
            bicomplexes["%+d" % kappa] = {
                "s": s, "ranks": {_cell(c): r for c, r in sorted(B.ranks.items())},
                "vertical": _blocks(B.d1), "second": _blocks(B.d2)}
        entry = {"seed": seed, "complex": X.to_json(), "endomorphism": _blocks(endo.blocks),
                 "target": Y.to_json(), "map": _blocks(other.blocks),
                 "bicomplexes": bicomplexes}
        lines.append(json.dumps(entry, sort_keys=True) + "\n")
    return "".join(lines)


def test_seeded_generators_match_the_stored_draws():
    assert seeded_generator_lines() == (DATA / "seeded-generators.jsonl").read_text()


# ---------------------------------------------------------------------------
# tooling


def test_importing_the_package_does_not_import_numpy():
    src = str(Path(hopfchains.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import hopfchains, sys; assert 'numpy' not in sys.modules"],
                   env=env, check=True, timeout=120)
