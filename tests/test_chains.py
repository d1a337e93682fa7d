import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hopfchains
from hopfchains.chains import (
    Bicomplex, ChainComplex, IllegalChain, SquareViolation,
    chain_symmetry, comonad_comparison, curry_adjunction, disk,
    evaluation_map, eye, identity_chain_map, internal_hom,
    left_adjoint_complex, mat, mat_eq, random_bicomplex, random_chain_map,
    random_complex, random_unimodular, right_adjoint_complex,
    second_differential, sphere, tensor_chains, triangle_identities_hold,
    underlying_graded, is_zero, zeros,
)

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
    assert sym.block(2)[0, 0] == -1
    # degree 0 holds a0 (x) b0: sign +1
    assert sym.block(0)[0, 0] == 1
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


def test_tensor_is_associative_after_flattening():
    rng = random.Random(8)
    A = random_complex(rng, name="a", max_window=3, max_rank=2)
    B = random_complex(rng, name="b", max_window=3, max_rank=2)
    C = random_complex(rng, name="c", max_window=3, max_rank=2)
    left_first = tensor_chains(tensor_chains(A, B), C)
    right_first = tensor_chains(A, tensor_chains(B, C))
    assert left_first.ranks == right_first.ranks
    for n in left_first.degrees():
        assert mat_eq(left_first.d(n), right_first.d(n))


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
    from hopfchains.chains import _hom_index
    idx = _hom_index(B, B, 0)
    column = [1 if p == q else 0 for (j, p, q) in idx]
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
    from hopfchains.grading import GradedModule
    C = GradedModule.of({0: 1}, name="c")
    L = left_adjoint_complex(C)
    assert L.ranks == {0: 1, -1: 1}
    assert L.d(0)[0, 0] == 1
    R = right_adjoint_complex(C)
    assert R.ranks == {0: 1, 1: 1}
    assert R.d(1)[0, 0] == 1
    assert underlying_graded(L).dim_at(0) == 1
    assert underlying_graded(L).dim_at(-1) == 1


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


def test_random_unimodular_inverse():
    rng = random.Random(2)
    for k in (0, 1, 2, 3, 5):
        U, Uinv = random_unimodular(rng, k)
        assert U.dot(Uinv) == eye(k)


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
    with pytest.raises(SquareViolation):
        second_differential(B, 1, -1, strict=True)


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
    assert mat_eq(A, A2) == (a == a2)
    assert mat_eq(A, zeros(len(a), q)) == is_zero(A)
    assert not mat_eq(A, zeros(len(a), q + 1))


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
