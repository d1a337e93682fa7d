"""Acceptance gate: every criterion is exact (tolerance zero).

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

import itertools
import random
import time

from hopfchains.chains import (
    Bicomplex, chain_symmetry, comonad_comparison, curry_adjunction,
    identity_chain_map, is_zero, mat, random_bicomplex, random_complex,
    second_differential, tensor_chains, triangle_identities_hold,
)
from hopfchains.diffhopf import (
    GradedCarrier, brute_force_carrier_check, check_differential_carrier,
    cyclic_tensor,
)
from hopfchains.grading import Bicharacter, monomial, sign_coelement
from hopfchains.laws import (
    Coelement, check_bialgebra_laws, check_coelement, plain_swap,
    tensor_comodule,
)
from hopfchains.linalg import equal_on_window
from hopfchains.pareigis import (
    chain_to_comodule, chain_to_wcomodule, comodule_to_chain,
    differential_comodule_bimonoid, identify_semidirect, pareigis_ring,
)
from hopfchains.semidirect import (
    comparison_f, comparison_f_inverse, semidirect_antipode,
    semidirect_product, tensor_wcomodule,
)

from random_maps import random_chain_map


def report_line(number, name, started):
    print("ACCEPTANCE %d (%s): PASS in %.2fs"
          % (number, name, time.monotonic() - started))


def test_criterion_1_hopf_suite_window_eight():
    started = time.monotonic()
    for s in (-1, 1):
        report = check_bialgebra_laws(pareigis_ring(s), plain_swap(), 8)
        assert all(report), [r for r in report if not r]
        laws = {r.law for r in report}
        assert laws >= {"associativity", "unit-left", "unit-right",
                        "coassociativity", "counit-left", "counit-right",
                        "interchange", "antipode-left", "antipode-right"}
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "suite took %.2fs, budget is 10s" % elapsed
    report_line(1, "hopf suite |k|<=8, both rings", started)


def test_criterion_2_coelement_axioms_window_eight():
    started = time.monotonic()
    for kappa in (1, -1):
        gamma = sign_coelement(Bicharacter(1, (kappa,)))
        report = check_coelement(gamma, 8)
        assert all(report), [r for r in report if not r]

    ring = sign_coelement(Bicharacter(1, (-1,))).ring

    def parity(a, b):
        return -1 if (a[2][0] + b[2][0]) % 2 else 1

    perturbed = check_coelement(Coelement(ring, parity), 8)
    assert not all(perturbed)
    bad = [r for r in perturbed if not r]
    assert all(r.counterexample is not None for r in bad)
    # spot value: at (i, j, k) = (1, 1, 1) the two sides are -1 and 1
    x = monomial
    assert parity(x(1), x(2)) == -1
    assert parity(x(1), x(1)) * parity(x(1), x(1)) == 1
    report_line(2, "coelement axioms |i|,|j|,|k|<=8 and perturbed rejection",
                started)


def test_criterion_3_identification_with_pareigis():
    started = time.monotonic()
    for s in (-1, 1):
        report = identify_semidirect(s, K=6)
        assert all(report), [r for r in report if not r]
        assert {r.law for r in report} >= {"mu", "eta", "delta", "epsilon",
                                           "antipode"}
    report_line(3, "semidirect product equals the Pareigis ring, K=6", started)


def test_criterion_4_semidirect_theorem():
    started = time.monotonic()
    for s in (-1, 1):
        hb = differential_comodule_bimonoid(s)
        sd = semidirect_product(hb, window=6)
        report = check_bialgebra_laws(sd, plain_swap(), 6)
        assert all(report), [r for r in report if not r]
        semidirect_antipode(hb, window=6)  # raises on any identity failure
    report_line(4, "semidirect bimonoid suite and antipode identities, K=6",
                started)


def test_criterion_5_equivalence_round_trips():
    started = time.monotonic()
    rng = random.Random(2026)
    for trial in range(100):
        X = random_complex(rng, name="r%d" % trial, max_window=7, max_rank=4)
        s = -1 if trial % 2 else 1
        com = chain_to_comodule(X, s)
        assert comodule_to_chain(com) == X, trial

    for s in (-1, 1):
        hb = differential_comodule_bimonoid(s)
        for trial in range(25):
            B = chain_to_wcomodule(
                random_complex(rng, name="f%d" % trial, max_window=4, max_rank=3),
                s, hb)
            FB = comparison_f(B, window=0)
            back = comparison_f_inverse(FB, window=0)
            again = comparison_f(back, window=0)
            for b in B.carrier.enumerate(0):
                assert back.alpha.apply(b) == B.alpha.apply(b)
                assert back.chi.apply(b) == B.chi.apply(b)
                assert again.coaction.apply(b) == FB.coaction.apply(b)
            C = chain_to_wcomodule(
                random_complex(rng, name="g%d" % trial, max_window=3, max_rank=2),
                s, hb)
            lhs = comparison_f(tensor_wcomodule(B, C, window=0), window=0)
            rhs = tensor_comodule(comparison_f(B, window=0),
                                  comparison_f(C, window=0), check_window=None)
            assert equal_on_window(lhs.coaction, rhs.coaction, 0).equal
    report_line(5, "100 chain round trips; 50 comparison samples", started)


def test_criterion_6_carrier_decision_procedure():
    started = time.monotonic()
    degrees = [(-2,), (-1,), (0,), (1,), (2,)]
    orders = [0, 2, 3, 4]
    pool = list(itertools.product(degrees, orders))
    total = 0
    for size in (1, 2, 3):
        for pick in itertools.combinations_with_replacement(pool, size):
            D = GradedCarrier.of(pick)
            for kappa in (-1, 1):
                bich = Bicharacter(1, (kappa,))
                total += 1
                assert bool(check_differential_carrier(D, bich)) \
                    == brute_force_carrier_check(D, bich), (pick, kappa)
    assert total >= 2 * 10 ** 3

    minus = Bicharacter(1, (-1,))
    for s in (-2, -1, 0, 1, 2):
        verdict = check_differential_carrier(GradedCarrier.of([((s,), 0)]), minus)
        assert bool(verdict) == (s % 2 == 1), s

    for p, q in ((2, 3), (2, 5), (3, 5)):
        for a, b in itertools.product((1, 2, 3), repeat=2):
            assert cyclic_tensor(p ** a, p ** b) == p ** min(a, b)
            assert cyclic_tensor(p ** a, q ** b) == 1
    report_line(6, "%d carrier decisions against the brute-force oracle" % total,
                started)


def test_criterion_7_monoidal_closed_and_adjoint_structure():
    started = time.monotonic()
    rng = random.Random(777)

    for _ in range(20):
        A = random_complex(rng, name="a", max_window=5, max_rank=3)
        B = random_complex(rng, name="b", max_window=5, max_rank=3)
        sym = chain_symmetry(A, B)
        assert sym.is_chain_map()
        assert sym.then(chain_symmetry(B, A)) == identity_chain_map(tensor_chains(A, B))
        T = tensor_chains(A, B)
        for n, d in T.diffs.items():
            assert n - 1 not in T.diffs or is_zero(T.diffs[n - 1].dot(d))

    for trial in range(100):
        A = random_complex(rng, name="ca", max_window=3, max_rank=2)
        B = random_complex(rng, name="cb", max_window=3, max_rank=2)
        AB = tensor_chains(A, B)
        curry, uncurry = curry_adjunction(A, B, AB)
        phi = random_chain_map(rng, AB)
        psi = curry(phi)
        assert psi.is_chain_map()
        assert uncurry(psi) == phi, trial

    for _ in range(30):
        assert triangle_identities_hold(random_complex(rng, name="t"))

    for trial in range(100):
        X = random_complex(rng, name="u%d" % trial)
        maps = [random_chain_map(rng, X)]
        assert comonad_comparison(X, maps).equal, trial
    report_line(7, "symmetry, tensor d^2=0, 100 curry round trips, "
                   "triangles, 100 comonad comparisons", started)


def test_criterion_8_bicomplex_squares():
    started = time.monotonic()
    rng = random.Random(515)
    for trial in range(25):
        for kappa in (-1, 1):
            s = rng.choice((-1, 1))
            B = random_bicomplex(rng, kappa, s)
            res = second_differential(B, kappa, s)
            assert res.accepted, (trial, kappa, s, res.violations)
            assert res.comodule is not None  # legality checked on emit
            assert res.chain_compat.equal

    # enforcement: a commuting square is rejected under kappa = +1 and a
    # sign-flipped square under kappa = -1
    ranks = {(1, 1): 1, (0, 1): 1, (2, 0): 1, (1, 0): 1}
    d1 = {(1, 1): mat([[1]]), (2, 0): mat([[1]])}
    d2 = {(0, 1): mat([[1]]), (1, 1): mat([[1]])}
    res = second_differential(Bicomplex(ranks, d1, d2, (1, -1)), 1, -1)
    assert not res.accepted and (1, 1) in res.violations

    ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d1 = {(1, 0): mat([[1]]), (1, 1): mat([[1]])}
    d2 = {(0, 1): mat([[1]]), (1, 1): mat([[-1]])}
    res = second_differential(Bicomplex(ranks, d1, d2, (0, -1)), -1, 1)
    assert not res.accepted and (1, 1) in res.violations
    report_line(8, "50 random bicomplexes accepted, sign violations rejected",
                started)
