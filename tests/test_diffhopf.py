import itertools
import json

import pytest

from hopfchains.diffhopf import (
    GradedCarrier, NotAdmissible, RankMismatch, brute_force_carrier_check,
    build_differential_hopf, check_differential_carrier, cyclic_tensor,
)
from hopfchains.grading import (
    Bicharacter, GradedModule, graded_to_comodule, sign_coelement,
)
from hopfchains.laws import check_bialgebra_laws
from hopfchains.linalg import UNIT, CheckResult, Vec, left, pair, right


def carrier(*summands):
    return GradedCarrier.of(summands)


def test_cyclic_tensor_table():
    assert cyclic_tensor(2, 2) == 2        # Z/2 (x) Z/2 = Z/2
    assert cyclic_tensor(8, 0) == 8        # Z is the tensor unit
    assert cyclic_tensor(0, 0) == 0        # Z (x) Z = Z
    # CRT oracle: Z/4 (x) (Z/2 + Z/3) = Z/2 + 0
    assert cyclic_tensor(4, 6) == 2
    # prime-power rows: delta_{s,t} p^min
    for p, q in ((2, 3), (3, 5), (2, 5)):
        for a, b in itertools.product((1, 2, 3), repeat=2):
            assert cyclic_tensor(p ** a, q ** b) == 1
            assert cyclic_tensor(p ** a, p ** b) == p ** min(a, b)


def minus_one(rank=1):
    return Bicharacter(rank, (-1,) * rank)


def test_free_generator_in_odd_degree_is_admissible():
    assert check_differential_carrier(carrier(((-1,), 0)), minus_one())
    assert check_differential_carrier(carrier(((1,), 0)), minus_one())


def test_free_generator_in_even_degree_is_rejected():
    verdict = check_differential_carrier(carrier(((0,), 0)), minus_one())
    assert not verdict
    assert "sign +1" in verdict.counterexample["diagnostics"][0]


def test_coprime_torsion_across_degrees_is_admissible():
    # Z/3 in an odd degree, Z/2 in an even degree: cross tensor vanishes
    # and -1 = +1 holds mod 2.
    assert check_differential_carrier(carrier(((1,), 3), ((2,), 2)), minus_one())


def test_shared_prime_across_degrees_is_rejected():
    verdict = check_differential_carrier(carrier(((1,), 2), ((2,), 2)), minus_one())
    assert not verdict
    assert "tensor to Z/2" in verdict.counterexample["diagnostics"][0]


def test_two_free_summands_tensor_to_z_not_z_mod_zero():
    # order 0 is Z in both kinds of diagnostic
    verdict = check_differential_carrier(carrier(((1,), 0), ((3,), 0)), minus_one())
    assert verdict.counterexample["diagnostics"] == [
        "summands of orders 0 and 0 at degrees (1,),(3,) tensor to Z != 0"]
    verdict = check_differential_carrier(carrier(((0,), 0), ((2,), 0)), minus_one())
    assert verdict.counterexample["diagnostics"] == [
        "summands of orders 0 and 0 at degrees (0,),(2,) tensor to Z != 0",
        "swap sign +1 at degree (0,): braiding cannot be -1 on Z",
        "swap sign +1 at degree (2,): braiding cannot be -1 on Z"]


def test_a_decision_row_counts_instances_and_a_law_row_labels():
    accepted = check_differential_carrier(carrier(((1,), 0)), minus_one())
    assert repr(accepted) == "carrier-decision: accept (1 instances)"
    assert repr(CheckResult("mu", "equal", 9)) == "mu: equal (9 labels)"
    rejected = check_differential_carrier(carrier(((0,), 0)), minus_one())
    assert repr(rejected) == ("carrier-decision: reject {'diagnostics': "
                              "['swap sign +1 at degree (0,): braiding cannot be -1 on Z']}")


def test_rank_mismatch_is_an_error():
    with pytest.raises(RankMismatch):
        check_differential_carrier(carrier(((1, 0), 0)), minus_one(1))


def test_decision_agrees_with_brute_force_oracle_on_a_slice():
    degrees = [(-2,), (-1,), (0,), (1,), (2,)]
    orders = [0, 2, 3, 4]
    pool = list(itertools.product(degrees, orders))
    for kappa in (-1, 1):
        bich = Bicharacter(1, (kappa,))
        for pick in itertools.combinations_with_replacement(pool, 2):
            D = GradedCarrier.of(pick)
            assert bool(check_differential_carrier(D, bich)) \
                == brute_force_carrier_check(D, bich)


def test_rank_two_decision_spot_checks():
    bich = Bicharacter(2, (-1, -1))
    # gamma((1,1),(1,1)) = (-1)(-1) = +1: a free summand there is rejected
    assert not check_differential_carrier(carrier(((1, 1), 0)), bich)
    # gamma((1,0),(1,0)) = -1: accepted
    assert check_differential_carrier(carrier(((1, 0), 0)), bich)


def test_order_one_summands_normalize_away():
    assert carrier(((3,), 1)).summands == ()
    assert carrier(((3,), 1), ((1,), 0)).summands == (((1,), 0),)


def test_a_carrier_document_reads_as_its_summands():
    doc = json.loads('{"rank": 1, "summands": [{"degree": [2], "order": 2},'
                     ' {"degree": [1], "order": 0}, {"degree": [5], "order": 1}]}')
    assert GradedCarrier.from_json(doc) == carrier(((1,), 0), ((2,), 2))


@pytest.mark.parametrize("s", [-1, 1])
def test_two_term_hopf_structure_maps(s):
    gamma = sign_coelement(minus_one())
    D = graded_to_comodule(GradedModule.of({s: 1}, name="d"), gamma.ring)
    hb = build_differential_hopf(D, gamma)
    H = hb.hopf
    d = left(D.carrier.enumerate(0)[0])
    one = right(UNIT)
    assert H.mu.apply(pair(d, one)) == Vec.basis(d)
    assert H.mu.apply(pair(one, d)) == Vec.basis(d)
    assert H.mu.apply(pair(d, d)) == Vec.zero()
    assert H.antipode.apply(d) == Vec.basis(d, -1)
    assert H.antipode.apply(one) == Vec.basis(one)
    assert H.delta.apply(d) == Vec.basis(pair(d, one)) + Vec.basis(pair(one, d))


@pytest.mark.parametrize("s", [-1, 1])
def test_two_term_hopf_passes_braided_suite(s):
    gamma = sign_coelement(minus_one())
    D = graded_to_comodule(GradedModule.of({s: 1}, name="d"), gamma.ring)
    hb = build_differential_hopf(D, gamma)
    report = check_bialgebra_laws(hb.hopf, hb.braiding(), 5)
    assert all(report), [r for r in report if not r]


def test_even_degree_generator_raises_not_admissible():
    gamma = sign_coelement(minus_one())
    D = graded_to_comodule(GradedModule.of({0: 1}, name="d"), gamma.ring)
    with pytest.raises(NotAdmissible):
        build_differential_hopf(D, gamma)


def test_a_caught_rejection_renders_no_vector(monkeypatch):
    # the reason is written out only when asked for, not when raised
    rendered = []
    real = Vec.__repr__
    monkeypatch.setattr(Vec, "__repr__", lambda v: rendered.append(v) or real(v))
    gamma = sign_coelement(minus_one())
    D = graded_to_comodule(GradedModule.of({0: 1}, name="d"), gamma.ring)
    with pytest.raises(NotAdmissible) as caught:
        build_differential_hopf(D, gamma)
    assert rendered == []
    assert str(caught.value) == ("self-braiding: differ at d(0,0)*d(0,0): "
                                 "d(0,0)*d(0,0) != -d(0,0)*d(0,0)")
    assert rendered


def test_rank_two_free_summand_in_one_degree_fails_the_window_guard():
    # swap is not the identity on a rank-2 component, so the self-braiding
    # cannot be -1; the window check must catch it.
    gamma = sign_coelement(minus_one())
    D = graded_to_comodule(GradedModule.of({1: 2}, name="d"), gamma.ring)
    with pytest.raises(NotAdmissible):
        build_differential_hopf(D, gamma)
