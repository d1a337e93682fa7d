"""The benchmark's own tests (slow: they run whole workload passes).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, run
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# counts a later change may cite as evidence; they must repeat exactly
REPEATABLE = ("linalg.apply_calls", "linalg.maps_built", "linalg.labels_checked",
              "laws.suite_runs", "semidirect.product_builds")


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (run.spawn(workload, 7, "trace") for _ in range(2))
    for key in REPEATABLE:
        assert first["layers"][key] == second["layers"][key], key
    assert first["reject_labels"] == second["reject_labels"]
    assert first["wrong"] == second["wrong"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_second_seed_gives_no_wrong_verdicts(workload):
    child = run.spawn(workload, 2, "pass")
    assert child["wrong"] == [] and child["attempted"] == child["checks"] > 0


def test_printed_metrics_are_the_declared_ones():
    result = bench("--workload", "chain-complexes", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0
    assert sorted(doc["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    echo = json.loads(result.stdout.strip().splitlines()[-2])
    assert echo["seed"] == 1 and echo["environment"]["nproc"] >= 1

    result = bench("--workload", "chain-complexes", "--seed", "1", "--seconds", "1",
                   "--trace", "1")
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    assert doc["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared


def test_runner_refuses_a_tree_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        result = bench("--workload", "laws-window", "--seed", "1", "--seconds", "1",
                       cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def law_breaks(ranks, d1, d2, dn, kappa):
    "Cells where d2.d1 != -kappa . d1.d2, in plain Python."
    def get(table, cell, target):
        return table.get(cell) or inputs.zeros(ranks.get(target, 0), ranks.get(cell, 0))

    bad = []
    for (n, m), r in sorted(ranks.items()):
        left, right = (n - 1, m), (n + dn, m - 1)
        bottom = (n - 1 + dn, m - 1)
        via_d1 = inputs.matmul(get(d2, left, bottom), get(d1, (n, m), left), r)
        via_d2 = inputs.matmul(get(d1, right, bottom), get(d2, (n, m), right), r)
        if via_d1 != [[-kappa * v for v in row] for row in via_d2]:
            bad.append((n, m))
    return bad


def test_generated_inputs_keep_their_promises():
    rng = random.Random(3)
    for _ in range(50):
        c = inputs.random_complex(rng, 7, 4)
        for n, d in c.diffs.items():
            assert inputs.is_zero(inputs.matmul(c.d(n - 1), d, c.rank(n)))
    for kappa in (-1, 1):
        for s in (-1, 1):
            dn = 0 if kappa == -1 else -s
            for _ in range(20):
                legal = inputs.random_bicomplex(rng, kappa, s)
                assert legal[3] == (dn, -1)
                assert law_breaks(*legal[:3], dn, kappa) == []
                square = inputs.violating_square(rng, kappa, s)
                assert law_breaks(*square[:3], dn, kappa) == [square[4]]
                summed = inputs.bicomplex_sum(legal[:3], square[:3], dn)
                assert law_breaks(*summed, dn, kappa) == [square[4]]
