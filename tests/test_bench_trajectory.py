"""``bench_trajectory.py`` refuses what it cannot measure before it runs
anything, and its runs write no bytecode."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench_trajectory.py"


def load():
    "The script as a module of its own."
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    "The script as a module whose runs fail the test."
    module = load()

    def run(*args):
        pytest.fail("a run started")
    monkeypatch.setattr(module, "run", run)
    return module


def checkouts(tmp_path):
    "Two empty checkouts, as the script's first two arguments."
    base, head = tmp_path / "base", tmp_path / "head"
    for checkout in (base, head):
        (checkout / "src").mkdir(parents=True)
    return [str(base), str(head)]


def test_one_pair_is_refused_with_the_usage(bench, tmp_path):
    # the quartiles of one run are undefined
    with pytest.raises(SystemExit) as refused:
        bench.main(checkouts(tmp_path) + ["1", "4281", "1"])
    assert refused.value.code == bench.__doc__


@pytest.mark.parametrize("side", ["base", "head"])
@pytest.mark.parametrize("sources", ["src/hopfchains", "perfbench"])
def test_a_checkout_holding_bytecode_is_refused_by_name(bench, tmp_path, side, sources):
    args = checkouts(tmp_path)
    cache = tmp_path / side / sources / "__pycache__"
    cache.mkdir(parents=True)
    with pytest.raises(SystemExit) as refused:
        bench.main(args + ["2", "4281", "1"])
    assert str(cache) in refused.value.code


def test_a_run_writes_no_bytecode(monkeypatch, tmp_path):
    bench = load()
    envs = []
    result = {"correct": True, "failed": 0, "metrics": {"accept_s": {"value": 0.5}}}

    def run(cmd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, "{}\n%s\n" % json.dumps(result))
    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench.run(tmp_path, "laws-window", 4281, 1) == {"accept_s": 0.5}
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]
