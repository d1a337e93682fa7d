"""Compare the benchmark of two checkouts in alternating runs, and write a BENCH file.

    python3 bench_trajectory.py BASE HEAD PAIRS SEED SECONDS

BASE and HEAD are checkouts of the repository, for example a clone of
the parent commit and the change, and PAIRS is 2 or more.  For each
pair and each workload of ``perfbench``, ``perfbench/run.py --trace 0``
runs once in each checkout, the base first in even pairs and the head
first in odd ones, so that a drift of the machine's speed falls on both
alike.  Every run must read ``correct: true, failed: 0``.

A run writes no bytecode (``PYTHONDONTWRITEBYTECODE=1``), and the
script refuses to start while either checkout holds a ``__pycache__``
under ``src/`` or ``perfbench/``: a child would import that side's
cached bytecode, or recompile its source if the cache is stale, and
time and size a different program than the other side's.

The result goes to ``BENCH_<commit>.json`` in this directory, named
after the head's commit, with a ``+`` when the head has changes that
are not committed.  For each workload and end-to-end metric it holds
the median and quartiles of both sides, and the pairs in which the
head is lower; and the machine's CPU count, the Python version and
both commits.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
WORKLOADS = ("laws-window", "semidirect-build", "chain-complexes")
# where a checkout's children import from: neither may hold bytecode
SOURCES = ("src", "perfbench")


def run(checkout, workload, seed, seconds):
    "The end-to-end metrics of one run of the benchmark in a checkout."
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        check=True, capture_output=True, text=True).stdout.splitlines()
    report, result = json.loads(out[-2]), json.loads(out[-1])
    if result["correct"] is not True or result["failed"]:
        sys.exit("%s: %s gave a wrong verdict: %s" % (checkout, workload, report["wrong"]))
    return {k: m["value"] for k, m in result["metrics"].items()}


def caches(checkout):
    "The ``__pycache__`` directories under the checkout's sources."
    return sorted(c for d in SOURCES for c in (checkout / d).rglob("__pycache__"))


def commit(checkout):
    "The checkout's commit, with a + when its tracked files have changes."
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout)] + list(args), check=True,
                              capture_output=True, text=True).stdout.strip()
    changed = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "--short", "HEAD") + ("+" if changed else "")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv):
    if len(argv) != 5:
        sys.exit(__doc__)
    base, head = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    pairs, seed, seconds = int(argv[2]), int(argv[3]), float(argv[4])
    if pairs < 2:
        sys.exit(__doc__)
    found = caches(base) + caches(head)
    if found:
        sys.exit("%s holds bytecode that a run would import; delete it first" % found[0])
    runs = {w: {"base": [], "head": []} for w in WORKLOADS}
    for i in range(pairs):
        for w in WORKLOADS:
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[w][side].append(run(base if side == "base" else head, w, seed, seconds))
            print("pair %d %s: %s" % (i + 1, w, " ".join(
                "%s %s %.4f" % (side, k, runs[w][side][-1][k])
                for side in ("base", "head") for k in ("accept_s", "reject_s"))), flush=True)
    workloads = {}
    for w, sides in runs.items():
        workloads[w] = {}
        for k in sides["base"][0]:
            b = [m[k] for m in sides["base"]]
            h = [m[k] for m in sides["head"]]
            workloads[w][k] = {"base": summary(b), "head": summary(h),
                               "head_lower_in_pairs": sum(y < x for x, y in zip(b, h))}
    heads = commit(head)
    doc = {"base_commit": commit(base), "head_commit": heads, "pairs": pairs, "seed": seed,
           "seconds": seconds, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "machine": platform.machine(),
           "command": "python3 perfbench/run.py --workload W --seed %d --seconds %g --trace 0"
                      % (seed, seconds),
           "workloads": workloads}
    out = ROOT / ("BENCH_%s.json" % heads)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote", out.name)


if __name__ == "__main__":
    main(sys.argv[1:])
