"""hopfchains benchmark runner.

    python3 perfbench/run.py --workload laws-window --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every workload pass runs in a fresh
child process (``perfbench/child.py``) that imports the package from
``src``: one caller, in a closed loop, no threads.

``--trace 0`` (end-to-end): seven set-up probes, then full passes until
``--seconds`` is used up (at least one).  Reports medians over passes of
``accept_s``, ``reject_s`` and ``peak_rss_mb`` and the median over all
children of ``setup_s``.

``--trace 1`` (per layer): one untraced and one traced pass on the same
seed.  The traced child wraps the package's public functions from this
directory; its spans go to ``perfbench/out/`` and the overhead is
reported as traced over untraced check time.

Every verdict is checked against its known answer in both modes; wrong
verdicts count as ``failed`` and make ``correct`` false.  The last line
of stdout is the result object; the full report, with the environment,
goes to ``perfbench/out/`` and to the line before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS  # noqa: E402  (needs ROOT on the path)

OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7

END_TO_END_UNITS = {"accept_s": "s", "reject_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def spawn(workload, seed, mode, spans=None):
    """Run one child to completion; returns its report plus set-up time and peak RSS.

    Peak RSS comes from the child's own rusage via wait4.  Set-up time runs
    from just before the spawn to the child's monotonic "ready" stamp
    (CLOCK_MONOTONIC is shared by all processes on the machine).
    """
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PERFBENCH_SRC=str(ROOT / "src"))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        text = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise ChildFailed("%s child for %s exited with %d" % (mode, workload, proc.returncode))
    try:
        report = json.loads(text.decode().strip().splitlines()[-1])
    except (ValueError, IndexError) as err:
        raise ChildFailed("%s child for %s printed no report: %s" % (mode, workload, err))
    report["setup_wall_s"] = report["ready"] - started
    report["setup_s"] = report["setup_wall_s"] * report["speed"]
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["wall_s"] = wall
    return report


def git_commit():
    "The commit of the checkout, read from .git without running git; None outside a clone."
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "commit": git_commit(), "loadavg_at_start": list(os.getloadavg()),
            "machine": platform.machine()}


def end_to_end(workload, seed, seconds):
    started = time.monotonic()
    probes = [spawn(workload, seed, "probe") for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        passes.append(spawn(workload, seed, "pass"))
        elapsed = time.monotonic() - started
        if elapsed + passes[-1]["wall_s"] > seconds:
            break
    med = statistics.median
    values = {
        "accept_s": med(p["accept_s"] for p in passes),
        "reject_s": med(p["reject_s"] for p in passes),
        "setup_s": med(c["setup_s"] for c in probes + passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"passes": [{k: p[k] for k in (
                  "accept_s", "reject_s", "setup_s", "accept_wall_s", "reject_wall_s",
                  "setup_wall_s", "speed", "peak_rss_mb", "import_s", "inputs_s")}
                         for p in passes],
              "probes": [{k: c[k] for k in ("setup_s", "setup_wall_s", "speed")}
                         for c in probes]}
    return metrics, passes, detail


def per_layer(workload, seed):
    OUT.mkdir(exist_ok=True)
    plain = spawn(workload, seed, "pass")
    spans = OUT / ("spans-%s-seed%d.jsonl" % (workload, seed))
    traced = spawn(workload, seed, "trace", spans=spans)
    layers = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    layers["laws.reject_labels"] = {"value": traced["reject_labels"], "unit": "count"}
    layers["chains.inputs_s"] = {"value": plain["inputs_s"], "unit": "s"}
    layers["cli.import_s"] = {"value": plain["import_s"], "unit": "s"}
    untraced = plain["accept_wall_s"] + plain["reject_wall_s"]
    traced_s = traced["accept_wall_s"] + traced["reject_wall_s"]
    layers["trace.overhead_ratio"] = {"value": traced_s / untraced, "unit": "ratio"}
    detail = {"spans_file": str(spans.relative_to(ROOT)),
              "untraced_check_wall_s": untraced, "traced_check_wall_s": traced_s}
    return layers, [plain, traced], detail


def parse(argv):
    parser = argparse.ArgumentParser(description="hopfchains benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv=None):
    args = parse(argv)
    if not (ROOT / "src" / "hopfchains" / "__init__.py").is_file():
        print("no hopfchains source tree under %s/src; run from a checkout" % ROOT,
              file=sys.stderr)
        return 2
    env = environment()
    try:
        if args.trace:
            metrics, children, detail = per_layer(args.workload, args.seed)
        else:
            metrics, children, detail = end_to_end(args.workload, args.seed, args.seconds)
    except ChildFailed as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    wrong = [w for c in children for w in c["wrong"]]
    attempted = sum(c["attempted"] for c in children)
    env["numpy"] = children[0]["numpy"]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "passes": len(children),
              "checks_per_pass": children[0]["checks"], "wrong_verdicts": len(wrong),
              "wrong": wrong[:20], "detail": detail, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / ("report-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
