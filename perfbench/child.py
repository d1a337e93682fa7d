"""One benchmark child process, started fresh by ``perfbench/run.py``.

It imports the package from the checkout's ``src``, builds one
workload's seeded inputs, reports when it is ready to verify, and then
(unless it only probes set-up) runs every check once, in order, one
after another, gating each verdict against its known answer.  It prints
one JSON object on stdout.

    python3 -m perfbench.child --workload laws-window --seed 1 --mode pass
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import signal
import statistics
import sys
import time

# A child that hangs is killed, so the runner always gets an exit status.
CHILD_TIMEOUT_S = 170

# Speed normalisation.  On a shared 2-vCPU VM a fixed pure-Python loop
# runs 20-60 % faster or slower from one second or minute to the next,
# which swamps any change to the program.  So a pass times a fixed
# reference slice every SLICE_EVERY_S seconds of CPU time, from a timer
# signal, so that long checks are sampled inside too.  Each check's time
# is scaled by REFERENCE_S / (mean of the slices taken during it and the
# one on either side): times are reported in seconds at the speed where
# one slice takes REFERENCE_S.  Raw wall times are reported next to them.
REFERENCE_S = 0.0065
SLICE_EVERY_S = 0.25


def _reference_work():
    table = {}
    total = 0
    for j in range(20000):
        key = (j & 1023, "k")
        table[key] = table.get(key, 0) + j
        total += len(key)
    return total


def reference_slice():
    "Wall time of the fixed reference work, with the collector paused so the program's heap cannot change it."
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    "Reference slices, one on entry and exit and one per SLICE_EVERY_S of CPU time between."

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        self.slices.append(reference_slice())

    def __enter__(self):
        self.slices.append(reference_slice())
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.slices.append(reference_slice())


def run_checks(checks, tracer):
    """Closed loop: each check starts when the previous verdict has returned.

    Returns raw and speed-normalised check time per kind, and the wrong
    verdicts.  The traced run takes no reference slices, so that none lands
    inside a span; its normalised times equal its raw ones.
    """
    clock = time.perf_counter
    probe = SpeedProbe()
    records, wrong = [], []
    with probe if tracer is None else contextlib.nullcontext():
        for check in checks:
            first = len(probe.slices)
            start = clock()
            try:
                if tracer is None:
                    problems = check.run()
                else:
                    problems = tracer.call("check:" + check.group, check.run)
            except Exception as err:  # a verdict was due; an exception is a wrong one
                problems = ["raised %s: %s" % (type(err).__name__, err)]
            spent = clock() - start
            during = len(probe.slices)
            spent -= sum(probe.slices[first:during])
            records.append((check.kind, spent, first, during))
            if problems:
                wrong.append({"check": check.name,
                              "problems": [str(p)[:300] for p in problems[:3]]})
    raw = {"accept": 0.0, "reject": 0.0}
    scaled = {"accept": 0.0, "reject": 0.0}
    for kind, spent, first, during in records:
        raw[kind] += spent
        around = probe.slices[max(first - 1, 0):during + 1]
        scaled[kind] += spent * REFERENCE_S / statistics.fmean(around) if around else spent
    return raw, scaled, wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "pass", "trace"), required=True)
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = parser.parse_args(argv)
    signal.alarm(CHILD_TIMEOUT_S)

    started = time.perf_counter()
    import hopfchains
    import_s = time.perf_counter() - started
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(hopfchains.__file__).startswith(src + os.sep):
        sys.exit("imported hopfchains from %s, not from %s" % (hopfchains.__file__, src))

    from perfbench import workloads

    tracer = None
    if args.mode == "trace":
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()
    lib = workloads.Lib()
    stats = workloads.Stats()
    started = time.perf_counter()
    checks = workloads.BUILDERS[args.workload](lib, random.Random(args.seed), stats)
    inputs_s = time.perf_counter() - started
    numpy = sys.modules.get("numpy")
    out = {"ready": time.monotonic(), "import_s": import_s, "inputs_s": inputs_s,
           "numpy": getattr(numpy, "__version__", None), "checks": len(checks),
           "speed": REFERENCE_S / statistics.median(reference_slice() for _ in range(5))}

    if args.mode != "probe":
        gc.collect()  # start every pass from the same heap, not from set-up's garbage
        raw, scaled, wrong = run_checks(checks, tracer)
        out.update(accept_s=scaled["accept"], reject_s=scaled["reject"],
                   accept_wall_s=raw["accept"], reject_wall_s=raw["reject"],
                   attempted=len(checks), wrong=wrong,
                   reject_labels=stats.reject_labels)
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
