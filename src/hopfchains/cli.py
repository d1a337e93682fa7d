"""Command-line front end: build rings, run law suites, emit reports.

Every command appends its verdict rows (``CheckResult``s) to one
``Report``; a suite's rows are named ``suite/law``.  Exit status is 0
when every verdict is equal/accept, 1 on any failure, 2 on a config
error.  With a fixed config and seed the JSON report is byte-identical
across runs (timings are reported in text format only; the JSON keeps a
zero placeholder so the schema is stable).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

from . import __version__
from .chains import random_bicomplex, random_complex, second_differential
from .diffhopf import (
    GradedCarrier, NotAdmissible, brute_force_carrier_check,
    build_differential_hopf, check_differential_carrier,
)
from .grading import Bicharacter, GradedModule, graded_to_comodule, laurent_hopf, sign_coelement
from .laws import (
    VALIDATION_WINDOW, Report, check_bialgebra_laws, check_coelement, plain_swap,
    tensor_comodule,
)
from .pareigis import (
    chain_to_comodule, chain_to_wcomodule, comodule_to_chain,
    differential_comodule_bimonoid, identify_semidirect, ring_by_name,
)
from .semidirect import (
    comparison_f, comparison_f_inverse, semidirect_product, tensor_wcomodule,
)
from .linalg import CheckResult, counterexample_json, equal_on_window

COMMANDS = ("check-axioms", "build-semidirect", "verify-pareigis",
            "roundtrip", "carrier-check", "bicomplex-check")


# The most labels one law may enumerate (seconds of checking per law; the
# README commands stay under 40,000).  A window past it would run for
# minutes to days, so it is refused as a config error before anything is
# built.
LABEL_BUDGET = 10 ** 6


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    ring: str = "pareigis"
    carrier_file: str | None = None
    window: int = 6
    trials: int = 25
    seed: int = 0
    s: int = -1
    format: str = "json"
    output: str | None = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError("unknown command %r" % self.command)
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.s not in (-1, 1):
            raise ConfigError("s must be -1 or 1")
        if self.format not in ("json", "text"):
            raise ConfigError("format must be json or text")
        labels = _largest_law_window(self)
        if labels > LABEL_BUDGET:
            raise ConfigError("window %d means about %d labels in one law, above the "
                              "budget of %d" % (self.window, labels, LABEL_BUDGET))


def _largest_law_window(cfg):
    """Labels in the largest window one law of the command enumerates.

    Read off the window formulas, nothing is enumerated: a window K has
    2K + 1 Laurent monomials, and P, P+ and (I + D) (x) Z have
    (1 + dim D)(2K + 1) basis labels with dim D = 1 for P and P+.  The
    largest laws are three-fold (associativity, coelement axioms 2 and
    3) except in ``verify-pareigis``, whose largest map is the product
    on a two-fold window next to the product suite at the validation
    window.  The other commands take no window.
    """
    n = 2 * cfg.window + 1
    if cfg.command == "check-axioms":
        return (n if cfg.ring == "laurent" else 2 * n) ** 3
    if cfg.command == "build-semidirect":
        dim_d = 1
        if cfg.carrier_file:
            dim_d = len(_carrier_from_file(cfg.carrier_file).summands)
        return ((1 + dim_d) * n) ** 3
    if cfg.command == "verify-pareigis":
        return max((2 * n) ** 2, (2 * (2 * VALIDATION_WINDOW + 1)) ** 3)
    return 0


def _under(prefix, report):
    "A suite's rows, each named prefix/law and keeping its own seconds."
    return [replace(r, law="%s/%s" % (prefix, r.law)) for r in report]


def cmd_check_axioms(cfg, report):
    if cfg.ring == "laurent":
        ring = laurent_hopf(1)
        report.extend(_under("laws", check_bialgebra_laws(ring, plain_swap(), cfg.window)))
        for kappa in (1, -1):
            coel = sign_coelement(Bicharacter(1, (kappa,)))
            report.extend(_under("coelement[kappa=%+d]" % kappa,
                                 check_coelement(coel, cfg.window)))
    else:
        try:
            ring = ring_by_name(cfg.ring)
        except KeyError:
            raise ConfigError("unknown ring %r (try pareigis, pareigis-plus, laurent)"
                              % cfg.ring)
        report.extend(_under("laws", check_bialgebra_laws(ring, plain_swap(), cfg.window)))


def _carrier_from_file(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return GradedCarrier.from_json(doc)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ConfigError("cannot read carrier file %s: %s" % (path, err))


def cmd_build_semidirect(cfg, report):
    if cfg.carrier_file:
        carrier = _carrier_from_file(cfg.carrier_file)
        if carrier.rank != 1:
            raise ConfigError("build-semidirect needs a rank-1 carrier")
        if any(order != 0 for _, order in carrier.summands):
            raise ConfigError("build-semidirect needs a free carrier "
                              "(torsion summands cannot be based)")
        comps = {}
        for deg, _ in carrier.summands:
            comps[deg] = comps.get(deg, 0) + 1
        dmod = GradedModule.of(comps, rank=1, name="d")
    else:
        dmod = GradedModule.of({cfg.s: 1}, rank=1, name="d")
    gamma = sign_coelement(Bicharacter(1, (-1,)))
    started = time.perf_counter()
    try:
        hb = build_differential_hopf(graded_to_comodule(dmod, gamma.ring), gamma,
                                     window=cfg.window)
    except NotAdmissible as err:
        report.append(CheckResult("admissibility", "reject", 1, {"reason": str(err)},
                                  time.perf_counter() - started))
        return
    report.append(CheckResult("admissibility", "accept", 1, None,
                              time.perf_counter() - started))
    # the product's suite at the requested window, failing rows included
    report.extend(_under("semidirect", semidirect_product(hb, window=None).suite(cfg.window)))


def cmd_verify_pareigis(cfg, report):
    report.extend(_under("identify[s=%+d]" % cfg.s, identify_semidirect(cfg.s, K=cfg.window)))


def cmd_roundtrip(cfg, report):
    rng = random.Random(cfg.seed)
    for s in (-1, 1):
        started = time.perf_counter()
        bad = None
        for trial in range(cfg.trials):
            X = random_complex(rng, name="rt%d" % trial)
            com = chain_to_comodule(X, s)
            back = comodule_to_chain(com)
            if back != X:
                bad = {"trial": trial, "ranks": {str(n): r for n, r in X.ranks.items()}}
                break
        report.append(CheckResult("chain-comodule[s=%+d]" % s,
                                  "equal" if bad is None else "differ",
                                  cfg.trials, bad, time.perf_counter() - started))

    hb = differential_comodule_bimonoid(cfg.s)
    bad = mono_bad = None
    n_mono = 0
    inverse_s = mono_s = 0.0   # each row's own time: the two checks interleave
    for trial in range(cfg.trials):
        started = time.perf_counter()
        X = random_complex(rng, name="fw%d" % trial, max_window=4, max_rank=3)
        B = chain_to_wcomodule(X, cfg.s, hb)
        FB = comparison_f(B, window=0)
        back = comparison_f_inverse(FB, window=0)
        for b in B.carrier.enumerate(0):
            if (back.alpha.apply(b) != B.alpha.apply(b)
                    or back.chi.apply(b) != B.chi.apply(b)):
                bad = {"trial": trial}
                break
        inverse_s += time.perf_counter() - started
        if bad:
            break
        if trial % 5 == 0:
            started = time.perf_counter()
            Y = random_complex(rng, name="mw%d" % trial, max_window=3, max_rank=2)
            C = chain_to_wcomodule(Y, cfg.s, hb)
            lhs = comparison_f(tensor_wcomodule(B, C, window=0), window=0)
            rhs = tensor_comodule(FB, comparison_f(C, window=0), check_window=None)
            n_mono += 1
            verdict = equal_on_window(lhs.coaction, rhs.coaction, 0, law="monoidal")
            mono_s += time.perf_counter() - started
            if not verdict.equal:
                mono_bad = {"trial": trial}
                break
    report.append(CheckResult("comparison-inverse", "equal" if bad is None else "differ",
                              cfg.trials, bad, inverse_s))
    report.append(CheckResult("comparison-monoidal",
                              "equal" if mono_bad is None else "differ",
                              n_mono, mono_bad, mono_s))


def cmd_carrier_check(cfg, report):
    if not cfg.carrier_file:
        raise ConfigError("carrier-check needs --carrier-file")
    carrier = _carrier_from_file(cfg.carrier_file)
    bich = Bicharacter(carrier.rank, (-1,) * carrier.rank)
    decision = check_differential_carrier(carrier, bich)
    report.append(decision)
    started = time.perf_counter()
    oracle = brute_force_carrier_check(carrier, bich)
    report.append(CheckResult("carrier-oracle-agreement",
                              "equal" if oracle == decision.equal else "differ", 1, None,
                              time.perf_counter() - started))


def cmd_bicomplex_check(cfg, report):
    rng = random.Random(cfg.seed)
    for kappa in (-1, 1):
        started = time.perf_counter()
        bad = None
        cells = 0
        for trial in range(cfg.trials):
            B = random_bicomplex(rng, kappa, cfg.s)
            res = second_differential(B, kappa, cfg.s)
            cells += len(B.cells())
            if not (res.accepted and res.chain_compat and res.chain_compat.equal):
                bad = {"trial": trial, "violations": [list(v) for v in res.violations]}
                break
        report.append(CheckResult("bicomplex[kappa=%+d]" % kappa,
                                  "accept" if bad is None else "reject",
                                  cells, bad, time.perf_counter() - started))


RUNNERS = {
    "check-axioms": cmd_check_axioms,
    "build-semidirect": cmd_build_semidirect,
    "verify-pareigis": cmd_verify_pareigis,
    "roundtrip": cmd_roundtrip,
    "carrier-check": cmd_carrier_check,
    "bicomplex-check": cmd_bicomplex_check,
}


def run_command(cfg):
    "Execute a validated config; returns (exit_status, report dict)."
    cfg.validate()
    rows = Report()
    RUNNERS[cfg.command](cfg, rows)
    echo = asdict(cfg)
    del echo["output"]  # destination, not input: keep reports reproducible
    results = [{"name": r.law, "verdict": r.verdict, "instances": r.instances,
                "counterexample": counterexample_json(r.counterexample),
                "millis": int(r.seconds * 1000)}
               for r in sorted(rows, key=lambda r: r.law)]
    report = {"version": __version__, "config": echo, "results": results}
    return (0 if rows.ok else 1), report


def render_json(report):
    doc = json.loads(json.dumps(report))  # deep copy
    for row in doc["results"]:
        row["millis"] = 0  # keep reports byte-identical across runs
        if row["counterexample"] is None:
            del row["counterexample"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(report):
    lines = ["hopfchains %s: %s" % (report["version"], report["config"]["command"])]
    for row in report["results"]:
        lines.append("%-40s %-7s instances=%-6d millis=%d"
                     % (row["name"], row["verdict"], row["instances"], row["millis"]))
        if row["counterexample"]:
            lines.append("    counterexample: %s" % json.dumps(row["counterexample"]))
    return "\n".join(lines) + "\n"


def build_parser():
    "The parser of ``RunConfig``'s fields, each defaulting to the field's default."
    parser = argparse.ArgumentParser(
        prog="hopfchains",
        description="Exact verification suites for the grading/differential "
                    "Hopf rings, their semidirect product, and the chain "
                    "complex equivalence.")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--ring", help="ring name for check-axioms "
                                       "(pareigis, pareigis-plus, laurent)")
    parser.add_argument("--carrier-file", help="JSON graded-carrier description")
    parser.add_argument("--window", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--s", type=int, choices=(-1, 1), help="degree of the differential")
    parser.add_argument("--format", choices=("json", "text"))
    parser.add_argument("--output", help="path or stdout if omitted")
    parser.set_defaults(**{f.name: f.default for f in fields(RunConfig)
                           if f.name != "command"})
    return parser


def main(argv=None):
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        status, report = run_command(cfg)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    text = render_json(report) if cfg.format == "json" else render_text(report)
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as err:
            print("config error: cannot write %s: %s" % (cfg.output, err.strerror or err),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
