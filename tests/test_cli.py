import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfchains import cli, semidirect
from hopfchains.cli import (
    RunConfig, build_parser, main, render_json, render_text, run_command,
)
from hopfchains.linalg import scale_map

DATA = Path(__file__).parent / "data"


def run(**kw):
    return run_command(RunConfig(**kw))


def test_verify_pareigis_exit_zero_both_signs():
    for s in (-1, 1):
        status, report = run(command="verify-pareigis", s=s, window=3)
        assert status == 0
        names = {row["name"].split("/")[1] for row in report["results"]}
        assert names >= {"mu", "eta", "delta", "epsilon", "antipode"}
        assert all(row["verdict"] == "equal" for row in report["results"])


def test_check_axioms_pareigis():
    status, report = run(command="check-axioms", ring="pareigis", window=3)
    assert status == 0
    assert any(row["name"] == "laws/interchange" for row in report["results"])


def test_check_axioms_laurent_includes_coelements():
    status, report = run(command="check-axioms", ring="laurent", window=3)
    assert status == 0
    names = {row["name"] for row in report["results"]}
    assert "coelement[kappa=-1]/coelement-ax1" in names
    assert "coelement[kappa=+1]/coelement-ax3" in names


def test_carrier_check_rejects_even_degree_generator(tmp_path):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(
        {"rank": 1, "summands": [{"degree": [0], "order": 0}]}))
    status, report = run(command="carrier-check", carrier_file=str(path))
    assert status == 1
    row = [r for r in report["results"] if r["name"] == "carrier-decision"][0]
    assert row["verdict"] == "reject"
    assert "sign +1" in row["counterexample"]["diagnostics"][0]


def test_carrier_check_accepts_odd_degree_generator(tmp_path):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(
        {"rank": 1, "summands": [{"degree": [-1], "order": 0}]}))
    status, report = run(command="carrier-check", carrier_file=str(path))
    assert status == 0


@pytest.mark.parametrize("doc", [
    {"rank": 0, "summands": []},
    {"rank": 1, "summands": [{"degree": [1], "order": True}]},
    {"rank": 1, "summands": [{"degree": [1.5], "order": 0}]},
], ids=["rank-zero", "boolean-order", "fractional-degree"])
def test_carrier_check_rejects_malformed_carrier(tmp_path, capsys, doc):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(doc))
    assert main(["--command", "carrier-check", "--carrier-file", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_an_unwritable_output_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(
        {"rank": 1, "summands": [{"degree": [-1], "order": 0}]}))
    out = tmp_path / "missing" / "r.json"
    assert main(["--command", "carrier-check", "--carrier-file", str(path),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write %s" % out)
    assert "Traceback" not in err and not out.parent.exists()


def test_build_semidirect_runs_the_suite():
    status, report = run(command="build-semidirect", s=1, window=2)
    assert status == 0
    names = {row["name"] for row in report["results"]}
    assert "admissibility" in names
    assert "semidirect/interchange" in names


def test_a_failing_product_law_is_a_report_row(monkeypatch, capsys):
    # a product with its mu doubled breaks laws of the product suite:
    # build-semidirect reports them as rows of the requested window and
    # exits 1, with no LawViolation escaping main
    kept = semidirect._kept
    monkeypatch.setattr(semidirect, "_kept",
                        lambda name, f: kept(name, scale_map(f, 2) if name == "mu" else f))
    assert main(["--command", "build-semidirect", "--s", "1", "--window", "2"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["results"]}
    assert rows.pop("admissibility")["verdict"] == "accept"
    differ = sorted(name for name, row in rows.items() if row["verdict"] == "differ")
    assert differ == ["semidirect/%s" % law for law in (
        "antipode-left", "antipode-right", "epsilon-mu", "interchange",
        "unit-left", "unit-right")]
    assert rows["semidirect/associativity"]["instances"] == (2 * 5) ** 3


def test_build_semidirect_gives_the_reason_an_even_carrier_is_rejected(tmp_path):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(
        {"rank": 1, "summands": [{"degree": [2], "order": 0}]}))
    status, report = run(command="build-semidirect", carrier_file=str(path), window=4)
    assert status == 1
    assert report["results"] == [{
        "name": "admissibility", "verdict": "reject", "instances": 1, "millis": 0,
        "counterexample": {"reason": "self-braiding: differ at d(2,0)*d(2,0): "
                                     "d(2,0)*d(2,0) != -d(2,0)*d(2,0)"}}]


def test_build_semidirect_rejects_torsion_carrier(tmp_path):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(
        {"rank": 1, "summands": [{"degree": [1], "order": 2}]}))
    assert main(["--command", "build-semidirect",
                 "--carrier-file", str(path)]) == 2


def test_reports_are_byte_identical_for_fixed_seed(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--command", "roundtrip", "--trials", "5", "--seed", "42"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bicomplex_check():
    status, report = run(command="bicomplex-check", trials=4, seed=1, s=1)
    assert status == 0
    assert {row["verdict"] for row in report["results"]} == {"accept"}


def test_config_errors_exit_two(capsys):
    assert main(["--command", "check-axioms", "--ring", "nope"]) == 2
    assert main(["--command", "carrier-check"]) == 2
    assert main(["--command", "check-axioms", "--window", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_json_report_schema():
    status, report = run(command="verify-pareigis", window=2)
    text = render_json(report)
    doc = json.loads(text)
    assert set(doc) == {"version", "config", "results"}
    for row in doc["results"]:
        assert set(row) >= {"name", "verdict", "instances", "millis"}
        assert row["millis"] == 0
    names = [row["name"] for row in doc["results"]]
    assert names == sorted(names)


def test_a_law_row_shows_the_time_of_its_own_check():
    status, report = run(command="check-axioms", ring="laurent", window=6)
    millis = {r["name"]: r["millis"] for r in report["results"]}
    # one label against 13^3: each law's row is timed alone, not as its suite
    assert millis["laws/delta-eta"] < millis["laws/associativity"], render_text(report)
    assert {r["millis"] for r in json.loads(render_json(report))["results"]} == {0}


class StubClock:
    """A perf_counter that moves only when a stubbed step advances it (by
    binary fractions of a second, so that sums of steps are exact)."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        monkeypatch.setattr(time, "perf_counter", lambda: self.now)

    def advancing(self, seconds, fn):
        def step(*args, **kw):
            self.now += seconds
            return fn(*args, **kw)
        return step


def test_each_roundtrip_row_shows_the_time_of_its_own_checks(monkeypatch):
    clock = StubClock(monkeypatch)
    monkeypatch.setattr(cli, "comparison_f_inverse",
                        clock.advancing(1.0, cli.comparison_f_inverse))
    monkeypatch.setattr(cli, "tensor_wcomodule", clock.advancing(10.0, cli.tensor_wcomodule))
    monkeypatch.setattr(cli, "comodule_to_chain", clock.advancing(0.25, cli.comodule_to_chain))
    status, report = run(command="roundtrip", trials=6, seed=3)
    assert status == 0
    # six inverse trials, and a monoidal trial for trials 0 and 5
    assert {r["name"]: r["millis"] for r in report["results"]} == {
        "chain-comodule[s=+1]": 1500, "chain-comodule[s=-1]": 1500,
        "comparison-inverse": 6000, "comparison-monoidal": 20000}


def test_each_carrier_row_shows_the_time_of_its_own_check(monkeypatch):
    clock = StubClock(monkeypatch)
    monkeypatch.setattr(cli, "brute_force_carrier_check",
                        clock.advancing(2.0, cli.brute_force_carrier_check))
    status, report = run(command="carrier-check",
                         carrier_file=str(DATA / "carriers" / "odd.json"))
    assert status == 0
    assert {r["name"]: r["millis"] for r in report["results"]} == {
        "carrier-decision": 0, "carrier-oracle-agreement": 2000}
    assert json.loads(render_json(report))["results"][1]["millis"] == 0


def test_parser_accepts_the_documented_flags():
    parser = build_parser()
    args = parser.parse_args([
        "--command", "verify-pareigis", "--s=-1", "--window", "6",
        "--trials", "10", "--seed", "7", "--format", "text",
        "--ring", "pareigis", "--output", "/tmp/x.json"])
    assert args.command == "verify-pareigis"
    assert args.s == -1


GOLDEN = {
    "bicomplex-check-t25-seed7.json": ["--command", "bicomplex-check", "--trials", "25",
                                       "--seed", "7"],
    "check-axioms-laurent-w6.json": ["--command", "check-axioms", "--ring", "laurent",
                                     "--window", "6"],
    "check-axioms-pareigis-w8.json": ["--command", "check-axioms", "--ring", "pareigis",
                                      "--window", "8"],
    "check-axioms-pareigis-plus-w8.json": ["--command", "check-axioms", "--ring",
                                           "pareigis-plus", "--window", "8"],
    "build-semidirect-s+1-w4.json": ["--command", "build-semidirect", "--s", "1",
                                     "--window", "4"],
    "build-semidirect-s-1-w4.json": ["--command", "build-semidirect", "--s", "-1",
                                     "--window", "4"],
    "roundtrip-t100-seed42.json": ["--command", "roundtrip", "--trials", "100",
                                   "--seed", "42"],
    "verify-pareigis-s+1-w6.json": ["--command", "verify-pareigis", "--s", "1",
                                    "--window", "6"],
    "verify-pareigis-s-1-w6.json": ["--command", "verify-pareigis", "--s=-1",
                                    "--window", "6"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN))
def test_reports_match_the_stored_golden_reports(tmp_path, golden):
    out = tmp_path / golden
    assert main(GOLDEN[golden] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


# reports that read a carrier file under tests/data/carriers, with their exit
# status; the report echoes the carrier path, so each runs from tests/data
CARRIER_GOLDEN = {
    "carrier-check-odd.json": (0, ["--command", "carrier-check",
                                   "--carrier-file", "carriers/odd.json"]),
    "carrier-check-mixed.json": (1, ["--command", "carrier-check",
                                     "--carrier-file", "carriers/mixed.json"]),
    "build-semidirect-even-w2.json": (1, ["--command", "build-semidirect",
                                          "--carrier-file", "carriers/even.json",
                                          "--window", "2"]),
}


@pytest.mark.parametrize("golden", sorted(CARRIER_GOLDEN))
def test_carrier_reports_match_the_stored_golden_reports(tmp_path, monkeypatch, golden):
    status, argv = CARRIER_GOLDEN[golden]
    monkeypatch.chdir(DATA)
    out = tmp_path / golden
    assert main(argv + ["--output", str(out)]) == status
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("argv, labels", [
    (["--command", "build-semidirect", "--window", "100000"], (2 * 200001) ** 3),
    (["--command", "check-axioms", "--ring", "pareigis", "--window", "100000"],
     (2 * 200001) ** 3),
    (["--command", "check-axioms", "--ring", "laurent", "--window", "100000"],
     200001 ** 3),
    (["--command", "verify-pareigis", "--window", "100000"], (2 * 200001) ** 2),
], ids=["build-semidirect", "check-axioms-pareigis", "check-axioms-laurent",
        "verify-pareigis"])
def test_a_window_past_the_label_budget_exits_two_at_once(capsys, argv, labels):
    started = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert "config error" in err and str(labels) in err


def test_the_label_budget_counts_the_carrier_summands(tmp_path, capsys):
    # three free summands make I + D four-dimensional: (4 * 41)^3 labels
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps({"rank": 1, "summands": [
        {"degree": [d], "order": 0} for d in (-1, 1, 3)]}))
    argv = ["--command", "build-semidirect", "--carrier-file", str(path)]
    assert main(argv + ["--window", "20"]) == 2
    assert str((4 * 41) ** 3) in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ([], 'a carrier is a JSON object with "rank" and "summands", not a list'),
    ({"rank": 1}, 'the carrier has no "summands" key'),
], ids=["list", "no-summands"])
def test_carrier_file_of_the_wrong_shape_says_what_is_missing(tmp_path, capsys, doc,
                                                              message):
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(doc))
    assert main(["--command", "carrier-check", "--carrier-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_the_console_script_job_checks_every_golden_report():
    # each "golden <file> <status> <argv>" line of the workflow runs the
    # installed console script, expects the exit status and compares its
    # report with tests/data/<file>
    workflow = Path(__file__).parent.parent / ".github" / "workflows" / "tier1.yml"
    checked = {}
    for line in workflow.read_text().splitlines():
        words = line.split()
        if words[:1] == ["golden"]:
            checked[words[1]] = (int(words[2]), words[3:])
    want = {name: (0, argv) for name, argv in GOLDEN.items()}
    want.update(CARRIER_GOLDEN)
    assert checked == want


def _summand(rank):
    return st.fixed_dictionaries({
        "degree": st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        "order": st.sampled_from((0, 0, 0, 1, 2, 3, 4))})


# carrier documents: mostly well formed (free or torsion, rank 1 or 2), else
# empty, with degrees of the wrong rank, of the wrong shape or not JSON
CARRIER_TEXTS = st.sampled_from([
    st.sampled_from((1, 2)).flatmap(lambda rank: st.fixed_dictionaries({
        "rank": st.just(rank),
        "summands": st.lists(_summand(rank), min_size=1, max_size=2)})).map(json.dumps),
] * 3 + [
    st.fixed_dictionaries({"rank": st.just(1),
                           "summands": st.lists(_summand(2), min_size=1, max_size=1)}
                          ).map(json.dumps),
    st.sampled_from([{"rank": 1, "summands": []},
                     [], {}, {"rank": 1}, {"summands": []}, "carrier", 3, None,
                     {"rank": 1, "summands": {}}, {"rank": "1", "summands": []},
                     {"rank": 1, "summands": [{"degree": 1, "order": 0}]},
                     {"rank": 1, "summands": [{"degree": [1], "order": "0"}]}]
                    ).map(json.dumps),
    st.just("{not json"),
]).flatmap(lambda texts: texts)


@st.composite
def argvs(draw):
    """A small argv (every command, window <= 2, trials <= 2, --s, --format),
    now and then with a value that is a config error, and the text of the
    carrier file a carrier command reads."""
    command = draw(st.sampled_from(cli.COMMANDS + ("carrier-check", "build-semidirect")))
    argv = ["--command", command,
            "--window", str(draw(st.sampled_from((1, 2, 1, 2, 1, 2, 0, -1)))),
            "--trials", str(draw(st.sampled_from((1, 2, 1, 2, 1, 2, 0)))),
            "--s=%d" % draw(st.sampled_from((-1, 1))),
            "--format", draw(st.sampled_from(("json", "text"))),
            "--seed", str(draw(st.integers(0, 3)))]
    ring = draw(st.sampled_from((None, "pareigis", "pareigis-plus", "laurent", "nope")))
    if ring:
        argv += ["--ring", ring]
    carrier = None
    if command in ("carrier-check", "build-semidirect"):
        carrier = draw(CARRIER_TEXTS)
    return argv, carrier


def _verdicts(text, fmt):
    "The verdict words of a report printed in ``fmt``."
    if fmt == "json":
        return [row["verdict"] for row in json.loads(text)["results"]]
    header, *lines = text.splitlines()
    assert header.startswith("hopfchains ")
    return [line.split()[1] for line in lines if not line.startswith("    ")]


@settings(deadline=None, max_examples=100)
@given(argvs())
def test_main_on_small_argv_and_carrier_files_exits_with_a_report_or_a_config_error(
        tmp_path_factory, case):
    argv, carrier = case
    if carrier is not None:
        path = tmp_path_factory.mktemp("carrier") / "carrier.json"
        path.write_text(carrier)
        argv = argv + ["--carrier-file", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2) and "Traceback" not in err.getvalue()
    if status == 2:
        assert err.getvalue().startswith("config error") and out.getvalue() == ""
        return
    verdicts = _verdicts(out.getvalue(), argv[argv.index("--format") + 1])
    assert verdicts and set(verdicts) <= {"equal", "differ", "accept", "reject"}
    assert status == (0 if set(verdicts) <= {"equal", "accept"} else 1)
