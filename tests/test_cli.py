import json
import time
from pathlib import Path

import pytest

from hopfchains.cli import (
    RunConfig, Rows, build_parser, main, render_json, render_text, run_command,
)
from hopfchains.linalg import CheckResult

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
    rows = Rows()
    rows.extend_report("laws", [CheckResult("slow", True, 9, seconds=0.25),
                                CheckResult("fast", True, 9, seconds=0.003)])
    assert [r["millis"] for r in rows.rows] == [250, 3]
    status, report = run(command="check-axioms", ring="laurent", window=6)
    millis = {r["name"]: r["millis"] for r in report["results"]}
    # one label against 13^3: each law's row is timed alone, not as its suite
    assert millis["laws/delta-eta"] < millis["laws/associativity"], render_text(report)
    assert {r["millis"] for r in json.loads(render_json(report))["results"]} == {0}


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
    "build-semidirect-s+1-w4.json": ["--command", "build-semidirect", "--s", "1",
                                     "--window", "4"],
    "build-semidirect-s-1-w4.json": ["--command", "build-semidirect", "--s", "-1",
                                     "--window", "4"],
    "roundtrip-t100-seed42.json": ["--command", "roundtrip", "--trials", "100",
                                   "--seed", "42"],
    "verify-pareigis-s-1-w6.json": ["--command", "verify-pareigis", "--s=-1",
                                    "--window", "6"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN))
def test_reports_match_the_stored_golden_reports(tmp_path, golden):
    out = tmp_path / golden
    assert main(GOLDEN[golden] + ["--output", str(out)]) == 0
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
    # each "golden <file> <argv>" line of the workflow runs the installed
    # console script and compares its report with tests/data/<file>
    workflow = Path(__file__).parent.parent / ".github" / "workflows" / "tier1.yml"
    checked = {}
    for line in workflow.read_text().splitlines():
        words = line.split()
        if words[:1] == ["golden"]:
            checked[words[1]] = words[2:]
    assert checked == GOLDEN
