"""Command-line surface: reports, determinism, exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from branchdyn import cli

SWAP1 = json.dumps(
    {
        "family": "table",
        "k": 1,
        "states": ["1", "2"],
        "branch": {"1": 1, "2": 1},
        "image": {"1": "2", "2": "1"},
    }
)

FIVE_STATE = json.dumps(
    {
        "family": "table",
        "k": 2,
        "states": ["1", "2", "3", "4", "5"],
        "branch": {"1": 1, "2": 2, "3": 1, "4": 2, "5": 1},
        "image": {"1": "2", "2": "1", "3": "4", "4": "5", "5": "3"},
    }
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


# -- basic reports -----------------------------------------------------------


def test_orbit_report(capsys):
    code, rep = run(capsys, "orbit", "--system", "collatz", "--x", "1", "--cap", "10")
    assert code == 0
    assert rep["trajectory"] == ["1", "4", "2"]
    assert rep["cycle"] == ["1", "4", "2"]
    assert rep["tool"] == "branchdyn"
    assert "version" in rep and "config_hash" in rep


def test_orbit_accepts_qxd_shorthand(capsys):
    code, rep = run(capsys, "orbit", "--system", "qxd:5,1", "--x", "13", "--cap", "12")
    assert code == 0
    assert rep["trajectory"][:3] == ["13", "66", "33"]


def test_cycles_json(capsys):
    code, rep = run(capsys, "cycles", "--system", "collatz", "--max-len", "20")
    assert code == 0
    assert rep["cycles"] == [{"word": [1, 2, 2], "cycle": ["1", "4", "2"], "length": 3}]


def test_cycles_csv(capsys):
    code, out = run(
        capsys, "cycles", "--system", "collatz", "--max-len", "12",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,cycle,length"
    assert lines[1] == "1 2 2,1 4 2,3"


def test_total_orbit_report(capsys):
    code, rep = run(
        capsys, "total-orbit", "--system", "collatz", "--x", "1",
        "--window", "1..1",
    )
    assert code == 0
    assert rep["members"] == ["1"]
    assert rep["frontier"] == ["1"]


def test_minimality_report(capsys):
    code, rep = run(
        capsys, "minimality", "--system", "collatz", "--window", "1..200"
    )
    assert code == 0
    assert rep["class_count"] == 1


def test_code_prefix(capsys):
    code, rep = run(
        capsys, "code", "--system", "collatz", "--x", "1", "--length", "6"
    )
    assert code == 0
    assert rep["symbols"] == [1, 2, 2, 1, 2, 2]


def test_code_exact_tail(capsys):
    code, rep = run(
        capsys, "code", "--system", "collatz", "--x", "5", "--length", "4",
        "--exact-tail",
    )
    assert code == 0
    assert rep["coding"] == {"pre": [1, 2, 2], "per": [2, 2, 1]}


def test_tower_steps(capsys):
    code, rep = run(
        capsys, "tower", "--system", "collatz", "--x", "13", "--depth", "4",
        "--steps", "1",
    )
    assert code == 0
    assert rep["towers"][0]["digits"] == ["1", "1", "5", "13"]
    assert rep["towers"][1]["digits"] == ["0", "0", "0", "8"]


GOLDEN = Path(__file__).resolve().parent / "golden"
ALPHABETA3 = '{"family":"alphabeta","k":3,"alpha":["4","4"],"beta":["2","1"]}'


@pytest.mark.parametrize(
    "name, argv",
    [
        ("tower_collatz_x27_d8_s12.json",
         ["--system", "collatz", "--x", "27", "--depth", "8", "--steps", "12"]),
        # the divisions take this one from depth 6 down to depth 1
        ("tower_alphabeta3_x100_d6_s10.json",
         ["--system", ALPHABETA3, "--x", "100", "--depth", "6", "--steps", "10"]),
    ],
)
def test_tower_report_golden(capsys, name, argv):
    assert cli.main(["tower", *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


# -- checks and exit codes ------------------------------------------------------


def test_check_bounded(capsys):
    code, rep = run(
        capsys, "check", "bounded", "--system", "collatz", "--window", "1..500"
    )
    assert code == 0 and rep["passed"]


def test_check_uniqueness(capsys):
    code, rep = run(
        capsys, "check", "uniqueness", "--system", "collatz", "--max-len", "8"
    )
    assert code == 0 and rep["passed"]


def test_check_separating(capsys):
    code, rep = run(capsys, "check", "separating", "--system", "collatz", "--x", "1")
    assert code == 0
    assert rep["word"] == [1, 2, 2]


def test_check_separating_failure_is_exit_1(capsys):
    code, rep = run(capsys, "check", "separating", "--system", SWAP1, "--x", "1")
    assert code == 1
    assert not rep["passed"]


def test_check_alphabeta(capsys):
    code, rep = run(
        capsys, "check", "alphabeta", "--system", "qxd:3,1", "--window", "1..200"
    )
    assert code == 0 and rep["passed"]


def test_tuc_scan_pass(capsys):
    code, rep = run(
        capsys, "tuc-scan", "--system", "collatz", "--window", "1..200",
        "--cap", "256",
    )
    assert code == 0
    assert rep["undistinguished"] == []


def test_tuc_scan_failure_is_exit_1(capsys):
    code, rep = run(capsys, "tuc-scan", "--system", SWAP1)
    assert code == 1
    assert rep["undistinguished"] == [["1", "2"]]


def test_malformed_spec_is_exit_2(capsys):
    code = cli.main(["orbit", "--system", '{"family":"bogus"}', "--x", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        '{"family": "table", "branch": [1], "image": {}}',
        '{"family": "table", "branch": {"1": 1}, "image": {}}',
    ],
)
def test_malformed_table_spec_is_exit_2(capsys, spec):
    code = cli.main(["check", "bounded", "--system", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


def test_malformed_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["cycles", "--system", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_negative_state_is_exit_2(capsys):
    code = cli.main(["orbit", "--system", "collatz", "--x", "-5"])
    capsys.readouterr()
    assert code == 2


def test_negative_cap_is_exit_2(capsys):
    code = cli.main(["orbit", "--system", "collatz", "--x", "7", "--cap", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "separating", "--system", "collatz", "--x", "1", "--cap", "-1"],
        ["tuc-scan", "--system", "collatz", "--window", "1..20", "--cap", "-3"],
        ["tower", "--system", "collatz", "--x", "7", "--steps", "-2"],
        ["minimality", "--system", "collatz", "--window", "1..10", "--budget", "-1"],
        ["total-orbit", "--system", "collatz", "--window", "1..10", "--x", "1",
         "--budget", "-1"],
        ["check", "uniqueness", "--system", "collatz", "--max-len", "3",
         "--scan-bound", "-5"],
        ["check", "uniqueness", "--system", "collatz", "--max-len", "3",
         "--scan-bound", "0"],
    ],
)
def test_negative_count_is_exit_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_format_is_only_a_cycles_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbit", "--system", "collatz", "--x", "7", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_readme_cli_lines_parse():
    # every command in the README's CLI block must still parse, so a
    # removed flag cannot linger in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("branchdyn ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


# -- operators subcommands ---------------------------------------------------------


def test_operators_build(capsys):
    code, rep = run(
        capsys, "operators", "build", "--system", "collatz", "--window", "1..4"
    )
    assert code == 0
    assert rep["n"] == 4
    assert rep["escapes"] == [["3"], []]


def test_operators_commutant(capsys):
    code, rep = run(capsys, "operators", "commutant", "--system", SWAP1)
    assert code == 0
    assert rep["dimension"] == 2
    assert rep["lattice_size"] == 4
    assert rep["lattice_reason"] is None


def test_operators_commutant_uncertified_lattice(capsys):
    three_cycle = json.dumps(
        {"family": "table", "k": 1, "branch": {"1": 1, "2": 1, "3": 1},
         "image": {"1": "2", "2": "3", "3": "1"}}
    )
    code, rep = run(capsys, "operators", "commutant", "--system", three_cycle)
    assert code == 0
    assert rep["block_dimensions"] == [2, 1]
    assert rep["block_scalar"] == [False, True]
    assert rep["lattice_size"] is None
    assert rep["lattice_reason"] == "uncertified blocks [0]"


def test_operators_fixed_vectors(capsys):
    code, rep = run(
        capsys, "operators", "fixed-vectors", "--system", "collatz",
        "--window", "1..100", "--word", "1,2,2",
    )
    assert code == 0
    assert rep["dimension"] == 1


def test_operators_reduce_check(tmp_path, capsys):
    kfile = tmp_path / "k.json"
    kfile.write_text(json.dumps(["1", "2"]))
    code, rep = run(
        capsys, "operators", "reduce-check", "--system", SWAP1,
        "--set-file", str(kfile),
    )
    assert code == 0 and rep["passed"]


def test_operators_reduce_check_requires_set_file(capsys):
    code = cli.main(["operators", "reduce-check", "--system", SWAP1])
    capsys.readouterr()
    assert code == 2


def test_operators_pm_limit(capsys):
    code, rep = run(
        capsys, "operators", "pm-limit", "--system", "collatz",
        "--window", "1..10000", "--support", "1,5", "--x", "1",
    )
    assert code == 0
    assert rep["stabilization_index"] == 4


# -- morphism subcommands ------------------------------------------------------------


def test_morphism_check_identity(capsys):
    code, rep = run(
        capsys, "morphism", "check", "--source", "collatz", "--target", "collatz",
        "--phi", '{"kind": "identity"}', "--window", "1..100",
    )
    assert code == 0 and rep["passed"]


def test_morphism_check_violation_is_exit_1(capsys):
    code, rep = run(
        capsys, "morphism", "check", "--source", "collatz", "--target", "collatz",
        "--phi", '{"kind": "affine", "u": "1", "v": "1"}', "--window", "1..50",
    )
    assert code == 1
    assert not rep["passed"]


@pytest.mark.parametrize(
    "phi",
    [
        '{"kind": "affine"}',
        '{"kind": "affine", "u": [], "v": "1"}',
        '{"kind": "table", "map": [1]}',
    ],
)
def test_malformed_morphism_is_exit_2(capsys, phi):
    code = cli.main(
        ["morphism", "check", "--source", "collatz", "--target", "collatz",
         "--phi", phi, "--window", "1..10"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


def test_morphism_conjugate_relabel(capsys):
    relabeled = json.dumps(
        {
            "family": "table",
            "k": 2,
            "states": ["1", "2", "3", "4", "5"],
            "branch": {"4": 1, "5": 2, "1": 1, "2": 2, "3": 1},
            "image": {"4": "5", "5": "4", "1": "2", "2": "3", "3": "1"},
        }
    )
    phi = json.dumps(
        {"kind": "table", "map": {"1": "4", "2": "5", "3": "1", "4": "2", "5": "3"}}
    )
    code, rep = run(
        capsys, "morphism", "conjugate", "--source", FIVE_STATE,
        "--target", relabeled, "--phi", phi,
    )
    assert code == 0 and rep["passed"]


def test_morphism_isometry_orbit_failure_is_exit_1(capsys):
    small = json.dumps(
        {
            "family": "table",
            "k": 2,
            "states": ["1", "2"],
            "branch": {"1": 1, "2": 2},
            "image": {"1": "2", "2": "1"},
        }
    )
    big = json.dumps(
        {
            "family": "table",
            "k": 2,
            "states": ["1", "2", "3", "4"],
            "branch": {"1": 1, "2": 2, "3": 2, "4": 1},
            "image": {"1": "2", "2": "1", "3": "2", "4": "3"},
        }
    )
    code, _ = run(
        capsys, "morphism", "isometry", "--source", small, "--target", big,
        "--phi", '{"kind": "table", "map": {"1": "1", "2": "2"}}',
    )
    assert code == 1


# -- determinism ------------------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            cli.main(
                ["cycles", "--system", "qxd:5,1", "--max-len", "10",
                 "--out", str(path)]
            )
            == 0
        )
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_timing_is_opt_in(capsys):
    _, plain = run(capsys, "orbit", "--system", "collatz", "--x", "27")
    assert "elapsed_seconds" not in plain
    _, timed = run(capsys, "orbit", "--system", "collatz", "--x", "27",
                   "--with-timing")
    assert "elapsed_seconds" in timed


def test_verify_all_battery(capsys):
    code, rep = run(capsys, "verify-all", "--preset", "paper")
    assert code == 0
    assert rep["passed"] and rep["anomalies"] == []
    assert [c["number"] for c in rep["checks"]] == list(range(1, 14))
    assert all(c["passed"] for c in rep["checks"])
