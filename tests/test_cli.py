"""Command-line surface: reports, determinism, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from branchdyn import cli, operators, systems

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

# two states that are not an interval
TABLE_1_5 = json.dumps(
    {"family": "table", "k": 1, "branch": {"1": 1, "5": 1}, "image": {"1": "5", "5": "1"}}
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
# the 30-state cycle x -> x mod 30 + 1 on branch x mod 3 + 1
PERIOD3_30 = json.dumps(
    {
        "family": "table",
        "k": 3,
        "states": [str(x) for x in range(1, 31)],
        "branch": {str(x): x % 3 + 1 for x in range(1, 31)},
        "image": {str(x): str(x % 30 + 1) for x in range(1, 31)},
    }
)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("tower_collatz_x27_d8_s12.json",
         ["tower", "--system", "collatz", "--x", "27", "--depth", "8", "--steps", "12"]),
        # the divisions take this one from depth 6 down to depth 1
        ("tower_alphabeta3_x100_d6_s10.json",
         ["tower", "--system", ALPHABETA3, "--x", "100", "--depth", "6",
          "--steps", "10"]),
        ("check_uniqueness_collatz_l6.json",
         ["check", "uniqueness", "--system", "collatz", "--max-len", "6"]),
        ("pm_limit_collatz_w10000_s1_5.json",
         ["operators", "pm-limit", "--system", "collatz", "--window", "1..10000",
          "--support", "1,5"]),
        ("commutant_swap1.json", ["operators", "commutant", "--system", SWAP1]),
        ("commutant_period3_n30.json", ["operators", "commutant", "--system", PERIOD3_30]),
        ("fixed_vectors_collatz_w200_122.json",
         ["operators", "fixed-vectors", "--system", "collatz", "--window", "1..200",
          "--word", "1,2,2"]),
        ("fixed_vectors_swap1_11.json",
         ["operators", "fixed-vectors", "--system", SWAP1, "--word", "1,1"]),
        ("reduce_check_collatz_w4_k124.json",
         ["operators", "reduce-check", "--system", "collatz", "--window", "1..4",
          "--set-file", str(GOLDEN / "set_1_2_4.json")]),
        ("reduce_check_collatz_w4_k124_interior.json",
         ["operators", "reduce-check", "--system", "collatz", "--window", "1..4",
          "--set-file", str(GOLDEN / "set_1_2_4.json"), "--interior-only"]),
        ("morphism_iso_table_1_5.json",
         ["morphism", "iso", "--source", TABLE_1_5, "--target", TABLE_1_5,
          "--phi", '{"kind": "identity"}']),
    ],
)
def test_tower_report_golden(capsys, name, argv):
    # whole reports, config_hash included, as an earlier release wrote them
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("system", ["shift:3", FIVE_STATE])
def test_tower_needs_an_affine_system(capsys, system):
    code = cli.main(["tower", "--system", system, "--x", "5", "--steps", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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
    # a string is not read one digit at a time as alpha = (4, 4), beta = (2, 1)
    spec = '{"family":"alphabeta","k":"3","alpha":"44","beta":"21"}'
    code = cli.main(["cycles", "--system", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed ")


@pytest.mark.parametrize(
    "spec",
    [
        '{"family": "table", "branch": [1], "image": {}}',
        '{"family": "table", "branch": {"1": 1}, "image": {}}',
        '{"family": "qxd", "q": 3.7, "d": 1.2}',
        '{"family": "qxd", "q": true, "d": 1}',
        '{"family": "table", "branch": {"1": 1.0, "2": 1}, "image": {"1": "2", "2": "1"}}',
        '{"family": "table", "branch": {"1": true}, "image": {"1": "1"}}',
        '{"family": "alphabeta", "k": 3, "alpha": [4, 4.5], "beta": [2, 1]}',
        '{"family": "table", "states": "12", "branch": {"1": 1, "2": 1}, '
        '"image": {"1": "2", "2": "1"}}',
    ],
)
def test_malformed_table_spec_is_exit_2(capsys, spec):
    code = cli.main(["check", "bounded", "--system", spec, "--window", "1..1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")
    if '"states": "12"' in spec:
        assert err.startswith("error: malformed ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--system", "collatz", "--x", "0"],
        ["code", "--system", "collatz", "--x", "0"],
        ["total-orbit", "--system", FIVE_STATE, "--x", "9", "--window", "1..10"],
        ["minimality", "--system", FIVE_STATE, "--window", "1..10"],
        ["tuc-scan", "--system", FIVE_STATE, "--window", "1..10"],
        ["operators", "build", "--system", FIVE_STATE, "--window", "1..10"],
        ["operators", "pm-limit", "--system", FIVE_STATE, "--window", "1..10"],
        ["check", "separating", "--system", "collatz", "--x", "0", "--cap", "0"],
    ],
    ids=["orbit", "code", "total-orbit", "minimality", "tuc-scan", "build", "pm-limit",
         "separating"],
)
def test_bad_entry_state_is_exit_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: -?\d+ is not a state of this system\n", captured.err)


def test_oversized_truncation_is_exit_2(capsys, deadline):
    # refused before any state is built: 10^9 states would not fit in memory
    deadline(5)
    code = cli.main(["operators", "build", "--system", "collatz", "--window", "1..1000000000"])
    deadline(0)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: window holds 1000000000 states")


def test_oversized_morphism_check_is_exit_2(capsys, deadline):
    # the homomorphism scan lists its window under the same state budget
    deadline(5)
    code = cli.main(["morphism", "check", "--source", "collatz", "--target", "collatz",
                     "--phi", '{"kind": "identity"}', "--window", f"1..{10**12}"])
    deadline(0)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: window holds {10**12} states")


def _one_label_cycle(n):
    return json.dumps(
        {"family": "table", "k": 1, "branch": {str(x): 1 for x in range(1, n + 1)},
         "image": {str(x): str(x % n + 1) for x in range(1, n + 1)}}
    )


def _refused_commutant(capsys, deadline, n):
    deadline(5)
    code = cli.main(["operators", "commutant", "--system", _one_label_cycle(n)])
    deadline(0)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


def test_oversized_commutant_is_exit_2(capsys, monkeypatch, deadline):
    # the one-label 2001-cycle's block bases would hold 176,472 entries
    assert _refused_commutant(capsys, deadline, 2001) == (
        "error: commutant basis holds 176472 entries; at most "
        "MAX_COMMUTANT_BASIS_ENTRIES = 100000 are built\n"
    )
    monkeypatch.setattr(operators, "MAX_COMMUTANT_BASIS_ENTRIES", 3)
    code = cli.main(["operators", "commutant", "--system", SWAP1])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: commutant basis holds 4 entries")


def test_one_label_2520_cycle_commutant_is_exit_2(capsys, deadline):
    assert _refused_commutant(capsys, deadline, 2520).startswith(
        "error: commutant basis holds 572832 entries"
    )


def test_commutant_lattice_size_beyond_the_int_digit_limit(capsys):
    # 15,000 fixed points with distinct labels cover 15,000 quotient
    # components: lattice_size = 2**15000 has 4,516 digits, more than
    # Python writes by default
    n = 15000
    spec = json.dumps(
        {"family": "table", "k": n, "branch": {str(x): x for x in range(1, n + 1)},
         "image": {str(x): str(x) for x in range(1, n + 1)}}
    )
    assert cli.main(["operators", "commutant", "--system", spec]) == 0
    digits = re.search(r'"lattice_size": (\d+)', capsys.readouterr().out).group(1)
    assert len(digits) == 4516 and digits.endswith(str(pow(2, n, 10**9)).zfill(9))


def test_oversized_commutant_dimension_is_exit_2(capsys, deadline):
    # the id predates the closed forms: 65 fixed points on one branch give
    # a non-abelian commutant of every 65 x 65 matrix, reported, exit 0
    fixed = json.dumps(
        {"family": "table", "k": 1, "branch": {str(x): 1 for x in range(1, 66)},
         "image": {str(x): str(x) for x in range(1, 66)}}
    )
    deadline(5)
    code, rep = run(capsys, "operators", "commutant", "--system", fixed)
    deadline(0)
    assert code == 0
    assert rep["dimension"] == 4225 and rep["abelian"] is False
    assert rep["nonabelian_witness"] == ["1", "2"]
    assert rep["block_count"] == 0 and rep["lattice_size"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["tuc-scan", "--system", "collatz", "--window", "1..6"],
        ["minimality", "--system", "collatz", "--window", "1..6"],
        ["check", "bounded", "--system", "collatz", "--window", "1..6"],
        ["check", "alphabeta", "--system", "collatz", "--window", "1..6"],
        ["morphism", "iso", "--source", "collatz", "--target", "collatz",
         "--phi", '{"kind": "identity"}', "--window", "1..6"],
        ["operators", "build", "--system", "collatz", "--window", "1..6"],
    ],
    ids=["tuc-scan", "minimality", "bounded", "alphabeta", "iso", "build"],
)
def test_window_state_budget_is_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(systems, "MAX_WINDOW_STATES", 5)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: window holds 6 states")


def test_window_beyond_sys_maxsize_is_exit_2(capsys):
    code = cli.main(
        ["operators", "build", "--system", "collatz", "--window", f"1..{10**20}"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: window holds {10**20} states")


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
    # and, like it, every option is accepted only by the commands that read it
    for argv in (
        ["orbit", "--system", "collatz", "--x", "7", "--format", "csv"],
        ["check", "uniqueness", "--system", "collatz", "--window", "1..5"],
        ["operators", "build", "--system", "collatz", "--word", "1,2"],
        ["morphism", "check", "--source", "collatz", "--target", "collatz",
         "--phi", '{"kind": "identity"}', "--target-window", "1..3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
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
    assert rep["block_field"] == [1, 2]
    assert "lattice_reason" not in rep


def test_operators_commutant_uncertified_lattice(capsys):
    # the id predates field blocks: the 3-cycle's 2-dimensional block is
    # the field Q(zeta_3), minimal, so the lattice is counted
    code, rep = run(capsys, "operators", "commutant", "--system", _one_label_cycle(3))
    assert code == 0
    assert rep["block_dimensions"] == [2, 1]
    assert rep["block_field"] == [3, 1]
    assert rep["lattice_size"] == 8


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["operators", "reduce-check", "--system", SWAP1])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("content", ["5", "[1.5]", "[true]"])
def test_reduce_check_set_file_must_list_states(tmp_path, capsys, content):
    kfile = tmp_path / "k.json"
    kfile.write_text(content)
    code = cli.main(
        ["operators", "reduce-check", "--system", SWAP1, "--set-file", str(kfile)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed ")


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
        '{"kind": "affine", "u": 1.5, "v": "1"}',
        '{"kind": "affine", "u": true, "v": "0"}',
        '{"kind": "table", "map": {"1": 2.0}}',
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


# -- config_hash -----------------------------------------------------------------------


def _leaves():
    """(command path, {option string: action}) for every leaf of the parser."""
    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield tuple(path), {a.option_strings[0]: a for a in parser._actions
                                if a.option_strings and a.dest != "help"}
            return
        for name, sp in subs[0].choices.items():
            yield from walk(sp, path + [name])
    return list(walk(cli.build_parser(), []))


# FIVE_STATE with the branches of 1 and 2 swapped
FIVE_STATE_B = json.dumps(
    {"family": "table", "k": 2, "branch": {"1": 2, "2": 1, "3": 1, "4": 2, "5": 1},
     "image": {"1": "2", "2": "1", "3": "4", "4": "5", "5": "3"}}
)
# option -> (base value, changed value); None leaves the option out, and
# flags are False or True
HASH_CASES = {
    "--system": ("collatz", ALPHABETA3),
    "--x": ("5", "3"),
    "--window": ("1..20", "1..30"),
    "--cap": ("64", "32"),
    "--budget": ("100", "200"),
    "--max-len": ("5", "6"),
    "--scan-bound": ("40", "50"),
    "--horizon": ("4", "5"),
    "--length": ("6", "7"),
    "--depth": ("3", "4"),
    "--steps": ("2", "3"),
    "--word": ("1,2,2", "1,2"),
    "--support": ("1,5", "1"),
    "--exact-tail": (False, True),
    "--interior-only": (False, True),
}
# Leaves whose options need other values to yield a report: the commutant
# needs a closed truncation, and phi must carry --window onto
# --target-window, so the morphisms start from the full tables and change
# one window at a time.
CLOSED_TABLES = {"--system": (FIVE_STATE, FIVE_STATE_B), "--window": ("1..5", "1..2")}
TABLE_MORPHISM = {
    "--source": (FIVE_STATE, FIVE_STATE_B),
    "--target": (FIVE_STATE, FIVE_STATE_B),
    "--phi": ('{"kind": "identity"}', '{"kind": "affine", "u": "1", "v": "0"}'),
    "--window": (None, "1..5"),
    "--target-window": (None, "1..5"),
}
HASH_OVERRIDES = {
    ("operators", "reduce-check"): CLOSED_TABLES,
    ("operators", "commutant"): CLOSED_TABLES,
    **{("morphism", what): TABLE_MORPHISM
       for what in ("check", "iso", "conjugate", "isometry")},
}


def _hash_argv(path, values):
    argv = list(path)
    for opt, v in values.items():
        if v is True:
            argv.append(opt)
        elif isinstance(v, str):
            argv += [opt, v]
    return argv


def test_config_hash_covers_every_option(tmp_path, capsys):
    set_a, set_b = tmp_path / "a.json", tmp_path / "b.json"
    set_a.write_text('["1", "2"]')
    set_b.write_text('["3", "4", "5"]')
    cases = dict(HASH_CASES, **{"--set-file": (str(set_a), str(set_b))})
    for path, options in _leaves():
        if path == ("verify-all",):
            continue  # --preset has a single value
        names = [o for o in options if o not in ("--out", "--with-timing", "--format")]
        table = dict(cases, **HASH_OVERRIDES.get(path, {}))
        base = {o: table[o][0] for o in names}
        code, rep = run(capsys, *_hash_argv(path, base))
        assert code in (0, 1), (path, rep)
        for o in names:
            changed = dict(base, **{o: table[o][1]})
            code, other = run(capsys, *_hash_argv(path, changed))
            assert code in (0, 1), (path, o, other)
            assert other["config_hash"] != rep["config_hash"], (path, o)


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
    # the whole report, byte for byte, as an earlier release wrote it
    code = cli.main(["verify-all", "--preset", "paper"])
    out = capsys.readouterr().out
    assert out == (GOLDEN / "verify_all_paper.json").read_text()
    rep = json.loads(out)
    assert code == 0
    assert rep["passed"] and rep["anomalies"] == []
    assert [c["number"] for c in rep["checks"]] == list(range(1, 14))
    assert all(c["passed"] for c in rep["checks"])


# -- fuzzing ---------------------------------------------------------------------------

# Sizes are drawn small and always given, since their defaults reach
# searches of seconds; an absent window means a full table or an error.
SIZES = ("--max-len", "--depth", "--steps", "--cap", "--budget", "--length",
         "--scan-bound")
SMALL = st.integers(-2, 6).map(str)
COUNT = st.integers(-2, 64).map(str)
WINDOW = st.tuples(st.integers(1, 40), st.integers(1, 40)).map(lambda w: "%d..%d" % w)
SYSTEM = st.sampled_from(
    ["collatz", "qxd:5,1", "mersenne:3", "shift:2", ALPHABETA3, SWAP1, FIVE_STATE]
)
SET_FILES = {"pair.json": '["1", "2"]', "five.json": "5", "float.json": "[1.5]",
             "bool.json": "[true]", "bad.json": "{not json", "cycle.json": "[3, 4, 5]"}


def _joined(values):
    return st.lists(values, min_size=1, max_size=4).map(lambda v: ",".join(map(str, v)))


FUZZ_VALUES = {
    "--system": SYSTEM,
    "--source": SYSTEM,
    "--target": SYSTEM,
    "--window": WINDOW,
    "--target-window": WINDOW,
    "--x": st.integers(-2, 100).map(str),
    "--max-len": SMALL,
    "--depth": SMALL,
    "--steps": SMALL,
    "--horizon": SMALL,
    "--cap": COUNT,
    "--budget": COUNT,
    "--length": COUNT,
    "--scan-bound": COUNT,
    "--word": _joined(st.integers(0, 3)),
    "--support": _joined(st.integers(0, 40)) | st.sampled_from(["1.5", "", "1,,2"]),
    "--phi": st.sampled_from([
        '{"kind": "identity"}', '{"kind": "affine", "u": "1", "v": "0"}',
        '{"kind": "affine", "u": 2.5, "v": 0}', '{"kind": "coding", "cap": "8"}',
        '{"kind": "table", "map": {"1": "2", "2": "1"}}', '{"kind": "bogus"}',
    ]),
    "--set-file": st.sampled_from(sorted(SET_FILES)),
    "--format": st.sampled_from(["json", "csv"]),
}
FUZZ_LEAVES = [leaf for leaf in _leaves() if leaf[0] != ("verify-all",)]


def _fuzz_argv(leaf):
    path, options = leaf
    values = {o: st.just(True) if a.nargs == 0 else FUZZ_VALUES[o]
              for o, a in options.items() if o != "--out"}
    given = {o: v for o, v in values.items() if options[o].required or o in SIZES}
    optional = {o: v for o, v in values.items() if o not in given}
    return st.fixed_dictionaries(given, optional=optional).map(
        lambda chosen: _hash_argv(path, chosen)
    )


@pytest.fixture(scope="module")
def set_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sets")
    for name, text in SET_FILES.items():
        (d / name).write_text(text)
    return d


@settings(max_examples=200, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(FUZZ_LEAVES).flatmap(_fuzz_argv))
@example(argv=["minimality", "--system", SWAP1])
@example(argv=["total-orbit", "--system", SWAP1, "--x", "1"])
@example(argv=["operators", "reduce-check", "--system", SWAP1, "--set-file", "five.json"])
@example(argv=["morphism", "check", "--source", "collatz", "--target", "collatz",
               "--phi", '{"kind": "identity"}', "--window", f"1..{10**12}"])
def test_cli_fuzz(deadline, set_dir, argv):
    argv = [str(set_dir / a) if a in SET_FILES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    deadline(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        deadline(0)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if text and "csv" in argv:
        assert next(csv.reader(io.StringIO(text))) == ["word", "cycle", "length"]
    elif text:
        assert isinstance(json.loads(text), dict)
