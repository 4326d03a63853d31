"""Command-line surface: reports, determinism, exit codes."""

import argparse
import contextlib
import csv
import inspect
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from branchdyn import battery, cli, operators, systems
from branchdyn.errors import NotACycle

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
# FIVE_STATE relabelled by RELABEL_FIVE
FIVE_STATE_RELABELED = json.dumps(
    {
        "family": "table",
        "k": 2,
        "states": ["1", "2", "3", "4", "5"],
        "branch": {"4": 1, "5": 2, "1": 1, "2": 2, "3": 1},
        "image": {"4": "5", "5": "4", "1": "2", "2": "3", "3": "1"},
    }
)
RELABEL_FIVE = json.dumps(
    {"kind": "table", "map": {"1": "4", "2": "5", "3": "1", "4": "2", "5": "3"}}
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


def test_tower_report_lists_each_step(capsys):
    code, rep = run(
        capsys, "tower", "--system", "collatz", "--x", "13", "--depth", "4",
        "--steps", "1",
    )
    assert code == 0
    assert rep["towers"][0]["digits"] == ["1", "1", "5", "13"]
    assert rep["towers"][1]["digits"] == ["0", "0", "0", "8"]


GOLDEN = Path(__file__).resolve().parent / "golden"
ALPHABETA3 = '{"family":"alphabeta","k":3,"alpha":["4","4"],"beta":["2","1"]}'
ALPHABETA3_GCD = '{"family":"alphabeta","k":3,"alpha":["3","3"],"beta":["1","1"]}'
STUCK5 = '{"family":"alphabeta","k":5,"alpha":["2","3","7","9"],"beta":["3","1","2","1"]}'
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
        ("morphism_isometry_five_relabeled.json",
         ["morphism", "isometry", "--source", FIVE_STATE, "--target", FIVE_STATE_RELABELED,
          "--phi", RELABEL_FIVE]),
        # surjectivity is not measured on a window
        ("morphism_iso_collatz_identity_w30.json",
         ["morphism", "iso", "--source", "collatz", "--target", "collatz",
          "--phi", '{"kind": "identity"}', "--window", "1..30"]),
        # a finite source needs no window, whatever the target
        ("morphism_iso_five_coding.json",
         ["morphism", "iso", "--source", FIVE_STATE, "--target", "shift:2",
          "--phi", '{"kind": "coding"}']),
        ("orbit_qxd5_1_x13_cap12.json",
         ["orbit", "--system", "qxd:5,1", "--x", "13", "--cap", "12"]),
        # the orbit of 7 diverges: cap + 1 states, no cycle
        ("orbit_qxd5_1_x7_cap50.json",
         ["orbit", "--system", "qxd:5,1", "--x", "7", "--cap", "50"]),
        ("code_qxd5_1_x13_exact_tail.json",
         ["code", "--system", "qxd:5,1", "--x", "13", "--exact-tail"]),
        # pinned before the escapes lost their frozenset copy
        ("operators_build_collatz_w40.json",
         ["operators", "build", "--system", "collatz", "--window", "1..40"]),
        # one cycle search per affine family: words_tried and pruned included
        ("cycles_collatz_l12.json", ["cycles", "--system", "collatz", "--max-len", "12"]),
        ("cycles_qxd5_1_l12.json", ["cycles", "--system", "qxd:5,1", "--max-len", "12"]),
        ("cycles_alphabeta3_l11.json",
         ["cycles", "--system", ALPHABETA3, "--max-len", "11"]),
        ("total_orbit_collatz_x1_w40.json",
         ["total-orbit", "--system", "collatz", "--x", "1", "--window", "1..40"]),
        ("minimality_collatz_w40.json",
         ["minimality", "--system", "collatz", "--window", "1..40"]),
        ("check_separating_collatz_x1.json",
         ["check", "separating", "--system", "collatz", "--x", "1"]),
        ("check_alphabeta_alphabeta3_w30.json",
         ["check", "alphabeta", "--system", ALPHABETA3, "--window", "1..30"]),
        ("tuc_scan_collatz_w100_cap64.json",
         ["tuc-scan", "--system", "collatz", "--window", "1..100", "--cap", "64"]),
        ("morphism_check_collatz_identity_w30.json",
         ["morphism", "check", "--source", "collatz", "--target", "collatz",
          "--phi", '{"kind": "identity"}', "--window", "1..30"]),
        ("morphism_conjugate_five_relabeled.json",
         ["morphism", "conjugate", "--source", FIVE_STATE, "--target", FIVE_STATE_RELABELED,
          "--phi", RELABEL_FIVE]),
        # caps above the jump table size, pinned before orbit walks jumped
        ("orbit_collatz_x27_cap1000.json",
         ["orbit", "--system", "collatz", "--x", "27", "--cap", "1000"]),
        ("orbit_qxd5_1_x7_cap400.json",
         ["orbit", "--system", "qxd:5,1", "--x", "7", "--cap", "400"]),
        ("code_qxd5_1_x7_exact_tail_cap5000.json",
         ["code", "--system", "qxd:5,1", "--x", "7", "--exact-tail", "--cap", "5000"]),
        # the tuc-scan reports below were pinned before the scan walked
        # residue classes on an affine window
        ("tuc_scan_collatz_w2000_cap1024.json",
         ["tuc-scan", "--system", "collatz", "--window", "1..2000", "--cap", "1024"]),
        ("tuc_scan_qxd5_3_w2000.json",
         ["tuc-scan", "--system", "qxd:5,3", "--window", "1..2000"]),
        ("tuc_scan_alphabeta3_w2000.json",
         ["tuc-scan", "--system", ALPHABETA3, "--window", "1..2000"]),
        # the truncations below were pinned while every state was stepped
        # by the kernel; on 37..500 division images fall below lo, so the
        # escapes of one branch lie at the low end of the window and the
        # others' at its high end; alpha 3, 3 fails gcd(a_i, k) = 1
        ("operators_build_qxd5_3_w100_2000.json",
         ["operators", "build", "--system", "qxd:5,3", "--window", "100..2000"]),
        ("operators_build_alphabeta3_w37_500.json",
         ["operators", "build", "--system", ALPHABETA3, "--window", "37..500"]),
        ("operators_build_alphabeta3_gcd_w300.json",
         ["operators", "build", "--system", ALPHABETA3_GCD, "--window", "1..300"]),
        # the two reports below were pinned while every state was written
        # by json.dumps's indenting encoder; minimality's classes nest
        # lists and its unresolved states are not empty
        ("total_orbit_collatz_x1_w2000.json",
         ["total-orbit", "--system", "collatz", "--x", "1", "--window", "1..2000"]),
        ("minimality_qxd5_1_w200.json",
         ["minimality", "--system", "qxd:5,1", "--window", "1..200"]),
        # lo > 1: the orbits of 40, 48 and 64 fall below lo into 1 -> 4 -> 2
        # and never return, so they stay unresolved
        ("minimality_collatz_w37_300.json",
         ["minimality", "--system", "collatz", "--window", "37..300"]),
        # the three reports below were pinned while the word chase composed
        # the column maps as dicts; 201, 209 and 227 part from 200's coding
        # at steps 1, 4 and 6, and the gcd-failing word keeps states but
        # closes no cycle
        ("pm_limit_alphabeta3_w37_20000_x200.json",
         ["operators", "pm-limit", "--system", ALPHABETA3, "--window", "37..20000",
          "--x", "200", "--support", "200,201,227,209"]),
        ("fixed_vectors_alphabeta3_w500_13233.json",
         ["operators", "fixed-vectors", "--system", ALPHABETA3, "--window", "1..500",
          "--word", "1,3,2,3,3"]),
        ("fixed_vectors_alphabeta3_gcd_w300_331.json",
         ["operators", "fixed-vectors", "--system", ALPHABETA3_GCD, "--window", "1..300",
          "--word", "3,3,1"]),
        # a failing reduce-check, exit 1, pinned while every projection
        # coefficient was a Fraction: T_2* e_8 = e_16, outside K = {1, 2, 4, 8}
        ("reduce_check_collatz_w20_k1248.json",
         ["operators", "reduce-check", "--system", "collatz", "--window", "1..20",
          "--set-file", str(GOLDEN / "set_1_2_4_8.json")]),
        # a k = 3 jump walk, pinned before its jumps ran in one loop: 218
        # states, entry 202 into the 16-cycle through 7
        ("orbit_alphabeta3_x1949_cap1000.json",
         ["orbit", "--system", '{"family":"alphabeta","k":3,"alpha":[4,4],"beta":[2,1]}',
          "--x", "1949", "--cap", "1000"]),
        # lo > 1 on 5x+1: 48 and 64 fall below lo into 1 -> 6 -> 3 -> 16
        # -> 8 -> 4 -> 2 and 21 more run past the budget, all 23 unresolved
        ("minimality_qxd5_1_w37_300.json",
         ["minimality", "--system", "qxd:5,1", "--window", "37..300"]),
        # a gcd-failing jump walk, pinned before the walk moved into orbits:
        # residues 1 and 2 never divide, so every table entry runs the full
        # _JUMP_STEPS, and the capped walk ends in the hand-over from its
        # last record
        ("orbit_alphabeta3_gcd_x6_cap300.json",
         ["orbit", "--system", ALPHABETA3_GCD, "--x", "6", "--cap", "300"]),
        # uniqueness walks pinned while every state was walked by single
        # steps: 3x+5's cycles pass through even states, which the leaping
        # walk reads off the laps of their odd ones
        ("check_uniqueness_qxd3_5_l20_s2000.json",
         ["check", "uniqueness", "--system", "qxd:3,5", "--max-len", "20",
          "--scan-bound", "2000"]),
        ("check_uniqueness_qxd5_1_l20_s3000.json",
         ["check", "uniqueness", "--system", "qxd:5,1", "--max-len", "20",
          "--scan-bound", "3000"]),
    ],
)
def test_tower_report_golden(capsys, name, argv):
    # whole reports, config_hash included, as an earlier release wrote them;
    # a report whose "passed" is false exits 1
    golden = (GOLDEN / name).read_text()
    assert cli.main(argv) == (0 if json.loads(golden).get("passed", True) else 1)
    assert capsys.readouterr().out == golden


def test_exact_tail_of_a_divergent_orbit_within_its_budget(capsys, deadline):
    # the walk to cap 10^5 holds only its landings, a residue block apart
    deadline(5)
    code, rep = run(
        capsys, "code", "--system", "qxd:5,1", "--x", "7", "--exact-tail",
        "--cap", "100000",
    )
    assert code == 0
    assert rep["coding"] is None


@pytest.mark.parametrize("system", ["shift:3", FIVE_STATE])
def test_tower_needs_an_affine_system(capsys, system):
    code = cli.main(["tower", "--system", system, "--x", "5", "--steps", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "system, x",
    [("collatz", "6"), (STUCK5, "10")],
    ids=["collatz", "alphabeta5"],
)
def test_tower_division_at_depth_one_is_exit_2(capsys, system, x):
    # x is a multiple of k: its depth-1 tower has no successor
    code = cli.main(["tower", "--system", system, "--x", x, "--depth", "1", "--steps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: division branch on a depth-1 tower\n"


# -- checks and exit codes ------------------------------------------------------


def test_check_uniqueness(capsys):
    code, rep = run(
        capsys, "check", "uniqueness", "--system", "collatz", "--max-len", "8"
    )
    assert code == 0 and rep["passed"]


def test_check_uniqueness_failure_is_exit_1(capsys):
    code, rep = run(capsys, "check", "uniqueness", "--system", SWAP1, "--max-len", "2")
    assert code == 1
    assert rep["passed"] is False and rep["scan_bound"] is None
    assert rep["violations"] == [{"word": [1, 1], "fixed_points": ["1", "2"]}]


# 9 <-> 10, so the word (1, 1) fixes both
SWAP_9_10 = json.dumps(
    {"family": "table", "k": 1, "branch": {"9": 1, "10": 1}, "image": {"9": "10", "10": "9"}}
)


def test_check_uniqueness_lists_table_fixed_points_in_natural_order(capsys):
    code, rep = run(capsys, "check", "uniqueness", "--system", SWAP_9_10, "--max-len", "2")
    assert code == 1
    assert rep["violations"] == [{"word": [1, 1], "fixed_points": ["9", "10"]}]


def test_check_uniqueness_on_a_table_hashes_no_scan_bound(capsys):
    # a table walks every state, so any bound is accepted, and reports
    # that differ only in the ignored bound share config_hash
    hashes = set()
    for bound in ("0", "5", "6"):
        code, rep = run(capsys, "check", "uniqueness", "--system", SWAP_9_10,
                        "--max-len", "2", "--scan-bound", bound)
        assert code == 1 and rep["scan_bound"] is None
        hashes.add(rep["config_hash"])
    assert len(hashes) == 1


def test_check_uniqueness_scan_beyond_the_budget_is_exit_2(capsys, deadline):
    # refused before a state is listed, not walked
    deadline(2)
    code = cli.main(["check", "uniqueness", "--system", "collatz", "--scan-bound", "2000000"])
    deadline(0)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: window holds 2000000 states")


def test_check_uniqueness_on_a_wide_scan_stays_fast(capsys, deadline):
    # 10^5 states of 5x+1 walked to length 20: each walk leaps over its
    # division runs and stops at a state an earlier walk took
    deadline(2)
    code, rep = run(capsys, "check", "uniqueness", "--system", "qxd:5,1",
                    "--max-len", "20", "--scan-bound", "100000")
    deadline(0)
    assert code == 0
    assert rep["passed"] and rep["fixed_words"] == 54


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


def test_tuc_scan_golden_of_a_window_merged_at_the_cap(capsys):
    # 14 residue classes of the k = 5 system are alive at cap 64: the scan
    # lists them as groups, in the refinement's order
    argv = ["tuc-scan", "--system", STUCK5, "--window", "1..200", "--cap", "64"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == (GOLDEN / "tuc_scan_alphabeta5_w200_cap64.json").read_text()


def test_tuc_scan_of_200000_states_within_its_deadline(capsys, deadline):
    # stepping every state once per round, the command took 4.3 s on a
    # 2-core VM with Python 3.11; the class walk takes 0.5 s
    deadline(2)
    code, rep = run(capsys, "tuc-scan", "--system", "collatz", "--window", "1..200000")
    assert code == 0 and rep["passed"]
    assert rep["states"] == 200000 and rep["max_prefix_length"] == 34


@pytest.mark.parametrize("cap", ["0", "1", "64"])
def test_tuc_scan_on_one_state_passes(capsys, cap):
    # a one-state window has no pair to distinguish
    code, rep = run(
        capsys, "tuc-scan", "--system", "collatz", "--window", "5..5", "--cap", cap
    )
    assert code == 0 and rep["passed"]
    assert rep["pairs"] == 0 and rep["max_prefix_length"] == 0
    assert rep["undistinguished"] == []


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_check_alphabeta_horizon_below_one_is_exit_2(capsys, horizon):
    # no step is examined, so no state can be said to fail
    code = cli.main(["check", "alphabeta", "--system", "collatz", "--window", "1..6",
                     "--horizon", horizon])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: need horizon >= 1, got {horizon}\n"


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
    code = cli.main(["check", "uniqueness", "--system", spec, "--max-len", "1"])
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
        ["check", "uniqueness", "--system", "collatz", "--scan-bound", "6"],
        ["check", "alphabeta", "--system", "collatz", "--window", "1..6"],
        ["morphism", "iso", "--source", "collatz", "--target", "collatz",
         "--phi", '{"kind": "identity"}', "--window", "1..6"],
        ["operators", "build", "--system", "collatz", "--window", "1..6"],
    ],
    ids=["tuc-scan", "minimality", "uniqueness", "alphabeta", "iso", "build"],
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
        # refused before any chase: these once reported an empty word and
        # an unseparated pair
        ["operators", "pm-limit", "--system", "collatz", "--window", "1..10",
         "--support", "1", "--x", "1", "--cap", "-3"],
        ["operators", "pm-limit", "--system", "collatz", "--window", "1..10",
         "--support", "1,5", "--x", "1", "--cap", "-3"],
        # without --exact-tail the cap went unread and this once exited 0
        ["code", "--system", "collatz", "--x", "1", "--cap", "-1"],
    ],
)
def test_negative_count_is_exit_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # every argv ends with the refused count
    assert re.fullmatch(rf"error: need \w+ >= [01], got {argv[-1]}\n", captured.err)


# each count option, and each integer the system names carry, one below its least
@pytest.mark.parametrize(
    "argv,err",
    [
        (["orbit", "--system", "collatz", "--x", "7", "--cap", "-1"],
         "need cap >= 0, got -1"),
        (["code", "--system", "collatz", "--x", "7", "--exact-tail", "--cap", "-1"],
         "need cap >= 0, got -1"),
        (["operators", "pm-limit", "--system", "collatz", "--window", "1..10",
          "--support", "1", "--cap", "0"],
         "need cap >= 1, got 0"),
        (["total-orbit", "--system", "collatz", "--window", "1..10", "--x", "1",
          "--budget", "-1"],
         "need node_budget >= 0, got -1"),
        (["minimality", "--system", "collatz", "--window", "1..10", "--budget", "-1"],
         "need budget >= 0, got -1"),
        (["cycles", "--system", "collatz", "--max-len", "0"],
         "need max_len >= 1, got 0"),
        (["check", "uniqueness", "--system", "collatz", "--max-len", "0"],
         "need max_len >= 1, got 0"),
        (["check", "uniqueness", "--system", "collatz", "--max-len", "3",
          "--scan-bound", "0"],
         "need scan_bound >= 1, got 0"),
        (["code", "--system", "collatz", "--x", "7", "--length", "-1"],
         "need length >= 0, got -1"),
        (["check", "alphabeta", "--system", "collatz", "--window", "1..6",
          "--horizon", "0"],
         "need horizon >= 1, got 0"),
        (["tower", "--system", "collatz", "--x", "7", "--depth", "0"],
         "need depth >= 1, got 0"),
        (["tower", "--system", "collatz", "--x", "7", "--steps", "-1"],
         "need steps >= 0, got -1"),
        (["tower", "--system", "collatz", "--x", "0"],
         "need x >= 1, got 0"),
        (["orbit", "--system", "mersenne:1", "--x", "1"],
         "need m >= 2, got 1"),
        (["orbit", "--system", "shift:0", "--x", "1"],
         "need k >= 1, got 0"),
    ],
)
def test_count_below_its_least_is_exit_2(capsys, argv, err):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


# each integer option, once, read as JSON reads an integer, with json_int's
# text: int() read an underscore, a non-ASCII digit or a space as a number,
# and the command ran; the other texts int() refused as "invalid int value"
@pytest.mark.parametrize(
    "argv, err",
    [
        (["orbit", "--system", "collatz", "--x", "\u0667", "--cap", "3"],
         "argument --x: malformed integer '\u0667'"),
        (["orbit", "--system", "collatz", "--x", "7", "--cap", "1_0"],
         "argument --cap: malformed integer '1_0'"),
        (["total-orbit", "--system", "collatz", "--window", "1..10", "--x", " 1"],
         "argument --x: malformed integer ' 1'"),
        (["total-orbit", "--system", "collatz", "--window", "1..10", "--x", "1",
          "--budget", "1e3"],
         "argument --budget: malformed integer '1e3'"),
        (["minimality", "--system", "collatz", "--window", "1..10", "--budget", "1_000"],
         "argument --budget: malformed integer '1_000'"),
        (["cycles", "--system", "collatz", "--max-len", "\uff11\uff12"],
         "argument --max-len: malformed integer '\uff11\uff12'"),
        (["check", "uniqueness", "--system", "collatz", "--max-len", "3.0"],
         "argument --max-len: malformed integer '3.0'"),
        (["check", "uniqueness", "--system", "collatz", "--max-len", "3",
          "--scan-bound", "0x10"],
         "argument --scan-bound: malformed integer '0x10'"),
        (["check", "separating", "--system", "collatz", "--x", "1 "],
         "argument --x: malformed integer '1 '"),
        (["check", "separating", "--system", "collatz", "--cap", "2_0"],
         "argument --cap: malformed integer '2_0'"),
        (["check", "alphabeta", "--system", "collatz", "--window", "1..6",
          "--horizon", "\u0663"],
         "argument --horizon: malformed integer '\u0663'"),
        (["code", "--system", "collatz", "--x", "+-7"],
         "argument --x: malformed integer '+-7'"),
        (["code", "--system", "collatz", "--x", "7", "--length", "\u09ea"],
         "argument --length: malformed integer '\u09ea'"),
        (["code", "--system", "collatz", "--x", "7", "--exact-tail", "--cap", ""],
         "argument --cap: malformed integer ''"),
        (["tuc-scan", "--system", "collatz", "--window", "1..20", "--cap", "6_4"],
         "argument --cap: malformed integer '6_4'"),
        (["tower", "--system", "collatz", "--x", "2_7"],
         "argument --x: malformed integer '2_7'"),
        (["tower", "--system", "collatz", "--x", "27", "--depth", "\u0664"],
         "argument --depth: malformed integer '\u0664'"),
        (["tower", "--system", "collatz", "--x", "27", "--steps", "true"],
         "argument --steps: malformed integer 'true'"),
        (["operators", "pm-limit", "--system", "collatz", "--window", "1..100",
          "--x", "1_0", "--support", "10,11"],
         "argument --x: malformed integer '1_0'"),
        (["operators", "pm-limit", "--system", "collatz", "--window", "1..10",
          "--support", "1", "--cap", "\u0666\u0664"],
         "argument --cap: malformed integer '\u0666\u0664'"),
    ],
)
def test_integer_option_not_a_json_integer_is_exit_2(capsys, argv, err):
    command = " ".join(a for a in argv[:2] if not a.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"branchdyn {command}: error: {err}"


# the integers of --word, --window and the named systems, read as JSON reads
# an integer: \d and int() read a non-ASCII digit or an underscore, so the
# first row once read the window 1..20, the second the symbol 20, and the
# third ran as 5x+1 and exited 0
@pytest.mark.parametrize(
    "argv, err",
    [
        (["operators", "fixed-vectors", "--system", "collatz", "--window",
          "\u0661..\u0662\u0660", "--word", "1,2"],
         "branchdyn operators fixed-vectors: error: argument --window: "
         "window must look like 1..100, got '\u0661..\u0662\u0660'"),
        (["operators", "fixed-vectors", "--system", "collatz", "--window", "1..20",
          "--word", "1,2_0"],
         "branchdyn operators fixed-vectors: error: argument --word: "
         "malformed integer '2_0'"),
        (["orbit", "--system", "qxd:\u0665,\u0661", "--x", "7", "--cap", "3"],
         "error: malformed integer '\u0665'"),
        (["operators", "fixed-vectors", "--system", "collatz", "--window", "1..20",
          "--word", "1 \u0662"],
         "branchdyn operators fixed-vectors: error: argument --word: "
         "malformed integer '\u0662'"),
        (["operators", "fixed-vectors", "--system", "collatz", "--window", "1..20",
          "--word", "1,a"],
         "branchdyn operators fixed-vectors: error: argument --word: "
         "malformed integer 'a'"),
        (["morphism", "conjugate", "--source", "collatz", "--target", "collatz",
          "--phi", '{"kind": "identity"}', "--window", "1..5",
          "--target-window", "1..\uff15"],
         "branchdyn morphism conjugate: error: argument --target-window: "
         "window must look like 1..100, got '1..\uff15'"),
        (["orbit", "--system", "qxd:5,1_1", "--x", "7"],
         "error: malformed integer '1_1'"),
        (["orbit", "--system", "mersenne:\u0663", "--x", "7"],
         "error: malformed integer '\u0663'"),
        (["orbit", "--system", "shift:2 ", "--x", "7"],
         "error: malformed integer '2 '"),
        (["orbit", "--system", "mersenne:", "--x", "7"],
         "error: malformed integer ''"),
        (["orbit", "--system", "qxd:5", "--x", "7"],
         "error: system 'qxd:5' must look like qxd:Q,D"),
        (["orbit", "--system", "shift:2,2", "--x", "7"],
         "error: system 'shift:2,2' must look like shift:K"),
    ],
)
def test_integers_of_words_windows_and_system_names_are_ascii(capsys, argv, err):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an option's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["tuc-scan", "--system", "collatz", "--window", "1-5"],
        ["morphism", "conjugate", "--source", "collatz", "--target", "collatz",
         "--phi", '{"kind": "identity"}', "--window", "1..5", "--target-window", "1-5"],
    ],
)
def test_malformed_window_names_the_expected_form(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(": window must look like 1..100, got '1-5'\n")


def test_pm_limit_support_outside_the_window_is_exit_2(capsys):
    code = cli.main(["operators", "pm-limit", "--system", "collatz", "--window", "1..10",
                     "--support", "1,50"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: support state 50 outside the window\n"


# each item is read as a JSON integer is: int() read the empty item as a
# ValueError's text, and an underscore or a non-ASCII digit as a state
@pytest.mark.parametrize(
    "support, err",
    [
        (",1", "malformed integer ''"),
        ("1,", "malformed integer ''"),
        ("1,,5", "malformed integer ''"),
        ("1_0", "malformed integer '1_0'"),
        ("\u0665", "malformed integer '\u0665'"),
        (" 1", "malformed integer ' 1'"),
        ("1.5", "malformed integer '1.5'"),
    ],
)
def test_pm_limit_support_item_not_an_integer_is_exit_2(capsys, support, err):
    code = cli.main(["operators", "pm-limit", "--system", "collatz", "--window", "1..10",
                     "--support", support])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_phi_from_a_file_path(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(RELABEL_FIVE)
    argv = ["morphism", "conjugate", "--source", FIVE_STATE, "--target", FIVE_STATE_RELABELED]
    code, from_file = run(capsys, *argv, "--phi", str(path))
    assert code == 0
    code, inline = run(capsys, *argv, "--phi", RELABEL_FIVE)
    # the hash reads the path, not the file's content
    assert from_file.pop("config_hash") != inline.pop("config_hash")
    assert from_file == inline


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S)[1]
    return [ln for ln in block.splitlines() if ln.startswith("branchdyn ")]


def test_readme_cli_lines_parse():
    # every command in the README's CLI block must still parse, so a
    # removed flag cannot linger in the docs
    lines = _readme_cli_lines()
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_cli_lines_run(capsys):
    # every line that needs no outside file runs as printed and writes a
    # report that parses; lines naming a .json file or holding ... need one
    lines = [ln for ln in _readme_cli_lines() if ".json" not in ln and "..." not in ln]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        if "csv" in argv:
            assert next(csv.reader(io.StringIO(out))) == ["word", "cycle", "length"]
        else:
            assert json.loads(out)["tool"] == "branchdyn", line


def test_readme_library_block_runs():
    # the README's Python example must still run as printed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S)[1]
    exec(compile(block, "README.md", "exec"), {})

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


def test_pm_limit_x_leaving_at_stabilization_is_exit_2(capsys):
    # 15 -> 46 leaves 1..60 at step 3, where 1 separates from 15: the
    # window drops e_15 from P_3 a, so it cannot show the limit
    code = cli.main(["operators", "pm-limit", "--system", "collatz", "--window", "1..60",
                     "--x", "15", "--support", "15,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 15 leaves the window after 3 steps")


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
    code, rep = run(
        capsys, "morphism", "conjugate", "--source", FIVE_STATE,
        "--target", FIVE_STATE_RELABELED, "--phi", RELABEL_FIVE,
    )
    assert code == 0 and rep["passed"]


# the 2-cycle 1 <-> 2 on branches 1 and 2, and a copy of it that 4 -> 3
# feeds from outside: including the first into the second misses 3 and 4
SWAP2 = json.dumps(
    {"family": "table", "k": 2, "branch": {"1": 1, "2": 2}, "image": {"1": "2", "2": "1"}}
)
SWAP2_FED = json.dumps(
    {
        "family": "table",
        "k": 2,
        "states": ["1", "2", "3", "4"],
        "branch": {"1": 1, "2": 2, "3": 2, "4": 1},
        "image": {"1": "2", "2": "1", "3": "2", "4": "3"},
    }
)
INCLUDE_1_2 = '{"kind": "table", "map": {"1": "1", "2": "2"}}'


def test_morphism_isometry_orbit_failure_is_exit_1(capsys):
    code, rep = run(
        capsys, "morphism", "isometry", "--source", SWAP2, "--target", SWAP2_FED,
        "--phi", INCLUDE_1_2,
    )
    assert code == 1
    assert rep["passed"] is False and rep["orbit_condition"] == "failed"
    assert rep["witness"] == {"x": "1", "unreached": ["3", "4"], "outside": []}
    assert rep["per_branch_interior"] == [True, True]


def test_operators_reduce_check_on_a_set_that_is_not_invariant(tmp_path, capsys):
    # f(1) = 4 leaves K = {1, 2}; 4 is not interior to 1..4, so
    # --interior-only forgives that edge and the one 4 -> 2
    kfile = tmp_path / "k.json"
    kfile.write_text('["1", "2"]')
    argv = ["operators", "reduce-check", "--system", "collatz", "--window", "1..4",
            "--set-file", str(kfile)]
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["passed"] is False and rep["dimension"] == 2
    assert rep["witness"] == [1, "T", 0, "4"]
    code, rep = run(capsys, *argv, "--interior-only")
    assert code == 0 and rep["passed"] and rep["interior_only"]


# One accepted input per command whose report carries "passed", on which
# it is false; "k12.json" stands for a set file holding ["1", "2"].
FAILING = {
    ("check", "uniqueness"): ["--system", SWAP1, "--max-len", "2"],
    ("check", "separating"): ["--system", SWAP1, "--x", "1"],
    ("check", "alphabeta"): [
        "--system",
        '{"family":"alphabeta","k":5,"alpha":["2","3","7","9"],"beta":["3","1","2","1"]}',
        "--window", "1..20",
    ],
    ("tuc-scan",): ["--system", SWAP1],
    ("operators", "reduce-check"): ["--system", "collatz", "--window", "1..4",
                                    "--set-file", "k12.json"],
    # 1 and 2 share their whole coding: the "never" route
    ("operators", "pm-limit"): ["--system", SWAP1, "--x", "1", "--support", "1,2"],
    ("morphism", "check"): ["--source", "collatz", "--target", "collatz",
                            "--phi", '{"kind": "affine", "u": "1", "v": "1"}',
                            "--window", "1..50"],
    ("morphism", "iso"): ["--source", TABLE_1_5, "--target", TABLE_1_5,
                          "--phi", '{"kind": "table", "map": {"1": "1"}}'],
    # swapping 1 and 2 swaps the branches of SWAP2
    ("morphism", "conjugate"): ["--source", SWAP2, "--target", SWAP2,
                                "--phi", '{"kind": "table", "map": {"1": "2", "2": "1"}}'],
    ("morphism", "isometry"): ["--source", SWAP2, "--target", SWAP2_FED, "--phi", INCLUDE_1_2],
    ("verify-all",): [],  # with a planted fault
}

# the witness of each FAILING input that writes one: states as strings,
# branch symbols, T/T* tags and basis indices as numbers
WITNESSES = {
    ("operators", "reduce-check"): [1, "T", 0, "4"],
    ("morphism", "iso"): ["5"],
    ("morphism", "conjugate"): [1, "1"],
    ("morphism", "isometry"): {"outside": [], "unreached": ["3", "4"], "x": "1"},
}


@pytest.mark.parametrize("path", sorted(FAILING), ids=" ".join)
def test_failed_check_is_exit_1(tmp_path, capsys, monkeypatch, path):
    (tmp_path / "k12.json").write_text('["1", "2"]')
    if path == ("verify-all",):
        planted = battery.CheckResult(3, "planted fault", False, "planted")
        monkeypatch.setattr(battery, "ALL_CHECKS", [
            (lambda: planted) if check is battery.check_3x_plus_d_fixed_points else check
            for check in battery.ALL_CHECKS
        ])
    argv = [str(tmp_path / a) if a == "k12.json" else a for a in FAILING[path]]
    code, rep = run(capsys, *path, *argv)
    assert code == 1
    assert rep["passed"] is False
    if path in WITNESSES:
        assert rep["witness"] == WITNESSES[path]


def test_every_passed_report_has_an_exit_1_case():
    # a handler is named after its command path; any that writes
    # "passed" needs an input above on which it is false
    reporting = {
        path for path, _ in _leaves()
        if '"passed"' in inspect.getsource(getattr(cli, "cmd_" + "_".join(path).replace("-", "_")))
    }
    assert reporting == set(FAILING)


@pytest.mark.parametrize(
    "source,phi,window",
    [
        (TABLE_1_5, '{"kind": "table", "map": {"1": "1"}}', None),
        ("collatz", '{"kind": "affine", "u": "1", "v": "-1"}', "1..5"),
    ],
    ids=["table-missing-a-state", "affine-leaves-the-target"],
)
def test_morphism_iso_on_a_partial_phi_is_exit_1(capsys, source, phi, window):
    # phi undefined at a window state fails the homomorphism check, so
    # iso reports it as check does
    for what in ("check", "iso"):
        argv = ["morphism", what, "--source", source, "--target", source, "--phi", phi]
        code, rep = run(capsys, *argv, *(["--window", window] if window else []))
        assert code == 1 and rep["passed"] is False
    assert rep["homomorphism"] is False


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
# x = 5 never leaves FIVE_STATE, so every pm-limit variant is a report
PM_LIMIT_TABLE = {"--system": (FIVE_STATE, FIVE_STATE_B), "--window": (None, "1..5")}
HASH_OVERRIDES = {
    ("operators", "reduce-check"): CLOSED_TABLES,
    ("operators", "pm-limit"): PM_LIMIT_TABLE,
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
        names = [o for o in options if o not in ("--out", "--with-timing", "--format")]
        if not names:
            continue  # verify-all: no option enters the hash
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
    code = cli.main(["verify-all"])
    out = capsys.readouterr().out
    assert out == (GOLDEN / "verify_all_paper.json").read_text()
    rep = json.loads(out)
    assert code == 0
    assert rep["passed"] and rep["anomalies"] == []
    assert [c["number"] for c in rep["checks"]] == list(range(1, 14))
    assert all(c["passed"] for c in rep["checks"])


def test_verify_all_reports_a_check_that_raises(capsys, monkeypatch):
    # a raising check is a failed check: the others still run, and the
    # full report comes out with exit 1
    def check_3x_plus_d_fixed_points():
        raise NotACycle("planted")

    def check_coding_injectivity():
        raise KeyError(7)

    planted = {f.__name__: f for f in (check_3x_plus_d_fixed_points, check_coding_injectivity)}
    monkeypatch.setattr(battery, "ALL_CHECKS", [
        planted.get(check.__name__, check) for check in battery.ALL_CHECKS
    ])
    code, rep = run(capsys, "verify-all")
    assert code == 1 and rep["passed"] is False
    assert [c["number"] for c in rep["checks"]] == list(range(1, 14))
    assert sum(c["passed"] for c in rep["checks"]) == 11
    assert rep["checks"][2] == {"number": 3, "name": "check_3x_plus_d_fixed_points",
                                "passed": False, "detail": "raised NotACycle: planted"}
    assert rep["checks"][6]["detail"] == "raised KeyError: 7"
    assert rep["anomalies"] == ["check_3x_plus_d_fixed_points", "check_coding_injectivity"]


# -- the report writer and the parser -------------------------------------------------

JSON_TEXT = st.text(max_size=6) | st.text(
    st.characters(codec=None, min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=2)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | JSON_TEXT
    # ints past Python's 4300-digit conversion limit
    | st.builds(lambda d, sign: sign * (7 * 10**d + 3), st.integers(4300, 4400),
                st.sampled_from((1, -1)))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.lists(JSON_TEXT) | st.dictionaries(JSON_TEXT, children),
    max_leaves=12,
)


@settings(max_examples=100, derandomize=True, database=None)
@given(data=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4))
@example(data={})
@example(data={"a": [], "b": {}, "c": (), "d": [[], {}, [[]]]})
@example(data={"flags": [True, False, None, 1, "1"], "n": -0, "t": (1, "x")})
@example(data={'q"\\': ['"', "\\", "\x00\x1f\x7f", "é \U0001F600", "\ud800"]})
@example(data={"big": [10**4301, -(10**5000)], "states": ["9" * 4400]})
def test_report_writer_equals_indented_json_dumps(data):
    with cli._digits_unlimited():
        expected = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert cli._canonical(data) == expected


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []

    def counted():
        calls.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["orbit", "--system", "collatz", "--x", "7"],
                 ["cycles", "--system", "collatz", "--max-len", "5"],
                 ["orbit", "--system", "collatz", "--x", "0"]):
        cli.main(argv)
    capsys.readouterr()
    assert calls == [1]


def test_options_do_not_leak_between_calls(capsys):
    cycles = ["cycles", "--system", "collatz", "--max-len", "5"]
    assert cli.main([*cycles, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("word,cycle,length")
    code, rep = run(capsys, *cycles)
    assert code == 0 and rep["cycle_count"] == 1
    code_x5 = ["code", "--system", "collatz", "--x", "5"]
    code, rep = run(capsys, *code_x5, "--exact-tail")
    assert code == 0 and "coding" in rep
    code, rep = run(capsys, *code_x5)
    assert code == 0 and "coding" not in rep


def test_states_beyond_the_int_digit_limit_are_written(capsys):
    # the limit guards parsing: a 4299-digit start is read, and the orbit's
    # states grow past 4300 digits; only rendering and writing lift it
    limit = sys.get_int_max_str_digits()
    x = 7 * 10**4298 + 1
    code = cli.main(["orbit", "--system", "mersenne:5", "--x", str(x), "--cap", "300"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rep = json.loads(captured.out)
    assert rep["start"] == str(x)
    assert max(map(len, rep["trajectory"])) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_an_x_beyond_the_int_digit_limit_is_exit_2(capsys):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbit", "--system", "mersenne:5", "--x", "7" * 4302])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit


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
