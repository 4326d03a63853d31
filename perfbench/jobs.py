"""The benchmark's workloads: their jobs, inputs and expected verdicts.

Plain data only.  Nothing here imports branchdyn, so the parent process
can build the same job list as the worker and judge the worker's answers
with code that is independent of the program.

A verdict holds only what the mathematics fixes: cycle sets and their
words, ``passed`` flags, orbit-class counts, commutant ``dimension`` and
``abelian``, ``stabilization_index``, plus the exit code.  Work counters
(``words_tried``) and certification fields (``lattice_size``,
``block_scalar``) are never part of a verdict, so work that changes them
does not count as a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cycle_census", "orbit_scan", "operator_algebra")

# Every job has a deadline so that a pass always ends.  The 21-state
# period-3 commutant does not finish at the seed commit (it trial-divides
# a huge characteristic-polynomial term in linalg._divisors); it keeps a
# short fixed deadline, in nominal seconds, so the hang shows as a failure
# in every pass while costing the same time in each.
DEFAULT_DEADLINE_S = 60.0
HANG_DEADLINE_S = 2.0

ALPHABETA = json.dumps({"family": "alphabeta", "k": 3, "alpha": [4, 4], "beta": [2, 1]})

REPLAY_CAP = 10**4
CENSUS_CAP = 10**4
RANDOM_STARTS = 2000
RANDOM_TABLES = 6
RANDOM_TABLE_STATES = 6
CONJUGATE_TABLE_STATES = 40


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # cli | check | census | replay | commutant | conjugate
    args: object
    expect: object = None  # None: the oracle computes the expected verdict
    exit_code: int = 0
    deadline_s: float = DEFAULT_DEADLINE_S


def _cli(job_id: str, argv: list, expect: dict) -> Job:
    return Job(job_id, "cli", argv, expect)


def _check(number: int) -> Job:
    return Job(f"check{number:02d}", "check", number, {"passed": True})


def _cycle_table(n: int, branch) -> dict:
    """The single cycle 1 -> 2 -> ... -> n -> 1 with the given branch labels."""
    return {
        "branch": {x: branch(x) for x in range(1, n + 1)},
        "image": {x: x % n + 1 for x in range(1, n + 1)},
        "k": max(branch(x) for x in range(1, n + 1)),
    }


def injective_cycle(n: int) -> dict:
    """State 1 alone on branch 1: every coding differs, the commutant is scalar."""
    return _cycle_table(n, lambda x: 1 if x == 1 else 2)


def period3_cycle(n: int) -> dict:
    """Branch x mod 3 + 1: codings repeat with period 3, n a multiple of 3."""
    return _cycle_table(n, lambda x: x % 3 + 1)


def random_table(rng: random.Random, n: int) -> dict:
    """A random total map on n states whose branches are injective.

    Branches are assigned greedily in random order; a draw that jams is
    thrown away and drawn again.
    """
    while True:
        k = rng.randint(2, 3)
        image = {x: rng.randint(1, n) for x in range(1, n + 1)}
        used = {i: set() for i in range(1, k + 1)}
        branch = {}
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for x in order:
            free = [i for i in range(1, k + 1) if image[x] not in used[i]]
            if not free:
                break
            branch[x] = rng.choice(free)
            used[branch[x]].add(image[x])
        else:
            return {"branch": branch, "image": image, "k": k}


def _cycle_census() -> list:
    cycles = lambda system, max_len: ["cycles", "--system", system, "--max-len", str(max_len)]
    return [
        _cli("cycles_collatz", cycles("collatz", 20),
             {"cycles": [[["1", "4", "2"], [1, 2, 2]]]}),
        _cli("cycles_qxd5_1", cycles("qxd:5,1", 18), {"cycles": [
            [["1", "6", "3", "16", "8", "4", "2"], [1, 2, 1, 2, 2, 2, 2]],
            [["13", "66", "33", "166", "83", "416", "208", "104", "52", "26"],
             [1, 2, 1, 2, 1, 2, 2, 2, 2, 2]],
            [["17", "86", "43", "216", "108", "54", "27", "136", "68", "34"],
             [1, 2, 1, 2, 2, 2, 1, 2, 2, 2]],
        ]}),
        # its other known cycle, through 7, has length 16
        _cli("cycles_alphabeta", cycles(ALPHABETA, 11), {"cycles": [
            [["1", "6", "2", "9", "3"], [1, 3, 2, 3, 3]],
        ]}),
        _cli("cycles_mersenne3", cycles("mersenne:3", 18), {"cycles": [
            [["1", "8", "4", "2"], [1, 2, 2, 2]],
        ]}),
        *[_check(n) for n in range(1, 7)],
        Job("census_5x1", "census", list(range(1, 101)), {
            "cycles": [
                ["1", "6", "3", "16", "8", "4", "2"],
                ["13", "66", "33", "166", "83", "416", "208", "104", "52", "26"],
                ["17", "86", "43", "216", "108", "54", "27", "136", "68", "34"],
            ],
            "capped": 60,  # orbits that grow past the cap: ~1000-bit states
        }),
    ]


def _orbit_scan(rng: random.Random) -> list:
    starts = list(range(1, 10**4 + 1)) + [
        rng.randint(1, 2**40) for _ in range(RANDOM_STARTS)
    ]
    return [
        _cli("tuc_collatz", ["tuc-scan", "--system", "collatz", "--window", "1..20000"],
             {"passed": True, "undistinguished": 0}),
        _cli("tuc_alphabeta", ["tuc-scan", "--system", ALPHABETA, "--window", "1..20000"],
             {"passed": True, "undistinguished": 0}),
        _cli("minimality_collatz",
             ["minimality", "--system", "collatz", "--window", "1..20000"],
             {"class_count": 1, "unresolved": 0}),
        _cli("total_orbit_collatz",
             ["total-orbit", "--system", "collatz", "--x", "1", "--window", "1..100000"],
             {"members": 39706, "exact": False}),
        Job("replay_collatz", "replay", starts),
        *[_check(n) for n in (7, 12, 13)],
    ]


def _operator_algebra(rng: random.Random) -> list:
    jobs = [
        _cli("operators_build",
             ["operators", "build", "--system", "collatz", "--window", "1..100000"],
             {"n": 100000, "entries": [16667, 50000]}),
        _cli("pm_limit",
             ["operators", "pm-limit", "--system", "collatz", "--window", "1..10000",
              "--support", "1,5"],
             {"passed": True, "stabilization_index": 4}),
        _cli("fixed_vectors",
             ["operators", "fixed-vectors", "--system", "collatz", "--window", "1..200",
              "--word", "1,2,2"],
             {"dimension": 1}),
    ]
    for n in (10, 20, 30, 40, 50):
        jobs.append(Job(f"commutant_inj_n{n}", "commutant", injective_cycle(n),
                        {"dimension": 1, "abelian": True}))
    for n in (6, 9, 12):
        jobs.append(Job(f"commutant_p3_n{n}", "commutant", period3_cycle(n),
                        {"dimension": n // 3, "abelian": True}))
    jobs.append(Job("commutant_p3_n21", "commutant", period3_cycle(21),
                    {"dimension": 7, "abelian": True}, deadline_s=HANG_DEADLINE_S))
    for t in range(RANDOM_TABLES):
        jobs.append(Job(f"commutant_random{t}", "commutant",
                        random_table(rng, RANDOM_TABLE_STATES)))
    for t in range(RANDOM_TABLES):
        table = random_table(rng, CONJUGATE_TABLE_STATES)
        relabel = list(range(1, CONJUGATE_TABLE_STATES + 1))
        rng.shuffle(relabel)
        jobs.append(Job(f"conjugate_random{t}", "conjugate",
                        {"table": table, "relabel": relabel}, {"passed": True}))
    jobs.extend(_check(n) for n in (8, 9, 10, 11))
    return jobs


def make_jobs(workload: str, seed: int) -> list:
    """The jobs of one pass, in order.  The same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cycle_census":
        return _cycle_census()  # exhaustive: no seeded input
    if workload == "orbit_scan":
        return _orbit_scan(rng)
    if workload == "operator_algebra":
        return _operator_algebra(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# verdicts read off CLI reports


def cli_verdict(argv: list, report: dict) -> dict:
    """The fields of a CLI report that the mathematics fixes."""
    command = argv[0] if argv[0] != "operators" else f"operators {argv[1]}"
    if command == "cycles":
        return {"cycles": [[c["cycle"], c["word"]] for c in report["cycles"]]}
    if command == "tuc-scan":
        return {"passed": report["passed"],
                "undistinguished": len(report["undistinguished"])}
    if command == "minimality":
        return {"class_count": report["class_count"],
                "unresolved": len(report["unresolved"])}
    if command == "total-orbit":
        return {"members": len(report["members"]), "exact": report["exact"]}
    if command == "operators build":
        return {"n": report["n"], "entries": report["entries"]}
    if command == "operators pm-limit":
        return {"passed": report["passed"],
                "stabilization_index": report["stabilization_index"]}
    if command == "operators fixed-vectors":
        return {"dimension": report["dimension"]}
    raise ValueError(f"no verdict rule for {command!r}")


def orbit_digest(rows) -> str:
    """Digest of (start, entry index, least cycle state, cycle length) rows."""
    text = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def cli_work(argv: list, report: dict) -> dict:
    """Work counters of a CLI report, kept for the per-layer figures only.

    A counter a later report renames or drops reads 0; it never touches
    the verdict.
    """
    if argv[0] == "cycles":
        return {"words_tried": report.get("words_tried", 0),
                "cycle_count": len(report.get("cycles", ()))}
    if argv[0] == "tuc-scan":
        return {"rounds": report.get("max_prefix_length", 0)}
    return {}


def report_drift(records: dict) -> list:
    """CLI jobs whose full report bytes differ from the seed commit's.

    Informational only: reports may change where a verdict does not.
    """
    with open(Path(__file__).with_name("seed_reports.json")) as fh:
        seed = json.load(fh)
    return sorted(job_id for job_id, digest in seed.items()
                  if job_id in records and records[job_id].get("report_sha256") != digest)
