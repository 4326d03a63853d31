"""Self-test: planted failures must register as failures.

    python3 perfbench/selftest.py

Runs a short pass through the worker's own pass loop and the benchmark's
own judge: a job with a deliberately wrong expected verdict, the 21-state
hang under a 0.2 s deadline, and a correct job after both, which must
still run and pass.  Exits 0 when the wrong verdict and the deadline hit
each count as failed, the wrong verdict makes the run incorrect, and the
deadline alone does not.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs as jobs_mod  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    import branchdyn.battery  # noqa: F401
    import branchdyn.cli  # noqa: F401
    import branchdyn as bd

    one_cycle = {"cycles": [[["1", "4", "2"], [1, 2, 2]]]}
    argv = ["cycles", "--system", "collatz", "--max-len", "6"]
    jobs = [
        jobs_mod.Job("planted_wrong_verdict", "cli", argv, {"cycles": []}),
        jobs_mod.Job("planted_deadline_hit", "commutant", jobs_mod.period3_cycle(21),
                     {"dimension": 7, "abelian": True}, deadline_s=0.2),
        jobs_mod.Job("after_both", "cli", argv, one_cycle),
    ]
    signal.signal(signal.SIGALRM, worker._on_alarm)
    records, raws = worker.run_pass(jobs, worker._runners(bd, jobs_mod))
    worker.add_verdicts(jobs_mod, jobs, records, raws)
    outcomes = run.judge(jobs, records, {j.id: j.expect for j in jobs})
    problems = []
    want = [("planted_wrong_verdict", "verdict"), ("planted_deadline_hit", "deadline"),
            ("after_both", "ok")]
    if outcomes != want:
        problems.append(f"outcomes {outcomes}, want {want}")
    if run.tally(outcomes) != {"correct": False, "attempted": 3, "failed": 2}:
        problems.append("a wrong verdict must fail the job and make the run incorrect")
    if run.tally(outcomes[1:]) != {"correct": True, "attempted": 2, "failed": 1}:
        problems.append("a deadline hit must fail the job and leave the run correct")
    if records[1]["seconds"] > 1.0:
        problems.append(f"the deadline fired late: {records[1]['seconds']:.2f} s")
    for p in problems:
        print(f"selftest FAILED: {p}")
    if not problems:
        print("selftest passed: planted wrong verdict and deadline hit both counted as failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
