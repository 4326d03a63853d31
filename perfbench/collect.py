"""Run the benchmark once per seed and keep each run's result line.

    python3 perfbench/collect.py --out .bench_out/parent --seeds 1-10
    python3 perfbench/collect.py --out .bench_out/change --seeds 1-10 --workloads orbit_scan

Each run is BENCHMARK.json's command with ``--workload W --seed N
--seconds <run_seconds> --trace 0``, in its own process, as a caller of
the benchmark starts it; its last line is appended to
``<out>/<workload>.jsonl``.  Workloads alternate within
each seed.  Afterwards the spread of every end-to-end metric is printed
(compare.py with one directory).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="A-B")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            line = proc.stdout.splitlines()[-1]
            with open(args.out / f"{workload}.jsonl", "a") as fh:
                fh.write(line + "\n")
            print(f"{workload} seed {seed}: {line[:160]}", flush=True)
    return subprocess.run([sys.executable, str(HERE / "compare.py"), str(args.out)]).returncode


if __name__ == "__main__":
    sys.exit(main())
