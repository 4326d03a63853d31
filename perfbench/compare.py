"""Spread of one set of runs, or parent against change.

    python3 perfbench/compare.py .bench_out/parent
    python3 perfbench/compare.py .bench_out/parent .bench_out/change

Reads the ``<workload>.jsonl`` files that collect.py writes.  With one
directory it prints, per workload and end-to-end metric, the median,
the quartiles, the high percentile when there are enough runs, and the
spread: the distance between the quartiles as a share of the median.
With two it prints one row per workload and metric, parent against
change, judged against the metric's bound in BENCHMARK.json: a change
worse than the bound is a regression; where the parent's own spread is
wider than the bound the row is unresolved, unless every change run is
better than every parent run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import high_percentile  # noqa: E402


def load(directory: Path, workload: str) -> list:
    path = directory / f"{workload}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def percentile(values: list) -> str:
    hp = high_percentile(values)
    return f"p{hp[0]} {hp[1]:.4g}" if hp else "-"


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dirs = [Path(a) for a in argv]
    if len(dirs) not in (1, 2):
        print(__doc__)
        return 2
    worst = 0
    for w in (w["name"] for w in spec["workloads"]):
        runs = [load(d, w) for d in dirs]
        if not all(runs):
            continue
        failed = [sum(r["failed"] for r in rs) for rs in runs]
        attempted = [sum(r["attempted"] for r in rs) for rs in runs]
        print(f"{w}: failed {' -> '.join(f'{f}/{a}' for f, a in zip(failed, attempted))}, "
              f"correct {' -> '.join(str(all(r['correct'] for r in rs)) for rs in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            s = [stats(v) for v in values]
            unit = metric["unit"]
            if len(dirs) == 1:
                ok = name == "setup_s" or s[0]["spread"] < bound
                print(f"  {name:<12} median {s[0]['median']:.4g} {unit}  "
                      f"q1 {s[0]['q1']:.4g}  q3 {s[0]['q3']:.4g}  {percentile(values[0])}  "
                      f"spread {s[0]['spread']:.2%} (bound {bound:.0%})  n={len(values[0])}"
                      f"{'' if ok else '  WIDER THAN BOUND'}")
                worst |= not ok
                continue
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (s[1]["median"] - s[0]["median"]) / s[0]["median"]
            if change > bound:
                verdict = "REGRESSION"
            elif s[0]["spread"] > bound and not all(
                    sign * c < sign * p for c in values[1] for p in values[0]):
                verdict = "unresolved"
            else:
                verdict = "ok"
            worst |= verdict == "REGRESSION"
            print(f"  {name:<12} parent {s[0]['median']:.4g} -> change {s[1]['median']:.4g} {unit}"
                  f"  ({change:+.2%} worse)"
                  f"  spread {s[0]['spread']:.2%}/{s[1]['spread']:.2%}  bound {bound:.0%}  {verdict}")
    return int(bool(worst))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
