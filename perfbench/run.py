"""The branchdyn benchmark.

    python3 perfbench/run.py --workload cycle_census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each pass runs one workload's jobs once, single-threaded, in a fresh
interpreter (worker.py): ``battery`` caches the Collatz census with
``lru_cache``, so a second pass in one process would skip work that every
``verify-all`` user pays for.  Passes run one after another until
``--seconds`` have gone by.  The inputs come from ``--seed``;
``cycle_census`` is exhaustive and has none.

``--trace 0`` reports the end-to-end metrics (medians over the run):

* ``wall_s``: one pass from the first job's start to the last verdict.
* ``setup_s``: a fresh interpreter's start until ``branchdyn.cli`` and
  ``branchdyn.battery`` are imported and the inputs are generated.
* ``peak_rss_mb``: the worker's peak resident memory (``ru_maxrss``),
  which includes the speed sampler's 16k-entry dict (about 1 MB).

On a shared machine the speed of the same code drifts: on the 2-core
virtual machine of perfbench/baseline.json it changed by up to 2x from
one minute to the next, which no median over one run can hide, and raw
run medians spread by 20-40%.  So both times are given at nominal
machine speed: each worker times a fixed reference workload that never
calls branchdyn (worker.SpeedSampler, every 25 ms of CPU time during a
pass, ten times after set-up), and each job's time as measured is
divided by how many times slower than nominal the reference ran during
that job.  Job deadlines are in the same nominal seconds, and a job that
hits its deadline counts its deadline.  The times as measured and the
slowness factors are printed above the result line.

``fail_rate`` (failed jobs over attempted jobs) is printed by name but is
reported to the caller through ``attempted`` and ``failed``, since it is
0 on two workloads and a bound relative to 0 means nothing.  A job fails
when it raises, exits with another code than expected, gives another
verdict than expected, or hits its deadline.  Only a deadline hit leaves
``correct`` true: the program gave no wrong answer, it gave none.

``--trace 1`` reports the per-layer metrics instead (see trace_layers.py),
from a kernel probe, one untraced pass and one traced pass.  The traced
pass runs this workload's jobs first, then the other workloads' jobs, so
that every job-owned figure exists in every traced run; layer self time
and calls count this workload's jobs only, and self time also counts
the layer's module import.  Per-layer times are as measured, not scaled
to nominal speed.

The last line of standard output is one JSON object.  The exit code is
0 when it was printed, 1 when a worker failed and 2 when there is no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
import oracle  # noqa: E402
import trace_layers  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CYCLE_JOBS = {"cycles_collatz": "collatz", "cycles_qxd5_1": "qxd5_1",
              "cycles_alphabeta": "alphabeta", "cycles_mersenne3": "mersenne3"}
COMMUTANT_LADDER = ("inj_n10", "inj_n20", "inj_n30", "inj_n40", "inj_n50",
                    "p3_n6", "p3_n9", "p3_n12")


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, *flags: str, importtime: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line.

    With ``importtime`` the interpreter runs under ``-X importtime`` and
    the result gains ``import_self_s``: each layer's own import time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker ran past {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if Path(out["src"]).resolve().parent.parent != ROOT / "src":
        raise WorkerFailed(f"imported branchdyn from {out['src']}, not from {ROOT / 'src'}")
    if importtime:
        out["import_self_s"] = import_self_s(proc.stderr)
    return out


def import_self_s(stderr: str) -> dict:
    """Layer -> its module's own import time, from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[0].isdigit() and fields[2].startswith("branchdyn."):
            layer = fields[2].split(".")[1]
            if layer in trace_layers.LAYERS:
                out[layer] = int(fields[0]) * 1e-6
    return out


def judge(jobs: list, records: list, expected: dict) -> list:
    """(job id, outcome) per job: ok, deadline, raised, exit or verdict."""
    if [r["id"] for r in records] != [j.id for j in jobs]:
        raise WorkerFailed("the worker ran another job list")
    out = []
    for job, rec in zip(jobs, records):
        if rec["status"] != "ok":
            outcome = rec["status"]
        elif rec["exit_code"] != job.exit_code:
            outcome = "exit"
        elif rec["verdict"] != expected[job.id]:
            outcome = "verdict"
        else:
            outcome = "ok"
        out.append((job.id, outcome))
    return out


def tally(outcomes: list) -> dict:
    """correct, attempted and failed over (job id, outcome) pairs; prints fail_rate."""
    failed = [(j, o) for j, o in outcomes if o != "ok"]
    for job_id, outcome in failed:
        print(f"  FAILED {job_id}: {outcome}")
    rate = len(failed) / len(outcomes)
    print(f"  {'fail_rate':<12} {rate:.4f} ratio  ({len(failed)} of {len(outcomes)} jobs)")
    return {"correct": all(o in ("ok", "deadline") for _, o in outcomes),
            "attempted": len(outcomes), "failed": len(failed)}


def high_percentile(values: list):
    """(p, value) for the highest percentile with ten values beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return round(100 * (n - 10) / n), sorted(values)[n - 11]


def describe(name: str, values: list, unit: str) -> str:
    hp = high_percentile(values)
    tail = f"p{hp[0]} {hp[1]:.4f}" if hp else "no high percentile (needs 11 runs)"
    return f"  {name:<12} median {statistics.median(values):.4f} {unit}  {tail}  ({len(values)} runs)"


class Run:
    """One benchmark run of one workload: spawns, verdicts, metrics."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.jobs = jobs_mod.make_jobs(workload, seed)
        self.expected = {j.id: oracle.expected_verdict(j) for j in self.jobs}
        self.outcomes = []

    def check(self, result: dict) -> None:
        """Judge this workload's jobs; a traced pass runs them first."""
        self.outcomes += judge(self.jobs, result["jobs"][:len(self.jobs)], self.expected)

    def end_to_end(self, seconds: float) -> dict:
        spawn(self.workload, self.seed, "--setup-only")  # byte-compiles, warms the file cache
        setups = [spawn(self.workload, self.seed, "--setup-only")
                  for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(spawn(self.workload, self.seed))
            self.check(passes[-1])
        setups += passes
        samples = {"wall_s": [p["nominal_wall_s"] for p in passes],
                   "setup_s": [p["setup_s"] / p["setup_slowness"] for p in setups],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
        print(f"workload {self.workload} seed {self.seed}: {len(passes)} passes")
        print("  as measured: wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
              + ", setup_s " + " ".join(f"{p['setup_s']:.3f}" for p in setups))
        print("  slowness:    passes " + " ".join(f"{p['slowness']:.3f}" for p in passes)
              + ", set-ups " + " ".join(f"{p['setup_slowness']:.3f}" for p in setups))
        for name, values in samples.items():
            print(describe(name, values, E2E_UNITS[name]))
        return {name: {"value": statistics.median(v), "unit": E2E_UNITS[name]}
                for name, v in samples.items()}

    def per_layer(self) -> dict:
        probe = spawn(self.workload, self.seed, "--probe")
        imports = [probe["import_s"]] + [
            spawn(self.workload, self.seed, "--setup-only")["import_s"]
            for _ in range(SETUP_SAMPLES)]
        untraced = spawn(self.workload, self.seed)
        self.check(untraced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{self.workload}-{self.seed}.json"
        traced = spawn(self.workload, self.seed, "--trace", str(spans_path), importtime=True)
        self.check(traced)
        with open(spans_path) as fh:
            dump = json.load(fh)
        own = {j.id for j in self.jobs}
        by_id = {r["id"]: r for r in traced["jobs"]}
        plain = {r["id"]: r for r in untraced["jobs"]}

        print(f"workload {self.workload} seed {self.seed}: traced; spans in {spans_path}")
        m = {}
        for layer, fig in trace_layers.layer_figures(dump, own, probe["units"]).items():
            imported = traced["import_self_s"][layer]
            m[f"{layer}.self_s"] = (imported + fig["self_s"], "s")
            m[f"{layer}.calls"] = (fig["calls"], "count")
            print(f"  {layer}.self_s: {imported:.4f} s importing the module, {fig['self_s']:.4f} s in calls,"
                  f" of which {fig['computed_s']:.4f} s computed from kernel counts")
        for name, value in probe["metrics"].items():
            m[name] = (value, trace_layers.probe_unit(name))
        tried = {sys_: by_id[job_id]["work"]["words_tried"] for job_id, sys_ in CYCLE_JOBS.items()}
        for sys_, n in tried.items():
            m[f"words.words_tried.{sys_}"] = (n, "count")
        found = sum(by_id[job_id]["work"]["cycle_count"] for job_id in CYCLE_JOBS)
        m["words.hit_ratio"] = (found / max(sum(tried.values()), 1), "ratio")
        m["coding.tuc_rounds"] = (sum(by_id[j]["work"]["rounds"]
                                      for j in ("tuc_collatz", "tuc_alphabeta")), "count")
        m["operators.build_truncation_s"] = (trace_layers.span_seconds(
            dump, "operators_build", "operators.build_truncation"), "s")
        for case in COMMUTANT_LADDER:
            m[f"operators.commutant_s.{case}"] = (trace_layers.span_seconds(
                dump, f"commutant_{case}", "operators.commutant_projections"), "s")
        commutants = [r for job_id, r in plain.items() if job_id.startswith("commutant_")]
        m["operators.commutant_deadline_hits"] = (
            sum(r["status"] == "deadline" for r in commutants), "count")
        m["operators.commutant_uncertified"] = (
            sum(bool(r.get("work", {}).get("uncertified")) for r in commutants), "count")
        m["operators.pm_limit_s"] = (trace_layers.span_seconds(
            dump, "pm_limit", "operators.verify_pm_limit"), "s")
        m["operators.fixed_vectors_s"] = (trace_layers.span_seconds(
            dump, "fixed_vectors", "operators.fixed_vectors_of_word"), "s")
        for number in range(1, 14):
            m[f"battery.check{number:02d}_s"] = (by_id[f"check{number:02d}"]["seconds"], "s")
        m["cli.import_s"] = (statistics.median(imports), "s")
        drift = jobs_mod.report_drift(plain)
        m["cli.report_drift"] = (len(drift), "count")
        own_s = lambda recs: sum(recs[j]["seconds"] for j in own)
        m["trace.overhead_s"] = (own_s(by_id) - own_s(plain), "s")
        if drift:
            print(f"  reports differing from the seed commit's: {', '.join(drift)}")
        for name, (value, unit) in m.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "branchdyn" / "__init__.py").is_file():
        print(f"no branchdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = jobs_mod.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            run = Run(workload, args.seed)
            metrics = run.per_layer() if args.trace else run.end_to_end(args.seconds)
            results[workload] = dict(tally(run.outcomes), metrics=metrics)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": v for w, r in results.items()
                        for name, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
