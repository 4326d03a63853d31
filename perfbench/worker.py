"""One pass over one workload, in a fresh interpreter.

Started by run.py.  Set-up runs from the interpreter's start until
branchdyn.cli and branchdyn.battery are imported and the workload's
inputs are generated.  The pass then runs every job once,
single-threaded, each under its own deadline, and times each job; the
pass time is their sum, from the first job's start to the last verdict
less the speed sampler's own time.  Verdicts are read off the results
only after the pass ends.  The last line of standard output is one JSON
object.

  python worker.py --workload W --seed N --spawned T
                   [--setup-only | --probe | --trace SPANS.json]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction


class DeadlineHit(BaseException):
    """Raised by SIGALRM inside a job that ran past its deadline.

    A BaseException, so that no handler in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineHit()


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _runners(bd, jobs_mod):
    """Job kind -> function(job) returning the raw result.

    Every call goes through a module attribute, so the traced run's
    wrappers see it.
    """
    systems, orbits, operators, morphisms = bd.systems, bd.orbits, bd.operators, bd.morphisms

    def table(spec):
        return systems.make_system(systems.FiniteTable.make(spec["branch"], spec["image"], k=spec["k"]))

    def check(job):
        name = bd.battery.ALL_CHECKS[job.args - 1].__name__
        return getattr(bd.battery, name)()

    def census(job):
        five = systems.make_system(systems.QxPlusD(5, 1))
        return [orbits.orbit_iterate(five, x, jobs_mod.CENSUS_CAP) for x in job.args]

    def replay(job):
        sys_ = systems.make_system(systems.collatz())
        return [orbits.orbit_iterate(sys_, x, jobs_mod.REPLAY_CAP) for x in job.args]

    def commutant(job):
        trunc = operators.build_truncation(table(job.args), None)
        return operators.commutant_projections(trunc)

    def conjugate(job):
        sys1 = table(job.args["table"])
        perm = dict(zip(range(1, len(job.args["relabel"]) + 1), job.args["relabel"]))
        spec2 = {
            "branch": {perm[x]: i for x, i in job.args["table"]["branch"].items()},
            "image": {perm[x]: perm[y] for x, y in job.args["table"]["image"].items()},
            "k": job.args["table"]["k"],
        }
        sys2 = table(spec2)
        iso = morphisms.Morphism(sys1, sys2, morphisms.TableRule(perm))
        t1 = operators.build_truncation(sys1, None)
        t2 = operators.build_truncation(sys2, None)
        return morphisms.conjugate_unitary(iso, t1, t2)

    return {
        "cli": lambda job: _run_cli(bd.cli, job.args),
        "check": check,
        "census": census,
        "replay": replay,
        "commutant": commutant,
        "conjugate": conjugate,
    }


def _verdict(jobs_mod, job, raw) -> dict:
    """Turn a raw result into the job record's verdict, exit code and work."""
    if job.kind == "cli":
        rec = {"exit_code": raw["exit_code"], "verdict": None, "work": {},
               "report_sha256": hashlib.sha256(raw["stdout"].encode()).hexdigest()}
        if raw["stderr"]:
            rec["error"] = raw["stderr"][-400:]
        try:
            report = json.loads(raw["stdout"])
            rec["verdict"] = jobs_mod.cli_verdict(job.args, report)
            rec["work"] = jobs_mod.cli_work(job.args, report)
        except (ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"unreadable report: {exc!r}"
        return rec
    rec = {"exit_code": 0, "work": {}}
    if job.kind == "check":
        rec["verdict"] = {"passed": raw.passed}
    elif job.kind == "census":
        capped = sum(1 for r in raw if not r.entered_cycle)
        cycles = sorted({tuple(r.cycle) for r in raw if r.entered_cycle})
        rec["verdict"] = {"cycles": [[str(s) for s in c] for c in cycles], "capped": capped}
    elif job.kind == "replay":
        rows = [(x, r.entry_index, min(r.cycle) if r.cycle else 0, len(r.cycle))
                for x, r in zip(job.args, raw)]
        rec["verdict"] = {"orbits": len(rows), "digest": jobs_mod.orbit_digest(rows)}
    elif job.kind == "commutant":
        rec["verdict"] = {"dimension": raw.dimension, "abelian": raw.abelian}
        rec["work"] = {"uncertified": getattr(raw, "lattice_size", None) is not None
                       and not all(getattr(raw, "block_scalar", ()))}
    elif job.kind == "conjugate":
        rec["verdict"] = {"passed": raw.passed}
    return rec


def add_verdicts(jobs_mod, jobs, records, raws) -> None:
    for job, rec, raw in zip(jobs, records, raws):
        if rec["status"] != "ok":
            continue
        try:
            rec.update(_verdict(jobs_mod, job, raw))
        except (AttributeError, TypeError) as exc:  # a result without its verdict fields
            rec["status"] = "raised"
            rec["error"] = f"unreadable result: {exc!r}"


NOMINAL_REFERENCE_S = 0.0012
SAMPLE_EVERY_S = 0.025


def reference_s(table: dict) -> float:
    """Seconds taken by a fixed pure-Python workload that never calls branchdyn.

    It mixes what the program's hot loops do: calls, lookups in a large
    dict, small and ~200-bit integer arithmetic, Fractions.  Its time
    tracks how fast this machine runs the program at the moment.
    """
    t0 = time.perf_counter()
    acc = 0
    for start in range(1, 121):
        x = start * (2**150 + 1) if start % 10 == 0 else start
        for _ in range(60):
            x = 3 * x + 1 if x & 1 else x >> 1
            acc += table.get(x & 0x3FFF, 0)
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(i, i + 1)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``reference_s`` every SAMPLE_EVERY_S of CPU time (SIGPROF).

    On a shared machine the speed of the same code drifts, by up to 2x
    on the 2-core virtual machine of baseline.json, within a second as
    well as over minutes.
    ``slowness`` is how many times slower than NOMINAL_REFERENCE_S the
    reference ran over a range of samples; a job's time divided by the
    slowness over its own samples is its time at nominal speed.
    ``spent`` is the time the samples took, which job times leave out.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.table = {x * 4099 % 16381: x for x in range(16381)}

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s(self.table))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def take(self, n: int) -> None:
        for _ in range(n):
            self._sample(None, None)

    def slowness(self, first: int = 0) -> float:
        window = self.samples[first:]
        return len(window) / sum(NOMINAL_REFERENCE_S / r for r in window)


def run_pass(jobs, runners, tracer=None, sampler=None):
    """Run every job once; return (per-job records, raw results).

    Each record has the job's ``seconds`` as measured, leaving out the
    sampler's own time, and with a sampler also ``nominal_s``: the same
    at nominal speed, or the job's deadline when it hit it.  Deadlines
    are in nominal seconds.
    """
    records, raws = [], []
    if sampler is not None:
        sampler.take(3)  # so the first job has a sample next to it
        sampler.start()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.id)
        first = len(sampler.samples) - 1 if sampler else 0
        spent = sampler.spent if sampler else 0.0
        deadline = job.deadline_s * (sampler.slowness(max(first - 20, 0)) if sampler else 1.0)
        rec = {"id": job.id, "status": "ok"}
        raw = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            raw = runners[job.kind](job)
        except DeadlineHit:
            rec["status"] = "deadline"
        except Exception as exc:  # a job that raises fails; the pass goes on
            rec["status"] = "raised"
            rec["error"] = repr(exc)[-400:]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["seconds"] = time.perf_counter() - t0 - ((sampler.spent if sampler else 0.0) - spent)
        if sampler is not None:
            rec["nominal_s"] = (job.deadline_s if rec["status"] == "deadline"
                                else rec["seconds"] / sampler.slowness(first))
        if tracer is not None:
            tracer.end_job()
        records.append(rec)
        raws.append(raw)
    if sampler is not None:
        sampler.stop()
    return records, raws


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe", action="store_true", help="run the fixed-input kernel loops")
    p.add_argument("--trace", default=None, help="write spans here; run every workload's jobs")
    args = p.parse_args()

    t_import = time.perf_counter()
    import branchdyn.battery
    import branchdyn.cli
    import_s = time.perf_counter() - t_import
    import branchdyn as bd
    import jobs as jobs_mod

    jobs = jobs_mod.make_jobs(args.workload, args.seed)
    if args.trace:
        jobs = jobs + [job for w in jobs_mod.WORKLOADS if w != args.workload
                       for job in jobs_mod.make_jobs(w, args.seed)]
    setup_s = time.monotonic() - args.spawned
    setup_speed = SpeedSampler()
    setup_speed.take(10)
    out = {"setup_s": setup_s, "setup_slowness": setup_speed.slowness(),
           "import_s": import_s, "src": bd.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if args.probe:
        import trace_layers

        out.update(trace_layers.probe(bd, jobs_mod))
        print(json.dumps(out))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    runners = _runners(bd, jobs_mod)
    tracer = sampler = None
    if args.trace:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install(bd)
    else:
        sampler = SpeedSampler()
    records, raws = run_pass(jobs, runners, tracer, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    else:
        out["slowness"] = sampler.slowness()
        out["nominal_wall_s"] = sum(r["nominal_s"] for r in records)
    add_verdicts(jobs_mod, jobs, records, raws)
    out.update({"wall_s": sum(r["seconds"] for r in records),
                "peak_rss_mb": peak_rss_mb, "jobs": records})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
