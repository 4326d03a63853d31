"""Per-layer tracing of branchdyn, done from outside the package.

The layers are the package modules.  ``Tracer.install`` wraps, at run
time, every public function of every layer and the public methods of
``DynamicalSystem`` and ``Truncation``, and rebinds each wrapped name in
every module that holds it (``coding`` imports ``orbit_iterate`` by name,
``battery`` imports ``make_system``; ``cli`` reaches the layers through
module attributes).  Nothing under ``src/`` changes.

A wrapped call records a span: name, start, end, parent span and job id.
Spans stay in memory and are written out when the pass ends.  Kernels
that a pass calls more than about 10^5 times (``KERNELS``, and every
generator, counted per item) get call counters only.  Their busy time
is computed as calls x the ns-per-call that ``probe`` measures on fixed
inputs, and is reported as computed.  A layer's self time is its span
durations minus child spans minus the computed kernel time inside them,
plus the computed time of its own kernels; run.py adds the module's own
import time (``python -X importtime``), which every workload pays.

``probe`` also runs the fixed-input kernel loops behind the ``*_ns``,
``*_us``, ``*_per_s`` and ``linalg``/``morphisms`` per-layer figures.
This module is imported by the worker (with branchdyn) and by run.py
(without it, for ``layer_figures``).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

LAYERS = ("cli", "battery", "words", "orbits", "coding", "systems",
          "operators", "linalg", "morphisms")

# Called more than ~10^5 times in one pass of some workload (measured at
# the seed commit), so they get counters instead of spans.
KERNELS = frozenset({
    "systems.DynamicalSystem.apply",
    "systems.DynamicalSystem.branch_of",
    "systems.DynamicalSystem.preimages",
    "systems.DynamicalSystem.branch_affine",
    "systems.DynamicalSystem.branch_affine_int",
    "systems.DynamicalSystem.contains",
    "coding.tower_apply",
    "coding.tower_from_state",
})
TRACED_CLASSES = ("DynamicalSystem", "Truncation")
FAMILIES = {"QxPlusD": "qxd", "AlphaBeta": "alphabeta",
            "FiniteTable": "table", "SymbolicShift": "shift"}
BIG = 2**64


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = []  # per span: {kernel key: calls made directly inside it}
        self.stack = []
        self.in_kernel = False
        self.job = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.counts.append({})
        return idx

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self.stack = []
        self._root = self._open("job:" + job_id)
        self.stack = [self._root]

    def end_job(self) -> None:
        end = time.perf_counter()
        for span in self.spans[self._root:]:
            if span[2] == 0.0:  # cut short by a deadline
                span[2] = end
        self.stack = []
        self.in_kernel = False

    def _span(self, fn, name):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.in_kernel:
                return fn(*args, **kwargs)
            idx = tr._open(name)
            tr.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.spans[idx][2] = time.perf_counter()
                tr.stack.pop()

        return wrapper

    def _counter(self, fn, name, method: bool):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.in_kernel:
                return fn(*args, **kwargs)
            if method:
                x = args[1] if len(args) > 1 else None
                key = (f"{name}|{FAMILIES.get(type(args[0].spec).__name__, 'other')}"
                       f"|{int(type(x) is int and x >= BIG)}")
            else:
                key = name
            counts = tr.counts[tr.stack[-1]]
            counts[key] = counts.get(key, 0) + 1
            tr.in_kernel = True
            try:
                return fn(*args, **kwargs)
            finally:
                tr.in_kernel = False

        return wrapper

    def _items(self, fn, name):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tr.counts[tr.stack[-1]]
            for item in fn(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                yield item

        return wrapper

    def _wrap(self, fn, name, method=False):
        if inspect.isgeneratorfunction(fn):
            return self._items(fn, name)
        if name in KERNELS:
            return self._counter(fn, name, method)
        return self._span(fn, name)

    # -- patching ----------------------------------------------------------

    def install(self, bd) -> None:
        modules = {layer: getattr(bd, layer) for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
            for cls_name in TRACED_CLASSES:
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod.__name__:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._undo.append((cls, attr, obj))
                        setattr(cls, attr, self._wrap(obj, f"{layer}.{cls_name}.{attr}", True))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# aggregation (runs in the parent, without branchdyn)


def unit_ns(units: dict, key: str) -> float:
    """ns per call of a kernel key, falling back to the nearest probe."""
    if key in units:
        return units[key]
    name, _, rest = key.partition("|")
    family = rest.split("|")[0] if rest else ""
    for fallback in (f"{name}|{family}|0", f"{name}|qxd|0", name):
        if fallback in units:
            return units[fallback]
    raise KeyError(f"no probe measures kernel {key!r}")


def layer_figures(dump: dict, job_ids: set, units: dict) -> dict:
    """Self time, computed kernel time and calls per layer, over job_ids."""
    spans, counts = dump["spans"], dump["counts"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {layer: {"self_s": 0.0, "computed_s": 0.0, "calls": 0} for layer in LAYERS}
    for i, (name, start, end, parent, job) in enumerate(spans):
        if job not in job_ids:
            continue
        kernel_s = 0.0
        for key, n in counts[i].items():
            busy = n * unit_ns(units, key) * 1e-9
            kernel_s += busy
            fig = out[key.split(".")[0]]
            fig["self_s"] += busy
            fig["computed_s"] += busy
            fig["calls"] += n
        if name.startswith("job:"):
            continue  # the benchmark's own code between calls
        fig = out[name.split(".")[0]]
        fig["self_s"] += (end - start) - child_s[i] - kernel_s
        fig["calls"] += 1
    return out


def span_seconds(dump: dict, job_id: str, name: str) -> float:
    """Total duration of the outermost spans called ``name`` in one job."""
    spans = dump["spans"]
    total = 0.0
    for s_name, start, end, parent, job in spans:
        if job == job_id and s_name == name and (parent < 0 or spans[parent][0] != name):
            total += end - start
    return total


# ---------------------------------------------------------------------------
# fixed-input kernel loops (runs in a fresh worker with branchdyn)


def _median_time(fn, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_ns(fn, inputs, repeat: int = 5) -> float:
    def loop():
        for x in inputs:
            fn(x)
    return _median_time(loop, repeat) / len(inputs) * 1e9


def probe_unit(name: str) -> str:
    """The unit of a probe metric, read off its name."""
    stem = name.split(".")[1]
    for suffix, unit in (("_per_s", "1/s"), ("_ns", "ns"), ("_us", "us"), ("_s", "s")):
        if stem.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name!r}")


def circulant(n: int, step: int, seed: int = 1) -> list:
    """sum_t c_t P^(step*t) for the n-cycle shift P, c_t in 1..11.

    The shape and the coefficients of the sampled combinations that the
    commutant computation builds for a cycle whose coding repeats with
    period ``step``.
    """
    coeffs = [((seed * 7 + 3 * t) % 11) + 1 for t in range(n // step)]
    return [[coeffs[((c - r) % n) // step] if (c - r) % step == 0 else 0
             for c in range(n)] for r in range(n)]


def probe(bd, jobs_mod) -> dict:
    """Kernel ns-per-call (``units``) and the fixed-input layer metrics."""
    systems, words, orbits, coding = bd.systems, bd.words, bd.orbits, bd.coding
    linalg, operators, morphisms = bd.linalg, bd.operators, bd.morphisms
    table_of = lambda spec: systems.make_system(
        systems.FiniteTable.make(spec["branch"], spec["image"], k=spec["k"]))
    collatz = systems.make_system(systems.collatz())
    ab = systems.make_system(systems.AlphaBeta(3, (4, 4), (2, 1)))
    five = systems.make_system(systems.QxPlusD(5, 1))
    table = table_of(jobs_mod.period3_cycle(999))
    small = list(range(1, 20001))
    big = [2**1000 + x for x in range(2000)]
    cells = list(range(1, 1000))

    units, m = {}, {}
    for label, sys_, xs in (("qxd", collatz, small), ("alphabeta", ab, small),
                            ("table", table, cells)):
        for method in ("apply", "branch_of", "preimages", "contains"):
            units[f"systems.DynamicalSystem.{method}|{label}|0"] = _per_call_ns(
                getattr(sys_, method), xs)
    units["systems.DynamicalSystem.apply|qxd|1"] = _per_call_ns(five.apply, big)
    units["systems.DynamicalSystem.branch_of|qxd|1"] = _per_call_ns(five.branch_of, big)
    for label, sys_ in (("qxd", collatz), ("alphabeta", ab)):
        branches = [1 + x % sys_.k for x in range(10000)]
        units[f"systems.DynamicalSystem.branch_affine|{label}|0"] = _per_call_ns(
            sys_.branch_affine, branches)
        expanding = [1 + x % (sys_.k - 1) for x in range(10000)]
        units[f"systems.DynamicalSystem.branch_affine_int|{label}|0"] = _per_call_ns(
            sys_.branch_affine_int, expanding)
    depths = [(x, 1 + x % 8) for x in range(1, 5001)]
    units["coding.tower_from_state"] = _per_call_ns(
        lambda a: coding.tower_from_state(a[0], 2, a[1]), depths)
    towers = [coding.tower_from_state(x, 2, 8) for x in range(1, 5001)]
    units["coding.tower_apply"] = _per_call_ns(lambda t: coding.tower_apply(collatz, t), towers)
    lyndon_s = _median_time(lambda: sum(1 for _ in words.lyndon_words(2, 16)))
    lyndon_n = sum(1 for _ in words.lyndon_words(2, 16))
    units["words.lyndon_words"] = lyndon_s / lyndon_n * 1e9

    m["systems.apply_ns.collatz"] = units["systems.DynamicalSystem.apply|qxd|0"]
    m["systems.apply_ns.alphabeta"] = units["systems.DynamicalSystem.apply|alphabeta|0"]
    m["systems.apply_ns.table"] = units["systems.DynamicalSystem.apply|table|0"]
    m["systems.apply_ns.bigint"] = units["systems.DynamicalSystem.apply|qxd|1"]
    m["systems.branch_of_ns.collatz"] = units["systems.DynamicalSystem.branch_of|qxd|0"]
    m["systems.branch_of_ns.alphabeta"] = units["systems.DynamicalSystem.branch_of|alphabeta|0"]
    m["systems.preimages_ns.collatz"] = units["systems.DynamicalSystem.preimages|qxd|0"]
    m["systems.preimages_ns.alphabeta"] = units["systems.DynamicalSystem.preimages|alphabeta|0"]
    m["systems.branch_affine_ns"] = units["systems.DynamicalSystem.branch_affine|qxd|0"]
    m["words.lyndon_per_s"] = lyndon_n / lyndon_s
    probe_words = [w for w in words.lyndon_words(2, 12)][:2000]
    m["words.fixed_point_us"] = _per_call_ns(
        lambda w: words.fixed_point_of_word(collatz, w), probe_words) / 1e3

    starts = list(range(1, 2001))
    steps = sum(len(orbits.orbit_iterate(collatz, x, 10**4).trajectory) for x in starts)
    m["orbits.steps_per_s.small"] = steps / _median_time(
        lambda: [orbits.orbit_iterate(collatz, x, 10**4) for x in starts])
    divergent = (7, 9, 11)  # 5x+1 orbits that grow to ~1000-bit states
    steps = sum(len(orbits.orbit_iterate(five, x, 10**4).trajectory) for x in divergent)
    m["orbits.steps_per_s.bigint"] = steps / _median_time(
        lambda: [orbits.orbit_iterate(five, x, 10**4) for x in divergent])
    closure = orbits.invariant_closure(collatz, [1], (1, 20000))
    m["orbits.closure_nodes_per_s"] = len(closure.members) / _median_time(
        lambda: orbits.invariant_closure(collatz, [1], (1, 20000)))
    tuc = coding.verify_tuc_window(collatz, (1, 2000), 1024)
    m["coding.tuc_state_rounds_per_s"] = tuc.states * tuc.max_prefix_length / _median_time(
        lambda: coding.verify_tuc_window(collatz, (1, 2000), 1024))
    m["coding.tower_apply_us"] = units["coding.tower_apply"] / 1e3

    for n in (20, 40):
        mat = circulant(n, 4)
        m[f"linalg.rref_s.n{n}"] = _median_time(lambda: linalg.rref(mat), 3)
        m[f"linalg.char_poly_s.n{n}"] = _median_time(lambda: linalg.char_poly(mat), 1 if n == 40 else 3)
    m["linalg.rational_eigenvalues_s"] = _median_time(
        lambda: linalg.rational_eigenvalues(circulant(12, 3)), 3)

    window = list(range(1, 1001))
    shuffled = window[::-1][::2] + window[::-1][1::2]
    ta = operators.build_truncation(collatz, (1, 1000))
    tb = operators.build_truncation(collatz, (1, 1000), order=shuffled)
    m["morphisms.conjugate_unitary_s"] = _median_time(
        lambda: morphisms.conjugate_unitary(morphisms.identity(collatz), ta, tb))
    cyc = table_of(jobs_mod.injective_cycle(3000))
    relabel = {x: (x * 7) % 3001 for x in range(1, 3001)}  # 7 is a unit mod 3001
    cyc2 = table_of({
        "branch": {relabel[x]: cyc.branch_of(x) for x in range(1, 3001)},
        "image": {relabel[x]: relabel[cyc.apply(x)] for x in range(1, 3001)},
        "k": 2,
    })
    iso = morphisms.Morphism(cyc, cyc2, morphisms.TableRule(relabel))
    m["morphisms.is_isomorphism_s"] = _median_time(lambda: morphisms.is_isomorphism(iso))
    return {"units": units, "metrics": m}
