"""Forward orbits, windowed total orbits, and minimal-set probing.

The total orbit of x is the smallest set containing x that is closed
under f and under taking preimages.  On an infinite state space it can
only be approximated inside a finite window; the approximation below is
exact relative to the window in the following sense: the true total
orbit intersected with the window always contains ``members``, and
equals it whenever ``frontier`` is empty (no member's image or preimage
leaves the window) and the node budget was not exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque

from .errors import InvalidSpec
from .systems import DynamicalSystem, _components, as_window, window_states


def canonical_cycle(cycle) -> tuple:
    """Rotate a cycle so its minimal state comes first."""
    cycle = tuple(cycle)
    j = cycle.index(min(cycle))
    return cycle[j:] + cycle[:j]


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    """The walk x, f(x), f(f(x)), ... of ``orbit_iterate``, without its states.

    The trajectory is replayed on demand from ``start`` one step at a
    time, so a census of many orbits holds no states beyond each
    record's cycle.  It has ``entry_index + len(cycle)`` states when the
    orbit entered a cycle (the first repeat ends it) and ``cap + 1``
    otherwise.  ``entry_index`` counts the steps from ``start`` to the
    first state of the cycle, f^entry_index(start), which is that
    state's index in the trajectory.

    The walk finds it without single steps.  It meets its cycle as a
    landing y met again at index m by a leap of s steps; y was first met
    at i = m - P, P the period, at the end of a run of divisions that
    began at index r (r = i when the run is empty).  The leap began on
    the cycle, so the cycle's s - 1 states before y are division states,
    and entry_index = max(i - (s - 1), r).  The orbit entered its cycle
    iff entry_index + P <= cap, since a walk of single steps meets its
    first repeat at step entry_index + P.
    """

    start: object
    entered_cycle: bool
    cycle: tuple  # canonical rotation; () if cap was hit first
    entry_index: int  # steps from start to the cycle; -1 if none
    cap: int
    system: DynamicalSystem = field(repr=False)

    def replay(self):
        """Yield the trajectory's states, one step at a time."""
        n = self.entry_index + len(self.cycle) if self.entered_cycle else self.cap + 1
        step = self.system._step
        cur = self.start
        yield cur
        for _ in range(n - 1):
            cur = step(cur)
            yield cur

    @property
    def trajectory(self) -> tuple:
        return tuple(self.replay())


def orbit_iterate(sys: DynamicalSystem, x, cap: int) -> OrbitRecord:
    """Follow x, f(x), f(f(x)), ... until a repeat or ``cap`` steps.

    The walk goes by ``sys._leap``, one run of divisions at a time, and
    holds only the start and the landings, the states its leaps end on.
    Every state off the division branch after the start is a landing,
    and every cycle holds one, since divisions decrease.
    """
    if cap < 0:
        raise InvalidSpec(f"need cap >= 0, got {cap}")
    sys._require(x)
    leap = sys._leap
    # the start and each landing -> the index where the run of divisions
    # ending at it began; the first run begins at the start if it divides
    seen = {x: 0}
    begin = 0 if sys.is_affine and x % sys.k == 0 else 1
    cur, n = x, 0
    while n < cap:
        cur, s = leap(cur)
        n += s
        if cur in seen:
            first_run = seen[cur]
            seen.clear()  # the walk around the cycle needs none of it
            step = sys._step
            cycle = [cur]
            y = step(cur)
            while y != cur:
                cycle.append(y)
                y = step(y)
            period = len(cycle)
            # the leap began on the cycle (see OrbitRecord)
            entry = max(n - period - (s - 1), first_run)
            if entry + period > cap:
                break
            return OrbitRecord(
                start=x,
                entered_cycle=True,
                cycle=canonical_cycle(cycle),
                entry_index=entry,
                cap=cap,
                system=sys,
            )
        seen[cur] = begin
        begin = n + 1
    return OrbitRecord(
        start=x, entered_cycle=False, cycle=(), entry_index=-1, cap=cap, system=sys
    )


@dataclass(frozen=True)
class TotalOrbitApprox:
    seeds: tuple
    window: str
    members: frozenset
    frontier: frozenset  # members whose image or some preimage exits the window
    exhausted: bool  # node budget ran out with work left

    @property
    def exact(self) -> bool:
        return not self.frontier and not self.exhausted


def invariant_closure(sys, seeds, window, node_budget: int = 10**6) -> TotalOrbitApprox:
    """Close ``seeds`` under f and preimages inside ``window`` by BFS."""
    if node_budget < 0:
        raise InvalidSpec(f"need node_budget >= 0, got {node_budget}")
    win = as_window(sys, window)
    seeds = tuple(s for s in seeds)
    for s in seeds:
        if not win.contains(s):
            raise InvalidSpec(f"seed {s!r} is outside the window")
    members = set(seeds)
    queue = deque(dict.fromkeys(seeds))
    for s in queue:
        sys._require(s)
    step, preimages = sys._step, sys._preimages
    frontier = set()
    expanded = 0
    exhausted = False
    while queue:
        if expanded >= node_budget:
            exhausted = True
            break
        x = queue.popleft()
        expanded += 1
        y = step(x)
        if win.contains(y):
            if y not in members:
                members.add(y)
                queue.append(y)
        else:
            frontier.add(x)
        for p, _ in preimages(x):
            if win.contains(p):
                if p not in members:
                    members.add(p)
                    queue.append(p)
            else:
                frontier.add(x)
    return TotalOrbitApprox(
        seeds=seeds,
        window=win.describe(),
        members=frozenset(members),
        frontier=frozenset(frontier),
        exhausted=exhausted,
    )


def total_orbit(sys, x, window, node_budget: int = 10**6) -> TotalOrbitApprox:
    return invariant_closure(sys, [x], window, node_budget)


@dataclass(frozen=True)
class MinimalityReport:
    window: str
    classes: tuple  # tuple of tuples of states, each sorted, sorted by head
    unresolved: tuple  # states whose orbit left the window for > budget steps
    exhausted: bool

    @property
    def class_count(self) -> int:
        return len(self.classes)


def minimality_probe(sys, window, budget: int = 10**4) -> MinimalityReport:
    """Partition a window into classes of the relation x ~ f(x).

    Each window state is mapped to the first point where its forward
    orbit re-enters the window, chasing out-of-window excursions for at
    most ``budget`` steps; the classes are the components of that map
    (``systems._components``), in window order.  Within one class no
    proper nonempty subset is closed under f and preimages relative to
    the window, so the classes are the window's candidates for minimal
    invariant pieces.
    Out-of-window excursions longer than the budget leave their start
    state unresolved (its class may spuriously split).
    """
    if budget < 0:
        raise InvalidSpec(f"need budget >= 0, got {budget}")
    win, order = window_states(sys, window)
    step = sys._step
    pos = {x: j for j, x in enumerate(order)}
    reentry = {}  # window position -> where its orbit re-enters the window
    unresolved = []
    for j, x in enumerate(order):
        cur = step(x)
        steps = 0
        while not win.contains(cur):
            if steps >= budget:
                unresolved.append(x)
                cur = None
                break
            cur = step(cur)
            steps += 1
        if cur is not None:
            reentry[j] = pos[cur]
    classes = tuple(tuple(order[j] for j in m) for m, _ in _components(len(order), reentry))
    return MinimalityReport(
        window=win.describe(),
        classes=classes,
        unresolved=tuple(unresolved),
        exhausted=bool(unresolved),
    )
