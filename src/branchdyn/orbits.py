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
from .systems import DynamicalSystem, as_window, window_states


def canonical_cycle(cycle) -> tuple:
    """Rotate a cycle so its minimal state comes first."""
    cycle = tuple(cycle)
    j = cycle.index(min(cycle))
    return cycle[j:] + cycle[:j]


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    """The walk x, f(x), f(f(x)), ... of ``orbit_iterate``, without its states.

    The trajectory is replayed on demand from ``start`` with the same
    step kernel the walk used, so a census of many orbits holds no
    states beyond each record's cycle.  It has ``entry_index +
    len(cycle)`` states when the orbit entered a cycle (the first repeat
    ends it) and ``cap + 1`` otherwise.  ``entry_index`` counts the steps
    from ``start`` to the first state of the cycle, f^entry_index(start),
    which is that state's index in the trajectory.
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
    """Follow x, f(x), f(f(x)), ... until a repeat or ``cap`` steps."""
    if cap < 0:
        raise InvalidSpec(f"need cap >= 0, got {cap}")
    sys._require(x)
    step = sys._step
    seen = {x: 0}  # state -> index in the trajectory
    cur = x
    for n in range(1, cap + 1):
        cur = step(cur)
        if cur in seen:
            i = seen[cur]
            seen.clear()  # the walk around the cycle needs none of it
            cycle = [cur]
            for _ in range(n - i - 1):
                cur = step(cur)
                cycle.append(cur)
            return OrbitRecord(
                start=x,
                entered_cycle=True,
                cycle=canonical_cycle(cycle),
                entry_index=i,
                cap=cap,
                system=sys,
            )
        seen[cur] = n
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


class _UnionFind:
    """Union-find over the indices 0..size-1, with path compression."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(b)] = self.find(a)

    def groups(self) -> list:
        """The classes as ascending index lists, ordered by least index."""
        out: dict = {}
        for a in range(len(self.parent)):
            out.setdefault(self.find(a), []).append(a)
        return list(out.values())


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

    Each window state is merged with the first point where its forward
    orbit re-enters the window, chasing out-of-window excursions for at
    most ``budget`` steps.  Within one class no proper nonempty subset
    is closed under f and preimages relative to the window, so the
    classes are the window's candidates for minimal invariant pieces.
    Out-of-window excursions longer than the budget leave their start
    state unresolved (its class may spuriously split).
    """
    if budget < 0:
        raise InvalidSpec(f"need budget >= 0, got {budget}")
    win, order = window_states(sys, window)
    step = sys._step
    pos = {x: j for j, x in enumerate(order)}
    uf = _UnionFind(len(order))
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
            uf.union(j, pos[cur])
    classes = tuple(tuple(order[j] for j in g) for g in uf.groups())
    return MinimalityReport(
        window=win.describe(),
        classes=classes,
        unresolved=tuple(unresolved),
        exhausted=bool(unresolved),
    )
