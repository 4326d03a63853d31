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
from itertools import islice
from operator import sub

from .errors import InvalidSpec
from .systems import (
    _JUMP_TABLE_SIZE,
    DynamicalSystem,
    _components,
    _need_int,
    as_window,
    window_states,
)

# the held landings at the end of a capped jump walk whose jumps are
# scanned first for its last certified record
_TAIL = 64


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

    The walk finds it with few single steps.  It holds the start and its
    landings, each at its index, and ends at a landing met again, which
    lies on the cycle C; single steps from it give C.  The first held
    state on C is at or after the entry, and every held state after it
    is on C too, so the last held state off C, at index i, is the one
    before it and is before the entry: entry_index is i plus the single
    steps from that state onto C (0 if the start is on C).  The orbit
    entered its cycle iff entry_index + len(C) <= cap, since a walk of
    single steps meets its first repeat at step entry_index + len(C).
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

    The walk goes from landing to landing and holds only the start and
    its landings, each at its index.  With a cap below
    ``_JUMP_TABLE_SIZE``, and on a table, a shift or an affine system
    with k > 16, a landing is where a ``sys._leap`` ends: every state off the division branch
    after the start is one, and every cycle holds one, since divisions
    decrease.  Otherwise the walk jumps by the system's jump table (see
    ``systems._jump_entry``), a residue block of about a dozen steps at
    a time, and its landings are fewer.  A landing met again ends either
    walk (see ``OrbitRecord``).

    A jump walk that meets no repeat by cap may have jumped over one,
    since its landings are sparse, so it hands over to a leap walk.  A
    peak, the state just after a jump's last affine step, is a certified
    record when it exceeds every earlier peak and the bounds of this and
    every earlier jump: no earlier state equals it, so the first repeat
    comes after it.  ``_last_record`` finds the last such record p from
    the tail of the walk: ``cover`` of the largest landing before the
    last ``_TAIL`` bounds every state of the jumps from them, so a peak
    above it and above the tail's earlier peaks and bounds is a record.
    Only if the tail holds none is the whole walk scanned.  The leap
    walk starts at p (the start if there is no record), holding the
    landings before p, and runs to cap plus the longest jump.  It meets
    every state off the division branch from p on, so a first repeat
    within cap shows there as a landing met again, and no repeat means
    none within cap.  Either walk finds the cycle's entry from the end
    of its landings (see ``OrbitRecord``).
    """
    _need_int("cap", cap)
    if cap < 0:
        raise InvalidSpec(f"need cap >= 0, got {cap}")
    sys._require(x)
    seen = {x: 0}  # the start and each landing -> its index
    jumps = sys._jumps() if cap >= _JUMP_TABLE_SIZE else None
    if jumps is None:
        y = _walk(sys._leap, seen, x, 0, cap)
    else:
        jump, rise, cover = jumps
        y = _walk(jump, seen, x, 0, cap)
        if y is None:
            p, at, longest = _last_record(seen, x, rise, cover)
            while seen:  # the landings from p on are met again by the leaps
                z, i = seen.popitem()
                if i < at:
                    seen[z] = i
                    break
            seen[p] = at
            y = _walk(sys._leap, seen, p, at, cap + longest)
    if y is not None:
        cycle, entry = _cycle_and_entry(sys._step, seen, y)
        if entry + len(cycle) <= cap:
            return OrbitRecord(
                start=x,
                entered_cycle=True,
                cycle=canonical_cycle(cycle),
                entry_index=entry,
                cap=cap,
                system=sys,
            )
    return OrbitRecord(
        start=x, entered_cycle=False, cycle=(), entry_index=-1, cap=cap, system=sys
    )


def _walk(advance, seen: dict, cur, n: int, limit: int):
    """Advance from cur, the state at index n, until a landing repeats or
    n >= limit, holding each new landing in ``seen`` at its index; the
    repeated landing, or None."""
    while n < limit:
        cur, s = advance(cur)
        n += s
        if cur in seen:
            return cur
        seen[cur] = n
    return None


def _last_record(seen: dict, x, rise, cover) -> tuple:
    """(p, its index, the longest jump) over the jumps from the states in
    ``seen``: p is the last certified record (see ``orbit_iterate``), or
    x at 0 if there is none.

    The scan reads the jumps from the last ``_TAIL`` landings first, with
    its top starting at cover(z) for the largest earlier landing z, which
    bounds every state of every earlier jump.  That top is at least the
    one a scan of the whole walk holds there, so a record it finds is
    one, and once it finds one both tops are that record, so the last
    record it finds is the last.  If it finds none, the whole walk is
    scanned from a top of 0.
    """
    held = seen.values()
    longest = max(map(sub, islice(held, 1, None), held), default=0)
    n = len(seen) - _TAIL
    found = None
    if n > 0:
        found = _record(islice(seen.items(), n, None), rise, cover(max(islice(seen, n))))
    if found is None:
        found = _record(seen.items(), rise, 0) or (x, 0)
    return found + (longest,)


def _record(landings, rise, top) -> tuple | None:
    """(p, its index) for the last peak, over the jumps from ``landings``,
    above every earlier peak and bound and ``top``; None if there is none."""
    found = None
    for z, i in landings:
        t, peak, bound = rise(z)
        if bound > top:
            top = bound
        if peak > top:
            top, found = peak, (peak, i + t)
    return found


def _cycle_and_entry(step, seen: dict, y) -> tuple:
    """(the cycle through y, the index where the orbit in ``seen`` meets it)."""
    cycle = [y]
    z = step(y)
    while z != y:
        cycle.append(z)
        z = step(z)
    on = set(cycle)
    for z, entry in reversed(seen.items()):  # the last held state off C
        if z not in on:
            break
    else:
        return cycle, 0
    while z not in on:
        z = step(z)
        entry += 1
    return cycle, entry


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
    _need_int("node_budget", node_budget)
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
    _need_int("budget", budget)
    if budget < 0:
        raise InvalidSpec(f"need budget >= 0, got {budget}")
    win, states = window_states(sys, window)
    step = sys._step
    pos = {x: j for j, x in enumerate(states)}
    order = tuple(pos)  # pos's own ints: a range would make each class member anew
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
