"""Forward orbits, windowed total orbits, and minimal-set probing.

The total orbit of x is the smallest set containing x that is closed
under f and under taking preimages.  On an infinite state space it can
only be approximated inside a finite window; the approximation below is
exact relative to the window in the following sense: the true total
orbit intersected with the window always contains ``members``, and
equals it whenever ``frontier`` is empty (no member's image or preimage
leaves the window) and the node budget was not exhausted.

Orbit walks.  ``orbit_iterate`` follows x, f(x), f(f(x)), ... and holds
only the start and its landings, each at its index in the trajectory.
With a cap below ``_JUMP_TABLE_SIZE``, and on a table, a shift or an
affine system with k > 16, it lands where a ``sys._leap`` ends: every
state off the division branch after the start is a landing, and every
cycle holds one, since divisions decrease.  Otherwise it jumps: x mod
k**j fixes the next branches of x (Terras), so a table over the
residues b < k**j <= ``_JUMP_TABLE_SIZE`` (``_jump_table``) turns a
block of about a dozen steps into one multiply-add, and a jump is that
block and then the whole run of divisions.  ``_jumps`` builds the
table's kernels on the first walk that asks for them and keeps them in
``sys._jump_cache``, never at construction: cycle search and check 4
build dozens of systems that never walk that far.

A walk ends at a landing met again, which lies on the cycle C; single
steps from it give C.  The first held state on C is at or after the
entry, and every held state after it is on C too, so the last held
state off C is before the entry, and the entry index is its index plus
the single steps from it onto C (0 if the start is on C).  The orbit
entered its cycle iff entry index + len(C) <= cap, since a walk of
single steps meets its first repeat at step entry index + len(C).

A jump walk that meets no repeat by cap may have jumped over one, so it
hands over to a leap walk.  A peak, the state just after a jump's last
affine step, is a certified record when it exceeds every earlier peak
and the bounds of this and every earlier jump: no earlier state equals
it, so the first repeat comes after it.  The leap walk starts at the
last record p (``_last_record``; the start if there is none), holding
the landings before p, and runs to cap plus the longest jump.  It meets
every state off the division branch from p on, so a first repeat within
cap shows there as a landing met again, and no repeat means none
within cap.

On an affine system each walk that finds its cycle C and entry index e
enters the states it held before e in the entry table ``sys._entries``
(``_settle``): the one at index i maps to (e - i, C), its steps onto C.
The table holds at most ``_ENTRY_STATES`` states, and
``sys._entry_top`` is its largest key (0 while it is empty).  A start
found there is read without a walk, though a cap of
``_JUMP_TABLE_SIZE`` or more builds the jump kernels first.  The leap
walk and the jump walk from the start end at the first new landing z
found there, at index n: the entry index is n plus z's steps, whatever
the cap.  The hand-over walk does not look.  So a later walk of a
census stops where it meets an earlier walk's orbit and takes no single
step.  A landing is looked up only while it is at most
``sys._entry_top``, so a walk that climbs above every key hashes each
landing once.  A table's or a shift's entry table stays empty: their
states do not compare, so no walk could tell which of them to look up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from functools import partial
from itertools import islice
from operator import sub

from .errors import InvalidSpec
from .systems import (
    DynamicalSystem,
    _class_step,
    _components,
    _need_int,
    as_window,
    window_states,
)

# the most residues a jump table covers: an affine system with k <= 16
# jumps over the residues b < k**j for the largest k**j within this
_JUMP_TABLE_SIZE = 256
# the most steps one jump makes: a residue cycle that avoids 0, or a slope
# that keeps its factor k, fixes every later branch
_JUMP_STEPS = 64
# the held landings at the end of a capped jump walk whose jumps are
# scanned first for its last certified record
_TAIL = 64
# the most states a system's entry table holds
_ENTRY_STATES = 4096


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
    state's index in the trajectory.  ``orbit_iterate`` builds each
    record with ``_new_record``, which sets the slots directly.
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


(_SET_START, _SET_ENTERED, _SET_CYCLE, _SET_ENTRY, _SET_CAP, _SET_SYSTEM) = (
    getattr(OrbitRecord, name).__set__
    for name in ("start", "entered_cycle", "cycle", "entry_index", "cap", "system")
)


def _new_record(start, entered_cycle, cycle, entry_index, cap, system) -> OrbitRecord:
    """``OrbitRecord(...)`` of fields that ``orbit_iterate`` has checked.

    Sets the slots through their descriptors, skipping the frozen
    ``__init__``'s six ``object.__setattr__`` calls; the result is equal,
    with equal hash and repr, to the dataclass constructor's, and refuses
    assignment as it does.
    """
    rec = object.__new__(OrbitRecord)
    _SET_START(rec, start)
    _SET_ENTERED(rec, entered_cycle)
    _SET_CYCLE(rec, cycle)
    _SET_ENTRY(rec, entry_index)
    _SET_CAP(rec, cap)
    _SET_SYSTEM(rec, system)
    return rec


def orbit_iterate(sys: DynamicalSystem, x, cap: int) -> OrbitRecord:
    """Follow x, f(x), f(f(x)), ... until a repeat or ``cap`` steps,
    holding only the start and its landings (see the module docstring)."""
    _need_int("cap", cap, 0)
    sys._require(x)
    seen = {x: 0}  # the start and each landing -> its index
    jumps = _jumps(sys) if cap >= _JUMP_TABLE_SIZE else None
    # only an affine system's states compare, so only its walks read the table
    entries = sys._entries if sys._affine is not None else None
    top = sys._entry_top
    if entries and x <= top and x in entries:
        y = x
    elif jumps is None:
        y = _walk(sys._leap, seen, x, 0, cap, entries, top)
    else:
        rise, cover, walk = jumps
        y = walk(seen, x, 0, cap, entries, top)
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
        settled = entries.get(y) if entries and y <= top else None
        if settled is None:
            cycle, entry = _cycle_and_entry(sys._step, seen, y)
        else:
            d, cycle = settled
            entry = seen[y] + d
        if entries is not None:
            _settle(sys, seen, entry, cycle)
        if entry + len(cycle) <= cap:
            return _new_record(x, True, cycle, entry, cap, sys)
    return _new_record(x, False, (), -1, cap, sys)


def _settle(sys: DynamicalSystem, seen: dict, entry: int, cycle: tuple) -> None:
    """Enter each state held in ``seen`` before ``entry``, the index where
    the orbit enters ``cycle``, in the entry table ``sys._entries`` as
    z -> (entry - i, cycle), nearest the cycle first, until the table
    holds ``_ENTRY_STATES`` states.  Such a state is off the cycle.  A
    state already there is entered again with the same pair."""
    table = sys._entries
    if len(table) >= _ENTRY_STATES:
        return
    top = sys._entry_top
    for z, i in reversed(seen.items()):
        if i < entry:
            table[z] = entry - i, cycle
            if z > top:
                top = z
            if len(table) >= _ENTRY_STATES:
                break
    sys._entry_top = top


def _last_record(seen: dict, x, rise, cover) -> tuple:
    """(p, its index, the longest jump) over the jumps from the states in
    ``seen``: p is the last certified record (see the module docstring), or
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
    """(the canonical cycle through y, the index where the orbit in
    ``seen`` meets it), for y a landing met again.

    The cycle is stepped from y, and the entry from the last held state
    off the cycle.  In a census on an affine system only the walks that
    end on a landing met again come here, not the ones that stop in the
    entry table, so a lone walk still steps its cycle but most walks of
    a census do not.
    """
    cycle = [y]
    z = step(y)
    while z != y:
        cycle.append(z)
        z = step(z)
    on, cycle = set(cycle), canonical_cycle(cycle)
    for z, entry in reversed(seen.items()):  # the last held state off C
        if z not in on:
            break
    else:
        return cycle, 0
    while z not in on:
        z = step(z)
        entry += 1
    return cycle, entry


def _jump_entry(k: int, rows: tuple, size: int, b: int) -> tuple:
    """(t, A, B, UA, UB): for every state x = size*a + b, f^t(x) = A*a + B
    is the state just after the last affine step (within _JUMP_STEPS)
    that b fixes, or after t divisions if b fixes none, and each state
    before it is <= UA*a + UB.

    b fixes the branch of each ``_class_step`` while k divides A.
    """
    A, B, UA, UB = size, b, 0, 0
    t, entry = 0, None
    while t < _JUMP_STEPS and A % k == 0:
        UA, UB = max(UA, A), max(UB, B)
        symbol, A, B = _class_step(k, rows, A, B)
        t += 1
        if symbol != k:
            entry = (t, A, B, UA, UB)
    return entry or (t, A, B, UA, UB)


def _jump_table(k: int, rows: tuple) -> tuple:
    """(size, table): ``table[b]`` is ``_jump_entry`` of each residue
    b < size, for the largest size = k**j <= _JUMP_TABLE_SIZE."""
    size = k
    while size * k <= _JUMP_TABLE_SIZE:
        size *= k
    return size, tuple(_jump_entry(k, rows, size, b) for b in range(size))


def _walk(advance, seen: dict, cur, n: int, limit: int, entries=None, top: int = 0):
    """Advance from cur, the state at index n, until a landing repeats or
    n >= limit, holding each new landing in ``seen`` at its index; the
    repeated landing, or None.

    Given an affine system's entry table ``entries`` and its largest key
    ``top``, the walk also ends at the first new landing <= top that is
    a key of it, held in ``seen`` too, and returns that landing."""
    while n < limit:
        cur, s = advance(cur)
        n += s
        if cur in seen:
            return cur
        seen[cur] = n
        if entries and cur <= top and cur in entries:
            return cur
    return None


def _jump_kernels(k: int, rows: tuple) -> tuple:
    """(rise, cover, walk) over one ``_jump_table``, for k * k <=
    _JUMP_TABLE_SIZE.

    The jump from x makes the table's t steps from x, then the whole run
    of divisions, so it lands off the division branch, as a ``_leap``
    does.  ``rise(x)`` is (t, A*a + B, UA*a + UB) for x = size*a + b:
    the peak of the jump and a bound on the states before it.
    ``cover(x)`` is C*a + E, with C the largest UA or A and E the
    largest UB or B of the table: every state of the jump from x, its
    run of divisions included, is at most cover(x), and cover does not
    decrease with x.

    ``walk(seen, cur, n, limit, entries, top)`` is ``_walk`` over the
    jumps.  For k = 2 it is one loop with the jump written out in it: a
    mask, a multiply-add and a shift by the trailing zeros, with no call
    per jump.
    """
    size, table = _jump_table(k, rows)
    C = max(max(UA, A) for _, A, _, UA, _ in table)
    E = max(max(UB, B) for _, _, B, _, UB in table)
    if k == 2:
        mask, shift = size - 1, size.bit_length() - 1
        steps = tuple(entry[:3] for entry in table)  # (t, A, B) of each residue

        def rise(x):
            t, A, B, UA, UB = table[x & mask]
            a = x >> shift
            return t, A * a + B, UA * a + UB

        def cover(x):
            return C * (x >> shift) + E

        def walk(seen, cur, n, limit, entries=None, top=0):
            # top = 0 without a table: every state is above it
            while n < limit:
                t, A, B = steps[cur & mask]
                cur = A * (cur >> shift) + B
                v = (cur & -cur).bit_length() - 1
                cur >>= v
                n += t + v
                if cur in seen:
                    return cur
                seen[cur] = n
                if cur <= top and cur in entries:
                    return cur
            return None

    else:

        def jump(x):
            a, b = divmod(x, size)
            t, A, B, _, _ = table[b]
            x = A * a + B
            y, r = divmod(x, k)
            while r == 0:
                x, t = y, t + 1
                y, r = divmod(x, k)
            return x, t

        def rise(x):
            a, b = divmod(x, size)
            t, A, B, UA, UB = table[b]
            return t, A * a + B, UA * a + UB

        def cover(x):
            return C * (x // size) + E

        walk = partial(_walk, jump)

    return rise, cover, walk


def _jumps(sys: DynamicalSystem) -> tuple | None:
    """(rise, cover, walk) of ``_jump_kernels`` of the system's affine
    table, built on the first call and kept in ``sys._jump_cache``; None
    on a table, a shift, or an affine system with k > 16, where j = 1
    and a jump would be a leap."""
    if sys._jump_cache is None and sys._affine is not None and sys.k**2 <= _JUMP_TABLE_SIZE:
        sys._jump_cache = _jump_kernels(sys.k, sys._affine)
    return sys._jump_cache


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
    _need_int("node_budget", node_budget, 0)
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
    _need_int("budget", budget, 0)
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
