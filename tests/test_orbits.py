"""Orbit iteration, total-orbit closure, minimality probing."""

import dataclasses
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from branchdyn import battery, orbits, systems, words
from branchdyn.errors import InvalidSpec, OutOfDomain

from conftest import JUMP_SPECS, closed_tables, jump_oracle, orbit_oracle


def _table(branch, image, k=None):
    return systems.make_system(systems.FiniteTable.make(branch, image, k=k))


def two_cycles():
    # disjoint 2-cycles {1<->2}, {3<->4}, one branch each direction
    return _table({1: 1, 2: 2, 3: 1, 4: 2}, {1: 2, 2: 1, 3: 4, 4: 3}, k=2)


# -- orbit_iterate -------------------------------------------------------------


def test_collatz_orbit_of_one(collatz):
    rec = orbits.orbit_iterate(collatz, 1, cap=10)
    assert rec.trajectory == (1, 4, 2)
    assert rec.entered_cycle
    assert rec.cycle == (1, 4, 2)
    assert rec.entry_index == 0
    # the walk sees 1 again at step 3; at cap 2 it stops one step short
    entered = orbits.orbit_iterate(collatz, 1, cap=3)
    capped = orbits.orbit_iterate(collatz, 1, cap=2)
    assert entered.entered_cycle and not capped.entered_cycle
    assert entered.trajectory == capped.trajectory == (1, 4, 2)


def test_five_x_one_orbit_of_13(five_x_one):
    rec = orbits.orbit_iterate(five_x_one, 13, cap=10)
    assert rec.trajectory == (13, 66, 33, 166, 83, 416, 208, 104, 52, 26)
    assert rec.entered_cycle
    assert rec.cycle[0] == 13 and len(rec.cycle) == 10


def test_3x_plus_3_orbit(collatz):
    sys = systems.make_system(systems.QxPlusD(3, 3))
    rec = orbits.orbit_iterate(sys, 3, cap=10)
    assert rec.entered_cycle
    assert rec.cycle == (3, 12, 6)


def test_orbit_recurrence_pointwise(collatz):
    rec = orbits.orbit_iterate(collatz, 27, cap=200)
    for a, b in zip(rec.trajectory, rec.trajectory[1:]):
        assert collatz.apply(a) == b


def test_orbit_cap_hit(collatz):
    rec = orbits.orbit_iterate(collatz, 27, cap=5)
    assert not rec.entered_cycle
    assert rec.cycle == ()
    assert len(rec.trajectory) == 6  # start plus cap steps


def test_negative_cap_is_rejected(collatz):
    with pytest.raises(InvalidSpec):
        orbits.orbit_iterate(collatz, 7, cap=-1)


@given(st.integers(min_value=1, max_value=5000))
def test_orbit_trajectory_satisfies_recurrence(x):
    sys = systems.make_system(systems.collatz())
    rec = orbits.orbit_iterate(sys, x, cap=50)
    assert rec.trajectory[0] == x
    for a, b in zip(rec.trajectory, rec.trajectory[1:]):
        assert sys.apply(a) == b


def assert_matches_oracle(sys, x, cap):
    want = orbit_oracle(sys, x, cap)
    rec = orbits.orbit_iterate(sys, x, cap)
    assert {name: getattr(rec, name) for name in want} == want
    assert rec.system == sys


def check_caps(sys, x, cap, reach=1000):
    """The drawn cap, cap 0, and every cap within 4 of the first repeat at
    mu + lam (if it is within ``reach``), where a walk of single steps
    sees it: a leap over a run of divisions, or a jump over a residue
    block, can pass mu + lam."""
    caps = {0, cap}
    full = orbit_oracle(sys, x, reach)
    if full["entered_cycle"]:
        mu_lam = full["entry_index"] + len(full["cycle"])
        caps |= set(range(max(mu_lam - 4, 0), mu_lam + 5))
    for c in sorted(caps):
        assert_matches_oracle(sys, x, c)


AFFINE = {
    "collatz": systems.make_system(systems.collatz()),
    "qxd:5,1": systems.make_system(systems.QxPlusD(5, 1)),
    "qxd:7,3": systems.make_system(systems.QxPlusD(7, 3)),
    "alphabeta3": systems.make_system(systems.AlphaBeta(3, (2, 4), (1, 5))),
    "alphabeta5": systems.make_system(systems.AlphaBeta(5, (2, 3, 7, 9), (3, 1, 2, 1))),
}


@given(
    st.sampled_from(sorted(AFFINE)),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=300),
)
# starts on the division branch and on their cycle: the cycle is entered
# at 0, inside the first run of divisions
@example("collatz", 4, 300)
@example("qxd:7,3", 24, 300)
@example("alphabeta5", 5, 300)
# affine starts off their cycle whose image is a division state on it:
# the cycle is entered at 1, inside the first run
@example("qxd:5,1", 5, 300)
@example("alphabeta3", 16, 300)
def test_orbit_matches_eager_oracle_on_affine_systems(name, x, cap):
    check_caps(AFFINE[name], x, cap)


@given(closed_tables(), st.data())
def test_orbit_matches_eager_oracle_on_tables(table, data):
    branch, image, k = table
    sys = systems.make_system(systems.FiniteTable.make(branch, image, k=k))
    x = data.draw(st.sampled_from(sorted(branch)))
    check_caps(sys, x, data.draw(st.integers(min_value=0, max_value=2 * len(branch))))


@given(
    st.lists(st.integers(min_value=1, max_value=2), max_size=5),
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=12),
)
def test_orbit_matches_eager_oracle_on_shift(pre, per, cap):
    sys = systems.make_system(systems.SymbolicShift(2))
    check_caps(sys, systems.EventuallyPeriodic.make(pre, per), cap)


# -- jump tables and walks ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(JUMP_SPECS))
def test_jump_table_entries_follow_single_steps(name):
    # entry b: t single steps from size*a + b end at A*a + B, pass no
    # state above UA*a + UB, and take the same branches for every a; the
    # last of them is affine unless all are divisions
    sys = systems.make_system(JUMP_SPECS[name])
    size, table = orbits._jump_table(sys.k, sys._affine)
    assert size <= orbits._JUMP_TABLE_SIZE < size * sys.k
    assert len(table) == size
    for b, (t, A, B, UA, UB) in enumerate(table):
        assert 1 <= t <= orbits._JUMP_STEPS
        paths = set()
        for a in (0, 1, 2, 5, 2**70 + 3) if b else (1, 2, 5, 2**70 + 3):
            walk = [size * a + b]
            for _ in range(t):
                walk.append(sys.apply(walk[-1]))
            assert walk[-1] == A * a + B
            assert max(walk[:-1]) <= UA * a + UB
            paths.add(tuple(map(sys.branch_of, walk[:-1])))
        (path,) = paths
        assert path[-1] != sys.k or set(path) == {sys.k}
    if name == "alphabeta3_gcd":
        assert table[1][0] == orbits._JUMP_STEPS


@pytest.mark.parametrize("name", sorted(JUMP_SPECS))
@given(x=st.integers(min_value=1, max_value=2**70))
def test_jump_and_rise_follow_single_steps(name, x):
    # the jump from x lands off the division branch after s steps; rise(x)
    # is the peak at step t <= s and a bound on the states before it
    sys = systems.make_system(JUMP_SPECS[name])
    rise, cover, _ = orbits._jumps(sys)
    y, s = jump_oracle(sys, x)
    t, peak, bound = rise(x)
    walk = [x]
    for _ in range(s):
        walk.append(sys.apply(walk[-1]))
    assert walk[-1] == y
    assert sys.branch_of(y) != sys.k
    assert walk[t] == peak
    assert max(walk[:t]) <= bound
    # cover(x) bounds every state from x to y, the run of divisions too
    assert max(walk) <= cover(x)


def test_jump_tables_are_built_by_the_first_long_walk():
    sys = systems.make_system(systems.collatz())
    assert sys._jump_cache is None
    orbits.orbit_iterate(sys, 27, orbits._JUMP_TABLE_SIZE - 1)
    assert sys._jump_cache is None
    orbits.orbit_iterate(sys, 27, orbits._JUMP_TABLE_SIZE)
    assert sys._jump_cache is not None
    # j = 1 above k = 16, where a jump would be a leap
    assert orbits._jumps(systems.make_system(systems.AlphaBeta(17, (1,) * 16, (1,) * 16))) is None
    assert orbits._jumps(systems.make_system(systems.SymbolicShift(2))) is None


# sha256 of repr(_jump_table(k, rows)), pinned before _jump_entry read
# its steps off _class_step
JUMP_TABLE_DIGESTS = {
    "alphabeta3": "eb0949230c3c45aa997dd1a4cc29839180e7444fd07e601b19c6ac44794567fb",
    "alphabeta3_gcd": "d16caf715bc61b4d65525d4fa191abc5c35d35bccbaac1016ff636e4f791babd",
    "alphabeta4_slope1": "1d485d50e886849b4eadf320abc6017f3efb5f4e1ffd54fc52543ad1559bfab4",
    "alphabeta5": "ccf67b82f9b9306043af00720d451d2782febeee737392520c9c1859ab70c764",
    "alphabeta7": "87f4e2638cf790080a585f664823cc5a5c76aa6f102a32b472e838a635aff185",
    "collatz": "db599e93917fd57b93f2f1d0fdbb0a78d0d0322ac875227460a8c38f73a09a95",
    "mersenne3": "4ffc158c946122eca521c3919c68f4d718adac16cc78a7cc972b6627bba26661",
    "qxd1_1": "869138c609ed084d31af851ea01e09a195ddaf8755345404abd238149115067a",
    "qxd5_1": "6099065cc54cdf9e62e068d44bfcc338207045f7cce16a99995dcfc768198829",
}


@pytest.mark.parametrize("name", sorted(JUMP_SPECS))
def test_jump_table_entries_are_unchanged(name):
    sys = systems.make_system(JUMP_SPECS[name])
    table = orbits._jump_table(sys.k, sys._affine)[1]
    assert hashlib.sha256(repr(table).encode()).hexdigest() == JUMP_TABLE_DIGESTS[name]


JUMP_AFFINE = {
    **AFFINE,
    "qxd:1,1": systems.make_system(systems.QxPlusD(1, 1)),
    "alphabeta4_slope1": systems.make_system(systems.AlphaBeta(4, (1, 3, 1), (3, 2, 1))),
    # gcd(3, k) = 3: the residues 1 and 2 never divide, so a table entry
    # ends only at its step bound
    "alphabeta3_gcd": systems.make_system(systems.AlphaBeta(3, (3, 3), (1, 1))),
}


@given(
    st.sampled_from(sorted(JUMP_AFFINE)),
    st.integers(min_value=1, max_value=2**64),
    st.integers(min_value=orbits._JUMP_TABLE_SIZE, max_value=3000),
)
# collatz enters its cycle at 109 + 3; 5x+1 from 7 is capped
@example("collatz", 27, 1000)
@example("qxd:5,1", 7, 3000)
# a start divisible by the table size: its entry makes divisions only
@example("collatz", 256 * 27, 500)
@example("alphabeta3_gcd", 243 * 5, 1000)
# capped walks whose last _TAIL landings jump to no certified record, so
# the record scan reads the whole walk
@example("collatz", 2**75 - 1, 1000)
@example("alphabeta3", 15921918775679954892, 773)
def test_jump_walk_matches_eager_oracle(name, x, cap):
    check_caps(JUMP_AFFINE[name], x, cap, reach=3000)


@pytest.mark.parametrize("name, x, cap, whole", [
    ("collatz", 2**75 - 1, 1000, True),
    ("alphabeta3", 15921918775679954892, 773, True),
    ("qxd:5,1", 7, 10**4, False),
])
def test_record_scan_reads_the_tail_first(name, x, cap, whole):
    # rise runs on the jumps from the last _TAIL landings, and only when
    # they hold no certified record on the jumps from every landing
    sys = systems.make_system(JUMP_AFFINE[name].spec)
    rise, cover, walk = orbits._jumps(sys)
    risen = []
    sys._jump_cache = lambda z: risen.append(z) or rise(z), cover, walk
    assert not orbits.orbit_iterate(sys, x, cap).entered_cycle
    assert x not in risen[:orbits._TAIL]
    if whole:
        # from the start through the tail again
        assert risen[orbits._TAIL] == x
        assert risen[-orbits._TAIL:] == risen[:orbits._TAIL]
    else:
        assert len(risen) == orbits._TAIL
    assert_matches_oracle(sys, x, cap)


@pytest.mark.parametrize("name", sorted(JUMP_AFFINE))
def test_fused_jump_walk_matches_the_walk_over_jump(name):
    # the cached walk against the walk over the jumps made by single steps:
    # the same landings at the same indices, in the same order, and the
    # same repeated landing or None
    sys = systems.make_system(JUMP_AFFINE[name].spec)
    _, _, walk = orbits._jumps(sys)
    rng = random.Random(name)
    starts = [rng.randint(1, 10**4) for _ in range(20)]
    starts += [rng.getrandbits(1500) | 1 << 1499 for _ in range(3)]
    for x in starts:
        for cap in (256, 773, 10**4):
            fused, stepped = {x: 0}, {x: 0}
            got = walk(fused, x, 0, cap)
            assert got == orbits._walk(lambda z: jump_oracle(sys, z), stepped, x, 0, cap)
            assert list(fused.items()) == list(stepped.items())


# spec -> the cycles its starts 1..300 enter
CENSUS_SYSTEMS = {
    # through 1, 13 and 17; most starts pass the cap
    "qxd:5,1": (systems.QxPlusD(5, 1), 3),
    "collatz": (systems.collatz(), 1),
    # through 1 and 7
    "alphabeta3_44_21": (systems.AlphaBeta(3, (4, 4), (2, 1)), 2),
}


@pytest.mark.parametrize("cap", [100, 300])  # leap walks, then jump walks
@pytest.mark.parametrize("name", sorted(CENSUS_SYSTEMS))
def test_census_on_one_system_reads_each_cycle_from_its_table(name, cap):
    spec, n_cycles = CENSUS_SYSTEMS[name]
    starts = list(range(1, 301))
    random.Random(cap).shuffle(starts)
    warm = systems.make_system(spec)
    census = [orbits.orbit_iterate(warm, x, cap) for x in starts]
    for x, rec in zip(starts, census):
        assert rec == orbits.orbit_iterate(systems.make_system(spec), x, cap)
        assert_matches_oracle(warm, x, cap)
    assert len({r.cycle for r in census if r.entered_cycle}) == n_cycles


def test_cycle_table_stops_at_its_cap():
    # the shift's 630 cycles of length 13 hold 8190 states; a shift fills
    # no table, so each walk steps its cycle, on either pass
    shift = systems.make_system(systems.SymbolicShift(2))
    points = [systems.EventuallyPeriodic.make((), w)
              for w in words.lyndon_words(2, 13) if len(w) == 13]
    assert len(points) == 630
    for _ in range(2):
        for x in points:
            rec = orbits.orbit_iterate(shift, x, 20)
            assert rec == orbits.orbit_iterate(systems.make_system(shift.spec), x, 20)
            assert rec.entered_cycle and rec.entry_index == 0 and len(rec.cycle) == 13


def cold_record(cold, x, cap):
    """``orbit_iterate(cold, x, cap)`` with ``cold``'s entry table emptied
    first: the record of a system that has walked no orbit to its cycle,
    without building a fresh system's jump table for each start."""
    cold._entries.clear()
    cold._entry_top = 0
    return orbits.orbit_iterate(cold, x, cap)


# each start walks at one of these caps, so the entry table is filled at
# one cap and read at another: leap walks below 256, jump walks above
CENSUS_CAPS = (100, 256, 773, 10**4)


@pytest.mark.parametrize("name", sorted(JUMP_AFFINE))  # k = 2, 3, 4 and 5
def test_census_stopping_in_the_entry_table_matches_cold_walks(name):
    spec = JUMP_AFFINE[name].spec
    rng = random.Random(name)
    starts = list(range(1, 2001))
    rng.shuffle(starts)
    runs = [(x, CENSUS_CAPS[j % 4]) for j, x in enumerate(starts)]
    runs += [(rng.getrandbits(1500) | 1 << 1499, cap) for cap in CENSUS_CAPS]
    warm, cold = systems.make_system(spec), systems.make_system(spec)
    for x, cap in runs:
        rec = orbits.orbit_iterate(warm, x, cap)
        assert rec == cold_record(cold, x, cap)
        # the oracles of the capped walks to 10^4 steps, on states of up
        # to ~1000 bits, would take minutes; the cold walks check those
        if rec.entered_cycle or cap < 10**4:
            assert_matches_oracle(warm, x, cap)
    assert len(warm._entries) <= orbits._ENTRY_STATES


def test_a_capped_record_is_read_from_the_entry_table():
    # collatz 27 enters 1 -> 4 -> 2 at 109; after a census at cap 10^4 its
    # record at a lower cap is read off the table without a walk
    warm, cold = systems.make_system(systems.collatz()), systems.make_system(systems.collatz())
    for x in range(1, 2001):
        orbits.orbit_iterate(warm, x, 10**4)
    assert warm._entries[27] == (109, (1, 4, 2))
    kernels = warm._leap, warm._jump_cache
    warm._leap, warm._jump_cache = None, (None, None, None)  # a walk would call one
    try:
        for cap in (0, 100, 111, 112, 300):
            rec = orbits.orbit_iterate(warm, 27, cap)
            assert rec.entered_cycle == (cap >= 112)
            assert rec == cold_record(cold, 27, cap)
    finally:
        warm._leap, warm._jump_cache = kernels
    for cap in (100, 111, 112, 300):
        assert_matches_oracle(warm, 27, cap)


def test_entry_table_holds_states_off_their_cycles_at_their_distance():
    # a census of 1..6000 on collatz fills the table; later walks add none
    sys = systems.make_system(systems.collatz())
    for x in range(1, 6001):
        orbits.orbit_iterate(sys, x, 10**4)
        assert len(sys._entries) <= orbits._ENTRY_STATES
    assert len(sys._entries) == orbits._ENTRY_STATES
    assert sys._entry_top == max(sys._entries)
    for z, (d, cycle) in sys._entries.items():
        # z is d single steps off its cycle, the canonical one
        walk = [z]
        for _ in range(d):
            walk.append(sys.apply(walk[-1]))
        assert walk[-1] in cycle and walk[-2] not in cycle
        around = [walk[-1]]
        while sys.apply(around[-1]) != walk[-1]:
            around.append(sys.apply(around[-1]))
        assert cycle == orbits.canonical_cycle(around)
    before = dict(sys._entries)
    for x in range(6001, 6101):
        assert orbits.orbit_iterate(sys, x, 10**4) == orbits.orbit_iterate(
            systems.make_system(sys.spec), x, 10**4)
    assert sys._entries == before


class LookupLog(dict):
    """A dict that notes each key looked up in it with the largest key it
    held at the time."""

    def __init__(self):
        super().__init__()
        self.top, self.looked = 0, []

    def __setitem__(self, key, value):
        self.top = max(self.top, key)
        super().__setitem__(key, value)

    def __contains__(self, key):
        self.looked.append((key, self.top))
        return super().__contains__(key)

    def get(self, key, default=None):
        self.looked.append((key, self.top))
        return super().get(key, default)


# the fused k = 2 walk at 10^4, where the orbits of 60 starts grow to
# ~1000 bits, and the leap walk, which k > 2 jump walks share, below 256
@pytest.mark.parametrize("cap", [10**4, 100])
def test_divergent_walks_look_up_no_landing_above_the_entry_table(cap):
    spec = systems.QxPlusD(5, 1)
    sys = systems.make_system(spec)
    sys._entries = table = LookupLog()
    census = [orbits.orbit_iterate(sys, x, cap) for x in range(1, 101)]
    assert sum(not r.entered_cycle for r in census) == 60
    assert table and table.looked
    assert all(key <= top for key, top in table.looked)
    assert sys._entry_top == table.top == max(table)
    for x, rec in zip(range(1, 101), census):
        assert rec == orbits.orbit_iterate(systems.make_system(spec), x, cap)


def test_tables_and_shifts_keep_an_empty_entry_table(swap1):
    shift = systems.make_system(systems.SymbolicShift(2))
    points = [systems.EventuallyPeriodic.make(pre, per)
              for pre in ((), (1,), (2, 2, 1)) for per in ((1,), (1, 2), (2, 2, 1))]
    for sys, starts in ((two_cycles(), (1, 2, 3, 4)), (swap1, (1, 2)), (shift, points)):
        for cap in (0, 3, 300):
            for x in starts:
                orbits.orbit_iterate(sys, x, cap)
        assert sys._entries == {} and sys._entry_top == 0


def test_new_record_is_the_dataclass_record(collatz, five_x_one):
    for sys, x, cap in ((collatz, 27, 1000), (collatz, 27, 5), (five_x_one, 13, 300),
                        (five_x_one, 7, 300)):
        rec = orbits.orbit_iterate(sys, x, cap)
        fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
        made = orbits.OrbitRecord(**fields)
        assert type(rec) is orbits.OrbitRecord
        assert rec == made and hash(rec) == hash(made) and repr(rec) == repr(made)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.cap = cap + 1
        assert rec == made


def test_long_walks_jump(five_x_one):
    # the divergent orbit of 7 to cap 10^4 makes about 3,300 leaps; the
    # jump walk leaps only from its last certified record
    sys = systems.make_system(systems.QxPlusD(5, 1))
    leap, leaps = sys._leap, []
    sys._leap = lambda x: leaps.append(x) or leap(x)
    rec = orbits.orbit_iterate(sys, 7, 10**4)
    assert rec == orbits.orbit_iterate(five_x_one, 7, 10**4)
    assert not rec.entered_cycle
    assert 0 < len(leaps) < 100


def test_a_walk_of_10_to_the_5_steps_is_quick(five_x_one, deadline):
    deadline(5)
    assert not orbits.orbit_iterate(five_x_one, 7, 10**5).entered_cycle


def test_records_hold_no_states(five_x_one):
    # five of these orbits pass the cap; records that kept their
    # trajectories would hold 10^4 states of up to ~1000 bits for each,
    # about 4.9 MB in all
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        recs = [orbits.orbit_iterate(five_x_one, x, cap=10**4) for x in range(1, 21)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(not r.entered_cycle for r in recs) == 5
    assert retained < 5 * 10**5


def test_walk_holds_only_landings(five_x_one):
    # the divergent orbit of 7 to cap 2*10^4 meets 2*10^4 states of up to
    # ~2000 bits; a walk holding all of them peaks near 4.5 MB, one
    # holding only the states where division runs end near 1.6 MB
    tracemalloc.start()
    try:
        rec = orbits.orbit_iterate(five_x_one, 7, cap=2 * 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.entered_cycle
    assert peak < 2.5 * 10**6


def test_table_walk_refuses_a_stand_in_start(swap1):
    # True and 1.0 equal the label 1 as dict keys, but neither is a state
    for bad in (True, 1.0):
        with pytest.raises(OutOfDomain, match=f"^{bad!r} is not a state of this system$"):
            orbits.orbit_iterate(swap1, bad, cap=4)


# -- the battery's stopping-time walk (checks 1 and 13) -------------------------


def test_reach_one_matches_orbit_iterate(collatz):
    # each start's stopping time is the index of 1 in its trajectory
    times = [orbits.orbit_iterate(collatz, x, cap=10**4).trajectory.index(1)
             for x in range(1, 2001)]
    assert battery._reach_one(2000) == (max(times), None)


@pytest.fixture
def plant_collatz(monkeypatch):
    """plant_collatz(planted_step) replaces battery._collatz by a collatz
    system whose step is planted_step(its true step)."""
    planted = systems.make_system(systems.collatz())

    def plant(planted_step):
        planted._step = planted_step(planted._step)

    monkeypatch.setattr(battery, "_collatz", lambda: planted)
    battery._collatz_cycles_20.cache_clear()
    yield plant
    battery._collatz_cycles_20.cache_clear()


@pytest.fixture
def collatz_trapping_7(plant_collatz):
    """A collatz step that fixes 7."""
    plant_collatz(lambda step: lambda x: x if x == 7 else step(x))


@pytest.mark.parametrize("check, detail", [
    (battery.check_collatz_cycle_census, "orbit of 7 did not reach 1 in 10^4 steps"),
    (battery.check_convergence_probe, "7 did not reach 1 in 10^4 steps"),
], ids=["check01", "check13"])
def test_walk_checks_catch_a_trapped_start(collatz_trapping_7, check, detail):
    result = check()
    assert not result.passed
    assert detail in result.detail.split("; ")


@pytest.fixture
def collatz_detouring_99(plant_collatz):
    """A collatz step where 98 and then 99 each take a detour of 9000
    steps above 10^5: 98's runs back to 49, 99's to 98, so 99 reaches 1
    after about 18,000 steps although no single walk from a start runs
    past 10^4 before a memoised state."""
    detours = {98: (10**6, 49), 99: (2 * 10**6, 98)}
    ends = {base + 8999: back for base, back in detours.values()}

    def detouring(step):
        def planted(x):
            if x in detours:
                return detours[x][0]
            if x in ends:
                return ends[x]
            return x + 1 if x >= 10**6 else step(x)
        return planted

    plant_collatz(detouring)


def test_reach_one_bounds_the_stopping_time_not_one_walk(collatz_detouring_99):
    # 99 takes 18,026 steps; below it 57, whose orbit meets 98, takes
    # the most, 9032
    assert battery._reach_one(100) == (9032, 99)


@pytest.mark.parametrize("check, detail", [
    (battery.check_collatz_cycle_census, "orbit of 99 did not reach 1 in 10^4 steps"),
    (battery.check_convergence_probe, "99 did not reach 1 in 10^4 steps"),
], ids=["check01", "check13"])
def test_walk_checks_catch_a_start_beyond_the_bound_by_two_walks(
        collatz_detouring_99, check, detail):
    result = check()
    assert not result.passed
    assert detail in result.detail.split("; ")


# -- invariant_closure / total_orbit ------------------------------------------


def test_closure_of_swap_seed(swap2):
    rep = orbits.invariant_closure(swap2, [1], window=(1, 2))
    assert rep.members == frozenset({1, 2})
    assert rep.frontier == frozenset()
    assert rep.exact


def test_closure_of_empty_seed(collatz):
    rep = orbits.invariant_closure(collatz, [], window=(1, 100))
    assert rep.members == frozenset()
    assert rep.frontier == frozenset()


def test_closure_refuses_a_seed_outside_the_window(collatz, swap1):
    for sys, seed, window in ((collatz, 5, (1, 4)), (swap1, 3, None)):
        with pytest.raises(InvalidSpec, match=f"^seed {seed} is outside the window$"):
            orbits.invariant_closure(sys, [1, seed], window)


def test_closure_budget_exhaustion_is_not_exact():
    # one expansion reaches 2 from 1 but never expands it
    rep = orbits.invariant_closure(two_cycles(), [1], (1, 4), node_budget=1)
    assert rep.members == frozenset({1, 2})
    assert rep.frontier == frozenset()
    assert rep.exhausted
    assert not rep.exact


def test_collatz_closure_from_3(collatz):
    rep = orbits.invariant_closure(collatz, [3], window=(1, 30))
    for x in (3, 10, 5, 16, 8, 4, 2, 1, 6, 12, 24, 20):
        assert x in rep.members


def test_total_orbit_tiny_window(collatz):
    rep = orbits.total_orbit(collatz, 1, window=(1, 1))
    assert rep.members == frozenset({1})
    assert rep.frontier == frozenset({1})  # f(1) = 4 leaves the window
    assert not rep.exact


def test_total_orbit_window_closure_both_directions(collatz):
    # empty frontier would mean exactly closed; Collatz windows keep a
    # frontier, so check the closure property on the in-window part
    rep = orbits.total_orbit(collatz, 1, window=(1, 20))
    for x in rep.members - rep.frontier:
        y = collatz.apply(x)
        if 1 <= y <= 20:
            assert y in rep.members
        for p, _ in collatz.preimages(x):
            if 1 <= p <= 20:
                assert p in rep.members


def test_total_orbit_exact_on_closed_component():
    sys = two_cycles()
    rep = orbits.total_orbit(sys, 1, window=(1, 4))
    assert rep.members == frozenset({1, 2})
    assert rep.frontier == frozenset()
    # exactly closed both ways
    for x in rep.members:
        assert sys.apply(x) in rep.members
        for p, _ in sys.preimages(x):
            assert p in rep.members


def test_total_orbit_symmetry_on_finite_systems():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 7)
        img = {x: rng.randint(1, n) for x in range(1, n + 1)}
        # greedy injective branch assignment
        branch, used = {}, set()
        ok = True
        for x in range(1, n + 1):
            i = 1
            while (i, img[x]) in used:
                i += 1
            used.add((i, img[x]))
            branch[x] = i
        sys = systems.make_system(
            systems.FiniteTable.make(branch, img, k=max(branch.values()))
        )
        members = {
            x: orbits.total_orbit(sys, x, window=(1, n)).members
            for x in range(1, n + 1)
        }
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                assert (x in members[y]) == (y in members[x])


# -- minimality_probe ----------------------------------------------------------


def test_collatz_window_is_one_class(collatz):
    rep = orbits.minimality_probe(collatz, (1, 1000))
    assert rep.class_count == 1
    assert not rep.exhausted


def test_two_cycles_make_two_classes():
    rep = orbits.minimality_probe(two_cycles(), (1, 4))
    assert rep.class_count == 2
    assert rep.classes == ((1, 2), (3, 4))


def test_swap_is_one_class(swap1):
    rep = orbits.minimality_probe(swap1, (1, 2))
    assert rep.class_count == 1


def test_minimality_matches_component_oracle():
    # class count on escape-free tables = connected components of the
    # functional graph viewed undirected (forward edges + inverted edges)
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 9)
        img = {x: rng.randint(1, n) for x in range(1, n + 1)}
        branch, used = {}, set()
        for x in range(1, n + 1):
            i = 1
            while (i, img[x]) in used:
                i += 1
            used.add((i, img[x]))
            branch[x] = i
        sys = systems.make_system(
            systems.FiniteTable.make(branch, img, k=max(branch.values()))
        )
        rep = orbits.minimality_probe(sys, (1, n))

        parent = list(range(n + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for x in range(1, n + 1):
            ra, rb = find(x), find(img[x])
            if ra != rb:
                parent[ra] = rb
        comps = len({find(x) for x in range(1, n + 1)})
        assert rep.class_count == comps


def test_budget_exhaustion_is_flagged_not_fatal(collatz):
    # 27's excursion tops out near 9232; a tiny budget cannot resolve it
    rep = orbits.minimality_probe(collatz, (1, 30), budget=3)
    assert rep.exhausted or rep.unresolved
    assert rep.class_count >= 1  # still a usable partial answer


def test_canonical_cycle_rotation():
    assert orbits.canonical_cycle([4, 2, 1]) == (1, 4, 2)
    assert orbits.canonical_cycle([12, 6, 3]) == (3, 12, 6)
    assert orbits.canonical_cycle([5]) == (5,)
