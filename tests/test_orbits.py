"""Orbit iteration, total-orbit closure, minimality probing."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from branchdyn import battery, orbits, systems
from branchdyn.errors import InvalidSpec, OutOfDomain

from conftest import closed_tables, orbit_oracle


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
    st.integers(min_value=systems._JUMP_TABLE_SIZE, max_value=3000),
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
    jump, rise, cover = sys._jumps()
    risen = []
    sys._jump_cache = jump, lambda z: risen.append(z) or rise(z), cover
    assert not orbits.orbit_iterate(sys, x, cap).entered_cycle
    assert x not in risen[:orbits._TAIL]
    if whole:
        # from the start through the tail again
        assert risen[orbits._TAIL] == x
        assert risen[-orbits._TAIL:] == risen[:orbits._TAIL]
    else:
        assert len(risen) == orbits._TAIL
    assert_matches_oracle(sys, x, cap)


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
def collatz_trapping_7(monkeypatch):
    """battery._collatz replaced by a collatz system whose step fixes 7."""
    planted = systems.make_system(systems.collatz())
    step = planted._step
    planted._step = lambda x: x if x == 7 else step(x)
    monkeypatch.setattr(battery, "_collatz", lambda: planted)
    battery._collatz_cycles_20.cache_clear()
    yield planted
    battery._collatz_cycles_20.cache_clear()


@pytest.mark.parametrize("check, detail", [
    (battery.check_collatz_cycle_census, "orbit of 7 did not reach 1 in 10^4 steps"),
    (battery.check_convergence_probe, "7 did not reach 1 in 10^4 steps"),
], ids=["check01", "check13"])
def test_walk_checks_catch_a_trapped_start(collatz_trapping_7, check, detail):
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
