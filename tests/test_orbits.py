"""Orbit iteration, total-orbit closure, minimality probing."""

import random

import pytest
from hypothesis import given, strategies as st

from branchdyn import orbits, systems
from branchdyn.errors import InvalidSpec


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
