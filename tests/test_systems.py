"""System construction, validation, branch structure, preimages, JSON."""

import re
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from branchdyn import battery, coding, morphisms, operators, orbits, systems, words
from branchdyn.errors import (
    InvalidSpec,
    NonInjectiveBranch,
    NotAffineFamily,
    OutOfDomain,
)

from conftest import (
    AFFINE_SPECS,
    CLASS_ROUTE_SPECS,
    JUMP_SPECS,
    KERNEL_SPECS,
    _Classes,
    brute_preimages,
    brute_primitive_period,
    preimage_scan_bound,
)


# -- construction and validation -------------------------------------------


def test_collatz_is_3x_plus_1():
    assert systems.collatz() == systems.QxPlusD(3, 1)


def test_mersenne_family():
    assert systems.mersenne(3) == systems.QxPlusD(7, 1)
    assert systems.mersenne(5) == systems.QxPlusD(31, 1)
    with pytest.raises(InvalidSpec, match="^need m >= 2, got 1$"):
        systems.mersenne(1)


@pytest.mark.parametrize(
    "q,d",
    [(2, 1), (3, 2), (0, 1), (3, -1), (3, 0), (-3, 1),
     (3, 1.0), (3.0, 1), (True, 1), (3, True), (3, "1"), (3, None)],
)
def test_qxd_rejects_bad_parameters(q, d):
    with pytest.raises(InvalidSpec, match="^q and d must be odd positive integers$"):
        systems.make_system(systems.QxPlusD(q, d))


@pytest.mark.parametrize(
    "alpha,beta", [((4, 4), (2.0, 1)), ((4.0, 4), (2, 1)), ((4, True), (2, 1))]
)
def test_alphabeta_rejects_non_integer_coefficients(alpha, beta):
    with pytest.raises(InvalidSpec, match="^coefficients must be positive integers$"):
        systems.make_system(systems.AlphaBeta(3, alpha, beta))


def test_alphabeta_rejects_bad_shapes():
    with pytest.raises(InvalidSpec):
        systems.make_system(systems.AlphaBeta(1, (), ()))
    with pytest.raises(InvalidSpec):
        systems.make_system(systems.AlphaBeta(3, (2,), (1, 5)))
    with pytest.raises(InvalidSpec):
        systems.make_system(systems.AlphaBeta(2, (0,), (1,)))
    with pytest.raises(InvalidSpec):
        systems.make_system(systems.AlphaBeta(2, (2,), (0,)))


def test_table_requires_total_injective_branches():
    # image collision inside one branch
    with pytest.raises(NonInjectiveBranch):
        systems.make_system(
            systems.FiniteTable.make({1: 1, 2: 1, 3: 1}, {1: 3, 2: 3, 3: 1})
        )
    # branch index out of range
    with pytest.raises(InvalidSpec, match="^branch index 2 outside 1..1$"):
        systems.make_system(
            systems.FiniteTable.make({1: 2, 2: 1}, {1: 2, 2: 1}, k=1)
        )
    # image leaves the state set, or stands in for a label it equals
    for image in ({1: 2, 2: 3}, {1: 2, 2: True}):
        with pytest.raises(InvalidSpec, match="^image .* escapes the state set$"):
            systems.make_system(systems.FiniteTable.make({1: 1, 2: 1}, image, k=1))
    with pytest.raises(InvalidSpec):
        systems.make_system(systems.FiniteTable.make({}, {}))


def test_table_k1_is_allowed(swap1):
    assert swap1.k == 1
    assert swap1.states() == (1, 2)


def test_table_k0_is_refused():
    with pytest.raises(InvalidSpec, match="^need k >= 1, got 0$"):
        systems.make_system(systems.FiniteTable.make({1: 1}, {1: 1}, k=0))


def test_table_of_integers_lists_its_pairs_in_sorted_order():
    # numeric order, not the repr order "10" < "2" < "9"
    branch, image = {10: 1, 9: 2, 2: 1}, {10: 9, 9: 2, 2: 10}
    table = systems.FiniteTable.make(branch, image)
    assert table.states == (2, 9, 10)
    assert table.branch == tuple(sorted(branch.items()))
    assert table.image == tuple(sorted(image.items()))


def test_table_labels_need_not_compare():
    # 1, "a" and None do not compare with each other: the table lists
    # them as SetWindow does, by repr, and every scan runs on it
    assert systems.FiniteTable.make({1: 1, "a": 1}, {1: "a", "a": 1}, k=1).states == ("a", 1)
    table = systems.FiniteTable.make({1: 1, "a": 2, None: 1}, {1: "a", "a": None, None: 1}, k=2)
    assert table.states == ("a", 1, None)
    assert table.image == (("a", None), (1, "a"), (None, 1))
    sys = systems.make_system(table)
    trunc = operators.build_truncation(sys, None)
    assert trunc.states == ("a", 1, None)
    assert operators.commutant_projections(trunc).lattice_size == 2
    assert coding.verify_tuc_window(sys, None).passed
    assert orbits.minimality_probe(sys, None).classes == (("a", 1, None),)
    assert words.check_uniqueness(sys, 4).passed
    assert morphisms.is_isomorphism(morphisms.identity(sys)).passed


@pytest.mark.parametrize("spec", ["collatz", None, (3, 1)], ids=repr)
def test_unknown_family_is_refused(spec):
    with pytest.raises(InvalidSpec, match="^unknown family: "):
        systems.make_system(spec)
    with pytest.raises(InvalidSpec, match="^unknown family: "):
        systems.spec_to_json(spec)


def test_shift_system_requires_positive_k():
    with pytest.raises(InvalidSpec):
        systems.make_system(systems.SymbolicShift(0))


# a count or branch index of True once ran as 1, a float ran as given or
# leaked a TypeError
@pytest.mark.parametrize(
    "call",
    [
        lambda c: orbits.orbit_iterate(c, 27, 300.0),
        lambda c: orbits.invariant_closure(c, [1], (1, 20), 2.5),
        lambda c: orbits.minimality_probe(c, (1, 20), 2.5),
        lambda c: orbits.minimality_probe(c, (1, 20), True),
        lambda c: words.enumerate_cycles(c, True),
        lambda c: words.enumerate_cycles(c, 2.5),
        lambda c: words.check_separating(c, 1, 2.5),
        lambda c: words.check_uniqueness(c, 2.5),
        lambda c: words.check_uniqueness(c, 3, True),
        lambda c: words.verify_unifix(c, (1, 2), 2.5),
        lambda c: _pm_limit(c, 1, cap=True),
        lambda c: _pm_limit(c, 1, cap=2.5),
        lambda c: systems.make_system(systems.SymbolicShift(2.5)),
        lambda c: systems.make_system(systems.FiniteTable.make({1: 1}, {1: 1}, k=2.5)),
        lambda c: systems.make_system(systems.AlphaBeta(3.0, (4, 4), (2, 1))),
        lambda c: systems.mersenne(3.0),
        lambda c: next(words.lyndon_words(2.5, 2)),
        lambda c: next(words.lyndon_words(2, 2.0)),
        lambda c: c.branch_affine(1.0),
        lambda c: c.branch_affine_int(True),
        lambda c: systems.make_system(systems.FiniteTable.make({1: 1.0, 2: 2}, {1: 2, 2: 1}, k=2)),
        lambda c: systems.make_system(systems.FiniteTable.make({1: True, 2: 2}, {1: 2, 2: 1}, k=2)),
    ],
    ids=["orbit-cap", "closure-budget", "minimality-budget", "minimality-budget-bool",
         "cycles-max-len-bool", "cycles-max-len", "separating-cap", "uniqueness-max-len",
         "uniqueness-scan-bound-bool", "unifix-m", "pm-limit-cap-bool", "pm-limit-cap",
         "shift-k", "table-k", "alphabeta-k", "mersenne-m", "lyndon-k", "lyndon-max-len",
         "branch-affine-index", "branch-affine-int-index-bool", "table-branch-index",
         "table-branch-index-bool"],
)
def test_counts_that_are_no_ints_are_refused(collatz, call):
    with pytest.raises(InvalidSpec, match="^need an int "):
        call(collatz)


def test_system_equality_is_spec_based(collatz):
    again = systems.make_system(systems.collatz())
    assert again == collatz
    assert hash(again) == hash(collatz)
    assert again != systems.make_system(systems.QxPlusD(5, 1))


# -- branch structure and application ---------------------------------------


def test_collatz_steps(collatz):
    assert collatz.apply(1) == 4
    assert collatz.apply(4) == 2
    assert collatz.apply(7) == 22
    assert collatz.branch_of(7) == 1
    assert collatz.branch_of(22) == 2


def test_alphabeta_steps(alphabeta3):
    # residue 1 -> 2n+1, residue 2 -> 4n+5, residue 0 -> n/3
    assert [alphabeta3.apply(n) for n in (1, 2, 3, 4, 5, 6)] == [3, 13, 1, 9, 25, 2]
    assert [alphabeta3.branch_of(n) for n in (1, 2, 3)] == [1, 2, 3]


def test_zero_is_not_a_state(collatz):
    assert not collatz.contains(0)
    with pytest.raises(OutOfDomain):
        collatz.apply(0)
    with pytest.raises(OutOfDomain):
        collatz.branch_of(-3)


def test_table_lookup(swap2):
    assert swap2.apply(1) == 2
    assert swap2.apply(2) == 1
    assert swap2.branch_of(1) == 1
    assert swap2.branch_of(2) == 2
    assert not swap2.contains(3)


def test_table_refuses_stand_ins_for_a_label(swap1):
    # True and 1.0 equal the label 1 as dict keys, but neither is a state
    for bad in (True, 1.0):
        assert not swap1.contains(bad)
        with pytest.raises(OutOfDomain, match=f"^{bad!r} is not a state of this system$"):
            swap1.apply(bad)


def test_large_values_stay_exact(collatz):
    x = 2**200 + 1  # odd
    assert collatz.apply(x) == 3 * x + 1


# -- preimages ---------------------------------------------------------------


def test_preimages_frozen_examples(collatz):
    assert collatz.preimages(16) == [(32, 2), (5, 1)]
    assert collatz.preimages(5) == [(10, 2)]  # (5-1)/3 not an integer
    assert collatz.preimages(1) == [(2, 2)]  # (1-1)/3 = 0 rejected


def test_preimages_against_window_scan(collatz, five_x_one, alphabeta3):
    for sys in (collatz, five_x_one, alphabeta3):
        for x in range(1, 120):
            got = sorted(sys.preimages(x))
            want = sorted(brute_preimages(sys, x, preimage_scan_bound(sys, x)))
            assert got == want, (sys.spec, x)


def test_preimages_at_most_one_per_branch(collatz, alphabeta3):
    for sys in (collatz, alphabeta3):
        for x in range(1, 200):
            branches = [i for _, i in sys.preimages(x)]
            assert len(branches) == len(set(branches))


@given(st.integers(min_value=1, max_value=10**6))
def test_preimages_sound_and_complete_collatz(x):
    sys = systems.make_system(systems.collatz())
    pre = sys.preimages(x)
    for y, i in pre:
        assert sys.apply(y) == x
        assert sys.branch_of(y) == i
    # completeness: candidates can only be 2x and (x-d)/q
    assert (2 * x, 2) in pre
    if (x - 1) % 3 == 0 and (x - 1) // 3 >= 1 and ((x - 1) // 3) % 2 == 1:
        assert ((x - 1) // 3, 1) in pre


def test_table_preimages(swap1):
    assert swap1.preimages(1) == [(2, 1)]
    assert swap1.preimages(2) == [(1, 1)]


# -- window state budget -----------------------------------------------------

WINDOW_SCANS = {
    "verify_tuc_window": coding.verify_tuc_window,
    "check_alphabeta_hypotheses": coding.check_alphabeta_hypotheses,
    "minimality_probe": orbits.minimality_probe,
    "is_isomorphism": lambda sys, w: morphisms.is_isomorphism(morphisms.identity(sys), w),
    "check_homomorphism": lambda sys, w: morphisms.check_homomorphism(
        morphisms.identity(sys), w
    ),
    "build_truncation": operators.build_truncation,
}


@pytest.mark.parametrize("scan", sorted(WINDOW_SCANS))
def test_window_scans_share_the_state_budget(collatz, monkeypatch, scan):
    monkeypatch.setattr(systems, "MAX_WINDOW_STATES", 5)
    WINDOW_SCANS[scan](collatz, (1, 5))
    WINDOW_SCANS[scan](collatz, systems.SetWindow([2, 4, 6, 8, 10]))
    for window in ((1, 6), systems.SetWindow([2, 4, 6, 8, 10, 12])):
        with pytest.raises(InvalidSpec, match="^window holds 6 states; at most MAX_WINDOW_STATES = 5"):
            WINDOW_SCANS[scan](collatz, window)


@pytest.mark.parametrize(
    "window", [[1, 2], {1, 2}, "1..2", ("a", "b"), (1.0, 2.0), (1, 2, 3)], ids=repr
)
def test_as_window_refuses_anything_but_a_window_none_or_an_int_pair(collatz, window):
    with pytest.raises(InvalidSpec, match="wrap a set of states in SetWindow$"):
        systems.as_window(collatz, window)


@pytest.mark.parametrize(
    "lo,hi", [(1.5, 3), (1, 3.0), (True, 3), (1, True), ("1", "3"), (None, 3)], ids=repr
)
def test_int_window_refuses_bounds_that_are_not_ints(lo, hi):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(f'bad window {lo!r}..{hi!r}')}$"):
        systems.IntWindow(lo, hi)


def test_as_window_builds_an_int_window_of_int_bounds_only(collatz):
    assert systems.as_window(collatz, (2, 3)).describe() == "2..3"
    # an int pair to as_window, yet True is no bound
    with pytest.raises(InvalidSpec, match=r"^bad window True\.\.3$"):
        systems.as_window(collatz, (True, 3))


@pytest.mark.parametrize("name", sorted(AFFINE_SPECS))
def test_window_states_checks_an_affine_int_window_by_its_bounds(name, monkeypatch):
    sys = systems.make_system(AFFINE_SPECS[name])
    checked = []
    monkeypatch.setattr(sys, "_require", checked.append)
    for lo, hi in ((1, 1), (1, 300), (7, 19)):
        win, states = systems.window_states(sys, (lo, hi))
        assert (win.lo, win.hi) == (lo, hi)
        assert tuple(states) == tuple(range(lo, hi + 1))
    assert checked == [1, 1, 7]


def test_window_states_checks_other_windows_state_by_state(collatz):
    gap = systems.make_system(systems.FiniteTable.make({1: 1, 3: 1}, {1: 3, 3: 1}))
    with pytest.raises(OutOfDomain, match="^2 is not a state of this system$"):
        systems.window_states(gap, systems.IntWindow(1, 3))
    shift = systems.make_system(systems.SymbolicShift(2))
    with pytest.raises(OutOfDomain, match="^1 is not a state of this system$"):
        systems.window_states(shift, systems.IntWindow(1, 3))
    for states, bad in (([0, 1, 2], 0), ([True, 2], True)):
        with pytest.raises(OutOfDomain, match=f"^{bad!r} is not a state of this system$"):
            systems.window_states(collatz, systems.SetWindow(states))


def test_set_window_orders_labels_that_do_not_compare():
    win = systems.SetWindow({None, 1, "a"})
    assert win.materialize() == ("a", 1, None)  # by repr
    assert win.describe() == "set of 3 states"


def test_window_size_beyond_sys_maxsize():
    win = systems.IntWindow(1, 10**20)
    assert win.size() == 10**20
    with pytest.raises(InvalidSpec, match="^window holds 100000000000000000000 states"):
        win.materialize()


# -- eventually periodic sequences -------------------------------------------


def test_eventually_periodic_normalization():
    a = systems.EventuallyPeriodic.make((1, 2), (2, 1))
    b = systems.EventuallyPeriodic.make((1,), (2, 2, 1, 1))
    # (1,2,2,1,2,1,... ) vs (1,2,2,1,1,...): distinct sequences stay distinct
    assert a != b
    c = systems.EventuallyPeriodic.make((), (1, 2, 2))
    d = systems.EventuallyPeriodic.make((1,), (2, 2, 1))
    assert c == d  # same sequence, different presentation


symbols = st.lists(st.integers(1, 2), max_size=6).map(tuple)
powers = st.tuples(symbols.filter(bool), st.integers(1, 4)).map(lambda t: t[0] * t[1])


@given(symbols, powers | symbols.filter(bool))
def test_primitive_period_matches_the_brute_force_oracle(pre, per):
    p = brute_primitive_period(per)
    assert systems._primitive_period(per) == p
    assert words.is_aperiodic(per) == (p == len(per))
    # the normal form: the same sequence, a primitive period, the shortest head
    x = systems.EventuallyPeriodic.make(pre, per)
    n = len(pre) + len(per)
    assert x.prefix(n) == (pre + per * n)[:n]
    assert brute_primitive_period(x.per) == len(x.per)
    assert not x.pre or x.pre[-1] != x.per[-1]


@st.composite
def partial_maps(draw):
    """(n, succ): a map on 0..n-1, n <= 12, undefined on some coordinates."""
    n = draw(st.integers(min_value=0, max_value=12))
    images = draw(st.lists(st.none() | st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    return n, {c: r for c, r in enumerate(images) if r is not None}


@given(partial_maps())
@example((12, {0: 2, 1: 2, 2: 1, 3: 3, 4: 3, 5: 6, 7: 8, 8: 7, 9: 7, 10: 9, 11: 4}))
def test_components_match_the_relabelling_oracle(case):
    # the example has a sink (6), a self-loop (3) and a cycle (2, 1) that the
    # walk from 0 enters at 2, not at its least member
    n, succ = case
    comps = systems._components(n, succ)
    classes = _Classes(n)
    for c, r in succ.items():
        classes.union(c, r)
    assert [list(members) for members, _ in comps] == classes.groups()
    heads = [members[0] for members, _ in comps]
    assert heads == sorted(heads)
    for members, cycle in comps:
        walk = [members[0]]
        for _ in range(n):
            if walk[-1] not in succ:
                break
            walk.append(succ[walk[-1]])
        if walk[-1] not in succ:
            assert cycle == ()
            continue
        # n steps of a walk on n coordinates end on its cycle
        on_cycle = [walk[-1]]
        while succ[on_cycle[-1]] != walk[-1]:
            on_cycle.append(succ[on_cycle[-1]])
        first = next(x for x in walk if x in on_cycle)
        j = on_cycle.index(first)
        assert cycle == tuple(on_cycle[j:] + on_cycle[:j])


@pytest.fixture
def plant_components(monkeypatch):
    """Replace the component walk at its import sites, both by default."""
    def plant(fault, modules=(orbits, operators)):
        for module in modules:
            monkeypatch.setattr(module, "_components", fault)
    return plant


def _verdict(check):
    """A check's (passed, detail), with a raise counted as verify-all counts it."""
    try:
        result = check()
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"
    return result.passed, result.detail


def test_checks_9_and_10_catch_a_component_walk_without_cycles(plant_components):
    true_components = systems._components
    plant_components(lambda n, succ: [(m, ()) for m, _ in true_components(n, succ)])
    # the covering commutant has no cycle to start from, and word 1 2 2 fixes nothing
    assert _verdict(battery.check_correspondence_bijection) == (
        False, "raised IndexError: list index out of range"
    )
    assert _verdict(battery.check_word_fixed_vectors) == (False, "word 1 2 2: dimension 0, support none")


def test_checks_9_and_13_catch_a_component_walk_that_splits_at_the_cycle(plant_components):
    true_components = systems._components

    def split(n, succ):
        out = []
        for members, cycle in true_components(n, succ):
            trees = tuple(c for c in members if c not in cycle)
            out += [(tuple(sorted(cycle)), cycle), (trees, ())] if cycle and trees else [(members, cycle)]
        return sorted(out)

    plant_components(split)
    # a tree split off its cycle leaves the covering commutant nowhere to start
    assert _verdict(battery.check_correspondence_bijection) == (
        False, "raised IndexError: list index out of range"
    )
    assert _verdict(battery.check_convergence_probe) == (
        False, "minimality probe: 2 classes, 0 unresolved"
    )
    # split in the minimality probe alone, the classes miss the commutant's blocks
    plant_components(true_components, modules=(operators,))
    passed, detail = _verdict(battery.check_correspondence_bijection)
    assert not passed and detail.endswith(": blocks do not match orbit classes")


def test_eventually_periodic_needs_a_period():
    with pytest.raises(InvalidSpec, match="^period part must be nonempty$"):
        systems.EventuallyPeriodic.make((1, 2), ())


def test_eventually_periodic_shift_and_prefix():
    s = systems.EventuallyPeriodic.make((1,), (2, 2))
    assert s.head() == 1
    assert s.prefix(5) == (1, 2, 2, 2, 2)
    assert s.shift().prefix(4) == (2, 2, 2, 2)
    assert s.prepend(2).prefix(3) == (2, 1, 2)


def test_shift_system_membership():
    sh = systems.make_system(systems.SymbolicShift(2))
    s = systems.EventuallyPeriodic.make((), (1, 2, 2))
    assert sh.contains(s)
    assert sh.apply(s) == s.shift()
    assert sh.branch_of(s) == 1
    assert not sh.contains(systems.EventuallyPeriodic.make((), (3,)))


# -- JSON round trips ---------------------------------------------------------


def test_spec_json_frozen_forms(collatz):
    assert systems.spec_to_json(systems.collatz()) == {
        "family": "qxd",
        "q": "3",
        "d": "1",
    }
    ab = systems.AlphaBeta(3, (2, 4), (1, 5))
    assert systems.spec_to_json(ab) == {
        "family": "alphabeta",
        "k": 3,
        "alpha": ["2", "4"],
        "beta": ["1", "5"],
    }


def test_spec_json_round_trip(swap1):
    for spec in (
        systems.collatz(),
        systems.QxPlusD(5, 3),
        systems.AlphaBeta(3, (2, 4), (1, 5)),
        swap1.spec,
        systems.SymbolicShift(2),
    ):
        assert systems.spec_from_json(systems.spec_to_json(spec)) == spec


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (7, 3)])
def test_qxd_agrees_with_its_alphabeta_form(q, d):
    qxd = systems.make_system(systems.QxPlusD(q, d))
    ab = systems.make_system(systems.AlphaBeta(2, (q,), (d,)))
    for x in range(1, 5001):
        assert qxd.apply(x) == ab.apply(x), x
        assert qxd.branch_of(x) == ab.branch_of(x), x
        assert qxd.preimages(x) == ab.preimages(x), x
    for i in (1, 2):
        assert qxd.branch_affine(i) == ab.branch_affine(i)
    assert qxd.branch_affine_int(1) == ab.branch_affine_int(1) == (q, d)
    for sys in (qxd, ab):
        with pytest.raises(NotAffineFamily):
            sys.branch_affine_int(2)
    assert words.enumerate_cycles(qxd, 12) == words.enumerate_cycles(ab, 12)
    assert systems.spec_to_json(qxd.spec) == {
        "family": "qxd",
        "q": str(q),
        "d": str(d),
    }


def test_branch_affine_int_refuses_tables_and_bad_indices(collatz, swap2):
    with pytest.raises(NotAffineFamily):
        swap2.branch_affine_int(1)
    for i in (0, 3):
        with pytest.raises(InvalidSpec, match=f"^branch index {i} outside 1..2$"):
            collatz.branch_affine_int(i)


def test_spec_json_reads_the_collatz_family():
    assert systems.spec_from_json({"family": "collatz"}) == systems.collatz()


def test_spec_json_rejects_garbage():
    with pytest.raises(InvalidSpec):
        systems.spec_from_json({"family": "nonsense"})
    with pytest.raises(InvalidSpec):
        systems.spec_from_json({"q": "3"})
    declared = {"family": "table", "k": 1, "states": ["1", "3"],
                "branch": {"1": 1, "2": 1}, "image": {"1": "2", "2": "1"}}
    with pytest.raises(InvalidSpec, match="^declared states do not match the branch table$"):
        systems.spec_from_json(declared)


# -- step kernels --------------------------------------------------------------


def spec_step(spec, x):
    """(branch, image) of x read off an affine spec, without the system."""
    if isinstance(spec, systems.QxPlusD):
        return (1, spec.q * x + spec.d) if x % 2 else (2, x // 2)
    r = x % spec.k
    if r == 0:
        return spec.k, x // spec.k
    return r, spec.alpha[r - 1] * x + spec.beta[r - 1]


def assert_kernels_agree(sys, x):
    assert sys._step(x) == sys.apply(x)
    assert sys._branch(x) == sys.branch_of(x)
    assert sys._preimages(x) == sys.preimages(x)
    # _leap(x) = (f^s(x), s): on an affine system it skips only division
    # states and lands off the division branch; elsewhere s = 1
    y, s = sys._leap(x)
    walk = [x]
    for _ in range(s):
        walk.append(sys.apply(walk[-1]))
    assert walk[-1] == y
    if sys.is_affine:
        assert s >= 1
        assert all(sys.branch_of(z) == sys.k for z in walk[1:-1])
        assert sys.branch_of(y) != sys.k
    else:
        assert s == 1


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@given(x=st.integers(min_value=1, max_value=2**70))
def test_affine_kernels_agree_with_public_methods(name, x):
    spec = KERNEL_SPECS[name]
    sys = systems.make_system(spec)
    assert_kernels_agree(sys, x)
    assert (sys._branch(x), sys._step(x)) == spec_step(spec, x)


@pytest.mark.parametrize("name", sorted(JUMP_SPECS))
@given(
    j=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=50),
    B=st.integers(min_value=1, max_value=10**6),
)
def test_class_step_is_one_step_of_every_state_of_the_class(name, j, m, B):
    # with k | A, every state A*t + B takes the symbol and lands on A'*t + B'
    sys = systems.make_system(JUMP_SPECS[name])
    A = sys.k**j * m
    symbol, A2, B2 = systems._class_step(sys.k, sys._affine, A, B)
    for t in (0, 1, 2, 7, 2**70 + 3):
        x = A * t + B
        assert (sys.branch_of(x), sys.apply(x)) == (symbol, A2 * t + B2)


@pytest.mark.parametrize("name", sorted(CLASS_ROUTE_SPECS))
def test_cylinder_is_the_class_of_each_word(name):
    # every word of length <= 6 (<= 4 for k = 5) against the codings of
    # 1..3000: on lo..hi = 1..10^15 no image of those states leaves the
    # window, so the kernel's states up to 3000 are exactly the x <= 3000
    # that carry the word, f^m(x) = A*t + B, and None means none does
    sys = systems.make_system(CLASS_ROUTE_SPECS[name])
    depth = 4 if sys.k == 5 else 6
    carriers: dict = {}  # word -> [(x, f^len(word)(x))] in order of x
    for x in range(1, 3001):
        code, y = [], x
        for _ in range(depth):
            code.append(sys.branch_of(y))
            y = sys.apply(y)
            carriers.setdefault(tuple(code), []).append((x, y))
    for m in range(1, depth + 1):
        for word in product(range(1, sys.k + 1), repeat=m):
            want = carriers.get(word, [])
            cut = systems._cylinder(sys.k, sys._affine, 1, 10**15, word)
            if cut is None:
                assert not want, word
                continue
            M, r, A, B, t0, t1 = cut
            got = [(M * t + r, A * t + B) for t in range(t0, min(t1, (3000 - r) // M) + 1)]
            assert got == want, word


@st.composite
def random_tables(draw):
    """A FiniteTable on 1..8 labels of one kind (integers, strings or
    pairs), with every branch injective."""
    states = draw(
        st.one_of(
            st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True),
            st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=3),
                     min_size=1, max_size=8, unique=True),
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     min_size=1, max_size=8, unique=True),
        )
    )
    k = draw(st.integers(1, 3))
    branch, image, used = {}, {}, set()
    for x in states:
        # some branch always has an unused image: k * n pairs, n states
        open_branches = [i for i in range(1, k + 1)
                         if any((i, y) not in used for y in states)]
        i = draw(st.sampled_from(open_branches))
        y = draw(st.sampled_from([y for y in states if (i, y) not in used]))
        used.add((i, y))
        branch[x], image[x] = i, y
    return systems.FiniteTable.make(branch, image, k)


@given(random_tables())
def test_table_kernels_agree_with_public_methods(spec):
    sys = systems.make_system(spec)
    image, branch = dict(spec.image), dict(spec.branch)
    for x in spec.states:
        assert_kernels_agree(sys, x)
        assert (sys._branch(x), sys._step(x)) == (branch[x], image[x])


@given(
    st.lists(st.integers(1, 2), max_size=5),
    st.lists(st.integers(1, 2), min_size=1, max_size=5),
)
def test_shift_kernels_agree_with_public_methods(pre, per):
    sys = systems.make_system(systems.SymbolicShift(2))
    x = systems.EventuallyPeriodic.make(pre, per)
    assert_kernels_agree(sys, x)
    assert sys._branch(x) == x[0]
    assert sys._step(x).prefix(8) == x.prefix(9)[1:]


# -- loops on the kernels validate their entry states ---------------------------

SWAP = systems.FiniteTable.make({"a": 1, "b": 1}, {"a": "b", "b": "a"})


def _at(x):
    return systems.SetWindow([x])


ENTRY_LOOPS = {
    "orbit_iterate": lambda sys, x: orbits.orbit_iterate(sys, x, 10),
    "check_separating": lambda sys, x: words.check_separating(sys, x, 10),
    "minimality_probe": lambda sys, x: orbits.minimality_probe(sys, _at(x)),
    "invariant_closure": lambda sys, x: orbits.invariant_closure(sys, [x], _at(x)),
    "verify_tuc_window": lambda sys, x: coding.verify_tuc_window(sys, _at(x)),
    "coding_prefix": lambda sys, x: coding.coding_prefix(sys, x, 4),
    "check_alphabeta_hypotheses": lambda sys, x: coding.check_alphabeta_hypotheses(
        sys, _at(x)
    ),
    "build_truncation": lambda sys, x: operators.build_truncation(sys, _at(x)),
}

BAD_ENTRIES = {
    "zero": (systems.collatz(), 0),
    "true": (systems.collatz(), True),
    "float": (systems.collatz(), 2.5),
    "missing_label": (SWAP, "z"),
}


@pytest.mark.parametrize(
    "loop,case",
    [
        (loop, case)
        for loop in sorted(ENTRY_LOOPS)
        for case in BAD_ENTRIES
        # the hypotheses concern the affine families only
        if not (loop == "check_alphabeta_hypotheses" and case == "missing_label")
    ],
)
def test_loops_reject_a_bad_entry_state(loop, case):
    spec, bad = BAD_ENTRIES[case]
    with pytest.raises(OutOfDomain) as exc:
        ENTRY_LOOPS[loop](systems.make_system(spec), bad)
    assert str(exc.value) == f"{bad!r} is not a state of this system"


def _pm_limit(sys, x, cap=64):
    window = systems.SetWindow([1, 2, 3] if sys.is_affine else sys.states())
    trunc = operators.build_truncation(sys, window)
    return operators.verify_pm_limit(trunc, {0: 1}, x, cap)


def test_pm_limit_rejects_a_bad_target_state():
    collatz = systems.make_system(systems.collatz())
    # True equals the window state 1, so only the domain check can catch it
    with pytest.raises(OutOfDomain, match="^True is not a state of this system$"):
        _pm_limit(collatz, True)
    for sys, bad in ((collatz, 0), (collatz, 2.5), (systems.make_system(SWAP), "z")):
        with pytest.raises(InvalidSpec, match=f"^{bad!r} is not in the window$"):
            _pm_limit(sys, bad)


def test_entry_state_is_checked_before_any_step():
    collatz = systems.make_system(systems.collatz())
    for run in (
        lambda: orbits.orbit_iterate(collatz, 0, 0),
        lambda: coding.coding_prefix(collatz, 0, 0),
        lambda: words.check_separating(collatz, 0, 0),
        lambda: coding.verify_tuc_window(collatz, _at(0), cap=0),
        lambda: coding.check_alphabeta_hypotheses(collatz, _at(4.0), horizon=1),
        lambda: orbits.invariant_closure(collatz, [0], _at(0), node_budget=0),
    ):
        with pytest.raises(OutOfDomain):
            run()
