"""Branch words: aperiodicity, affine composition, cycles, condition checks."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from branchdyn import battery, orbits, systems, words
from branchdyn.errors import (
    IdentityComposition,
    InvalidSpec,
    NotACycle,
    NotAffineFamily,
)

from conftest import (
    all_words_cycles,
    closed_tables,
    fraction_compose,
    fraction_fixed_point,
    finite_uniqueness_oracle,
    fixed_words_oracle,
    injective_table,
    uniqueness_oracle,
)

F = Fraction


def sys_of(spec):
    return systems.make_system(spec)


short_words = st.lists(
    st.integers(min_value=1, max_value=2), min_size=1, max_size=10
).map(tuple)


# -- aperiodicity ---------------------------------------------------------------


def test_aperiodicity_frozen():
    assert words.is_aperiodic((1, 2, 2))
    assert not words.is_aperiodic((1, 2, 1, 2))
    assert words.is_aperiodic((1,))
    assert not words.is_aperiodic((2, 2))
    assert not words.is_aperiodic(())


@given(short_words)
def test_aperiodicity_matches_rotation_oracle(w):
    m = len(w)
    rotations = {tuple(w[j:] + w[:j]) for j in range(1, m)}
    assert words.is_aperiodic(w) == (tuple(w) not in rotations)


def test_lyndon_word_counts():
    # necklace counts over a 2-letter alphabet: (1/n) sum mu(d) 2^(n/d)
    per_length = {}
    for w in words.lyndon_words(2, 8):
        per_length.setdefault(len(w), []).append(w)
    assert [len(per_length[n]) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


def test_lyndon_words_are_strictly_minimal_rotations():
    for w in words.lyndon_words(2, 7):
        rots = [w[j:] + w[:j] for j in range(1, len(w))]
        assert all(w < r for r in rots), w


def test_word_validation():
    with pytest.raises(InvalidSpec):
        words.check_word((), 2)
    with pytest.raises(InvalidSpec):
        words.check_word((1, 3), 2)
    # True == 1, but a symbol is an int, as a state is
    with pytest.raises(InvalidSpec, match="^symbol True outside 1..2$"):
        words.check_word((True, 2), 2)
    assert words.check_word([2, 1], 2) == (2, 1)


# -- affine composition -----------------------------------------------------------


def test_compose_affine_frozen(collatz, five_x_one):
    m = words.compose_affine(collatz, (1, 2, 2))
    assert (m.a, m.b) == (F(3, 4), F(1, 4))
    m = words.compose_affine(collatz, (2,))
    assert (m.a, m.b) == (F(1, 2), 0)
    m = words.compose_affine(five_x_one, (1, 2))
    assert (m.a, m.b) == (F(5, 2), F(1, 2))


def test_compose_affine_rejects_non_affine(swap1):
    with pytest.raises(NotAffineFamily):
        words.compose_affine(swap1, (1,))


@given(short_words)
def test_compose_matches_two_point_interpolation(w):
    # independent route: evaluate the exact branch maps at 0 and 1,
    # then read off slope and intercept
    sys = sys_of(systems.collatz())
    m = words.compose_affine(sys, w)

    def fold(x: Fraction) -> Fraction:
        for i in w:
            a, b = sys.branch_affine(i)
            x = a * x + b
        return x

    b = fold(F(0))
    a = fold(F(1)) - b
    assert (m.a, m.b) == (a, b)


@given(short_words, short_words)
def test_concatenation_composes(w1, w2):
    sys = sys_of(systems.QxPlusD(5, 3))
    whole = words.compose_affine(sys, w1 + w2)
    first = words.compose_affine(sys, w1)
    second = words.compose_affine(sys, w2)
    # f_{w1 w2} = f_{w2} o f_{w1}: x -> a2 (a1 x + b1) + b2
    assert (whole.a, whole.b) == (second.a * first.a, second.a * first.b + second.b)


# -- fixed points -------------------------------------------------------------------


def test_fixed_points_frozen(collatz):
    assert words.fixed_point_of_word(collatz, (1, 2, 2)) == 1
    assert words.fixed_point_of_word(collatz, (1, 2)) is None  # x = -1
    assert words.fixed_point_of_word(sys_of(systems.QxPlusD(3, 7)), (1, 2, 2)) == 7
    assert words.fixed_point_of_word(sys_of(systems.QxPlusD(7, 1)), (1, 2, 2, 2)) == 1


def test_3x_plus_d_law():
    # d -> 3d+d = 4d -> 2d -> d for every odd d
    for d in (1, 3, 5, 7, 9):
        sys = sys_of(systems.QxPlusD(3, d))
        assert words.fixed_point_of_word(sys, (1, 2, 2)) == d


def test_integer_solution_failing_replay_is_rejected():
    # f(n) = n+1 off multiples of 3, n/3 on them; the word (1,1,3)
    # composes to x/3 + 2/3 with affine fixed point 1, but the orbit of
    # 1 visits 2, which sits in branch 2, not branch 1
    sys = sys_of(systems.AlphaBeta(3, (1, 1), (1, 1)))
    m = words.compose_affine(sys, (1, 1, 3))
    assert (m.a, m.b) == (F(1, 3), F(2, 3))
    assert m.b / (1 - m.a) == 1
    assert words.replay_word(sys, 1, (1, 1, 3)) is None
    assert words.fixed_point_of_word(sys, (1, 1, 3)) is None


def test_slope_one_nonzero_shift_has_no_fixed_point():
    # (2x+2)/2 = x+1: slope one, shift one
    sys = sys_of(systems.AlphaBeta(2, (2,), (2,)))
    m = words.compose_affine(sys, (1, 2))
    assert (m.a, m.b) == (1, 1)
    assert words.fixed_point_of_word(sys, (1, 2)) is None


def test_identity_composition_is_flagged():
    # no validated affine family composes to the identity, so exercise
    # the guard through a minimal affine stand-in
    class Stub:
        k = 2
        is_affine = True
        _affine = ((2, 0),)  # branch 1 doubles; branch 2 halves

    with pytest.raises(IdentityComposition):
        words.fixed_point_of_word(Stub(), (1, 2))


@pytest.mark.parametrize(
    "spec",
    [
        systems.collatz(),
        systems.QxPlusD(5, 1),
        systems.QxPlusD(7, 3),
        systems.AlphaBeta(3, (4, 4), (2, 1)),
        systems.AlphaBeta(3, (1, 1), (1, 1)),
    ],
)
@given(st.data())
def test_fixed_point_matches_fraction_oracle(spec, data):
    # a random word rarely has a fixed point, so half the draws take a
    # rotated power of the branch word of a cycle some small state enters
    sys = sys_of(spec)
    start = data.draw(st.integers(min_value=1, max_value=100))
    cyc = orbits.orbit_iterate(sys, start, cap=500).cycle
    if cyc and data.draw(st.booleans()):
        w = tuple(sys.branch_of(s) for s in cyc) * data.draw(st.integers(1, 3))
        j = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        w = w[j:] + w[:j]
    else:
        w = tuple(data.draw(
            st.lists(st.integers(1, sys.k), min_size=1, max_size=10)
        ))
    assert words.fixed_point_of_word(sys, w) == fraction_fixed_point(sys, w)


def test_replay_word(collatz):
    assert words.replay_word(collatz, 1, (1, 2, 2)) == 1
    assert words.replay_word(collatz, 3, (1, 2)) == 5
    assert words.replay_word(collatz, 3, (2,)) is None  # 3 is odd


# -- cycle enumeration -----------------------------------------------------------------


def orbit_cycle_oracle(sys, bound, cap=10**4):
    """Collect cycles by bare iteration from every start <= bound."""
    found = set()
    for n in range(1, bound + 1):
        rec = orbits.orbit_iterate(sys, n, cap=cap)
        if rec.entered_cycle:
            found.add(rec.cycle)
    return found


def test_collatz_census_matches_orbit_oracle(collatz):
    rep = words.enumerate_cycles(collatz, max_len=20)
    assert [(r.word, r.cycle) for r in rep.cycles] == [((1, 2, 2), (1, 4, 2))]
    assert orbit_cycle_oracle(collatz, 10**4) == {(1, 4, 2)}


def test_5x_plus_1_census(five_x_one):
    rep = words.enumerate_cycles(five_x_one, max_len=12)
    starts = sorted(r.cycle[0] for r in rep.cycles)
    lengths = sorted(r.length for r in rep.cycles)
    assert starts == [1, 13, 17]
    assert lengths == [7, 10, 10]
    assert orbit_cycle_oracle(five_x_one, 2000) == {r.cycle for r in rep.cycles}


def test_mersenne_cycle():
    rep = words.enumerate_cycles(sys_of(systems.mersenne(3)), max_len=5)
    assert [(r.word, r.cycle) for r in rep.cycles] == [((1, 2, 2, 2), (1, 8, 4, 2))]


def test_necklace_toggle_gives_same_cycles(five_x_one):
    reps = words.enumerate_cycles(five_x_one, max_len=10)
    full = all_words_cycles(five_x_one, max_len=10)
    assert {c for c, _ in full} == {r.cycle for r in reps.cycles}
    assert reps.words_tried < 2**11 - 2  # every word of length <= 10


def admissible_lyndon_oracle(sys, max_len):
    """Filter lyndon_words by the search's two rules, solve the survivors
    through Fractions, and return (survivor count, {(cycle, word)}).

    The successor of a residue i < k is read off the orbit of the state
    i itself; a word stays only while its exact composed slope is below
    the largest denominator the remaining length could still add.
    """
    k = sys.k
    succ = {i: sys.branch_of(sys.apply(i)) for i in range(1, k)}
    kept, found = 0, set()
    for w in words.lyndon_words(k, max_len):
        m = len(w)
        if any(w[j] < k and succ[w[j]] != w[(j + 1) % m] for j in range(m)):
            continue
        if fraction_compose(sys, w)[0] >= k ** (max_len - m):
            continue
        kept += 1
        x = fraction_fixed_point(sys, w)
        if x is not None:
            cyc = orbits.orbit_iterate(sys, x, cap=m).cycle
            found.add((cyc, tuple(sys.branch_of(s) for s in cyc)))
    return kept, found


def assert_search_matches_oracles(sys, max_len):
    rep = words.enumerate_cycles(sys, max_len)
    kept, found = admissible_lyndon_oracle(sys, max_len)
    assert {(r.cycle, r.word) for r in rep.cycles} == all_words_cycles(sys, max_len)
    assert {(r.cycle, r.word) for r in rep.cycles} == found
    assert rep.words_tried == kept


@pytest.mark.parametrize(
    "spec, max_len",
    [
        (systems.collatz(), 14),
        (systems.QxPlusD(5, 1), 14),
        (systems.QxPlusD(7, 3), 14),
        (systems.QxPlusD(1, 1), 14),
        (systems.mersenne(3), 14),
        (systems.AlphaBeta(3, (4, 4), (2, 1)), 9),
        (systems.AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1)), 6),
    ],
)
def test_necklace_search_matches_oracles(spec, max_len):
    assert_search_matches_oracles(sys_of(spec), max_len)


@st.composite
def small_alphabeta(draw, max_k=4, max_coeff=9):
    k = draw(st.integers(min_value=2, max_value=max_k))
    coeff = st.integers(min_value=1, max_value=max_coeff)
    alpha = tuple(draw(coeff) for _ in range(k - 1))
    beta = tuple(draw(coeff) for _ in range(k - 1))
    return systems.AlphaBeta(k, alpha, beta)


@given(small_alphabeta(), st.integers(min_value=1, max_value=8))
def test_necklace_search_matches_oracles_on_alphabeta(spec, max_len):
    assert_search_matches_oracles(sys_of(spec), max_len)


def test_collatz_to_length_32_finds_only_the_trivial_cycle(collatz, deadline):
    deadline(10)
    rep = words.enumerate_cycles(collatz, max_len=32)
    assert [r.cycle for r in rep.cycles] == [(1, 4, 2)]


def test_5x_plus_1_to_length_24(five_x_one):
    rep = words.enumerate_cycles(five_x_one, max_len=24)
    assert sorted(r.cycle[0] for r in rep.cycles) == [1, 13, 17]


def test_alphabeta_to_length_16():
    sys = sys_of(systems.AlphaBeta(3, (4, 4), (2, 1)))
    rep = words.enumerate_cycles(sys, max_len=16)
    assert sorted(r.cycle[0] for r in rep.cycles) == [1, 7]


@pytest.mark.parametrize(
    "spec, max_len, tried, pruned",
    [
        # a = (4, 4), b = (2, 1) mod 3: both expanding branches force a
        # 3.  The walk solves 3, 13, 133, 23, 233; it cuts the Lyndon
        # words 1 and 2 at the wraparound, the symbols 1 and 2 after "1"
        # and 2 after "2" by forced successor, and 131, 132, 232 by the
        # denominator (slope 16/3 with no length left to divide it down).
        (systems.AlphaBeta(3, (4, 4), (2, 1)), 3, 5, (3, 2, 3)),
        # a = (1, 1), b = (1, 2) mod 3: 1 forces 2 and 2 forces 1, which
        # lies below the prenecklace bound after "2", so both of the
        # symbols 2 and 3 there are cut; 12 has slope 1 and no room left.
        (systems.AlphaBeta(3, (1, 1), (1, 2)), 2, 1, (4, 2, 1)),
    ],
)
def test_pruned_counts_frozen(spec, max_len, tried, pruned):
    rep = words.enumerate_cycles(sys_of(spec), max_len)
    assert rep.words_tried == tried
    reasons = ("forced_successor", "wraparound", "denominator")
    assert rep.pruned == dict(zip(reasons, pruned))


def test_every_enumerated_cycle_replays(five_x_one):
    rep = words.enumerate_cycles(five_x_one, max_len=12)
    for r in rep.cycles:
        x = r.cycle[0]
        assert words.replay_word(five_x_one, x, r.word) == x
        assert words.is_aperiodic(r.word)


# -- separating condition ------------------------------------------------------------


def test_separating_at_one(collatz):
    rep = words.check_separating(collatz, 1, cap=100)
    assert rep.periodic and rep.period == 3
    assert rep.word == (1, 2, 2)
    assert rep.aperiodic and rep.passed


def test_separating_not_periodic(collatz):
    rep = words.check_separating(collatz, 7, cap=1000)
    assert not rep.periodic
    assert not rep.passed


def test_separating_fails_on_swap(swap1):
    rep = words.check_separating(swap1, 1, cap=10)
    assert rep.periodic and rep.period == 2
    assert rep.word == (1, 1)
    assert not rep.aperiodic and not rep.passed


@given(st.data())
def test_separating_matches_the_orbit_oracle(data):
    # a random table: tails into cycles, and periodic words when k = 1
    n = data.draw(st.integers(min_value=1, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=3))
    branch, image = injective_table(data.draw, n, k)
    sys = systems.make_system(systems.FiniteTable.make(branch, image, k=k))
    cap = data.draw(st.integers(min_value=0, max_value=12))
    for x in branch:
        rep = words.check_separating(sys, x, cap)
        rec = orbits.orbit_iterate(sys, x, cap)
        periodic = rec.entry_index == 0
        word = tuple(branch[s] for s in rec.trajectory) if periodic else ()
        assert (rep.periodic, rep.word) == (periodic, word)
        assert rep.aperiodic == (periodic and words.is_aperiodic(word))


def test_separating_stops_on_a_cycle_without_x(collatz, deadline):
    # 7 runs into 1 -> 4 -> 2 -> 1; the walk stops there, not at the cap
    deadline(2)
    rep = words.check_separating(collatz, 7, cap=10**7)
    assert not rep.periodic and rep.period == 0


def test_separating_memory_stays_flat(five_x_one):
    # 7 diverges under 5x+1; a walk that stored every state would peak
    # at about 23 MB here, since the states grow by about 0.1 bit a step
    tracemalloc.start()
    try:
        rep = words.check_separating(five_x_one, 7, cap=5 * 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.periodic
    assert peak < 5 * 10**6


# -- uniqueness condition ------------------------------------------------------------


def test_uniqueness_collatz(collatz):
    rep = words.check_uniqueness(collatz, max_len=12)
    assert rep.passed
    assert rep.scan_bound == words.UNIQUENESS_SCAN_BOUND == 1000
    # 1, 2 and 4 are the only fixed states: the three rotations of 1 2 2
    # and their powers to length 12
    assert rep.fixed_words == 12


def test_uniqueness_alphabeta(alphabeta3):
    assert words.check_uniqueness(alphabeta3, max_len=8).passed


def test_uniqueness_fails_on_swap(swap1):
    rep = words.check_uniqueness(swap1, max_len=2)
    assert not rep.passed
    assert ((1, 1), (1, 2)) in rep.violations
    assert rep.scan_bound is None


def test_uniqueness_needs_an_affine_or_finite_system():
    with pytest.raises(NotAffineFamily):
        words.check_uniqueness(sys_of(systems.SymbolicShift(2)), 3)


@pytest.mark.parametrize("bound", [True, 2.5, "3"])
def test_uniqueness_refuses_a_scan_bound_that_is_no_int(collatz, bound):
    # refused by check_uniqueness itself, not as a window 1..bound
    with pytest.raises(InvalidSpec, match=f"^need an int scan_bound, got {bound!r}$"):
        words.check_uniqueness(collatz, 3, scan_bound=bound)


def test_uniqueness_with_scan_guard(collatz):
    # algebra and brute replay agree on a small window
    assert words.check_uniqueness(collatz, max_len=6, scan_bound=200).passed


odd_digits = st.sampled_from((1, 3, 5, 7, 9))


# the default scan of 1..UNIQUENESS_SCAN_BOUND makes the oracle replay
# every word from 1000 states, so the words stay short
@given(odd_digits, odd_digits, st.integers(min_value=1, max_value=4))
def test_uniqueness_matches_the_oracle_on_qxd(q, d, max_len):
    sys = sys_of(systems.QxPlusD(q, d))
    assert words.check_uniqueness(sys, max_len) == uniqueness_oracle(
        sys, max_len, words.UNIQUENESS_SCAN_BOUND
    )


@given(small_alphabeta(), st.integers(min_value=1, max_value=2))
def test_uniqueness_matches_the_oracle_on_alphabeta(spec, max_len):
    sys = sys_of(spec)
    assert words.check_uniqueness(sys, max_len) == uniqueness_oracle(
        sys, max_len, words.UNIQUENESS_SCAN_BOUND
    )


@given(
    st.one_of(
        st.builds(systems.QxPlusD, odd_digits, odd_digits),
        small_alphabeta().filter(lambda spec: spec.k <= 3),
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=40),
)
def test_uniqueness_with_scan_matches_the_oracle(spec, max_len, scan_bound):
    sys = sys_of(spec)
    rep = words.check_uniqueness(sys, max_len, scan_bound=scan_bound)
    assert rep == uniqueness_oracle(sys, max_len, scan_bound)


@given(st.data())
def test_uniqueness_matches_the_oracle_on_tables(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=3))
    branch, image = injective_table(data.draw, n, k)
    sys = systems.make_system(systems.FiniteTable.make(branch, image, k=k))
    max_len = data.draw(st.integers(min_value=1, max_value=7))
    assert words.check_uniqueness(sys, max_len) == finite_uniqueness_oracle(sys, max_len)


def fixed_states(fixed):
    return {word: sorted(ys) for word, ys in fixed.items()}


odd_to_15 = st.integers(min_value=0, max_value=7).map(lambda i: 2 * i + 1)


# slopes up to 12 often share a factor with k = 3, 4 or 6 (gcd failures)
@given(
    st.one_of(
        st.builds(systems.QxPlusD, odd_to_15, odd_to_15),
        small_alphabeta(max_k=7, max_coeff=12),
    ),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=300),
)
def test_leaping_walk_matches_the_single_step_walk(spec, max_len, scan_bound):
    sys = sys_of(spec)
    fixed = words._fixed_words(sys, systems.IntWindow(1, scan_bound), max_len)
    oracle = fixed_words_oracle(sys, range(1, scan_bound + 1), max_len)
    assert fixed_states(fixed) == fixed_states(oracle)


@given(closed_tables(), st.integers(min_value=1, max_value=16))
def test_leaping_walk_matches_the_single_step_walk_on_tables(table, max_len):
    sys = systems.make_system(systems.FiniteTable.make(*table))
    fixed = words._fixed_words(sys, None, max_len)
    assert fixed_states(fixed) == fixed_states(fixed_words_oracle(sys, sys.states(), max_len))


def test_uniqueness_scan_flags_a_wrong_fold(collatz, monkeypatch):
    # folded as 5x+1, the words fixing 1, 2 and 4 have no positive
    # integer solution; the scan, replaying collatz itself, finds them,
    # and they are listed in (length, word) order
    monkeypatch.setattr(words, "_expanding_rows", lambda sys: [(5, 1)])
    rep = words.check_uniqueness(collatz, max_len=3, scan_bound=4)
    assert rep.violations == (((1, 2, 2), (1,)), ((2, 1, 2), (2,)), ((2, 2, 1), (4,)))
    assert rep == uniqueness_oracle(collatz, 3, 4, branches=[(F(5), F(1)), (F(1, 2), F(0))])


def test_uniqueness_reports_an_identity_fold(collatz, monkeypatch):
    # folded as 4x, a word with one expanding symbol and two divisions is
    # the identity: each walked word fixing 1, 2 or 4 is reported as such
    monkeypatch.setattr(words, "_expanding_rows", lambda sys: [(4, 0)])
    rep = words.check_uniqueness(collatz, max_len=3, scan_bound=4)
    assert rep.violations == tuple((w, ("identity",)) for w in ((1, 2, 2), (2, 1, 2), (2, 2, 1)))
    assert rep == uniqueness_oracle(collatz, 3, 4, branches=[(F(4), F(0)), (F(1, 2), F(0))])


def test_uniqueness_scan_shares_the_window_budget(collatz, monkeypatch):
    monkeypatch.setattr(systems, "MAX_WINDOW_STATES", 5)
    assert words.check_uniqueness(collatz, 3, scan_bound=5).passed
    with pytest.raises(InvalidSpec, match="^window holds 6 states; at most MAX_WINDOW_STATES = 5"):
        words.check_uniqueness(collatz, 3, scan_bound=6)


def test_uniqueness_sweep_catches_one_wrong_fold(monkeypatch):
    # check 4 folds collatz alone as 5x+1: its first violation in
    # (length, word) order is the word of the fixed state 1
    true_rows = words._expanding_rows
    monkeypatch.setattr(
        words,
        "_expanding_rows",
        lambda sys: [(5, 1)] if sys.spec == systems.collatz() else true_rows(sys),
    )
    result = battery.check_uniqueness_sweep()
    assert not result.passed
    assert result.detail == "q=3 d=1: word (1, 2, 2) fixes [1]"


def test_aperiodic_word_check_catches_a_wrong_period(monkeypatch):
    # check 5 reads each cycle's word through is_aperiodic alone; a period
    # finder that calls every word a power of one symbol must fail it
    monkeypatch.setattr(words, "_primitive_period", lambda seq: 1)
    result = battery.check_aperiodic_cycle_words()
    assert not result.passed
    assert "cycle (1, 4, 2): word (1, 2, 2) periodic" in result.detail.split("; ")


def test_cycle_checks_catch_a_replay_that_never_matches(monkeypatch):
    # checks 2 and 3 validate every solved fixed point by replaying its
    # word; a replay that never returns the start must fail both
    monkeypatch.setattr(words, "replay_word", lambda sys, x, word: None)
    result = battery.check_qx_plus_one_cycles()
    assert not result.passed
    assert "5x+1 cycles through []" in result.detail.split("; ")
    result = battery.check_3x_plus_d_fixed_points()
    assert not result.passed
    assert "d=1: fixed point None" in result.detail.split("; ")


# -- unifix equivalence ---------------------------------------------------------------


def test_unifix_frozen(collatz):
    rep = words.verify_unifix(collatz, (1, 2, 2), 3)
    assert rep.passed
    assert rep.fixed_point_word == 1 and rep.fixed_point_power == 1

    rep = words.verify_unifix(collatz, (1, 2), 4)
    assert rep.passed
    assert rep.fixed_point_word is None and rep.fixed_point_power is None


@given(short_words, st.integers(min_value=1, max_value=5))
def test_unifix_property(w, m):
    sys = sys_of(systems.collatz())
    rep = words.verify_unifix(sys, w, m)
    assert rep.passed
    if m == 1:
        assert rep.fixed_point_word == rep.fixed_point_power


def test_unifix_accepts_proper_powers(five_x_one):
    assert words.verify_unifix(five_x_one, (2, 2), 2).passed


def test_unifix_refuses_power_zero(collatz):
    with pytest.raises(InvalidSpec, match="^need m >= 1, got 0$"):
        words.verify_unifix(collatz, (1, 2, 2), 0)


def test_power_word_check_catches_a_solver_that_gives_up(monkeypatch):
    # check 6 solves a word and its power apart; a solver that finds
    # nothing past length 6 loses the power's fixed point
    true_solve = words.fixed_point_of_word
    monkeypatch.setattr(
        words,
        "fixed_point_of_word",
        lambda sys, word: None if len(tuple(word)) > 6 else true_solve(sys, word),
    )
    result = battery.check_power_word_agreement()
    assert not result.passed
    assert result.detail.split("; ")[0] == "word 2 2 1 power 5: word fixes 4, power fixes none"


# -- cycle word extraction ---------------------------------------------------------------


def test_cycle_word_of_collatz_cycle(collatz):
    rep = words.cycle_word_aperiodicity(collatz, (1, 4, 2))
    assert rep.word == (1, 2, 2)
    assert rep.aperiodic


def test_cycle_word_of_5x1_cycle(five_x_one):
    rec = orbits.orbit_iterate(five_x_one, 13, cap=20)
    rep = words.cycle_word_aperiodicity(five_x_one, rec.cycle)
    assert rep.aperiodic


def test_fixed_state_cycle():
    sys = sys_of(systems.FiniteTable.make({1: 1}, {1: 1}, k=1))
    rep = words.cycle_word_aperiodicity(sys, (1,))
    assert rep.word == (1,) and rep.aperiodic


def test_cycle_word_of_a_swap_is_a_proper_power(swap1):
    # 1 and 2 share the coding 1 1 1 ..., so their cycle's word is periodic
    rep = words.cycle_word_aperiodicity(swap1, (1, 2))
    assert (rep.word, rep.aperiodic, rep.passed) == ((1, 1), False, False)


def test_not_a_cycle_is_rejected(collatz):
    with pytest.raises(NotACycle):
        words.cycle_word_aperiodicity(collatz, (1, 5))
    with pytest.raises(NotACycle):
        words.cycle_word_aperiodicity(collatz, (1, 4))
    with pytest.raises(NotACycle):
        words.cycle_word_aperiodicity(collatz, ())
    with pytest.raises(NotACycle, match="^repeated state in cycle$"):
        words.cycle_word_aperiodicity(collatz, (1, 4, 2, 1))
