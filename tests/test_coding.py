"""Symbolic codings, distinguishing prefixes, residue towers."""

import dataclasses
from math import gcd
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from branchdyn import battery, coding, operators, systems
from branchdyn.errors import (
    DepthExhausted,
    InvalidSpec,
    NotAffineFamily,
    PreconditionUnmet,
)
from conftest import (
    chase_oracle,
    closed_tables,
    digit_tower_apply,
    distinguishing_prefix_length,
    state_digits,
)


# -- coding prefixes ---------------------------------------------------------


def test_coding_prefix_frozen(collatz, swap1):
    assert coding.coding_prefix(collatz, 1, 6) == (1, 2, 2, 1, 2, 2)
    assert coding.coding_prefix(collatz, 5, 6) == (1, 2, 2, 2, 2, 1)
    assert coding.coding_prefix(swap1, 1, 4) == (1, 1, 1, 1)
    assert coding.coding_prefix(swap1, 2, 4) == (1, 1, 1, 1)


def test_coding_prefix_refuses_a_negative_length(collatz):
    with pytest.raises(InvalidSpec, match="^need length >= 0$"):
        coding.coding_prefix(collatz, 5, -1)


def test_coding_prefix_is_a_plain_tuple(collatz):
    assert type(coding.coding_prefix(collatz, 5, 3)) is tuple
    assert coding.coding_prefix(collatz, 5, 0) == ()


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=12))
def test_prefix_replay_soundness(x, m):
    sys = systems.make_system(systems.collatz())
    head = coding.coding_prefix(sys, x, m + 1)
    tail = coding.coding_prefix(sys, sys.apply(x), m)
    assert head == (sys.branch_of(x),) + tail


def test_shift_drops_first_symbol(collatz):
    # the shift on prefixes is slicing: x's prefix without its first
    # symbol is the prefix of f(x)
    assert coding.coding_prefix(collatz, 1, 4)[1:] == (2, 2, 1)
    assert coding.coding_prefix(collatz, 1, 6)[1:] == coding.coding_prefix(collatz, 4, 5)


def test_exact_coding_is_eventually_periodic(collatz):
    seq = coding.exact_coding(collatz, 1, 100)
    assert seq == systems.EventuallyPeriodic.make((), (1, 2, 2))
    assert coding.exact_coding(collatz, 5, 100).prefix(6) == (1, 2, 2, 2, 2, 1)


# -- distinguishing prefixes: the pairwise oracle -----------------------------------


def test_distinguishing_length_frozen(collatz, swap1):
    assert distinguishing_prefix_length(collatz, 1, 5, cap=64) == 4
    assert distinguishing_prefix_length(collatz, 1, 2, cap=64) == 1
    assert distinguishing_prefix_length(swap1, 1, 2, cap=512) is None


def test_distinguishing_rejects_equal_states(collatz):
    with pytest.raises(InvalidSpec):
        distinguishing_prefix_length(collatz, 7, 7, cap=8)


def test_distinguishing_length_is_first_difference(collatz):
    # cross-check against direct prefix comparison
    for x in range(1, 60):
        for y in range(x + 1, 60):
            j = distinguishing_prefix_length(collatz, x, y, cap=128)
            px = coding.coding_prefix(collatz, x, 128)
            py = coding.coding_prefix(collatz, y, 128)
            diffs = [i + 1 for i in range(128) if px[i] != py[i]]
            assert j == (diffs[0] if diffs else None)


def test_tuc_window_collatz(collatz):
    rep = coding.verify_tuc_window(collatz, (1, 300), cap=256)
    assert rep.passed
    assert rep.undistinguished == ()
    assert rep.max_prefix_length >= 4


def test_tuc_window_5x3():
    sys = systems.make_system(systems.QxPlusD(5, 3))
    rep = coding.verify_tuc_window(sys, (1, 500), cap=256)
    assert rep.passed and rep.undistinguished == ()


def test_tuc_fails_on_swap(swap1):
    rep = coding.verify_tuc_window(swap1, (1, 2), cap=64)
    assert not rep.passed
    assert rep.undistinguished == ((1, 2),)


@given(closed_tables(), st.integers(min_value=0, max_value=12))
def test_tuc_window_matches_the_pairwise_oracle(table, cap):
    branch, image, k = table
    sys = systems.make_system(systems.FiniteTable.make(branch, image, k=k))
    rep = coding.verify_tuc_window(sys, None, cap=cap)
    states = sys.states()
    lengths = {
        (x, y): distinguishing_prefix_length(sys, x, y, cap)
        for i, x in enumerate(states)
        for y in states[i + 1:]
    }
    merged = {pair for pair, j in lengths.items() if j is None}
    grouped = {(x, y) for g in rep.undistinguished for x in g for y in g if x < y}
    assert rep.pairs == len(lengths)
    assert rep.passed == (not merged)
    assert grouped == merged
    expected = max(lengths.values(), default=0) if not merged else cap
    assert rep.max_prefix_length == expected


@pytest.mark.parametrize("window", [(5, 5), systems.SetWindow([])], ids=["one", "empty"])
@pytest.mark.parametrize("cap", [0, 1, 64])
def test_tuc_window_without_a_pair_passes(collatz, window, cap):
    rep = coding.verify_tuc_window(collatz, window, cap=cap)
    assert rep.passed and rep.pairs == 0
    assert rep.max_prefix_length == 0 and rep.undistinguished == ()


class _RepeatsLo(systems.IntWindow):
    """lo..hi with lo listed twice, in its states and in its class sizes."""

    def __init__(self, lo, hi):
        super().__init__(lo, hi)
        self._states = (lo, *self._states)

    def size(self):
        return super().size() + 1

    def _class_size(self, M, r):
        return super()._class_size(M, r) + ((self.lo - r) % M == 0)


def test_check_7_catches_a_window_that_repeats_a_state(monkeypatch):
    # a state listed twice shares its whole coding with itself: the class
    # walk keeps lo's class alive to the cap, and the refinement it hands
    # the window to can never separate the pair
    monkeypatch.setattr(systems, "IntWindow", _RepeatsLo)
    result = battery.check_coding_injectivity()
    assert not result.passed
    assert "3x+1: 1 groups undistinguished" in result.detail.split("; ")


# -- the class walk against the refinement ----------------------------------------


@st.composite
def coprime_affine_specs(draw):
    """qx+d, or α–β with k in 2..5, every slope coprime to k."""
    if draw(st.booleans()):
        odd = st.integers(min_value=0, max_value=9).map(lambda v: 2 * v + 1)
        return systems.QxPlusD(draw(odd), draw(odd))
    k = draw(st.integers(min_value=2, max_value=5))
    slope = st.integers(min_value=1, max_value=30).filter(lambda a: gcd(a, k) == 1)
    alpha = draw(st.lists(slope, min_size=k - 1, max_size=k - 1))
    beta = draw(st.lists(st.integers(min_value=1, max_value=30), min_size=k - 1,
                         max_size=k - 1))
    return systems.AlphaBeta(k, tuple(alpha), tuple(beta))


# the k = 5 system whose window 1..200 stays merged at cap 64
STUCK5 = systems.AlphaBeta(5, (2, 3, 7, 9), (3, 1, 2, 1))


@given(
    spec=coprime_affine_specs(),
    lo=st.integers(min_value=1, max_value=400),
    size=st.integers(min_value=1, max_value=300),
    cap=st.integers(min_value=0, max_value=120),
)
@example(spec=systems.collatz(), lo=5, size=1, cap=64)
@example(spec=systems.collatz(), lo=5, size=2, cap=64)
@example(spec=systems.collatz(), lo=1, size=100, cap=0)
@example(spec=systems.collatz(), lo=1, size=100, cap=1)
@example(spec=STUCK5, lo=1, size=200, cap=64)
# caps one round short of the deepest split (16 and 9 rounds), and at it
@example(spec=systems.collatz(), lo=1, size=300, cap=15)
@example(spec=systems.collatz(), lo=1, size=300, cap=16)
@example(spec=systems.AlphaBeta(3, (4, 4), (2, 1)), lo=1, size=100, cap=8)
@example(spec=systems.AlphaBeta(3, (4, 4), (2, 1)), lo=1, size=100, cap=9)
def test_class_walk_matches_the_refinement(spec, lo, size, cap):
    # a SetWindow of the same states takes the refinement
    sys = systems.make_system(spec)
    rep = coding.verify_tuc_window(sys, (lo, lo + size - 1), cap)
    oracle = coding.verify_tuc_window(sys, systems.SetWindow(range(lo, lo + size)), cap)
    assert dataclasses.replace(rep, window="") == dataclasses.replace(oracle, window="")
    # and the walk itself certifies every passing report
    rounds = coding._class_rounds(sys.k, sys._affine, systems.IntWindow(lo, lo + size - 1), cap)
    assert rounds == (rep.max_prefix_length if rep.passed else None)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: coding.verify_tuc_window(c, (1, 10), True),
        lambda c: coding.verify_tuc_window(c, (1, 10), 2.0),
        lambda c: coding.coding_prefix(c, 5, 2.0),
        lambda c: coding.check_alphabeta_hypotheses(c, (1, 10), horizon=2.0),
        lambda c: coding.tower_from_state(2.5, 2, 3),
        lambda c: coding.tower_from_state(5, 2, 3.0),
        lambda c: coding.ResidueTower(2, 3, 1.5),
        lambda c: coding.ResidueTower(2, True, 1),
        lambda c: coding.verify_recovery_lemma(c, 1, 9, 2.0),
    ],
    ids=["tuc-cap-bool", "tuc-cap-float", "prefix-length", "horizon", "tower-x",
         "tower-depth", "tower-value", "tower-depth-bool", "recovery-j"],
)
def test_counts_that_are_no_ints_are_refused(collatz, call):
    with pytest.raises(InvalidSpec, match="^need an int "):
        call(collatz)


def test_class_walk_lists_no_window_state(collatz, monkeypatch):
    # listing 1..10^6 for the walk peaked at 40 MB; the walk reads the
    # bounds only.  It runs untraced: tracemalloc slows it tenfold, and
    # its stack holds no state of the window
    walk, peaks = coding._class_rounds, []

    def untraced(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        try:
            return walk(*args)
        finally:
            tracemalloc.start()

    monkeypatch.setattr(coding, "_class_rounds", untraced)
    tracemalloc.start()
    try:
        rep = coding.verify_tuc_window(collatz, (1, 10**6))
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.states == 10**6 and rep.max_prefix_length == 38
    assert len(peaks) == 2 and max(peaks) < 10**6


# -- cylinders: a word's residue class cut to a window -----------------------------

PROGRESSION_SPECS = {
    "collatz": systems.collatz(),
    "5x+3": systems.QxPlusD(5, 3),
    "alphabeta3": systems.AlphaBeta(3, (4, 4), (2, 1)),
    "alphabeta5": systems.AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1)),
}


def _members(cut) -> set:
    """The states M*t + r, t0 <= t <= t1, of a progression; none for None."""
    if cut is None:
        return set()
    M, r, t0, t1 = cut
    return {r + M * t for t in range(t0, t1 + 1)}


@pytest.mark.parametrize(
    "window", [(1, 10**4), (37, 5000), (500, 777)], ids=lambda w: f"{w[0]}..{w[1]}"
)
@pytest.mark.parametrize("name", PROGRESSION_SPECS)
def test_progression_is_the_chase(name, window):
    # random words, most of them empty for k = 5, and the prefixes of
    # window states, never empty as a cylinder
    sys = systems.make_system(PROGRESSION_SPECS[name])
    win = systems.IntWindow(*window)
    trunc = operators.build_truncation(sys, win)
    rng = random.Random(f"{name} {window}")
    words = [tuple(rng.randint(1, sys.k) for _ in range(rng.randint(1, 12))) for _ in range(40)]
    words += [coding.coding_prefix(sys, rng.randint(*window), rng.randint(1, 12)) for _ in range(40)]
    for word in words:
        cut = coding._progression(sys.k, sys._affine, win, word)
        chase = {trunc.states[c] for c in chase_oracle(trunc, word)}
        assert _members(cut) == chase, word
        assert (cut is None or cut[2] > cut[3]) == (not chase), word


def test_progression_drops_a_first_image_outside_the_window(collatz):
    # on 500..777 every odd state's image 3x+1 exceeds 777: the class of
    # the word 1 holds 139 window states, and none survives the cut
    win = systems.IntWindow(500, 777)
    M, r, t0, t1 = coding._progression(2, collatz._affine, win, (1,))
    assert (M, r) == (2, 1) and t0 > t1
    assert _members(coding._progression(2, collatz._affine, systems.IntWindow(1, 10**4), (1,))) == set(
        range(1, 3334, 2)
    )


@pytest.mark.parametrize("name", PROGRESSION_SPECS)
def test_progression_on_one_state_windows(name):
    sys = systems.make_system(PROGRESSION_SPECS[name])
    rng = random.Random(name)
    for x in (1, 2, 7, 9, 10**4):
        win = systems.IntWindow(x, x)
        trunc = operators.build_truncation(sys, win)
        words = [coding.coding_prefix(sys, x, m) for m in range(1, 4)]
        words += [tuple(rng.randint(1, sys.k) for _ in range(rng.randint(1, 12))) for _ in range(20)]
        for word in words:
            chase = {trunc.states[c] for c in chase_oracle(trunc, word)}
            assert _members(coding._progression(sys.k, sys._affine, win, word)) == chase, (x, word)


@pytest.mark.parametrize("name", PROGRESSION_SPECS)
def test_progression_on_a_window_no_truncation_reaches(name, deadline):
    # 1..10^18 has no truncation; a progression's sampled members must
    # carry the word, and a state whose images stay low lies in its own
    deadline(1)
    sys = systems.make_system(PROGRESSION_SPECS[name])
    win = systems.IntWindow(1, 10**18)
    rng = random.Random(name)
    for _ in range(100):
        x = rng.randint(1, 10**6)
        word = coding.coding_prefix(sys, x, rng.randint(1, 12))
        M, r, t0, t1 = coding._progression(sys.k, sys._affine, win, word)
        assert (x - r) % M == 0 and t0 <= (x - r) // M <= t1
        for t in {t0, t1, rng.randint(t0, t1)}:
            assert 1 <= r + M * t <= 10**18
            assert coding.coding_prefix(sys, r + M * t, len(word)) == word
        word = tuple(rng.randint(1, sys.k) for _ in range(rng.randint(1, 12)))
        cut = coding._progression(sys.k, sys._affine, win, word)
        if cut is not None and cut[2] <= cut[3]:
            M, r, t0, t1 = cut
            for t in {t0, t1, rng.randint(t0, t1)}:
                assert coding.coding_prefix(sys, r + M * t, len(word)) == word


# -- section hypotheses -----------------------------------------------------------


def test_hypotheses_hold_for_qxd(collatz):
    rep = coding.check_alphabeta_hypotheses(collatz, (1, 500), horizon=2)
    assert rep.gcd_passed and rep.multiple_passed
    assert rep.passed


def test_hypotheses_alphabeta_window(alphabeta3):
    rep = coding.check_alphabeta_hypotheses(alphabeta3, (1, 10**4), horizon=3)
    assert rep.gcd_passed  # gcd(2,3) = gcd(4,3) = 1
    # multiples of 3 appear within every length-3 orbit segment here
    assert rep.multiple_passed


@pytest.mark.parametrize("horizon", [0, -1])
def test_hypotheses_need_a_positive_horizon(collatz, horizon):
    with pytest.raises(InvalidSpec, match=f"^need horizon >= 1, got {horizon}$"):
        coding.check_alphabeta_hypotheses(collatz, (1, 10), horizon=horizon)


def test_hypotheses_catch_shared_factor():
    sys = systems.make_system(systems.AlphaBeta(3, (3, 2), (1, 1)))
    rep = coding.check_alphabeta_hypotheses(sys, (1, 100), horizon=3)
    assert not rep.gcd_passed
    assert 1 in rep.gcd_failures


# -- residue towers -----------------------------------------------------------------


def test_tower_digits_frozen():
    assert coding.tower_from_state(13, 2, 4).digits == (1, 1, 5, 13)
    assert coding.tower_from_state(16, 2, 4).digits == (0, 0, 0, 0)
    assert coding.tower_from_state(1, 2, 4).digits == (1, 1, 1, 1)


def test_tower_shape_is_checked():
    for k, depth, value in ((1, 1, 0), (2, 0, 0), (2, 3, 8), (3, 2, -1)):
        with pytest.raises(InvalidSpec):
            coding.ResidueTower(k, depth, value)
    with pytest.raises(InvalidSpec):
        coding.tower_from_state(5, 0, 3)


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=12),
)
def test_from_digits_round_trips(k, x, depth):
    t = coding.tower_from_state(x, k, depth)
    assert t.digits == state_digits(x, k, depth)
    assert t.value == x % k**depth


def test_tower_apply_affine_branch(collatz):
    t = coding.tower_from_state(13, 2, 4)
    out = coding.tower_apply(collatz, t)
    assert out == coding.tower_from_state(40, 2, 4)
    assert out.depth == 4


def test_tower_apply_division_branch(collatz):
    t = coding.tower_from_state(4, 2, 3)
    out = coding.tower_apply(collatz, t)
    assert out == coding.tower_from_state(2, 2, 2)
    assert out.depth == 2


def test_tower_division_at_depth_one(collatz):
    with pytest.raises(DepthExhausted):
        coding.tower_apply(collatz, coding.tower_from_state(6, 2, 1))


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=8),
)
def test_tower_commutes_with_dynamics_collatz(x, depth):
    sys = systems.make_system(systems.collatz())
    t = coding.tower_from_state(x, 2, depth)
    if x % 2 == 0 and depth == 1:
        with pytest.raises(DepthExhausted):
            coding.tower_apply(sys, t)
        return
    out = coding.tower_apply(sys, t)
    want_depth = depth if x % 2 == 1 else depth - 1
    assert out == coding.tower_from_state(sys.apply(x), 2, want_depth)
    # compatibility invariant after application
    for j in range(out.depth - 1):
        assert out.digits[j + 1] % (2 ** (j + 1)) == out.digits[j]


def test_tower_commutes_for_k3_and_k5():
    systems_k = [
        systems.make_system(systems.AlphaBeta(3, (4, 4), (2, 1))),
        systems.make_system(systems.AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1))),
    ]
    rng = random.Random(5)
    for sys in systems_k:
        k = sys.k
        for _ in range(300):
            x = rng.randint(1, 10**4)
            depth = rng.randint(1, 8)
            t = coding.tower_from_state(x, k, depth)
            if x % k == 0 and depth == 1:
                with pytest.raises(DepthExhausted):
                    coding.tower_apply(sys, t)
                continue
            out = coding.tower_apply(sys, t)
            want_depth = depth if x % k else depth - 1
            assert out == coding.tower_from_state(sys.apply(x), k, want_depth)


def test_tower_apply_needs_coprime_coefficients():
    sys = systems.make_system(systems.AlphaBeta(2, (2,), (1,)))  # gcd(2,2) = 2
    with pytest.raises(PreconditionUnmet):
        coding.tower_apply(sys, coding.tower_from_state(1, 2, 3))


def test_tower_apply_rejects_other_systems(collatz, swap2):
    with pytest.raises(NotAffineFamily):
        coding.tower_apply(swap2, coding.tower_from_state(1, 2, 3))
    with pytest.raises(InvalidSpec, match="tower has k = 3, system has k = 2"):
        coding.tower_apply(collatz, coding.tower_from_state(1, 3, 3))


def test_gcd_precondition_is_per_system():
    # gcd(a_i, 6) for a = 2, 3, 5, 7, 9: branches 1, 2 and 5 fail
    sys = systems.make_system(systems.AlphaBeta(6, (2, 3, 5, 7, 9), (1, 1, 1, 1, 1)))
    assert sys.gcd_failures == (1, 2, 5)
    rep = coding.check_alphabeta_hypotheses(sys, (1, 50))
    assert rep.gcd_failures == (1, 2, 5) and not rep.gcd_passed
    with pytest.raises(PreconditionUnmet) as exc:
        coding.tower_apply(sys, coding.tower_from_state(1, 6, 2))
    assert str(exc.value) == (
        "a_1 = 2 shares a factor with k = 6; the extension to residue "
        "towers needs gcd(a_i, k) = 1"
    )
    assert systems.make_system(systems.collatz()).gcd_failures == ()
    assert systems.make_system(systems.AlphaBeta(3, (4, 4), (2, 1))).gcd_failures == ()
    table = systems.FiniteTable.make({1: 1, 2: 2}, {1: 2, 2: 1}, k=2)
    assert systems.make_system(table).gcd_failures == ()


def test_recovery_reads_the_gcd_precondition():
    sys = systems.make_system(systems.AlphaBeta(2, (2,), (1,)))  # gcd(2,2) = 2
    # 1 and 3 share branch 1 and f(1) = 3, f(3) = 7 agree mod 2
    with pytest.raises(PreconditionUnmet, match=r"^gcd\(a_1, k\) > 1$"):
        coding.verify_recovery_lemma(sys, 1, 3, j=1)


TOWER_SYSTEMS = (
    systems.collatz(),
    systems.AlphaBeta(3, (4, 4), (2, 1)),
    systems.AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1)),
)


def _assert_tower_matches_oracle(sys, tower, steps):
    """Push ``tower`` ``steps`` times through the library and through the
    digit-by-digit oracle, comparing digits and DepthExhausted."""
    digits = tower.digits
    for _ in range(steps):
        try:
            want = digit_tower_apply(sys, digits)
        except DepthExhausted:
            with pytest.raises(DepthExhausted):
                coding.tower_apply(sys, tower)
            return
        tower = coding.tower_apply(sys, tower)
        assert tower.digits == want
        assert tower.depth == len(want)
        digits = want


def test_tower_apply_matches_digit_oracle_sweep():
    for spec in TOWER_SYSTEMS:
        sys = systems.make_system(spec)
        for depth in range(1, 13):
            for x in range(1, 3 * sys.k**2):
                t = coding.tower_from_state(x, sys.k, depth)
                assert t.digits == state_digits(x, sys.k, depth)
                _assert_tower_matches_oracle(sys, t, 1)
        # a multiple of k at depth 1 has no successor tower
        with pytest.raises(DepthExhausted):
            coding.tower_apply(sys, coding.tower_from_state(sys.k, sys.k, 1))


@given(
    st.sampled_from(TOWER_SYSTEMS),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=16),
)
@example(systems.collatz(), 6, 1, 1)
@example(systems.AlphaBeta(3, (4, 4), (2, 1)), 9, 1, 1)
@example(systems.AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1)), 0, 1, 1)
def test_tower_apply_matches_digit_oracle(spec, value, depth, steps):
    sys = systems.make_system(spec)
    k = sys.k
    tower = coding.ResidueTower(k, depth, value % k**depth)
    _assert_tower_matches_oracle(sys, tower, steps)


@given(
    st.sampled_from(TOWER_SYSTEMS),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=1, max_value=12),
)
def test_trusted_towers_equal_validated_ones(spec, x, depth):
    sys = systems.make_system(spec)
    k = sys.k
    made = [coding.tower_from_state(x, k, depth)]
    if x % k or depth > 1:
        made.append(coding.tower_apply(sys, made[0]))
    for tower in made:
        checked = coding.ResidueTower(k, tower.depth, tower.value)
        assert tower == checked and checked == tower
        assert hash(tower) == hash(checked)
        assert repr(tower) == repr(checked)
        for field in ("k", "depth", "value"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tower, field, 1)


# Check 12 tests coding._class_step, the kernel towers read, on the class
# (k^depth, x mod k^depth) of each state x against the system's own step
# and branch; a kernel that is wrong on one class alone must still fail
# it.  Below k^depth the residue of x is x itself, and no smaller state
# shares it, so the planted fault first shows at x.


@pytest.mark.parametrize(
    "k, x, depth",
    [(2, 5, 4), (2, 4, 3), (3, 7, 2), (5, 12, 8)],
    ids=["collatz-odd", "collatz-division", "alphabeta3", "alphabeta5"],
)
def test_check_digit_towers_catches_one_wrong_step(monkeypatch, k, x, depth):
    true_step = coding._class_step

    def off_by_one(k_, rows, A, B):
        symbol, A2, B2 = true_step(k_, rows, A, B)
        if (k_, A, B) == (k, k**depth, x):
            B2 += 1
        return symbol, A2, B2

    monkeypatch.setattr(coding, "_class_step", off_by_one)
    result = battery.check_digit_towers()
    assert not result.passed
    assert result.detail == f"k={k} x={x} depth={depth}: tower mismatch"


def test_check_digit_towers_catches_a_wrong_symbol(monkeypatch):
    true_step = coding._class_step

    def relabelled(k, rows, A, B):
        symbol, A2, B2 = true_step(k, rows, A, B)
        if (k, A, B) == (3, 27, 7):
            symbol = symbol % k + 1
        return symbol, A2, B2

    monkeypatch.setattr(coding, "_class_step", relabelled)
    result = battery.check_digit_towers()
    assert not result.passed
    assert result.detail == "k=3 x=7 depth=3: symbol mismatch"


def test_deep_tower_is_not_quadratic(collatz, deadline):
    deadline(5)
    x = 3**12000 + 8  # odd, about 19,000 bits, below 2^20000
    t = coding.tower_from_state(x, 2, 20000)
    digits = t.digits
    assert len(digits) == 20000 and digits[0] == 1 and digits[-1] == x
    t = coding.tower_apply(collatz, t)  # odd: 3x + 1 mod 2^20000
    digits = t.digits
    assert digits[0] == 0 and digits[-1] == (3 * x + 1) % 2**20000
    t = coding.tower_apply(collatz, t)  # even: one level consumed
    digits = t.digits
    assert t.depth == 19999
    assert digits[0] == ((3 * x + 1) % 2**20000 // 2) % 2
    assert digits[-1] == (3 * x + 1) % 2**20000 // 2


# -- recovery lemma ------------------------------------------------------------------


def test_recovery_affine_branch(collatz):
    rep = coding.verify_recovery_lemma(collatz, 3, 11, j=2)
    assert rep.passed
    assert rep.branch == 1
    # conclusion: agreement one level down at j itself
    assert 3 % 4 == 11 % 4 == 3


def test_recovery_division_branch(collatz):
    rep = coding.verify_recovery_lemma(collatz, 4, 12, j=1)
    assert rep.passed
    assert rep.branch == 2
    assert 4 % 4 == 12 % 4  # conclusion strengthens to j+1


def test_recovery_trivial_when_equal(collatz):
    for j in (1, 2, 3):
        assert coding.verify_recovery_lemma(collatz, 9, 9, j=j).passed


def test_recovery_preconditions(collatz):
    with pytest.raises(PreconditionUnmet):
        coding.verify_recovery_lemma(collatz, 1, 2, j=2)  # pi_1 differs
    with pytest.raises(PreconditionUnmet):
        coding.verify_recovery_lemma(collatz, 1, 3, j=3)  # images differ mod 8


def test_recovery_needs_an_affine_system_and_j_at_least_1(collatz, swap2):
    with pytest.raises(NotAffineFamily):
        coding.verify_recovery_lemma(swap2, 1, 2, j=1)
    with pytest.raises(InvalidSpec, match="^need j >= 1$"):
        coding.verify_recovery_lemma(collatz, 3, 11, j=0)


def test_recovery_random_pairs(collatz):
    # construct precondition-satisfying pairs directly: same residue
    # class and f-images agreeing mod 2^j
    rng = random.Random(12)
    done = 0
    while done < 200:
        j = rng.randint(1, 6)
        x = rng.randint(1, 5000)
        if x % 2 == 1:
            y = x + 2 * rng.randint(1, 500)  # both odd
            if (3 * x + 1) % (2**j) != (3 * y + 1) % (2**j):
                continue
        else:
            y = x + (2**j) * 2 * rng.randint(1, 200)  # images differ by 2^j * even
        rep = coding.verify_recovery_lemma(collatz, x, y, j=j)
        assert rep.passed, (x, y, j)
        done += 1
