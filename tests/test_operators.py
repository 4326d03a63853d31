"""Truncated partial isometries, projections, reducing subspaces, commutant."""

import functools
import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from branchdyn import battery, cli, coding, linalg, operators, orbits, systems
from branchdyn.errors import InvalidSpec, NotClosedSystem, WindowTooSmall
from conftest import (
    AFFINE_SPECS,
    CLASS_ROUTE_SPECS,
    apply_word,
    apply_word_adjoint,
    bisimilar_pairs,
    branch_matrix,
    chase_oracle,
    closed_tables,
    entry_class_commutant,
    injective_table,
    invariance_violations,
    invariant_subsets_oracle,
    make_subspace,
    mat_add,
    mat_scale,
    nullspace,
    total_orbit_components,
    transpose,
    whole_space_commutant_blocks,
    zeros,
)

F = Fraction


def assert_integral(trunc, basis):
    """Every entry of a library-built basis is an int, and projecting the
    branch images of its vectors stays exact: ints and Fractions only."""
    for v in basis.vectors:
        assert all(type(x) is int for x in v.values())
        for i in range(1, trunc.k + 1):
            for adjoint in (False, True):
                w = operators.apply_branch(trunc, i, v, adjoint=adjoint)
                assert all(type(x) is int for x in w.values())
                p = basis.project(w)
                assert all(type(x) in (int, Fraction) for x in p.values())


def _table(branch, image, k=None):
    return systems.make_system(systems.FiniteTable.make(branch, image, k=k))


def twin_two_cycles():
    # {1<->2} and {3<->4}, same branch pattern in both components
    return _table({1: 1, 2: 2, 3: 1, 4: 2}, {1: 2, 2: 1, 3: 4, 4: 3}, k=2)


def two_plus_three():
    # {1<->2} and {3->4->5->3}; codings distinguish all five states
    return _table(
        {1: 1, 2: 2, 3: 1, 4: 2, 5: 1},
        {1: 2, 2: 1, 3: 4, 4: 5, 5: 3},
        k=2,
    )


def cycle(n, branch):
    """The single cycle 1 -> 2 -> ... -> n -> 1 with branch labels branch(x)."""
    labels = {x: branch(x) for x in range(1, n + 1)}
    return _table(labels, {x: x % n + 1 for x in range(1, n + 1)})


def e(trunc, x, coeff=F(1)):
    return {trunc.index[x]: coeff}


# -- truncation construction ------------------------------------------------


def test_collatz_window_1_4(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    assert tuple(t.states) == (1, 2, 3, 4)
    # branch 1: only 1 -> 4 stays inside; 3 -> 10 escapes
    assert t.maps[0] == {t.index[1]: t.index[4]}
    assert t.escapes[0] == (3,)
    # branch 2: 4 -> 2 and 2 -> 1
    assert t.maps[1] == {t.index[4]: t.index[2], t.index[2]: t.index[1]}
    assert t.escapes[1] == ()


def test_swap_truncation(swap2):
    t = operators.build_truncation(swap2, None)
    assert t.maps[0] == {t.index[1]: t.index[2]}
    assert t.maps[1] == {t.index[2]: t.index[1]}
    assert t.escapes == ((), ())


def per_branch_truncation(sys, states):
    """Maps and escapes built one branch at a time through the public
    methods, as (list of (column, row) pairs, escapes) per branch."""
    index = {x: c for c, x in enumerate(states)}
    out = []
    for i in range(1, sys.k + 1):
        pairs, esc = [], []
        for x in states:
            if sys.branch_of(x) == i:
                y = sys.apply(x)
                if y in index:
                    pairs.append((index[x], index[y]))
                else:
                    esc.append(x)
        out.append((pairs, tuple(esc)))
    return out


@pytest.mark.parametrize(
    "window", [(1, 300), (40, 90), systems.SetWindow([2, 4, 8, 3, 10, 5, 16])]
)
def test_one_pass_truncation_matches_per_branch_build(collatz, alphabeta3, window):
    for sys in (collatz, alphabeta3):
        states = operators.build_truncation(sys, window).states
        for order in (None, states[::-1]):
            t = operators.build_truncation(sys, window, order=order)
            got = [(list(m.items()), e) for m, e in zip(t.maps, t.escapes)]
            assert got == per_branch_truncation(sys, t.states)


_rng = random.Random(0xC1A55)
# one-state and two-state windows, lo > hi / k (no division lands inside),
# one past sys.maxsize, where no position of an empty run can be sliced,
# and seeded random ones
CLASS_ROUTE_WINDOWS = [
    (1, 1), (3, 3), (1, 2), (2, 3), (7, 8), (500, 777), (37, 5000), (1, 10**4), (3001, 5000),
    (10**20, 10**20 + 50),
] + [(lo, lo + _rng.randrange(200)) for lo in (_rng.randrange(1, 10**4) for _ in range(6))]


def truncation_parts(t):
    return tuple(t.states), list(t.index.items()), [list(m.items()) for m in t.maps], t.escapes


@pytest.mark.parametrize("window", CLASS_ROUTE_WINDOWS, ids=str)
@pytest.mark.parametrize("name", sorted(CLASS_ROUTE_SPECS))
def test_class_route_matches_the_state_loop(name, window):
    # a SetWindow of the same states takes the state loop
    sys = systems.make_system(CLASS_ROUTE_SPECS[name])
    lo, hi = window
    got = operators.build_truncation(sys, window)
    want = operators.build_truncation(sys, systems.SetWindow(range(lo, hi + 1)))
    assert truncation_parts(got) == truncation_parts(want)


@pytest.mark.parametrize("window", CLASS_ROUTE_WINDOWS, ids=str)
@pytest.mark.parametrize("name", sorted(CLASS_ROUTE_SPECS))
def test_class_route_chase_matches_the_identity_start_oracle(name, window):
    # seeded words of length 1..12, a window state's coding and a random
    # word of each length; the chase reads the word's cylinder and builds
    # no column map
    sys = systems.make_system(CLASS_ROUTE_SPECS[name])
    t = operators.build_truncation(sys, window)
    rng = random.Random(f"{name} {window}")
    words = []
    for length in range(1, 13):
        words.append(coding.coding_prefix(sys, rng.randint(*window), length))
        words.append(tuple(rng.randint(1, sys.k) for _ in range(length)))
    chases = [operators._chase(t, w) for w in words]
    supports = [operators.projection_P(t, w) for w in words]
    assert "maps" not in vars(t)
    for word, got, support in zip(words, chases, supports):
        want = chase_oracle(t, word)
        assert list(got.items()) == list(want.items()), word
        assert support == frozenset(want), word
    assert not all(chases)  # some word empties the map


def test_class_route_calls_no_kernel():
    sys = systems.make_system(systems.collatz())

    def refuse(x):
        raise AssertionError(f"kernel called on {x}")

    sys._step = sys._branch = refuse
    t = operators.build_truncation(sys, (1, 1000))
    assert t.n == 1000 and list(map(len, t.maps)) == [167, 500]
    with pytest.raises(AssertionError, match="kernel called"):
        operators.build_truncation(sys, (1, 1000), order=range(1000, 0, -1))


def test_class_route_peak_memory(collatz):
    # the state loop peaked at 16.8 MB on 1..10^5 under Python 3.11, index
    # and maps included, and the class route at 15.2 MB while it still
    # listed the window in a tuple and an index dict; with neither it
    # peaked at 9.1 MB, and keeping the column maps as ranges, 1.6 MB
    tracemalloc.start()
    try:
        t = operators.build_truncation(collatz, (1, 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n == 10**5 and peak < 3 * 10**6


def built_truncations(monkeypatch) -> list:
    """The truncations that operators.build_truncation returns from now on."""
    built, build = [], operators.build_truncation

    def record(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(operators, "build_truncation", record)
    return built


@pytest.mark.parametrize("window", [(1, 10), (3, 8), (7, 7)], ids=str)
def test_affine_int_window_truncation_keeps_its_range(window, monkeypatch, capsys):
    # x + 1 on odd x, x / 2 on even x: closed on 1..2m, so the commutant runs
    sys = systems.make_system(systems.QxPlusD(1, 1))
    lo, hi = window
    want = operators.build_truncation(sys, systems.SetWindow(range(lo, hi + 1)))
    built = built_truncations(monkeypatch)
    # the build report counts its entries off the class route's ranges
    assert cli.main(["operators", "build", "--system", "qxd:1,1", "--window", f"{lo}..{hi}"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == list(map(len, want.maps))
    assert "maps" not in vars(built[0])
    t = operators.build_truncation(sys, window)
    assert t.states == range(lo, hi + 1)
    assert "index" not in vars(t) and "maps" not in vars(t)
    # the maps are built on first read as the state pass builds them, in
    # ascending column order, and kept
    maps = t.maps
    assert [list(m.items()) for m in maps] == [list(m.items()) for m in want.maps]
    assert vars(t)["maps"] is maps
    operators.fixed_vectors_of_word(t, (1, 2))
    if lo == 1:
        operators.commutant_projections(t)
    assert "index" not in vars(t) and t.maps is maps
    # the index is derived on first read, and kept
    assert t.index == {x: x - lo for x in range(lo, hi + 1)}
    assert vars(t)["index"] is t.index


def test_operators_build_on_a_million_states_builds_no_map(monkeypatch, capsys, deadline):
    # the report reads the maps' lengths off the class route's ranges
    built = built_truncations(monkeypatch)
    deadline(5)
    assert cli.main(["operators", "build", "--system", "collatz", "--window", "1..1000000"]) == 0
    deadline(0)
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 10**6 and rep["entries"] == [166667, 500000]
    # the odd states above 333,333 leave the window, no even state does
    assert len(rep["escapes"][0]) == 333333 and rep["escapes"][1] == []
    assert "maps" not in vars(built[0])


def test_prefix_projections_build_no_map(collatz, monkeypatch, capsys):
    # P_I, the word chase and the P_m limit read the word's cylinder on
    # the class route, and so do checks 8 and 10 and the two commands on them
    t = operators.build_truncation(collatz, (1, 10**4))
    # x = 4t + 1 with 3x + 1 <= 10^4, at coordinate x - 1
    assert operators.projection_P(t, (1, 2, 2)) == frozenset(range(0, 3333, 4))
    assert operators.fixed_vectors_of_word(t, (1, 2, 2)).dimension == 1
    assert operators.verify_pm_limit(t, {t.index[1]: F(1), t.index[5]: F(1)}, 1).passed
    assert "maps" not in vars(t)
    built = built_truncations(monkeypatch)
    assert battery.check_prefix_projection_mechanics().passed
    assert battery.check_word_fixed_vectors().passed
    for argv in (
        ["pm-limit", "--window", "1..10000", "--support", "1,5"],
        ["fixed-vectors", "--window", "1..200", "--word", "1,2,2"],
    ):
        assert cli.main(["operators", *argv, "--system", "collatz"]) == 0
    capsys.readouterr()
    assert len(built) == 4 and not any("maps" in vars(b) for b in built)


def test_pm_limit_on_a_million_states_builds_no_map(monkeypatch, capsys, deadline):
    built = built_truncations(monkeypatch)
    deadline(5)
    argv = ["operators", "pm-limit", "--system", "collatz", "--window", "1..1000000", "--support", "1,5"]
    assert cli.main(argv) == 0
    deadline(0)
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] and rep["stabilization_index"] == 4
    assert rep["eliminated"] == [{"cause": "coding", "state": "5", "step": 4}]
    assert "maps" not in vars(built[0])


def test_truncation_state_budget(collatz, monkeypatch, deadline):
    deadline(5)
    with pytest.raises(InvalidSpec, match="window holds 1000000000 states"):
        operators.build_truncation(collatz, (1, 10**9))
    deadline(0)
    monkeypatch.setattr(systems, "MAX_WINDOW_STATES", 5)
    assert operators.build_truncation(collatz, (1, 5)).n == 5
    with pytest.raises(InvalidSpec):
        operators.build_truncation(collatz, systems.SetWindow(range(1, 7)))


def test_branch_window_disjoint(collatz):
    # a window of even numbers never meets the odd branch
    t = operators.build_truncation(collatz, systems.SetWindow([2, 4, 8]))
    assert t.maps[0] == {}
    assert branch_matrix(t, 1) == zeros(3, 3)


def test_partial_isometry_identity(collatz, swap1, alphabeta3):
    for sys, window in (
        (collatz, (1, 30)),
        (swap1, None),
        (alphabeta3, (1, 20)),
    ):
        t = operators.build_truncation(sys, window)
        for i in range(1, t.k + 1):
            m = branch_matrix(t, i)
            mt = transpose(m)
            assert linalg.mat_mul(linalg.mat_mul(m, mt), m) == m


def test_row_column_sparsity(collatz):
    t = operators.build_truncation(collatz, (1, 64))
    for i in range(1, 3):
        fwd = t.maps[i - 1]
        assert len(set(fwd.values())) == len(fwd)  # rows hit at most once


def test_interior_excludes_escape_neighbors(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    # 3 escapes forward; 4 has preimage 8 outside; 1 and 2 are interior
    assert t.interior() == frozenset({t.index[1], t.index[2]})


def route_truncations(collatz, alphabeta3):
    """Two families on 1..60, a reversed order, a set window, and a table
    whose one state is None: it has a preimage on branch 1 only."""
    t = operators.build_truncation(collatz, (1, 60))
    yield t
    yield operators.build_truncation(alphabeta3, (1, 60))
    yield operators.build_truncation(collatz, (1, 60), order=t.states[::-1])
    yield operators.build_truncation(collatz, systems.SetWindow([2, 4, 8, 3, 10, 5, 16]))
    yield operators.build_truncation(_table({None: 1}, {None: None}, k=2), None)


def test_adjoint_is_the_transposed_column_map(collatz, alphabeta3):
    # M_i^T e_c, read off the preimage kernel, against column c of M_i^T
    for t in route_truncations(collatz, alphabeta3):
        for i in range(1, t.k + 1):
            mt = transpose(branch_matrix(t, i))
            for c in range(t.n):
                want = {r: 1 for r in range(t.n) if mt[r][c]}
                assert operators.apply_branch(t, i, {c: 1}, adjoint=True) == want
    t = operators.build_truncation(_table({None: 1}, {None: None}, k=2), None)
    assert operators.apply_branch(t, 1, {0: 1}, adjoint=True) == {0: 1}
    assert operators.apply_branch(t, 2, {0: 1}, adjoint=True) == {}


@pytest.mark.parametrize("i", [0, -1, True, 3, 1.0], ids=repr)
@pytest.mark.parametrize("adjoint", [False, True])
def test_apply_branch_refuses_a_branch_index_outside_1_to_k(collatz, i, adjoint):
    # 0 and -1 read maps[-1] and maps[-2], True ran as branch 1, 3 leaked
    # IndexError and 1.0 TypeError
    t = operators.build_truncation(collatz, (1, 8))
    want = f"branch index {i} outside 1..2" if type(i) is int else f"need an int branch index, got {i!r}"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(want)}$"):
        operators.apply_branch(t, i, {0: 1}, adjoint=adjoint)


@pytest.mark.parametrize(
    "i, key, adjoint",
    [
        (1, -1, True),  # states[-1] read state 10: {2: 1}
        (2, True, False),  # ran as coordinate 1: {0: 5}
        (2, 1.0, False),
        (2, 2.0, True),  # leaked TypeError
        (1, 10, True),  # leaked IndexError
        (1, "a", True),  # leaked TypeError
        (1, "a", False),  # dropped in silence, as the two below
        (2, 10, False),
        (2, -1, False),
    ],
    ids=repr,
)
def test_apply_branch_refuses_a_key_that_is_no_coordinate(collatz, i, key, adjoint):
    t = operators.build_truncation(collatz, (1, 10))
    want = f"coordinate {key!r} outside 0..9"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(want)}$"):
        operators.apply_branch(t, i, {0: 1, key: 5}, adjoint=adjoint)
    # a vector of coordinates still maps: 1 -> 4 on branch 1, 4 <- 8 on branch 2
    assert operators.apply_branch(t, 1, {0: 5}) == {3: 5}
    assert operators.apply_branch(t, 2, {3: 5}, adjoint=True) == {7: 5}


def test_interior_matches_the_public_route(collatz, alphabeta3):
    for t in route_truncations(collatz, alphabeta3):
        sys = t.sys
        assert t.interior() == {
            t.index[x]
            for x in t.states
            if sys.apply(x) in t.index and all(p in t.index for p, _ in sys.preimages(x))
        }


def test_custom_order_must_be_permutation(collatz):
    # the second order holds every state of the window, and one of them
    # twice; the third equals the window as a set, but True is no state
    for window, order in (
        ((1, 4), (1, 2, 3)),
        ((1, 5), [1, 2, 3, 4, 5, 1]),
        ((1, 4), (True, 2, 3, 4)),
    ):
        with pytest.raises(InvalidSpec, match="^order must be a permutation of the window$"):
            operators.build_truncation(collatz, window, order=order)


def test_table_order_refuses_a_stand_in_label(swap1):
    # True equals the label 1 as a set member, but it is no state
    with pytest.raises(InvalidSpec, match="^order must be a permutation of the window$"):
        operators.build_truncation(swap1, None, order=(True, 2))


# -- word operators -----------------------------------------------------------


def test_word_op_on_cycle(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    assert apply_word(t, (1, 2, 2), e(t, 1)) == e(t, 1)
    assert apply_word(t, (1, 2, 2), e(t, 3)) == {}
    assert apply_word(t, (1, 2, 2), {}) == {}


def test_word_op_matches_dense_product(collatz):
    t = operators.build_truncation(collatz, (1, 20))
    word = (1, 2, 2, 1, 2)
    dense = linalg.identity(t.n)
    for i in word:
        dense = linalg.mat_mul(branch_matrix(t, i), dense)
    for x in t.states:
        out = apply_word(t, word, e(t, x))
        col = [row[t.index[x]] for row in dense]
        assert out == {c: v for c, v in enumerate(col) if v}


def test_word_adjoint_is_transpose_route(collatz):
    t = operators.build_truncation(collatz, (1, 20))
    word = (1, 2, 2)
    fwd = apply_word(t, word, e(t, 1))
    back = apply_word_adjoint(t, word, fwd)
    assert back == e(t, 1)


# -- coding projections --------------------------------------------------------


def projection_oracle(sys, trunc, prefix):
    """Recompute the support by replaying codings of every window state."""
    m = len(prefix)
    keep = set()
    for y in trunc.states:
        cur = y
        ok = True
        for want in prefix:
            if sys.branch_of(cur) != want:
                ok = False
                break
            cur = sys.apply(cur)
            if cur not in trunc.index:
                ok = False
                break
        if ok:
            keep.add(trunc.index[y])
    return keep


def test_projection_support_on_window_50(collatz):
    t = operators.build_truncation(collatz, (1, 50))
    p3 = operators.projection_P(t, (1, 2, 2))
    assert p3 == frozenset(projection_oracle(collatz, t, (1, 2, 2)))
    assert {t.index[1], t.index[5]} <= p3

    p4 = operators.projection_P(t, (1, 2, 2, 1))
    assert p4 == frozenset(projection_oracle(collatz, t, (1, 2, 2, 1)))
    assert t.index[1] in p4
    assert t.index[5] not in p4  # 5 codes (1,2,2,2)


def test_projection_can_be_zero(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    assert operators.projection_P(t, (2, 2, 2, 2, 2, 2)) == frozenset()


def test_projection_idempotent_self_adjoint(collatz):
    # dense route: M_I^T M_I is idempotent, self-adjoint, and the diagonal
    # indicator of the projection's coordinates
    t = operators.build_truncation(collatz, (1, 50))
    for prefix in ((1,), (2, 1), (1, 2, 2), (2, 2, 1, 2)):
        mi = linalg.identity(t.n)
        for i in prefix:
            mi = linalg.mat_mul(branch_matrix(t, i), mi)
        m = linalg.mat_mul(transpose(mi), mi)
        assert linalg.mat_mul(m, m) == m
        assert transpose(m) == m
        coords = operators.projection_P(t, prefix)
        assert m == [[int(r == c and c in coords) for c in range(t.n)] for r in range(t.n)]


def test_projection_matches_operator_route(collatz):
    # independent route: P = (T_I)^adj T_I applied columnwise
    t = operators.build_truncation(collatz, (1, 50))
    prefix = (1, 2, 2)
    support = operators.projection_P(t, prefix)
    for x in t.states:
        v = apply_word(t, prefix, e(t, x))
        w = apply_word_adjoint(t, prefix, v)
        assert w == (e(t, x) if t.index[x] in support else {})


@functools.cache
def affine_truncation(name, hi):
    return operators.build_truncation(systems.make_system(AFFINE_SPECS[name]), (1, hi))


@st.composite
def chase_cases(draw):
    """(truncation, word): an affine system on 1..hi, where hi = 1 or 2
    leaves the first column maps empty, or a random closed table, whose
    unused branches have empty column maps."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(AFFINE_SPECS)))
        t = affine_truncation(name, draw(st.sampled_from((1, 2, 5, 30, 2000))))
    else:
        branch, image, k = draw(closed_tables())
        t = operators.build_truncation(_table(branch, image, k=k), None)
    word = draw(st.lists(st.integers(min_value=1, max_value=t.k), min_size=1, max_size=12))
    return t, tuple(word)


@given(chase_cases())
@example((affine_truncation("collatz", 1), (1, 2)))  # the map of branch 1 is empty
@example((affine_truncation("collatz", 2000), (1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2)))
def test_chase_matches_the_identity_start_oracle(case):
    t, word = case
    got = operators._chase(t, word)
    assert list(got.items()) == list(chase_oracle(t, word).items())
    assert all(got is not m for m in t.maps)


def test_chase_result_can_change_without_touching_the_truncation(collatz):
    t = operators.build_truncation(collatz, (1, 50))
    maps = [list(m.items()) for m in t.maps]
    support = operators.projection_P(t, (1,))
    out = operators._chase(t, (1,))
    del out[min(out)]
    out[0] = 0
    assert [list(m.items()) for m in t.maps] == maps
    assert operators.projection_P(t, (1,)) == support


# -- P_m limits -----------------------------------------------------------------


def test_pm_stabilizes_at_distinguishing_length(collatz):
    t = operators.build_truncation(collatz, (1, 10**4))
    a = {t.index[1]: F(1), t.index[5]: F(1)}
    rep = operators.verify_pm_limit(t, a, 1)
    assert rep.passed
    assert rep.stabilization_index == 4
    assert rep.eliminated == ((5, 4, "coding"),)
    assert rep.never == ()


def test_pm_trivial_for_point_mass(collatz):
    t = operators.build_truncation(collatz, (1, 100))
    rep = operators.verify_pm_limit(t, e(t, 1), 1)
    assert rep.passed and rep.stabilization_index == 1


def test_pm_escape_elimination(collatz):
    # in [1,6] the orbit of 5 leaves immediately; elimination by escape
    t = operators.build_truncation(collatz, (1, 6))
    a = {t.index[1]: F(1), t.index[5]: F(1)}
    rep = operators.verify_pm_limit(t, a, 1)
    assert rep.passed
    assert rep.eliminated == ((5, 1, "escape"),)


def test_pm_never_stabilizes_on_swap(swap1):
    t = operators.build_truncation(swap1, None)
    a = {t.index[1]: F(1), t.index[2]: F(1)}
    rep = operators.verify_pm_limit(t, a, 1)
    assert not rep.passed
    assert rep.never == (2,)
    assert rep.stabilization_index is None


def test_pm_limit_refuses_coordinates_outside_the_window(collatz):
    # -1 once read as state 100, -100 as x itself, and 100 raised IndexError
    t = operators.build_truncation(collatz, (1, 100))
    for a, c in (({-1: F(1)}, -1), ({0: F(1), -100: F(1)}, -100), ({100: F(1)}, 100)):
        with pytest.raises(InvalidSpec, match=f"^coordinate {c} outside 0..99$"):
            operators.verify_pm_limit(t, a, 1)


def test_pm_limit_refuses_stand_ins_for_a_coordinate():
    # 1.0 once raised TypeError on indexing, and True passed as coordinate 1
    t = operators.build_truncation(systems.make_system(systems.collatz()), (1, 10))
    for a, c in (({1.0: 1}, 1.0), ({True: 1, 0: 1}, True)):
        with pytest.raises(InvalidSpec, match=f"^coordinate {c} outside 0..9$"):
            operators.verify_pm_limit(t, a, 1)


def test_pm_window_too_small(collatz):
    t = operators.build_truncation(collatz, (1, 8))
    a = {t.index[7]: F(1), t.index[1]: F(1)}
    with pytest.raises(WindowTooSmall):
        operators.verify_pm_limit(t, a, 7)  # 7 exits before separating from 1


def test_pm_x_leaving_at_stabilization(collatz):
    # 15 leaves 1..60 at step 3, where 1 separates from it: P_3 drops e_15,
    # so the window cannot show the limit e_15; without 15 in the support
    # the limit is 0 and the window shows it
    t = operators.build_truncation(collatz, (1, 60))
    with pytest.raises(WindowTooSmall, match="^15 leaves the window after 3 steps"):
        operators.verify_pm_limit(t, {t.index[15]: F(1), t.index[1]: F(1)}, 15)
    rep = operators.verify_pm_limit(t, e(t, 1), 15)
    assert rep.passed and rep.stabilization_index == rep.window_horizon == 3


@given(
    st.integers(1, 60),
    st.dictionaries(st.integers(1, 60), st.integers(-2, 2).map(F), min_size=1, max_size=3),
)
@example(x=1, coeffs={1: F(1), 5: F(0)})  # P_1 a keeps the zero entry at e_5
def test_pm_report_passes_unless_a_support_state_never_drops_out(collatz, x, coeffs):
    t = operators.build_truncation(collatz, (1, 60))
    try:
        rep = operators.verify_pm_limit(t, {t.index[s]: v for s, v in coeffs.items()}, x)
    except WindowTooSmall:
        return
    assert rep.passed == (not rep.never)
    if rep.never == ():
        assert rep.window_horizon is None or rep.window_horizon >= rep.stabilization_index


def test_pm_cap_limited(collatz):
    t = operators.build_truncation(collatz, (1, 10**4))
    a = {t.index[1]: F(1), t.index[5]: F(1)}
    with pytest.raises(WindowTooSmall):
        operators.verify_pm_limit(t, a, 1, cap=2)


# -- invariant-set subspaces ----------------------------------------------------


def test_subspace_of_empty_set(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    basis = operators.coordinate_subspace(t, ())
    assert basis.dimension == 0


def test_subspace_of_full_window(swap2):
    t = operators.build_truncation(swap2, None)
    basis = operators.coordinate_subspace(t, (1, 2))
    assert basis.dimension == t.n


def test_subspace_of_cycle(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    basis = operators.coordinate_subspace(t, (1, 2, 4))
    assert basis.dimension == 3


def test_subspace_requires_invariance(collatz):
    # H_K of a set that is not invariant is built, and is_reducing says no
    t = operators.build_truncation(collatz, (1, 4))
    rep = operators.is_reducing(t, operators.coordinate_subspace(t, (1,)))
    assert not rep.passed
    assert rep.witness == (1, "T", 0, 4)  # f(1) = 4 missing
    with pytest.raises(InvalidSpec, match="^K must lie inside the window$"):
        operators.coordinate_subspace(t, (1, 5))  # 5 outside window


def test_subspace_members_must_be_states(collatz, swap1):
    # True and 2.0 equal the window states 1 and 2 as dict keys, yet are
    # no states: H_{1,2} was built from [True, 2.0]
    t = operators.build_truncation(collatz, (1, 4))
    u = operators.build_truncation(swap1, None)
    for trunc, members in (
        (t, [True, 2.0]), (t, [True]), (t, [1, 2.0]), (t, [1, True]),
        (u, [True]), (u, [2.0]), (u, [1, 3]), (u, ["1"]),
    ):
        with pytest.raises(InvalidSpec, match="^K must lie inside the window$"):
            operators.coordinate_subspace(trunc, members)
    assert operators.coordinate_subspace(u, [2, 1]).vectors == ({0: 1}, {1: 1})


def test_subspace_basis_refusals():
    # True and 1.0 equal the coordinate 1, yet a basis holding 1.0 once
    # built and then raised TypeError in is_reducing
    for coordinate in (2, -1, True, 1.0):
        with pytest.raises(InvalidSpec, match=f"coordinate {coordinate} outside 0..1"):
            operators.SubspaceBasis(n=2, vectors=({coordinate: F(1)},))
    for zero in ({}, {0: F(0)}):
        with pytest.raises(InvalidSpec, match="zero vector in basis"):
            operators.SubspaceBasis(n=2, vectors=(zero,))
    with pytest.raises(InvalidSpec, match="basis is not orthogonal"):
        operators.SubspaceBasis(n=3, vectors=({0: F(1)}, {2: F(1)}, {1: F(1), 2: F(1)}))
    # sharing a coordinate is allowed when the pair is orthogonal
    basis = operators.SubspaceBasis(n=2, vectors=({0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}))
    assert basis.project({0: F(3)}) == {0: F(3)}


def assert_reducing_iff_invariant(trunc, K):
    """is_reducing on H_K decides K's invariance relative to the window;
    with interior_only, a violation counts only at an interior state."""
    basis = operators.coordinate_subspace(trunc, K)
    bad = invariance_violations(trunc, K)
    interior = {trunc.states[c] for c in trunc.interior()}
    for interior_only, counted in ((False, bad), (True, bad & interior)):
        rep = operators.is_reducing(trunc, basis, interior_only=interior_only)
        assert rep.passed == (not counted), (sorted(K), interior_only)
        assert rep.passed or rep.witness[3] in counted


@pytest.mark.parametrize("family", [systems.collatz(), systems.QxPlusD(5, 1)],
                         ids=["collatz", "5x+1"])
def test_reducing_iff_invariant_on_every_subset_of_small_windows(family):
    sys = systems.make_system(family)
    for hi in range(1, 11):
        t = operators.build_truncation(sys, (1, hi))
        for mask in range(1, 2**hi):
            assert_reducing_iff_invariant(t, {x for x in t.states if mask >> (x - 1) & 1})


@given(closed_tables(max_states=8), st.data())
def test_reducing_iff_invariant_on_table_windows(table, data):
    branch, image, k = table
    sys = _table(branch, image, k=k)
    t = operators.build_truncation(sys, (1, data.draw(st.integers(1, len(branch)))))
    assert_reducing_iff_invariant(t, data.draw(st.sets(st.sampled_from(t.states))))


# -- reducing checks -------------------------------------------------------------


def test_swap_symmetric_vector_reduces(swap1):
    t = operators.build_truncation(swap1, None)
    basis = make_subspace(2, [[F(1), F(1)]])
    assert operators.is_reducing(t, basis).passed


def test_swap_antisymmetric_vector_reduces(swap1):
    t = operators.build_truncation(swap1, None)
    basis = make_subspace(2, [[F(1), F(-1)]])
    assert operators.is_reducing(t, basis).passed


def test_swap_k2_admits_only_trivial(swap2):
    t = operators.build_truncation(swap2, None)
    for vec in ([F(1), F(1)], [F(1), F(-1)], [F(1), F(0)]):
        basis = make_subspace(2, [vec])
        rep = operators.is_reducing(t, basis)
        assert not rep.passed
        assert rep.witness is not None


def test_is_reducing_refuses_a_basis_of_another_dimension(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    basis = operators.SubspaceBasis(n=3, vectors=({0: 1},))
    with pytest.raises(InvalidSpec, match="^basis dimension does not match the truncation$"):
        operators.is_reducing(t, basis)


def test_interior_only_forgives_escape_edges(collatz):
    t = operators.build_truncation(collatz, (1, 4))
    basis = operators.coordinate_subspace(t, (1, 2, 4))
    assert operators.is_reducing(t, basis, interior_only=True).passed


def test_reducing_check_on_a_large_invariant_set(collatz, deadline):
    # H_K for the closure of 1 in 1..2000: hundreds of unit vectors
    deadline(5)
    t = operators.build_truncation(collatz, (1, 2000))
    closure = orbits.invariant_closure(collatz, [1], (1, 2000)).members
    basis = operators.coordinate_subspace(t, closure)
    assert basis.dimension == len(closure)
    assert operators.is_reducing(t, basis).passed


def test_check_9_needs_the_adjoint_half_of_is_reducing(monkeypatch):
    # without M_i^T, a forward orbit that another state enters passes as
    # reducing; is_reducing calls the kernel behind apply_branch
    forward_only = operators._apply_branch
    monkeypatch.setattr(
        operators, "_apply_branch",
        lambda trunc, i, vec, adjoint: {} if adjoint else forward_only(trunc, i, vec, False),
    )
    result = battery.check_correspondence_bijection()
    assert not result.passed
    assert "H_K reducing for non-invariant K=" in result.detail


def _labelled_tables(max_states, max_k):
    """Every table on 1..n, n <= max_states, with k <= max_k branches,
    each branch injective: every image map and every branch labelling."""
    for n, k in product(range(1, max_states + 1), range(1, max_k + 1)):
        for images in product(range(1, n + 1), repeat=n):
            for labels in product(range(1, k + 1), repeat=n):
                if len(set(zip(labels, images))) == n:
                    yield _table(dict(enumerate(labels, 1)), dict(enumerate(images, 1)), k=k)


def test_invariant_subsets_match_the_per_subset_scan():
    # check 9 draws from list(invariant), so the order of the set counts too
    rng = random.Random(41)
    random_tables = []
    while len(random_tables) < 300:
        sys = battery._random_table_system(rng)
        if sys is not None:
            random_tables.append(sys)
    for sys in (*_labelled_tables(4, 3), *random_tables):
        got, want = battery._invariant_subsets(sys), invariant_subsets_oracle(sys)
        assert got == want and list(got) == list(want), sys.spec


def test_project_is_exact_with_int_coefficients_where_they_divide():
    rng = random.Random(0xBD41)
    for _ in range(200):
        n = rng.randint(1, 6)
        basis = make_subspace(n, [[rng.randint(-2, 2) for _ in range(n)]
                                  for _ in range(rng.randint(1, n))])
        if not basis.vectors:
            continue
        w = {c: rng.randint(-6, 6) for c in range(n) if rng.random() < 0.7}
        want, integral = {}, {}
        for b in basis.vectors:
            if not any(c in w for c in b):
                continue
            coeff = Fraction(sum(x * w.get(c, 0) for c, x in b.items()),
                             sum(x * x for x in b.values()))
            for c, x in b.items():
                want[c] = want.get(c, Fraction(0)) + coeff * x
                integral[c] = integral.get(c, True) and coeff.denominator == 1
        got = basis.project(w)
        assert got == {c: x for c, x in want.items() if x}
        assert all((type(x) is int) == integral[c] for c, x in got.items())
    # floats are refused by Fraction, integral quotient or not
    basis = operators.SubspaceBasis(n=2, vectors=({0: 1, 1: 1},))
    for w in ({0: 2.0, 1: 2}, {0: 1.5, 1: 0.5}):
        with pytest.raises(TypeError, match="^both arguments should be Rational instances$"):
            basis.project(w)
    with pytest.raises(TypeError, match="^both arguments should be Rational instances$"):
        operators.SubspaceBasis(n=1, vectors=({0: 1.0},)).project({0: 2})


def test_check_8_catches_a_chase_that_drops_a_coordinate(monkeypatch):
    # projection_P's support against the prefix's cylinder, which check 8
    # cuts to the window by arithmetic; check 10 reads the cycles of the
    # same chase, and the lost coordinate breaks the cycle of e_1 under
    # word 1 2 2; both truncations take the class route, whose chase is
    # read off the cylinder kernel, here planted to drop its first t
    true_cylinder = operators._cylinder

    def lossy(k, rows, lo, hi, word):
        cut = true_cylinder(k, rows, lo, hi, word)
        if cut is None:
            return None
        M, r, A, B, t0, t1 = cut
        return M, r, A, B, t0 + 1, t1

    monkeypatch.setattr(operators, "_cylinder", lossy)
    result = battery.check_prefix_projection_mechanics()
    assert not result.passed
    assert all(f.endswith(": projection support mismatch") for f in result.detail.split("; "))
    result = battery.check_word_fixed_vectors()
    assert not result.passed
    assert result.detail == "word 1 2 2: dimension 0, support none"


def test_check_8_catches_a_chase_that_drops_the_residue_condition(monkeypatch):
    # the cylinder kernel without its gcd test: it pins one t mod k at
    # every symbol, as if every slope were coprime to k, so where k
    # divides the slope and the symbol is forced it keeps one t in k
    def no_gcd(k, rows, lo, hi, word):
        M, r, A, B = 1, 0, 1, 0
        t0, t1 = lo, hi
        for s in word:
            u = next((t for t in range(k) if (A * t + B - s) % k == 0), None)
            if u is None:
                return None
            M, r, A, B = k * M, r + M * u, k * A, A * u + B
            t0, t1 = -((u - t0) // k), (t1 - u) // k
            _, A, B = systems._class_step(k, rows, A, B)
            t0, t1 = max(t0, -((B - lo) // A)), min(t1, (hi - B) // A)
        return M, r, A, B, t0, t1

    monkeypatch.setattr(operators, "_cylinder", no_gcd)
    result = battery.check_prefix_projection_mechanics()
    assert not result.passed
    assert all(f.endswith(": projection support mismatch") for f in result.detail.split("; "))


def test_check_8_catches_a_cylinder_kernel_that_never_finds_it_empty(monkeypatch):
    # _cylinder without its "(s - B) % g: return None": where g = gcd(A, k)
    # does not divide s - B no state carries the word, yet the planted
    # kernel pins a residue anyway; only the words that no state carries
    # reach that branch, so the sampled prefixes pass and those words fail
    def never_empty(k, rows, lo, hi, word):
        M, r, A, B = 1, 0, 1, 0
        t0, t1 = lo, hi
        for s in word:
            g = gcd(A, k)
            p = k // g
            u = (s - B) // g * pow(A // g, -1, p) % p
            M, r, A, B = p * M, r + M * u, p * A, A * u + B
            t0, t1 = -((u - t0) // p), (t1 - u) // p
            _, A, B = systems._class_step(k, rows, A, B)
            t0, t1 = max(t0, -((B - lo) // A)), min(t1, (hi - B) // A)
        return M, r, A, B, t0, t1

    monkeypatch.setattr(operators, "_cylinder", never_empty)
    result = battery.check_prefix_projection_mechanics()
    assert not result.passed
    assert result.detail.startswith("word (1, 1): projection support mismatch")
    assert all(f.startswith("word ") for f in result.detail.split("; "))


def test_check_8_catches_a_cylinder_one_step_too_long(monkeypatch):
    # the state one step of M past the cylinder's last one fails the word
    # or leaves the window, so it lies outside the support of P_I
    true_progression = coding._progression

    def too_long(k, rows, win, word):
        cut = true_progression(k, rows, win, word)
        if cut is None:
            return None
        M, r, t0, t1 = cut
        return M, r, t0, t1 + 1

    monkeypatch.setattr(coding, "_progression", too_long)
    result = battery.check_prefix_projection_mechanics()
    assert not result.passed
    failures = result.detail.split("; ")
    assert len(failures) == 4
    assert all(f.startswith("prefix ") and f.endswith(": projection support mismatch") for f in failures)


def test_invariant_sets_give_reducing_subspaces():
    # H_K reduces exactly when K is invariant; exhaustive on 5 states
    sys = two_plus_three()
    t = operators.build_truncation(sys, None)
    states = sys.states()
    n = len(states)
    invariant_count = 0
    for mask in range(2**n):
        K = {states[j] for j in range(n) if mask >> j & 1}
        invariant = all(sys.apply(x) in K for x in K) and all(
            p in K for x in K for p, _ in sys.preimages(x)
        )
        invariant_count += invariant
        basis = operators.coordinate_subspace(t, K)
        assert_integral(t, basis)
        assert operators.is_reducing(t, basis).passed == invariant, K
    assert invariant_count == 4  # unions of the 2-cycle and the 3-cycle


# -- commutant -------------------------------------------------------------------


def dense_commutant_dimension(trunc):
    """Independent route: assemble the intertwining equations densely
    and count nullspace vectors."""
    n = trunc.n
    mats = []
    for i in range(1, trunc.k + 1):
        m = branch_matrix(trunc, i)
        mats.append(m)
        mats.append(transpose(m))
    rows = []
    for m in mats:
        for r in range(n):
            for c in range(n):
                row = [F(0)] * (n * n)
                for t_ in range(n):
                    row[r * n + t_] += m[t_][c]  # (A m)[r][c]
                    row[t_ * n + c] -= m[r][t_]  # (m A)[r][c]
                rows.append(row)
    return len(nullspace(rows))


def test_swap_k1_commutant(swap1):
    t = operators.build_truncation(swap1, None)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 2
    assert rep.abelian
    assert rep.lattice_size == 4
    assert len(rep.blocks) == 2
    # the swap is the deck transformation: its +1 and -1 eigenlines
    sym = {0: F(1), 1: F(1)}
    anti = {0: F(1), 1: F(-1)}
    assert rep.block_field == (1, 2)
    assert rep.blocks[0].contains(sym) and rep.blocks[1].contains(anti)
    assert dense_commutant_dimension(t) == 2


def test_swap_k2_commutant_is_scalars(swap2):
    t = operators.build_truncation(swap2, None)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 1
    assert rep.abelian
    assert rep.lattice_size == 2
    assert len(rep.blocks) == 1 and rep.blocks[0].dimension == 2
    assert dense_commutant_dimension(t) == 1


def test_twin_cycles_commutant_is_nonabelian():
    # two isomorphic components: the commutant swaps them, so it is a
    # full 2x2 matrix algebra over the component pairing and the
    # reducing lattice is infinite; no finite count is reported
    sys = twin_two_cycles()
    t = operators.build_truncation(sys, None)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 4
    assert not rep.abelian
    assert rep.nonabelian_witness == (1, 3)
    assert rep.lattice_size is None
    assert rep.blocks == () and rep.block_field == ()
    assert dense_commutant_dimension(t) == 4
    # beyond the 4 invariant sets: a cross-diagonal subspace also reduces
    cross = make_subspace(
        4,
        [
            [F(1), F(0), F(1), F(0)],
            [F(0), F(1), F(0), F(1)],
        ],
    )
    assert operators.is_reducing(t, cross).passed
    # while the injection K -> H_K still lands in reducing subspaces
    for K in ((), (1, 2), (3, 4), (1, 2, 3, 4)):
        basis = operators.coordinate_subspace(t, K)
        if basis.dimension:
            assert operators.is_reducing(t, basis).passed


def test_two_plus_three_lattice_matches_invariant_sets():
    sys = two_plus_three()
    t = operators.build_truncation(sys, None)
    rep = operators.commutant_projections(t)
    assert rep.abelian and rep.dimension == 2
    assert rep.lattice_size == 4
    assert rep.block_field == (1, 1)
    supports = sorted(
        tuple(sorted({t.states[c] for v in b.vectors for c in v})) for b in rep.blocks
    )
    assert supports == [(1, 2), (3, 4, 5)]
    assert dense_commutant_dimension(t) == 2


def test_period3_cycle_21_finishes(deadline):
    # the 21-cycle covers the quotient 3-cycle 7 times: blocks for d = 7, 1
    t = operators.build_truncation(cycle(21, lambda x: x % 3 + 1), None)
    deadline(10)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 7 and rep.abelian
    assert [b.dimension for b in rep.blocks] == [18, 3]
    assert rep.block_field == (7, 1)
    assert rep.lattice_size == 2**7


def test_period3_cycle_45_blocks(deadline):
    t = operators.build_truncation(cycle(45, lambda x: x % 3 + 1), None)
    deadline(5)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 15 and rep.abelian
    assert [b.dimension for b in rep.blocks] == [24, 12, 6, 3]
    assert rep.block_field == (15, 5, 3, 1)


def test_single_branch_3_cycle_lattice_is_uncertified():
    # the id predates field blocks: the rotation acts on the 2-dimensional
    # block as Q(zeta_3), a field, so the block is minimal and certified
    t = operators.build_truncation(cycle(3, lambda x: 1), None)
    rep = operators.commutant_projections(t)
    assert [b.dimension for b in rep.blocks] == [2, 1]
    assert rep.block_field == (3, 1)
    assert rep.lattice_size == 8


def test_single_branch_12_cycle_lattice_is_uncertified():
    # the id predates field blocks: one certified block per d dividing 12
    t = operators.build_truncation(cycle(12, lambda x: 1), None)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 12 and rep.abelian
    assert [b.dimension for b in rep.blocks] == [4, 2, 2, 2, 1, 1]
    assert rep.block_field == (12, 3, 4, 6, 1, 2)
    assert rep.lattice_size == 2**12


def test_single_branch_1200_cycle(deadline):
    # 1200 = 2^4 * 3 * 5^2 has 30 divisors: one block each, 92,800 basis entries
    t = operators.build_truncation(cycle(1200, lambda x: 1), None)
    deadline(5)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 1200 and rep.abelian
    assert len(rep.blocks) == 30
    assert sum(len(v) for b in rep.blocks for v in b.vectors) == 92800
    assert sorted(rep.block_field) == [d for d in range(1, 1201) if 1200 % d == 0]


def test_single_branch_1001_cycle(deadline):
    # 1001 = 7 * 11 * 13: the slowest commutant the entry budget admits,
    # 83,700 basis entries in 8 blocks, each checked orthogonal
    t = operators.build_truncation(cycle(1001, lambda x: 1), None)
    deadline(2)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 1001 and rep.abelian
    assert sum(len(v) for b in rep.blocks for v in b.vectors) == 83700
    assert sorted(rep.block_field) == [1, 7, 11, 13, 77, 91, 143, 1001]


def test_injective_50_cycle_is_one_scalar_block():
    t = operators.build_truncation(cycle(50, lambda x: 1 if x == 1 else 2), None)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 1
    assert [b.dimension for b in rep.blocks] == [50]
    assert rep.block_field == (1,)
    assert rep.lattice_size == 2


def test_nonabelian_lattice_reason():
    # the id predates the witness states: the lattice is not counted, and
    # the witness is two bisimilar states in different components
    t = operators.build_truncation(twin_two_cycles(), None)
    rep = operators.commutant_projections(t)
    assert rep.lattice_size is None
    assert rep.nonabelian_witness == (1, 3)  # the components are {1, 2} and {3, 4}
    assert (t.index[1], t.index[3]) in bisimilar_pairs(t)


@st.composite
def injective_tables(draw, max_states=9):
    """A closed table on 1..n whose every branch is injective."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    k = draw(st.integers(min_value=1, max_value=3))
    return _table(*injective_table(draw, n, k), k=k)


def assert_commutant_matches_oracles(t, dense_max_states):
    """The covering route against the entry-class and whole-space routes.

    The dense nullspace oracle runs on tables of at most `dense_max_states`.
    """
    rep = operators.commutant_projections(t)
    assert (rep.dimension, rep.abelian) == entry_class_commutant(t)
    if t.n <= dense_max_states:
        assert rep.dimension == dense_commutant_dimension(t)
    abelian, blocks = whole_space_commutant_blocks(t)
    assert rep.abelian == abelian
    if not abelian:
        x, y = (t.index[s] for s in rep.nonabelian_witness)
        assert (x, y) in bisimilar_pairs(t)
        comp_of = {c: i for i, comp in enumerate(total_orbit_components(t)) for c in comp}
        assert comp_of[x] != comp_of[y]
        assert rep.blocks == () and rep.lattice_size is None
        return
    # the same blocks as subspaces; a block is scalar exactly when d <= 2
    assert len(rep.blocks) == len(blocks)
    for b in rep.blocks:
        assert_integral(t, b)
    for b, d in zip(rep.blocks, rep.block_field):
        same = [
            scalar
            for o, scalar in blocks
            if o.dimension == b.dimension
            and all(o.contains(v) for v in b.vectors)
            and all(b.contains(v) for v in o.vectors)
        ]
        assert same == [d <= 2]
    # the budget's closed-form count is the number of entries built
    built = sum(len(v) for b in rep.blocks for v in b.vectors)
    assert built == sum(operators._basis_entries(cov) for cov in operators._covers(t.maps, t.n))
    heads = [(min(c for v in b.vectors for c in v), -b.dimension, d)
             for b, d in zip(rep.blocks, rep.block_field)]
    assert heads == sorted(heads)
    assert rep.lattice_size == 2**rep.dimension


@given(injective_tables())
def test_commutant_matches_whole_space_oracle(sys):
    # every table drawn (1 to 9 states) meets the dense nullspace oracle
    assert_commutant_matches_oracles(operators.build_truncation(sys, None), dense_max_states=9)


@given(closed_tables(max_states=10))
def test_commutant_matches_entry_class_oracle(table):
    branch, image, k = table
    assert_commutant_matches_oracles(
        operators.build_truncation(_table(branch, image, k=k), None), dense_max_states=6)


def test_commutant_requires_closed_system(collatz):
    t = operators.build_truncation(collatz, (1, 10))
    with pytest.raises(NotClosedSystem):
        operators.commutant_projections(t)


def test_commutant_entry_budget(swap1, monkeypatch, deadline):
    # the basis of the 2001-cycle (3 * 23 * 29) would hold 176,472 entries:
    # refused before any vector is built
    t = operators.build_truncation(cycle(2001, lambda x: 1), None)
    deadline(5)
    with pytest.raises(InvalidSpec, match="^commutant basis holds 176472 entries; at most "
                       "MAX_COMMUTANT_BASIS_ENTRIES = 100000 are built$"):
        operators.commutant_projections(t)
    deadline(0)
    # the swap's two blocks hold 4 entries, the 3-cycle's 8
    monkeypatch.setattr(operators, "MAX_COMMUTANT_BASIS_ENTRIES", 4)
    assert operators.commutant_projections(operators.build_truncation(swap1, None)).dimension == 2
    with pytest.raises(InvalidSpec, match="commutant basis holds 8 entries"):
        operators.commutant_projections(
            operators.build_truncation(cycle(3, lambda x: 1), None)
        )


def test_commutant_basis_budget_refuses_2520_cycle(deadline):
    t = operators.build_truncation(cycle(2520, lambda x: 1), None)
    deadline(5)
    with pytest.raises(InvalidSpec, match="commutant basis holds 572832 entries"):
        operators.commutant_projections(t)


def test_commutant_dimension_budget(deadline):
    # no dimension budget: 65 fixed points on one branch are 65 bisimilar
    # components, a non-abelian commutant of all 65^2 matrices, built as
    # a report without blocks
    t = operators.build_truncation(
        _table({x: 1 for x in range(1, 66)}, {x: x for x in range(1, 66)}, k=1), None
    )
    deadline(5)
    rep = operators.commutant_projections(t)
    assert rep.dimension == 4225 and not rep.abelian
    assert rep.nonabelian_witness == (1, 2)


# -- fixed vectors ------------------------------------------------------------------


def nullspace_fixed_vectors(trunc, word):
    """Independent dense route: null(M_I - Id)."""
    dense = linalg.identity(trunc.n)
    for i in word:
        dense = linalg.mat_mul(branch_matrix(trunc, i), dense)
    a = mat_add(dense, mat_scale(linalg.identity(trunc.n), F(-1)))
    return nullspace(a)


def test_fixed_vectors_of_cycle_word(collatz):
    t = operators.build_truncation(collatz, (1, 100))
    rep = operators.fixed_vectors_of_word(t, (1, 2, 2))
    assert rep.dimension == 1
    assert rep.basis.contains({t.index[1]: F(1)})
    assert len(nullspace_fixed_vectors(t, (1, 2, 2))) == 1


def test_fixed_vectors_absent(collatz):
    t = operators.build_truncation(collatz, (1, 100))
    rep = operators.fixed_vectors_of_word(t, (1, 2))
    assert rep.dimension == 0
    assert nullspace_fixed_vectors(t, (1, 2)) == []


def test_fixed_vectors_degenerate_without_uniqueness(swap1):
    t = operators.build_truncation(swap1, None)
    rep = operators.fixed_vectors_of_word(t, (1, 1))
    assert rep.dimension == 2
    assert len(nullspace_fixed_vectors(t, (1, 1))) == 2


def test_fixed_vectors_match_nullspace_on_samples(five_x_one):
    t = operators.build_truncation(five_x_one, (1, 120))
    for word in ((1, 2, 2), (2, 2), (1, 2, 2, 2, 2, 2, 1), (2, 1)):
        rep = operators.fixed_vectors_of_word(t, word)
        dense = nullspace_fixed_vectors(t, word)
        assert rep.dimension == len(dense)
        for v in dense:
            assert rep.basis.contains(dict(enumerate(v)))


def test_fixed_vectors_on_a_large_window(collatz, deadline):
    deadline(5)
    t = operators.build_truncation(collatz, (1, 2000))
    rep = operators.fixed_vectors_of_word(t, (1, 2, 2))
    assert rep.basis.vectors == ({t.index[1]: F(1)},)


@given(injective_tables(), st.data())
def test_fixed_vectors_match_the_nullspace_oracle(sys, data):
    # on a random sub-window the word's index map has chains as well as cycles
    states = sys.states()
    window = data.draw(st.sets(st.sampled_from(states), min_size=1))
    t = operators.build_truncation(sys, systems.SetWindow(window))
    word = data.draw(st.lists(st.integers(1, t.k), min_size=1, max_size=4))
    rep = operators.fixed_vectors_of_word(t, word)
    dense = nullspace_fixed_vectors(t, word)
    expected = make_subspace(t.n, dense).vectors if dense else ()
    assert rep.basis.vectors == expected
    assert_integral(t, rep.basis)
    assert rep.dimension == len(dense)
