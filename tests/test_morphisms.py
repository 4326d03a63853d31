"""System homomorphisms, codings under morphisms, operator conjugations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchdyn import battery, coding, linalg, morphisms, operators, orbits, systems
from branchdyn.errors import (
    DomainMismatch,
    InvalidSpec,
    OutOfDomain,
    WindowMismatch,
)
from conftest import branch_matrix, closed_tables, iso_oracle, transpose, zeros


def _table(branch, image, k=None):
    return systems.make_system(systems.FiniteTable.make(branch, image, k=k))


def two_plus_three():
    return _table(
        {1: 1, 2: 2, 3: 1, 4: 2, 5: 1},
        {1: 2, 2: 1, 3: 4, 4: 5, 5: 3},
        k=2,
    )


def relabeled_copy(sys, perm):
    branch = {perm[x]: sys.branch_of(x) for x in sys.states()}
    image = {perm[x]: perm[sys.apply(x)] for x in sys.states()}
    target = _table(branch, image, k=sys.k)
    phi = morphisms.Morphism(sys, target, morphisms.TableRule(dict(perm)))
    return target, phi


# -- homomorphism verification -------------------------------------------------


def test_identity_is_homomorphism(collatz):
    rep = morphisms.check_homomorphism(morphisms.identity(collatz), (1, 200))
    assert rep.passed and rep.checked == 200


def test_coding_map_is_homomorphism(collatz):
    shift = systems.make_system(systems.SymbolicShift(collatz.k))
    phi = morphisms.Morphism(collatz, shift, morphisms.CodingRule(cap=10**4))
    rep = morphisms.check_homomorphism(phi, (1, 50))
    assert rep.passed


def test_plus_one_breaks_branch_preservation(collatz):
    phi = morphisms.Morphism(collatz, collatz, morphisms.AffineRule(1, 1))
    rep = morphisms.check_homomorphism(phi, (1, 20))
    assert not rep.passed
    assert rep.violations[0] == (1, "branch not preserved")


def test_intertwining_violation_detected():
    sys = two_plus_three()
    # swap components in a way that keeps branches but breaks f
    phi = morphisms.Morphism(
        sys, sys, morphisms.TableRule({1: 1, 2: 2, 3: 5, 4: 4, 5: 3})
    )
    rep = morphisms.check_homomorphism(phi, None)
    assert not rep.passed
    assert any("intertwine" in v[1] for v in rep.violations)


def test_branch_counts_must_match(collatz, swap1):
    with pytest.raises(InvalidSpec):
        morphisms.Morphism(collatz, swap1, morphisms.TableRule({}))


# -- composition and category laws ------------------------------------------------


def test_identity_laws(collatz):
    phi = morphisms.Morphism(collatz, collatz, morphisms.AffineRule(1, 0))
    assert morphisms.compose(phi, morphisms.identity(collatz)) == phi
    assert morphisms.compose(morphisms.identity(collatz), phi) == phi


def test_table_composition_verified():
    sys = two_plus_three()
    t1, phi = relabeled_copy(sys, {1: 2, 2: 1, 3: 4, 4: 5, 5: 3})
    t2, psi = relabeled_copy(t1, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1})
    comp = morphisms.compose(psi, phi)
    assert comp.source == sys and comp.target == t2
    assert morphisms.check_homomorphism(comp, None).passed


def test_composition_is_associative():
    sys = two_plus_three()
    t1, f = relabeled_copy(sys, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    t2, g = relabeled_copy(t1, {1: 3, 2: 4, 3: 5, 4: 1, 5: 2})
    t3, h = relabeled_copy(t2, {1: 1, 2: 5, 3: 2, 4: 4, 5: 3})
    left = morphisms.compose(h, morphisms.compose(g, f))
    right = morphisms.compose(morphisms.compose(h, g), f)
    for x in sys.states():
        assert left(x) == right(x)


def test_affine_morphisms_compose_through_a_composed_rule(collatz):
    # an infinite source gets no table: the composite applies both rules
    shift = morphisms.Morphism(collatz, collatz, morphisms.AffineRule(1, 2))
    triple = morphisms.Morphism(collatz, collatz, morphisms.AffineRule(3, 0))
    comp = morphisms.compose(triple, shift)
    assert comp.rule == morphisms.ComposedRule(shift, triple)
    assert [comp(x) for x in (1, 2, 7)] == [9, 12, 27]
    ida = morphisms.Morphism(collatz, collatz, morphisms.AffineRule(1, 0))
    assert morphisms.check_homomorphism(morphisms.compose(ida, ida), (1, 50)).passed


def test_domain_mismatch_rejected(collatz, five_x_one):
    phi = morphisms.identity(collatz)
    psi = morphisms.identity(five_x_one)
    with pytest.raises(DomainMismatch):
        morphisms.compose(psi, phi)


# -- isomorphisms ---------------------------------------------------------------------


def test_relabeling_is_isomorphism():
    sys = two_plus_three()
    _, phi = relabeled_copy(sys, {1: 5, 2: 3, 3: 1, 4: 2, 5: 4})
    rep = morphisms.is_isomorphism(phi)
    assert rep.passed and rep.exact
    assert rep.injective and rep.surjective


def test_identity_is_isomorphism(collatz):
    rep = morphisms.is_isomorphism(morphisms.identity(collatz), (1, 100))
    assert rep.passed
    assert not rep.exact  # window evidence only


def test_identity_on_a_table_with_a_gap_is_isomorphism():
    # the state set (1, 5) is not the interval 1..5
    sys = _table({1: 1, 5: 1}, {1: 5, 5: 1}, k=1)
    rep = morphisms.is_isomorphism(morphisms.identity(sys))
    assert rep.passed and rep.exact and rep.witness is None


@given(closed_tables(), st.data())
def test_relabelled_closed_table_is_isomorphic(table, data):
    # labels 3v + 5 never form an interval once there are two of them
    branch, image, k = table
    sys = _table(branch, image, k=k)
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=10**6), unique=True,
                                min_size=len(branch), max_size=len(branch)))
    perm = {x: 3 * v + 5 for x, v in zip(sorted(branch), labels)}
    target, phi = relabeled_copy(sys, perm)
    inverse = morphisms.Morphism(target, sys, morphisms.TableRule({y: x for x, y in perm.items()}))
    for m in (phi, inverse):
        rep = morphisms.is_isomorphism(m)
        assert rep.passed and rep.exact
    ta = operators.build_truncation(sys, None)
    tb = operators.build_truncation(target, None)
    assert morphisms.conjugate_unitary(phi, ta, tb).passed


def test_non_injective_onto_map_is_surjective():
    # a 3-cycle onto a 2-cycle: every target state is hit, 1 and 2 collide
    three = _table({1: 1, 2: 1, 3: 1}, {1: 2, 2: 3, 3: 1}, k=1)
    two = _table({1: 1, 2: 1}, {1: 2, 2: 1}, k=1)
    phi = morphisms.Morphism(three, two, morphisms.TableRule({1: 1, 2: 1, 3: 2}))
    rep = morphisms.is_isomorphism(phi)
    assert rep.surjective and not rep.injective and not rep.passed
    assert rep.witness == (1, 2, 1)


def test_partial_phi_fails_the_homomorphism_check(collatz):
    sys = two_plus_three()
    partial = morphisms.Morphism(sys, sys, morphisms.TableRule({1: 1, 2: 2, 3: 3, 4: 4}))
    leaving = morphisms.Morphism(collatz, collatz, morphisms.AffineRule(1, -1))
    for phi, window in ((partial, None), (leaving, (1, 5))):
        rep = morphisms.is_isomorphism(phi, window)
        assert not rep.passed and not rep.homomorphism and rep.injective
    assert morphisms.is_isomorphism(partial).surjective is False
    assert morphisms.is_isomorphism(partial).witness == (5,)
    assert morphisms.is_isomorphism(leaving, (1, 5)).surjective is None  # not measured


def test_missed_states_come_in_state_order():
    # 2, 3, 4 are the least missed states; ordered by repr they would be 10, 11, 12
    one = _table({1: 1}, {1: 1}, k=1)
    cycle = _table(dict.fromkeys(range(1, 13), 1), {x: x % 12 + 1 for x in range(1, 13)}, k=1)
    rep = morphisms.is_isomorphism(morphisms.Morphism(one, cycle, morphisms.TableRule({1: 1})))
    assert rep.surjective is False and rep.witness == (2, 3, 4)


def test_onto_map_with_an_image_outside_the_target():
    # every state of the 2-cycle is hit; 3 -> 99 fails the homomorphism check
    three = _table({1: 1, 2: 1, 3: 1}, {1: 2, 2: 3, 3: 1}, k=1)
    two = _table({1: 1, 2: 1}, {1: 2, 2: 1}, k=1)
    phi = morphisms.Morphism(three, two, morphisms.TableRule({1: 1, 2: 2, 3: 99}))
    rep = morphisms.is_isomorphism(phi)
    assert rep.surjective and rep.injective and not rep.homomorphism and not rep.passed
    assert rep.witness == ((2, "does not intertwine f and g"),)


def test_infinite_source_needs_a_window(collatz):
    # a finite source needs none, whatever the target: see the coding map below
    with pytest.raises(InvalidSpec, match="^infinite systems need a window$"):
        morphisms.is_isomorphism(morphisms.identity(collatz))


@given(closed_tables(), st.data())
def test_is_isomorphism_matches_the_brute_force_oracle(table, data):
    # the target is a relabelled copy; phi is the relabelling, in some
    # draws with two images swapped, one state dropped or one image sent
    # outside the target, on all of the source or on a window of it
    branch, image, k = table
    sys = _table(branch, image, k=k)
    states = sorted(branch)
    labels = data.draw(st.permutations(range(len(states))))
    perm = {x: 3 * v + 5 for x, v in zip(states, labels)}
    target, _ = relabeled_copy(sys, perm)
    rule = dict(perm)
    x, y = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    change = data.draw(st.sampled_from(["none", "swap", "drop", "outside"]))
    if change == "swap":
        rule[x], rule[y] = rule[y], rule[x]
    elif change == "drop":
        del rule[x]
    elif change == "outside":
        rule[x] = 0
    window = data.draw(st.one_of(
        st.none(), st.lists(st.sampled_from(states), min_size=1, unique=True)))
    phi = morphisms.Morphism(sys, target, morphisms.TableRule(rule))
    win = None if window is None else systems.SetWindow(window)
    on = states if window is None else sorted(window)
    rep = morphisms.is_isomorphism(phi, win)
    hom, injective, onto = iso_oracle(sys, target, rule, on)
    assert rep.exact == (window is None)
    assert (rep.homomorphism, rep.injective) == (hom, injective)
    assert rep.surjective == (onto if rep.exact else None)
    assert rep.passed == (hom and injective and (onto or not rep.exact))
    # the first collision, else the target states missed, else the first violation
    first, collision = {}, None
    for s in on:
        if s in rule:
            if rule[s] in first and collision is None:
                collision = (first[rule[s]], s, rule[s])
            first.setdefault(rule[s], s)
    missed = tuple(sorted(set(target.states()) - set(first), key=repr))[:3] if rep.exact else ()
    violation = morphisms.check_homomorphism(phi, win).violations[:1]
    assert rep.witness == (collision or missed or violation or None)
    if rep.passed and rep.exact:
        inverse = morphisms.Morphism(
            target, sys, morphisms.TableRule({b: a for a, b in rule.items()}))
        assert morphisms.check_homomorphism(inverse, None).passed


class _CountedRule:
    """A table rule that counts its evaluations."""

    def __init__(self, mapping):
        self.mapping, self.calls = mapping, 0

    def apply(self, m, x):
        self.calls += 1
        return self.mapping[x]


@given(closed_tables(), st.data())
def test_phi_evaluations_per_state(table, data):
    # the checks that tabulate phi evaluate it once per state;
    # check_homomorphism keeps no table, so evaluates phi(x) and phi(f(x))
    branch, image, k = table
    sys = _table(branch, image, k=k)
    states = sorted(branch)
    labels = data.draw(st.permutations(range(len(states))))
    perm = {x: 3 * v + 5 for x, v in zip(states, labels)}
    target, _ = relabeled_copy(sys, perm)
    ta = operators.build_truncation(sys, None)
    tb = operators.build_truncation(target, None)
    checks = (
        (lambda phi: morphisms.is_isomorphism(phi), 1),
        (lambda phi: morphisms.conjugate_unitary(phi, ta, tb), 1),
        (lambda phi: morphisms.induced_isometry(phi, ta, tb), 1),
        (lambda phi: morphisms.check_homomorphism(phi, None), 2),
    )
    for check, per_state in checks:
        rule = _CountedRule(perm)
        assert check(morphisms.Morphism(sys, target, rule)).passed
        assert rule.calls == per_state * len(states)


def test_swap_coding_map_is_not_injective(swap1):
    shift = systems.make_system(systems.SymbolicShift(swap1.k))
    phi = morphisms.Morphism(swap1, shift, morphisms.CodingRule(cap=16))
    rep = morphisms.is_isomorphism(phi, (1, 2))
    assert not rep.passed
    assert not rep.injective
    assert rep.witness is not None


def test_check_11_catches_a_class_route_image_one_step_off(monkeypatch):
    # build_truncation's class route reads each branch off the cylinder
    # kernel, whose class step here maps k*t + r to A*(t + 1) + B; the
    # shuffled order takes the state loop, so the conjugation fails
    true_step = systems._class_step

    def one_step_off(k, rows, A, B):
        i, a, b = true_step(k, rows, A, B)
        return i, a, b + a

    monkeypatch.setattr(systems, "_class_step", one_step_off)
    result = battery.check_morphism_suite()
    assert not result.passed
    assert result.detail.startswith("relabeled collatz conjugation")


# -- codings under morphisms ------------------------------------------------------------


def test_functor_intertwines_codings():
    # a morphism preserves branches and intertwines, so it keeps codings
    sys = two_plus_three()
    _, phi = relabeled_copy(sys, {1: 3, 2: 4, 3: 5, 4: 1, 5: 2})
    for x in sys.states():
        assert coding.exact_coding(sys, x, 64) == coding.exact_coding(phi.target, phi(x), 64)


def test_check_11_catches_a_wrong_conjugation_column(monkeypatch):
    # a column reported on branch 1 although U M_1 U^T and N_1 agree there
    true_columns = morphisms._mismatched_columns

    def one_more(trunc_a, trunc_b, v):
        out = true_columns(trunc_a, trunc_b, v)
        out[0] = out[0] or [min(v)]
        return out

    monkeypatch.setattr(morphisms, "_mismatched_columns", one_more)
    result = battery.check_morphism_suite()
    assert not result.passed
    assert result.detail.startswith("relabeled collatz conjugation: ")


# -- the coding map under totally unique codings ------------------------------------


@given(closed_tables())
def test_coding_map_is_injective_exactly_under_tuc(table):
    # a cycle of n states needs at most n + 1 steps to close, and two
    # states that separate do so within n * n + 2 symbols
    branch, image, k = table
    sys = _table(branch, image, k=k)
    n = len(branch)
    shift = systems.make_system(systems.SymbolicShift(sys.k))
    phi = morphisms.Morphism(sys, shift, morphisms.CodingRule(n + 1))
    rep = morphisms.is_isomorphism(phi)
    assert rep.injective == coding.verify_tuc_window(sys, None, cap=n * n + 2).passed
    assert rep.homomorphism and rep.passed == rep.injective
    assert not rep.exact and rep.surjective is None
    assert morphisms.check_homomorphism(phi, None).passed


def test_coding_map_on_a_collatz_window(collatz):
    assert coding.verify_tuc_window(collatz, (1, 500), 1024).passed
    phi = morphisms.Morphism(
        collatz, systems.make_system(systems.SymbolicShift(collatz.k)), morphisms.CodingRule(1024))
    rep = morphisms.is_isomorphism(phi, (1, 500))
    assert rep.passed and rep.injective
    assert not rep.exact and rep.surjective is None  # window evidence only


def test_swap_coding_map_is_not_an_isomorphism(swap1):
    assert not coding.verify_tuc_window(swap1, None, cap=64).passed
    shift = systems.make_system(systems.SymbolicShift(swap1.k))
    phi = morphisms.Morphism(swap1, shift, morphisms.CodingRule(64))
    rep = morphisms.is_isomorphism(phi)
    assert rep.homomorphism and not rep.injective and not rep.passed
    assert rep.witness[:2] == (1, 2)


# -- unitary conjugation ------------------------------------------------------------------


def test_conjugation_identity_is_trivial(collatz):
    t = operators.build_truncation(collatz, (1, 50))
    rep = morphisms.conjugate_unitary(morphisms.identity(collatz), t, t)
    assert rep.passed and rep.interior_passed
    assert rep.per_branch == (True, True)


def test_conjugation_of_relabeled_copy():
    sys = two_plus_three()
    perm = {1: 4, 2: 2, 3: 5, 4: 1, 5: 3}
    target, phi = relabeled_copy(sys, perm)
    ta = operators.build_truncation(sys, None)
    tb = operators.build_truncation(target, None)
    rep = morphisms.conjugate_unitary(phi, ta, tb)
    assert rep.passed and rep.witness is None


def test_conjugation_on_shuffled_collatz_window(collatz):
    states = list(range(1, 1001))
    random.Random(3).shuffle(states)
    ta = operators.build_truncation(collatz, (1, 1000))
    tb = operators.build_truncation(collatz, (1, 1000), order=tuple(states))
    rep = morphisms.conjugate_unitary(morphisms.identity(collatz), ta, tb)
    assert rep.passed


def test_conjugation_window_mismatch(collatz):
    ta = operators.build_truncation(collatz, (1, 50))
    tb = operators.build_truncation(collatz, (1, 60))
    with pytest.raises(WindowMismatch):
        morphisms.conjugate_unitary(morphisms.identity(collatz), ta, tb)


def _column(m, c):
    return [row[c] for row in m]


@given(closed_tables(), st.data())
def test_transport_matches_dense_conjugation(table, data):
    # B is a relabelled copy of A, with a second copy beside it in some
    # draws; phi is the relabelling, with two images swapped in some.
    # Window A is all of A or part of it, window B the image of window A
    # (and the copy of window A).
    branch, image, k = table
    sys = _table(branch, image, k=k)
    states = sorted(branch)
    labels = data.draw(st.permutations(range(len(states))))
    perm = {x: 3 * v + 5 for x, v in zip(states, labels)}
    copy = data.draw(st.booleans())
    b_branch = {perm[x]: branch[x] for x in states}
    b_image = {perm[x]: perm[image[x]] for x in states}
    if copy:
        b_branch.update({3 * x + 4: branch[x] for x in states})
        b_image.update({3 * x + 4: 3 * image[x] + 4 for x in states})
    target = _table(b_branch, b_image, k=k)
    rule = dict(perm)
    if len(states) > 1 and data.draw(st.booleans()):
        x, y = data.draw(st.lists(st.sampled_from(states), min_size=2, max_size=2, unique=True))
        rule[x], rule[y] = rule[y], rule[x]
    phi = morphisms.Morphism(sys, target, morphisms.TableRule(rule))
    window = data.draw(st.one_of(
        st.just(states), st.lists(st.sampled_from(states), min_size=1, unique=True)))
    window_b = {rule[x] for x in window} | ({3 * x + 4 for x in window} if copy else set())
    ta = operators.build_truncation(sys, systems.SetWindow(window))
    tb = operators.build_truncation(target, systems.SetWindow(window_b))
    interior = sorted(ta.interior())
    v = zeros(tb.n, ta.n)
    for x in window:
        v[tb.index[rule[x]]][ta.index[x]] = 1
    vt = transpose(v)
    # per branch: mismatched columns of U M_i U^T against N_i (window B)
    # and of V^T N_i V against M_i (interior columns of window A)
    conjugated, compressed = [], []
    for i in range(1, k + 1):
        m, n = branch_matrix(ta, i), branch_matrix(tb, i)
        umu = linalg.mat_mul(linalg.mat_mul(v, m), vt)
        vnv = linalg.mat_mul(linalg.mat_mul(vt, n), v)
        conjugated.append([c for c in range(tb.n) if _column(umu, c) != _column(n, c)])
        compressed.append([c for c in interior if _column(vnv, c) != _column(m, c)])
    if copy:
        with pytest.raises(WindowMismatch):
            morphisms.conjugate_unitary(phi, ta, tb)
    else:
        rep = morphisms.conjugate_unitary(phi, ta, tb)
        assert rep.per_branch == tuple(not cols for cols in conjugated)
        back = {tb.index[rule[x]]: ta.index[x] for x in window}
        assert rep.interior_passed == (not any(
            back[c] in interior for cols in conjugated for c in cols))
        assert rep.witness == next(
            ((i, tb.states[cols[0]]) for i, cols in enumerate(conjugated, 1) if cols), None)
    rep = morphisms.induced_isometry(phi, ta, tb)
    assert rep.per_branch_interior == tuple(not cols for cols in compressed)
    if rep.orbit_condition == "failed":
        assert rule != perm  # a relabelling carries total orbits onto total orbits
        assert not rep.passed and rep.witness["x"] in window
        unreached, outside = rep.witness["unreached"], rep.witness["outside"]
        assert unreached or outside
        assert len(unreached) <= 4 and len(outside) <= 4
        assert set(unreached) | set(outside) <= window_b
    else:
        assert rep.passed == all(rep.per_branch_interior)
        assert rep.witness == next(
            ((i, ta.states[cols[0]]) for i, cols in enumerate(compressed, 1) if cols), None)


# -- isometric embeddings ------------------------------------------------------------------


def test_inclusion_of_invariant_component():
    small = _table({1: 1, 2: 2}, {1: 2, 2: 1}, k=2)
    big = _table({1: 1, 2: 2, 3: 1, 4: 2}, {1: 2, 2: 1, 3: 4, 4: 3}, k=2)
    phi = morphisms.Morphism(small, big, morphisms.TableRule({1: 1, 2: 2}))
    assert morphisms.check_homomorphism(phi, None).passed
    ta = operators.build_truncation(small, None)
    tb = operators.build_truncation(big, None)
    rep = morphisms.induced_isometry(phi, ta, tb)
    assert rep.passed
    assert rep.orbit_condition == "exact"


def test_isometry_refuses_phi_leaving_window_b():
    small = _table({1: 1, 2: 2}, {1: 2, 2: 1}, k=2)
    big = _table({1: 1, 2: 2, 3: 1, 4: 2}, {1: 2, 2: 1, 3: 4, 4: 3}, k=2)
    phi = morphisms.Morphism(small, big, morphisms.TableRule({1: 3, 2: 4}))
    ta = operators.build_truncation(small, None)
    tb = operators.build_truncation(big, systems.SetWindow({1, 2, 3}))
    with pytest.raises(WindowMismatch, match="^phi[(]2[)] = 4 is outside window B$"):
        morphisms.induced_isometry(phi, ta, tb)


@pytest.mark.parametrize(
    "rule, fault, message",
    [
        # 1 has no image, and 2 and 3 share one: the missing image comes first
        ({2: 1, 3: 1, 4: 4, 5: 5}, OutOfDomain, "^1 not in the morphism table$"),
        ({1: 1, 2: 1, 3: 3, 4: 4}, WindowMismatch, "^phi identifies 1 and 2$"),
    ],
)
def test_transport_raises_phi_first_fault(rule, fault, message):
    sys = two_plus_three()
    phi = morphisms.Morphism(sys, sys, morphisms.TableRule(rule))
    t = operators.build_truncation(sys, None)
    for transport in (morphisms.conjugate_unitary, morphisms.induced_isometry):
        with pytest.raises(fault, match=message):
            transport(phi, t, t)


def test_isomorphism_reduces_to_unitary():
    sys = two_plus_three()
    target, phi = relabeled_copy(sys, {1: 5, 2: 4, 3: 1, 4: 2, 5: 3})
    ta = operators.build_truncation(sys, None)
    tb = operators.build_truncation(target, None)
    rep = morphisms.induced_isometry(phi, ta, tb)
    assert rep.passed
    assert morphisms.conjugate_unitary(phi, ta, tb).passed


def test_orbit_condition_failure_detected():
    # the target total orbit of the image is strictly larger: 3 and 4
    # feed into the image cycle from outside
    small = _table({1: 1, 2: 2}, {1: 2, 2: 1}, k=2)
    big = _table({1: 1, 2: 2, 3: 2, 4: 1}, {1: 2, 2: 1, 3: 2, 4: 3}, k=2)
    phi = morphisms.Morphism(small, big, morphisms.TableRule({1: 1, 2: 2}))
    assert morphisms.check_homomorphism(phi, None).passed
    ta = operators.build_truncation(small, None)
    tb = operators.build_truncation(big, None)
    rep = morphisms.induced_isometry(phi, ta, tb)
    assert not rep.passed
    assert rep.orbit_condition == "failed"
    assert rep.witness == {"x": 1, "unreached": (3, 4), "outside": ()}
    # the compression identity is still checked, and holds on the interior
    assert rep.per_branch_interior == (True, True)


def test_orbit_condition_names_states_outside_the_target_orbit():
    # phi is no homomorphism: it sends a 2-cycle onto two fixed points,
    # so phi(Orb(1)) leaves Orb(phi(1)) and nothing is unreached
    cycle2 = _table({1: 1, 2: 1}, {1: 2, 2: 1}, k=1)
    fixed2 = _table({1: 1, 2: 1}, {1: 1, 2: 2}, k=1)
    phi = morphisms.Morphism(cycle2, fixed2, morphisms.IdentityRule())
    ta = operators.build_truncation(cycle2, None)
    tb = operators.build_truncation(fixed2, None)
    rep = morphisms.induced_isometry(phi, ta, tb)
    assert not rep.passed and rep.orbit_condition == "failed"
    assert rep.witness == {"x": 1, "unreached": (), "outside": (2,)}
    assert rep.per_branch_interior == (False,)


def test_identity_isometry_on_many_fixed_points(deadline):
    # one closure per component on windows built once: linear, not quadratic
    n = 20000
    sys = _table({x: 1 for x in range(1, n + 1)}, {x: x for x in range(1, n + 1)}, k=1)
    t = operators.build_truncation(sys, None)
    deadline(5)
    rep = morphisms.induced_isometry(morphisms.identity(sys), t, t)
    assert rep.passed
    assert rep.orbit_condition == "exact"


def test_window_limited_orbit_check(collatz):
    # infinite system: closures touch the window edge, not decisive
    ta = operators.build_truncation(collatz, (1, 30))
    tb = operators.build_truncation(collatz, (1, 30))
    rep = morphisms.induced_isometry(morphisms.identity(collatz), ta, tb)
    assert rep.orbit_condition == "window-limited"
    assert rep.passed


# -- orbit image and pullback (windowed) -------------------------------------------------


def test_morphism_maps_orbits_to_orbits():
    sys = two_plus_three()
    _, phi = relabeled_copy(sys, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    for x in sys.states():
        src = orbits.orbit_iterate(sys, x, cap=100).trajectory
        dst = orbits.orbit_iterate(phi.target, phi(x), cap=100).trajectory
        assert tuple(phi(s) for s in src[: len(dst)]) == dst[: len(src)]


def test_pullback_of_invariant_set_is_invariant():
    sys = two_plus_three()
    target, phi = relabeled_copy(sys, {1: 3, 2: 1, 3: 2, 4: 4, 5: 5})
    states = target.states()
    n = len(states)
    for mask in range(2**n):
        L = {states[j] for j in range(n) if mask >> j & 1}
        if any(target.apply(y) not in L for y in L):
            continue
        if any(p not in L for y in L for p, _ in target.preimages(y)):
            continue
        pre = {x for x in sys.states() if phi(x) in L}
        assert all(sys.apply(x) in pre for x in pre)
        assert all(p in pre for x in pre for p, _ in sys.preimages(x))
