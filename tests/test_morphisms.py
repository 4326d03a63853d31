"""System homomorphisms, the symbolic functor, operator conjugations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchdyn import coding, morphisms, operators, orbits, systems
from branchdyn.errors import (
    DomainMismatch,
    InvalidSpec,
    OrbitConditionFailed,
    PreconditionUnmet,
    WindowMismatch,
)
from conftest import closed_tables


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
    shift = morphisms.symbolic_model(collatz)
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


def test_swap_coding_map_is_not_injective(swap1):
    shift = morphisms.symbolic_model(swap1)
    phi = morphisms.Morphism(swap1, shift, morphisms.CodingRule(cap=16))
    rep = morphisms.is_isomorphism(phi, (1, 2))
    assert not rep.passed
    assert not rep.injective
    assert rep.witness is not None


# -- the symbolic functor ----------------------------------------------------------------


def test_functor_preserves_identity(collatz):
    ihat = morphisms.induced_symbolic(morphisms.identity(collatz))
    for x in (1, 7, 27):
        seq = coding.exact_coding(collatz, x, 10**4)
        assert ihat(seq) == seq


def test_functor_intertwines_codings():
    sys = two_plus_three()
    _, phi = relabeled_copy(sys, {1: 3, 2: 4, 3: 5, 4: 1, 5: 2})
    phat = morphisms.induced_symbolic(phi)
    for x in sys.states():
        lhs = phat(coding.exact_coding(sys, x, 64))
        rhs = coding.exact_coding(phi.target, phi(x), 64)
        assert lhs == rhs


def test_functor_respects_composition():
    sys = two_plus_three()
    t1, phi = relabeled_copy(sys, {1: 2, 2: 1, 3: 4, 4: 5, 5: 3})
    _, psi = relabeled_copy(t1, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1})
    f_comp = morphisms.induced_symbolic(morphisms.compose(psi, phi))
    f_phi = morphisms.induced_symbolic(phi)
    f_psi = morphisms.induced_symbolic(psi)
    for x in sys.states():
        seq = coding.exact_coding(sys, x, 64)
        assert f_comp(seq) == f_psi(f_phi(seq))


# -- coding isomorphism under totally unique codings ------------------------------------


def test_tuc_iso_collatz_window(collatz):
    rep = morphisms.verify_tuc_iso(collatz, (1, 500), cap=1024)
    assert rep.passed
    assert rep.tuc_passed and rep.intertwined and rep.injective
    assert not rep.exact  # window evidence for an infinite system


def test_tuc_iso_exact_on_finite_system():
    rep = morphisms.verify_tuc_iso(two_plus_three(), None, cap=64)
    assert rep.passed and rep.exact


def test_tuc_iso_refuses_swap(swap1):
    with pytest.raises(PreconditionUnmet):
        morphisms.verify_tuc_iso(swap1, (1, 2), cap=64)


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
    assert rep.isometry_identity
    assert rep.orbit_condition == "exact"


def test_isomorphism_reduces_to_unitary():
    sys = two_plus_three()
    target, phi = relabeled_copy(sys, {1: 5, 2: 4, 3: 1, 4: 2, 5: 3})
    ta = operators.build_truncation(sys, None)
    tb = operators.build_truncation(target, None)
    rep = morphisms.induced_isometry(phi, ta, tb)
    assert rep.passed and rep.isometry_identity
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
    with pytest.raises(OrbitConditionFailed):
        morphisms.induced_isometry(phi, ta, tb)


def test_identity_isometry_on_many_fixed_points(deadline):
    # one closure per component on windows built once: linear, not quadratic
    n = 20000
    sys = _table({x: 1 for x in range(1, n + 1)}, {x: x for x in range(1, n + 1)}, k=1)
    t = operators.build_truncation(sys, None)
    deadline(5)
    rep = morphisms.induced_isometry(morphisms.identity(sys), t, t)
    assert rep.passed and rep.isometry_identity
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
