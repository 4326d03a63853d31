"""The verification battery behind `branchdyn verify-all`.

Thirteen desk-scale checks, every one exact: cycle censuses against
brute-force orbit oracles, exhaustive uniqueness sweeps, coding
injectivity scans, projection mechanics, the invariant-set to
reducing-subspace correspondence on randomized finite systems, the
morphism laws, digit-tower transport, and a convergence probe.  All
randomness is drawn from fixed seeds so repeated runs are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import coding, morphisms, operators, orbits, words
from .errors import DepthExhausted
from .systems import (
    AlphaBeta,
    DynamicalSystem,
    FiniteTable,
    IntWindow,
    QxPlusD,
    collatz,
    make_system,
    window_states,
)


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str


def _result(number: int, name: str, failures: list, detail: str) -> CheckResult:
    if failures:
        detail = "; ".join(str(f) for f in failures[:4])
    return CheckResult(number=number, name=name, passed=not failures, detail=detail)


# ---------------------------------------------------------------------------
# shared fixtures


@lru_cache(maxsize=None)
def _collatz() -> DynamicalSystem:
    return make_system(collatz())


@lru_cache(maxsize=None)
def _collatz_cycles_20():
    return words.enumerate_cycles(_collatz(), 20)


def _random_table_system(rng: random.Random, max_states: int = 10):
    """A random total map on 2..max_states states with a random branch
    partition keeping every branch injective, or None if the greedy
    assignment jams."""
    n = rng.randint(2, max_states)
    k = rng.randint(2, min(3, n))
    image = {x: rng.randint(1, n) for x in range(1, n + 1)}
    used = {i: set() for i in range(1, k + 1)}
    branch = {}
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for x in order:
        open_branches = [i for i in range(1, k + 1) if image[x] not in used[i]]
        if not open_branches:
            return None
        i = rng.choice(open_branches)
        branch[x] = i
        used[i].add(image[x])
    return make_system(FiniteTable.make(branch, image, k=k))


def _invariant_subsets(sys: DynamicalSystem) -> set:
    """All invariant subsets of a finite system, by exhaustive scan.

    Independent of the union-find route: a subset qualifies iff it is
    closed under the map and under preimages.
    """
    states = list(sys.states())
    out = set()
    for mask in range(1 << len(states)):
        subset = frozenset(s for b, s in enumerate(states) if mask >> b & 1)
        forward = all(sys.apply(x) in subset for x in subset)
        backward = all(x in subset for x in states if sys.apply(x) in subset)
        if forward and backward:
            out.add(subset)
    return out


def _basis_support(trunc, basis) -> frozenset:
    support = set()
    for vec in basis.vectors:
        support.update(trunc.states[c] for c in vec)
    return frozenset(support)


# ---------------------------------------------------------------------------
# the checks


def check_collatz_cycle_census() -> CheckResult:
    """Word enumeration to length 20 against orbit iteration of every
    start value up to 10^4: both must see exactly the 1-4-2 cycle."""
    failures = []
    rep = _collatz_cycles_20()
    found = {(r.cycle, r.word) for r in rep.cycles}
    if found != {((1, 4, 2), (1, 2, 2))}:
        failures.append(f"enumeration returned {sorted(found)}")
    sys = _collatz()
    oracle = set()
    for rec in orbits.orbit_census(sys, range(1, 10**4 + 1), cap=10**4):
        if not rec.entered_cycle:
            failures.append(f"orbit of {rec.start} hit the cap")
            break
        oracle.add(rec.cycle)
    if oracle != {(1, 4, 2)}:
        failures.append(f"orbit oracle saw cycles {sorted(oracle)}")
    return _result(
        1,
        "collatz cycle census to word length 20",
        failures,
        f"one cycle, {rep.words_tried} words tried, 10^4 orbits replayed",
    )


def check_qx_plus_one_cycles() -> CheckResult:
    """5x+1 has exactly the three known cycles below word length 12;
    (2^m-1)x+1 cycles through 1 with word 1 2..2 of length m+1."""
    failures = []
    five = make_system(QxPlusD(5, 1))
    rep = words.enumerate_cycles(five, 12)
    reps = {min(r.cycle) for r in rep.cycles}
    if len(rep.cycles) != 3 or reps != {1, 13, 17}:
        failures.append(f"5x+1 cycles through {sorted(reps)}")
    for r in rep.cycles:
        replay = orbits.orbit_iterate(five, r.cycle[0], cap=64)
        if replay.cycle != r.cycle:
            failures.append(f"5x+1 cycle {r.cycle} fails orbit replay")
    for m in (2, 3, 4, 5):
        sys = make_system(QxPlusD(2**m - 1, 1))
        mrep = words.enumerate_cycles(sys, m + 1)
        hits = [r for r in mrep.cycles if 1 in r.cycle]
        want = (1,) + (2,) * m
        if len(hits) != 1 or hits[0].word != want or hits[0].length != m + 1:
            failures.append(f"m={m}: cycle through 1 not as expected")
    return _result(
        2,
        "qx+1 cycle censuses (q = 5 and Mersenne)",
        failures,
        "5x+1 cycles through 1, 13, 17; Mersenne m=2..5 through 1",
    )


def check_3x_plus_d_fixed_points() -> CheckResult:
    """Word 1 2 2 fixes d in every 3x+d system, odd d up to 9."""
    failures = []
    for d in (1, 3, 5, 7, 9):
        sys = make_system(QxPlusD(3, d))
        x = words.fixed_point_of_word(sys, (1, 2, 2))
        if x != d:
            failures.append(f"d={d}: fixed point {x}")
    return _result(
        3,
        "3x+d word fixed points at x = d",
        failures,
        "d in 1,3,5,7,9 each fixed by word 1 2 2",
    )


def check_uniqueness_sweep() -> CheckResult:
    """No word of length <= 12 in any qx+d system, odd q,d <= 9, has two
    validated fixed points."""
    failures = []
    count = 0
    for q in (1, 3, 5, 7, 9):
        for d in (1, 3, 5, 7, 9):
            sys = make_system(QxPlusD(q, d))
            rep = words.check_uniqueness(sys, 12)
            count += rep.words_checked
            if not rep.passed:
                failures.append(f"q={q} d={d}: {rep.violations[:1]}")
    return _result(
        4,
        "fixed-point uniqueness sweep, 25 systems, words to length 12",
        failures,
        f"{count} words checked",
    )


def check_aperiodic_cycle_words() -> CheckResult:
    """Every cycle from the three censuses has an aperiodic minimal word
    and an aperiodic parity tuple."""
    failures = []
    batches = [(_collatz(), _collatz_cycles_20().cycles)]
    five = make_system(QxPlusD(5, 1))
    batches.append((five, words.enumerate_cycles(five, 12).cycles))
    for m in (2, 3, 4, 5):
        sys = make_system(QxPlusD(2**m - 1, 1))
        batches.append((sys, words.enumerate_cycles(sys, m + 1).cycles))
    for d in (1, 3, 5, 7, 9):
        sys = make_system(QxPlusD(3, d))
        rec = orbits.orbit_iterate(sys, d, cap=16)
        batches.append(
            (sys, [words.CycleRecord(word=None, cycle=rec.cycle)])
        )
    total = 0
    for sys, cycles in batches:
        for r in cycles:
            total += 1
            wrep = words.cycle_word_aperiodicity(sys, r.cycle)
            if not wrep.passed:
                failures.append(f"cycle {r.cycle}: word {wrep.word} periodic")
            if r.word is not None and not words.is_aperiodic(r.word):
                failures.append(f"word {r.word} periodic")
            if not wrep.parity_aperiodic:
                failures.append(f"cycle {r.cycle}: parity tuple periodic")
    return _result(
        5,
        "aperiodic words and parity tuples on all census cycles",
        failures,
        f"{total} cycles checked",
    )


def check_power_word_agreement() -> CheckResult:
    """f_I and f_{I^m} agree on fixed-point existence and value, 200
    random word-power pairs on collatz and 5x+1."""
    rng = random.Random(0xBD06)
    failures = []
    pool = [_collatz(), make_system(QxPlusD(5, 1))]
    for trial in range(200):
        sys = pool[trial % 2]
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 8)))
        m = rng.randint(1, 5)
        rep = words.verify_unifix(sys, word, m)
        if not rep.passed:
            failures.append(f"word {word} power {m}: {rep}")
    return _result(
        6,
        "fixed points of word powers match the base word",
        failures,
        "200 random (word, power) pairs",
    )


def check_coding_injectivity() -> CheckResult:
    """Pairwise distinguishing prefixes exist on [1, 2000] for collatz
    and 5x+3, every pair separated within 1024 symbols."""
    failures = []
    for sys, label in ((_collatz(), "3x+1"), (make_system(QxPlusD(5, 3)), "5x+3")):
        rep = coding.verify_tuc_window(sys, (1, 2000), 1024)
        if not rep.passed:
            failures.append(
                f"{label}: {len(rep.undistinguished)} groups undistinguished"
            )
    return _result(
        7,
        "coding injectivity scan on [1, 2000]",
        failures,
        "both systems: zero undistinguished pairs",
    )


def check_prefix_projection_mechanics() -> CheckResult:
    """Prefix projections on the [1, 10^4] collatz truncation: exact
    idempotent self-adjoint diagonals matching the word-operator route,
    and the e_1 + e_5 input stabilizes to e_1 at prefix length 4."""
    rng = random.Random(0xBD08)
    sys = _collatz()
    trunc = operators.build_truncation(sys, (1, 10**4))
    failures = []
    for _ in range(50):
        x = rng.randint(1, 10**4)
        length = rng.randint(1, 10)
        prefix = coding.coding_prefix(sys, x, length)
        proj = operators.projection_P(trunc, prefix)
        # independent route: compose the sub-permutation column maps
        colmap = {c: c for c in range(trunc.n)}
        for sym in prefix:
            step = trunc.maps[sym - 1]
            colmap = {c: step[r] for c, r in colmap.items() if r in step}
        alive = set(colmap)
        if alive != set(proj.coordinates):
            failures.append(f"prefix {prefix}: projection support mismatch")
            continue
        probe = {
            rng.randrange(trunc.n): Fraction(rng.randint(-3, 3)) for _ in range(8)
        }
        once = proj.apply(probe)
        if proj.apply(once) != once:
            failures.append(f"prefix {prefix}: not idempotent")
        left = {c: v for c, v in probe.items() if c in proj.coordinates}
        if left != once:
            failures.append(f"prefix {prefix}: not self-adjoint diagonal")
    a = {trunc.index[1]: Fraction(1), trunc.index[5]: Fraction(1)}
    rep = operators.verify_pm_limit(trunc, a, 1, cap=64)
    if not rep.passed or rep.stabilization_index != 4:
        failures.append(f"e_1+e_5 stabilization: {rep.stabilization_index}")
    return _result(
        8,
        "prefix projections: exact mechanics and the e_1+e_5 limit",
        failures,
        "50 sampled prefixes; stabilization at length 4",
    )


def check_correspondence_bijection() -> CheckResult:
    """Invariant sets versus reducing subspaces on 50 random injective
    codings, plus the 2-state swap where the correspondence must fail
    to be onto."""
    rng = random.Random(0xBD09)
    failures = []
    made = 0
    attempts = 0
    while made < 50 and attempts < 20000 and not failures:
        attempts += 1
        sys = _random_table_system(rng)
        if sys is None:
            continue
        n = len(sys.states())
        tuc = coding.verify_tuc_window(sys, None, cap=n * n + 2)
        if not tuc.passed:
            continue
        made += 1
        trunc = operators.build_truncation(sys, None)
        crep = operators.commutant_projections(trunc)
        invariant = _invariant_subsets(sys)
        classes = {
            frozenset(c) for c in orbits.minimality_probe(sys, None).classes
        }
        if not crep.abelian or set(crep.block_field) != {1}:
            failures.append(f"system {sys.spec}: commutant not scalar on every block")
            break
        if crep.lattice_size != len(invariant):
            failures.append(
                f"system {sys.spec}: lattice {crep.lattice_size} vs "
                f"{len(invariant)} invariant sets"
            )
            break
        supports = {_basis_support(trunc, b) for b in crep.blocks}
        if supports != classes:
            failures.append(f"system {sys.spec}: blocks do not match orbit classes")
            break
        for b in crep.blocks:
            if b.dimension != len(_basis_support(trunc, b)):
                failures.append(f"system {sys.spec}: block not a coordinate subspace")
                break
        # K maps to the span of the blocks it contains; inclusion both ways
        sample = sorted(invariant, key=lambda s: (len(s), sorted(s)))
        if len(sample) > 64:
            sample = rng.sample(sample, 64)
        for K in sample:
            basis = operators.subspace_from_invariant_set(trunc, K)
            if not operators.is_reducing(trunc, basis).passed:
                failures.append(f"system {sys.spec}: H_K not reducing for K={sorted(K)}")
                break
            inside = {s for s in supports if s <= K}
            if sum(len(s) for s in inside) != basis.dimension:
                failures.append(f"system {sys.spec}: H_K misses blocks for K={sorted(K)}")
                break
        for _ in range(8):
            k1, k2 = rng.choice(list(invariant)), rng.choice(list(invariant))
            if (k1 <= k2) != (
                {s for s in supports if s <= k1} <= {s for s in supports if s <= k2}
            ):
                failures.append(f"system {sys.spec}: inclusion order not preserved")
                break
    if made < 50 and not failures:
        failures.append(f"only {made} injective-coding systems in {attempts} draws")
    swap = make_system(FiniteTable.make({1: 1, 2: 1}, {1: 2, 2: 1}, k=1))
    strunc = operators.build_truncation(swap, None)
    srep = operators.commutant_projections(strunc)
    sinv = _invariant_subsets(swap)
    if srep.lattice_size != 4 or len(sinv) != 2:
        failures.append(
            f"swap: lattice {srep.lattice_size}, invariant sets {len(sinv)}"
        )
    for K in sinv:  # the injection direction still holds
        basis = operators.subspace_from_invariant_set(strunc, K)
        if basis.dimension and not operators.is_reducing(strunc, basis).passed:
            failures.append(f"swap: H_K not reducing for K={sorted(K)}")
    return _result(
        9,
        "invariant sets match reducing subspaces exactly when codings are injective",
        failures,
        f"50 random systems bijective; swap counterexample 4 vs 2 ({attempts} draws)",
    )


def check_word_fixed_vectors() -> CheckResult:
    """Eigenvalue-1 spaces of truncated word operators on [1, 100]."""
    failures = []
    trunc = operators.build_truncation(_collatz(), (1, 100))
    rep = operators.fixed_vectors_of_word(trunc, (1, 2, 2))
    support = _basis_support(trunc, rep.basis)
    if rep.dimension != 1 or support != {1}:
        failures.append(f"word 1 2 2: dimension {rep.dimension}, support {support}")
    rep = operators.fixed_vectors_of_word(trunc, (1, 2))
    if rep.dimension != 0:
        failures.append(f"word 1 2: dimension {rep.dimension}")
    return _result(
        10,
        "fixed vectors of word operators on [1, 100]",
        failures,
        "word 1 2 2 fixes exactly the e_1 line; word 1 2 fixes nothing",
    )


def check_morphism_suite() -> CheckResult:
    """Category and functor laws, orbit image and pullback invariance,
    and unitary conjugation of truncations."""
    rng = random.Random(0xBD11)
    failures = []

    # two isomorphic 5-state systems plus a quotient target
    f_a = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6}
    br_a = {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 1}
    sys_a = make_system(FiniteTable.make(br_a, f_a, k=2))
    sigma = {1: 3, 2: 5, 3: 2, 4: 6, 5: 1, 6: 4}
    f_b = {sigma[x]: sigma[f_a[x]] for x in f_a}
    br_b = {sigma[x]: br_a[x] for x in f_a}
    sys_b = make_system(FiniteTable.make(br_b, f_b, k=2))
    quot_f = {1: 2, 2: 1, 5: 5}
    quot_b = {1: 1, 2: 2, 5: 1}
    sys_q = make_system(FiniteTable.make(quot_b, quot_f, k=2))
    to_q = {1: 1, 2: 2, 3: 1, 4: 2, 5: 5, 6: 5}

    phi = morphisms.Morphism(sys_a, sys_b, morphisms.TableRule(sigma))
    tau = morphisms.Morphism(
        sys_b, sys_q, morphisms.TableRule({sigma[x]: to_q[x] for x in to_q})
    )
    for m in (phi, tau):
        rep = morphisms.check_homomorphism(m, None)
        if not rep.passed:
            failures.append(f"homomorphism check failed: {rep.violations[:1]}")

    ida = morphisms.identity(sys_a)
    if morphisms.compose(phi, ida) != phi or morphisms.compose(ida, ida) != ida:
        failures.append("identity laws fail")
    idb = morphisms.identity(sys_b)
    if morphisms.compose(idb, phi) != phi:
        failures.append("left identity law fails")
    comp = morphisms.compose(tau, phi)
    assoc_l = morphisms.compose(morphisms.compose(tau, phi), ida)
    assoc_r = morphisms.compose(tau, morphisms.compose(phi, ida))
    if assoc_l != assoc_r:
        failures.append("associativity fails")

    # functor laws on stored codings
    f_id = morphisms.induced_symbolic(morphisms.identity(sys_a))
    if f_id != morphisms.identity(f_id.source):
        failures.append("induced map of the identity is not the identity")
    lhs = morphisms.induced_symbolic(comp)
    rhs = morphisms.compose(
        morphisms.induced_symbolic(tau), morphisms.induced_symbolic(phi)
    )
    if lhs != rhs:
        failures.append("induced maps do not compose")
    for x in sys_a.states():
        ca = coding.exact_coding(sys_a, x, cap=64)
        cb = coding.exact_coding(sys_b, phi(x), cap=64)
        if ca != cb:
            failures.append(f"coding not preserved at {x}")
    col = _collatz()
    for _ in range(100):
        x = rng.randint(1, 10**6)
        pa = coding.coding_prefix(col, x, 64)
        pb = coding.coding_prefix(col, morphisms.identity(col)(x), 64)
        if pa != pb:
            failures.append(f"identity coding mismatch at {x}")

    # orbit image and pullback invariance
    for x in sys_a.states():
        orb_a = orbits.orbit_iterate(sys_a, x, cap=100).replay()
        orb_q = orbits.orbit_iterate(sys_q, to_q[x], cap=100).replay()
        if {to_q[s] for s in orb_a} != set(orb_q):
            failures.append(f"orbit image mismatch at {x}")
    chi = morphisms.compose(tau, phi)
    for L in _invariant_subsets(sys_q):
        pre = frozenset(x for x in sys_a.states() if chi(x) in L)
        forward = all(sys_a.apply(x) in pre for x in pre)
        backward = all(
            x in pre for x in sys_a.states() if sys_a.apply(x) in pre
        )
        if not (forward and backward):
            failures.append(f"pullback of {sorted(L)} not invariant")

    # conjugation: relabeled collatz truncation, then random finite pairs
    ta = operators.build_truncation(col, (1, 1000))
    shuffled = list(range(1, 1001))
    rng.shuffle(shuffled)
    tb = operators.build_truncation(col, (1, 1000), order=shuffled)
    crep = morphisms.conjugate_unitary(morphisms.identity(col), ta, tb)
    if not crep.passed:
        failures.append(f"relabeled collatz conjugation: {crep.witness}")
    made = 0
    while made < 20:
        sys1 = _random_table_system(rng)
        if sys1 is None:
            continue
        made += 1
        states = list(sys1.states())
        relabel = states[:]
        rng.shuffle(relabel)
        perm = dict(zip(states, relabel))
        f2 = {perm[x]: perm[sys1.apply(x)] for x in states}
        b2 = {perm[x]: sys1.branch_of(x) for x in states}
        sys2 = make_system(FiniteTable.make(b2, f2, k=sys1.k))
        iso = morphisms.Morphism(sys1, sys2, morphisms.TableRule(perm))
        irep = morphisms.is_isomorphism(iso)
        if not (irep.passed and irep.exact):
            failures.append(f"relabeling not recognized as isomorphism: {sys1.spec}")
            break
        t1 = operators.build_truncation(sys1, None)
        t2 = operators.build_truncation(sys2, None)
        urep = morphisms.conjugate_unitary(iso, t1, t2)
        if not urep.passed:
            failures.append(f"conjugation mismatch: {urep.witness}")
            break
    return _result(
        11,
        "morphism laws and unitary conjugation of truncations",
        failures,
        "category + functor laws, orbit/pullback transport, 21 conjugations",
    )


def check_digit_towers() -> CheckResult:
    """Tower transport along the map commutes with building the tower at
    the image, and residue recovery holds on constructed pairs."""
    failures = []
    towers = [
        (_collatz(), 2),
        (make_system(AlphaBeta(3, (4, 4), (2, 1))), 3),
        (make_system(AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1))), 5),
    ]
    tower_step = coding._tower_step
    for sys, k in towers:
        # the system checks of tower_apply and the state checks of
        # tower_from_state, once per system; the sweep runs on residues
        rows = coding._tower_rows(sys, k)
        _, states = window_states(sys, IntWindow(1, 10**4))
        step, branch = sys._step, sys._branch
        powers = [k**depth for depth in range(9)]
        for x in states:
            fx = step(x)
            division = branch(x) == k and x % k == 0
            for depth in range(1, 9):
                value = x % powers[depth]
                if division and depth == 1:
                    try:
                        tower_step(rows, k, depth, value)
                        failures.append(f"k={k} x={x}: depth-1 division not flagged")
                    except DepthExhausted:
                        pass
                    continue
                stepped_depth, stepped = tower_step(rows, k, depth, value)
                if stepped != fx % powers[stepped_depth]:
                    failures.append(f"k={k} x={x} depth={depth}: tower mismatch")
            if failures:
                break
        if failures:
            break
    rng = random.Random(0xBD12)
    done = 0
    while done < 1000 and not failures:
        sys, k = towers[done % 3]
        j = rng.randint(1, 6)
        t = rng.randint(1, 16)
        x = rng.randint(1, 10**6)
        if sys.branch_of(x) == k:
            y = x + t * k ** (j + 1)
        else:
            y = x + t * k**j
            if sys.branch_of(y) != sys.branch_of(x):
                continue
            a, _ = sys.branch_affine_int(sys.branch_of(x))
            if gcd(a, k) != 1:
                continue
        rep = coding.verify_recovery_lemma(sys, x, y, j)
        if not rep.passed:
            failures.append(f"k={k} x={x} y={y} j={j}: recovery failed")
        done += 1
    return _result(
        12,
        "digit towers commute with the map; residues recover",
        failures,
        "3 moduli, depths to 8, 10^4 states each; 1000 recovery pairs",
    )


def check_convergence_probe() -> CheckResult:
    """Every start value up to 10^5 reaches 1 within 10^4 steps, and the
    window [1, 1000] collapses to a single orbit class."""
    failures = []
    sys = _collatz()
    step = sys._step  # the loop starts from n >= 2, states by construction
    bound = 10**5
    known = [None] * (bound + 1)
    known[1] = 0
    worst = 0
    for n in range(2, bound + 1):
        if known[n] is not None:
            continue
        cur, steps = n, 0
        path = []
        while cur > bound or known[cur] is None:
            path.append((cur, steps))
            cur = step(cur)
            steps += 1
            if steps > 10**4:
                failures.append(f"{n} did not reach 1 in 10^4 steps")
                break
        if failures:
            break
        total = steps + known[cur]
        worst = max(worst, total)
        for v, s in path:
            if v <= bound:
                known[v] = total - s
    rep = orbits.minimality_probe(sys, (1, 1000))
    if rep.class_count != 1 or rep.unresolved:
        failures.append(
            f"minimality probe: {rep.class_count} classes, "
            f"{len(rep.unresolved)} unresolved"
        )
    return _result(
        13,
        "all starts to 10^5 reach 1; window [1, 1000] is one class",
        failures,
        f"worst stopping time {worst} steps",
    )


ALL_CHECKS = (
    check_collatz_cycle_census,
    check_qx_plus_one_cycles,
    check_3x_plus_d_fixed_points,
    check_uniqueness_sweep,
    check_aperiodic_cycle_words,
    check_power_word_agreement,
    check_coding_injectivity,
    check_prefix_projection_mechanics,
    check_correspondence_bijection,
    check_word_fixed_vectors,
    check_morphism_suite,
    check_digit_towers,
    check_convergence_probe,
)


def run_all() -> list:
    return [check() for check in ALL_CHECKS]
