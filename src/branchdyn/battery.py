"""The verification battery behind `branchdyn verify-all`.

Thirteen desk-scale checks, every one exact: cycle censuses against
brute-force orbit oracles, uniqueness cross-checks by state walks, coding
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
from itertools import repeat

from . import coding, morphisms, operators, orbits, words
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


def _plain(items) -> str:
    """Symbols or states as space-separated decimals, "none" for none."""
    return " ".join(map(str, items)) or "none"


# ---------------------------------------------------------------------------
# shared fixtures


@lru_cache(maxsize=None)
def _collatz() -> DynamicalSystem:
    return make_system(collatz())


@lru_cache(maxsize=None)
def _collatz_cycles_20():
    return words.enumerate_cycles(_collatz(), 20)


def _reach_one(bound: int) -> tuple:
    """Walk every collatz start in 1..bound to 1, memoising stopping times.

    Returns (worst stopping time, the first start whose stopping time
    exceeds 10^4 steps or None); the worst time covers the starts before
    that one.  A walk ends at a memoised state, so a start's stopping
    time is its own walk plus that state's; the bound holds the sum, and
    a walk that runs past it alone is cut there.
    """
    step = _collatz()._step  # the loop starts from n >= 2, states by construction
    known = [None] * (bound + 1)
    known[1] = 0
    worst = 0
    for n in range(2, bound + 1):
        if known[n] is not None:
            continue
        cur, steps = n, 0
        path = []  # the states from n, path[s] = f^s(n)
        while cur > bound or known[cur] is None:
            path.append(cur)
            cur = step(cur)
            steps += 1
            if steps > 10**4:
                return worst, n
        total = steps + known[cur]
        if total > 10**4:
            return worst, n
        if total > worst:
            worst = total
        for v in path:  # f^s(n) is total - s steps from 1
            if v <= bound:
                known[v] = total
            total -= 1
    return worst, None


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


def _is_invariant(sys: DynamicalSystem, subset: frozenset) -> bool:
    """subset is closed under the map and under preimages."""
    states = sys.states()
    return all(sys.apply(x) in subset for x in subset) and all(
        x in subset for x in states if sys.apply(x) in subset
    )


def _invariant_subsets(sys: DynamicalSystem) -> set:
    """All invariant subsets of a finite system, by exhaustive scan.

    Independent of the component walk of the minimality probe and the
    commutant: a subset qualifies iff it is closed under the map and
    under preimages.  Subsets are bitmasks over the states in order, and
    near[b] is the mask of state b's image and preimages; the masks are
    swept in ascending order, each one's reach built from the mask
    without its lowest bit, so the set holds its members in the order of
    a scan of every subset.  An image outside the states takes bit n,
    which no subset holds.
    """
    states = list(sys.states())
    n = len(states)
    index = {x: b for b, x in enumerate(states)}
    near = [0] * n
    for b, x in enumerate(states):
        c = index.get(sys.apply(x), n)
        near[b] |= 1 << c
        if c < n:
            near[c] |= 1 << b
    reach = [0] * (1 << n)
    invariant = {frozenset()}
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | near[low.bit_length() - 1]
        if not reach[mask] & ~mask:
            invariant.add(frozenset(x for b, x in enumerate(states) if mask >> b & 1))
    return invariant


def _basis_support(trunc, basis) -> frozenset:
    support = set()
    for vec in basis.vectors:
        support.update(trunc.states[c] for c in vec)
    return frozenset(support)


# ---------------------------------------------------------------------------
# the checks


def check_collatz_cycle_census() -> CheckResult:
    """Word enumeration to length 20 against orbit iteration of every
    start value up to 10^4: both must see exactly the 1-4-2 cycle.  The
    map is deterministic, so orbits that all reach 1 meet no cycle but
    the one through 1."""
    failures = []
    rep = _collatz_cycles_20()
    found = {(r.cycle, r.word) for r in rep.cycles}
    if found != {((1, 4, 2), (1, 2, 2))}:
        failures.append(f"enumeration returned {sorted(found)}")
    _, stuck = _reach_one(10**4)
    if stuck is not None:
        failures.append(f"orbit of {stuck} did not reach 1 in 10^4 steps")
    cycle = orbits.orbit_iterate(_collatz(), 1, cap=64).cycle
    if cycle != (1, 4, 2):
        failures.append(f"orbit oracle saw cycle {cycle}")
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
    """In every qx+d system, odd q,d <= 9, each word of length <= 12 that
    fixes a state in 1..UNIQUENESS_SCAN_BOUND fixes exactly the state its
    fold solves for there."""
    failures = []
    count = 0
    for q in (1, 3, 5, 7, 9):
        for d in (1, 3, 5, 7, 9):
            sys = make_system(QxPlusD(q, d))
            rep = words.check_uniqueness(sys, 12)
            count += rep.fixed_words
            if not rep.passed:
                word, points = rep.violations[0]
                failures.append(f"q={q} d={d}: word {word} fixes {list(points)}")
    return _result(
        4,
        f"fixed-point uniqueness, 25 systems, words to length 12 "
        f"on states 1..{words.UNIQUENESS_SCAN_BOUND}",
        failures,
        f"{count} fixed words cross-checked",
    )


def check_aperiodic_cycle_words() -> CheckResult:
    """Every cycle from the three censuses, and the 3x+d cycles through
    d, has an aperiodic branch word.  In a qx+d system x takes branch 1
    exactly when it is odd, so a cycle's word is its parity vector
    relabelled and the name's parity tuples are these words.  They are
    aperiodic because qx+d codings are injective (TUC); see
    ``cycle_word_aperiodicity`` for a table where that fails."""
    failures = []
    batches = [(_collatz(), [r.cycle for r in _collatz_cycles_20().cycles])]
    five = make_system(QxPlusD(5, 1))
    batches.append((five, [r.cycle for r in words.enumerate_cycles(five, 12).cycles]))
    for m in (2, 3, 4, 5):
        sys = make_system(QxPlusD(2**m - 1, 1))
        batches.append((sys, [r.cycle for r in words.enumerate_cycles(sys, m + 1).cycles]))
    for d in (1, 3, 5, 7, 9):
        sys = make_system(QxPlusD(3, d))
        batches.append((sys, [orbits.orbit_iterate(sys, d, cap=16).cycle]))
    total = 0
    for sys, cycles in batches:
        for cycle in cycles:
            total += 1
            wrep = words.cycle_word_aperiodicity(sys, cycle)
            if not wrep.passed:
                failures.append(f"cycle {cycle}: word {wrep.word} periodic")
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
            fixes = ["none" if p is None else p for p in (rep.fixed_point_word, rep.fixed_point_power)]
            failures.append(f"word {_plain(word)} power {m}: word fixes {fixes[0]}, power fixes {fixes[1]}")
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
    """Prefix projections on the [1, 10^4] collatz truncation: the
    support of each sampled P_I equals the coordinates of I's cylinder,
    a residue class cut to the window, the words that no state carries
    have no cylinder and an empty P_I, and the e_1 + e_5 input
    stabilizes to e_1 at prefix length 4.  P_I is a 0/1 diagonal by
    construction, so idempotence and self-adjointness need no test."""
    rng = random.Random(0xBD08)
    sys = _collatz()
    win = IntWindow(1, 10**4)
    trunc = operators.build_truncation(sys, win)
    failures = []
    for _ in range(50):
        x = rng.randint(1, 10**4)
        length = rng.randint(1, 10)
        prefix = coding.coding_prefix(sys, x, length)
        support = operators.projection_P(trunc, prefix)
        # independent route: the cylinder of the prefix, the states
        # M*t + r for t0 <= t <= t1, found by pinning one residue per
        # symbol, against the support read off the cylinder kernel; it
        # holds x, so it is never None, and state s sits at s - lo
        M, r, t0, t1 = coding._progression(sys.k, sys._affine, win, prefix)
        if frozenset(range(r + M * t0 - win.lo, r + M * t1 + 1 - win.lo, M)) != support:
            failures.append(f"prefix {prefix}: projection support mismatch")
    # 3x + 1 is even for odd x, so branch 2 follows branch 1 and no state
    # carries these words
    for word in ((1, 1), (2, 1, 1), (1, 2, 1, 1)):
        cut = coding._progression(sys.k, sys._affine, win, word)
        if cut is not None or operators.projection_P(trunc, word):
            failures.append(f"word {word}: projection support mismatch")
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
    codings, where a forward orbit that is not invariant must not reduce,
    plus the 2-state swap where the correspondence must fail to be onto.

    The invariant sets are every subset of the states, swept as bitmasks
    in ascending order: a mask's image-and-preimage reach is its lowest
    bit's plus that of the mask without it, and the mask qualifies when
    the reach stays inside it (``_invariant_subsets``).  Each H_K is a
    span of unit vectors, so ``is_reducing`` projects with int
    coefficients."""
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
        # a forward orbit that some other state enters is closed under
        # every M_i, so only the M_i^T half of is_reducing can reject it
        forward = (frozenset(orbits.orbit_iterate(sys, x, cap=n).replay()) for x in trunc.states)
        K = next((F for F in forward if F not in invariant), None)
        if K is not None:
            basis = operators.coordinate_subspace(trunc, K)
            if operators.is_reducing(trunc, basis).passed:
                failures.append(f"system {sys.spec}: H_K reducing for non-invariant K={sorted(K)}")
                break
        # K maps to the span of the blocks it contains; inclusion both ways
        sample = sorted(invariant, key=lambda s: (len(s), sorted(s)))
        if len(sample) > 64:
            sample = rng.sample(sample, 64)
        for K in sample:
            basis = operators.coordinate_subspace(trunc, K)
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
        basis = operators.coordinate_subspace(strunc, K)
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
        failures.append(f"word 1 2 2: dimension {rep.dimension}, support {_plain(sorted(support))}")
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
    """Homomorphism and identity laws, the coding of x against the
    coding of phi(x), orbit image and pullback invariance, and unitary
    conjugation of truncations."""
    rng = random.Random(0xBD11)
    failures = []

    # two isomorphic 6-state systems plus a quotient target
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

    # a morphism preserves branches and intertwines, so it keeps codings
    for x in sys_a.states():
        ca = coding.exact_coding(sys_a, x, cap=64)
        cb = coding.exact_coding(sys_b, phi(x), cap=64)
        if ca != cb:
            failures.append(f"coding not preserved at {x}")

    # orbit image and pullback invariance
    for x in sys_a.states():
        orb_a = orbits.orbit_iterate(sys_a, x, cap=100).replay()
        orb_q = orbits.orbit_iterate(sys_q, to_q[x], cap=100).replay()
        if {to_q[s] for s in orb_a} != set(orb_q):
            failures.append(f"orbit image mismatch at {x}")
    comp = morphisms.compose(tau, phi)
    for L in _invariant_subsets(sys_q):
        pre = frozenset(x for x in sys_a.states() if comp(x) in L)
        if not _is_invariant(sys_a, pre):
            failures.append(f"pullback of {sorted(L)} not invariant")

    # conjugation: relabeled collatz truncation, then random finite pairs
    col = _collatz()
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
        "identity laws, coding/orbit/pullback transport, 21 conjugations",
    )


def _first_tower_fault(k: int, rows: tuple, states: range, fxs: list, bxs: list, M: int):
    """(x, "symbol" or "tower") for the least state x whose tower of
    modulus M disagrees with its branch bxs or, failing that, its image
    fxs; None if there is none.

    One class step per residue v mod M: the class's states
    lo <= M*t + v <= hi sit M apart in ``states``, so the images its
    step predicts are one range A*t + B and its branches one symbol, each
    written into this depth's lists by one slice assignment.  Where M
    exceeds hi every class holds at most one state, with t = 0, and the
    steps are taken in one pass over the states instead.
    """
    class_step = coding._class_step
    lo, hi = states.start, states[-1]
    if hi < M:
        steps = map(class_step, repeat(k), repeat(rows), repeat(M), states)
        symbols, _, images = map(list, zip(*steps))
    else:
        symbols, images = [0] * len(states), [0] * len(states)
        for v in range(M):
            x0 = lo + (v - lo) % M
            if x0 > hi:
                continue
            t0, t1 = x0 // M, (hi - v) // M
            symbol, A, B = class_step(k, rows, M, v)
            symbols[x0 - lo::M] = [symbol] * (t1 - t0 + 1)
            images[x0 - lo::M] = range(A * t0 + B, A * t1 + B + 1, A)
    if symbols != bxs or images != fxs:
        for x, s, b, y, f in zip(states, symbols, bxs, images, fxs):
            if s != b:
                return x, "symbol"
            if y != f:
                return x, "tower"
    return None


def check_digit_towers() -> CheckResult:
    """The class step that carries towers agrees with the map on every
    state, and residue recovery holds on constructed pairs.

    The sweep takes one class step per depth and residue class, not one
    per state and depth: the class's slices of f(x) and of the branch
    over 1..10^4 must be an arithmetic range and one symbol.  Where k^depth
    exceeds 10^4 every class holds one state, and those depths compare
    state by state in one pass.  A mismatch is named as a scan of every
    state would name it: its least state, with each failing depth there."""
    failures = []
    towers = [
        (_collatz(), 2),
        (make_system(AlphaBeta(3, (4, 4), (2, 1))), 3),
        (make_system(AlphaBeta(5, (6, 6, 6, 6), (4, 3, 2, 1))), 5),
    ]
    for sys, k in towers:
        # the system checks of tower_apply, once per system
        rows = coding._tower_rows(sys, k)
        _, states = window_states(sys, IntWindow(1, 10**4))
        fxs, bxs = list(map(sys._step, states)), list(map(sys._branch, states))
        faults = [(depth, _first_tower_fault(k, rows, states, fxs, bxs, k**depth))
                  for depth in range(1, 9)]
        faults = [(depth, *fault) for depth, fault in faults if fault]
        if faults:
            x = min(y for _, y, _ in faults)
            failures = [f"k={k} x={x} depth={depth}: {kind} mismatch"
                        for depth, y, kind in faults if y == x]
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
            # y = x mod k, so y takes x's branch; _tower_rows above
            # refused every system with some gcd(a_i, k) > 1
            y = x + t * k**j
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
    worst, stuck = _reach_one(10**5)
    if stuck is not None:
        failures.append(f"{stuck} did not reach 1 in 10^4 steps")
    rep = orbits.minimality_probe(_collatz(), (1, 1000))
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
    """Every check's result, in order.  A check that raises is recorded
    as failed under its position and function name, and the rest still
    run; a BaseException that is no Exception propagates."""
    results = []
    for number, check in enumerate(ALL_CHECKS, 1):
        try:
            results.append(check())
        except Exception as exc:
            results.append(CheckResult(number, check.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
