"""Words over the branch alphabet and the affine maps they compose to.

A word I = (i_1, ..., i_m) denotes the composite f_I = f_{i_m} o ... o
f_{i_1}: the first symbol acts first.  For the affine families every
branch is x -> a x + b with a, b rational, so f_I is again affine and
its coefficients can be folded up exactly.  A state x is a period-m
point with branch word I iff x is a fixed point of the affine f_I *and*
the orbit of x really does visit the branches of I in order; the second
condition is checked by replay, never assumed.

Cycle search never needs all k**m words: a cycle of minimal period m
has exactly m branch-word rotations, exactly one of which is Lyndon
(strictly smallest rotation), so enumerating Lyndon words finds every
cycle exactly once.  Periodic words (those that are a proper power of a
shorter word) contribute nothing new: a fixed point of f_{J^r} with
branch word J^r has branch word J already, by replay.  Most Lyndon
words cannot replay either.  After an expanding branch the next symbol
is forced: x = i (mod k) with i < k gives f(x) = a_i*i + b_i (mod k),
so a cycle word follows i only by that residue (k for residue 0),
counting the wraparound from its last symbol to its first.  And with
e division symbols f_I is x -> (na*x + nb) / k**e where nb > 0 as soon
as one b_i >= 1 enters, so a positive fixed point needs k**e > na, the
product of the slopes (the cycle equation of Böhm & Sontacchi, 1978).
The search therefore walks the FKM prenecklace tree (Cattell, Ruskey,
Sawada, Serra & Miers, J. Algorithms 2000) restricted to the forced
successors, as in Ruskey & Sawada, "Generating necklaces and strings
with forbidden substrings" (COCOON 2000), carries the integer fold down
the walk, and cuts a subtree once even all-division extensions to the
length bound could not lift k**e above na.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import IdentityComposition, InvalidSpec, NotACycle, NotAffineFamily
from .orbits import orbit_iterate
from .systems import DynamicalSystem, IntWindow, _primitive_period, _state_order, window_states

Word = tuple


def check_word(word: Iterable, k: int) -> Word:
    word = tuple(word)
    if not word:
        raise InvalidSpec("empty word")
    for i in word:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= k:
            raise InvalidSpec(f"symbol {i!r} outside 1..{k}")
    return word


def is_aperiodic(word: Word) -> bool:
    """True unless the word is empty or a proper power of a shorter word."""
    return bool(word) and _primitive_period(word) == len(word)


def lyndon_words(k: int, max_len: int) -> Iterator[Word]:
    """All Lyndon words over {1..k} of length <= max_len, lexicographic.

    Duval's generation: extend the current word periodically to the
    maximal length, trim trailing maximal symbols, increment.
    """
    if k < 1 or max_len < 1:
        return
    w = [0]
    yield (1,)
    while True:
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return
        w[-1] += 1
        yield tuple(c + 1 for c in w)


@dataclass(frozen=True)
class AffineMap:
    """x -> a*x + b with exact rational coefficients."""

    a: Fraction
    b: Fraction


def compose_affine(sys: DynamicalSystem, word: Iterable) -> AffineMap:
    """The affine map of f_I; first symbol innermost."""
    word = check_word(word, sys.k)
    na, nb, pk = _fold(sys.k, word, _expanding_rows(sys))
    return AffineMap(Fraction(na, pk), Fraction(nb, pk))


def replay_word(sys: DynamicalSystem, x, word: Word):
    """Apply f along ``word`` from x, or return None on a branch mismatch."""
    cur = x
    for i in word:
        if sys.branch_of(cur) != i:
            return None
        cur = sys.apply(cur)
    return cur


def fixed_point_of_word(sys: DynamicalSystem, word: Iterable):
    """The unique positive-integer fixed point of f_I realizing I, or None.

    Solves (na*x + nb) / k**e = x exactly and validates the solution by
    replaying the word from it.  Raises IdentityComposition when f_I is
    the identity map (na = k**e, nb = 0), in which case "the" fixed
    point is ill-posed.  Slope one with nb != 0 has no fixed point at
    all; otherwise x = nb / (k**e - na), so at most one state can
    qualify.
    """
    word = check_word(word, sys.k)
    return _solve_fold(sys, word, *_fold(sys.k, word, _expanding_rows(sys)))


@dataclass(frozen=True)
class CycleRecord:
    cycle: tuple  # canonical rotation, minimal state first
    word: Word  # branch word read off the canonical rotation

    @property
    def length(self) -> int:
        return len(self.cycle)


def _expanding_rows(sys: DynamicalSystem) -> list:
    """The integer (a_i, b_i) of branches 1..k-1, read once per solve or
    search; a system whose branches are not affine has none."""
    if not sys.is_affine:
        raise NotAffineFamily(
            f"{type(sys.spec).__name__} branches are not affine maps"
        )
    return [sys.branch_affine_int(i) for i in range(1, sys.k)]


def _fold(k, word, rows):
    """The integer fold (na, nb, k**e) of f_I: x -> (na*x + nb) / k**e.

    The division branch k is the only one with a denominator, so the
    fold stays in integers; ``rows = _expanding_rows(sys)``.
    """
    na, nb, pk = 1, 0, 1
    for i in word:
        if i == k:
            pk *= k
        else:
            a, b = rows[i - 1]
            na, nb = a * na, a * nb + b * pk
    return na, nb, pk


def _solve_fold(sys, word, na, nb, pk):
    """The positive-integer fixed point of the folded f_I, replayed, or None."""
    den = pk - na
    if den == 0:
        if nb == 0:
            raise IdentityComposition(f"word {word} composes to the identity")
        return None
    if nb % den != 0:
        return None
    x = nb // den
    if x < 1:
        return None
    if replay_word(sys, x, word) != x:
        return None
    return x


def _admissible_necklaces(sys, max_len, rows, pruned):
    """(word, na, nb, pk) for every Lyndon word of length <= max_len that
    obeys the forced successors and can still have a positive solution.

    Depth-first walk of the FKM prenecklace tree on an explicit stack.
    A node is a prefix word[:t] whose longest Lyndon prefix has length
    p; it is a Lyndon word exactly when p == t, and its children are the
    symbols c >= word[t - p] (c equal keeps p, larger makes the whole
    prefix Lyndon).  After a symbol i < k only ``forced[i - 1]`` may
    follow, and a Lyndon word ending in i < k must wrap around to its
    first symbol through it.  Each node carries its parent's fold, so a
    node costs O(1); a subtree is cut once pk * k**(max_len - t) <= na,
    since slopes only grow and nb > 0 needs pk > na for a solution.
    ``pruned`` counts symbols cut by the forced successor, Lyndon words
    cut by the wraparound, and subtrees cut by the denominator.
    """
    k = sys.k
    forced = [(a * i + b) % k or k for i, (a, b) in enumerate(rows, 1)]
    headroom = [k**j for j in range(max_len)]
    word = [0] * max_len
    # node: (t, p, last symbol, parent's na, nb, pk)
    stack = [(1, 1, c, 1, 0, 1) for c in range(k, 0, -1)]
    while stack:
        t, p, c, na, nb, pk = stack.pop()
        word[t - 1] = c
        if c == k:
            pk *= k
        else:
            a, b = rows[c - 1]
            na, nb = a * na, a * nb + b * pk
        if pk * headroom[max_len - t] <= na:
            pruned["denominator"] += 1
            continue
        if p == t:
            if c < k and forced[c - 1] != word[0]:
                pruned["wraparound"] += 1
            else:
                yield tuple(word[:t]), na, nb, pk
        if t == max_len:
            continue
        low = word[t - p]
        if c < k:
            nxt = forced[c - 1]
            pruned["forced_successor"] += k - low + (nxt < low)
            if nxt >= low:
                stack.append((t + 1, p if nxt == low else t + 1, nxt, na, nb, pk))
        else:
            for nxt in range(k, low - 1, -1):
                stack.append((t + 1, p if nxt == low else t + 1, nxt, na, nb, pk))


@dataclass(frozen=True)
class CycleSearchReport:
    max_len: int
    words_tried: int  # admissible Lyndon words solved
    cycles: tuple  # CycleRecord, sorted by (length, cycle)
    pruned: dict  # reason -> count


def enumerate_cycles(sys: DynamicalSystem, max_len: int) -> CycleSearchReport:
    """All cycles whose minimal period is at most max_len.

    Solves only the admissible Lyndon words (see the module docstring).
    """
    if not sys.is_affine:
        raise NotAffineFamily("cycle search solves affine fixed-point equations")
    if max_len < 1:
        raise InvalidSpec("need max_len >= 1")
    rows = _expanding_rows(sys)
    pruned = dict.fromkeys(("forced_successor", "wraparound", "denominator"), 0)
    folds = _admissible_necklaces(sys, max_len, rows, pruned)
    found = {}
    tried = 0
    for word, na, nb, pk in folds:
        tried += 1
        try:
            x = _solve_fold(sys, word, na, nb, pk)
        except IdentityComposition:
            continue
        if x is None:
            continue
        cyc = orbit_iterate(sys, x, len(word)).cycle
        if cyc not in found:
            found[cyc] = CycleRecord(
                cycle=cyc, word=tuple(sys.branch_of(s) for s in cyc)
            )
    cycles = tuple(sorted(found.values(), key=lambda r: (r.length, r.cycle)))
    return CycleSearchReport(
        max_len=max_len,
        words_tried=tried,
        cycles=cycles,
        pruned=pruned,
    )


@dataclass(frozen=True)
class SeparatingReport:
    start: object
    cap: int
    periodic: bool
    period: int  # 0 when no return was seen within cap
    word: Word
    aperiodic: bool

    @property
    def passed(self) -> bool:
        return self.periodic and self.aperiodic


def check_separating(sys: DynamicalSystem, x, cap: int) -> SeparatingReport:
    """Is x periodic with an aperiodic branch word?

    Follows the orbit of x for up to ``cap`` steps, keeping only the
    branch word, the current state and one earlier state, which moves up
    to the current one after 1, 2, 4, ... steps (Brent's cycle test).
    The walk stops at the first return to x, whose branch word is then
    tested for being a proper power, or when it meets the earlier state
    again: the orbit ran into a cycle without x.  A non-return is
    reported, not an error.
    """
    if cap < 0:
        raise InvalidSpec(f"need cap >= 0, got {cap}")
    sys._require(x)
    step, branch = sys._step, sys._branch
    word = []
    cur = earlier = x
    for n in range(1, cap + 1):
        word.append(branch(cur))
        cur = step(cur)
        if cur == x:
            w = tuple(word)
            return SeparatingReport(
                start=x, cap=cap, periodic=True, period=len(w), word=w, aperiodic=is_aperiodic(w)
            )
        if cur == earlier:
            break
        if n & (n - 1) == 0:
            earlier = cur
    return SeparatingReport(
        start=x, cap=cap, periodic=False, period=0, word=(), aperiodic=False
    )


# check_uniqueness walks an affine system's states 1..UNIQUENESS_SCAN_BOUND by default
UNIQUENESS_SCAN_BOUND = 1000


@dataclass(frozen=True)
class UniquenessReport:
    max_len: int
    scan_bound: int | None  # None for a finite table: every state is walked
    fixed_words: int  # distinct words fixing a walked state, each cross-checked
    passed: bool
    violations: tuple  # (word, sorted fixed points), in (length, word) order


def _fixed_words(sys: DynamicalSystem, states, max_len: int) -> dict:
    """{word: [states it fixes]}, words of length <= max_len: y is fixed by
    w exactly when w is y's coding prefix and f^|w|(y) = y, so y is walked
    to its first return, after p steps; one more lap reads its word, and y
    is fixed by that word's powers alone."""
    step, branch = sys._step, sys._branch
    fixed: dict = {}
    for y in states:
        cur = y
        for p in range(1, max_len + 1):
            cur = step(cur)
            if cur == y:
                word = []
                for _ in range(p):
                    word.append(branch(cur))
                    cur = step(cur)
                for r in range(1, max_len // p + 1):
                    fixed.setdefault(tuple(word) * r, []).append(y)
                break
    return fixed


def check_uniqueness(
    sys: DynamicalSystem, max_len: int, scan_bound: int = UNIQUENESS_SCAN_BOUND
) -> UniquenessReport:
    """Does every word of length <= max_len have at most one fixed point?

    ``_fixed_words`` lists each word that fixes a walked state.  A finite
    table walks all of its states; a word fixing two is a violation.  The
    affine algebra gives at most one fixed point, x = nb / (k**e - na),
    unless f_I is the identity (reported as "identity"), and the walk
    over 1..scan_bound cross-checks the solver: a word whose fixed states
    there are not its solved point is a violation, listed with both.  A
    solved point within the bound replays, so no unlisted word can be one.
    """
    if max_len < 1:
        raise InvalidSpec("need max_len >= 1")
    if sys.is_finite:
        scan_bound = None  # every state is walked, whatever the bound
    elif not sys.is_affine:
        raise NotAffineFamily("uniqueness check needs affine or finite-table systems")
    elif scan_bound < 1:
        # a scan over no state would guard nothing yet still pass
        raise InvalidSpec(f"need scan_bound >= 1, got {scan_bound}")
    window = None if scan_bound is None else IntWindow(1, scan_bound)
    fixed = _fixed_words(sys, window_states(sys, window)[1], max_len)
    if scan_bound is None:
        violations = [(w, _state_order(ys)) for w, ys in fixed.items() if len(ys) > 1]
    else:
        violations = []
        rows = _expanding_rows(sys)
        for word, ys in fixed.items():
            try:
                x = _solve_fold(sys, word, *_fold(sys.k, word, rows))
            except IdentityComposition:
                violations.append((word, ("identity",)))
                continue
            if ys != [x]:  # agreement: x is the one walked state fixed
                violations.append((word, tuple(sorted({*ys, x} - {None}))))
    violations.sort(key=lambda v: (len(v[0]), v[0]))
    return UniquenessReport(
        max_len=max_len,
        scan_bound=scan_bound,
        fixed_words=len(fixed),
        passed=not violations,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class UniFixReport:
    word: Word
    power: int
    fixed_point_word: object  # state or None
    fixed_point_power: object
    passed: bool


def verify_unifix(sys: DynamicalSystem, word: Iterable, m: int) -> UniFixReport:
    """f_I and f_{I^m} have the same fixed-point set (m >= 1).

    For affine families both sets have at most one element, so the check
    is equality of the two solver results.
    """
    word = check_word(word, sys.k)
    if m < 1:
        raise InvalidSpec("need m >= 1")
    x1 = fixed_point_of_word(sys, word)
    xm = fixed_point_of_word(sys, word * m)
    return UniFixReport(
        word=word,
        power=m,
        fixed_point_word=x1,
        fixed_point_power=xm,
        passed=x1 == xm,
    )


@dataclass(frozen=True)
class CycleWordReport:
    cycle: tuple
    word: Word
    aperiodic: bool

    @property
    def passed(self) -> bool:
        return self.aperiodic


def cycle_word_aperiodicity(sys: DynamicalSystem, cycle: Iterable) -> CycleWordReport:
    """The branch word of a cycle, and whether it is no proper power.

    A word u^m, m > 1, gives the cycle states x and f^|u|(x) one coding,
    so it is aperiodic when distinct states have distinct codings (TUC),
    as in every qx+d system; the one-branch swap table 1 -> 2 -> 1 has
    the word (1, 1).  Raises NotACycle unless the input really is one
    orbit cycle with distinct states.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise NotACycle("empty cycle")
    if len(set(cycle)) != len(cycle):
        raise NotACycle("repeated state in cycle")
    for j, s in enumerate(cycle):
        if sys.apply(s) != cycle[(j + 1) % len(cycle)]:
            raise NotACycle(f"f({s!r}) != {cycle[(j + 1) % len(cycle)]!r}")
    word = tuple(sys.branch_of(s) for s in cycle)
    return CycleWordReport(cycle=cycle, word=word, aperiodic=is_aperiodic(word))
