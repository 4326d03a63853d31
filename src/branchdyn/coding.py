"""Symbolic codings and k-adic residue towers.

The coding of a state x is the sequence of branches its orbit visits:
x-hat = (branch(x), branch(f(x)), branch(f^2(x)), ...).  The coding
intertwines f with the left shift.  When the coding map is injective
(every pair of distinct states disagrees at some position) the system
embeds into the shift on k symbols.  Injectivity over a finite window
is decided by one of two routes that give the same report:

* Partition refinement, on every window of every system: split the
  window's states into blocks by their current symbol, advance each
  block of two or more states one step, repeat.  It distinguishes all
  pairs in one pass per symbol instead of walking each pair separately.
* The cylinder tree, on an ``IntWindow`` of an affine system whose
  slopes are all coprime to k (no ``gcd_failures``).  There the
  refinement's blocks are cylinders cut to the window, and a cylinder is
  a residue class x = r mod M (Terras): the states A*t + B of a class
  share their symbol while k | A (``systems._class_step``), and once
  k does not divide A the k classes t = s mod k take k distinct symbols,
  since gcd(A, k) = 1.  That is the recovery lemma read both ways:
  states whose codings agree so far agree mod M, and states that agree
  mod M agree so far.  So the walk splits classes instead of stepping
  states, and counts a class's window states by arithmetic.  A class of
  two or more states alive at the cap hands the whole window to the
  refinement, which lists the undistinguished groups in its order.
  The same walk, down the one branch a word picks, gives the word's
  cylinder cut to the window (``_progression``): the battery's check 8
  reads it against the support of the prefix projection P_I.

Residue towers capture what the coding sees of an integer state x:
the digits r_j = x mod k^j for j = 1..depth.  The top digit fixes the
rest (r_j = r_depth mod k^j), so a tower is stored as the one residue
v = x mod k^depth, its k-adic truncation, and the digits are derived
from it.  A tower is the residue class x = k^depth*t + v, so its step is
the class step ``systems._class_step``: an affine branch maps it to
a*k^depth*t + (a v + b), the tower (a v + b) mod k^depth at the same
depth; the division branch maps it to k^(depth-1)*t + v / k and consumes
one level, so depth-1 towers cannot be divided further.  ``tower_apply``
is ``_tower_rows``' system checks, that class step and a tower; the
battery's tower check (check 12) runs the checks once per system and
tests the class step on states against the system's own step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DepthExhausted,
    InvalidSpec,
    NotAffineFamily,
    PreconditionUnmet,
)
from .orbits import orbit_iterate
from .systems import (
    DynamicalSystem,
    EventuallyPeriodic,
    IntWindow,
    _class_step,
    _need_int,
    window_states,
)


def coding_prefix(sys: DynamicalSystem, x, length: int) -> tuple:
    """The first ``length`` coding symbols of x."""
    _need_int("length", length)
    if length < 0:
        raise InvalidSpec("need length >= 0")
    sys._require(x)
    step, branch = sys._step, sys._branch
    out = []
    cur = x
    for _ in range(length):
        out.append(branch(cur))
        cur = step(cur)
    return tuple(out)


@dataclass(frozen=True)
class TucReport:
    window: str
    cap: int
    states: int
    pairs: int
    passed: bool
    max_prefix_length: int  # symbols needed to split every pair that split
    undistinguished: tuple  # groups (tuples of states) still merged at cap


def verify_tuc_window(sys: DynamicalSystem, window, cap: int = 2**10) -> TucReport:
    """Is the coding map injective on the window, using cap symbols?

    Partition refinement: start with one block, split blocks by the
    current branch symbol, advance surviving blocks one step under f.
    A pair of states is distinguished at the first round their blocks
    separate, so the number of rounds run when all blocks are singletons
    equals the worst-case distinguishing prefix length over the window.

    On an ``IntWindow`` of an affine system with no ``gcd_failures`` the
    blocks are residue classes, so ``_class_rounds`` walks the classes
    and never steps a state (see the module docstring); when a class of
    two or more states survives cap rounds, the refinement runs instead
    and lists the groups.  Tables, shifts, ``SetWindow`` and systems with
    a slope sharing a factor with k always take the refinement.  The
    states from ``window_states`` are an ``IntWindow``'s own range, so
    the class walk lists none of them.
    """
    _need_int("cap", cap)
    if cap < 0:
        raise InvalidSpec(f"need cap >= 0, got {cap}")
    win, states = window_states(sys, window)
    rounds, blocks = None, []
    if sys.is_affine and not sys.gcd_failures and isinstance(win, IntWindow):
        rounds = _class_rounds(sys.k, sys._affine, win, cap)
    if rounds is None:
        rounds, blocks = _refine(sys, states, cap)
    n = win.size()
    return TucReport(
        window=win.describe(),
        cap=cap,
        states=n,
        pairs=n * (n - 1) // 2,
        passed=not blocks,
        max_prefix_length=rounds if not blocks else cap,
        undistinguished=tuple(tuple(states[j] for j in b) for b in blocks),
    )


def _refine(sys: DynamicalSystem, states, cap: int) -> tuple:
    """(rounds, blocks): the partition refinement of ``verify_tuc_window``
    over cap rounds; blocks of indices into states, empty when every
    pair split."""
    step, branch = sys._step, sys._branch
    n = len(states)
    cursor = list(states)  # cursor[j] = f^rounds(states[j]) while j is unsplit
    blocks = [range(n)] if n > 1 else []  # blocks of indices into states
    rounds = 0
    for _ in range(cap):
        if not blocks:
            break
        rounds += 1
        next_blocks = []
        for block in blocks:
            by_symbol: dict = {}
            for j in block:
                by_symbol.setdefault(branch(cursor[j]), []).append(j)
            for sub in by_symbol.values():
                if len(sub) > 1:
                    for j in sub:
                        cursor[j] = step(cursor[j])
                    next_blocks.append(sub)
        blocks = next_blocks
    return rounds, blocks


def _class_rounds(k: int, rows: tuple, win: IntWindow, cap: int) -> int | None:
    """The refinement's round count on the window, from its residue
    classes; None when a class of two or more states survives cap rounds.

    A node is a class x = M*t + r whose states are A*t + B after
    ``depth`` rounds, with k not dividing A.  Its k sub-classes
    t = k*t' + s take k distinct symbols, and each one of two or more
    window states is kept: its forced steps run while k divides its A,
    one round each.  Every pair has split once the deepest node kept,
    the root at depth 0 included, has split.  Trusts rows of an affine
    table with every slope coprime to k.
    """
    if win.size() < 2:
        return 0
    if cap == 0:
        return None
    step, size = _class_step, win._class_size
    deepest = 0
    todo = [(0, 1, 0, 1, 0)]  # (depth, M, r, A, B)
    while todo:
        depth, M, r, A, B = todo.pop()
        kM, kA = k * M, k * A
        for s in range(k):
            c = r + M * s
            if size(kM, c) < 2:
                continue
            d = depth + 1
            _, a, b = step(k, rows, kA, A * s + B)
            while d < cap and a % k == 0:
                _, a, b = step(k, rows, a, b)
                d += 1
            if d == cap:
                return None
            if d > deepest:
                deepest = d
            todo.append((d, kM, c, a, b))
    return deepest + 1


def _progression(k: int, rows: tuple, win: IntWindow, word) -> tuple | None:
    """(M, r, t0, t1): the window states whose coding begins with word
    and whose first len(word) images stay in the window are the
    x = M*t + r with t0 <= t <= t1, none when t0 > t1; None when a
    forced symbol disagrees with the word.

    The word's cylinder is one residue class (Terras), walked as in
    ``_class_rounds``: the states A*t + B of the class take a forced
    symbol while k divides A, and when it does not, the one t mod k that
    gives the word's symbol is pinned, t = k*t' + s.  Every image must
    lie in lo..hi, which bounds t.  Trusts rows of an affine table with
    every slope coprime to k.
    """
    lo, hi = win.lo, win.hi
    M, r, A, B = 1, 0, 1, 0
    t0, t1 = lo, hi
    for symbol in word:
        if A % k:
            s = (symbol - B) * pow(A, -1, k) % k
            M, r, A, B = k * M, r + M * s, k * A, A * s + B
            t0, t1 = -((s - t0) // k), (t1 - s) // k
        forced, A, B = _class_step(k, rows, A, B)
        if forced != symbol:
            return None
        t0, t1 = max(t0, -((B - lo) // A)), min(t1, (hi - B) // A)
    return M, r, t0, t1


@dataclass(frozen=True)
class HypothesesReport:
    window: str
    horizon: int
    gcd_passed: bool
    gcd_failures: tuple  # branch indices i with gcd(a_i, k) > 1
    multiple_passed: bool
    multiple_failures: tuple  # window states whose horizon misses 0 mod k

    @property
    def passed(self) -> bool:
        return self.gcd_passed and self.multiple_passed


def check_alphabeta_hypotheses(
    sys: DynamicalSystem, window, horizon: int | None = None
) -> HypothesesReport:
    """The two tower hypotheses: gcd(a_i, k) = 1, and every orbit meets
    the multiples of k within ``horizon`` steps (default k steps, i.e.
    among x, f(x), ..., f^{k-1}(x))."""
    if not sys.is_affine:
        raise NotAffineFamily("hypotheses concern the affine families")
    horizon = sys.k if horizon is None else horizon
    _need_int("horizon", horizon)
    if horizon < 1:
        raise InvalidSpec(f"need horizon >= 1, got {horizon}")
    win, states = window_states(sys, window)
    step, k = sys._step, sys.k
    gcd_failures = sys.gcd_failures
    multiple_failures = []
    for x in states:
        cur = x
        ok = False
        for _ in range(horizon):
            if cur % k == 0:
                ok = True
                break
            cur = step(cur)
        if not ok:
            multiple_failures.append(x)
    return HypothesesReport(
        window=win.describe(),
        horizon=horizon,
        gcd_passed=not gcd_failures,
        gcd_failures=gcd_failures,
        multiple_passed=not multiple_failures,
        multiple_failures=tuple(multiple_failures),
    )


# ---------------------------------------------------------------------------
# residue towers


@dataclass(frozen=True, slots=True)
class ResidueTower:
    """The tower of x mod k^j, j = 1..depth, stored as value = x mod k^depth.

    The digits r_j = value mod k^j are derived, so they are compatible
    and in range by construction; only k >= 2, depth >= 1 and
    0 <= value < k^depth are checked.
    """

    k: int
    depth: int
    value: int

    def __post_init__(self):
        for name in ("k", "depth", "value"):
            _need_int(name, getattr(self, name))
        if self.k < 2:
            raise InvalidSpec("need k >= 2")
        if self.depth < 1:
            raise InvalidSpec("need depth >= 1")
        if not 0 <= self.value < self.k**self.depth:
            raise InvalidSpec(f"value {self.value} outside [0, k^{self.depth})")

    @property
    def digits(self) -> tuple:
        """(r_1, ..., r_depth), r_j = value mod k^j.

        Every r_j with k^j > value is value itself.  The others are
        taken from the top down, r_j = r_{j+1} mod k^j, with a running
        power of k, so each step reduces by a modulus at most k times
        smaller than its dividend and deep towers cost no more than
        quadratic time in the bit length.
        """
        k, value = self.k, self.value
        p, n = 1, 0  # n = number of levels with k^j <= value
        while n < self.depth and p * k <= value:
            p *= k
            n += 1
        low = []
        r = value
        for _ in range(n):
            r %= p
            low.append(r)
            p //= k
        low.reverse()
        return tuple(low) + (value,) * (self.depth - n)


def tower_from_state(x: int, k: int, depth: int) -> ResidueTower:
    _need_int("x", x)
    _need_int("k", k)
    _need_int("depth", depth)
    if x < 1:
        raise InvalidSpec("states are positive integers")
    if depth < 1:
        raise InvalidSpec("need depth >= 1")
    if k < 2:
        raise InvalidSpec("need k >= 2")
    return ResidueTower(k, depth, x % k**depth)


def _tower_rows(sys: DynamicalSystem, k: int) -> tuple:
    """The affine rows that carry towers of modulus k through sys.

    Raises NotAffineFamily off the affine families, InvalidSpec when the
    system's k differs, and PreconditionUnmet when some gcd(a_i, k) > 1.
    A loop over many towers of one system runs these checks once and
    then calls ``_class_step`` on the rows.
    """
    if not sys.is_affine:
        raise NotAffineFamily("towers live over the affine families")
    if sys.k != k:
        raise InvalidSpec(f"tower has k = {k}, system has k = {sys.k}")
    if sys.gcd_failures:
        i = sys.gcd_failures[0]
        raise PreconditionUnmet(
            f"a_{i} = {sys._affine[i - 1][0]} shares a factor with "
            f"k = {k}; the extension to residue towers needs gcd(a_i, k) = 1"
        )
    return sys._affine


def tower_apply(sys: DynamicalSystem, tower: ResidueTower) -> ResidueTower:
    """Push a residue tower through one step of the system.

    The tower is the class x = k^depth*t + value, and ``_class_step``
    reads its branch off value mod k.  An affine branch keeps the depth;
    the division branch loses one level.  Dividing a depth-1 tower
    raises DepthExhausted: no digit of the successor is determined.
    """
    k, depth = tower.k, tower.depth
    M = k**depth
    symbol, _, B = _class_step(k, _tower_rows(sys, k), M, tower.value)
    if symbol == k:
        if depth == 1:
            raise DepthExhausted("division branch on a depth-1 tower")
        depth, M = depth - 1, M // k
    return ResidueTower(k, depth, B % M)


@dataclass(frozen=True)
class RecoveryReport:
    x: int
    y: int
    j: int
    branch: int
    passed: bool
    detail: str


def verify_recovery_lemma(sys: DynamicalSystem, x: int, y: int, j: int) -> RecoveryReport:
    """One step of digit recovery, checked on actual integers.

    Hypotheses: x and y share their branch residue, and f(x) = f(y)
    mod k^j.  Conclusion: on an affine branch with gcd(a, k) = 1,
    x = y mod k^j already; on the division branch, x = y mod k^{j+1}.
    PreconditionUnmet is raised when the hypotheses fail, so a passing
    report always reflects a real instance of the lemma.
    """
    if not sys.is_affine:
        raise NotAffineFamily("towers live over the affine families")
    _need_int("j", j)
    if j < 1:
        raise InvalidSpec("need j >= 1")
    k = sys.k
    if x % k != y % k:
        raise PreconditionUnmet(f"{x} and {y} take different branches")
    fx, fy = sys.apply(x), sys.apply(y)
    if fx % k**j != fy % k**j:
        raise PreconditionUnmet(f"f images differ mod k^{j}")
    branch = sys.branch_of(x)
    if x % k != 0:
        if branch in sys.gcd_failures:
            raise PreconditionUnmet(f"gcd(a_{branch}, k) > 1")
        passed = x % k**j == y % k**j
        detail = f"affine branch: x = y mod k^{j}"
    else:
        passed = x % k ** (j + 1) == y % k ** (j + 1)
        detail = f"division branch: x = y mod k^{j + 1}"
    return RecoveryReport(x=x, y=y, j=j, branch=branch, passed=passed, detail=detail)


def exact_coding(sys: DynamicalSystem, x, cap: int) -> EventuallyPeriodic | None:
    """The full coding sequence of x, when its orbit cycles within cap.

    Pre-cycle branches form the head, the branches around the cycle the
    repeating tail.  None when no repeat shows up in cap steps.
    """
    rec = orbit_iterate(sys, x, cap)
    if not rec.entered_cycle:
        return None
    # orbit_iterate checked x; the rest are its images, replayed one at a time
    symbols = list(map(sys._branch, rec.replay()))
    return EventuallyPeriodic.make(
        symbols[: rec.entry_index], symbols[rec.entry_index :]
    )
