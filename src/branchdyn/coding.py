"""Symbolic codings and k-adic residue towers.

The coding of a state x is the sequence of branches its orbit visits:
x-hat = (branch(x), branch(f(x)), branch(f^2(x)), ...).  The coding
intertwines f with the left shift.  When the coding map is injective
(every pair of distinct states disagrees at some position) the system
embeds into the shift on k symbols; injectivity over a finite window is
decided here by partition refinement, which distinguishes all pairs in
one pass per symbol instead of walking each pair separately.

Residue towers capture what the coding sees of an integer state x:
the digits r_j = x mod k^j for j = 1..depth.  Affine branches act on a
tower depth-preservingly; the division branch shortens it by one digit
(r'_j = r_{j+1} / k), so depth-1 towers cannot be divided further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DepthExhausted,
    InvalidSpec,
    NotAffineFamily,
    PreconditionUnmet,
    TooShort,
)
from .orbits import orbit_iterate
from .systems import DynamicalSystem, EventuallyPeriodic, as_window


@dataclass(frozen=True)
class CodingPrefix:
    """The first ``len(symbols)`` coding symbols of ``source``.

    ``source`` is the state the prefix was read from (None for a bare
    symbol tuple); keeping it allows shifts to stay replay-validated.
    """

    symbols: tuple
    source: object = None


def coding_prefix(sys: DynamicalSystem, x, length: int) -> CodingPrefix:
    if length < 0:
        raise InvalidSpec("need length >= 0")
    out = []
    cur = x
    for _ in range(length):
        out.append(sys.branch_of(cur))
        cur = sys.apply(cur)
    return CodingPrefix(symbols=tuple(out), source=x)


def shift_prefix(sys: DynamicalSystem, prefix: CodingPrefix) -> CodingPrefix:
    """Drop the first symbol; the source advances one step under f.

    The result must still be a nonempty prefix, so the input needs at
    least two symbols.
    """
    if len(prefix.symbols) < 2:
        raise TooShort("need at least two symbols to shift")
    source = None if prefix.source is None else sys.apply(prefix.source)
    return CodingPrefix(symbols=prefix.symbols[1:], source=source)


def distinguishing_prefix_length(sys: DynamicalSystem, x, y, cap: int) -> int | None:
    """Least j <= cap with branch(f^(j-1)(x)) != branch(f^(j-1)(y)).

    Positions count from 1 (j = 1 means the states themselves take
    different branches).  None when the codings agree through cap
    symbols.  Requires x != y; equal states never separate.
    """
    if x == y:
        raise InvalidSpec("need two distinct states")
    cx, cy = x, y
    for j in range(1, cap + 1):
        bx, by = sys.branch_of(cx), sys.branch_of(cy)
        if bx != by:
            return j
        cx, cy = sys.apply(cx), sys.apply(cy)
    return None


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
    """
    if cap < 0:
        raise InvalidSpec(f"need cap >= 0, got {cap}")
    win = as_window(sys, window)
    states = list(win)
    n = len(states)
    cursor = {x: x for x in states}
    blocks = [states]
    rounds = 0
    for _ in range(cap):
        if not blocks:
            break
        rounds += 1
        next_blocks = []
        for block in blocks:
            by_symbol: dict = {}
            for x in block:
                by_symbol.setdefault(sys.branch_of(cursor[x]), []).append(x)
            for sub in by_symbol.values():
                if len(sub) > 1:
                    for x in sub:
                        cursor[x] = sys.apply(cursor[x])
                    next_blocks.append(sub)
        blocks = next_blocks
    return TucReport(
        window=win.describe(),
        cap=cap,
        states=n,
        pairs=n * (n - 1) // 2,
        passed=not blocks,
        max_prefix_length=rounds if not blocks else cap,
        undistinguished=tuple(tuple(b) for b in blocks),
    )


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


def _gcd_failures(sys: DynamicalSystem) -> tuple:
    """Branches i < k with gcd(a_i, k) > 1, where the tower extension fails."""
    return tuple(
        i
        for i in range(1, sys.k)
        if math.gcd(sys.branch_affine_int(i)[0], sys.k) > 1
    )


def check_alphabeta_hypotheses(
    sys: DynamicalSystem, window, horizon: int | None = None
) -> HypothesesReport:
    """The two tower hypotheses: gcd(a_i, k) = 1, and every orbit meets
    the multiples of k within ``horizon`` steps (default k steps, i.e.
    among x, f(x), ..., f^{k-1}(x))."""
    if not sys.is_affine:
        raise NotAffineFamily("hypotheses concern the affine families")
    win = as_window(sys, window)
    horizon = sys.k if horizon is None else horizon
    gcd_failures = _gcd_failures(sys)
    multiple_failures = []
    for x in win:
        cur = x
        ok = False
        for _ in range(horizon):
            if cur % sys.k == 0:
                ok = True
                break
            cur = sys.apply(cur)
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


@dataclass(frozen=True)
class ResidueTower:
    """Digits (r_1, ..., r_depth) with r_j = x mod k^j for some x.

    Compatibility (r_{j+1} = r_j mod k^j) and range (0 <= r_j < k^j)
    are enforced at construction.
    """

    k: int
    digits: tuple

    def __post_init__(self):
        if self.k < 2:
            raise InvalidSpec("need k >= 2")
        if not self.digits:
            raise InvalidSpec("need depth >= 1")
        for j, r in enumerate(self.digits, start=1):
            if not 0 <= r < self.k**j:
                raise InvalidSpec(f"digit r_{j} = {r} outside [0, k^{j})")
        for j in range(len(self.digits) - 1):
            if self.digits[j + 1] % self.k ** (j + 1) != self.digits[j]:
                raise InvalidSpec(
                    f"digits r_{j + 1}, r_{j + 2} are not compatible"
                )

    @property
    def depth(self) -> int:
        return len(self.digits)

    def residue(self) -> int:
        """The branch residue r_1 (0 means the division branch)."""
        return self.digits[0] % self.k


def tower_from_state(x: int, k: int, depth: int) -> ResidueTower:
    if x < 1:
        raise InvalidSpec("states are positive integers")
    if depth < 1:
        raise InvalidSpec("need depth >= 1")
    return ResidueTower(k=k, digits=tuple(x % k**j for j in range(1, depth + 1)))


def tower_apply(sys: DynamicalSystem, tower: ResidueTower) -> ResidueTower:
    """Push a residue tower through one step of the system.

    The branch is read off r_1.  Affine branches map each digit to
    (a_i r_j + b_i) mod k^j at full depth; the division branch computes
    r'_j = r_{j+1} / k (exact, since r_1 = 0 forces k | r_{j+1}),
    losing one level.  Dividing a depth-1 tower raises DepthExhausted:
    no digit of the successor is determined.
    """
    if not sys.is_affine:
        raise NotAffineFamily("towers live over the affine families")
    if sys.k != tower.k:
        raise InvalidSpec(f"tower has k = {tower.k}, system has k = {sys.k}")
    bad = _gcd_failures(sys)
    if bad:
        i = bad[0]
        raise PreconditionUnmet(
            f"a_{i} = {sys.branch_affine_int(i)[0]} shares a factor with "
            f"k = {sys.k}; the extension to residue towers needs gcd(a_i, k) = 1"
        )
    i = tower.residue()
    if i != 0:
        a, b = sys.branch_affine_int(i)
        return ResidueTower(
            k=tower.k,
            digits=tuple(
                (a * r + b) % tower.k**j
                for j, r in enumerate(tower.digits, start=1)
            ),
        )
    if tower.depth == 1:
        raise DepthExhausted("division branch on a depth-1 tower")
    return ResidueTower(
        k=tower.k,
        digits=tuple(tower.digits[j] // tower.k for j in range(1, tower.depth)),
    )


@dataclass(frozen=True)
class RecoveryReport:
    x: int
    y: int
    j: int
    branch: int
    passed: bool
    detail: str


def verify_recovery_lemma(
    sys: DynamicalSystem, x: int, y: int, j: int, depth: int | None = None
) -> RecoveryReport:
    """One step of digit recovery, checked on actual integers.

    Hypotheses: x and y share their branch residue, and f(x) = f(y)
    mod k^j.  Conclusion: on an affine branch with gcd(a, k) = 1,
    x = y mod k^j already; on the division branch, x = y mod k^{j+1}.
    PreconditionUnmet is raised when the hypotheses fail, so a passing
    report always reflects a real instance of the lemma.
    """
    if not sys.is_affine:
        raise NotAffineFamily("towers live over the affine families")
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
        if branch in _gcd_failures(sys):
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
    symbols = [sys.branch_of(s) for s in rec.trajectory]
    return EventuallyPeriodic.make(
        symbols[: rec.entry_index], symbols[rec.entry_index :]
    )
