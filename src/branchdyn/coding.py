"""Symbolic codings and k-adic residue towers.

The coding of a state x is the sequence of branches its orbit visits:
x-hat = (branch(x), branch(f(x)), branch(f^2(x)), ...).  The coding
intertwines f with the left shift.  When the coding map is injective
(every pair of distinct states disagrees at some position) the system
embeds into the shift on k symbols; injectivity over a finite window is
decided here by partition refinement, which distinguishes all pairs in
one pass per symbol instead of walking each pair separately.

Residue towers capture what the coding sees of an integer state x:
the digits r_j = x mod k^j for j = 1..depth.  The top digit fixes the
rest (r_j = r_depth mod k^j), so a tower is stored as the one residue
x mod k^depth, its k-adic truncation, and the digits are derived from
it.  An affine branch maps that residue r to (a r + b) mod k^depth at
the same depth; the division branch maps it to r / k and consumes one
level (r'_j = r_{j+1} / k), so depth-1 towers cannot be divided further.

That step is one integer kernel, ``_tower_step``, on (depth, residue);
``_tower_rows`` runs the system checks it trusts.  ``tower_apply`` is the
checks, the step and a tower; the battery's tower check (check 12) runs
the checks once per system and sweeps plain residues through the kernel.
"""

from __future__ import annotations

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
    sys._require(x)
    step, branch = sys._step, sys._branch
    out = []
    cur = x
    for _ in range(length):
        out.append(branch(cur))
        cur = step(cur)
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
    sys._require(x)
    sys._require(y)
    step, branch = sys._step, sys._branch
    cx, cy = x, y
    for j in range(1, cap + 1):
        if branch(cx) != branch(cy):
            return j
        cx, cy = step(cx), step(cy)
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
    states = win.materialize()
    for x in states:
        sys._require(x)
    step, branch = sys._step, sys._branch
    n = len(states)
    cursor = list(states)  # cursor[j] = f^rounds(states[j]) while j is unsplit
    blocks = [range(n)]  # blocks of indices into states
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
    return TucReport(
        window=win.describe(),
        cap=cap,
        states=n,
        pairs=n * (n - 1) // 2,
        passed=not blocks,
        max_prefix_length=rounds if not blocks else cap,
        undistinguished=tuple(tuple(states[j] for j in b) for b in blocks),
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


def check_alphabeta_hypotheses(
    sys: DynamicalSystem, window, horizon: int | None = None
) -> HypothesesReport:
    """The two tower hypotheses: gcd(a_i, k) = 1, and every orbit meets
    the multiples of k within ``horizon`` steps (default k steps, i.e.
    among x, f(x), ..., f^{k-1}(x))."""
    if not sys.is_affine:
        raise NotAffineFamily("hypotheses concern the affine families")
    win = as_window(sys, window)
    states = win.materialize()
    for x in states:
        sys._require(x)
    step, k = sys._step, sys.k
    horizon = k if horizon is None else horizon
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
    0 <= value < k^depth are checked.  Towers given digit by digit go
    through ``from_digits``, which checks each digit.
    """

    k: int
    depth: int
    value: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidSpec("need k >= 2")
        if self.depth < 1:
            raise InvalidSpec("need depth >= 1")
        if not 0 <= self.value < self.k**self.depth:
            raise InvalidSpec(f"value {self.value} outside [0, k^{self.depth})")

    @classmethod
    def from_digits(cls, k: int, digits) -> "ResidueTower":
        """The tower with digits (r_1, ..., r_depth), each in [0, k^j)
        and compatible with the next (r_j = r_{j+1} mod k^j)."""
        if k < 2:
            raise InvalidSpec("need k >= 2")
        digits = tuple(digits)
        if not digits:
            raise InvalidSpec("need depth >= 1")
        low, high = 1, k
        for j, r in enumerate(digits, start=1):
            if not 0 <= r < high:
                raise InvalidSpec(f"digit r_{j} = {r} outside [0, k^{j})")
            if j > 1 and r % low != digits[j - 2]:
                raise InvalidSpec(f"digits r_{j - 1}, r_{j} are not compatible")
            low, high = high, high * k
        return cls(k, len(digits), digits[-1])

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

    def residue(self) -> int:
        """The branch residue r_1 (0 means the division branch)."""
        return self.value % self.k


def tower_from_state(x: int, k: int, depth: int) -> ResidueTower:
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
    then calls ``_tower_step`` on the rows.
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


def _tower_step(rows: tuple, k: int, depth: int, value: int) -> tuple:
    """One tower step on the residue value = x mod k^depth: (depth', value').

    Trusts rows from ``_tower_rows`` and 0 <= value < k^depth.
    """
    i = value % k
    if i != 0:
        a, b = rows[i - 1]
        return depth, (a * value + b) % k**depth
    if depth == 1:
        raise DepthExhausted("division branch on a depth-1 tower")
    return depth - 1, value // k


def tower_apply(sys: DynamicalSystem, tower: ResidueTower) -> ResidueTower:
    """Push a residue tower through one step of the system.

    The branch is read off the residue r mod k.  An affine branch maps r
    to (a_i r + b_i) mod k^depth at full depth; the division branch maps
    it to r / k (exact, since k | r), losing one level.  Dividing a
    depth-1 tower raises DepthExhausted: no digit of the successor is
    determined.
    """
    k = tower.k
    rows = _tower_rows(sys, k)
    depth, value = _tower_step(rows, k, tower.depth, tower.value)
    return ResidueTower(k, depth, value)


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
    symbols = [sys.branch_of(s) for s in rec.trajectory]
    return EventuallyPeriodic.make(
        symbols[: rec.entry_index], symbols[rec.entry_index :]
    )
