"""State spaces partitioned into injective branches.

A system here is a map f on a countable state space X together with a
partition X = X_1 | ... | X_k such that f restricted to each X_i is
injective.  Four families are provided:

* ``QxPlusD(q, d)``: X = {1, 2, ...}, f(n) = qn + d on odd n (branch 1)
  and f(n) = n/2 on even n (branch 2), with q, d odd.  ``collatz()`` is
  the (q, d) = (3, 1) instance.  As a map it is ``AlphaBeta(2, (q,),
  (d,))``; the spec stays separate for its name and JSON form.
* ``AlphaBeta(k, alpha, beta)``: f(n) = a_i n + b_i when n = i (mod k)
  for 0 < i < k (branch i), and f(n) = n/k when n = 0 (mod k)
  (branch k).
* ``FiniteTable``: an explicit finite state set with a branch index and
  an image for every state.  Per-branch injectivity is checked
  exhaustively.  k = 1 is allowed (f itself injective).
* ``SymbolicShift(k)``: the left shift on eventually periodic sequences
  over {1, ..., k}; the branch of a sequence is its first symbol.
  Sequences are stored exactly via :class:`EventuallyPeriodic`.

States are positive integers for the integer families, arbitrary
hashable labels for tables, and :class:`EventuallyPeriodic` values for
shifts.  Branch indices run from 1 to k throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Iterable, Iterator, Sequence

from .errors import InvalidSpec, NonInjectiveBranch, NotAffineFamily, OutOfDomain

State = Any


def _primitive_period(seq) -> int:
    """The least p dividing len(seq) with seq[j] = seq[(j + p) mod len(seq)],
    for a nonempty seq: the least period of the word, from the
    Knuth-Morris-Pratt failure function, when it divides the length (Fine
    and Wilf), else the length."""
    fail = [0] * len(seq)
    k = 0
    for j in range(1, len(seq)):
        while k and seq[j] != seq[k]:
            k = fail[k - 1]
        if seq[j] == seq[k]:
            k += 1
        fail[j] = k
    p = len(seq) - fail[-1]
    return p if len(seq) % p == 0 else len(seq)


def _components(n: int, succ: dict) -> list:
    """The components of a partial map on 0..n-1 as (members, cycle)
    pairs; ``succ`` omits the unmapped coordinates.

    A walk runs forward from each coordinate in turn until it joins a
    labelled component, or makes a new one by ending at an unmapped
    coordinate (cycle ``()``) or at its first repeat, where the cycle
    starts.  Every walk in a component ends at its cycle or unmapped
    member, so only the first, from its least member, makes it:
    components come in that order, members ascending.
    """
    label = [-1] * n
    cycles = []
    for head in range(n):
        path: dict = {}  # this walk's coordinates -> their position on it
        c = head
        while c is not None and label[c] < 0 and c not in path:
            path[c] = len(path)
            c = succ.get(c)
        if c is None or c in path:
            comp = len(cycles)
            cycles.append(() if c is None else tuple(path)[path[c]:])
        else:
            comp = label[c]
        for x in path:
            label[x] = comp
    members = [[] for _ in cycles]
    for c in range(n):
        members[label[c]].append(c)
    return list(zip(map(tuple, members), cycles))


@dataclass(frozen=True, order=True)
class EventuallyPeriodic:
    """An eventually periodic sequence s(0), s(1), ... stored exactly.

    ``pre`` holds the preperiodic head, ``per`` the repeating tail.  The
    stored form is normalized (primitive period, shortest head), so two
    values are equal as dataclasses iff they are equal as sequences.
    """

    pre: tuple
    per: tuple

    @staticmethod
    def make(pre: Iterable, per: Iterable) -> "EventuallyPeriodic":
        pre, per = tuple(pre), tuple(per)
        if not per:
            raise InvalidSpec("period part must be nonempty")
        per = per[: _primitive_period(per)]
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        return EventuallyPeriodic(pre, per)

    def head(self):
        return self.pre[0] if self.pre else self.per[0]

    def shift(self) -> "EventuallyPeriodic":
        if self.pre:
            return EventuallyPeriodic.make(self.pre[1:], self.per)
        return EventuallyPeriodic.make((), self.per[1:] + (self.per[0],))

    def prepend(self, symbol) -> "EventuallyPeriodic":
        return EventuallyPeriodic.make((symbol,) + self.pre, self.per)

    def prefix(self, length: int) -> tuple:
        out = list(self.pre[:length])
        i = 0
        while len(out) < length:
            out.append(self.per[i % len(self.per)])
            i += 1
        return tuple(out)

    def __getitem__(self, i: int):
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]


# ---------------------------------------------------------------------------
# family specs


@dataclass(frozen=True)
class QxPlusD:
    q: int
    d: int


@dataclass(frozen=True)
class AlphaBeta:
    k: int
    alpha: tuple  # a_1 ... a_{k-1}
    beta: tuple  # b_1 ... b_{k-1}


@dataclass(frozen=True)
class FiniteTable:
    states: tuple  # in _state_order
    branch: tuple  # (state, branch index) in state order
    image: tuple  # (state, image state) in state order
    k: int

    @staticmethod
    def make(branch: dict, image: dict, k: int | None = None) -> "FiniteTable":
        """The table in ``_state_order``, so labels need not compare."""
        states = _state_order(branch)
        if k is None:
            k = max(branch.values(), default=0)
        return FiniteTable(
            states=states,
            branch=tuple((x, branch[x]) for x in states),
            image=tuple((x, image[x]) for x in _state_order(image)),
            k=k,
        )


@dataclass(frozen=True)
class SymbolicShift:
    k: int


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _need_int(name: str, v, least: int | None = None, most: int | None = None) -> None:
    """The one rule for an integer argument (a count, a bound, a branch
    index): an int that is not a bool, at least ``least`` and, when
    ``most`` is given, at most ``most``.  True would pass as 1, and 2.0
    would pass the range checks and then leak a TypeError or float
    arithmetic.  InvalidSpec names the argument: "need an int {name},
    got {v!r}", "need {name} >= {least}, got {v}", or "{name} {v}
    outside {least}..{most}"."""
    if not _is_int(v):
        raise InvalidSpec(f"need an int {name}, got {v!r}")
    if most is not None and not least <= v <= most:
        raise InvalidSpec(f"{name} {v} outside {least}..{most}")
    if least is not None and v < least:
        raise InvalidSpec(f"need {name} >= {least}, got {v}")


def check_word(word: Iterable, k: int) -> tuple:
    """The word as a tuple of branch symbols in 1..k; InvalidSpec if it
    is empty or a symbol is not such an int."""
    word = tuple(word)
    if not word:
        raise InvalidSpec("empty word")
    for i in word:
        if not _is_int(i) or not 1 <= i <= k:
            raise InvalidSpec(f"symbol {i!r} outside 1..{k}")
    return word


def collatz() -> QxPlusD:
    return QxPlusD(3, 1)


def mersenne(m: int) -> QxPlusD:
    """The qn + 1 system with q = 2**m - 1."""
    _need_int("m", m, 2)
    return QxPlusD(2**m - 1, 1)


def _affine_kernels(k: int, rows: tuple) -> tuple:
    """Trusted step, branch, preimage and leap functions of an affine table.

    The leap takes x to (y, s) with y = f^s(x), s >= 1: the affine row if
    x is off the division branch, then the whole run of divisions, so y
    is the first state off the division branch.
    """
    if k == 2:
        ((q, d),) = rows

        def step(x):
            return q * x + d if x & 1 else x >> 1

        def branch(x):
            return 2 - (x & 1)

        def leap(x):
            if x & 1:
                x = q * x + d  # even, since q and d are odd
                v = (x & -x).bit_length() - 1
                return x >> v, v + 1
            v = (x & -x).bit_length() - 1
            return x >> v, v

    else:
        by_residue = (None,) + rows

        def step(x):
            r = x % k
            if r == 0:
                return x // k
            a, b = by_residue[r]
            return a * x + b

        def branch(x):
            return x % k or k

        def leap(x):
            s = 0
            r = x % k
            if r:
                a, b = by_residue[r]
                x = a * x + b
                s = 1
            y, r = divmod(x, k)
            while r == 0:
                x, s = y, s + 1
                y, r = divmod(x, k)
            return x, s

    def preimages(x):
        out = [(k * x, k)]
        i = 0  # a counter, not enumerate(): this loop is a hot kernel
        for a, b in rows:
            i += 1
            if (x - b) % a == 0:
                y = (x - b) // a
                if y >= 1 and y % k == i:
                    out.append((y, i))
        return out

    return step, branch, preimages, leap


def _class_step(k: int, rows: tuple, A: int, B: int) -> tuple:
    """One step of a residue class: (symbol, A', B') for k | A.

    Every state A*t + B with k | A takes the branch B mod k (k for
    residue 0), whatever t is, and its image is A'*t + B': (a*A, a*B + b)
    on an affine row, (A/k, B/k) on the division branch.  Trusts rows of
    an affine table and k | A.
    """
    r = B % k
    if r:
        a, b = rows[r - 1]
        return r, a * A, a * B + b
    return k, A // k, B // k


def _cylinder(k: int, rows: tuple, lo: int, hi: int, word) -> tuple | None:
    """(M, r, A, B, t0, t1): the states x of lo..hi whose coding begins
    with word and whose first len(word) images stay in lo..hi are the
    x = M*t + r with t0 <= t <= t1, none when t0 > t1, and the image
    f^len(word)(x) is A*t + B; None when no state at all has that coding.

    The word's cylinder is one residue class (Terras).  Before each
    symbol s the class's images are A*t + B, and A*t + B = s mod k holds
    for the t of one class mod p = k/g, g = gcd(A, k), when g divides
    s - B, and for no t otherwise.  Pinning t to that class makes k
    divide the slope, so ``_class_step`` takes the class's step; every
    image is increasing in t, so keeping it in lo..hi bounds t.  Trusts
    rows of an affine table, whatever their gcds with k.
    """
    M, r, A, B = 1, 0, 1, 0
    t0, t1 = lo, hi
    for s in word:
        g = gcd(A, k)
        if (s - B) % g:
            return None
        p = k // g
        u = (s - B) // g * pow(A // g, -1, p) % p
        M, r, A, B = p * M, r + M * u, p * A, A * u + B
        t0, t1 = -((u - t0) // p), (t1 - u) // p
        _, A, B = _class_step(k, rows, A, B)
        t0, t1 = max(t0, -((B - lo) // A)), min(t1, (hi - B) // A)
    return M, r, A, B, t0, t1


class DynamicalSystem:
    """A validated system: branch lookup, forward map, exact preimages.

    ``__init__`` reads the family of the spec once: its branch checks the
    spec and binds private ``_step``, ``_branch``, ``_preimages`` and
    ``_leap`` kernels specialised to the family (for k = 2, ``q*x + d if
    x & 1 else x >> 1``).  ``_leap(x)`` is (f^s(x), s) with s >= 1: on
    an affine system one affine step, if x is off the division branch,
    and then the whole run of divisions, so f^s(x) is off the division
    branch; on a table or a shift it is one step.  An affine system
    holds one integer branch table, ``_affine[r - 1] = (a_r, b_r)`` for
    the residues 0 < r < k, and residue 0 divides by k; ``QxPlusD(q,
    d)`` is the k = 2 table ((q, d),).  A finite table holds the type of
    each of its labels, and ``contains`` requires it, so 1.0 or True is
    no stand-in for the label 1.  A system holding neither is a shift.
    The public methods ``apply``, ``branch_of`` and ``preimages``
    validate every argument and then call the kernels.
    The kernels validate nothing: they trust states the system produced,
    which are states by construction, since positive integers map to
    positive integers and a table's image is total (``__init__`` checks
    it).  Window scans on the kernels validate their states once, with
    ``window_states``; an ``IntWindow`` on an affine system is validated
    by its bounds, since its ints lo..hi >= 1 are all states.

    The orbit walks cache what they build for the system in
    ``_jump_cache``, ``_entries`` and ``_entry_top``, which ``orbits``
    describes.

    ``gcd_failures`` lists the branches i < k with gcd(a_i, k) > 1, where
    the extension to residue towers fails; it is empty off the affine
    families.
    """

    def __init__(self, spec):
        self.spec = spec
        self._affine = None
        self._jump_cache = None
        self._entries = {}
        self._entry_top = 0
        self._label_type = None
        self.gcd_failures = ()
        if isinstance(spec, QxPlusD):
            q, d = spec.q, spec.d
            if not (_is_int(q) and _is_int(d) and q >= 1 and d >= 1 and q % 2 and d % 2):
                raise InvalidSpec("q and d must be odd positive integers")
            self._set_affine(2, ((q, d),))
            kernels = _affine_kernels(2, self._affine)
        elif isinstance(spec, AlphaBeta):
            _need_int("k", spec.k, 2)
            if len(spec.alpha) != spec.k - 1 or len(spec.beta) != spec.k - 1:
                raise InvalidSpec("need k - 1 coefficients a_i and b_i")
            for a, b in zip(spec.alpha, spec.beta):
                if not (_is_int(a) and _is_int(b)) or a < 1 or b < 1:
                    raise InvalidSpec("coefficients must be positive integers")
            # a_i*n + b_i must land back in {1,2,...}: automatic for
            # positive coefficients; residue classes need no check.
            self._set_affine(spec.k, tuple(zip(spec.alpha, spec.beta)))
            kernels = _affine_kernels(spec.k, self._affine)
        elif isinstance(spec, FiniteTable):
            self.k = spec.k
            branch = dict(spec.branch)
            image = dict(spec.image)
            self._label_type = {x: type(x) for x in spec.states}
            if not spec.states:
                raise InvalidSpec("state set must be nonempty")
            _need_int("k", spec.k, 1)
            labels = self._label_type.keys()
            if branch.keys() != labels or image.keys() != labels:
                raise InvalidSpec("branch and image must be total on the states")
            for i in branch.values():
                _need_int("branch index", i, 1, spec.k)
            for x, y in image.items():
                if not self.contains(y):
                    raise InvalidSpec(f"image {y!r} of {x!r} escapes the state set")
            clashes = _collisions(spec.states, branch.__getitem__, image.__getitem__)
            for i, x, y, fx in clashes:
                raise NonInjectiveBranch(
                    f"branch {i}: states {x!r} and {y!r} share image {fx!r}"
                )
            preimage_lists: dict = {}
            for x in sorted(spec.states, key=branch.__getitem__):
                preimage_lists.setdefault(image[x], []).append((x, branch[x]))

            def preimages(x):
                return list(preimage_lists.get(x, ()))

            # no division branch: a leap is one step
            kernels = (image.__getitem__, branch.__getitem__, preimages,
                       lambda x: (image[x], 1))
        elif isinstance(spec, SymbolicShift):
            self.k = k = spec.k
            _need_int("k", k, 1)

            def preimages(x):
                return [(x.prepend(i), i) for i in range(1, k + 1)]

            kernels = (EventuallyPeriodic.shift, EventuallyPeriodic.head, preimages,
                       lambda x: (x.shift(), 1))
        else:
            raise InvalidSpec(f"unknown family: {spec!r}")
        self._step, self._branch, self._preimages, self._leap = kernels

    def _set_affine(self, k: int, rows: tuple) -> None:
        self.k, self._affine = k, rows
        self.gcd_failures = tuple(
            i for i, (a, _) in enumerate(rows, start=1) if gcd(a, k) > 1
        )

    # systems with equal specs are interchangeable
    def __eq__(self, other):
        return isinstance(other, DynamicalSystem) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"DynamicalSystem({self.spec!r})"

    # -- state space -------------------------------------------------------

    def contains(self, x: State) -> bool:
        if self._affine is not None:
            return isinstance(x, int) and not isinstance(x, bool) and x >= 1
        if self._label_type is not None:
            # a table state is its stored label: 1 == True == 1.0 as dict
            # keys, yet only one of them is the label
            return self._label_type.get(x) is type(x)
        return isinstance(x, EventuallyPeriodic) and all(
            1 <= s <= self.k for s in x.pre + x.per
        )

    def _require(self, x: State) -> None:
        if not self.contains(x):
            raise OutOfDomain(f"{x!r} is not a state of this system")

    def states(self) -> tuple:
        """The full state set; finite tables only."""
        if self._label_type is None:
            raise OutOfDomain("state set is infinite; pass an explicit window")
        return self.spec.states

    # -- dynamics ----------------------------------------------------------

    def branch_of(self, x: State) -> int:
        self._require(x)
        return self._branch(x)

    def apply(self, x: State) -> State:
        self._require(x)
        return self._step(x)

    def preimages(self, x: State) -> list:
        """All (y, i) with f(y) = x and y in branch i.

        Affine families list the division branch first (k*x always
        exists), then the affine branches in index order.
        """
        self._require(x)
        return self._preimages(x)

    # -- affine structure ---------------------------------------------------

    @property
    def is_affine(self) -> bool:
        return self._affine is not None

    @property
    def is_finite(self) -> bool:
        return self._label_type is not None

    def _affine_branch(self, i: int) -> tuple | None:
        """Row i of the branch table, or None for the division branch k."""
        if self._affine is None:
            raise NotAffineFamily(
                f"{type(self.spec).__name__} branches are not affine maps"
            )
        _need_int("branch index", i, 1, self.k)
        return None if i == self.k else self._affine[i - 1]

    def branch_affine(self, i: int) -> tuple:
        """(a, b) with f(x) = a*x + b on branch i, as exact Fractions."""
        row = self._affine_branch(i)
        if row is None:
            return (Fraction(1, self.k), Fraction(0))
        return (Fraction(row[0]), Fraction(row[1]))

    def branch_affine_int(self, i: int) -> tuple:
        """(a, b) integer coefficients of an expanding branch (i < k side)."""
        row = self._affine_branch(i)
        if row is None:
            raise NotAffineFamily(f"branch {i} is the division branch")
        return row


def make_system(spec) -> DynamicalSystem:
    return DynamicalSystem(spec)


def _collisions(states, branch, image) -> Iterator:
    """(branch, first state, later state, shared image) for each state whose
    branch and image repeat those of an earlier state."""
    first: dict = {}
    for x in states:
        key = (branch(x), image(x))
        if key in first:
            yield key[0], first[key], x, key[1]
        else:
            first[key] = x


# ---------------------------------------------------------------------------
# windows

# the most states a truncation or a window scan materialises; larger
# windows are refused before any state is listed
MAX_WINDOW_STATES = 10**6


class Window:
    """A finite set of states used to truncate an infinite computation.

    ``materialize`` is the one way to reach the states, so every scan
    shares its MAX_WINDOW_STATES budget.
    """

    _states: Sequence  # the states in window order, unbudgeted

    def contains(self, x) -> bool:
        raise NotImplementedError

    def size(self) -> int:
        """The number of states; unlike len(), not capped at sys.maxsize."""
        raise NotImplementedError

    def materialize(self) -> Sequence:
        """The window's own sequence of states, not a copy, at most
        MAX_WINDOW_STATES of them: an ``IntWindow`` is ``range(lo, hi +
        1)``, which lists no state until a scan walks it."""
        if self.size() > MAX_WINDOW_STATES:
            raise InvalidSpec(
                f"window holds {self.size()} states; at most "
                f"MAX_WINDOW_STATES = {MAX_WINDOW_STATES} are materialised"
            )
        return self._states

    def describe(self) -> str:
        raise NotImplementedError


class IntWindow(Window):
    """The integer interval lo..hi inclusive."""

    def __init__(self, lo: int, hi: int):
        # window_states trusts the bounds: every int lo..hi is a state of
        # an affine system only if lo is an int >= 1 (True is no state)
        if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
            raise InvalidSpec(f"bad window {lo!r}..{hi!r}")
        self.lo, self.hi = lo, hi
        self._states = range(lo, hi + 1)

    def contains(self, x) -> bool:
        return isinstance(x, int) and self.lo <= x <= self.hi

    def size(self):
        return self.hi - self.lo + 1

    def _class_size(self, M: int, r: int) -> int:
        """The number of states x = r mod M in lo..hi, for M >= 1."""
        return (self.hi - r) // M - (self.lo - 1 - r) // M

    def describe(self):
        return f"{self.lo}..{self.hi}"


def _state_order(states) -> tuple:
    """The states in natural order, or by ``repr`` when they do not compare."""
    try:
        return tuple(sorted(states))
    except TypeError:
        return tuple(sorted(states, key=repr))


class SetWindow(Window):
    """An explicit finite state set, iterated in ``_state_order``."""

    def __init__(self, states: Iterable):
        self._set = frozenset(states)
        self._states = _state_order(self._set)

    def contains(self, x) -> bool:
        return x in self._set

    def size(self):
        return len(self._set)

    def describe(self):
        return f"set of {len(self._set)} states"


def as_window(sys: DynamicalSystem, window) -> Window:
    """A Window as given; None as a finite table's whole state set; an int
    pair (lo, hi) as IntWindow(lo, hi).  A set of states must come as a
    SetWindow: any other value is refused rather than guessed at."""
    if isinstance(window, Window):
        return window
    if window is None:
        return SetWindow(sys.states())
    if (
        isinstance(window, tuple)
        and len(window) == 2
        and all(isinstance(v, int) for v in window)
    ):
        return IntWindow(*window)
    raise InvalidSpec(
        f"a window is a Window, None or an int pair (lo, hi), not a "
        f"{type(window).__name__}; wrap a set of states in SetWindow"
    )


def window_states(sys: DynamicalSystem, window) -> tuple:
    """(Window, its states): ``as_window``, then ``materialize``, then a
    domain check, so a scan can run on the kernels.

    An ``IntWindow`` on an affine system is checked once, by its bounds:
    ``IntWindow`` refuses a bound that is no int or is below 1, and every
    int >= 1 is a state of a qx+d or α–β system, so ``sys._require(lo)``
    vouches for lo..hi, and a scan that walks classes lists no state of
    its ``range``.  Finite tables, shifts and every ``SetWindow`` check
    state by state.
    """
    win = as_window(sys, window)
    states = win.materialize()
    if sys.is_affine and isinstance(win, IntWindow):
        sys._require(win.lo)
    else:
        for x in states:
            sys._require(x)
    return win, states


# ---------------------------------------------------------------------------
# JSON interchange

def spec_to_json(spec) -> dict:
    """Family spec -> plain dict; large integers as decimal strings."""
    if isinstance(spec, QxPlusD):
        return {"family": "qxd", "q": str(spec.q), "d": str(spec.d)}
    if isinstance(spec, AlphaBeta):
        return {
            "family": "alphabeta",
            "k": spec.k,
            "alpha": [str(a) for a in spec.alpha],
            "beta": [str(b) for b in spec.beta],
        }
    if isinstance(spec, FiniteTable):
        return {
            "family": "table",
            "k": spec.k,
            "states": [str(x) for x in spec.states],
            "branch": {str(x): i for x, i in spec.branch},
            "image": {str(x): str(y) for x, y in spec.image},
        }
    if isinstance(spec, SymbolicShift):
        return {"family": "shift", "k": spec.k}
    raise InvalidSpec(f"unknown family: {spec!r}")


def json_int(v) -> int:
    """A JSON integer or a decimal string as an int.

    Floats, booleans and anything else raise InvalidSpec, so 3.7 is not
    truncated to 3 and ``true`` is not read as 1.
    """
    if type(v) is int:
        return v
    if isinstance(v, str) and re.fullmatch(r"[+-]?[0-9]+", v):
        return int(v)
    raise InvalidSpec(f"malformed integer {v!r}")


def _json_list(data: dict, key: str) -> list:
    """data[key], which must be a JSON list: a string is not read digit by digit."""
    v = data[key]
    if not isinstance(v, list):
        raise InvalidSpec(
            f"malformed system description: {key} must be a list, got {v!r}"
        )
    return v


def spec_from_json(data: dict):
    try:
        family = data["family"]
        if family == "collatz":
            return collatz()
        if family == "qxd":
            return QxPlusD(json_int(data["q"]), json_int(data["d"]))
        if family == "alphabeta":
            return AlphaBeta(
                json_int(data["k"]),
                tuple(json_int(a) for a in _json_list(data, "alpha")),
                tuple(json_int(b) for b in _json_list(data, "beta")),
            )
        if family == "table":
            branch = {json_int(x): json_int(i) for x, i in data["branch"].items()}
            image = {json_int(x): json_int(y) for x, y in data["image"].items()}
            k = json_int(data["k"]) if "k" in data else None
            table = FiniteTable.make(branch, image, k)
            if "states" in data:
                declared = tuple(sorted(json_int(x) for x in _json_list(data, "states")))
                if declared != table.states:
                    raise InvalidSpec("declared states do not match the branch table")
            return table
        if family == "shift":
            return SymbolicShift(json_int(data["k"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed system description: {exc}") from exc
    raise InvalidSpec(f"unknown family: {family!r}")
