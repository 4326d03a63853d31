"""Finite truncations of the branch partial isometries.

On the full state space each branch i induces a partial isometry T_i
with T_i e_x = e_{f(x)} for x in X_i and T_i e_x = 0 otherwise.  A
truncation restricts everything to a finite window W and stores only
the states in coordinate order (the dict of their coordinates is
derived on first read) and per branch i the column map of M_i (a 1 in
row f(x), column x for each x in X_i with both endpoints in W) and the
escapes, the states of X_i whose image leaves W.  On an integer window
lo..hi of an affine system the states are the window's range, x sits at
x - lo, X_i is one residue class mod k and f is affine on it, so the
column map pairs two ranges, kept as such until a reader asks for the
map as a dict, and the escapes are slices of W; finite tables, shifts,
explicit state sets and a given order take one pass over W, a kernel
call per state, which builds the dicts at once.  Per-branch
injectivity makes every M_i a sub-permutation matrix, so M_i M_i^T M_i
= M_i exactly, and M_i^T e_c = e_p for the branch-i preimage p of state
c when p is in W: it is read off the system's preimage kernel, not
stored.

Escapes have zero columns, and facts that would need their images
(reducing-subspace checks near the boundary, conjugation identities)
are only asserted on interior coordinates.  The projection P = T_I^*
T_I of a coding prefix I is a 0/1 diagonal, and ``projection_P``
returns the coordinates it keeps.  The chase of a word I composes the
column maps of its symbols; on the class route it is I's cylinder, one
residue class (``systems._cylinder``), cut to the window, so P_I's
support is one range and neither the P_m limit nor a word's fixed
vectors builds a column map.

Vectors are sparse dicts {coordinate: value}, the only vector format
here.  Every basis built here holds int entries: a set K of window
states becomes span{e_x : x in K} as one unit dict per member, and the
fixed vectors of a word operator are read off the cycles of the word's
index map.  Fractions appear only where a projection coefficient is not
an integer and in vectors that callers pass in.

The commutant is read off the bisimulation quotient of a closed
truncation.  Each total-orbit component is one cycle with in-trees and
covers a component of the quotient cyclically; its covering degree
fixes the commutant's dimension, whether it is abelian, and its minimal
blocks, one per divisor d of the degree, with orthogonal integer bases
in closed form.  No matrix is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd

from .errors import InvalidSpec, NotClosedSystem, WindowTooSmall
from .systems import (
    DynamicalSystem,
    IntWindow,
    _components,
    _cylinder,
    _need_int,
    _primitive_period,
    check_word,
    window_states,
)

# the most entries commutant_projections builds for its block bases,
# counted in closed form before any vector exists
MAX_COMMUTANT_BASIS_ENTRIES = 10**5


@dataclass(frozen=True)
class Truncation:
    """M_i's column maps and escapes on a window; ``states`` is the
    window's own sequence (an ``IntWindow``'s range) or the given order.

    The class route keeps each column map as the two ranges it pairs,
    columns and rows, and ``maps`` builds the dicts on first read; word
    chases, prefix projections and the P_m limit read the word's
    cylinder and never read it.  The state pass hands its dicts (and its
    index) to the truncation.
    """

    sys: DynamicalSystem
    states: tuple | range  # window states in coordinate order
    escapes: tuple  # per branch: tuple of states mapped out of the window, in window order
    # per branch on the class route: (columns, rows), two ranges paired in order
    _spans: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def index(self) -> dict:
        """state -> 0-based coordinate, built on first read, not by the class route."""
        return {x: c for c, x in enumerate(self.states)}

    @cached_property
    def maps(self) -> tuple:
        """Per branch: dict column index -> row index, in ascending column
        order; the class route's are built from its ranges on first read."""
        return tuple(dict(zip(cols, rows)) for cols, rows in self._spans)

    def _entries(self) -> list:
        """len(maps[i]) per branch; the class route's come from its ranges."""
        if self._spans is None:
            return list(map(len, self.maps))
        return [len(cols) for cols, _ in self._spans]

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def k(self) -> int:
        return self.sys.k

    def interior(self) -> frozenset:
        """Coordinates whose state's image and preimages all stay in the window."""
        index, step, pre = self.index, self.sys._step, self.sys._preimages
        return frozenset(
            c for x, c in index.items() if step(x) in index and all(p in index for p, _ in pre(x))
        )


def build_truncation(sys: DynamicalSystem, window, order=None) -> Truncation:
    """The truncation to a window of at most MAX_WINDOW_STATES states.

    An ``IntWindow`` of an affine system in its own order is read off
    its residue classes by ``_class_columns``, with no kernel call per
    state.  Every other truncation (a finite table, a shift, a
    ``SetWindow``, or a given ``order``) takes one pass over the states,
    which reads each state's branch and image once.  The class route
    keeps each column map as its pair of ranges, and ``Truncation.maps``
    builds the dicts on first read; the state pass builds them at once.
    Both give each column map in ascending column order and each
    branch's escapes in window order.
    """
    win, states = window_states(sys, window)
    if order is not None:
        order = tuple(order)
        # state by state too: True equals the state 1 in a set, yet is no state
        if len(order) != len(states) or set(order) != set(states) or not all(map(sys.contains, order)):
            raise InvalidSpec("order must be a permutation of the window")
        states = order
    elif sys.is_affine and isinstance(win, IntWindow):
        spans, escapes = _class_columns(sys.k, sys._affine, win, states)
        return Truncation(sys=sys, states=states, escapes=escapes, _spans=spans)
    index = {x: n for n, x in enumerate(states)}
    step, branch = sys._step, sys._branch
    maps = [{} for _ in range(sys.k)]
    esc = [[] for _ in range(sys.k)]
    # index.items() runs in state order; its coordinates are shared int objects
    for x, c in index.items():
        r = index.get(step(x))
        if r is None:
            esc[branch(x) - 1].append(x)
        else:
            maps[branch(x) - 1][c] = r
    trunc = Truncation(sys=sys, states=states, escapes=tuple(map(tuple, esc)))
    # keep the pass's dicts: the index Truncation.index would derive, and the maps
    object.__setattr__(trunc, "index", index)
    object.__setattr__(trunc, "maps", tuple(maps))
    return trunc


def _class_columns(k: int, rows: tuple, win: IntWindow, states: range) -> tuple:
    """(spans, escapes) of the truncation to lo..hi, one residue class
    per branch.

    Branch i's states are the cylinder of the word (i,), x = k*t + r, and
    ``_cylinder`` gives their image A*t + B and the run t0 <= t <= t1 of
    those whose image stays in lo..hi.  The column map pairs two ranges
    of coordinates x - lo, steps k and A, returned as the branch's
    (columns, rows) span and turned into a dict only when
    ``Truncation.maps`` is first read, and the class's escapes are its
    states before t0 and after t1.  Trusts states = range(lo, hi + 1) and
    rows of an affine table.
    """
    lo, hi = win.lo, win.hi
    spans, escapes = [], []
    for i in range(1, k + 1):
        _, r, A, B, t0, t1 = _cylinder(k, rows, lo, hi, (i,))
        u = max(t0, t1 + 1)
        c0, cu = k * t0 + r - lo, k * u + r - lo
        spans.append((range(c0, cu, k), range(A * t0 + B - lo, A * u + B - lo, A)))
        escapes.append((*states[(r - lo) % k : c0 : k], *states[cu::k]))
    return tuple(spans), tuple(escapes)


# ---------------------------------------------------------------------------
# vectors: sparse dicts {coordinate: value}, the only format


def _need_coordinates(keys, n: int) -> None:
    """Refuse a key that is not a coordinate 0..n-1: an int, not a value
    equal to one (True, 1.0), and never counted from the end."""
    for c in keys:
        if type(c) is not int or c not in range(n):
            raise InvalidSpec(f"coordinate {c!r} outside 0..{n - 1}")


def _dot(u: dict, v: dict):
    if len(u) > len(v):
        u, v = v, u
    return sum((x * v[c] for c, x in u.items() if c in v), 0)


def _chase(trunc: Truncation, symbols) -> dict:
    """c -> T_I e_c's coordinate, for every c the word keeps in the window,
    in ascending order of c.

    The class route pairs the ranges ``_cut`` reads off the word's
    cylinder and reads no column map.  The state pass starts at the
    first symbol's column map, whose keys are the columns that survive
    one symbol, in ascending order as ``build_truncation`` stores them.
    Either way the dict is fresh: a caller may change it without
    touching ``trunc.maps``.  ``symbols`` is a nonempty word, as
    ``check_word`` returns it.
    """
    if trunc._spans is not None:
        return dict(zip(*_cut(trunc, symbols)))
    first, *rest = symbols
    out = dict(trunc.maps[first - 1])
    for i in rest:
        fwd = trunc.maps[i - 1]
        out = {c: fwd[r] for c, r in out.items() if r in fwd}
    return out


def _cut(trunc: Truncation, symbols) -> tuple:
    """(columns, rows): the chase of a word on the class route, two ranges
    paired in order.  The word's cylinder cut to the window lo..hi is the
    x = M*t + r, t0 <= t <= t1, with images A*t + B (``_cylinder``), and
    state x sits at x - lo."""
    lo, hi = trunc.states[0], trunc.states[-1]
    cut = _cylinder(trunc.k, trunc.sys._affine, lo, hi, symbols)
    if cut is None:
        return range(0), range(0)
    M, r, A, B, t0, t1 = cut
    return range(M * t0 + r - lo, M * t1 + r - lo + 1, M), range(A * t0 + B - lo, A * t1 + B - lo + 1, A)


def apply_branch(trunc: Truncation, i: int, vec: dict, adjoint: bool = False) -> dict:
    """M_i vec, or M_i^T vec with M_i^T e_c = e_p for the in-window
    branch-i preimage p of state c; every key of vec is a coordinate."""
    _need_int("branch index", i, 1, trunc.k)
    _need_coordinates(vec, trunc.n)
    return _apply_branch(trunc, i, vec, adjoint)


def _apply_branch(trunc: Truncation, i: int, vec: dict, adjoint: bool) -> dict:
    """``apply_branch`` on a branch index and vector it trusts."""
    fwd, index, preimages = trunc.maps[i - 1], trunc.index, trunc.sys._preimages
    out: dict = {}
    for c, v in vec.items():
        if adjoint:
            # a branch holds at most one preimage; a table state may be None
            r = next((index.get(p) for p, b in preimages(trunc.states[c]) if b == i), None)
        else:
            r = fwd.get(c)
        if r is not None and v:
            out[r] = out.get(r, 0) + v
    return {r: v for r, v in out.items() if v}


def projection_P(trunc: Truncation, prefix) -> frozenset:
    """The support of P = T_I^* T_I for the length-m coding prefix I.

    A coordinate survives iff chasing its state through the prefix
    symbols keeps all intermediate images in the window; the adjoint
    chase then walks the same path backwards, so P is the diagonal 0/1
    indicator of the surviving start coordinates, returned as a set.
    On the class route they are the columns of the prefix's cylinder
    cut to the window (``_cut``), one range, and no column map is read.
    """
    symbols = check_word(prefix, trunc.k)
    if trunc._spans is None:
        return frozenset(_chase(trunc, symbols))
    return frozenset(_cut(trunc, symbols)[0])


@dataclass(frozen=True)
class PmLimitReport:
    x: object
    stabilization_index: int | None  # None when some support state never drops out
    eliminated: tuple  # (state, step, cause) per non-target support state
    never: tuple  # support states provably sharing x's whole coding in-window
    window_horizon: int | None  # step at which x itself would leave the window
    passed: bool


def verify_pm_limit(trunc: Truncation, a: dict, x, cap: int = 64) -> PmLimitReport:
    """P_m a converges to <a, e_x> e_x as m grows, m = prefix length.

    Support states other than x fall out of P_m a at the first m where
    either their coding disagrees with x's prefix ("coding") or their
    orbit leaves the window ("escape"); the maximum of those steps is
    the stabilization index.  A support state whose chase against x
    revisits a state pair can never be eliminated (the codings agree
    forever); that is reported, not raised.  WindowTooSmall is raised
    only when the verdict is window or cap limited: x leaves the window
    before a support state separates from it, or, itself in the support,
    at the stabilization index (P_m then drops e_x), or the cap runs out
    before separation or a pair revisit.
    """
    _need_int("cap", cap, 1)
    _need_coordinates(a, trunc.n)
    if x not in trunc.index:
        raise InvalidSpec(f"{x!r} is not in the window")
    # x can equal a window state without being a state (True == 1); the
    # support states are window states, which build_truncation checked
    trunc.sys._require(x)
    step, branch = trunc.sys._step, trunc.sys._branch
    symbols = []
    xs = []
    cur = x
    x_exit = None
    for m in range(cap):
        xs.append(cur)
        symbols.append(branch(cur))
        cur = step(cur)
        if cur not in trunc.index:
            x_exit = m + 1
            break
    eliminated = []
    never = []
    worst = 1
    for c in sorted(a):
        if not a[c]:
            continue
        y = trunc.states[c]
        if y == x:
            continue
        cur = y
        at = None
        cause = None
        seen = set()
        for m, sym in enumerate(symbols):
            pair = (xs[m], cur)
            if pair in seen:
                cause = "never"
                break
            seen.add(pair)
            if branch(cur) != sym:
                at, cause = m + 1, "coding"
                break
            cur = step(cur)
            if cur not in trunc.index:
                at, cause = m + 1, "escape"
                break
        if cause == "never":
            never.append(y)
            continue
        if at is None:
            raise WindowTooSmall(
                f"states {x!r} and {y!r} not separated within the window "
                f"(x leaves the window after {x_exit} steps)"
                if x_exit is not None
                else f"states {x!r} and {y!r} not separated within {cap} symbols"
            )
        eliminated.append((y, at, cause))
        worst = max(worst, at)
    if never:
        return PmLimitReport(
            x=x,
            stabilization_index=None,
            eliminated=tuple(eliminated),
            never=tuple(never),
            window_horizon=x_exit,
            passed=False,
        )
    target = {trunc.index[x]: a[trunc.index[x]]} if a.get(trunc.index[x]) else {}
    # each chase stops by x's exit, so worst <= x_exit; at equality the
    # window drops e_x itself from P_worst a
    if target and x_exit == worst:
        raise WindowTooSmall(
            f"{x!r} leaves the window after {x_exit} steps, at the "
            f"stabilization index: e_{x!r} drops out of P_{worst} a there"
        )
    support = projection_P(trunc, tuple(symbols[:worst]))
    # a zero coefficient of a is no support: compare nonzero entries only
    result = {c: v for c, v in a.items() if v and c in support}
    return PmLimitReport(
        x=x,
        stabilization_index=worst,
        eliminated=tuple(eliminated),
        never=(),
        window_horizon=x_exit,
        passed=result == target,
    )


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthogonal (not normalized) basis of a subspace of Q^n.

    Vectors are scaled to have integral entries rather than unit length,
    and every basis built here holds ints.  A coordinate -> vectors
    index lets orthogonality checks and projections touch only vectors
    that share a coordinate.
    """

    n: int
    vectors: tuple  # tuple of sparse dicts {coordinate: int}
    _by_coord: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_coord: dict = {}
        for j, v in enumerate(self.vectors):
            if not any(v.values()):
                raise InvalidSpec("zero vector in basis")
            _need_coordinates(v, self.n)
            for c in v:
                by_coord.setdefault(c, []).append(j)
        object.__setattr__(self, "_by_coord", by_coord)
        for j, u in enumerate(self.vectors):
            for i in self._sharing(u):
                if i > j and _dot(u, self.vectors[i]):
                    raise InvalidSpec("basis is not orthogonal")

    def _sharing(self, w: dict) -> set:
        """Indices of the vectors that share a coordinate with w."""
        return {j for c in w for j in self._by_coord.get(c, ())}

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def project(self, w: dict) -> dict:
        """Orthogonal projection of w onto the subspace.

        A coefficient is the exact int quotient when both dot products
        are ints and the divisor divides; otherwise it is a Fraction,
        which refuses float entries."""
        out: dict = {}
        for j in self._sharing(w):
            b = self.vectors[j]
            num, den = _dot(b, w), _dot(b, b)
            if type(num) is int and type(den) is int and not num % den:
                coeff = num // den
            else:
                coeff = Fraction(num, den)
            for c, x in b.items():
                out[c] = out.get(c, 0) + coeff * x
        return {c: x for c, x in out.items() if x}

    def contains(self, w: dict) -> bool:
        return self.project(w) == {c: x for c, x in w.items() if x}


def coordinate_subspace(trunc: Truncation, states) -> SubspaceBasis:
    """H_K = span{e_x : x in K} for a set K of window states.

    ``is_reducing`` decides whether K is invariant relative to the
    window: M_i e_x = e_{f(x)} when f(x) is in the window, and
    M_i^T e_x = e_p for the in-window preimage p of x on branch i, so
    H_K reduces exactly when those images and preimages of K stay in K.
    """
    states = tuple(states)
    k_set = set(states)
    # every member is a state (True == 1 in a set, yet is no state) of the window
    vectors = tuple({c: 1} for c, x in enumerate(trunc.states) if x in k_set)
    if len(vectors) != len(k_set) or not all(map(trunc.sys.contains, states)):
        raise InvalidSpec("K must lie inside the window")
    return SubspaceBasis(n=trunc.n, vectors=vectors)


@dataclass(frozen=True)
class ReducingReport:
    passed: bool
    interior_only: bool
    witness: tuple | None  # (branch, "T"|"T*", basis index, state)


def is_reducing(
    trunc: Truncation,
    basis: SubspaceBasis,
    interior_only: bool = False,
) -> ReducingReport:
    """Does every M_i and M_i^T map the subspace into itself?

    With interior_only the containment is asserted only on coordinates
    of interior states, since escape-affected rows are truncation
    artifacts rather than facts about the full system.  Residuals are
    compared to zero exactly.
    """
    if basis.n != trunc.n:
        raise InvalidSpec("basis dimension does not match the truncation")
    allowed = trunc.interior() if interior_only else range(trunc.n)

    for bi, v in enumerate(basis.vectors):
        for i in range(1, trunc.k + 1):
            for adjoint, tag in ((False, "T"), (True, "T*")):
                # the basis checked its coordinates against n = trunc.n;
                # both are sparse without zero entries: compare them key by key
                w = _apply_branch(trunc, i, v, adjoint)
                p = basis.project(w)
                bad = [c for c in w.keys() | p.keys() if c in allowed and w.get(c) != p.get(c)]
                if bad:
                    return ReducingReport(
                        passed=False,
                        interior_only=interior_only,
                        witness=(i, tag, bi, trunc.states[min(bad)]),
                    )
    return ReducingReport(passed=True, interior_only=interior_only, witness=None)


# ---------------------------------------------------------------------------
# commutant


@dataclass(frozen=True)
class CommutantReport:
    dimension: int
    abelian: bool
    nonabelian_witness: tuple | None  # two bisimilar states in different components
    blocks: tuple  # SubspaceBasis per minimal reducing block (abelian case)
    block_field: tuple  # per block: d, the commutant acts on it as the field Q(zeta_d)
    lattice_size: int | None  # reducing subspaces over C: 2**dimension when abelian


@dataclass(frozen=True)
class _Cover:
    """A total-orbit component C as a cyclic covering of its quotient component Q."""

    place: dict  # state -> (cycle position, id of its label path down from the cycle)
    period: int  # L_Q, the length of Q's cycle
    degree: int  # a_C = L / L_Q for the length L of C's cycle
    key: tuple  # Q's cycle types from their least rotation on
    witness: int  # the coordinate where that rotation starts


def commutant_projections(trunc: Truncation) -> CommutantReport:
    """Exact commutant of {M_i, M_i^T} and its minimal reducing blocks.

    Requires an escape-free truncation (otherwise the M_i are not the
    honest operators of a closed system and the commutant would mix
    truncation artifacts into the answer).  There every state has one
    out-edge and at most one in-edge per label, so each total-orbit
    component C is one cycle with in-trees, and it covers one component
    Q of the bisimulation quotient cyclically, with degree a_C (see
    ``_covers``).  A commutant element has nonzero entries only between
    bisimilar states, and:

    * the dimension is the sum over Q of gcd(a_C, a_C') over the pairs
      of components C, C' over Q;
    * the commutant is abelian exactly when no two components lie over
      the same Q.  Otherwise it holds a full matrix algebra over them
      and there are infinitely many reducing subspaces: the witness is
      two bisimilar states in different components, and no block is
      built;
    * when it is abelian it acts on C as Q[R], for the deck
      transformation R that moves x_j to x_{j+L_Q} on the cycle and
      carries the in-trees along.  Its orbits, the fibres, hold a_C
      states each, and C splits into one block for each d dividing a_C:
      the Phi_d-isotypic part of R, of rank (|C| / a_C) * phi(d), on
      which the commutant acts as the field Q(zeta_d).  A field has no
      idempotent but 0 and 1, so every block is minimal over Q.  Over
      C, the paper's setting, the commutant is C^dimension with
      2**dimension projections: that is ``lattice_size``.

    The bases are ``_field_functions`` copied onto every fibre, at most
    MAX_COMMUTANT_BASIS_ENTRIES entries, counted before any vector is
    built.  Blocks are ordered by (least coordinate, -rank, d).
    """
    escaping = sum(map(len, trunc.escapes))
    if escaping:
        raise NotClosedSystem(
            f"window has {escaping} escaping states; "
            "the commutant needs a closed truncation"
        )
    covers = _covers(trunc.maps, trunc.n)
    over: dict = {}
    for cov in covers:
        over.setdefault(cov.key, []).append(cov)
    dim = 0
    for group in over.values():
        degrees = Counter(cov.degree for cov in group)
        dim += sum(m * m2 * gcd(a, a2) for a, m in degrees.items() for a2, m2 in degrees.items())
    shared = next((group for group in over.values() if len(group) > 1), None)
    if shared is not None:
        return CommutantReport(
            dimension=dim,
            abelian=False,
            nonabelian_witness=tuple(trunc.states[cov.witness] for cov in shared[:2]),
            blocks=(),
            block_field=(),
            lattice_size=None,
        )
    entries = sum(_basis_entries(cov) for cov in covers)
    if entries > MAX_COMMUTANT_BASIS_ENTRIES:
        raise InvalidSpec(
            f"commutant basis holds {entries} entries; at most "
            f"MAX_COMMUTANT_BASIS_ENTRIES = {MAX_COMMUTANT_BASIS_ENTRIES} are built"
        )
    blocks = []
    for cov in covers:
        fibres: dict = {}  # fibre -> its states by sheet, the cycle position div L_Q
        for y, (j, path) in cov.place.items():
            fibres.setdefault((j % cov.period, path), [None] * cov.degree)[j // cov.period] = y
        for d, functions in _field_functions(cov.degree):
            vectors = tuple({f[j]: x for j, x in g.items()} for f in fibres.values() for g in functions)
            blocks.append((min(cov.place), -len(vectors), d, SubspaceBasis(n=trunc.n, vectors=vectors)))
    blocks.sort(key=lambda b: b[:3])
    return CommutantReport(
        dimension=dim,
        abelian=True,
        nonabelian_witness=None,
        blocks=tuple(b[3] for b in blocks),
        block_field=tuple(b[2] for b in blocks),
        lattice_size=2**dim,
    )


def _covers(maps: tuple, n: int) -> list:
    """The covering data of each total-orbit component of the closed map
    given by the per-branch column maps on 0..n-1, in linear time.

    Two states are bisimilar when they have the same label, bisimilar
    images and, label by label, bisimilar preimages or none.  A tree
    state has no infinite backward path, so it is bisimilar to no cycle
    state, and bisimilar tree states have equal in-trees, interned
    bottom-up as (label, (label, id) per preimage).  A cycle state's
    type is (label, (label, the preimage's tree id or "cycle") per
    preimage), and two cycle states are bisimilar exactly when their
    type sequences agree from there on.  L_Q is the primitive period of
    the types and the key is their least rotation; one intern table
    serves all components, so equal keys mean the same Q.

    Each component's cycle comes from ``systems._components``, and a
    walk backward over preimages from the cycle places the whole
    component; the covers come in order of least coordinate.
    """
    label, image = {}, {}
    pre: dict = {}  # state -> [(label, preimage)], one per label that has one
    for b, fwd in enumerate(maps):
        for c, r in fwd.items():
            label[c], image[c] = b, r
            pre.setdefault(r, []).append((b, c))
    intern: dict = {}
    paths: dict = {}
    covers = []
    for _, cycle in _components(n, image):
        place = {x: (j, -1) for j, x in enumerate(cycle)}
        order = list(cycle)
        for y in order:  # the list grows as it is read: breadth first over preimages
            for b, p in pre.get(y, ()):
                if p not in place:
                    place[p] = (place[y][0], paths.setdefault((place[y][1], b), len(paths)))
                    order.append(p)
        tree: dict = {}
        for y in reversed(order[len(cycle):]):
            shape = (label[y], tuple((b, tree[p]) for b, p in pre.get(y, ())))
            tree[y] = intern.setdefault(shape, len(intern))
        types = []
        for j, x in enumerate(cycle):
            below = tuple((b, "cycle" if p == cycle[j - 1] else tree[p]) for b, p in pre[x])
            types.append(intern.setdefault((label[x], below), len(intern)))
        period = _primitive_period(types)
        start = _least_rotation(types[:period])
        key = tuple(types[start:period] + types[:start])
        covers.append(_Cover(place, period, len(cycle) // period, key, cycle[start]))
    return covers


def _least_rotation(seq: list) -> int:
    """Where the least rotation of seq starts: two candidate starts race,
    and the one that loses after k equal symbols skips k + 1 starts."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _factor(a: int) -> list:
    """[(p, e)] with a = prod p**e, by trial division."""
    out, p = [], 2
    while p * p <= a:
        e = 0
        while a % p == 0:
            a, e = a // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(a, 1)] if a > 1 else out


def _field_functions(a: int) -> list:
    """(d, basis) for each d dividing a, where the basis is orthogonal,
    integral, and spans the functions on Z/a on which j -> j + 1 acts
    through the cyclotomic Phi_d.

    Z/a is the product of its Z/p^e (CRT), and with f = v_p(d) the basis
    is the tensor product over p of: the constant function if f = 0,
    else the functions of j mod p^f that sum to zero on every coset of
    Z/p^f -> Z/p^(f-1), in the Haar basis of each coset.
    """
    primes = _factor(a)
    out = []
    for exps in product(*(range(e + 1) for _, e in primes)):
        d, basis, modulus = 1, [{0: 1}], 1
        for (p, e), f in zip(primes, exps):
            d, q = d * p**f, p**e
            u, v = q * pow(q, -1, modulus), modulus * pow(modulus, -1, q)
            basis = [
                {(j * u + i * v) % (modulus * q): x * y for j, x in g.items() for i, y in h.items()}
                for g in basis
                for h in _prime_power_factor(p, e, f)
            ]
            modulus *= q
        out.append((d, basis))
    return out


def _prime_power_factor(p: int, e: int, f: int) -> list:
    """The Phi_{p^f}-isotypic functions on Z/p^e, in an orthogonal basis."""
    q = p**e
    if f == 0:
        return [dict.fromkeys(range(q), 1)]
    step, m = p ** (f - 1), p**f
    return [
        {r + t * step + s * m: x for s in range(q // m) for t, x in h.items()}
        for r in range(step)
        for h in _haar(range(p))
    ]


def _haar(points: range) -> list:
    """An orthogonal basis of the functions on points that sum to zero:
    |B| 1_A - |A| 1_B for the halves A and B, scaled to coprime entries,
    then each half's own.  It has p log p entries on p points, a Helmert
    basis about p^2 / 2."""
    if len(points) < 2:
        return []
    a, b = points[: len(points) // 2], points[len(points) // 2 :]
    g = gcd(len(a), len(b))
    return [dict.fromkeys(a, len(b) // g) | dict.fromkeys(b, -len(a) // g)] + _haar(a) + _haar(b)


def _basis_entries(cov: _Cover) -> int:
    """The entries of a component's block bases.

    ``_haar`` on p points has p (c + 1) - 2^c entries, c = ceil(log2 p).
    Per p^e exactly dividing a_C the factors hold p^e entries for f = 0
    and p^(e-1) times that for each f = 1..e; the tensor product
    multiplies over the primes, and every fibre holds a copy.
    """
    total = len(cov.place) // cov.degree
    for p, e in _factor(cov.degree):
        c = (p - 1).bit_length()
        total *= p**e + e * p ** (e - 1) * (p * (c + 1) - 2**c)
    return total


# ---------------------------------------------------------------------------
# fixed vectors of word operators


@dataclass(frozen=True)
class FixedVectorsReport:
    word: tuple
    basis: SubspaceBasis
    dimension: int


def fixed_vectors_of_word(trunc: Truncation, word) -> FixedVectorsReport:
    """The eigenspace {v : M_I v = v}, read off the cycles of the word.

    M_I is the matrix of the partial injection c -> chase(c), so a fixed
    vector vanishes on the injection's chains and is constant on each of
    its cycles (``systems._components``): the cycle indicators form an
    orthogonal basis.  They are listed by largest coordinate, the free
    column elimination of M_I - Id would give each cycle.
    """
    word = check_word(word, trunc.k)
    image = _chase(trunc, word)
    # the cycles lie in the chase's domain, often far smaller than the
    # window: walk it alone, relabelled 0..len - 1
    cols = list(image)
    at = {c: j for j, c in enumerate(cols)}
    comps = _components(len(cols), {at[c]: at[r] for c, r in image.items() if r in at})
    cycles = [sorted(cols[j] for j in cyc) for _, cyc in comps if cyc]
    cycles.sort(key=max)
    basis = SubspaceBasis(n=trunc.n, vectors=tuple(dict.fromkeys(c, 1) for c in cycles))
    return FixedVectorsReport(word=word, basis=basis, dimension=basis.dimension)
