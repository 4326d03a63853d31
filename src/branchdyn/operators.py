"""Finite truncations of the branch partial isometries.

On the full state space each branch i induces a partial isometry T_i
with T_i e_x = e_{f(x)} for x in X_i and T_i e_x = 0 otherwise.  A
truncation restricts everything to a finite window W: the matrix M_i
has a 1 in row f(x), column x for each x in X_i with both endpoints in
W.  Per-branch injectivity makes every M_i a sub-permutation matrix
(at most one 1 per row and per column), so M_i M_i^T M_i = M_i holds
exactly and adjoints are plain transposes.

States of the window whose image under f leaves the window are
"escapes": their columns are zero, and facts that would need those
images (reducing-subspace checks near the boundary, conjugation
identities) are only asserted on interior coordinates.

Vectors are sparse dicts {coordinate: Fraction}, the only vector format
here: an invariant set K becomes span{e_x : x in K} as one unit dict per
member, and the fixed vectors of a word operator are read off the cycles
of the word's index map.  Dense matrices appear only in the commutant's
spectral split.

The commutant computation exploits the 0/1 structure: A M_i = M_i A
and A M_i^T = M_i^T A are, entry by entry, equalities between single
entries of A or constraints forcing single entries to 0.  Union-find
over entry positions (with one extra "zero" sink) therefore yields an
exact basis of the commutant: the indicator matrices of the surviving
entry classes.  When the commutant is abelian its reducing blocks are
found one total-orbit component at a time, and only components with
off-diagonal classes need exact spectral work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import InvalidSpec, NotClosedSystem, WindowTooSmall
from .coding import CodingPrefix
from .orbits import _UnionFind
from .systems import DynamicalSystem, as_window
from .words import check_word

F0 = Fraction(0)
F1 = Fraction(1)

# the most matrix entries (n^2 for n states) commutant_projections ties
# into classes; larger truncations are refused (n <= 2000)
MAX_COMMUTANT_ENTRIES = 4 * 10**6
# the largest commutant (number of entry classes) tested for commutation
MAX_COMMUTANT_DIMENSION = 4096


@dataclass(frozen=True)
class Truncation:
    sys: DynamicalSystem
    states: tuple  # window states in index order
    index: dict  # state -> 0-based coordinate
    maps: tuple  # per branch: dict column index -> row index
    inverse_maps: tuple  # per branch: dict row index -> column index
    escapes: tuple  # per branch: frozenset of states mapped out of the window

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def k(self) -> int:
        return self.sys.k

    @property
    def escape_count(self) -> int:
        return sum(len(e) for e in self.escapes)

    def interior(self) -> frozenset:
        """States whose image and all preimages stay inside the window."""
        out = []
        win = set(self.states)
        for x in self.states:
            if self.sys.apply(x) not in win:
                continue
            if any(p not in win for p, _ in self.sys.preimages(x)):
                continue
            out.append(x)
        return frozenset(out)


def build_truncation(sys: DynamicalSystem, window, order=None) -> Truncation:
    """The truncation to a window of at most MAX_WINDOW_STATES states.

    One pass over the states reads each state's branch and image once.
    """
    win = as_window(sys, window)
    states = win.materialize()
    if order is not None:
        if set(order) != set(states) or len(set(order)) != len(states):
            raise InvalidSpec("order must be a permutation of the window")
        states = tuple(order)
    for x in states:
        sys._require(x)
    step, branch = sys._step, sys._branch
    index = {x: n for n, x in enumerate(states)}
    maps = [{} for _ in range(sys.k)]
    esc = [[] for _ in range(sys.k)]
    # index.items() runs in state order; its coordinates are shared int objects
    for x, c in index.items():
        r = index.get(step(x))
        if r is None:
            esc[branch(x) - 1].append(x)
        else:
            maps[branch(x) - 1][c] = r
    inverses = []
    for i, fwd in enumerate(maps, start=1):
        inv = {r: c for c, r in fwd.items()}
        if len(inv) != len(fwd):
            raise InvalidSpec(f"branch {i} is not injective on the window")
        inverses.append(inv)
    return Truncation(
        sys=sys,
        states=states,
        index=index,
        maps=tuple(maps),
        inverse_maps=tuple(inverses),
        escapes=tuple(frozenset(e) for e in esc),
    )


# ---------------------------------------------------------------------------
# vectors: sparse dicts {coordinate: Fraction}, the only format


def _dot(u: dict, v: dict) -> Fraction:
    return sum((x * v[c] for c, x in u.items() if c in v), F0)


def _chase(trunc: Truncation, symbols) -> dict:
    """c -> T_I e_c's coordinate, for every c the word keeps in the window."""
    out = {c: c for c in range(trunc.n)}
    for i in symbols:
        fwd = trunc.maps[i - 1]
        out = {c: fwd[r] for c, r in out.items() if r in fwd}
    return out


def apply_branch(trunc: Truncation, i: int, vec: dict, adjoint: bool = False) -> dict:
    table = trunc.inverse_maps[i - 1] if adjoint else trunc.maps[i - 1]
    out: dict = {}
    for c, v in vec.items():
        r = table.get(c)
        if r is not None and v:
            out[r] = out.get(r, F0) + v
    return {r: v for r, v in out.items() if v}


def apply_word_op(trunc: Truncation, word, vec: dict) -> dict:
    """T_I vec with the first symbol of the word acting first."""
    word = check_word(word, trunc.k)
    cur = dict(vec)
    for i in word:
        cur = apply_branch(trunc, i, cur)
    return cur


@dataclass(frozen=True)
class DiagonalProjection:
    """P = T_I^* T_I for a coding prefix I: diagonal, 0/1."""

    n: int
    prefix: tuple
    coordinates: frozenset

    def apply(self, vec: dict) -> dict:
        return {c: v for c, v in vec.items() if c in self.coordinates}


def projection_P(trunc: Truncation, prefix) -> DiagonalProjection:
    """The range projection of the length-m coding cylinder.

    A coordinate survives iff chasing its state through the prefix
    symbols keeps all intermediate images in the window; the adjoint
    chase then walks the same path backwards, so P is the diagonal
    indicator of the surviving start coordinates.
    """
    symbols = prefix.symbols if isinstance(prefix, CodingPrefix) else tuple(prefix)
    symbols = check_word(symbols, trunc.k)
    return DiagonalProjection(
        n=trunc.n, prefix=symbols, coordinates=frozenset(_chase(trunc, symbols))
    )


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
    only when the verdict is window or cap limited: x leaves the window,
    or the cap runs out before separation or a pair revisit.
    """
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
    if x_exit is not None and x_exit < worst:
        raise WindowTooSmall(
            f"{x!r} leaves the window after {x_exit} steps, "
            f"before stabilization at {worst}"
        )
    prefix = tuple(symbols[:worst])
    result = projection_P(trunc, prefix).apply(a)
    target = {trunc.index[x]: a[trunc.index[x]]} if a.get(trunc.index[x]) else {}
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

    Every entry stays rational, so vectors are scaled to have integral
    entries rather than unit length.  A coordinate -> vectors index lets
    orthogonality checks and projections touch only vectors that share
    a coordinate.
    """

    n: int
    vectors: tuple  # tuple of sparse dicts {coordinate: Fraction}
    _by_coord: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_coord: dict = {}
        for j, v in enumerate(self.vectors):
            if not any(v.values()):
                raise InvalidSpec("zero vector in basis")
            for c in v:
                if c not in range(self.n):
                    raise InvalidSpec(f"coordinate {c!r} outside 0..{self.n - 1}")
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
        """Orthogonal projection of w onto the subspace."""
        out: dict = {}
        for j in self._sharing(w):
            b = self.vectors[j]
            coeff = _dot(b, w) / _dot(b, b)
            for c, x in b.items():
                out[c] = out.get(c, F0) + coeff * x
        return {c: x for c, x in out.items() if x}

    def contains(self, w: dict) -> bool:
        return self.project(w) == {c: x for c, x in w.items() if x}


def make_subspace(n: int, vectors: list) -> SubspaceBasis:
    """Orthogonalize dense vectors into sparse ones with coprime integer entries."""
    out = []
    for v in linalg.gram_schmidt_orthogonal(vectors):
        den = lcm(*(x.denominator for x in v))
        g = gcd(*(int(x * den) for x in v))
        out.append({c: Fraction(int(x * den), g) for c, x in enumerate(v) if x})
    return SubspaceBasis(n=n, vectors=tuple(out))


def subspace_from_invariant_set(trunc: Truncation, states) -> SubspaceBasis:
    """H_K = span{e_x : x in K} for an invariant K inside the window.

    Invariance is required relative to the window: images and preimages
    of members that stay in the window must stay in K.
    """
    k_set = set(states)
    win = set(trunc.states)
    if not k_set <= win:
        raise InvalidSpec("K must lie inside the window")
    for x in sorted(k_set, key=repr):
        y = trunc.sys.apply(x)
        if y in win and y not in k_set:
            raise InvalidSpec(f"K is not forward invariant: f({x!r}) = {y!r}")
        for p, _ in trunc.sys.preimages(x):
            if p in win and p not in k_set:
                raise InvalidSpec(f"K is not preimage closed: {p!r} -> {x!r}")
    return SubspaceBasis(
        n=trunc.n,
        vectors=tuple({trunc.index[x]: F1} for x in trunc.states if x in k_set),
    )


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
    allowed = {trunc.index[x] for x in trunc.interior()} if interior_only else range(trunc.n)

    for bi, v in enumerate(basis.vectors):
        for i in range(1, trunc.k + 1):
            for adjoint, tag in ((False, "T"), (True, "T*")):
                # both are sparse without zero entries: compare them key by key
                w = apply_branch(trunc, i, v, adjoint=adjoint)
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
    nonabelian_witness: tuple | None  # pair of basis indices that fail to commute
    basis: tuple  # entry classes: frozensets of (row, col) positions
    blocks: tuple  # SubspaceBasis refinement into reducing subspaces
    block_scalar: tuple  # per block: True iff all commutant elements act scalar
    lattice_size: int | None  # 2**len(blocks) when every block is certified

    @property
    def lattice_reason(self) -> str | None:
        """Why ``lattice_size`` is None; None when the lattice is certified."""
        if not self.abelian:
            return "nonabelian"
        uncertified = [i for i, scalar in enumerate(self.block_scalar) if not scalar]
        return f"uncertified blocks {uncertified}" if uncertified else None


def _entry_classes(trunc: Truncation) -> list:
    """Classes of matrix entries tied by the commutant equations.

    Entry (r, c) is node r*n + c; node n*n is a zero sink, and a class
    joined to it is forced to vanish.
    """
    n = trunc.n
    zero = n * n
    uf = _UnionFind(zero + 1)

    def pos(r, c):
        return r * n + c

    for b in range(trunc.k):
        fwd = trunc.maps[b]
        inv = trunc.inverse_maps[b]
        for x in range(n):
            fx = fwd.get(x)
            ix = inv.get(x)
            for w in range(n):
                iw = inv.get(w)
                # A M = M A entry (w, x)
                if fx is not None and iw is not None:
                    uf.union(pos(w, fx), pos(iw, x))
                elif fx is not None:
                    uf.union(pos(w, fx), zero)
                elif iw is not None:
                    uf.union(pos(iw, x), zero)
                # A M^T = M^T A entry (w, x); M^T e_x = e_{inv(x)}
                fw = fwd.get(w)
                if ix is not None and fw is not None:
                    uf.union(pos(w, ix), pos(fw, x))
                elif ix is not None:
                    uf.union(pos(w, ix), zero)
                elif fw is not None:
                    uf.union(pos(fw, x), zero)
    zero_root = uf.find(zero)
    return [
        frozenset(divmod(p, n) for p in g)
        for g in uf.groups()
        if uf.find(g[0]) != zero_root
    ]


def _products_commute(n: int, ca: frozenset, cb: frozenset) -> bool:
    by_row_b: dict = {}
    for r, c in cb:
        by_row_b.setdefault(r, []).append(c)
    by_row_a: dict = {}
    for r, c in ca:
        by_row_a.setdefault(r, []).append(c)

    def product(left_rows, right_rows):
        out: dict = {}
        for r, mids in left_rows.items():
            for v in mids:
                for c in right_rows.get(v, ()):
                    out[(r, c)] = out.get((r, c), 0) + 1
        return out

    return product(by_row_a, by_row_b) == product(by_row_b, by_row_a)


def commutant_projections(trunc: Truncation) -> CommutantReport:
    """Exact commutant of {M_i, M_i^T} and its reducing-subspace blocks.

    Requires an escape-free truncation (otherwise the M_i are not the
    honest operators of a closed system and the commutant would mix
    truncation artifacts into the answer), of at most
    MAX_COMMUTANT_ENTRIES matrix entries: the classes below start from
    an n^2 union-find.  A commutant of more than MAX_COMMUTANT_DIMENSION
    classes is refused before its classes are multiplied pairwise.

    The entry classes give the commutant basis directly.  A non-abelian
    commutant has equivalent sub-representations and therefore
    infinitely many reducing subspaces; the failing basis pair is
    reported instead of a lattice.

    An abelian commutant contains the coordinate projection of every
    total-orbit component and commutes with it, so each entry class
    lies inside one component's diagonal block, and each component's
    projection is a sum of diagonal classes.  A diagonal class is an
    invariant set, so it is the whole component's diagonal.  The split
    therefore runs component by component:

    * a component whose classes are all diagonal has its identity as its
      only class: span{e_x : x in component} is one block on which every
      commutant element is a scalar, and no linear algebra is needed
      (this is the injective-coding case);
    * any other component is split into joint rational spectral blocks
      of its basis matrices, restricted to the component, plus two
      deterministic sampled combinations that separate blocks whose
      basis spectra are accidentally aligned.

    Every block is a reducing subspace.  A block is certified minimal
    (``block_scalar``) when every commutant element acts on it as a
    scalar, and ``lattice_size`` is 2**len(blocks) only when every block
    is certified; otherwise it is None and ``lattice_reason`` says why.
    """
    if trunc.escape_count:
        raise NotClosedSystem(
            f"window has {trunc.escape_count} escaping states; "
            "the commutant needs a closed truncation"
        )
    n = trunc.n
    if n * n > MAX_COMMUTANT_ENTRIES:
        raise InvalidSpec(
            f"truncation holds {n} states, {n * n} matrix entries; the "
            f"commutant ties at most {MAX_COMMUTANT_ENTRIES}"
        )
    classes = _entry_classes(trunc)
    dim = len(classes)
    if dim > MAX_COMMUTANT_DIMENSION:
        raise InvalidSpec(f"commutant dimension {dim} exceeds "
                          f"MAX_COMMUTANT_DIMENSION = {MAX_COMMUTANT_DIMENSION}")
    witness = None
    for i in range(dim):
        for j in range(i + 1, dim):
            if not _products_commute(n, classes[i], classes[j]):
                witness = (i, j)
                break
        if witness:
            break
    if witness is not None:
        return CommutantReport(
            dimension=dim,
            abelian=False,
            nonabelian_witness=witness,
            basis=tuple(classes),
            blocks=(),
            block_scalar=(),
            lattice_size=None,
        )

    # abelian: every class lies inside one component's diagonal block
    components = _components(trunc)
    comp_of = {c: t for t, comp in enumerate(components) for c in comp}
    members: list = [[] for _ in components]
    for t, cls in enumerate(classes):
        members[comp_of[min(cls)[0]]].append(t)
    subspaces = []
    scalar_flags = []
    for comp, ts in zip(components, members):
        if len(ts) == 1:
            # the component's identity is its only class
            subspaces.append(SubspaceBasis(n=n, vectors=tuple({c: F1} for c in comp)))
            scalar_flags.append(True)
            continue
        for basis, scalar in _spectral_blocks(comp, [(t, classes[t]) for t in ts]):
            # from the component's coordinates to the whole space
            vectors = ({comp[j]: x for j, x in v.items()} for v in basis.vectors)
            subspaces.append(SubspaceBasis(n=n, vectors=tuple(vectors)))
            scalar_flags.append(scalar)
    order = sorted(range(len(subspaces)), key=lambda t: _block_key(subspaces[t]))
    subspaces = [subspaces[t] for t in order]
    scalar_flags = [scalar_flags[t] for t in order]
    return CommutantReport(
        dimension=dim,
        abelian=True,
        nonabelian_witness=None,
        basis=tuple(classes),
        blocks=tuple(subspaces),
        block_scalar=tuple(scalar_flags),
        lattice_size=2 ** len(subspaces) if all(scalar_flags) else None,
    )


def _components(trunc: Truncation) -> list:
    """Total-orbit components of a closed truncation: sorted coordinates."""
    uf = _UnionFind(trunc.n)
    for fwd in trunc.maps:
        for c, r in fwd.items():
            uf.union(c, r)
    return uf.groups()


def _spectral_blocks(comp: list, indexed_classes: list) -> list:
    """(basis, scalar) per joint rational spectral block of one component.

    ``indexed_classes`` holds (global class index, class) pairs; the
    sampled combinations weight each class by its global index, so the
    split matches the one on the whole space.  Every matrix is an
    integer m x m matrix on the component's m coordinates.
    """
    m = len(comp)
    local = {c: j for j, c in enumerate(comp)}
    mats = []
    for _, cls in indexed_classes:
        mat = [[0] * m for _ in range(m)]
        for r, c in cls:
            mat[local[r]][local[c]] = 1
        mats.append(mat)
    extras = []
    for seed in (1, 2):
        coeffs = [((seed * 7 + 3 * t) % 11) + 1 for t, _ in indexed_classes]
        extras.append(
            [
                [sum(w * mat[r][c] for w, mat in zip(coeffs, mats)) for c in range(m)]
                for r in range(m)
            ]
        )

    blocks = [linalg.identity(m, 1)]
    for e in mats + extras:
        if all(len(block) == 1 for block in blocks):
            break
        powers = [
            linalg.mat_pow([[x - lam if r == c else x for c, x in enumerate(row)]
                            for r, row in enumerate(e)], m)
            for lam in linalg.rational_eigenvalues(e)
        ]
        if not powers:
            continue
        rest = powers[0]
        for power in powers[1:]:
            rest = linalg.mat_mul(power, rest)
        blocks = [
            piece
            for block in blocks
            for piece in ([block] if len(block) == 1 else _split_block(powers, rest, block))
        ]

    out = []
    for block in blocks:
        basis = make_subspace(m, [list(v) for v in block])
        out.append((basis, all(_acts_as_scalar(mat, basis) for mat in mats)))
    return out


def _block_key(basis: SubspaceBasis):
    supports = sorted(min(v) for v in basis.vectors)
    return (supports[0], -basis.dimension, supports)


def _split_block(powers: list, rest: list, block: list) -> list:
    """Split span(block) into rational generalized eigenspaces of e.

    ``powers`` holds (e - lam)^m for each rational eigenvalue lam of the
    m x m matrix e, and ``rest`` their product, which is invertible off
    the rational part; the block must be e-invariant.
    """
    cols = linalg.transpose(block)  # m x d
    pieces = []
    for power in powers:
        null = linalg.nullspace(linalg.mat_mul(power, cols))
        if null:
            pieces.append(
                [[sum(x * v[r] for x, v in zip(coeff, block) if x) for r in range(len(cols))]
                 for coeff in null]
            )
    if not pieces:
        return [block]
    remainder = linalg.gram_schmidt_orthogonal([linalg.mat_vec(rest, list(v)) for v in block])
    if remainder:
        pieces.append(remainder)
    if sum(len(p) for p in pieces) != len(block):
        raise AssertionError("spectral split lost dimensions")
    return pieces


def _acts_as_scalar(m: list, basis: SubspaceBasis) -> bool:
    first = None
    for v in basis.vectors:
        w = {r: x for r, row in enumerate(m) if (x := sum(row[c] * y for c, y in v.items()))}
        lam = _dot(w, v) / _dot(v, v)
        if first is None:
            first = lam
        if lam != first or w != {c: lam * y for c, y in v.items() if lam}:
            return False
    return True


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
    its cycles: the cycle indicators form an orthogonal basis.  They are
    listed by largest coordinate, the free column elimination of
    M_I - Id would give each cycle.
    """
    word = check_word(word, trunc.k)
    image = _chase(trunc, word)
    cycles, seen = [], set()
    for c in image:
        path, cur = [], c
        while cur in image and cur not in seen:
            seen.add(cur)
            path.append(cur)
            cur = image[cur]
        if path and cur == c:
            cycles.append(sorted(path))
    cycles.sort(key=max)
    basis = SubspaceBasis(n=trunc.n, vectors=tuple(dict.fromkeys(c, F1) for c in cycles))
    return FixedVectorsReport(word=word, basis=basis, dimension=basis.dimension)
