"""Shared fixtures and brute-force oracles.

Oracles here recompute expected values by a route independent of the
library code under test (window scans, direct folds, graph walks).
"""

import signal
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from branchdyn import linalg, operators, orbits, systems, words
from branchdyn.errors import DepthExhausted, IdentityComposition, InvalidSpec

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def deadline():
    """deadline(seconds) fails the test if it is still running after that
    long, so a hang fails the suite instead of stalling it (SIGALRM)."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        pytest.fail("test exceeded its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def collatz():
    return systems.make_system(systems.collatz())


@pytest.fixture(scope="session")
def five_x_one():
    return systems.make_system(systems.QxPlusD(5, 1))


@pytest.fixture(scope="session")
def swap1():
    # 2-state swap with a single branch: the standing totally-uniqueness
    # counterexample (both states share the constant coding).
    return systems.make_system(
        systems.FiniteTable.make({1: 1, 2: 1}, {1: 2, 2: 1}, k=1)
    )


@pytest.fixture(scope="session")
def swap2():
    # same dynamics, two branches: codings differ at the first symbol.
    return systems.make_system(
        systems.FiniteTable.make({1: 1, 2: 2}, {1: 2, 2: 1}, k=2)
    )


@pytest.fixture(scope="session")
def alphabeta3():
    return systems.make_system(systems.AlphaBeta(3, (2, 4), (1, 5)))


# one affine system of each shape: collatz, another qx+d, and α–β with k = 3
AFFINE_SPECS = {
    "collatz": systems.collatz(),
    "qxd:5,1": systems.QxPlusD(5, 1),
    "alphabeta3": systems.AlphaBeta(3, (2, 4), (1, 5)),
}


def injective_table(draw, n, k):
    """branch and image dicts of a closed table on 1..n whose every branch
    is injective."""
    branch = {x: draw(st.integers(min_value=1, max_value=k)) for x in range(1, n + 1)}
    image = {}
    for b in range(1, k + 1):
        domain = [x for x in range(1, n + 1) if branch[x] == b]
        image.update(zip(domain, draw(st.permutations(range(1, n + 1)))))
    return branch, image


@st.composite
def closed_tables(draw, max_states=12):
    """A closed table on 1..n with injective branches, as (branch, image, k).

    A random base table on m states, then one of: the base itself, a
    random cyclic cover of it (state x + m*s on sheet s of r steps to
    f(x) on sheet s + w(x), w drawn), a union of the base with a cover
    of it (so components repeat), or a cycle whose labels repeat with a
    period.
    """
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=min(6, max_states)))
    branch, image = injective_table(draw, m, k)
    mode = draw(st.sampled_from(["base", "cover", "union", "cycle"]))
    if mode == "cycle":
        labels = draw(st.lists(st.integers(min_value=1, max_value=k), min_size=1, max_size=max_states))
        n = len(labels) * draw(st.integers(min_value=1, max_value=max_states // len(labels)))
        branch = {x: labels[(x - 1) % len(labels)] for x in range(1, n + 1)}
        image = {x: x % n + 1 for x in range(1, n + 1)}
    elif mode != "base":
        copies = max_states // m if mode == "cover" else max_states // m - 1
        if copies >= 1:
            r = draw(st.integers(min_value=1, max_value=copies))
            w = {x: draw(st.integers(min_value=0, max_value=r - 1)) for x in branch}
            cover_branch = {x + m * s: branch[x] for x in branch for s in range(r)}
            cover_image = {x + m * s: image[x] + m * ((s + w[x]) % r) for x in branch for s in range(r)}
            if mode == "cover":
                branch, image = cover_branch, cover_image
            else:
                branch = {**branch, **{x + m: b for x, b in cover_branch.items()}}
                image = {**image, **{x + m: y + m for x, y in cover_image.items()}}
    return branch, image, k


def brute_primitive_period(seq) -> int:
    """The least p dividing len(seq) with seq == seq[:p] * (len(seq) // p),
    trying every p; independent of the KMP failure function."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[:p] * (n // p):
            return p
    raise ValueError("empty sequence")


def brute_preimages(sys, x, bound):
    """Scan every y <= bound for f(y) = x; independent of preimages()."""
    out = []
    for y in range(1, bound + 1):
        if sys.apply(y) == x:
            out.append((y, sys.branch_of(y)))
    return out


def preimage_scan_bound(sys, x):
    # any preimage y satisfies y = k*x (division) or a*y + b = x,
    # so y <= max(k*x, x) always covers the search space
    return sys.k * x + 1


def _fraction_solve(sys, word, a, b):
    """Solve a*x + b = x in Fractions and replay the word from x."""
    if a == 1:
        if b == 0:
            raise IdentityComposition(f"word {word} composes to the identity")
        return None
    x = b / (1 - a)
    if x.denominator != 1 or x < 1:
        return None
    x = int(x)
    return x if words.replay_word(sys, x, word) == x else None


def fraction_compose(sys, word, branches=None):
    """(a, b) of f_I, folding each symbol's exact ``branch_affine`` in
    Fractions; independent of the library's integer fold.  ``branches``,
    one (a_i, b_i) per symbol, replaces the system's own coefficients."""
    if branches is None:
        branches = [sys.branch_affine(i) for i in range(1, sys.k + 1)]
    a, b = Fraction(1), Fraction(0)
    for i in word:
        ai, bi = branches[i - 1]
        a, b = ai * a, ai * b + bi
    return a, b


def fraction_fixed_point(sys, word, branches=None):
    """The replayed positive-integer fixed point of f_I, or None, solved
    as b / (1 - a) over ``fraction_compose``."""
    return _fraction_solve(sys, word, *fraction_compose(sys, word, branches))


def all_words_cycles(sys, max_len):
    """{(cycle, word)} from solving every word of length <= max_len in
    Fractions: each cycle as its canonical rotation, with the branch
    word read off that rotation.  Words share their prefix's fold."""
    branches = [sys.branch_affine(i) for i in range(1, sys.k + 1)]
    found = set()
    stack = [((), Fraction(1), Fraction(0))]
    while stack:
        word, a, b = stack.pop()
        if word:
            x = _fraction_solve(sys, word, a, b)
            if x is not None:
                cyc = orbits.orbit_iterate(sys, x, cap=len(word)).cycle
                found.add((cyc, tuple(sys.branch_of(s) for s in cyc)))
        if len(word) < max_len:
            for i, (ai, bi) in enumerate(branches, 1):
                stack.append((word + (i,), ai * a, ai * b + bi))
    return found


def uniqueness_oracle(sys, max_len, scan_bound, branches=None):
    """The affine ``check_uniqueness`` report, solving every word from
    scratch in Fractions (``fraction_fixed_point``, with ``branches`` if
    given) in ``itertools.product`` order, (length, word), and replaying
    it from every state of 1..scan_bound."""
    violations = []
    fixed_words = 0
    for m in range(1, max_len + 1):
        for word in product(range(1, sys.k + 1), repeat=m):
            scanned = {
                y for y in range(1, scan_bound + 1) if words.replay_word(sys, y, word) == y
            }
            fixed_words += bool(scanned)
            try:
                x = fraction_fixed_point(sys, word, branches)
            except IdentityComposition:
                violations.append((word, ("identity",)))
                continue
            solved = set() if x is None else {x}
            if scanned != {y for y in solved if y <= scan_bound}:
                violations.append((word, tuple(sorted(scanned | solved))))
    return words.UniquenessReport(
        max_len=max_len,
        scan_bound=scan_bound,
        fixed_words=fixed_words,
        passed=not violations,
        violations=tuple(violations),
    )


def finite_uniqueness_oracle(sys, max_len):
    """The finite-table ``check_uniqueness`` report: every word of length
    <= max_len, in (length, word) order, replayed from every state."""
    states = sys.states()
    violations = []
    fixed_words = 0
    for m in range(1, max_len + 1):
        for word in product(range(1, sys.k + 1), repeat=m):
            fixed = [x for x in states if words.replay_word(sys, x, word) == x]
            fixed_words += bool(fixed)
            if len(fixed) > 1:
                violations.append((word, tuple(sorted(fixed))))
    return words.UniquenessReport(
        max_len=max_len,
        scan_bound=None,
        fixed_words=fixed_words,
        passed=not violations,
        violations=tuple(violations),
    )


def orbit_oracle(sys, x, cap):
    """The eager orbit walk: every state kept in order, through the public
    ``apply``.  Returns the fields of ``orbits.OrbitRecord`` as a dict,
    with the trajectory the walk saw."""
    seen = {x: 0}
    cur = x
    for n in range(1, cap + 1):
        cur = sys.apply(cur)
        if cur in seen:
            i = seen[cur]
            traj = tuple(seen)
            cyc = traj[i:]
            j = cyc.index(min(cyc))
            return {"start": x, "trajectory": traj, "entered_cycle": True,
                    "cycle": cyc[j:] + cyc[:j], "entry_index": i, "cap": cap}
        seen[cur] = n
    return {"start": x, "trajectory": tuple(seen), "entered_cycle": False,
            "cycle": (), "entry_index": -1, "cap": cap}


def state_digits(x, k, depth):
    """(x mod k, x mod k^2, ..., x mod k^depth), one power at a time."""
    return tuple(x % k**j for j in range(1, depth + 1))


def digit_tower_apply(sys, digits):
    """One step of f on a tower given as its digit tuple, digit by digit:
    r'_j = (a r_j + b) mod k^j on an affine branch, and r'_j = r_{j+1} / k
    on the division branch, one level shorter; independent of the
    library's single-residue route."""
    k = sys.k
    i = digits[0] % k
    if i != 0:
        a, b = sys.branch_affine_int(i)
        return tuple((a * r + b) % k**j for j, r in enumerate(digits, start=1))
    if len(digits) == 1:
        raise DepthExhausted("division branch on a depth-1 tower")
    return tuple(r // k for r in digits[1:])


def distinguishing_prefix_length(sys, x, y, cap):
    """Least j <= cap with branch(f^(j-1)(x)) != branch(f^(j-1)(y)), by
    walking the pair; the pairwise oracle of ``verify_tuc_window``.

    Positions count from 1 (j = 1 means the states themselves take
    different branches).  None when the codings agree through cap
    symbols.  Requires x != y; equal states never separate.
    """
    if x == y:
        raise InvalidSpec("need two distinct states")
    for j in range(1, cap + 1):
        if sys.branch_of(x) != sys.branch_of(y):
            return j
        x, y = sys.apply(x), sys.apply(y)
    return None


def iso_oracle(source, target, mapping, states=None):
    """(homomorphism, injective, onto) of the table ``mapping`` from one
    finite table system to another, by brute force over both full
    tables; ``states`` limits the first two to a window of the source.

    Homomorphism: at every window state x, phi(x) is a target state on
    x's branch and phi(f(x)) = g(phi(x)), both read from ``mapping``.
    Injective and onto are judged over the states where phi is defined.
    """
    f_branch, f = dict(source.spec.branch), dict(source.spec.image)
    g_branch, g = dict(target.spec.branch), dict(target.spec.image)
    states = list(f) if states is None else list(states)
    hom = all(
        x in mapping and mapping[x] in g and g_branch[mapping[x]] == f_branch[x]
        and f[x] in mapping and mapping[f[x]] == g[mapping[x]]
        for x in states
    )
    images = [mapping[x] for x in states if x in mapping]
    return hom, len(set(images)) == len(images), set(g) <= set(images)


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


def dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def gram_schmidt_orthogonal(vectors):
    """Pairwise-orthogonal spanning set, rational entries, no normalizing.

    Unit lengths would force square roots out of the rationals, so the
    output is orthogonal only; callers track squared norms.
    """
    basis = []
    for v in vectors:
        w = list(map(Fraction, v))
        for b in basis:
            coeff = dot(w, b) / dot(b, b)
            if coeff:
                w = [wi - coeff * bi for wi, bi in zip(w, b)]
        if any(w):
            basis.append(w)
    return basis


def make_subspace(n, vectors):
    """The ``SubspaceBasis`` of dense vectors: orthogonalized, then each
    scaled to sparse coprime integer entries."""
    out = []
    for v in gram_schmidt_orthogonal(vectors):
        den = lcm(*(x.denominator for x in v))
        g = gcd(*(int(x * den) for x in v))
        out.append({c: int(x * den) // g for c, x in enumerate(v) if x})
    return operators.SubspaceBasis(n=n, vectors=tuple(out))


def nullspace(a):
    """A basis of {v : a v = 0}, one vector per free column of ``linalg.rref``."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = linalg.rref(a)
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def branch_matrix(trunc, i):
    """The dense 0/1 matrix M_i of branch i on the truncation's window."""
    m = zeros(trunc.n, trunc.n)
    for c, r in trunc.maps[i - 1].items():
        m[r][c] = Fraction(1)
    return m


def chase_oracle(trunc, word):
    """c -> T_I e_c's coordinate for every coordinate c the word keeps in
    the window: the identity on all n columns, filtered through each
    symbol's column map in turn."""
    out = {c: c for c in range(trunc.n)}
    for i in word:
        fwd = trunc.maps[i - 1]
        out = {c: fwd[r] for c, r in out.items() if r in fwd}
    return out


def invariance_violations(trunc, K):
    """The window states outside K that a member of K reaches in one
    step forward or back: K is invariant relative to the window exactly
    when there is none."""
    out = set()
    for x in K:
        y = trunc.sys.apply(x)
        if y in trunc.index and y not in K:
            out.add(y)
        out |= {p for p, _ in trunc.sys.preimages(x) if p in trunc.index and p not in K}
    return out


def apply_word(trunc, word, vec):
    """T_I vec with the first symbol of the word acting first."""
    cur = dict(vec)
    for i in words.check_word(word, trunc.k):
        cur = operators.apply_branch(trunc, i, cur)
    return cur


def apply_word_adjoint(trunc, word, vec):
    """(T_I)^* vec; adjoints compose in reverse symbol order."""
    cur = dict(vec)
    for i in reversed(words.check_word(word, trunc.k)):
        cur = operators.apply_branch(trunc, i, cur, adjoint=True)
    return cur


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def fraction_char_poly(a):
    """det(xI - A) coefficients [c_0, ..., c_n] by Faddeev-LeVerrier with
    every step in Fractions; independent of the integer kernel."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def integer_eigenvalues(a):
    """Every integer root of det(xI - A) between minus and plus the
    largest absolute row sum, found by evaluating at each one."""
    coeffs = fraction_char_poly(a)
    bound = max((sum(abs(x) for x in row) for row in a), default=0)
    roots = []
    for lam in range(-int(bound), int(bound) + 1):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * lam + c
        if acc == 0:
            roots.append(lam)
    return roots


class _Classes:
    """Union by relabelling over the indices 0..size-1: each index carries
    its class label, and a union moves every member of the smaller class
    to the other's label.  Independent of the library's component walk,
    ``systems._components``."""

    def __init__(self, size):
        self.label = list(range(size))
        self.members = {a: [a] for a in range(size)}

    def find(self, a):
        return self.label[a]

    def union(self, a, b):
        keep, drop = self.label[a], self.label[b]
        if keep == drop:
            return
        if len(self.members[keep]) < len(self.members[drop]):
            keep, drop = drop, keep
        for x in self.members.pop(drop):
            self.label[x] = keep
            self.members[keep].append(x)

    def groups(self):
        """The classes as ascending index lists, ordered by least index."""
        return sorted(sorted(m) for m in self.members.values())


def total_orbit_components(trunc):
    """Total-orbit components of a truncation: sorted coordinate lists,
    by union-find over the branch edges."""
    uf = _Classes(trunc.n)
    for fwd in trunc.maps:
        for c, r in fwd.items():
            uf.union(c, r)
    return uf.groups()


def _entry_classes(trunc):
    """Classes of matrix entries tied by the commutant equations.

    A M_i = M_i A and A M_i^T = M_i^T A are, entry by entry, equalities
    between single entries of A or constraints forcing single entries to
    0: union-find over the n^2 entry positions, with one extra zero sink,
    leaves the indicator matrices of the surviving classes as an exact
    basis of the commutant.  Entry (r, c) is node r*n + c; node n*n is
    the sink.
    """
    n = trunc.n
    zero = n * n
    uf = _Classes(zero + 1)

    def pos(r, c):
        return r * n + c

    for fwd in trunc.maps:
        inv = {r: c for c, r in fwd.items()}
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


def _products_commute(ca, cb):
    """Do the indicator matrices of two entry classes commute?"""

    def product(left, right):
        right_rows = {}
        for r, c in right:
            right_rows.setdefault(r, []).append(c)
        out = {}
        for r, v in left:
            for c in right_rows.get(v, ()):
                out[(r, c)] = out.get((r, c), 0) + 1
        return out

    return product(ca, cb) == product(cb, ca)


def entry_class_commutant(trunc):
    """(dimension, abelian) of the commutant by the entry-class route:
    the number of entry classes, and whether every pair of class
    indicators commutes."""
    classes = _entry_classes(trunc)
    abelian = all(
        _products_commute(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]
    )
    return len(classes), abelian


def bisimilar_pairs(trunc):
    """Pairs of bisimilar coordinates, by naive rounds of refinement: start
    from the labels and split by (class, class of the image, class of the
    preimage per label) until no class splits."""
    label = {c: b for b, fwd in enumerate(trunc.maps) for c in fwd}
    image = {c: r for fwd in trunc.maps for c, r in fwd.items()}
    inverses = [{r: c for c, r in fwd.items()} for fwd in trunc.maps]
    cls = dict(label)
    while True:
        sig = {
            c: (cls[c], cls[image[c]], tuple(cls.get(inv.get(c)) for inv in inverses))
            for c in range(trunc.n)
        }
        ids = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        new = {c: ids[s] for c, s in sig.items()}
        if len(ids) == len(set(cls.values())):
            return {(c, d) for c in range(trunc.n) for d in range(trunc.n) if new[c] == new[d]}
        cls = new


def whole_space_commutant_blocks(trunc):
    """Joint rational spectral blocks of the commutant on the whole space.

    The brute-force route: every entry-class indicator and two sampled
    combinations of them act as n x n matrices, and each one splits every
    block into its rational generalized eigenspaces plus the remainder.
    Returns (abelian, [(basis, scalar), ...]); the blocks are empty when
    ``entry_class_commutant`` finds the commutant not abelian.
    """
    n = trunc.n
    if not entry_class_commutant(trunc)[1]:
        return False, []
    mats = []
    for cls in _entry_classes(trunc):
        m = zeros(n, n)
        for r, c in cls:
            m[r][c] = Fraction(1)
        mats.append(m)
    extras = []
    if len(mats) > 1:
        for seed in (1, 2):
            coeffs = [((seed * 7 + 3 * t) % 11) + 1 for t in range(len(mats))]
            extras.append(
                [[sum(w * m[r][c] for w, m in zip(coeffs, mats)) for c in range(n)] for r in range(n)]
            )
    blocks = [[[Fraction(int(r == c)) for c in range(n)] for r in range(n)]]
    for e in mats + extras:
        eigs = integer_eigenvalues(e)
        new_blocks = []
        for block in blocks:
            new_blocks.extend([block] if len(block) == 1 else _whole_space_split(e, block, eigs))
        blocks = new_blocks
    out = []
    for block in blocks:
        basis = make_subspace(n, block)
        out.append((basis, all(_acts_as_scalar(m, basis) for m in mats)))
    return True, out


def _whole_space_split(e, block, eigs):
    n = len(e)
    pieces = []
    for lam in eigs:
        shifted = [[e[r][c] - (lam if r == c else 0) for c in range(n)] for r in range(n)]
        power = shifted
        for _ in range(n - 1):
            power = linalg.mat_mul(power, shifted)
        reduced = linalg.mat_mul(power, transpose(block))
        null = nullspace(reduced)
        if null:
            pieces.append([[sum(x * v[r] for x, v in zip(coeff, block)) for r in range(n)] for coeff in null])
    if not pieces:
        return [block]
    h = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for lam in eigs:
        shifted = [[e[r][c] - (lam if r == c else 0) for c in range(n)] for r in range(n)]
        for _ in range(n):
            h = linalg.mat_mul(shifted, h)
    rem = gram_schmidt_orthogonal([mat_vec(h, v) for v in block])
    if rem:
        pieces.append(rem)
    assert sum(len(p) for p in pieces) == len(block)
    return pieces


def _acts_as_scalar(m, basis):
    lam = None
    for sparse in basis.vectors:
        v = [sparse.get(c, Fraction(0)) for c in range(len(m))]
        w = mat_vec(m, v)
        ratio = dot(w, v) / dot(v, v)
        if lam is None:
            lam = ratio
        if ratio != lam or any(wi != ratio * vi for wi, vi in zip(w, v)):
            return False
    return True
