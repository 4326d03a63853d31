"""Branch-preserving maps between systems and the operators they induce.

A morphism phi: (X, f) -> (Y, g) sends each branch set X_i into Y_i
and intertwines the dynamics, phi(f(x)) = g(phi(x)).  Both systems
must use the same branch count k; a map between partitions of
different sizes cannot preserve branch indices.

Because a morphism preserves branches and intertwines, the coding of
phi(x) *is* the coding of x; the induced map between symbolic models
is the identity on sequences (an inclusion of coding images).  That
makes the symbolic-model construction a functor in an executable
sense: identities map to identities and composition is preserved
literally.

Two transport results are verified at the truncation level:

* an isomorphism phi with phi(window A) = window B induces a
  permutation matrix U with U M_i U^T = N_i;
* an injective morphism whose image is a union of total orbits induces
  an isometry V (orthonormal columns) with V^T N_i V = M_i.

Each check tabulates phi once on its window (``_tabulate``) and reads
every verdict from that table.  Both identities come from one kernel,
the columns where V^T N_i V and M_i differ: for a bijection compression
is conjugation, so the unitary check uses every column and the isometry
check its interior ones, where the windows force no escape artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coding import exact_coding, verify_tuc_window
from .errors import (
    DomainMismatch,
    InvalidSpec,
    OrbitConditionFailed,
    OutOfDomain,
    PreconditionUnmet,
    WindowMismatch,
)
from .orbits import invariant_closure
from .systems import (
    DynamicalSystem,
    FiniteTable,
    SetWindow,
    SymbolicShift,
    as_window,
    make_system,
)
from .operators import Truncation


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class TableRule:
    mapping: dict

    def apply(self, m: "Morphism", x):
        try:
            return self.mapping[x]
        except KeyError:
            raise OutOfDomain(f"{x!r} not in the morphism table") from None


@dataclass(frozen=True)
class AffineRule:
    u: int
    v: int

    def apply(self, m: "Morphism", x):
        y = self.u * x + self.v
        if not m.target.contains(y):
            raise OutOfDomain(f"phi({x}) = {y} leaves the target state space")
        return y


@dataclass(frozen=True)
class CodingRule:
    """x maps to its full coding sequence; needs the orbit to cycle."""

    cap: int

    def apply(self, m: "Morphism", x):
        seq = exact_coding(m.source, x, self.cap)
        if seq is None:
            raise PreconditionUnmet(
                f"orbit of {x!r} does not cycle within {self.cap} steps"
            )
        return seq


@dataclass(frozen=True)
class IdentityRule:
    def apply(self, m: "Morphism", x):
        return x


@dataclass(frozen=True)
class ComposedRule:
    first: "Morphism"
    second: "Morphism"

    def apply(self, m: "Morphism", x):
        return self.second(self.first(x))


@dataclass(frozen=True)
class Morphism:
    source: DynamicalSystem
    target: DynamicalSystem
    rule: object

    def __post_init__(self):
        if self.source.k != self.target.k:
            raise InvalidSpec(
                f"branch counts differ (source k = {self.source.k}, "
                f"target k = {self.target.k}); branch indices cannot be preserved"
            )

    def __call__(self, x):
        if not self.source.contains(x):
            raise OutOfDomain(f"{x!r} is not a source state")
        return self.rule.apply(self, x)


def identity(sys: DynamicalSystem) -> Morphism:
    return Morphism(source=sys, target=sys, rule=IdentityRule())


def compose(psi: Morphism, phi: Morphism) -> Morphism:
    """psi after phi; fails unless phi's target is psi's source."""
    if phi.target != psi.source:
        raise DomainMismatch("phi's target is not psi's source")
    if isinstance(phi.rule, IdentityRule):
        return Morphism(source=phi.source, target=psi.target, rule=psi.rule)
    if isinstance(psi.rule, IdentityRule):
        return Morphism(source=phi.source, target=psi.target, rule=phi.rule)
    if isinstance(phi.source.spec, FiniteTable):
        mapping = {x: psi(phi(x)) for x in phi.source.states()}
        return Morphism(source=phi.source, target=psi.target, rule=TableRule(mapping))
    return Morphism(
        source=phi.source, target=psi.target, rule=ComposedRule(phi, psi)
    )


# ---------------------------------------------------------------------------
# verification

VIOLATION_LIMIT = 10  # check_homomorphism stops after this many violations


@dataclass(frozen=True)
class HomReport:
    window: str
    checked: int
    passed: bool
    violations: tuple  # (state, reason) up to a small limit


def check_homomorphism(phi: Morphism, window) -> HomReport:
    """Branch preservation and intertwining, state by state on a window."""
    win = as_window(phi.source, window)
    violations = []
    checked = 0
    for x in win.materialize():
        checked += 1
        try:
            y = phi(x)
            if not phi.target.contains(y):
                violations.append((x, "image outside target"))
            elif phi.source.branch_of(x) != phi.target.branch_of(y):
                violations.append((x, "branch not preserved"))
            elif phi(phi.source.apply(x)) != phi.target.apply(y):
                violations.append((x, "does not intertwine f and g"))
        except OutOfDomain as exc:
            violations.append((x, f"domain error: {exc}"))
        if len(violations) >= VIOLATION_LIMIT:
            break
    return HomReport(
        window=win.describe(),
        checked=checked,
        passed=not violations,
        violations=tuple(violations),
    )


def _tabulate(phi: Morphism, states, within=None) -> tuple:
    """phi on the states, walked once in window order.

    Returns (table, image, fault): ``table`` maps each state where phi
    is defined to its image, ``image`` maps each image to the first state
    sent there, and ``fault`` is the first failure, ready to raise: the
    OutOfDomain phi raised, or a WindowMismatch when phi identifies two
    states or, with ``within`` given, sends one outside it.  Any other
    error propagates at once.
    """
    table, image, fault = {}, {}, None
    for x in states:
        try:
            y = table[x] = phi(x)
        except OutOfDomain as exc:
            fault = fault or exc
            continue
        if y in image:
            fault = fault or WindowMismatch(f"phi identifies {image[y]!r} and {x!r}")
        else:
            image[y] = x
            if within is not None and y not in within:
                fault = fault or WindowMismatch(f"phi({x!r}) = {y!r} is outside window B")
    return table, image, fault


@dataclass(frozen=True)
class IsoReport:
    passed: bool
    exact: bool  # True when decided on full finite state sets
    homomorphism: bool
    injective: bool
    surjective: bool
    witness: object


def is_isomorphism(phi: Morphism, window=None) -> IsoReport:
    """Bijective homomorphism test.

    With finite source and target and no window, the verdict is exact
    and the inverse is verified to be a homomorphism as well (it always
    is: branch membership transports through the bijection).  With a
    window the same facts are checked on the window only and the result
    is evidence, not a verdict about the full spaces.  Injectivity and
    surjectivity are judged over every state where phi is defined; a
    state where it is not fails the homomorphism check.
    """
    exact = (
        window is None
        and isinstance(phi.source.spec, FiniteTable)
        and isinstance(phi.target.spec, FiniteTable)
    )
    if not exact and window is None:
        raise InvalidSpec("infinite systems need a window")
    win = None if exact else as_window(phi.source, window)  # None: all states
    src = phi.source.states() if exact else win.materialize()
    table, image, _ = _tabulate(phi, src)
    tgt = set(phi.target.states()) if exact else set(image)
    hom = check_homomorphism(phi, win)
    injective = len(image) == len(table)
    surjective = set(image) == tgt
    witness = None if injective else next(  # the first collision
        (image[y], x, y) for x, y in table.items() if image[y] != x)
    if not surjective and witness is None:
        witness = tuple(sorted(tgt - set(image), key=repr))[:3]
    passed = hom.passed and injective and surjective
    if not hom.passed and witness is None:
        witness = hom.violations[:1]
    if exact and passed:
        inverse = Morphism(
            source=phi.target, target=phi.source, rule=TableRule(image)
        )
        back = check_homomorphism(inverse, None)
        if not back.passed:
            passed = False
            witness = ("inverse fails", back.violations[:1])
    return IsoReport(
        passed=passed,
        exact=exact,
        homomorphism=hom.passed,
        injective=injective,
        surjective=surjective,
        witness=witness,
    )


def symbolic_model(sys: DynamicalSystem) -> DynamicalSystem:
    """The shift system the codings of ``sys`` live in."""
    return make_system(SymbolicShift(sys.k))


def induced_symbolic(phi: Morphism) -> Morphism:
    """The map between symbolic models induced by phi.

    Branch preservation plus intertwining forces coding(phi(x)) ==
    coding(x), so the induced map is the identity on sequences.
    """
    return Morphism(
        source=symbolic_model(phi.source),
        target=symbolic_model(phi.target),
        rule=IdentityRule(),
    )


@dataclass(frozen=True)
class TucIsoReport:
    window: str
    passed: bool
    exact: bool  # full finite state set, orbit-closed: genuine conjugacy
    tuc_passed: bool
    intertwined: bool
    injective: bool
    detail: str


def verify_tuc_iso(sys: DynamicalSystem, window, cap: int = 2**10) -> TucIsoReport:
    """Coding as an isomorphism onto the symbolic model.

    Needs injectivity of the coding (totally uniqueness) on the window;
    refuses otherwise.  On a full finite state set the coding map is
    then a verified bijective homomorphism onto its image in the shift.
    On any other window injectivity is reported as window evidence; the
    shift equation needs no check there, since the coding of f(x) is by
    definition the coding of x without its first symbol.
    """
    win = as_window(sys, window)
    tuc = verify_tuc_window(sys, win, cap)
    if not tuc.passed:
        raise PreconditionUnmet(
            f"coding not injective on the window: {len(tuc.undistinguished)} "
            "groups undistinguished"
        )
    states = win.materialize()
    exact = isinstance(sys.spec, FiniteTable) and set(states) == set(sys.states())
    intertwined = injective = True
    detail = "window evidence: coding injective and shift-intertwined"
    if exact:
        n = len(sys.states())
        phi = Morphism(
            source=sys, target=symbolic_model(sys), rule=CodingRule(cap=n + 1)
        )
        intertwined = check_homomorphism(phi, win).passed
        table, image, _ = _tabulate(phi, states)
        injective = len(image) == len(table)
        detail = "coding map verified as an isomorphism onto its image"
    return TucIsoReport(
        window=win.describe(),
        passed=intertwined and injective,
        exact=exact,
        tuc_passed=True,
        intertwined=intertwined,
        injective=injective,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# operator transport


def _mismatched_columns(trunc_a: Truncation, trunc_b: Truncation, v: dict) -> list:
    """Per branch i, the columns c of window A, in order, where
    V^T N_i V e_c != M_i e_c for V e_c = e_{v[c]} (N_i on window B,
    M_i on window A).  For a bijective v this is U M_i U^T != N_i, read
    column by column through U = V."""
    back = {r: c for c, r in v.items()}.get
    out = []
    for i in range(trunc_a.k):
        fwd_a, fwd_b = trunc_a.maps[i].get, trunc_b.maps[i].get
        out.append([c for c, r in v.items() if back(fwd_b(r)) != fwd_a(c)])
    return out


@dataclass(frozen=True)
class ConjugationReport:
    passed: bool
    per_branch: tuple  # bool per branch, full-window equality
    interior_passed: bool
    witness: object


def conjugate_unitary(
    phi: Morphism, trunc_a: Truncation, trunc_b: Truncation
) -> ConjugationReport:
    """U M_i U^T = N_i for the permutation U e_x = e_{phi(x)}.

    Requires phi to map window A bijectively onto window B; the
    conjugation identity is then checked entry by entry.  Mismatches
    confined to non-interior coordinates are separated out, since those
    rows depend on states outside the windows.
    """
    table, image, fault = _tabulate(phi, trunc_a.states)
    if fault:
        raise fault
    if set(image) != set(trunc_b.states):
        raise WindowMismatch("phi(window A) is not window B")
    u = {trunc_a.index[x]: trunc_b.index[y] for x, y in table.items()}
    interior_a = {trunc_a.index[x] for x in trunc_a.interior()}
    bad = _mismatched_columns(trunc_a, trunc_b, u)
    per_branch = [not cols for cols in bad]
    interior_ok = not any(c in interior_a for cols in bad for c in cols)
    witness = next(
        ((i, trunc_b.states[min(u[c] for c in cols)])
         for i, cols in enumerate(bad, 1) if cols),
        None,
    )
    return ConjugationReport(
        passed=all(per_branch),
        per_branch=tuple(per_branch),
        interior_passed=interior_ok,
        witness=witness,
    )


@dataclass(frozen=True)
class IsometryReport:
    passed: bool
    isometry_identity: bool  # V^T V = Id on the source window
    per_branch_interior: tuple  # bool per branch on interior columns
    orbit_condition: str  # "exact", "window-limited"
    witness: object


def induced_isometry(
    phi: Morphism,
    trunc_a: Truncation,
    trunc_b: Truncation,
) -> IsometryReport:
    """V^T N_i V = M_i for the isometry V e_x = e_{phi(x)}.

    Needs phi injective (into window B) and, for the compression to be
    exact rather than an inequality, the image must be a union of total
    orbits: phi(Orb(x; f)) = Orb(phi(x); g).  The orbit condition is
    checked by comparing closure computations on both windows; it is
    decisive when neither closure touches its window boundary, and
    reported as window-limited otherwise.  A verified failure raises
    OrbitConditionFailed.
    """
    a_states = trunc_a.states
    table, image, fault = _tabulate(phi, a_states, within=trunc_b.index)
    if fault:
        raise fault
    orbit_status = "exact"
    done = set()
    win_a, win_b = SetWindow(a_states), SetWindow(trunc_b.states)
    for x in a_states:
        if x in done:
            continue
        oa = invariant_closure(phi.source, [x], win_a)
        ob = invariant_closure(phi.target, [table[x]], win_b)
        done |= oa.members
        mapped = {table[z] for z in oa.members}
        decisive = not oa.frontier and not ob.frontier
        if decisive:
            if mapped != ob.members:
                raise OrbitConditionFailed(
                    f"phi(Orb({x!r})) != Orb(phi({x!r})): "
                    f"{sorted(ob.members - mapped, key=repr)[:4]} unreached"
                )
        else:
            # closures touched the window boundary: inconclusive
            orbit_status = "window-limited"
    v = {trunc_a.index[x]: trunc_b.index[y] for x, y in table.items()}
    isometry_identity = len(image) == trunc_a.n
    interior_a = {trunc_a.index[x] for x in trunc_a.interior()}
    bad = [
        [c for c in cols if c in interior_a]
        for cols in _mismatched_columns(trunc_a, trunc_b, v)
    ]
    per_branch = [not cols for cols in bad]
    witness = next(
        ((i, trunc_a.states[cols[0]]) for i, cols in enumerate(bad, 1) if cols),
        None,
    )
    return IsometryReport(
        passed=isometry_identity and all(per_branch),
        isometry_identity=isometry_identity,
        per_branch_interior=tuple(per_branch),
        orbit_condition=orbit_status,
        witness=witness,
    )
