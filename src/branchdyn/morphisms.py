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

Both identities are checked entry by entry, restricted to interior
coordinates where the windows force escape artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coding import coding_prefix, exact_coding, verify_tuc_window
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
    is evidence, not a verdict about the full spaces.
    """
    exact = (
        window is None
        and isinstance(phi.source.spec, FiniteTable)
        and isinstance(phi.target.spec, FiniteTable)
    )
    if exact:
        win = None  # the full state set
        src = phi.source.states()
        tgt = set(phi.target.states())
    else:
        if window is None:
            raise InvalidSpec("infinite systems need a window")
        win = as_window(phi.source, window)
        src = win.materialize()
        tgt = {phi(x) for x in src}
    hom = check_homomorphism(phi, win)
    image = {}
    injective = True
    witness = None
    for x in src:
        y = phi(x)
        if y in image:
            injective = False
            witness = (image[y], x, y)
            break
        image[y] = x
    surjective = set(image) == tgt
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
    On an infinite window the shift equation is checked at prefix level
    and reported as window evidence.
    """
    win = as_window(sys, window)
    tuc = verify_tuc_window(sys, win, cap)
    if not tuc.passed:
        raise PreconditionUnmet(
            f"coding not injective on the window: {len(tuc.undistinguished)} "
            "groups undistinguished"
        )
    states = win.materialize()
    finite_closed = (
        isinstance(sys.spec, FiniteTable) and set(states) == set(sys.states())
    )
    if finite_closed:
        n = len(sys.states())
        phi = Morphism(
            source=sys, target=symbolic_model(sys), rule=CodingRule(cap=n + 1)
        )
        hom = check_homomorphism(phi, win)
        codes = [phi(x) for x in states]
        injective = len(set(codes)) == len(codes)
        return TucIsoReport(
            window=win.describe(),
            passed=hom.passed and injective,
            exact=True,
            tuc_passed=True,
            intertwined=hom.passed,
            injective=injective,
            detail="coding map verified as an isomorphism onto its image",
        )
    length = min(cap, 64)
    for x in states:
        a = coding_prefix(sys, x, length + 1).symbols
        b = coding_prefix(sys, sys.apply(x), length).symbols
        if a[1:] != b:
            return TucIsoReport(
                window=win.describe(),
                passed=False,
                exact=False,
                tuc_passed=True,
                intertwined=False,
                injective=True,
                detail=f"shift equation fails at {x!r}",
            )
    return TucIsoReport(
        window=win.describe(),
        passed=True,
        exact=False,
        tuc_passed=True,
        intertwined=True,
        injective=True,
        detail="window evidence: coding injective and shift-intertwined",
    )


# ---------------------------------------------------------------------------
# operator transport


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
    a_states = trunc_a.states
    image = {}
    for x in a_states:
        y = phi(x)
        if y in image:
            raise WindowMismatch(f"phi identifies {image[y]!r} and {x!r}")
        image[y] = x
    if set(image) != set(trunc_b.states):
        raise WindowMismatch("phi(window A) is not window B")
    u = {trunc_a.index[x]: trunc_b.index[phi(x)] for x in a_states}
    interior_a = {trunc_a.index[x] for x in trunc_a.interior()}
    per_branch = []
    interior_ok = True
    witness = None
    for i in range(1, trunc_a.k + 1):
        transported = {
            u[c]: u[r] for c, r in trunc_a.maps[i - 1].items()
        }
        actual = trunc_b.maps[i - 1]
        ok = transported == actual
        per_branch.append(ok)
        if not ok:
            cols = set(transported) | set(actual)
            for cb in sorted(cols):
                if transported.get(cb) != actual.get(cb):
                    xa = image[trunc_b.states[cb]]
                    if trunc_a.index[xa] in interior_a:
                        interior_ok = False
                    if witness is None:
                        witness = (i, trunc_b.states[cb])
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
    image = {}
    for x in a_states:
        y = phi(x)
        if y in image:
            raise WindowMismatch(f"phi identifies {image[y]!r} and {x!r}")
        if y not in trunc_b.index:
            raise WindowMismatch(f"phi({x!r}) = {y!r} is outside window B")
        image[y] = x
    orbit_status = "exact"
    done = set()
    win_a, win_b = SetWindow(a_states), SetWindow(trunc_b.states)
    for x in a_states:
        if x in done:
            continue
        oa = invariant_closure(phi.source, [x], win_a)
        ob = invariant_closure(phi.target, [phi(x)], win_b)
        done |= oa.members
        mapped = {phi(z) for z in oa.members}
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
    v = {trunc_a.index[x]: trunc_b.index[phi(x)] for x in a_states}
    vinv = {r: c for c, r in v.items()}
    isometry_identity = len(vinv) == trunc_a.n
    interior_a = {trunc_a.index[x] for x in trunc_a.interior()}
    per_branch = []
    witness = None
    for i in range(1, trunc_a.k + 1):
        ok = True
        for ca in range(trunc_a.n):
            if ca not in interior_a:
                continue
            composite = vinv.get(trunc_b.maps[i - 1].get(v[ca], -1))
            direct = trunc_a.maps[i - 1].get(ca)
            if composite != direct:
                ok = False
                if witness is None:
                    witness = (i, trunc_a.states[ca])
        per_branch.append(ok)
    return IsometryReport(
        passed=isometry_identity and all(per_branch),
        isometry_identity=isometry_identity,
        per_branch_interior=tuple(per_branch),
        orbit_condition=orbit_status,
        witness=witness,
    )
