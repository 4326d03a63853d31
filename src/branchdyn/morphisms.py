"""Branch-preserving maps between systems and the operators they induce.

A morphism phi: (X, f) -> (Y, g) sends each branch set X_i into Y_i
and intertwines the dynamics, phi(f(x)) = g(phi(x)).  Both systems
must use the same branch count k; a map between partitions of
different sizes cannot preserve branch indices.

Because a morphism preserves branches and intertwines, the coding of
phi(x) *is* the coding of x; battery check 11 compares the two with
``exact_coding``.

Two transport results are verified at the truncation level:

* an isomorphism phi with phi(window A) = window B induces a
  permutation matrix U with U M_i U^T = N_i;
* an injective morphism whose image is a union of total orbits induces
  an isometry V (orthonormal columns) with V^T N_i V = M_i.

The isomorphism and transport checks tabulate phi once on their window
(``_tabulate``) and read every verdict from that table;
``check_homomorphism`` keeps no table.  Both identities come from one kernel,
the columns where V^T N_i V and M_i differ: for a bijection compression
is conjugation, so the unitary check uses every column and the isometry
check its interior ones, where the windows force no escape artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coding import exact_coding
from .errors import (
    DomainMismatch,
    InvalidSpec,
    OutOfDomain,
    PreconditionUnmet,
    WindowMismatch,
)
from .orbits import invariant_closure
from .systems import DynamicalSystem, SetWindow, _state_order, as_window
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
    if phi.source.is_finite:
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


def _violations(phi: Morphism, states, image_of) -> tuple:
    """(checked, violations) of branch preservation and intertwining,
    state by state in order, up to VIOLATION_LIMIT violations; phi's
    values are read through ``image_of``."""
    source, target = phi.source, phi.target
    violations = []
    checked = 0
    for x in states:
        checked += 1
        try:
            y = image_of(x)
            if not target.contains(y):
                violations.append((x, "image outside target"))
            elif source.branch_of(x) != target.branch_of(y):
                violations.append((x, "branch not preserved"))
            elif image_of(source.apply(x)) != target.apply(y):
                violations.append((x, "does not intertwine f and g"))
        except OutOfDomain as exc:
            violations.append((x, f"domain error: {exc}"))
        if len(violations) >= VIOLATION_LIMIT:
            break
    return checked, tuple(violations)


def check_homomorphism(phi: Morphism, window) -> HomReport:
    """Branch preservation and intertwining, state by state on a window.

    phi is evaluated afresh at x and f(x), so no table of it is kept.
    """
    win = as_window(phi.source, window)
    checked, violations = _violations(phi, win.materialize(), phi)
    return HomReport(
        window=win.describe(),
        checked=checked,
        passed=not violations,
        violations=violations,
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
    surjective: bool | None  # onto the target; None on a window, not measured
    witness: object


def is_isomorphism(phi: Morphism, window=None) -> IsoReport:
    """Bijective homomorphism test.

    With finite source and target and no window, the verdict is exact:
    surjective means every target state is hit, and the inverse of a
    bijective homomorphism is one as well.  Otherwise the homomorphism
    and injectivity are checked on the window (all states of a finite
    source when none is given) and the result is evidence, not a verdict
    about the full spaces; surjectivity is not measured there.  phi is
    evaluated once per state: the homomorphism check reads the table
    and evaluates phi only at images f(x) outside it.
    """
    if window is None and not phi.source.is_finite:
        raise InvalidSpec("infinite systems need a window")
    exact = window is None and phi.target.is_finite
    states = as_window(phi.source, window).materialize()
    table, image, _ = _tabulate(phi, states)
    _, violations = _violations(phi, states, lambda x: table[x] if x in table else phi(x))
    injective = len(image) == len(table)
    witness = None if injective else next(  # the first collision
        (image[y], x, y) for x, y in table.items() if image[y] != x)
    surjective = None
    if exact:
        missed = [y for y in phi.target.states() if y not in image]
        surjective = not missed
        if witness is None and missed:
            witness = _state_order(missed)[:3]
    if violations and witness is None:
        witness = violations[:1]
    return IsoReport(
        passed=not violations and injective and surjective is not False,
        exact=exact,
        homomorphism=not violations,
        injective=injective,
        surjective=surjective,
        witness=witness,
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
    interior_a = trunc_a.interior()
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
    per_branch_interior: tuple  # bool per branch on interior columns
    orbit_condition: str  # "exact", "window-limited", "failed"
    witness: object


def induced_isometry(
    phi: Morphism,
    trunc_a: Truncation,
    trunc_b: Truncation,
) -> IsometryReport:
    """V^T N_i V = M_i for the isometry V e_x = e_{phi(x)}.

    Needs phi injective into window B, which makes V^T V = Id (anything
    else raises WindowMismatch), and, for the compression to be
    exact rather than an inequality, the image must be a union of total
    orbits: phi(Orb(x; f)) = Orb(phi(x); g).  The orbit condition is
    checked by comparing closure computations on both windows; it is
    decisive when neither closure touches its window boundary, and
    reported as window-limited otherwise.  A decisive failure fails the
    report, with x and up to four states of Orb(phi(x)) - phi(Orb(x))
    ("unreached") and of the reverse difference ("outside", reachable
    when phi is no homomorphism) as its witness.
    """
    a_states = trunc_a.states
    table, _, fault = _tabulate(phi, a_states, within=trunc_b.index)
    if fault:
        raise fault
    orbit_status = "exact"
    orbit_witness = None
    done = set()
    win_a, win_b = SetWindow(a_states), SetWindow(trunc_b.states)
    for x in a_states:
        if x in done:
            continue
        oa = invariant_closure(phi.source, [x], win_a)
        ob = invariant_closure(phi.target, [table[x]], win_b)
        done |= oa.members
        mapped = {table[z] for z in oa.members}
        if oa.frontier or ob.frontier:
            # closures touched the window boundary: inconclusive
            orbit_status = "window-limited"
        elif mapped != ob.members:
            orbit_status = "failed"
            orbit_witness = {"x": x, "unreached": _state_order(ob.members - mapped)[:4],
                             "outside": _state_order(mapped - ob.members)[:4]}
            break
    v = {trunc_a.index[x]: trunc_b.index[y] for x, y in table.items()}
    interior_a = trunc_a.interior()
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
        passed=all(per_branch) and orbit_witness is None,
        per_branch_interior=tuple(per_branch),
        orbit_condition=orbit_status,
        witness=orbit_witness or witness,
    )
