"""Branch-partitioned dynamical systems and their truncated operator algebras."""

from .errors import (
    BranchDynError,
    DepthExhausted,
    DomainMismatch,
    IdentityComposition,
    InvalidSpec,
    NonInjectiveBranch,
    NotACycle,
    NotAffineFamily,
    NotClosedSystem,
    OutOfDomain,
    PreconditionUnmet,
    WindowMismatch,
    WindowTooSmall,
)
from .systems import (
    AlphaBeta,
    DynamicalSystem,
    EventuallyPeriodic,
    FiniteTable,
    IntWindow,
    QxPlusD,
    SetWindow,
    SymbolicShift,
    collatz,
    make_system,
    mersenne,
    spec_from_json,
    spec_to_json,
)
from .orbits import (
    canonical_cycle,
    invariant_closure,
    minimality_probe,
    orbit_iterate,
    total_orbit,
)
from .words import (
    AffineMap,
    check_separating,
    check_uniqueness,
    compose_affine,
    cycle_word_aperiodicity,
    enumerate_cycles,
    fixed_point_of_word,
    is_aperiodic,
    lyndon_words,
    verify_unifix,
)
from .coding import (
    ResidueTower,
    check_alphabeta_hypotheses,
    coding_prefix,
    exact_coding,
    tower_apply,
    tower_from_state,
    verify_recovery_lemma,
    verify_tuc_window,
)
# no module imports linalg; the benchmark's tracer reads it off the package
from . import linalg
from .operators import (
    SubspaceBasis,
    Truncation,
    build_truncation,
    commutant_projections,
    coordinate_subspace,
    fixed_vectors_of_word,
    is_reducing,
    projection_P,
    verify_pm_limit,
)
from .morphisms import (
    Morphism,
    check_homomorphism,
    compose,
    conjugate_unitary,
    identity,
    induced_isometry,
    is_isomorphism,
)

__version__ = "0.1.0"
