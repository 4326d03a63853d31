"""Exception taxonomy shared across the package.

Budget exhaustion during orbit exploration is deliberately *not* an
exception: partial orbit results are useful and are returned with an
``exhausted`` flag instead.
"""


class BranchDynError(Exception):
    """Base class for all package errors."""


class InvalidSpec(BranchDynError):
    """A system, word, tower, or morphism description violates its invariants."""


class NonInjectiveBranch(InvalidSpec):
    """Two states in the same branch share an image."""


class OutOfDomain(BranchDynError):
    """A state lies outside the system's state space."""


class NotAffineFamily(BranchDynError):
    """An operation requiring affine branch maps was given a non-affine system."""


class IdentityComposition(BranchDynError):
    """A word composes to the identity map, so every state is fixed."""


class NotACycle(BranchDynError):
    """A claimed cycle is not a cycle of the system."""


class DepthExhausted(BranchDynError):
    """A residue tower of depth 1 was pushed through a division branch."""


class PreconditionUnmet(BranchDynError):
    """Stated hypotheses of a verification do not hold for the given data."""


class NotClosedSystem(BranchDynError):
    """An operation requiring an escape-free truncation saw escapes."""


class DomainMismatch(BranchDynError):
    """Morphism composition with incompatible source/target."""


class WindowMismatch(BranchDynError):
    """Two truncations cover windows that do not correspond under the map."""


class WindowTooSmall(BranchDynError):
    """The truncation window is missing orbit segments needed by the computation."""
