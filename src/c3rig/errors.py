"""Exception types shared across the package."""


class C3RigError(Exception):
    """Base class for every error raised by this package."""


# input / schema validation

class SchemaError(C3RigError):
    """Input document does not match the graph JSON schema."""


class LoopOrDuplicateEdge(C3RigError):
    """An edge is a loop, or the same edge appears twice (in either order)."""


class NotAPermutation(C3RigError):
    """The supplied symmetry map is not a permutation of the vertices."""


class NotOrderThree(C3RigError):
    """The supplied permutation is the identity or does not cube to it."""


class NotAnAutomorphism(C3RigError):
    """The permutation does not preserve the edge set."""

    def __init__(self, message: str, witness_edge=None):
        super().__init__(message)
        self.witness_edge = witness_edge


class MissingAction(C3RigError):
    """A 3-fold symmetry action is required but the graph carries none."""


# size guards

class TooFewVertices(C3RigError):
    """The operation needs more vertices than the graph has."""


class TooLarge(C3RigError):
    """The graph exceeds the enumeration bound of the brute-force oracle."""


# symmetric moves

class InvalidAnchor(C3RigError):
    """Anchor vertices do not satisfy the move's preconditions."""


class MissingEdge(C3RigError):
    """The designated base edge is not present in the graph."""


class FixedAnchor(C3RigError):
    """The anchor vertex is fixed by the rotation and cannot be used."""


class DegenerateMove(C3RigError):
    """The move would collapse: its edge orbit is too small or collides."""


# certification

class NotIsostatic(C3RigError):
    """The graph fails the symmetric isostaticity test."""

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class IntermediateNotTight(C3RigError):
    """Replaying a construction sequence produced a non-tight step."""


class InternalInvariantBroken(C3RigError):
    """A state the underlying theory rules out was reached; this is a bug."""


# realization

class FixedVertexPresent(C3RigError):
    """A vertex fixed by the rotation would have to sit at the center."""


class ExhaustedRetries(C3RigError):
    """Random placement kept colliding on edges; gave up after the bound."""


class DegenerateSpan(C3RigError):
    """All joints are collinear, so the rank criterion does not apply."""


class InvalidPartition(C3RigError):
    """The supplied tree partition fails verification."""


class NoSeparableComponent(C3RigError):
    """No coincidence class splits along either tree; contradicts properness."""


class ExhaustedT(C3RigError):
    """No deformation parameter within the proven bound kept independence
    mod P.

    One of that many candidates always works unless P divides every
    coefficient of a minor, which makes every one short mod P; either way
    the route gives no verdict rather than a wrong one."""
