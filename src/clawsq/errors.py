"""Exception types shared across the package, and the default node budget."""

# Node budget of the exact searches, in the engine and in the oracle, past
# which they raise NodeLimitExceeded unless the caller passes another.
DEFAULT_NODE_LIMIT = 50_000_000


class VertexOutOfRangeError(IndexError):
    """A vertex index falls outside 0..n-1 for the graph at hand."""


class SelfLoopError(ValueError):
    """An edge (u, u) was supplied."""


class DuplicateEdgeError(ValueError):
    """The same undirected edge was supplied more than once."""


class SizeMismatchError(ValueError):
    """A coloring or vertex array does not match the graph's vertex count."""


class NotNeighborError(ValueError):
    """An operation required w to be a neighbor of v, but it is not."""


class NotClawFreeError(ValueError):
    """The input contains an induced claw; the witness rides along."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedOmegaError(ValueError):
    """The clique number is outside the range an operation supports."""


class NotSmallOmegaError(ValueError):
    """The path-and-cycle colorer received a graph with a triangle or a degree-3 vertex."""


class InvalidPartitionError(ValueError):
    """The supplied clique family is not an edge partition with the required properties."""


class InvalidSpecError(ValueError):
    """Generator parameters are malformed."""


class GenerationExhaustedError(RuntimeError):
    """A randomized generator hit its retry budget without producing a valid graph."""


class DimacsError(ValueError):
    """DIMACS input is syntactically or semantically invalid."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnclassifiableGraphError(RuntimeError):
    """No structural case applied to a graph that should admit one.

    Raised when classification exhausts all cases on a connected input;
    indicates a bug or a violated precondition (for instance a claw).
    """


class InternalBoundViolation(RuntimeError):
    """A coloring step broke a bound that is guaranteed to hold; a bug.

    Every raise site checks a step that the paper's argument or a cited
    bound proves on claw-free input: a strong edge coloring within
    palette_bound(max degree), distinct representatives and a free color
    on reinsertion, a base that is not reducible, a component palette
    within palette_bound(omega), a final coloring proper on the square.
    """


class NodeLimitExceeded(RuntimeError):
    """An exact search gave up after exploring the configured number of nodes."""
