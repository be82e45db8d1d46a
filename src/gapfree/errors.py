"""Exception types shared across the package."""


class GapfreeError(Exception):
    """Base class for every error raised by this package."""


class LoopEdge(GapfreeError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GapfreeError):
    """The same unordered vertex pair appears twice in an edge list."""


class VertexOutOfRange(GapfreeError):
    """An edge endpoint is not in 0..n-1."""


class BadParameter(GapfreeError):
    """A generator or formula parameter violates its bounds."""


class EmptyFactor(GapfreeError):
    """A product factor has no vertices."""


class NotBipartite(GapfreeError):
    """The operation requires a bipartite graph."""


class NotRegular(GapfreeError):
    """The operation requires an r-regular graph (r >= 1)."""


class NotClass1(GapfreeError):
    """The operation requires chi'(H) = max degree of H."""


class InvalidAlpha(GapfreeError):
    """The supplied coloring is not a valid interval coloring of its graph."""


class ConstructionFailed(GapfreeError):
    """A constructor's self-verification failed; this indicates a bug, not bad input."""


class BudgetExceeded(GapfreeError):
    """An exhaustive search ran out of its node budget; the result is unknown.

    Carries the number of nodes explored so callers can report partial effort.
    """

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes
