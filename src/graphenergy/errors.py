"""Exception hierarchy shared by all graphenergy modules."""


class GraphEnergyError(Exception):
    """Base class for all graphenergy errors."""


class InvalidFamilyError(GraphEnergyError, ValueError):
    """A named-family constructor was called with out-of-range parameters."""


class FamilyParseError(GraphEnergyError, ValueError):
    """A family expression could not be parsed."""


class NotAnEdgeError(GraphEnergyError, ValueError):
    """An edge operation referenced a vertex pair that is not an edge."""


class Graph6ParseError(GraphEnergyError, ValueError):
    """Malformed graph6 input.

    ``offset`` is the byte position of the first offending character.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


class ScaleError(GraphEnergyError, ValueError):
    """A request fell outside the supported desk-scale envelope.

    Raised, among others, for a graph or graph6 string above the 62-vertex
    limit of the adjacency bitsets.
    """


class CacheMissError(GraphEnergyError, LookupError):
    """No cache file exists for the requested census; caller should regenerate."""


class CorruptCacheError(GraphEnergyError, RuntimeError):
    """A census cache file failed a load check.

    Raised when a file does not decode as text, the sidecar is malformed or
    names another class, the count, digest or generator version disagrees
    with it, the lines are not strictly sorted, a pinned class differs from
    its pin, or a member of an unpinned class is not a canonical connected
    graph of that class.
    """


class QuadratureAccuracyError(GraphEnergyError, ArithmeticError):
    """Adaptive quadrature reached its panel limit before reaching tolerance.

    Carries the best estimate reached and the achieved error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
