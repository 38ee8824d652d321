"""Exception types shared across the toolkit.

Every domain error raised by the library derives from RaagError and carries
a short machine-readable code, which the CLI surfaces in JSON mode.
"""


class RaagError(Exception):
    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.__class__.__name__)


class GraphFormatError(RaagError):
    code = "graph_format"


class UnknownVertexError(RaagError):
    code = "unknown_vertex"


class GraphMismatchError(RaagError):
    code = "graph_mismatch"


class WordSyntaxError(RaagError):
    code = "word_syntax"


class IdentityElementError(RaagError):
    code = "identity_element"


class EmptySetError(RaagError):
    code = "empty_set"


class ArityMismatchError(RaagError):
    code = "arity_mismatch"


class InvalidSubgroupError(RaagError):
    code = "invalid_subgroup"


class RadiusTooSmallError(RaagError):
    code = "radius_too_small"


class DegenerateArcError(RaagError):
    code = "degenerate_arc"


class OutOfRangeError(RaagError):
    code = "out_of_range"


class InvalidSplittingError(RaagError):
    code = "invalid_splitting"


class NotInCentralizerError(RaagError):
    code = "not_in_centralizer"


class TransverseHyperplanesError(RaagError):
    code = "transverse_hyperplanes"


class UnreducedWordError(RaagError):
    code = "unreduced_word"


class BallCapExceededError(RaagError):
    code = "ball_cap_exceeded"


class PreconditionError(RaagError):
    code = "precondition_failed"


class MemoryLimitError(RaagError):
    code = "memory_limit"
