"""Exception types shared across the package."""


class CdtwError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientVertices(CdtwError):
    """Fewer than 2 distinct consecutive values remain after normalisation."""


class OutOfDomain(CdtwError):
    """A parameter falls outside the domain of a curve or function."""


class IndexOutOfRange(CdtwError):
    """A segment or cell index is outside the valid range."""


class CoverageGap(CdtwError):
    """Candidate fragments fail to cover the required output interval."""


class InvariantViolation(CdtwError):
    """A structural invariant (continuity, kink rule, bounds) was violated."""


class ProvenanceMissing(CdtwError):
    """Path reconstruction was requested but provenance was not recorded."""


class EmptyInput(CdtwError):
    """A baseline measure received an empty vertex list."""


class TooLarge(CdtwError):
    """An input is beyond what a solver or oracle can handle in floats or memory."""


class ResolutionZero(CdtwError):
    """The grid oracle needs a resolution of at least 1."""
