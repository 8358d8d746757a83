"""Exception taxonomy shared by all densitometer modules."""


class DensitometerError(Exception):
    """Base class for all library-specific errors."""


# -- weight sequences ---------------------------------------------------------

class OutOfRange(DensitometerError):
    """An index n is outside the range the sequence can serve."""


class NotClosedForm(DensitometerError):
    """The operation needs a closed-form sequence (power or geometric)."""


class DegenerateIndex(DensitometerError):
    """The defining equation of the index has no solution at this probe."""


class GridTooCoarse(DensitometerError):
    """The exponent grid fails to bracket the transition point."""


class InadmissibleParameter(DensitometerError):
    """A parameter violates the admissibility window of the inequality set."""


class NeverHolds(DensitometerError):
    """An eventual inequality fails at every tested probe."""


# -- dilation geometry --------------------------------------------------------

class InvalidGamma(DensitometerError):
    """Dilation factor must exceed 1."""


class OverlappingInputs(DensitometerError):
    """1-D dilation inputs must be pairwise disjoint open intervals."""


class OverlappingCubes(DensitometerError):
    """2-D dilation inputs must be pairwise disjoint open squares."""


# -- step-rate function -------------------------------------------------------

class HorizonExhausted(DensitometerError):
    """The schedule horizon ended before the subsequence rule could fire."""


class BelowHorizon(DensitometerError):
    """A query scale lies below the smallest constructed breakpoint."""


class Divergent(DensitometerError):
    """Series terms fail to decrease; the diagnostic refuses to sum on."""


# -- set models and scans -----------------------------------------------------

class PackingInfeasible(DensitometerError):
    """The square family cannot be shelf-packed into the outer rectangle."""


class EmptyRect(DensitometerError):
    """A query rectangle has zero area."""


class TruncationTooSmall(DensitometerError):
    """The model holds fewer squares than the requested cover needs."""


class AcceptanceTooLow(DensitometerError):
    """Rejection sampling accepted fewer than 1% of draws."""
