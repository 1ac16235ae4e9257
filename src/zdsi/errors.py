"""Semantic exception hierarchy shared by all zdsi modules."""


class ZdsiError(Exception):
    """Base class for all library errors."""


class NegativeEntry(ZdsiError):
    """A probability or distortion entry is negative; names the offending cell."""


class SumNotOne(ZdsiError):
    """A distribution's entries do not sum to exactly one; names the total."""


class ConditionOnZero(ZdsiError):
    """Conditioning on a symbol of zero probability."""


class InvalidArgument(ZdsiError, ValueError):
    """An argument is malformed: an empty or repeated alphabet, a shape that
    does not match its alphabets, a non-canonical partition or coloring, or
    a request the object cannot answer.  Also a ValueError."""


class TooLarge(ZdsiError):
    """Instance exceeds an exactness or memory cap; the cap is named."""


class InfeasibleProtocol(ZdsiError):
    """Codeword assignment violates the per-edge no-prefix condition."""


class SuboptimalProtocol(ZdsiError):
    """Feasible codeword assignment whose length is not the optimum; names both."""


class InvalidWitness(ZdsiError):
    """A time-sharing witness fails an exact check; names the condition."""


class EmptyInput(ZdsiError):
    """An operation that needs at least one element received none."""


class BelowMinimumDistortion(ZdsiError):
    """Queried distortion lies left of the curve's leftmost vertex."""


class SyncLoss(ZdsiError):
    """Streaming decoder could not match any candidate codeword."""


class DomainError(ZdsiError):
    """Numeric argument outside the operation's domain."""


class NoConvergence(ZdsiError):
    """Iterative solver exhausted its sweep budget without reaching tolerance."""


class ParseError(ZdsiError):
    """Problem file is syntactically malformed; names the field or position."""


class ValidationError(ZdsiError):
    """Problem file parsed but violates a semantic invariant."""
