"""Semantic exception hierarchy shared by all pbindex modules."""


class PbindexError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PbindexError, ValueError):
    """Input data violates a structural contract (size, range, finiteness)."""


class SumOverflow(ValidationError, OverflowError):
    """An exact sum of finite terms, or one of its partial sums, lies past the float range."""


class DomainError(PbindexError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionError(PbindexError, ValueError):
    """Operands were built for different player counts."""


class InvalidCoefficients(PbindexError, ValueError):
    """A generalized-value coefficient table violates its dependence condition."""


class DegenerateFunction(PbindexError, ValueError):
    """The function is (numerically) constant, so normalization is undefined."""


class EmptySubset(PbindexError, ValueError):
    """The operation requires a nonempty coalition."""


class IncompleteTable(PbindexError, ValueError):
    """A table that must cover all 2**n subsets is missing entries."""


class SingularSystem(PbindexError, ArithmeticError):
    """The normal-equations system could not be solved (defensive guard)."""


class ParseError(PbindexError, ValueError):
    """A game file is malformed."""
