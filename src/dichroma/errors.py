"""Exception types shared across the toolkit.

Absence of a result (a failed search, a refuted property) is normally a
value, not an exception; exceptions are reserved for violated
preconditions, malformed inputs and exhausted budgets.
"""

from __future__ import annotations


class DichromaError(Exception):
    """Base class for all toolkit errors."""


class LoopArc(DichromaError):
    """An arc or edge with identical endpoints."""


class DuplicateArc(DichromaError):
    """The same ordered pair appears twice in an arc list."""


class IndexOutOfRange(DichromaError):
    """A vertex index outside 0..n-1."""


class InvalidPartition(DichromaError):
    """Parts are not disjoint or do not cover the vertex set."""


class Disconnected(DichromaError):
    """An operation required a connected (sub)graph."""


class PartialColouring(DichromaError):
    """A colouring does not assign a colour to every element."""


class BudgetExceeded(DichromaError):
    """A search ran out of its node budget.

    Carries the best bounds known when the budget ran out.
    """

    def __init__(self, lower: int, upper: int | None, message: str = ""):
        self.lower = lower
        self.upper = upper
        super().__init__(message or f"budget exceeded (bounds: {lower}..{upper})")


class NotDipolar(DichromaError):
    """The given vertex set is not dipolar."""


class InvalidInput(DichromaError):
    """Structurally valid arguments that violate an operation contract."""


class BadK(DichromaError):
    """Unsupported parameter k for a gadget."""


class MissingArc(DichromaError):
    """A join was asked to use an arc that is not present."""


class MissingDigon(DichromaError):
    """A join part does not contain its required digon."""


class BadEmbeddingOrder(DichromaError):
    """A circular leaf order that no plane embedding of the tree realizes."""


class TooFewParts(DichromaError):
    """Circular composition needs at least three parts."""


class BadVertex(DichromaError):
    """A named vertex does not exist in the digraph."""


class SizeCapExceeded(DichromaError):
    """A generator refused to build an object past its size cap."""


class UnsupportedK(DichromaError):
    """Recognition for this k is not available."""


class PreconditionViolated(DichromaError):
    """The structural precondition of an operation does not hold."""


class NotStrong(DichromaError):
    """The digraph is not strongly connected."""


class NotOriented(DichromaError):
    """The digraph contains a digon where an oriented graph was required."""


class ParityViolated(DichromaError):
    """Root-to-leaf paths of the wheel tree do not share one parity."""


class NotRegular(DichromaError):
    """The multigraph is not regular of the required degree."""


class EvenD(DichromaError):
    """The defect parameter must be odd here."""


class OddK(DichromaError):
    """The factor degree must be even here."""


class BadParameters(DichromaError):
    """Parameters outside the supported range of a gadget."""


class FallbackToExact(DichromaError):
    """The constructive colouring route failed and exact search also gave up."""


class FileSyntaxError(DichromaError):
    """A graph file that does not parse; carries line/column."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: {message}")


class FileSemanticError(DichromaError):
    """A graph file that parses but describes an invalid graph."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownName(DichromaError, AttributeError):
    """An attribute the dichroma package does not export."""


class UsageError(DichromaError):
    """Bad command-line usage."""


class SelfCheckFailed(DichromaError):
    """A result failed the independent re-check made before reporting it."""
