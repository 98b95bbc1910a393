"""Exception taxonomy for the rewriting engine.

Three families matter to callers:

* ``ValidationError`` and friends: the data itself is malformed.
* ``MoveError`` subclasses: a rewriting step was refused.  Every refusal
  names the side condition that failed, so drivers can react.
* ``ParseError``: the text format could not be read.

The command line maps ``ParseError``/``ValidationError`` to exit code 1 and
``MoveError`` to exit code 2.
"""


class EngineError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(EngineError):
    """Structurally or semantically malformed data."""

    def __init__(self, message, issues=None):
        super().__init__(message)
        self.issues = list(issues) if issues else [message]


class InvalidIndexKind(ValidationError):
    """Morse index out of range for the given point kind."""


class CycleDetected(ValidationError):
    """The flow graph has a directed cycle."""


class ParseError(EngineError):
    """Bad input text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnknownId(EngineError):
    """A point or component id that the datum does not contain."""


class MoveError(EngineError):
    """A move refused because one of its side conditions fails."""


class PartialConfiguration(MoveError):
    """A value assignment that misses some critical points."""


class Blocked(MoveError):
    """Rearrangement refused: a chain of flow lines joins the two points."""


class EdgeOrderViolation(MoveError):
    """New values would put some flow line's endpoints out of order."""


class Inadmissible(MoveError):
    """A target configuration that violates the admissible order."""


class SwapBlocked(MoveError):
    """Realizing a configuration needs a swap that the data forbids."""

    def __init__(self, lower, upper, message):
        super().__init__(message)
        self.pair = (lower, upper)


class KindMismatch(MoveError):
    """Cancellation wants two points of the same kind."""


class IndexMismatch(MoveError):
    """Cancellation wants indices k and k+1, in that order."""


class NotSingleTrajectory(MoveError):
    """Cancellation wants exactly one connecting flow line."""


class BrokenTrajectoryExists(MoveError):
    """Cancellation refused: a broken flow line joins the pair as well."""


class LocusViolation(MoveError):
    """A flow edge lies in the wrong part of the ambient space."""


class NotInterior(MoveError):
    """The operation only applies to interior critical points."""


class ExtremalIndex(MoveError):
    """Splitting applies to indices 1..n only."""


class NotJoinable(MoveError):
    """Splitting wants a level set component reaching the boundary wall."""


class InvalidEffect(MoveError):
    """A slice effect would become inconsistent under the move."""


class BadLevels(MoveError):
    """Values that do not show the band structure the driver needs."""


class StuckNoJoinablePoint(MoveError):
    """The joinability pass found an interior point that never joins the wall."""


class PipelineBlocked(MoveError):
    """Normal form driver stopped; wraps the first refused step."""

    def __init__(self, stage, cause):
        super().__init__("stage %r blocked: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


class InfeasibleSpec(EngineError):
    """The random generator cannot satisfy the requested constraints."""
