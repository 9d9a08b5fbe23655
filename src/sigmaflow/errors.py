"""Exception hierarchy shared by all modules.

Each class carries the process exit code the CLI maps it to:

    2  usage / configuration problems
    3  cone violations (the state left the admissible set)
    4  nonconvergence (flow step-size underflow, Newton stall or singular
       linearization, continuation)
    5  internal numeric errors (non-finite output, failed self-checks)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConeLabel:
    """Outcome of a Gamma_k^+ membership test (ConeViolationError's payload):
    first_failing_j is the smallest j <= k with sigma_j <= 0, None inside."""

    k: int
    inside: bool
    first_failing_j: int | None = None


class SigmaFlowError(Exception):
    """Base class; exit_code is what the CLI returns for this failure."""

    exit_code = 5


class UsageError(SigmaFlowError):
    """Bad command line, unknown config key, malformed value."""

    exit_code = 2


class ConfigurationError(UsageError):
    """Config parsed fine but describes an impossible setup."""

    exit_code = 2


class ConeViolationError(SigmaFlowError):
    """Some sigma_j(A) <= 0 where Gamma_k^+ membership was required.

    label is a ConeLabel describing which j failed; node, when known, is the
    grid multi-index of the worst offending point.
    """

    exit_code = 3

    def __init__(self, message, label=None, node=None):
        super().__init__(message)
        self.label = label
        self.node = node


class NonconvergenceError(SigmaFlowError):
    """An iteration gave up: Newton stall or singular linearization, dt
    underflow, continuation failure."""

    exit_code = 4

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FlowFailureError(NonconvergenceError):
    """A step failed at dt and at each of its flow.MAX_HALVINGS halvings."""


class ContinuationFailureError(NonconvergenceError):
    """Continuation t-step underflow; the target lambda is presumed >= lambda*."""


class NumericError(SigmaFlowError):
    """Non-finite output or a failed self-check.

    A singular Newton linearization (a non-finite direction, or a coarse
    matrix numpy.linalg cannot invert) is a NonconvergenceError instead:
    continuation halves its step on it like on any Newton failure.
    """

    exit_code = 5
