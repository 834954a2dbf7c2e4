"""The package's own exceptions.

Internal consistency checks (an order formula against the Smith-form
computation, a module dimension against |S_k|/|W_J|, a length-additive
factorisation) raise InternalDisagreement instead of using assert, so they
survive python -O; the command line maps it to exit code 2, the code for
independent computations that disagree.

WorkLimitExceeded is a refusal made from a cost estimate before the work
starts; it is a ValueError, so the command line reports it as invalid input
(exit code 1).
"""


class InternalDisagreement(RuntimeError):
    """Two computations of the same quantity gave different answers (a bug)."""


class WorkLimitExceeded(ValueError):
    """The estimated cost of a computation is over its limit."""
