"""The exception raised when the package contradicts itself.

Internal consistency checks (an order formula against the Smith-form
computation, a module dimension against |S_k|/|W_J|, a length-additive
factorisation) raise InternalDisagreement instead of using assert, so they
survive python -O; the command line maps it to exit code 2, the code for
independent computations that disagree.
"""


class InternalDisagreement(RuntimeError):
    """Two computations of the same quantity gave different answers (a bug)."""
