"""Exception types shared across the package."""


class NonFinite(ValueError):
    """Input contains NaN or infinite entries."""


class PadTooSmall(ValueError):
    """Requested spectrum length is shorter than the full spectrum, min(r, c)."""


class ConvergenceFailure(RuntimeError):
    """An underlying eigenvalue or singular value iteration did not converge."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotIsometry(ValueError):
    """Recombination matrix does not have orthonormal columns."""


class InfeasibleShape(ValueError):
    """No operator set with the requested block structure exists."""


class ChannelFormatError(ValueError):
    """Channel JSON document violates the interchange schema."""
