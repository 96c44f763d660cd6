"""Exception types shared across the library."""

from __future__ import annotations


class GeodynError(Exception):
    """Base class for all library errors."""


class _StepError(GeodynError):
    """A failure a trajectory can place: ``step`` is the step that failed and
    ``state`` the last finite state before it; both are None when unknown."""

    def __init__(self, message: str = "", step: int | None = None,
                 state: tuple[float, ...] | None = None):
        super().__init__(message)
        self.step = step
        self.state = state


class SingularOriginError(_StepError):
    """Potential or force evaluated too close to the gravitational singularity."""


class NonFiniteStateError(_StepError):
    """A trajectory, two-step update or seed reached an infinite or NaN value; also a
    linear modified-series term that overflows, and a shadowing flow past its r^5 range."""


class NonConvergenceError(GeodynError):
    """An iterative solve (Newton, quadrature refinement) failed to converge."""


class NonNegativeEnergyError(GeodynError):
    """Elliptic-orbit machinery requested for a state with H >= 0."""


class StabilityBoundaryError(GeodynError):
    """Linear scheme parameters outside the stability region (lambda * h^2 >= 4)."""


class TrajectoryTooShortError(GeodynError):
    """Too few samples: a finite-difference diagnostic needs 3, a drift-sweep run 8, a shadowing period 2 steps."""


class CircularOrbitError(GeodynError):
    """Angle-of-LRL diagnostics are undefined for (near-)circular orbits."""


class UnknownMethodError(GeodynError, ValueError):
    """Unrecognized integrator or discrete-Lagrangian identifier."""


class ExpressionError(GeodynError):
    """Parse or evaluation failure in the arithmetic expression format."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class EvaluationError(ExpressionError):
    """An expression that parsed failed while being evaluated."""
