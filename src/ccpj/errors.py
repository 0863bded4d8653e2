"""Exception hierarchy for the ccpj toolkit.

Every error raised by the package derives from CcpjError so callers (and the
CLI) can catch one type. Subclasses carry enough structured state to be
reported without string parsing, and each class carries the `ccpj` exit
code of its fault: 2 configuration (the default), 3 simulation, 4 data.
"""

from __future__ import annotations


class CcpjError(Exception):
    """Base class for all ccpj errors."""

    exit_code = 2


class ValidationError(CcpjError):
    """Bad input data or parameters."""


def _plain(value):
    """A numpy scalar as its plain Python number, for messages."""
    return value.item() if callable(getattr(value, "item", None)) else value


class OutOfRangeError(ValidationError):
    """A scalar input fell outside its physically meaningful interval."""

    def __init__(self, name: str, value: float, lo: float, hi: float):
        self.name = name
        self.value = value
        self.lo = lo
        self.hi = hi
        value, lo, hi = (_plain(v) for v in (value, lo, hi))
        super().__init__(f"{name}={value!r} outside [{lo}, {hi}]")


class ZeroDimensionError(ValidationError):
    """A geometric dimension that must be positive was zero or negative."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"{name}={value!r} must be > 0")


class NonMonotoneCurrentError(ValidationError):
    """Calibration table currents must strictly increase."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"current at row {index} ({value!r} A) does not strictly increase"
        )


class NonMonotoneStiffnessError(ValidationError):
    """Calibration table stiffnesses must be non-decreasing."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"stiffness at row {index} ({value!r} N/m) decreases from previous row"
        )


class TooFewPointsError(ValidationError):
    """A table or dataset needs more rows than it has."""

    exit_code = 4

    def __init__(self, n: int, need: int, what: str = "table"):
        self.n = n
        self.need = need
        super().__init__(f"{what} has {n} points, needs at least {need}")


class UnreachableError(CcpjError):
    """A kinematic target is outside what the geometry can deliver."""

    exit_code = 3

    def __init__(self, message: str, requested: float, limit: float):
        self.requested = requested
        self.limit = limit
        super().__init__(f"{message} (requested {requested:g}, limit {limit:g})")


class NoConvergenceError(CcpjError):
    """Iterative solver exhausted its budget.

    Carries the last iterate and its gradient norm so callers can inspect or
    restart from the best point found.
    """

    exit_code = 3

    def __init__(self, message: str, last_iterate, grad_norm: float, iterations: int):
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm
        self.iterations = iterations
        super().__init__(
            f"{message}: no convergence after {iterations} iterations "
            f"(|grad|={grad_norm:.3e})"
        )


class SingularSystemError(CcpjError):
    """A linear solve inside a fit or solver met a singular matrix."""

    exit_code = 4


class InfeasibleConfinementError(CcpjError):
    """No gait mode can pass the requested confinement."""

    exit_code = 3

    def __init__(self, message: str, required_mm: float, available_mm: float):
        self.reason = message  # without the (needs, has) suffix
        self.required_mm = required_mm
        self.available_mm = available_mm
        super().__init__(
            f"{message} (needs {required_mm:.2f} mm, has {available_mm:.2f} mm)"
        )


class AllMasksInfeasibleError(InfeasibleConfinementError):
    """Every leg-activation mask fails the confinement check.

    Carries the per-mask failure so callers can report why each mode was
    rejected, not just that all were.
    """

    def __init__(self, failures: dict):
        self.failures = dict(failures)
        tightest = min(self.failures.values(), key=lambda e: e.available_mm, default=None)
        reasons = "; ".join(f"{mask}: {err}" for mask, err in self.failures.items())
        # bypass the parent __init__ message format, keep its fields
        self.reason = f"no leg mask fits the confinement ({reasons})"
        self.required_mm = tightest.required_mm if tightest is not None else 0.0
        self.available_mm = tightest.available_mm if tightest is not None else 0.0
        CcpjError.__init__(self, self.reason)


class EmptyDatasetError(ValidationError):
    """A calibration dataset was missing, unreadable or without usable rows."""

    exit_code = 4


class NoFeasibleFitError(CcpjError):
    """Calibration search finished but no candidate satisfied the constraints."""

    exit_code = 4

    def __init__(self, message: str, best_loss: float | None = None):
        self.best_loss = best_loss
        super().__init__(message)


class NotUnimodalError(CcpjError):
    """Objective sampled on the search bracket is not single-peaked."""

    exit_code = 3

    def __init__(self, xs, ys):
        self.xs = list(xs)
        self.ys = list(ys)
        pairs = ", ".join(f"({x:g}, {y:g})" for x, y in zip(self.xs, self.ys))
        super().__init__(f"objective not unimodal on bracket: {pairs}")


class ConfigError(CcpjError):
    """Malformed or inconsistent configuration file."""
