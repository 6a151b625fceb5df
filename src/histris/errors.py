"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["NumericalFailure"]


class NumericalFailure(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the last residual seen so callers can report how far the
    solve was from converging, and, from a stacked solve, the index of
    the failing ``member`` (None when no single member is to blame).
    """

    def __init__(self, message: str, residual: float = float("nan"),
                 member: int | None = None):
        super().__init__(message)
        self.residual = float(residual)
        self.member = member

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.residual == self.residual:  # not NaN
            return f"{base} (residual {self.residual:.3e})"
        return base
