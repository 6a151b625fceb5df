"""Time-discrete state trajectories and their space-time norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import Mesh

__all__ = [
    "Trajectory",
    "c_norm",
    "c_norm_diff",
    "h1_time_norm",
]


@dataclass(eq=False)
class Trajectory:
    """States on a uniform time grid; row k of ``values`` is the state
    at ``times[k]``."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"{self.values.shape[0]} states on {self.times.shape[0]} times"
            )

    @property
    def tau(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def rates(self) -> np.ndarray:
        """Backward difference quotients, one row per step."""
        return np.diff(self.values, axis=0) / self.tau

    def sample(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation in time (clamped at the ends)."""
        t = float(t)
        if t <= self.times[0]:
            return self.values[0].copy()
        if t >= self.times[-1]:
            return self.values[-1].copy()
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


def _h1_norms_sq(mesh: Mesh, rows: np.ndarray) -> np.ndarray:
    return mesh.riesz.quad_forms(rows)


def c_norm(mesh: Mesh, traj: Trajectory) -> float:
    """Sup-in-time H^1 norm."""
    return float(np.sqrt(np.maximum(_h1_norms_sq(mesh, traj.values), 0.0)).max())


def c_norm_diff(mesh: Mesh, a: Trajectory, b: Trajectory) -> float:
    """Sup-in-time H^1 norm of the difference of two trajectories.

    The trajectories must share the same time grid.
    """
    if a.values.shape != b.values.shape or not np.allclose(a.times, b.times):
        raise ValueError("trajectories live on different grids")
    diff = a.values - b.values
    return float(np.sqrt(np.maximum(_h1_norms_sq(mesh, diff), 0.0)).max())


def h1_time_norm(mesh: Mesh, traj: Trajectory) -> float:
    """Discrete H^1-in-time norm with H^1 spatial norms.

    States enter through the trapezoid rule, backward-difference rates
    through the midpoint (piecewise constant) rule.
    """
    tau = traj.tau
    states = _h1_norms_sq(mesh, traj.values)
    state_part = tau * (states.sum() - 0.5 * states[0] - 0.5 * states[-1])
    rates = _h1_norms_sq(mesh, traj.rates())
    rate_part = tau * rates.sum()
    return float(np.sqrt(max(state_part + rate_part, 0.0)))
