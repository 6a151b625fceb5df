"""Time-discrete state trajectories and the space-time norms of the
package: one trapezoid rule in time, one batched quadratic form in space,
and the one rule that cuts a run of steps into blocks for row reductions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import Mesh

__all__ = [
    "Trajectory",
    "trapezoid",
    "quad_forms",
    "row_norms",
    "h1_norms",
    "c_norm",
    "c_norm_diff",
    "h1_time_norm",
    "step_blocks",
]

# About this many entries (steps times members times nodes) in a block.
_BLOCK_ENTRIES = 2**14


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
        if np.isnan(t):
            raise ValueError(f"cannot sample a trajectory at t = {t}")
        if t <= self.times[0]:
            return self.values[0].copy()
        if t >= self.times[-1]:
            return self.values[-1].copy()
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


def step_blocks(n_steps: int, width: int) -> list:
    """The steps ``0..n_steps-1`` as consecutive ``range`` blocks of
    ``max(1, _BLOCK_ENTRIES // width)`` steps (the last: the rest), for
    steps of ``width`` entries each."""
    size = max(1, _BLOCK_ENTRIES // width)
    return [range(start, min(start + size, n_steps)) for start in range(0, n_steps, size)]


def trapezoid(samples: np.ndarray, tau: float) -> float:
    """Composite trapezoid rule for samples on a uniform grid of step ``tau``."""
    return tau * (samples.sum() - 0.5 * samples[0] - 0.5 * samples[-1])


def quad_forms(form, rows: np.ndarray) -> np.ndarray:
    """``r' A r`` for each row ``r`` of the (k, n) array ``rows``, with the
    bits of the scalar norms of :mod:`~histris.spatial`: the product by
    ``form`` (A, a band or its inverse) from its ``apply_rows``, then one
    BLAS dot a row (np.vecdot).  The rows go by :func:`step_blocks`, which
    keeps the band's stacked copies at the time loop's size."""
    rows = np.asarray(rows, dtype=float)
    out = np.empty(len(rows))
    for block in step_blocks(len(rows), rows.shape[1]):
        part = rows[block.start:block.stop]
        out[block.start:block.stop] = np.vecdot(part, form.apply_rows(part))
    return out


def row_norms(form, rows: np.ndarray) -> np.ndarray:
    """``sqrt(r' A r)`` for each row ``r``; ``form`` (A) is a band or its inverse."""
    return np.sqrt(np.maximum(quad_forms(form, rows), 0.0))


def h1_norms(mesh: Mesh, rows: np.ndarray) -> np.ndarray:
    """H^1 norm of every row of a (k, n) array of fields."""
    return row_norms(mesh.riesz, rows)


def c_norm(mesh: Mesh, traj: Trajectory) -> float:
    """Sup-in-time H^1 norm."""
    return float(h1_norms(mesh, traj.values).max())


def c_norm_diff(mesh: Mesh, a: Trajectory, b: Trajectory) -> float:
    """Sup-in-time H^1 norm of the difference of two trajectories.

    The trajectories must share the same time grid.
    """
    if a.values.shape != b.values.shape or not np.allclose(a.times, b.times):
        raise ValueError("trajectories live on different grids")
    return float(h1_norms(mesh, a.values - b.values).max())


def h1_time_norm(mesh: Mesh, traj: Trajectory) -> float:
    """Discrete H^1-in-time norm with H^1 spatial norms.

    States enter through the trapezoid rule, backward-difference rates
    through the midpoint (piecewise constant) rule.
    """
    tau = traj.tau
    state_part = trapezoid(quad_forms(mesh.riesz, traj.values), tau)
    rate_part = tau * quad_forms(mesh.riesz, traj.rates()).sum()
    return float(np.sqrt(max(state_part + rate_part, 0.0)))
