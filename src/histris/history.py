"""Volterra-type history operators on state trajectories.

The accumulated state is

    zeta(t) = offset + integral_0^t b(t - s) y(s) ds,

with a scalar convolution kernel ``b`` (the ``identity`` kind is
``b = 1``, plain time integration).  Quadrature in time is the
composite trapezoid rule on the trajectory grid.  The weak time
derivative of the accumulated state is

    d/dt zeta(t) = b(0) y(t) + integral_0^t b'(t - s) y(s) ds,

which is what the growth estimates of the dissipation functional are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spatial import Field

__all__ = [
    "KernelSpec",
    "identity_kernel",
    "convolution_kernel",
    "HistoryAccumulator",
    "history_eval",
    "history_derivative",
]


@dataclass(eq=False)
class KernelSpec:
    """History kernel description plus the initial accumulated state."""

    kind: str
    y0: np.ndarray
    b: Callable[[np.ndarray], np.ndarray] | None = None
    b_prime: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "convolution"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.kind == "convolution":
            if self.b is None or self.b_prime is None:
                raise ValueError("convolution kernels need b and b_prime")


def identity_kernel(y0) -> KernelSpec:
    """Plain running time integral on top of the initial state."""
    return KernelSpec(kind="identity", y0=y0)


def convolution_kernel(b, b_prime, y0) -> KernelSpec:
    """Scalar convolution kernel ``b`` with derivative ``b_prime``."""
    return KernelSpec(kind="convolution", y0=y0, b=b, b_prime=b_prime)


def _trapezoid_weights(k: int, tau: float) -> np.ndarray:
    """Composite trapezoid weights for k steps (k+1 samples)."""
    if k == 0:
        return np.zeros(1)
    w = np.full(k + 1, tau)
    w[0] = 0.5 * tau
    w[-1] = 0.5 * tau
    return w


def history_eval(kernel: KernelSpec, times: np.ndarray, values: np.ndarray,
                 index: int) -> Field:
    """Accumulated state at grid time ``times[index]``.

    ``values`` holds one state sample per row; only rows ``0..index``
    enter the quadrature.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = int(index)
    if not 0 <= k < len(times):
        raise ValueError(f"index {k} outside the grid of {len(times)} times")
    if k == 0:
        return kernel.y0.copy()
    tau = times[1] - times[0]
    w = _trapezoid_weights(k, tau)
    if kernel.kind == "identity":
        return kernel.y0 + w @ values[: k + 1]
    lag = times[k] - times[: k + 1]
    return kernel.y0 + (w * np.asarray(kernel.b(lag), dtype=float)) @ values[: k + 1]


def history_derivative(kernel: KernelSpec, times: np.ndarray, values: np.ndarray,
                       index: int) -> Field:
    """Weak time derivative of the accumulated state at ``times[index]``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = int(index)
    if not 0 <= k < len(times):
        raise ValueError(f"index {k} outside the grid of {len(times)} times")
    if kernel.kind == "identity":
        return values[k].astype(float).copy()
    b0 = float(np.asarray(kernel.b(np.zeros(1)), dtype=float)[0])
    out = b0 * values[k].astype(float)
    if k > 0:
        tau = times[1] - times[0]
        w = _trapezoid_weights(k, tau)
        lag = times[k] - times[: k + 1]
        out = out + (w * np.asarray(kernel.b_prime(lag), dtype=float)) @ values[: k + 1]
    return out


class HistoryAccumulator:
    """Incrementally maintained history state along a uniform grid.

    For the identity kind the running trapezoid integral is updated in
    O(1) per step; convolution kernels re-weight the stored samples,
    which costs O(k) at step k.
    """

    def __init__(self, kernel: KernelSpec, tau: float, n_nodes: int, n_max: int):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if kernel.y0.shape != (n_nodes,):
            raise ValueError(
                f"initial history state has shape {kernel.y0.shape}, "
                f"expected ({n_nodes},)"
            )
        self.kernel = kernel
        self.tau = float(tau)
        self._samples = np.zeros((n_max + 1, n_nodes))
        self._count = 0
        self._integral = np.zeros(n_nodes)

    @property
    def n_samples(self) -> int:
        return self._count

    @property
    def time(self) -> float:
        return (self._count - 1) * self.tau

    def push(self, sample: Field) -> None:
        if self._count >= self._samples.shape[0]:
            raise ValueError("accumulator is full")
        sample = np.asarray(sample, dtype=float)
        self._samples[self._count] = sample
        if self._count > 0:
            self._integral += 0.5 * self.tau * (self._samples[self._count - 1] + sample)
        self._count += 1

    def value(self) -> Field:
        """Accumulated state at the time of the latest sample."""
        if self._count == 0:
            raise ValueError("no samples pushed yet")
        if self.kernel.kind == "identity":
            return self.kernel.y0 + self._integral
        k = self._count - 1
        times = self.tau * np.arange(self._count)
        return history_eval(self.kernel, times, self._samples[: self._count], k)

    def derivative(self) -> Field:
        """Weak derivative of the accumulated state at the latest sample."""
        if self._count == 0:
            raise ValueError("no samples pushed yet")
        k = self._count - 1
        times = self.tau * np.arange(self._count)
        return history_derivative(self.kernel, times, self._samples[: self._count], k)

