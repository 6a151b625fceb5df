"""Volterra-type history operators on state trajectories.

The accumulated state is

    zeta(t) = offset + integral_0^t b(t - s) y(s) ds,

with a scalar convolution kernel ``b``.  The ``identity`` kind is the
kernel ``b = 1`` (plain time integration), evaluated on the same path
as any other kernel.  Quadrature in time is the composite trapezoid
rule on the trajectory grid.

``HistoryAccumulator`` is the one history object: it tabulates the
kernel once on the grid and advances a geometric table
``b_j = b_0 r^j`` (exponential kernels, the identity as ``r = 1``) by
an exact trapezoid recurrence in O(1) per step, elementwise in the
ratio; any other table is re-weighted against the stored samples, O(k)
at step k.  One accumulator holds the histories of all members of a
lockstep loop, each bit for bit its own: the recurrence runs
elementwise on the stack, the dot product member by member.

A state that stays put for a run of steps has a constant recurrence
increment, so a geometric table also looks ahead: ``held_values``
gives the history after each of the next pushes of the latest sample,
two elementwise operations a step, and ``push_held`` commits a number
of those pushes at once, with the bits of pushing one at a time.
``follow`` replays a finished field trajectory on them: each stretch
of bitwise-repeated samples is one look-ahead and held pushes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spatial import Field

__all__ = [
    "KernelSpec",
    "identity_kernel",
    "convolution_kernel",
    "HistoryAccumulator",
]


@dataclass(eq=False)
class KernelSpec:
    """History kernel description plus the initial accumulated state."""

    kind: str
    y0: np.ndarray
    b: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "convolution"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.kind == "identity":
            self.b = np.ones_like
        elif self.b is None:
            raise ValueError("convolution kernels need b")


def identity_kernel(y0) -> KernelSpec:
    """Plain running time integral on top of the initial state: the
    kernel ``b = 1``."""
    return KernelSpec(kind="identity", y0=y0)


def convolution_kernel(b, y0) -> KernelSpec:
    """Scalar convolution kernel ``b``."""
    return KernelSpec(kind="convolution", y0=y0, b=b)


def _trapezoid_weights(k: int, tau: float) -> np.ndarray:
    """Composite trapezoid weights for k >= 1 steps (k+1 samples)."""
    w = np.full(k + 1, tau)
    w[0] = 0.5 * tau
    w[-1] = 0.5 * tau
    return w


def _tabulate(fn: Callable[[np.ndarray], np.ndarray],
              lags: np.ndarray) -> np.ndarray:
    """Kernel values on the lag grid, from one vectorized call."""
    return np.broadcast_to(np.asarray(fn(lags), dtype=float), lags.shape)


def _geometric_ratio(table: np.ndarray) -> float | None:
    """Ratio ``r`` with ``b_{j+1} = r b_j`` to rounding, or None.

    Accepts ``|b_{j+1} - r b_j| <= 8 eps (1 + |ln r| j) |b_{j+1}|``.
    Rounding the lag ``j * tau`` alone moves ``b(j tau)`` of an exactly
    geometric kernel by up to ``|ln r| j eps / 2`` relative, so a fixed
    multiple of eps would reject long runs of it.  For ``exp(-2t)`` the
    deviation stays below ``0.91 eps (1 + |ln r| j)`` up to horizon 40.

    Chained over the steps, the slack lets the table drift from
    ``b_0 r^j`` by up to ``8 eps (j + |ln r| j^2 / 2) |b_j|`` relative,
    and the recurrence's history value differs from the dot product over
    the table by at most that times ``sum_j tau |b_j| |q_{k-j}|``.  For
    ``b = exp(-lam t)`` this is ``16 eps max|q| / (lam^2 tau)``: 2.2e-12
    at ``lam = 2``, ``tau = 4e-4`` (horizon 8, 20 000 steps).
    """
    b0 = table[0]
    if not np.all(np.isfinite(table)):
        return None
    if b0 == 0:
        # b = 0 is geometric for any r, and r = 1 costs no products.
        return None if table.any() else 1.0
    r = table[1] / b0 if table.size > 1 else 1.0
    growth = abs(math.log(abs(r))) if r else 0.0
    lag = np.arange(table.size - 1)
    slack = 8.0 * np.finfo(float).eps * (1.0 + growth * lag) * np.abs(table[1:])
    if np.all(np.abs(table[1:] - r * table[:-1]) <= slack):
        return float(r)
    return None


class HistoryAccumulator:
    """Incrementally maintained history state along a uniform grid.

    The kernel is tabulated once, at lags ``j * tau`` for
    ``j = 0..n_max``, and the accumulator keeps the trapezoid sums
    ``I_k = sum_j w_j b_{k-j} y_j``.  A geometric table advances the
    exact recurrence ``I_k = r I_{k-1} + (tau/2 b_0) (r y_{k-1} + y_k)``
    in O(1) per step, elementwise in ``r`` and the samples, so a stack
    of members advances as each member would alone; with ``r = 1`` every
    product by ``r`` is exact, so ``b = 1`` gives the plain running
    trapezoid sum bit for bit.  Other tables (including non-finite ones)
    take the dot product with the stored samples, O(k) at step k, one
    member at a time: a stacked product would sum in another order.

    A sample is a field, or a (B, n) stack of the fields of B members
    advanced in lockstep (one viscosity level each); every push has the
    shape of the first, and ``value`` returns that shape.  Each member's
    history is what an accumulator of its own would hold, bit for bit.
    """

    def __init__(self, kernel: KernelSpec, tau: float, n_nodes: int, n_max: int):
        if not (np.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be positive, got {tau}")
        if kernel.y0.shape != (n_nodes,):
            raise ValueError(
                f"initial history state has shape {kernel.y0.shape}, "
                f"expected ({n_nodes},)"
            )
        self.kernel = kernel
        self.tau = float(tau)
        self._table = _tabulate(kernel.b, self.tau * np.arange(n_max + 1))
        self._ratio = _geometric_ratio(self._table)
        self._half_b0 = 0.5 * self.tau * self._table[0]
        # (members, n_max + 1, n) samples and (members, n) sums, allocated
        # by the first push; a field is one member.
        self._samples = None
        self._sum = None
        self._ahead = None  # the sums of the last look-ahead until they move
        self._count = 0

    @property
    def n_samples(self) -> int:
        return self._count

    @property
    def samples(self) -> np.ndarray:
        """Read-only view of the pushed samples, one row a push: (k, n)
        for fields, (B, k, n) for stacks of B members."""
        if self._count == 0:
            raise ValueError("no samples pushed yet")
        view = self._samples[:, : self._count]
        if len(self._shape) == 1:
            view = view[0]
        view.flags.writeable = False
        return view

    @property
    def geometric(self) -> bool:
        """Whether the kernel table advances by the O(1) recurrence, so
        :meth:`held_values` can look ahead more than one step."""
        return self._ratio is not None

    def _increment(self, prev: Field, sample: Field) -> np.ndarray:
        """``(tau/2 b_0) (r y_{k-1} + y_k)``; a product by ``r = 1.0`` is
        exact, so it is skipped (here and in :meth:`_carry`)."""
        if self._ratio != 1.0:
            prev = self._ratio * prev
        return self._half_b0 * (prev + sample)

    def _carry(self, total: np.ndarray, increment: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        """``r I_{k-1} + increment`` into ``out``."""
        if self._ratio != 1.0:
            total = np.multiply(total, self._ratio, out=out)
        return np.add(total, increment, out=out)

    def _look_ahead(self, steps: int) -> np.ndarray:
        """The sums after each of ``steps`` further pushes of the latest
        sample, one row each, without pushing: the increment is the same
        every step, so a row costs two elementwise operations.  The rows
        are kept for :meth:`push_held` until the sums move."""
        latest = self._samples[:, self._count - 1]
        increment = self._increment(latest, latest)
        out = np.empty((steps,) + self._sum.shape)
        total = self._sum
        for row in out:
            total = self._carry(total, increment, out=row)
        self._ahead = out
        return out

    def push(self, sample: Field) -> None:
        sample = np.asarray(sample, dtype=float)
        k = self._count
        if k == 0:
            n_nodes = self.kernel.y0.shape[0]
            if sample.shape[-1:] != (n_nodes,) or sample.ndim > 2:
                raise ValueError(
                    f"sample has shape {sample.shape}, expected ({n_nodes},) "
                    f"or (members, {n_nodes})"
                )
            self._shape = sample.shape
            members = sample.size // n_nodes
            self._samples = np.zeros((members, len(self._table), n_nodes))
            self._sum = np.zeros((members, n_nodes))
        elif sample.shape != self._shape:
            raise ValueError(f"sample has shape {sample.shape}, expected {self._shape}")
        if k >= len(self._table):
            raise ValueError("accumulator is full")
        self._samples[:, k] = sample
        if k > 0 and self.geometric:
            increment = self._increment(self._samples[:, k - 1], self._samples[:, k])
            self._carry(self._sum, increment, out=self._sum)
            self._ahead = None
        self._count += 1

    def push_held(self, count: int) -> None:
        """Push the latest sample ``count`` more times, with the bits of
        ``count`` calls of :meth:`push`: one slice of samples, and the
        sums of :meth:`held_values`' look-ahead as far as they reach; one
        step past them costs one more carry."""
        k = self._count
        if k == 0:
            raise ValueError("no samples pushed yet")
        if k + count > len(self._table):
            raise ValueError("accumulator is full")
        latest = self._samples[:, k - 1]
        self._samples[:, k:k + count] = latest[:, None]
        if self.geometric and count:
            rows = self._ahead
            if rows is None or count > len(rows) + 1:
                rows = self._look_ahead(count)
            if count > len(rows):
                self._carry(rows[-1], self._increment(latest, latest), out=self._sum)
            else:
                self._sum[...] = rows[count - 1]
            self._ahead = None
        self._count += count

    def value(self) -> Field:
        """Accumulated state at the time of the latest sample."""
        k = self._count - 1
        if k < 0:
            raise ValueError("no samples pushed yet")
        if self.geometric:
            total = self._sum
        elif k == 0:
            total = np.zeros(self._sum.shape)
        else:
            w = _trapezoid_weights(k, self.tau) * self._table[k::-1]
            total = np.stack([w @ member[: k + 1] for member in self._samples])
        return (self.kernel.y0 + total).reshape(self._shape)

    def held_values(self, steps: int) -> np.ndarray:
        """:meth:`value` now and after each of ``steps - 1`` further pushes
        of the latest sample, one row each ((steps, B, n) for stacks),
        without pushing: the history of a state that stays put.  Each row
        has the bits the pushes would give.  More than one row needs a
        :attr:`geometric` table."""
        if steps > 1 and not self.geometric:
            raise ValueError("looking ahead needs a geometric kernel table")
        now = self.value()
        if steps == 1:
            return now[None]
        ahead = self.kernel.y0 + self._look_ahead(steps - 1)
        return np.concatenate([now[None], ahead.reshape((steps - 1,) + self._shape)])

    def follow(self, values: np.ndarray, stop: int) -> np.ndarray:
        """The histories of the field trajectory ``values`` at its samples
        ``k..stop - 1``, one row each, where sample ``k`` is the latest one
        pushed; pushes samples ``k + 1..stop``.  A geometric table takes
        each stretch of samples that repeat the one before bitwise as one
        look-ahead and held pushes (:meth:`held_values`, :meth:`push_held`),
        with the bits of pushing them one at a time; any other table
        pushes every sample."""
        k = self._count - 1
        bits = np.ascontiguousarray(values[k:stop]).view(np.uint64)
        repeats = (bits[1:] == bits[:-1]).all(axis=1) & self.geometric
        # Runs: from each sample that does not repeat the one before.
        firsts = k + 1 + np.flatnonzero(~repeats)
        out = np.empty((stop - k,) + self._shape)
        for start, end in zip([k, *firsts], [*firsts, stop]):
            out[start - k:end - k] = self.held_values(end - start)
            self.push_held(end - start - 1)
            self.push(values[end])
        return out
