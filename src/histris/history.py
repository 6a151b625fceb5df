"""Volterra-type history operators on state trajectories.

The accumulated state is

    zeta(t) = offset + integral_0^t b(t - s) y(s) ds,

with a scalar convolution kernel ``b``.  The ``identity`` kind is the
kernel ``b = 1``, ``b' = 0`` (plain time integration), evaluated on the
same path as any other kernel.  Quadrature in time is the composite
trapezoid rule on the trajectory grid.  The weak time
derivative of the accumulated state is

    d/dt zeta(t) = b(0) y(t) + integral_0^t b'(t - s) y(s) ds,

which is what the growth estimates of the dissipation functional are
checked against.

``HistoryAccumulator`` evaluates both along a run, step by step: it
tabulates the kernel once on the grid and advances a geometric table
``b_j = b_0 r^j`` (exponential kernels, the identity as ``r = 1``, and
the zero table of its derivative) by an exact trapezoid recurrence in
O(1) per step; any other table is re-weighted against the stored
samples, O(k) at step k.  One accumulator holds the histories of all
members of a lockstep loop, each bit for bit its own: the recurrence
runs elementwise on the stack, the dot product member by member.

A state that stays put for a run of steps has a constant recurrence
increment, so a geometric table also looks ahead: ``held_values``
gives the history after each of the next pushes of the latest sample,
two elementwise operations a step, and ``push_held`` commits a number
of those pushes at once, with the bits of pushing one at a time.  Both
share the recurrence's arithmetic with ``push``.
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
    b_prime: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "convolution"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.kind == "identity":
            self.b, self.b_prime = np.ones_like, np.zeros_like
        elif self.b is None or self.b_prime is None:
            raise ValueError("convolution kernels need b and b_prime")


def identity_kernel(y0) -> KernelSpec:
    """Plain running time integral on top of the initial state: the
    kernel ``b = 1`` with ``b' = 0``."""
    return KernelSpec(kind="identity", y0=y0)


def convolution_kernel(b, b_prime, y0) -> KernelSpec:
    """Scalar convolution kernel ``b`` with derivative ``b_prime``."""
    return KernelSpec(kind="convolution", y0=y0, b=b, b_prime=b_prime)


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


class _TrapezoidConvolution:
    """Trapezoid sums ``I_k = sum_j w_j b_{k-j} y_j`` over one kernel table.

    A geometric table advances the exact recurrence
    ``I_k = r I_{k-1} + (tau/2 b_0) (r y_{k-1} + y_k)``, elementwise, so
    a stack of members advances as each member would alone; with
    ``r = 1`` every product by ``r`` is exact, so ``b = 1`` gives the
    plain running trapezoid sum bit for bit.  Other tables (including
    non-finite ones) take the dot product with the stored samples, one
    member at a time: a stacked product would sum in another order.
    """

    def __init__(self, table: np.ndarray, tau: float):
        self.table = table
        self.tau = tau
        self.ratio = _geometric_ratio(table)
        self._half_b0 = 0.5 * tau * table[0]
        self._sum = None
        self._ahead = None  # the rows of the last held() since the sums moved

    def start(self, shape: tuple) -> None:
        """Start the sums at zero for (B, n) stacks of samples."""
        self._sum = np.zeros(shape)

    def _increment(self, prev: Field, sample: Field) -> np.ndarray:
        """``(tau/2 b_0) (r y_{k-1} + y_k)``; a product by ``r = 1.0`` is
        exact, so it is skipped (here and in :meth:`_carry`)."""
        if self.ratio != 1.0:
            prev = self.ratio * prev
        return self._half_b0 * (prev + sample)

    def _carry(self, total: np.ndarray, increment: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        """``r I_{k-1} + increment`` into ``out``."""
        if self.ratio != 1.0:
            total = np.multiply(total, self.ratio, out=out)
        return np.add(total, increment, out=out)

    def advance(self, prev: Field, sample: Field) -> None:
        if self.ratio is not None:
            self._carry(self._sum, self._increment(prev, sample), out=self._sum)
            self._ahead = None

    def held(self, sample: Field, steps: int) -> np.ndarray:
        """The sums after each of ``steps`` further samples equal to
        ``sample``, the latest one, one row each, without advancing: the
        increment is the same every step, so a row costs two elementwise
        operations.  Geometric tables only.  The rows are kept for
        :meth:`advance_held` until the sums move."""
        increment = self._increment(sample, sample)
        out = np.empty((steps,) + self._sum.shape)
        total = self._sum
        for row in out:
            total = self._carry(total, increment, out=row)
        self._ahead = out
        return out

    def advance_held(self, sample: Field, steps: int) -> None:
        """:meth:`advance` by ``steps`` further samples equal to ``sample``,
        the latest one.  The rows of the last :meth:`held` serve as far as
        they reach; one step past them costs one more carry."""
        if self.ratio is None or not steps:
            return
        rows = self._ahead
        if rows is None or not len(rows) or steps > len(rows) + 1:
            rows = self.held(sample, steps)
        if steps > len(rows):
            self._carry(rows[-1], self._increment(sample, sample), out=self._sum)
        else:
            self._sum[...] = rows[steps - 1]
        self._ahead = None

    def at(self, samples: np.ndarray, k: int):
        """``I_k`` after samples ``0..k`` have been advanced; ``samples``
        holds one (steps, n) table per member."""
        if self.ratio is not None:
            return self._sum
        if k == 0:
            return np.zeros(self._sum.shape)
        w = _trapezoid_weights(k, self.tau) * self.table[k::-1]
        return np.stack([w @ member[: k + 1] for member in samples])


class HistoryAccumulator:
    """Incrementally maintained history state along a uniform grid.

    The kernel is tabulated once, at lags ``j * tau`` for
    ``j = 0..n_max``, and so is its derivative on the first call of
    ``derivative``.  Geometric tables (the identity kind, exponential
    kernels) update in O(1) per step; other kernels re-weight the stored
    samples, which costs O(k) at step k.

    A sample is a field, or a (B, n) stack of the fields of B members
    advanced in lockstep (one viscosity level each); every push has the
    shape of the first, and ``value`` and ``derivative`` return that
    shape.  Each member's history is what an accumulator of its own
    would hold, bit for bit.
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
        self._n_rows = n_max + 1
        # (members, n_max + 1, n), allocated by the first push; a field
        # is one member.
        self._samples = None
        self._count = 0
        self._table = _tabulate(kernel.b, self.tau * np.arange(self._n_rows))
        self._zeta = _TrapezoidConvolution(self._table, self.tau)
        self._slope = None  # the b' table, built by the first derivative()

    @property
    def n_samples(self) -> int:
        return self._count

    @property
    def time(self) -> float:
        return (self._count - 1) * self.tau

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
            self._samples = np.zeros((members, self._n_rows, n_nodes))
            self._zeta.start((members, n_nodes))
        elif sample.shape != self._shape:
            raise ValueError(f"sample has shape {sample.shape}, expected {self._shape}")
        if k >= self._n_rows:
            raise ValueError("accumulator is full")
        self._samples[:, k] = sample
        if k > 0:
            prev, cur = self._samples[:, k - 1], self._samples[:, k]
            self._zeta.advance(prev, cur)
            if self._slope is not None:
                self._slope.advance(prev, cur)
        self._count += 1

    def push_held(self, count: int) -> None:
        """Push the latest sample ``count`` more times, with the bits of
        ``count`` calls of :meth:`push`: one slice of samples, and the
        sums advanced by :meth:`held_values`' recurrence."""
        k = self._count
        if k == 0:
            raise ValueError("no samples pushed yet")
        if k + count > self._n_rows:
            raise ValueError("accumulator is full")
        latest = self._samples[:, k - 1]
        self._samples[:, k:k + count] = latest[:, None]
        for sums in (self._zeta, self._slope):
            if sums is not None:
                sums.advance_held(latest, count)
        self._count += count

    @property
    def geometric(self) -> bool:
        """Whether the kernel table advances by the O(1) recurrence, so
        :meth:`held_values` can look ahead more than one step."""
        return self._zeta.ratio is not None

    def value(self) -> Field:
        """Accumulated state at the time of the latest sample."""
        if self._count == 0:
            raise ValueError("no samples pushed yet")
        zeta = self.kernel.y0 + self._zeta.at(self._samples, self._count - 1)
        return zeta.reshape(self._shape)

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
        latest = self._samples[:, self._count - 1]
        ahead = self.kernel.y0 + self._zeta.held(latest, steps - 1)
        return np.concatenate([now[None], ahead.reshape((steps - 1,) + self._shape)])

    def derivative(self) -> Field:
        """Weak derivative of the accumulated state at the latest sample."""
        if self._count == 0:
            raise ValueError("no samples pushed yet")
        k = self._count - 1
        if self._slope is None:
            lags = self.tau * np.arange(self._n_rows)
            self._slope = _TrapezoidConvolution(
                _tabulate(self.kernel.b_prime, lags), self.tau
            )
            self._slope.start((self._samples.shape[0], self._samples.shape[2]))
            for j in range(k):
                self._slope.advance(self._samples[:, j], self._samples[:, j + 1])
        slope = self._table[0] * self._samples[:, k] + self._slope.at(self._samples, k)
        return slope.reshape(self._shape)
