"""Vanishing-viscosity sweeps and limit certification.

A sweep solves the same scenario over a decreasing viscosity schedule,
every level in one lockstep time loop
(:func:`~histris.viscous.solve_levels`), and reports consecutive
trajectory differences as Cauchy evidence.  The
finest-viscosity trajectory is the limit candidate; its certificate
checks the two defining properties of the limit evolution along the
discrete trajectory:

* stability: ``<force, v> <= potential(zeta, v)`` for every
  admissible rate ``v``, which holds exactly when the force lies in the
  nodal box of :func:`~histris.dissipation.force_box`,
* balance: ``<force, rate> = potential(zeta, rate)`` along the
  trajectory's own rate,

where ``force`` is the negative energy gradient and ``zeta`` the
accumulated history at the start of each step.  :func:`replay` reads
both off a finished trajectory in one pass, in blocks of steps: the
rate, the viscosity-free force and the force box, one row a step, the
histories from :meth:`~histris.history.HistoryAccumulator.follow`.  The
certificate and :func:`~histris.verify.dual_equivalence` reduce the
blocks row by row.  Both residuals are relative and inherit an
O(eps + tau) floor from the discretization, so certificates carry an
explicit tolerance.  The stability residual is the worst nodal box
slack read as a density (divided by the lumped mass), relative to
``1 + |force| + upper`` in the same units.  A non-finite residual at
any step fails the certificate.

Rate independence is probed by solving a time-reparametrized copy of
the scenario and comparing against the reparametrized base solution.
The comparison is meaningful for dissipation weights that stay constant
along the run; for genuinely history-dependent weights the accumulation
itself is not reparametrization invariant, and for large viscosity the
discrepancy measures how strongly the regularization breaks rate
independence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .history import HistoryAccumulator
# ``h1_norm`` and ``potential`` are unused here but stay importable: the
# benchmark's layer tracer (bench/tracer.py) patches this module's names.
from .spatial import h1_norm
from .dissipation import _potential_at, force_box, potential
from .trajectory import Trajectory, c_norm, c_norm_diff, h1_time_norm, step_blocks
from .viscous import (Load, LoadTerm, Scenario, _balance_residuals, _force,
                      solve_levels, solve_viscous)

__all__ = [
    "DEFAULT_EPS_LEVELS",
    "LimitCertificate",
    "replay",
    "certify_limit",
    "VVResult",
    "vv_sweep",
    "RateIndependenceReport",
    "check_rate_independence",
]

# Default viscosity schedule: geometric halving from 0.1, eight levels.
DEFAULT_EPS_LEVELS = tuple(0.1 * 0.5**k for k in range(8))


@dataclass
class LimitCertificate:
    tolerance: float
    max_stability_violation: float
    max_balance_residual: float
    passed: bool


def replay(scenario: Scenario, traj: Trajectory):
    """Yield ``(rate, force, lower, upper)`` for the blocks of
    :func:`~histris.trajectory.step_blocks` (steps of n entries) of
    ``traj``, as (m, n) stacks with one row a step.

    ``rate`` is the backward difference ``(q_{k+1} - q_k) / tau``,
    ``force`` the viscosity-free ``driving_force(t_{k+1}, q_{k+1})``,
    and ``(lower, upper)`` the :func:`force_box` at the history where
    the step starts.  The history advances in step order; each block
    makes one ``force_box`` call, one load evaluation and one Riesz
    product, and reads its histories from one
    :meth:`~histris.history.HistoryAccumulator.follow`, with the bits of
    pushing the samples one at a time.
    """
    mesh = scenario.mesh
    acc = HistoryAccumulator(scenario.kernel, traj.tau, traj.n_steps)
    acc.push(traj.values[0])
    for block in step_blocks(traj.n_steps, mesh.n_nodes):
        start, stop = block.start, block.stop
        zeta = acc.follow(traj.values, stop)
        q = traj.values[start:stop + 1]
        loads = scenario.load.values(traj.times[start + 1:stop + 1])
        yield (np.diff(q, axis=0) / traj.tau, _force(scenario, loads, q[1:]),
               *force_box(scenario.dissipation, mesh, zeta))


def certify_limit(scenario: Scenario, traj: Trajectory, *,
                  tol: float = 1e-2) -> LimitCertificate:
    """Check stability and balance of a trajectory as a limit candidate."""
    m = scenario.mesh.lumped_mass
    stab, bal = [np.zeros(0)], [np.zeros(0)]
    for rate, omega, lower, upper in replay(scenario, traj):
        bal.append(_balance_residuals(
            np.vecdot(omega, rate), _potential_at(scenario.dissipation, upper, rate)))
        slack = np.maximum(omega - upper, lower - omega) / m
        stab.append((slack / (1.0 + np.abs(omega / m) + upper / m)).max(axis=1))

    # max() propagates NaN, and NaN <= tol is False.
    max_stab = float(np.concatenate(stab).max(initial=0.0))
    max_bal = float(np.concatenate(bal).max(initial=0.0))
    return LimitCertificate(
        tolerance=float(tol),
        max_stability_violation=max_stab,
        max_balance_residual=max_bal,
        passed=bool(max_stab <= tol and max_bal <= tol),
    )


@dataclass
class VVResult:
    eps_values: list
    trajectories: list
    reports: list
    c_diffs: list
    h1_diffs: list
    certificate: LimitCertificate | None

    @property
    def limit(self) -> Trajectory:
        """Finest-viscosity trajectory, the limit candidate."""
        return self.trajectories[-1]


def vv_sweep(scenario: Scenario, eps_values: Sequence[float] | None = None, *,
             certify: bool = True, certificate_tol: float = 1e-2,
             seed: int = 0) -> VVResult:
    """Solve over a decreasing viscosity schedule and certify the finest.

    Every level advances in one lockstep time loop
    (:func:`~histris.viscous.solve_levels`); each trajectory and report
    is bit for bit what :func:`~histris.viscous.solve_viscous` gives at
    that level.  ``seed`` has no effect (no random numbers are drawn); the
    benchmark's sweep workload, its only caller, still passes it.
    """
    if eps_values is None:
        eps_values = DEFAULT_EPS_LEVELS
    eps_values = [float(e) for e in eps_values]
    if eps_values != sorted(eps_values, reverse=True):
        raise ValueError("the viscosity schedule must decrease")

    mesh = scenario.mesh
    trajectories, reports = zip(*solve_levels(scenario, eps_values))
    c_diffs = []
    h1_diffs = []
    for prev, traj in zip(trajectories, trajectories[1:]):
        c_diffs.append(c_norm_diff(mesh, traj, prev))
        diff = Trajectory(times=traj.times, values=traj.values - prev.values)
        h1_diffs.append(h1_time_norm(mesh, diff))

    certificate = None
    if certify:
        certificate = certify_limit(scenario, trajectories[-1], tol=certificate_tol)
    return VVResult(
        eps_values=eps_values,
        trajectories=list(trajectories),
        reports=list(reports),
        c_diffs=c_diffs,
        h1_diffs=h1_diffs,
        certificate=certificate,
    )


@dataclass
class RateIndependenceReport:
    discrepancy: float
    base_sup_norm: float


def _mapped_load(load: Load, time_map: Callable[[np.ndarray], np.ndarray]) -> Load:
    """``load`` precomposed with a time reparametrization: each term's
    profile at ``time_map(t)``, on arrays of times."""
    return Load([LoadTerm(lambda t, f=term.time_profile: f(time_map(t)), term.space_dual)
                 for term in load.terms])


def check_rate_independence(scenario: Scenario,
                            time_map: Callable[[np.ndarray], np.ndarray],
                            new_horizon: float, *,
                            eps: float) -> RateIndependenceReport:
    """Compare the solve of a reparametrized scenario with the
    reparametrized base solve.

    ``time_map`` takes a 1-D array of times and returns their images
    with numpy semantics, as a load's time profile does
    (:class:`~histris.viscous.LoadTerm`).  It must be nondecreasing with
    ``time_map(0) = 0`` and ``time_map(new_horizon) <= horizon``.  Both
    solves are implicit and warm-started, with the scenario's number of
    steps.
    """
    times2 = np.linspace(0.0, float(new_horizon), scenario.n_steps + 1)
    mapped = np.broadcast_to(np.asarray(time_map(times2), dtype=float), times2.shape)
    if not np.isfinite(mapped).all():
        raise ValueError("time map must be finite")
    if abs(mapped[0]) > 1e-12:
        raise ValueError(f"time map must start at zero, got {mapped[0]}")
    if np.any(np.diff(mapped) < -1e-12):
        raise ValueError("time map must be nondecreasing")
    if mapped[-1] > scenario.horizon * (1.0 + 1e-12):
        raise ValueError(
            f"time map ends at {mapped[-1]}, beyond the horizon {scenario.horizon}"
        )

    scn2 = replace(
        scenario,
        load=_mapped_load(scenario.load, time_map),
        horizon=float(new_horizon),
    )
    base_traj, _ = solve_viscous(scenario, eps)
    traj2, _ = solve_viscous(scn2, eps)

    ref = Trajectory(times=times2,
                     values=np.array([base_traj.sample(t) for t in mapped]))
    return RateIndependenceReport(
        discrepancy=c_norm_diff(scenario.mesh, traj2, ref),
        base_sup_norm=c_norm(scenario.mesh, ref),
    )
