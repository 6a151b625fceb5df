"""Quantitative verification experiments.

Each experiment exercises one of the solver's claimed estimates on
randomized inputs and returns a small result object with raw rows plus
a pass flag:

* ``uniform_bound_experiment``: the H^1-in-time norm of the solution,
  divided by the H^1-in-time dual norm of the load, must stay within a
  fixed factor across the whole viscosity schedule (the a priori bound
  does not degenerate as the viscosity vanishes).
* ``lipschitz_experiment``: the load-to-solution Lipschitz ratio
  (sup-in-time H^1 distance of solutions over the W^{1,1} dual distance
  of loads) must stay bounded, with the worst ratio per viscosity level
  varying by at most a fixed factor across levels.
* ``uniqueness_probe``: implicit and explicit integrators with warm and
  cold inner starts must agree on the same problem.
* ``history_lipschitz_check``: over each time step, the increment of
  the dissipation potential along the accumulated history is dominated
  by the four-point constant times the L^2 increment of the history
  times the rate norm (the four-point estimate with one rate zero,
  exact in time).
* ``dual_equivalence``: along a solved trajectory the force inclusion
  can be read in two equivalent ways; the dual reading is a
  complementarity system between the rate and the force slack, checked
  both against the viscous force (exact at solver precision) and the
  viscosity-free force (residual vanishing with eps and tau).

Randomness is seeded; experiments are deterministic given their config.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# ``potential``, ``dual_norm`` and ``riesz_apply`` are unused here but stay
# importable: the benchmark's layer tracer (bench/tracer.py) patches them.
from .dissipation import (
    Containment,
    Dissipation,
    Fatigue,
    _potential_at,
    potential,
    subdiff_zero_contains,
    threshold_dual,
)
from .history import (
    HistoryAccumulator,
    KernelSpec,
    identity_kernel,
)
from .spatial import (
    Mesh,
    assemble_dual,
    build_mesh,
    dual_norm,
    h1_norm,
    riesz_apply,
)
from .trajectory import (Trajectory, c_norm_diff, h1_time_norm, quad_forms,
                         row_norms, trapezoid)
from .viscous import Load, LoadTerm, Scenario, solve_viscous
from .vv import replay

__all__ = [
    "UNIQUENESS_GAP_TOL",
    "DUAL_RESIDUAL_TOL",
    "DUAL_SLOPE_MIN",
    "HISTORY_ROUNDING_ULPS",
    "ExperimentConfig",
    "smooth_fatigue",
    "random_load",
    "load_h1_dual_norm",
    "load_w11_diff_norm",
    "CompatReport",
    "compatibility_check",
    "BoundsResult",
    "uniform_bound_experiment",
    "LipschitzResult",
    "lipschitz_experiment",
    "ProbeResult",
    "uniqueness_probe",
    "HistoryIncrementReport",
    "history_lipschitz_check",
    "DualEquivalenceResult",
    "dual_equivalence",
    "dual_equivalence_slope",
]

# Default pass thresholds used by the command-line verification front
# end: worst admissible integrator disagreement, exact complementarity
# tolerance of the viscous reading, and minimal convergence order of the
# viscosity-free reading.
UNIQUENESS_GAP_TOL = 3e-2
DUAL_RESIDUAL_TOL = 1e-6
DUAL_SLOPE_MIN = 0.9

# Rounding allowance of the history check, in ulps of the two potentials
# per node of their dot products.
HISTORY_ROUNDING_ULPS = 4

# Step counts over which dual_equivalence_slope fits its order by default.
DUAL_REFINEMENTS = (125, 250, 500, 1000)

# Most steps the uniqueness probe's explicit cross-check may take.
_EXPLICIT_STEP_LIMIT = 10**6


def smooth_fatigue(floor: float = 0.4, amp: float = 0.6) -> Dissipation:
    """Smooth softening threshold ``w(z) = floor + amp / (1 + z^2)``.

    The derivative is bounded and square integrable, which is what the
    uniqueness experiments assume about the weight.
    """
    if not (0 <= floor < math.inf and 0 <= amp < math.inf):  # NaN fails
        raise ValueError("floor and amp must be finite and nonnegative")

    def weight(z):
        return floor + amp / (1.0 + np.square(z))

    lipschitz = amp * 9.0 / (8.0 * math.sqrt(3.0))
    return Fatigue(weight=weight, lipschitz=lipschitz)


@dataclass
class ExperimentConfig:
    """Shared knobs of the verification experiments.

    ``jobs`` has no effect: the experiments run their solves one after
    another, in task order.  The benchmark's experiment workload, its only
    caller outside the tests, still passes it.
    """

    n_nodes: int = 33
    length: float = 1.0
    alpha: float = 1.0
    horizon: float = 1.0
    n_steps: int = 1000
    eps_values: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    n_loads: int = 10
    n_pairs: int = 20
    load_cap: float = 6.0
    n_load_terms: int = 3
    spread_cap: float = 2.0
    seed: int = 0
    jobs: int = 1
    dissipation: Dissipation | None = None
    kernel: KernelSpec | None = None

    def build(self):
        """Materialize mesh, dissipation and kernel."""
        mesh = build_mesh(self.n_nodes, self.length)
        diss = self.dissipation if self.dissipation is not None else smooth_fatigue()
        kernel = (
            self.kernel
            if self.kernel is not None
            else identity_kernel(np.zeros(mesh.n_nodes))
        )
        return mesh, diss, kernel

    def scenario(self, mesh: Mesh, diss, kernel, load) -> Scenario:
        return Scenario(
            mesh=mesh,
            alpha=self.alpha,
            load=load,
            kernel=kernel,
            dissipation=diss,
            horizon=self.horizon,
            n_steps=self.n_steps,
        )


def load_h1_dual_norm(mesh: Mesh, load, times: np.ndarray) -> float:
    """Discrete H^1-in-time norm of a load in the dual H^1 spatial norm."""
    times = np.asarray(times, dtype=float)
    return _h1_dual_norm(mesh, load.values(times), load, times)


def _h1_dual_norm(mesh: Mesh, vals: np.ndarray, load, times: np.ndarray) -> float:
    """:func:`load_h1_dual_norm` given the load's values at ``times``."""
    dual = mesh.riesz.inverse
    total = quad_forms(dual, vals) + quad_forms(dual, load.derivatives(times))
    return math.sqrt(max(trapezoid(total, times[1] - times[0]), 0.0))


def load_w11_diff_norm(mesh: Mesh, load_a, load_b, times: np.ndarray) -> float:
    """Discrete W^{1,1}-in-time dual norm of the difference of two loads.

    Values enter by the trapezoid rule; the derivative part is the total
    variation of the sampled difference (sum of dual norms of the
    increments).
    """
    times = np.asarray(times, dtype=float)
    dual = mesh.riesz.inverse
    diffs = load_a.values(times) - load_b.values(times)
    value_part = trapezoid(row_norms(dual, diffs), times[1] - times[0])
    tv_part = row_norms(dual, np.diff(diffs, axis=0)).sum()
    return float(value_part + tv_part)


def random_load(mesh: Mesh, horizon: float, rng, *, n_terms: int = 3,
                cap: float = 6.0, threshold0: np.ndarray | None = None) -> Load:
    """Draw a smooth random load, rescaled under the norm cap.

    Terms are products of ``sin`` time profiles (vanishing at t = 0, so
    the load is compatible with any admissible initial state) and smooth
    positive-leaning space profiles.  If ``threshold0`` is given, up to
    50 draws are made until the load exceeds that initial threshold
    somewhere on the grid by a factor of 1.8; the best candidate is kept
    if no draw succeeds.  Keeping that margin comfortably above 1 and the
    frequencies low (one or two half-periods) makes the response regime
    insensitive to the viscosity level, which the spread experiments
    compare.
    """
    probe_times = np.linspace(0.0, horizon, 201)
    best = None
    best_margin = -math.inf
    for _ in range(50):
        terms = []
        for _ in range(n_terms):
            freq = int(rng.integers(1, 3))
            amp = float(rng.uniform(0.4, 1.0))
            c0 = float(rng.uniform(0.6, 1.2))
            c1 = float(rng.uniform(-0.4, 0.4))
            c2 = float(rng.uniform(-0.3, 0.3))
            profile = (
                c0
                + c1 * np.cos(math.pi * mesh.nodes / mesh.length)
                + c2 * mesh.nodes / mesh.length
            )
            omega = math.pi * freq / horizon
            terms.append(
                LoadTerm(
                    time_profile=lambda t, w=omega: np.sin(w * t),
                    space_dual=amp * assemble_dual(mesh, profile),
                    time_derivative=lambda t, w=omega: w * np.cos(w * t),
                )
            )
        load = Load(terms)
        vals = load.values(probe_times)
        norm = _h1_dual_norm(mesh, vals, load, probe_times)
        target = cap * float(rng.uniform(0.55, 0.95))
        load = load.scaled(target / norm)
        if threshold0 is None:
            return load
        positive = threshold0 > 0
        got = math.inf
        if positive.any():
            vals = vals[:, positive] * (target / norm)  # the scaled load's values
            got = float((vals / threshold0[positive]).max())
        if got >= 1.8:
            return load
        if got > best_margin:
            best_margin = got
            best = load
    return best


@dataclass
class CompatReport(Containment):
    """The initial load's :class:`~histris.dissipation.Containment`, said
    in words."""

    message: str


def compatibility_check(scenario: Scenario) -> CompatReport:
    """Check that the initial load is an admissible force for the
    initial accumulated state (otherwise the evolution starts with a
    jump that the viscous regularization has to absorb), with the
    default tolerance of :func:`subdiff_zero_contains`.  A load that is
    not finite at t = 0 fails, and its message says the solve will."""
    load = scenario.load.value(0.0)
    res = subdiff_zero_contains(
        scenario.dissipation, scenario.mesh, scenario.kernel.y0, load,
    )
    non_finite = np.count_nonzero(~np.isfinite(load))
    if non_finite:
        msg = (f"initial load is not finite at {non_finite} node(s), so the "
               "solve will fail")
    elif res.ok:
        msg = "initial load is admissible for the initial history state"
    else:
        msg = (
            "initial load exceeds the dissipation threshold of the initial "
            f"history state at {len(res.violating_nodes)} node(s), worst at "
            f"node {res.worst_node} by {res.worst_violation:.3e}; the solve "
            "will start with a viscous transient"
        )
    return CompatReport(**vars(res), message=msg)


@dataclass
class BoundsResult:
    rows: list
    per_load_spread: list
    max_spread: float
    spread_cap: float
    passed: bool


def uniform_bound_experiment(cfg: ExperimentConfig) -> BoundsResult:
    """Solution-norm to load-norm ratios across the viscosity schedule."""
    mesh, diss, kernel = cfg.build()
    rng = np.random.default_rng(cfg.seed)
    w0 = threshold_dual(diss, mesh, kernel.y0)
    loads = [
        random_load(mesh, cfg.horizon, rng, n_terms=cfg.n_load_terms,
                    cap=cfg.load_cap, threshold0=w0)
        for _ in range(cfg.n_loads)
    ]
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    load_norms = [load_h1_dual_norm(mesh, load, times) for load in loads]

    rows = []
    spreads = []
    for i in range(cfg.n_loads):
        scn = cfg.scenario(mesh, diss, kernel, loads[i])
        ratios = []
        for eps in cfg.eps_values:
            traj, report = solve_viscous(scn, eps)
            traj_norm = h1_time_norm(mesh, traj)
            ratio = traj_norm / load_norms[i]
            rows.append({
                "load": i,
                "eps": eps,
                "ratio": ratio,
                "solution_norm": traj_norm,
                "load_norm": load_norms[i],
                "balance_residual": report.max_balance_residual,
            })
            ratios.append(ratio)
        low = min(ratios)
        spreads.append(math.inf if low <= 0 else max(ratios) / low)
    max_spread = max(spreads)
    return BoundsResult(
        rows=rows,
        per_load_spread=spreads,
        max_spread=float(max_spread),
        spread_cap=cfg.spread_cap,
        passed=bool(max_spread <= cfg.spread_cap),
    )


@dataclass
class LipschitzResult:
    rows: list
    eps_values: list
    max_ratio_per_eps: list
    cross_eps_spread: float
    all_finite: bool
    spread_cap: float
    passed: bool


def lipschitz_experiment(cfg: ExperimentConfig) -> LipschitzResult:
    """Load-to-solution Lipschitz ratios for random load pairs.

    The a priori estimate promises a single constant for all viscosity
    levels, so the check is on the worst ratio per level: across levels
    those maxima may vary by at most ``spread_cap``.
    """
    mesh, diss, kernel = cfg.build()
    rng = np.random.default_rng(cfg.seed + 1)
    w0 = threshold_dual(diss, mesh, kernel.y0)
    pairs = []
    for _ in range(cfg.n_pairs):
        base = random_load(mesh, cfg.horizon, rng, n_terms=cfg.n_load_terms,
                           cap=0.7 * cfg.load_cap, threshold0=w0)
        bump = random_load(mesh, cfg.horizon, rng, n_terms=1,
                           cap=0.25 * cfg.load_cap)
        other = Load(base.terms + bump.terms)
        pairs.append((base, other))
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    diff_norms = [
        load_w11_diff_norm(mesh, a, b, times) for a, b in pairs
    ]

    rows = []
    per_eps = {eps: [] for eps in cfg.eps_values}
    for i in range(cfg.n_pairs):
        for eps in cfg.eps_values:
            traj_a, traj_b = (
                solve_viscous(cfg.scenario(mesh, diss, kernel, load), eps)[0]
                for load in pairs[i]
            )
            gap = c_norm_diff(mesh, traj_a, traj_b)
            ratio = gap / diff_norms[i]
            rows.append({
                "pair": i,
                "eps": eps,
                "ratio": ratio,
                "solution_gap": gap,
                "load_gap": diff_norms[i],
            })
            per_eps[eps].append(ratio)

    max_per_eps = [max(per_eps[eps]) for eps in cfg.eps_values]
    low = min(max_per_eps)
    cross = math.inf if low <= 0 else max(max_per_eps) / low
    all_finite = all(math.isfinite(r["ratio"]) for r in rows)
    return LipschitzResult(
        rows=rows,
        eps_values=list(cfg.eps_values),
        max_ratio_per_eps=max_per_eps,
        cross_eps_spread=float(cross),
        all_finite=all_finite,
        spread_cap=cfg.spread_cap,
        passed=bool(all_finite and cross <= cfg.spread_cap),
    )


@dataclass
class ProbeResult:
    gaps: dict
    max_gap: float
    explicit_refine: int


def uniqueness_probe(scenario: Scenario, eps: float) -> ProbeResult:
    """Solve one problem four ways and report the worst pairwise gap.

    Variants: implicit stepping with warm and cold inner starts, and the
    explicit projection integrator (on a refined grid satisfying its
    stability requirement) with warm and cold inner starts.  All gaps
    are sup-in-time H^1 distances on the coarse grid.  An explicit grid
    of more than ``10**6`` steps is refused (``ValueError``) before any solve.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    mesh = scenario.mesh
    tau = scenario.tau
    # Clamped so that ceil stays finite: a clamped refinement is over the limit.
    refine = max(1, math.ceil(min(10.0 * tau / eps - 1e-12, _EXPLICIT_STEP_LIMIT + 1)))
    if scenario.n_steps * refine > _EXPLICIT_STEP_LIMIT:
        raise ValueError(f"eps={eps:g} with tau={tau:g} needs about "
                         f"{scenario.n_steps * 10.0 * tau / eps:.3g} explicit steps "
                         f"(tau <= eps/10), more than {_EXPLICIT_STEP_LIMIT}")
    scn_exp = scenario.with_steps(scenario.n_steps * refine)

    times = scenario.times()

    def run(scn, stride, **kwargs):
        traj, _ = solve_viscous(scn, eps, **kwargs)
        return Trajectory(times=times, values=traj.values[::stride])

    runs = {
        "implicit-warm": run(scenario, 1, warm_start=True),
        "implicit-cold": run(scenario, 1, warm_start=False),
        "explicit-warm": run(scn_exp, refine, method="explicit", warm_start=True),
        "explicit-cold": run(scn_exp, refine, method="explicit", warm_start=False),
    }

    gaps = {f"{a} vs {b}": c_norm_diff(mesh, runs[a], runs[b])
            for a, b in itertools.combinations(runs, 2)}
    return ProbeResult(gaps=gaps, max_gap=max(gaps.values()), explicit_refine=refine)


@dataclass
class HistoryIncrementReport:
    rows: list
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0  # NaN fails


def history_lipschitz_check(scenario: Scenario,
                            traj: Trajectory) -> HistoryIncrementReport:
    """Increments of the potential along the history versus their bound.

    ``Psi(zeta, 0) = 0``, so the four-point estimate with one rate zero
    bounds the potential's increment over each step, for the history
    values ``zeta_k`` and ``zeta_{k+1}`` at its ends and a rate ``v``:

        |Psi(zeta_{k+1}, v) - Psi(zeta_k, v)|
            <= four_point_constant * ||zeta_{k+1} - zeta_k||_{L2} * ||v||_{H1}.

    No quadrature in time enters, and the estimate holds exactly; it is
    stricter than integrating a bound on the history's time derivative
    over the step, which is never smaller.  For three trajectory rates,
    at the first, middle and last step, each step gets a row with its
    increment, bound and ratio.
    The ratio is ``max(increment - allowance, 0) / bound`` (0 where both
    vanish), and the check passes when it is at most 1 at every step.
    The allowance, ``HISTORY_ROUNDING_ULPS`` ulps per node of
    ``|Psi_k| + |Psi_{k+1}|``, covers the rounding of the potentials'
    dot products.  It scales with the potentials, not with the step:
    increments shrink with tau, so an absolute tolerance would pass a
    wrong constant on fine grids.  The histories come from one
    :meth:`~histris.history.HistoryAccumulator.follow` of the trajectory;
    the check needs a step.
    """
    mesh = scenario.mesh
    diss = scenario.dissipation
    steps = traj.n_steps
    if steps < 1:
        raise ValueError(f"the history check needs at least 1 step, got {steps}")
    rates = traj.rates()

    rate_indices = sorted(
        {int(round(x)) for x in np.linspace(0, steps - 1, 3)}
    )
    acc = HistoryAccumulator(scenario.kernel, traj.tau, steps)
    acc.push(traj.values[0])
    zetas = np.vstack([acc.follow(traj.values, steps), acc.value()])
    gaps = row_norms(mesh.mass, np.diff(zetas, axis=0))
    thresholds = threshold_dual(diss, mesh, zetas)
    rounding = HISTORY_ROUNDING_ULPS * mesh.n_nodes * np.finfo(float).eps

    rows, ratios = [], []
    for j in rate_indices:
        rate = rates[j]
        pots = _potential_at(diss, thresholds, rate)
        increment = np.abs(np.diff(pots))
        bound = diss.four_point_constant * gaps * h1_norm(mesh, rate)
        allowance = rounding * (np.abs(pots[:-1]) + np.abs(pots[1:]))
        excess = np.maximum(increment - allowance, 0.0)
        with np.errstate(divide="ignore"):  # an excess over a zero bound is inf
            ratio = np.divide(excess, bound, out=np.zeros(steps), where=excess != 0.0)
        rows += [{"rate_index": j, "time": t, "increment": d, "bound": b, "ratio": r}
                 for t, d, b, r in zip(traj.times[1:].tolist(), increment.tolist(),
                                       bound.tolist(), ratio.tolist())]
        ratios.append(ratio)
    # max() propagates NaN, and NaN <= 1 is False.
    return HistoryIncrementReport(rows=rows,
                                  max_ratio=float(np.concatenate(ratios).max()))


@dataclass
class DualEquivalenceResult:
    """Residuals of the primal and dual readings of the force inclusion."""

    primal_balance: float
    viscous_complementarity: float
    viscous_feasibility: float
    limit_complementarity: float
    limit_feasibility: float
    rate_admissibility: float
    eps: float
    tau: float

    @property
    def viscous_residual(self) -> float:
        return max(
            self.viscous_complementarity,
            self.viscous_feasibility,
            self.rate_admissibility,
        )

    @property
    def limit_residual(self) -> float:
        return max(self.limit_complementarity, self.limit_feasibility)


def _inclusion_defects(force, rate, lower, upper):
    """``(feasibility, complementarity)`` of each step (row) of a block.

    Feasibility is the worst nodal excess of the force over its box.
    Where the rate is nonzero the force must sit on the bound it moves
    towards; complementarity is the worst speed-weighted distance from
    that bound.
    """
    feas = np.maximum(force - upper, lower - force).max(axis=1)
    bound = np.where(rate < 0.0, lower, upper)
    comp = np.multiply(np.abs(rate), np.abs(bound - force),
                       out=np.zeros(rate.shape), where=rate != 0.0)
    return np.stack([feas, comp.max(axis=1, initial=0.0)], axis=1)


def dual_equivalence(scenario: Scenario, eps: float) -> DualEquivalenceResult:
    """Solve, then re-read the force inclusion as complementarity.

    For the fatigue family: the rate must be nonnegative, the force must
    stay below the threshold, and their product must vanish nodally.
    For weighted l1: the force sits in the weight box and is sign-aligned
    with the rate on its support.  The steps come in blocks from
    :func:`~histris.vv.replay`.  The check runs once against the
    viscosity-free force it yields, whose residual carries the
    O(eps + tau) defect of the limit reading, and once against the
    viscous force ``force - eps * Riesz(rate)`` (exact at solver
    tolerance).
    """
    traj, report = solve_viscous(scenario, eps)
    visc, lim, adm = [], [], []
    for rate, force, lower, upper in replay(scenario, traj):
        visc_force = force - eps * scenario.mesh.riesz.apply_rows(rate)
        visc.append(_inclusion_defects(visc_force, rate, lower, upper))
        lim.append(_inclusion_defects(force, rate, lower, upper))
        adm.append((-rate).max(axis=1))

    visc_feas, visc_comp = np.max(np.concatenate(visc), axis=0)
    lim_feas, lim_comp = np.max(np.concatenate(lim), axis=0)
    rate_adm = (np.fmax.reduce(np.concatenate(adm), initial=-math.inf)  # NaN skipped
                if scenario.dissipation.one_sided else 0.0)
    return DualEquivalenceResult(
        primal_balance=report.max_balance_residual,
        viscous_complementarity=float(visc_comp),
        viscous_feasibility=float(visc_feas),
        limit_complementarity=float(lim_comp),
        limit_feasibility=float(lim_feas),
        rate_admissibility=float(rate_adm),
        eps=float(eps),
        tau=float(scenario.tau),
    )


def dual_equivalence_slope(scenario: Scenario,
                           n_steps_list: Sequence[int] = DUAL_REFINEMENTS):
    """Convergence order in tau of the limit-reading residual.

    Viscosity is coupled to the step (eps = tau) so the defect of the
    viscosity-free complementarity must vanish at first order.  Returns
    ``(taus, residuals, slope)``; fewer than two distinct step counts
    raise ``ValueError``.
    """
    if len({int(n) for n in n_steps_list}) < 2:
        raise ValueError("an order needs at least two distinct step counts, "
                         f"got {list(n_steps_list)}")
    taus = []
    residuals = []
    for n in n_steps_list:
        scn = scenario.with_steps(int(n))
        tau = scn.tau
        res = dual_equivalence(scn, eps=tau)
        taus.append(tau)
        residuals.append(max(res.limit_residual, 1e-300))
    slope = float(
        np.polyfit(np.log(np.asarray(taus)), np.log(np.asarray(residuals)), 1)[0]
    )
    return np.asarray(taus), np.asarray(residuals), slope
