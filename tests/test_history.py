import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from histris.errors import NumericalFailure
from histris.expressions import Expression
from histris.history import (
    HistoryAccumulator,
    KernelSpec,
    convolution_kernel,
    identity_kernel,
)
from histris.verify import smooth_fatigue
from histris.viscous import solve_viscous

from helpers import count_carries, scalar_scenario
from oracles import convolution_history_ramp, history_eval


def _ramp_samples(n_steps, n_nodes=4, horizon=1.0):
    times = np.linspace(0.0, horizon, n_steps + 1)
    values = np.outer(times, np.ones(n_nodes))  # y(s) = s at every node
    return times, values


def test_identity_constant_is_exact():
    # trapezoid quadrature integrates constants exactly
    kernel = identity_kernel(np.full(3, 0.5))
    times = np.linspace(0.0, 2.0, 11)
    values = np.tile([1.0, -2.0, 3.0], (11, 1))
    out = history_eval(kernel, times, values, 10)
    assert_allclose(out, [0.5 + 2.0, 0.5 - 4.0, 0.5 + 6.0], atol=1e-14)


def test_identity_linear_is_exact():
    # and linears: integral of s over [0, t] is t^2/2
    kernel = identity_kernel(np.zeros(4))
    times, values = _ramp_samples(20)
    for k in (5, 13, 20):
        t = times[k]
        assert_allclose(history_eval(kernel, times, values, k),
                        np.full(4, 0.5 * t * t), atol=1e-14)


def test_index_zero_returns_initial_state():
    kernel = identity_kernel(np.array([7.0, -1.0]))
    times, values = _ramp_samples(8, n_nodes=2)
    assert_allclose(history_eval(kernel, times, values, 0), [7.0, -1.0])


def test_convolution_matches_closed_form_second_order():
    # kernel exp(-r) against y(s) = s has an elementary antiderivative
    y0 = 0.25
    errs = []
    for n_steps in (50, 100):
        kernel = convolution_kernel(lambda r: np.exp(-r), np.full(2, y0))
        times, values = _ramp_samples(n_steps, n_nodes=2)
        got = history_eval(kernel, times, values, n_steps)
        want = convolution_history_ramp(1.0, y0)
        errs.append(abs(got[0] - want))
        # trapezoid bound: |E| <= h^2 max|f''| / 12 with max|f''| = 3
        assert_allclose(got, np.full(2, want), atol=0.25 / n_steps ** 2)
    # halving the step should cut the trapezoid error about fourfold
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_accumulator_agrees_with_direct_evaluation(rng):
    times = np.linspace(0.0, 1.0, 41)
    values = rng.standard_normal((41, 3))

    ident = identity_kernel(rng.standard_normal(3))
    acc = HistoryAccumulator(ident, times[1] - times[0], 3, 40)
    for k in range(41):
        acc.push(values[k])
        assert_allclose(acc.value(), history_eval(ident, times, values, k),
                        atol=1e-14)

    conv = convolution_kernel(lambda r: np.exp(-0.5 * r), rng.standard_normal(3))
    acc = HistoryAccumulator(conv, times[1] - times[0], 3, 40)
    for k in range(41):
        acc.push(values[k])
        assert_allclose(acc.value(), history_eval(conv, times, values, k),
                        atol=1e-12)


def test_accumulator_capacity_and_time():
    acc = HistoryAccumulator(identity_kernel(np.zeros(1)), 0.5, 1, 2)
    with pytest.raises(ValueError, match="no samples"):
        acc.samples
    acc.push(np.zeros(1))
    acc.push(np.ones(1))
    assert acc.n_samples == 2
    assert acc.samples.tolist() == [[0.0], [1.0]]
    assert not acc.samples.flags.writeable
    assert acc.time == pytest.approx(0.5)
    acc.push(np.ones(1))
    with pytest.raises(ValueError):
        acc.push(np.ones(1))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="nope", y0=np.zeros(2))
    with pytest.raises(ValueError):
        KernelSpec(kind="convolution", y0=np.zeros(2))  # missing kernel
    ident = identity_kernel(np.zeros(2))
    assert ident.kind == "identity"
    conv = convolution_kernel(lambda r: r, np.zeros(2))
    assert conv.kind == "convolution"
    for tau in (0.0, -0.5, math.nan, math.inf):  # NaN used to pass
        with pytest.raises(ValueError, match="tau must be positive"):
            HistoryAccumulator(ident, tau, 2, 4)


# Kernels, and whether the accumulator may advance their tables by the
# geometric recurrence.
KERNELS = {
    "exp(-2t)": (lambda t: np.exp(-2.0 * t), True),
    "exp(+t)": (lambda t: np.exp(t), True),
    "1/(1+t)": (lambda t: 1.0 / (1.0 + t), False),
    # geometric to 1e-10 only: the recurrence would be off by more than that
    "exp(-2t+1e-9t^2)": (lambda t: np.exp(-2.0 * t + 1e-9 * t * t), False),
    "cos(3t)": (lambda t: np.cos(3.0 * t), False),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_accumulator_matches_the_oracle_step_by_step(rng, name):
    b, geometric = KERNELS[name]
    n_steps = 300
    times = np.linspace(0.0, 3.0, n_steps + 1)
    values = rng.standard_normal((n_steps + 1, 3))
    kernel = convolution_kernel(b, rng.standard_normal(3))
    acc = HistoryAccumulator(kernel, times[1] - times[0], 3, n_steps)
    assert (acc._zeta.ratio is not None) == geometric
    for k in range(n_steps + 1):
        acc.push(values[k])
        assert_allclose(acc.value(), history_eval(kernel, times, values, k),
                        rtol=1e-12, atol=1e-12)


def test_identity_accumulator_is_the_running_trapezoid_sum(rng):
    # The identity kind runs the geometric recurrence with r = 1, whose
    # products by r are exact: bit for bit the plain running sum.
    n_steps, tau = 500, 1.0 / 300.0
    values = rng.standard_normal((n_steps + 1, 4))
    y0 = rng.standard_normal(4)
    acc = HistoryAccumulator(identity_kernel(y0), tau, 4, n_steps)
    integral = np.zeros(4)
    for k in range(n_steps + 1):
        acc.push(values[k])
        if k > 0:
            integral += 0.5 * tau * (values[k - 1] + values[k])
        assert (acc.value() == y0 + integral).all()


def test_long_geometric_run_stays_on_the_oracle(rng):
    n_steps = 16_000
    times = np.linspace(0.0, 8.0, n_steps + 1)
    values = np.sin(times)[:, None] + 0.1 * rng.standard_normal((n_steps + 1, 3))
    kernel = convolution_kernel(KERNELS["exp(-2t)"][0], np.zeros(3))
    acc = HistoryAccumulator(kernel, times[1] - times[0], 3, n_steps)
    assert acc._zeta.ratio is not None
    for q in values:
        acc.push(q)
    assert_allclose(acc.value(), history_eval(kernel, times, values, n_steps),
                    rtol=0, atol=1e-10)


@pytest.mark.parametrize("horizon,n_steps", [(10.0, 6000), (8.0, 20_000)])
def test_expression_exponential_kernel_takes_the_recurrence(rng, horizon, n_steps):
    # exp(-2t) through the expression evaluator, as a config builds it:
    # rounding the lags moves the table off r*b_j by up to 15 eps here,
    # which the lag-scaled tolerance must still accept.
    times = np.linspace(0.0, horizon, n_steps + 1)
    tau = times[1] - times[0]
    values = np.sin(times)[:, None] + 0.1 * rng.standard_normal((n_steps + 1, 2))
    kernel = convolution_kernel(Expression("exp(-2*t)", ("t",)), np.zeros(2))
    acc = HistoryAccumulator(kernel, tau, 2, n_steps)
    assert acc._zeta.ratio is not None
    for q in values:
        acc.push(q)
    assert_allclose(acc.value(), history_eval(kernel, times, values, n_steps),
                    rtol=0, atol=1e-10)
    # a kernel geometric only to 1e-10 still takes the dot product
    near = HistoryAccumulator(
        convolution_kernel(KERNELS["exp(-2t+1e-9t^2)"][0], np.zeros(2)), tau, 2, n_steps
    )
    assert near._zeta.ratio is None


@pytest.mark.parametrize("c,geometric", [(4e-12, True), (1e-11, False)])
def test_near_geometric_kernel_at_the_tolerance_margin(rng, c, geometric):
    # exp(-2t + c t^2) at horizon 8 / 20 000 steps sits at the edge of the
    # lag-scaled tolerance: 4e-12 is accepted, 1e-11 is not.  Either way
    # the history value must stay on the oracle.
    n_steps = 20_000
    times = np.linspace(0.0, 8.0, n_steps + 1)
    values = np.sin(times)[:, None] + 0.1 * rng.standard_normal((n_steps + 1, 2))
    kernel = convolution_kernel(lambda t: np.exp(-2.0 * t + c * t * t), np.zeros(2))
    acc = HistoryAccumulator(kernel, times[1] - times[0], 2, n_steps)
    assert (acc._zeta.ratio is not None) == geometric
    for q in values:
        acc.push(q)
    assert_allclose(acc.value(), history_eval(kernel, times, values, n_steps),
                    rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_are_tabulated_by_one_call_each(rng, name):
    b, _ = KERNELS[name]
    calls = []

    def counted(t):
        calls.append(t)
        return b(t)

    acc = HistoryAccumulator(convolution_kernel(counted, np.zeros(2)), 0.01, 2, 100)
    assert len(calls) == 1
    for q in rng.standard_normal((101, 2)):
        acc.push(q)
        acc.value()
    assert len(calls) == 1


def test_infinite_kernel_entry_fails_the_solve():
    # 1/(t - 0.25) is infinite at the grid lag 16 * (1/64) = 0.25; the
    # non-finite history must reach the balance gate, not a trajectory.
    def b(t):
        with np.errstate(divide="ignore"):
            return 1.0 / (t - 0.25)

    sc = scalar_scenario(lambda t: 2.0 * np.sin(math.pi * t), n_steps=64)
    sc = replace(sc, dissipation=smooth_fatigue(),
                 kernel=convolution_kernel(b, np.zeros(5)))
    assert np.isinf(b(np.array([16 * sc.tau]))).all()
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalFailure, match="step 17/64"):
        solve_viscous(sc, 0.05)


def _bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _kernel(name, y0):
    if name == "identity":
        return identity_kernel(y0)
    return convolution_kernel(KERNELS[name][0], y0)


@pytest.mark.parametrize("name", ["identity", "exp(-2t)", "1/(1+t)"])
@pytest.mark.parametrize("stacked", [False, True])
def test_held_values_and_push_held_are_the_pushes(rng, name, stacked):
    # A state that stays put for a run of steps: held_values looks ahead
    # with the bits that pushing the latest sample would give, and
    # push_held(c) leaves the accumulator as c pushes do (samples and
    # value), for fields and for stacks of members.  A table that is not
    # geometric looks one step ahead.
    n_steps, tau = 60, 0.05
    kernel = _kernel(name, rng.standard_normal(4))
    shape = (3, 4) if stacked else (4,)
    values = rng.standard_normal((20,) + shape)
    values[-1].flat[0] = -0.0
    pushed, held = (HistoryAccumulator(kernel, tau, 4, n_steps) for _ in range(2))
    for acc in (pushed, held):
        for q in values:
            acc.push(q)
    assert held.geometric == (name != "1/(1+t)")
    rows = 9 if held.geometric else 1
    ahead = held.held_values(rows)
    assert ahead.shape == (rows,) + shape
    for j in range(rows):
        assert _bits(ahead[j], pushed.value())
        pushed.push(values[-1])
    if not held.geometric:
        with pytest.raises(ValueError, match="geometric"):
            held.held_values(2)
    held.push_held(rows)
    assert held.n_samples == pushed.n_samples
    assert _bits(held.samples, pushed.samples)
    assert _bits(held.value(), pushed.value())
    held.push_held(0)
    assert held.n_samples == pushed.n_samples
    with pytest.raises(ValueError, match="full"):
        held.push_held(n_steps)


@pytest.mark.parametrize("name", ["identity", "exp(-2t)"])
@pytest.mark.parametrize("stacked", [False, True])
def test_push_held_after_a_look_ahead_is_the_pushes(rng, name, stacked):
    # push_held takes the sums held_values has formed: a count within the
    # rows looked ahead, one past them, or beyond them; a look-ahead that
    # a push has made stale is not used.  Each leaves the accumulator with
    # the bits of pushing one sample at a time, for fields and for stacks.
    n_steps, tau, rows = 80, 0.05, 6
    kernel = _kernel(name, rng.standard_normal(4))
    values = rng.standard_normal((5, 3, 4) if stacked else (5, 4))
    for count in range(1, rows + 3):
        pushed, held = (HistoryAccumulator(kernel, tau, 4, n_steps) for _ in range(2))
        for acc in (pushed, held):
            for q in values:
                acc.push(q)
        for stale in (False, True):
            held.held_values(rows)
            sample = values[0] if stale else values[-1]
            if stale:  # a push moves the sums past the look-ahead
                held.push(sample)
                pushed.push(sample)
            held.push_held(count)
            for _ in range(count):
                pushed.push(sample)
            assert _bits(held.samples, pushed.samples)
            assert _bits(held.value(), pushed.value())


@pytest.mark.parametrize("name", ["identity", "exp(-2t)"])
def test_a_held_run_carries_the_sums_once_a_step(monkeypatch, name):
    # Every step of this run is elastic, so the loop decides it in windows
    # of held rows; each row's sums are carried once, by held_values, and
    # push_held commits them (one more carry when the whole window held).
    sc = scalar_scenario(lambda t: 0.5 * np.sin(math.pi * t), n_steps=200)
    sc = replace(sc, kernel=_kernel(name, np.zeros(5)))
    calls = count_carries(monkeypatch)
    traj, report = solve_viscous(sc, 0.05)
    assert report.elastic_steps == sc.n_steps and not traj.values.any()
    assert len(calls) == sc.n_steps
