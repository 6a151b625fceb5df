"""Shared scenario builders for the test suite."""

import numpy as np

import histris.history as history
from histris import (
    Fatigue,
    Scenario,
    build_mesh,
    constant_in_space_load,
    identity_kernel,
)


def constant_threshold(value=1.0):
    """History-independent one-sided dissipation with a flat threshold."""
    return Fatigue(
        weight=lambda z, v=value: np.full_like(np.asarray(z, dtype=float), v),
        lipschitz=0.0,
    )


def scalar_scenario(a, a_prime=None, *, threshold=1.0, alpha=1.0, horizon=1.0,
                    n_steps=1000, n_nodes=5):
    """Spatially constant problem; reduces exactly to scalar dynamics."""
    mesh = build_mesh(n_nodes)
    return Scenario(
        mesh=mesh,
        alpha=alpha,
        load=constant_in_space_load(mesh, a, a_prime),
        kernel=identity_kernel(np.zeros(n_nodes)),
        dissipation=constant_threshold(threshold),
        horizon=horizon,
        n_steps=n_steps,
    )


def count_carries(monkeypatch):
    """Patch the history recurrence's carry (one sum row) to log each
    call; returns the log."""
    calls = []
    carry = history.HistoryAccumulator._carry

    def counted(self, *args, **kwargs):
        calls.append(1)
        return carry(self, *args, **kwargs)

    monkeypatch.setattr(history.HistoryAccumulator, "_carry", counted)
    return calls


class HeldLog(history.HistoryAccumulator):
    """A history accumulator that logs the count of every ``push_held``
    in the class's list ``held``."""

    held = []

    def push_held(self, count):
        HeldLog.held.append(count)
        super().push_held(count)
