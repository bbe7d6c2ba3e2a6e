"""Mechanical check that compositional values improve with the policy.

Exact policy iteration manufactures a sequence of policies whose values are
pointwise non-decreasing for every goal (the theorem's hypothesis); at each
sweep the checker recomputes every via-goal value and both of its factors
(subgoal hitting probability, first-hit-weighted downstream value) and
records the worst per-sweep change. The pointwise claim is verified
directly; the uniform-goal-weighted average is reported alongside.

Each sweep solves one taboo first-hit system per (policy, goal) and nothing
else: its values, its greedy improvement and both via-goal factors come from
that solve (see solve.policy_iteration_step and via_goal). The theorem's
hypothesis, uniform reachability, is certified for every goal under the
initial policy from the first sweep's values, so a check makes exactly
n_iterations * G solves.

Memory is O(S*G + S^2), not O(S*G^2): each sweep keeps only its (S, G)
values and its (S, S) first-hit array, and the margins walk the subgoals one
(S, G) slice of each sweep at a time. The goal sets are disjoint, so one
(S, S) array holds every subgoal's first-hit distribution (see via_goal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assumption import check_assumption_uniform_reachability
from .policy import TabularPolicy
from .solve import policy_iteration_step
from .via_goal import via_goal_slice

REACHABILITY_DELTA = 1e-9  # tolerance on V(., g') spread over a goal set


def fold_max(running, value):
    """max(running, value), except that a NaN on either side is kept, so a
    NaN margin fails its check instead of being dropped (Python's max keeps
    `running` whenever `value` is NaN)."""
    return value if value != value else max(running, value)


def fold_min(running, value):
    """min(running, value), keeping a NaN as fold_max does."""
    return value if value != value else min(running, value)


@dataclass
class MonotonicityReport:
    n_iterations: int
    assumption_holds: bool
    min_via_diff: float
    min_hit_diff: float
    min_downstream_diff: float
    min_weighted_via_diff: float
    per_sweep: list = field(default_factory=list)  # one row of the four minima per sweep
    certificates: list = field(default_factory=list)

    def monotone(self, tol=1e-9):
        return self.min_via_diff >= -tol


def check_theorem2_monotonicity(mdp, n_iterations=5, initial_policy=None):
    """Run n_iterations exact policy-improvement sweeps and track via-goal margins.

    The subgoal average weighs every goal by 1 / G. The uniform-reachability
    certificate (with tolerance REACHABILITY_DELTA) is evaluated for every
    goal under the initial policy; its verdict gates the theorem's hypothesis.
    """
    n_goals = mdp.n_goals
    policy = initial_policy or TabularPolicy.uniform(mdp.n_states, n_goals, mdp.n_actions)
    # one first-hit solve per goal serves the improvement, the via values
    # and, on the first sweep, the certificates
    sweep = policy_iteration_step(mdp, policy)
    certificates = [
        check_assumption_uniform_reachability(mdp, sweep.values, g, REACHABILITY_DELTA)
        for g in range(n_goals)
    ]
    assumption_holds = all(c.holds for c in certificates)

    mins = {"via": np.inf, "hit": np.inf, "down": np.inf, "weighted": np.inf}
    per_sweep = []
    for _ in range(1, n_iterations):
        prev = sweep
        sweep = policy_iteration_step(mdp, prev.improved)
        diffs = _sweep_margins(mdp, prev, sweep)
        per_sweep.append(diffs)
        for key, diff in diffs.items():
            mins[key] = fold_min(mins[key], diff)

    if not per_sweep:  # single evaluation: trivially monotone
        mins = {k: 0.0 for k in mins}
    return MonotonicityReport(
        n_iterations=n_iterations,
        assumption_holds=assumption_holds,
        min_via_diff=mins["via"],
        min_hit_diff=mins["hit"],
        min_downstream_diff=mins["down"],
        min_weighted_via_diff=mins["weighted"],
        per_sweep=per_sweep,
        certificates=certificates,
    )


def _sweep_margins(mdp, prev, sweep):
    """The four worst changes from one sweep to the next, one subgoal slice
    of each at a time."""
    weight = 1.0 / mdp.n_goals
    via_diff = down_diff = np.inf
    prev_weighted = np.zeros_like(sweep.values)
    weighted = np.zeros_like(sweep.values)
    for sub in range(mdp.n_goals):
        prev_down, prev_via = via_goal_slice(mdp, prev, sub)
        down, via = via_goal_slice(mdp, sweep, sub)
        via_diff = fold_min(via_diff, float(np.min(via - prev_via)))
        both_defined = prev.defined[:, sub] & sweep.defined[:, sub]
        if np.any(both_defined):
            down_diff = fold_min(down_diff, float(np.min((down - prev_down)[both_defined])))
        prev_weighted += prev_via * weight
        weighted += via * weight
    one_minus_gamma = 1.0 - mdp.gamma  # hitting probability = (1 - gamma) V
    return {
        "via": via_diff,
        "hit": float(np.min(one_minus_gamma * sweep.values - one_minus_gamma * prev.values)),
        "down": 0.0 if down_diff == np.inf else down_diff,
        "weighted": float(np.min(weighted - prev_weighted)),
    }
