"""Mechanical check that compositional values improve with the policy.

Exact policy iteration manufactures a sequence of policies whose values are
pointwise non-decreasing for every goal (the theorem's hypothesis); at each
sweep the checker recomputes every via-goal value and both of its factors
(subgoal hitting probability, first-hit-weighted downstream value) and
records the worst per-sweep change. The pointwise claim is verified
directly; the uniform-goal-weighted average is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assumption import check_assumption_uniform_reachability
from .policy import TabularPolicy
from .solve import policy_iteration_step
from .via_goal import via_goal_tensor


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


def check_theorem2_monotonicity(mdp, n_iterations=5, goal_weights=None, delta=1e-9,
                                initial_policy=None):
    """Run n_iterations exact policy-improvement sweeps and track via-goal margins.

    goal_weights weighs the subgoal average (uniform by default). The
    uniform-reachability certificate is evaluated for every goal under the
    initial policy; its verdict gates the theorem's hypothesis.
    """
    n_goals = mdp.n_goals
    if goal_weights is None:
        goal_weights = np.full(n_goals, 1.0 / n_goals)
    else:
        goal_weights = np.asarray(goal_weights, dtype=np.float64)
        if goal_weights.shape != (n_goals,):
            raise ValueError("goal_weights must have one entry per goal")

    policy = initial_policy or TabularPolicy.uniform(mdp.n_states, n_goals, mdp.n_actions)
    certificates = [
        check_assumption_uniform_reachability(mdp, policy, g, delta) for g in range(n_goals)
    ]
    assumption_holds = all(c.holds for c in certificates)

    mins = {"via": np.inf, "hit": np.inf, "down": np.inf, "weighted": np.inf}
    per_sweep = []
    prev = None
    for _ in range(max(1, n_iterations)):
        # one exact solve per goal serves both the improvement and the via values
        improved, values = policy_iteration_step(mdp, policy)
        v_via, p_hit, downstream, defined = via_goal_tensor(mdp, policy, values)
        weighted = v_via @ goal_weights
        if prev is not None:
            both_defined = prev["defined"] & defined
            via_diff = float(np.min(v_via - prev["v_via"]))
            hit_diff = float(np.min(p_hit - prev["p_hit"]))
            if np.any(both_defined):
                mask = both_defined[:, None, :]
                down_diff = float(
                    np.min((downstream - prev["downstream"])[np.broadcast_to(mask, downstream.shape)])
                )
            else:
                down_diff = 0.0
            weighted_diff = float(np.min(weighted - prev["weighted"]))
            per_sweep.append(
                {"via": via_diff, "hit": hit_diff, "down": down_diff, "weighted": weighted_diff}
            )
            mins["via"] = min(mins["via"], via_diff)
            mins["hit"] = min(mins["hit"], hit_diff)
            mins["down"] = min(mins["down"], down_diff)
            mins["weighted"] = min(mins["weighted"], weighted_diff)
        prev = {
            "v_via": v_via,
            "p_hit": p_hit,
            "downstream": downstream,
            "defined": defined,
            "weighted": weighted,
        }
        policy = improved

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
