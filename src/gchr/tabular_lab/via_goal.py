"""Compositional (via-goal) values: reach a subgoal first, then the goal.

    V_via(s, g; g') = p(g' | s) * sum_{s' in S_g'} first_hit(s' | s, g') * V(s', g)

The hitting probability and first-hit distribution are computed under the
policy slice for g' in the g'-absorbing MDP; the downstream value V(., g)
under the slice for g in the g-absorbing MDP. Unreachable subgoals
contribute zero.
"""

from __future__ import annotations

import numpy as np

from .occupancy import HIT_MASS_FLOOR, compute_occupancy, goal_hitting
from .solve import policy_evaluation_direct


def via_goal_components(mdp, policy, s, goal, subgoal, table=None, values=None):
    """(hit probability, downstream value, defined flag) for one (s, g, g')."""
    if table is None:
        table = compute_occupancy(mdp, policy, subgoal)
    if values is None:
        _, values = policy_evaluation_direct(mdp, policy, goal)
    if table.hit_mass[s] <= HIT_MASS_FLOOR:
        return 0.0, 0.0, False
    p_hit = float(table.p_goal_marginal[s])
    downstream = float(table.first_hit[s] @ values)
    return p_hit, downstream, True


def via_goal_value(mdp, policy, s, goal, subgoal, table=None, values=None):
    p_hit, downstream, defined = via_goal_components(
        mdp, policy, s, goal, subgoal, table=table, values=values
    )
    return p_hit * downstream if defined else 0.0


def via_goal_tensor(mdp, policy, values):
    """All via-goal values at once, from the policy's exact per-goal values
    `values` (S, G) as policy_iteration_step returns them.

    Returns (v_via, p_hit, downstream, defined):
        v_via      (S, G, G') compositional values (0 where undefined)
        p_hit      (S, G')    subgoal hitting probabilities
        downstream (S, G, G') first-hit-weighted downstream values
        defined    (S, G')    True where the first-hit distribution exists
    """
    n_goals = policy.n_goals
    n_states = mdp.n_states
    p_hit = np.empty((n_states, n_goals))
    defined = np.empty((n_states, n_goals), dtype=bool)
    downstream = np.zeros((n_states, n_goals, n_goals))
    for sub in range(n_goals):
        _, _, p_hit[:, sub], first_hit, hit_mass = goal_hitting(mdp, policy, sub)
        defined[:, sub] = hit_mass > HIT_MASS_FLOOR
        downstream[:, :, sub] = first_hit @ values
    downstream *= defined[:, None, :]
    v_via = p_hit[:, None, :] * downstream
    return v_via, p_hit, downstream, defined
