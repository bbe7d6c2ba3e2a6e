"""Compositional (via-goal) values: reach a subgoal first, then the goal.

    V_via(s, g; g') = p(g' | s) * sum_{s' in S_g'} first_hit(s' | s, g') * V(s', g)

The hitting probability and first-hit distribution are computed under the
policy slice for g' in the g'-absorbing MDP; the downstream value V(., g)
under the slice for g in the g-absorbing MDP. Unreachable subgoals
contribute zero.

The full (S, G, G') tensor is never built. phi maps each state to one goal,
so the goal sets S_g' partition the states, and a first-hit distribution is
exactly 0 outside its goal set: every subgoal's first-hit columns fit in one
(S, S) array. `via_goal_factors` keeps that array with the (S, G') hitting
probabilities, and `via_goal_slice` forms one subgoal's (S, G) values from
them, so a caller that walks the subgoals holds O(S*G + S^2) memory.
"""

from __future__ import annotations

import numpy as np

from .occupancy import HIT_MASS_FLOOR, goal_hitting


def via_goal_factors(mdp, policy):
    """The subgoal-side factors of every via-goal value, one hitting solve
    per subgoal.

    Returns (p_hit, defined, hits):
        p_hit   (S, G') subgoal hitting probabilities
        defined (S, G') True where the first-hit distribution exists
        hits    (S, S)  column s' is first_hit(s' | ., phi(s'))
    """
    n_goals = policy.n_goals
    n_states = mdp.n_states
    p_hit = np.empty((n_states, n_goals))
    defined = np.empty((n_states, n_goals), dtype=bool)
    hits = np.zeros((n_states, n_states))
    for sub in range(n_goals):
        _, _, p_hit[:, sub], first_hit, hit_mass = goal_hitting(mdp, policy, sub)
        defined[:, sub] = hit_mass > HIT_MASS_FLOOR
        states = mdp.goal_states(sub)
        hits[:, states] = first_hit[:, states]
    return p_hit, defined, hits


def via_goal_slice(mdp, factors, values, sub):
    """Via-goal values through one subgoal, from `via_goal_factors` and the
    policy's exact per-goal values `values` (S, G) as policy_iteration_step
    returns them.

    Returns (downstream, v_via), both (S, G) and 0 where the first-hit
    distribution is undefined: downstream[s, g] is the first-hit-weighted
    V(., g) and v_via[s, g] = V_via(s, g; sub).
    """
    p_hit, defined, hits = factors
    states = mdp.goal_states(sub)
    downstream = hits[:, states] @ values[states]
    downstream *= defined[:, sub, None]
    return downstream, p_hit[:, sub, None] * downstream
