"""Compositional (via-goal) values: reach a subgoal first, then the goal.

    V_via(s, g; g') = p(g' | s) * sum_{s' in S_g'} first_hit(s' | s, g') * V(s', g)

The hitting probability and first-hit distribution are computed under the
policy slice for g' in the g'-absorbing MDP; the downstream value V(., g)
under the slice for g in the g-absorbing MDP. Unreachable subgoals
contribute zero.

The hitting probability is the goal density of the occupancy, and with the
0/1 goal-absorbing reward that is p(g' | s) = (1 - gamma) V(s, g'). So it is
read off the values the policy-iteration sweep has already solved, and the
only per-subgoal solve left is the first-hit one: the taboo system on the
states outside S_g', with |S_g'| right-hand sides, not the full resolvent
(I - gamma P_pi)^-1 with S of them. The two routes to p agree within about
1e-15. The values themselves stay with the direct solve: the same first-hit
solve's total mass also equals (1 - gamma) V, within about 2e-14, but values
taken from it flip greedy ties between equal-valued actions, and that would
change the sequence of improved policies the check walks.

The full (S, G, G') tensor is never built. phi maps each state to one goal,
so the goal sets S_g' partition the states, and a first-hit distribution is
exactly 0 outside its goal set: every subgoal's first-hit columns fit in one
(S, S) array. `via_goal_factors` keeps that array with the (S, G') hitting
probabilities, and `via_goal_slice` forms one subgoal's (S, G) values from
them, so a caller that walks the subgoals holds O(S*G + S^2) memory.
"""

from __future__ import annotations

import numpy as np

from .occupancy import HIT_MASS_FLOOR, first_hit_columns
from .solve import policy_transition_matrix


def via_goal_factors(mdp, policy, values):
    """The subgoal-side factors of every via-goal value, one first-hit solve
    per subgoal. `values` (S, G) are the policy's exact per-goal values, as
    policy_iteration_step returns them.

    Returns (p_hit, defined, hits):
        p_hit   (S, G') subgoal hitting probabilities, (1 - gamma) * values
        defined (S, G') True where the first-hit distribution exists
        hits    (S, S)  column s' is first_hit(s' | ., phi(s'))
    """
    n_states = mdp.n_states
    defined = np.empty((n_states, policy.n_goals), dtype=bool)
    hits = np.zeros((n_states, n_states))
    for sub in range(policy.n_goals):
        states = mdp.goal_states(sub)
        p_pi = policy_transition_matrix(mdp, policy, sub)
        hits[:, states], hit_mass = first_hit_columns(p_pi, states, mdp.gamma)
        defined[:, sub] = hit_mass > HIT_MASS_FLOOR
    return (1.0 - mdp.gamma) * values, defined, hits


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
