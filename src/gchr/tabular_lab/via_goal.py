"""Compositional (via-goal) values: reach a subgoal first, then the goal.

    V_via(s, g; g') = p(g' | s) * sum_{s' in S_g'} first_hit(s' | s, g') * V(s', g)

The hitting probability and first-hit distribution are computed under the
policy slice for g' in the g'-absorbing MDP; the downstream value V(., g)
under the slice for g in the g-absorbing MDP. Unreachable subgoals
contribute zero.

Every factor comes from the one taboo first-hit solve per goal that a
`policy_iteration_step` sweep makes. The hitting probability is the goal
density of the occupancy, and with the 0/1 goal-absorbing reward that is
p(g' | s) = (1 - gamma) V(s, g') = the first-passage mass into S_g'. The
sweep's values are that mass over (1 - gamma), and its first-hit columns
are the distribution, so no resolvent (I - gamma P_pi)^-1 and no direct
value solve is needed.

The full (S, G, G') tensor is never built. phi maps each state to one goal,
so the goal sets S_g' partition the states, and a first-hit distribution is
exactly 0 outside its goal set: every subgoal's first-hit columns fit in the
sweep's one (S, S) array. `via_goal_slice` forms one subgoal's (S, G)
values from it, so a caller that walks the subgoals holds O(S*G + S^2)
memory.
"""

from __future__ import annotations


def via_goal_slice(mdp, sweep, sub):
    """Via-goal values through one subgoal, from a `policy_iteration_step`
    sweep of the policy.

    Returns (downstream, v_via), both (S, G) and 0 where the first-hit
    distribution is undefined: downstream[s, g] is the first-hit-weighted
    V(., g) and v_via[s, g] = V_via(s, g; sub).
    """
    states = mdp.goal_states(sub)
    downstream = sweep.hits[:, states] @ sweep.values[states]
    downstream *= sweep.defined[:, sub, None]
    p_hit = (1.0 - mdp.gamma) * sweep.values[:, sub, None]
    return downstream, p_hit * downstream
