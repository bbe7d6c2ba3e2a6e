"""Discounted occupancy measures for goal-absorbing tabular MDPs.

The future-state occupancy from (s, a) includes the starting timestep:

    d(s' | s, a, g) = (1 - gamma) * sum_{k >= 0} gamma^k Pr(s_k = s'),

with s_0 = s, a_0 = a and the policy acting from step 1 on, so every row is
an exact probability distribution. Summing d over the goal set gives the
future-goal density p, and Q = p / (1 - gamma) reproduces exact policy
evaluation of the 0/1-reward absorbing MDP.

The first-hitting distribution is the gamma-discounted first-passage mass
into the goal set, normalized by the total mass; it is computed by a taboo
linear system in which the goal set only absorbs. A state already inside
the goal set hits at itself with probability one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solve import policy_transition_matrix

HIT_MASS_FLOOR = 1e-12


@dataclass
class OccupancyTable:
    """All occupancy quantities for one (policy, goal) pair."""

    goal: int
    gamma: float
    d: np.ndarray  # (S, A, S) future-state occupancy
    d_marginal: np.ndarray  # (S, S), action marginalized under the policy
    p_goal: np.ndarray  # (S, A) future-goal density
    p_goal_marginal: np.ndarray  # (S,)
    first_hit: np.ndarray  # (S, S) normalized first-hit distribution over S_g
    hit_mass: np.ndarray  # (S,) unnormalized discounted first-passage mass


def compute_occupancy(mdp, policy, goal):
    """Solve the discounted visitation linear system exactly for one goal."""
    resolvent, d_marginal, p_goal_marginal, first_hit, hit_mass = goal_hitting(
        mdp, policy, goal
    )
    gamma = mdp.gamma
    n = mdp.n_states
    p_eff = mdp.effective_transitions(goal)
    reach = (p_eff.reshape(-1, n) @ resolvent).reshape(p_eff.shape)
    d = (1.0 - gamma) * (np.eye(n)[:, None, :] + gamma * reach)
    p_goal = d[:, :, mdp.goal_states(goal)].sum(axis=2)
    return OccupancyTable(
        goal=goal,
        gamma=gamma,
        d=d,
        d_marginal=d_marginal,
        p_goal=p_goal,
        p_goal_marginal=p_goal_marginal,
        first_hit=first_hit,
        hit_mass=hit_mass,
    )


def goal_hitting(mdp, policy, goal):
    """Everything about one goal but the (S, A, S) occupancy.

    Returns (resolvent, d_marginal, p_goal_marginal, first_hit, hit_mass),
    where resolvent = (I - gamma P_pi)^-1 and d_marginal = (1 - gamma) times it.
    """
    if not mdp.absorbing_goals:
        raise ValueError("occupancies are defined on the goal-absorbing formulation")
    gamma = mdp.gamma
    n = mdp.n_states
    p_pi = policy_transition_matrix(mdp, policy, goal)
    resolvent = np.linalg.solve(np.eye(n) - gamma * p_pi, np.eye(n))
    d_marginal = (1.0 - gamma) * resolvent
    goal_states = mdp.goal_states(goal)
    p_goal_marginal = d_marginal[:, goal_states].sum(axis=1)
    first_hit, hit_mass = _first_hit(mdp, p_pi, goal_states, gamma)
    return resolvent, d_marginal, p_goal_marginal, first_hit, hit_mass


def _first_hit(mdp, p_pi, goal_states, gamma):
    n = mdp.n_states
    in_goal = np.zeros(n, dtype=bool)
    in_goal[goal_states] = True
    outside = np.flatnonzero(~in_goal)
    raw = np.zeros((n, n))
    for s in goal_states:
        raw[s, s] = 1.0  # first arrival at time 0
    if outside.size:
        a = np.eye(outside.size) - gamma * p_pi[np.ix_(outside, outside)]
        b = gamma * p_pi[np.ix_(outside, goal_states)]
        raw[np.ix_(outside, goal_states)] = np.linalg.solve(a, b)
    hit_mass = raw.sum(axis=1)
    first_hit = np.zeros_like(raw)
    reachable = hit_mass > HIT_MASS_FLOOR
    first_hit[reachable] = raw[reachable] / hit_mass[reachable, None]
    return first_hit, hit_mass


def q_from_occupancy(table, s=None, a=None):
    """Q = p / (1 - gamma); full (S, A) array or a single entry."""
    q = table.p_goal / (1.0 - table.gamma)
    if s is None:
        return q
    return q[s] if a is None else float(q[s, a])


def v_from_occupancy(table, s=None):
    v = table.p_goal_marginal / (1.0 - table.gamma)
    return v if s is None else float(v[s])
