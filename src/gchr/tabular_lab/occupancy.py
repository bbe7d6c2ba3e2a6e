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
    gamma = mdp.gamma
    n = mdp.n_states
    p_pi = policy_transition_matrix(mdp, policy, goal)
    resolvent = np.linalg.solve(np.eye(n) - gamma * p_pi, np.eye(n))
    goal_states = mdp.goal_states(goal)
    first_hit = np.zeros((n, n))
    first_hit[:, goal_states], hit_mass = first_hit_columns(p_pi, goal_states, gamma)
    # d = (1 - gamma) * (I + gamma * P_eff R), built in the product's buffer.
    # P_eff is the raw dynamics with each goal state's rows one-hot on itself,
    # and a one-hot row times R is exactly that row of R, so the product runs
    # on the raw rows and the goal rows are written by index.
    d = (mdp.transitions.reshape(-1, n) @ resolvent).reshape(mdp.transitions.shape)
    d[goal_states] = resolvent[goal_states, None, :]
    d *= gamma
    d[np.arange(n), :, np.arange(n)] += 1.0
    d *= 1.0 - gamma
    d_marginal = resolvent
    d_marginal *= 1.0 - gamma  # (1 - gamma) R, in the resolvent's buffer
    return OccupancyTable(
        goal=goal,
        gamma=gamma,
        d=d,
        d_marginal=d_marginal,
        p_goal=d[:, :, goal_states].sum(axis=2),
        p_goal_marginal=d_marginal[:, goal_states].sum(axis=1),
        first_hit=first_hit,
        hit_mass=hit_mass,
    )


def first_hit_columns(p_pi, goal_states, gamma):
    """(columns (S, |S_g|), hit_mass (S,)) toward `goal_states` under the
    goal-absorbing P_pi: column j is the normalized first-hit probability at
    goal_states[j], and every other column of the first-hit distribution is
    zero. One taboo solve on the states outside the goal set, with one
    right-hand side per goal state."""
    n = p_pi.shape[0]
    in_goal = np.zeros(n, dtype=bool)
    in_goal[goal_states] = True
    outside = np.flatnonzero(~in_goal)
    columns = np.zeros((n, len(goal_states)))
    columns[goal_states, np.arange(len(goal_states))] = 1.0  # first arrival at time 0
    if outside.size:
        a = np.eye(outside.size) - gamma * p_pi[np.ix_(outside, outside)]
        b = gamma * p_pi[np.ix_(outside, goal_states)]
        columns[outside] = np.linalg.solve(a, b)
    hit_mass = columns.sum(axis=1)
    reachable = hit_mass > HIT_MASS_FLOOR
    columns[reachable] /= hit_mass[reachable, None]
    columns[~reachable] = 0.0
    return columns, hit_mass


def q_from_occupancy(table, s=None, a=None):
    """Q = p / (1 - gamma); full (S, A) array or a single entry."""
    q = table.p_goal / (1.0 - table.gamma)
    if s is None:
        return q
    return q[s] if a is None else float(q[s, a])
