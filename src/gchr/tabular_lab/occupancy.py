"""Discounted occupancy measures for goal-absorbing tabular MDPs.

The future-state occupancy from (s, a) includes the starting timestep:

    d(s' | s, a, g) = (1 - gamma) * sum_{k >= 0} gamma^k Pr(s_k = s'),

with s_0 = s, a_0 = a and the policy acting from step 1 on, so every row is
an exact probability distribution. Summing d over the goal set gives the
future-goal density p, and Q = p / (1 - gamma) reproduces exact policy
evaluation of the 0/1-reward absorbing MDP.

In matrix form d = (1 - gamma) (I + gamma P_eff R), with R = (I - gamma
P_pi)^-1 the policy's resolvent and P_eff the goal-absorbing dynamics, and
the action-marginalized occupancy is (1 - gamma) R. The lab reads them only
through their row sums and their goal-set sums p, which are R applied to the
two vectors [1, 1_{S_g}]: one solve with those two right-hand sides and one
(S*A, S) @ (S, 2) product give all four. Neither the (S, S) resolvent nor
the (S, A, S) table is built; the tests keep both as oracles.

The first-hitting distribution is the gamma-discounted first-passage mass
into the goal set, normalized by the total mass; it is computed by a taboo
linear system in which the goal set only absorbs (solve.first_hit_columns).
A state already inside the goal set hits at itself with probability one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solve import first_hit_columns, policy_transition_matrix, reward_vector


@dataclass
class OccupancyTable:
    """The occupancy's contractions and first hits for one (policy, goal) pair."""

    goal: int
    gamma: float
    d_row_sums: np.ndarray  # (S, A) sum over s' of d(s' | s, a)
    d_marginal_row_sums: np.ndarray  # (S,), action marginalized under the policy
    p_goal: np.ndarray  # (S, A) future-goal density
    p_goal_marginal: np.ndarray  # (S,)
    first_hit: np.ndarray  # (S, S) normalized first-hit distribution over S_g
    hit_mass: np.ndarray  # (S,) unnormalized discounted first-passage mass


def compute_occupancy(mdp, policy, goal):
    """Solve the discounted visitation linear system exactly for one goal,
    for the right-hand sides [1, 1_{S_g}] only, then the taboo first-hit
    system."""
    gamma = mdp.gamma
    n = mdp.n_states
    p_pi = policy_transition_matrix(mdp, policy, goal)
    goal_states = mdp.goal_states(goal)
    # columns R 1 and R 1_{S_g}
    r_sums = np.linalg.solve(np.eye(n) - gamma * p_pi,
                             np.stack([np.ones(n), reward_vector(mdp, goal)], axis=1))
    # d x = (1 - gamma) * (x + gamma * P_eff R x) for x = 1 and x = 1_{S_g}.
    # P_eff is the raw dynamics with each goal state's rows one-hot on
    # itself, and a one-hot row times R x is exactly that entry of R x, so
    # the product runs on the raw rows and the goal rows are written by index.
    sums = (mdp.transitions.reshape(-1, n) @ r_sums).reshape(n, mdp.n_actions, 2)
    sums[goal_states] = r_sums[goal_states, None, :]
    sums *= gamma
    sums[:, :, 0] += 1.0
    sums[goal_states, :, 1] += 1.0
    sums *= 1.0 - gamma
    r_sums *= 1.0 - gamma  # the marginal's sums, (1 - gamma) R x
    first_hit = np.zeros((n, n))
    first_hit[:, goal_states], hit_mass = first_hit_columns(p_pi, goal_states, gamma)
    return OccupancyTable(
        goal=goal,
        gamma=gamma,
        d_row_sums=sums[:, :, 0],
        d_marginal_row_sums=r_sums[:, 0],
        p_goal=sums[:, :, 1],
        p_goal_marginal=r_sums[:, 1],
        first_hit=first_hit,
        hit_mass=hit_mass,
    )


def q_from_occupancy(table, s=None, a=None):
    """Q = p / (1 - gamma); full (S, A) array or a single entry."""
    q = table.p_goal / (1.0 - table.gamma)
    if s is None:
        return q
    return q[s] if a is None else float(q[s, a])
