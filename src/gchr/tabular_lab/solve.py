"""Exact evaluation and improvement of tabular goal-conditioned policies.

Every MDP is goal-absorbing (see envs.tabular), with reward r(s) = 1{phi(s)=g}
collected at every timestep from t = 0 on, so a state already satisfying the
goal is worth exactly 1/(1-gamma). The goal-absorbing rows are written over
the raw dynamics by the goal set's state indices; no (S, A, S) copy with the
override applied is made.

Policy iteration evaluates each goal by the taboo first-hit solve on the
states outside its goal set: goals absorb, so the discounted first-passage
mass is (1 - gamma) V, and the same solve gives the first-hit distribution
the via-goal values need. Greedy improvement breaks ties, within a tolerance
scaled by the Q bound 1/(1-gamma), toward the lowest action id, so rounding
cannot flip it.

The cross-check route, policy_evaluation_iterative, solves nothing: it sums
the Neumann series V = sum_j (gamma P_pi)^j r by repeated squaring, one goal
at a time, then removes its rounding with one residual computed in extended
precision. Its error therefore does not grow as ulp / (1 - gamma), which
limits any fixed-point iteration of the Bellman backup in float64.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .policy import TabularPolicy

HIT_MASS_FLOOR = 1e-12  # first-passage mass below which no first-hit distribution exists
TIE_TOL = 1e-12  # greedy tie tolerance, relative to the Q bound 1 / (1 - gamma)


def reward_vector(mdp, goal):
    return (mdp.phi == goal).astype(np.float64)


def policy_transition_matrix(mdp, policy, goal):
    """State-to-state matrix under the goal-absorbing dynamics and the
    policy's slice for that goal."""
    pi = policy.for_goal(goal)
    p_pi = np.einsum("sa,sax->sx", pi, mdp.transitions)
    # a goal state's self-loop carries its whole action row, summed in the
    # order the contraction over an absorbing row would take
    states = mdp.goal_states(goal)
    p_pi[states] = 0.0
    p_pi[states, states] = pi[states].sum(axis=1)
    return p_pi


def first_hit_columns(p_pi, goal_states, gamma):
    """(columns (S, |S_g|), hit_mass (S,)) toward `goal_states` under the
    goal-absorbing P_pi: column j is the normalized first-hit probability at
    goal_states[j], and every other column of the first-hit distribution is
    zero. One taboo solve on the states outside the goal set, with one
    right-hand side per goal state. hit_mass is the discounted first-passage
    mass before normalization, kept where it is below HIT_MASS_FLOOR too."""
    n = p_pi.shape[0]
    in_goal = np.zeros(n, dtype=bool)
    in_goal[goal_states] = True
    outside = np.flatnonzero(~in_goal)
    columns = np.zeros((n, len(goal_states)))
    columns[goal_states, np.arange(len(goal_states))] = 1.0  # first arrival at time 0
    if outside.size:
        rows = p_pi[outside]
        a = rows[:, outside]  # I - gamma P_pi on the taboo states
        a *= -gamma
        a.flat[:: outside.size + 1] += 1.0
        columns[outside] = np.linalg.solve(a, gamma * rows[:, goal_states])
    hit_mass = columns.sum(axis=1)
    reachable = hit_mass > HIT_MASS_FLOOR
    columns[reachable] /= hit_mass[reachable, None]
    columns[~reachable] = 0.0
    return columns, hit_mass


def policy_evaluation_iterative(mdp, policy):
    """Policy evaluation by Neumann doubling, independent of the linear solves.

    Returns q (S, A, G) and v (S, G). Per goal, with M = gamma P_pi
    (goal-absorbing) and k = ceil(log2(60 ln 2 / -ln gamma)) (0 at gamma = 0),
    k steps of V <- V + M V, M <- M M from V = r sum the series' first 2^k
    terms; the tail is at most gamma^(2^k) <= 2^-60 of the Q bound
    1 / (1 - gamma). A power M^n built by squaring carries about n * eps
    relative error, so the sum is still off by about eps * Q / (1 - gamma),
    as a float64 Bellman iteration would be. The residual
    res = r + gamma P_pi V - V = (I - gamma P_pi)(V* - V) measures that
    error; it is computed once in np.longdouble and its own series, summed
    through the stored powers, is added to V. Q follows by one backup.

    The correction needs np.longdouble to carry more digits than float64
    (the 80-bit x87 type, eps about 1.1e-19, on x86_64 Linux): where it is
    plain float64 the step still runs, but the residual's rounding is again
    of order eps * Q and V keeps an error of order eps * Q / (1 - gamma).

    The cost is G * k * S^3 (k = 9 at gamma = 0.9, 19 at 0.9999), against
    G * A * S^2 per sweep of a Bellman iteration, so large grids with modest
    gamma evaluate slower than by iteration. The name is that of the
    Bellman iteration this route replaced: the benchmark traces the
    function by it.
    """
    gamma, n_states, n_goals = mdp.gamma, mdp.n_states, policy.n_goals
    # gamma^(2^k) <= 2^-60
    n_steps = max(0, math.ceil(math.log2(60 * math.log(2) / -math.log(gamma)))) if gamma else 0
    next_state = mdp.transitions.reshape(-1, n_states)  # (S*A, S)
    q = np.empty((n_states, mdp.n_actions, n_goals))
    v = np.empty((n_states, n_goals))
    for g in range(n_goals):
        p_pi = policy_transition_matrix(mdp, policy, g)
        powers = []  # (gamma P_pi)^(2^i) for i < n_steps
        for i in range(n_steps):
            powers.append(powers[-1] @ powers[-1] if i else gamma * p_pi)
        r = reward_vector(mdp, g)
        v_g = _neumann_doubling(powers, r)
        wide = v_g.astype(np.longdouble)
        res = r + gamma * (p_pi.astype(np.longdouble) @ wide) - wide
        v_g += _neumann_doubling(powers, res.astype(np.float64))
        v[:, g] = v_g
        q[:, :, g] = q_backup(next_state, v_g, mdp.goal_states(g), gamma)
    return q, v


def _neumann_doubling(powers, x):
    """sum_{j < 2^k} M^j x from the k powers M^(2^i): x <- x + M^(2^i) x."""
    for m in powers:
        x = x + m @ x
    return x


def q_backup(next_state, v, goal_states, gamma):
    """(S, A) Q = r + gamma P_eff V of one goal from the raw (S*A, S) rows."""
    q = (next_state @ v).reshape(v.shape[0], -1)
    q[goal_states] = v[goal_states, None]  # goal states self-loop
    q *= gamma
    q[goal_states] += 1.0  # and collect the reward
    return q


def greedy_policy_slice(q, gamma):
    """One-hot greedy (S, A) slice: the lowest action whose Q lies within
    tau = TIE_TOL / (1 - gamma) of its row's maximum.

    Q is at most 1 / (1 - gamma), so tau is TIE_TOL relative to the largest
    value any Q can take (thousands of ulps of it at every gamma): two routes
    to the same Q that round a tie a few ulps apart pick the same action. A
    tau-greedy improvement loses at most tau / (1 - gamma) =
    TIE_TOL / (1 - gamma)^2 per sweep against the exact greedy one (1e-10
    at gamma = 0.9, 1e-8 at gamma = 0.99).
    """
    n_states, n_actions = q.shape
    near_max = q >= q.max(axis=1, keepdims=True) - TIE_TOL / (1.0 - gamma)
    out = np.zeros((n_states, n_actions))
    out[np.arange(n_states), np.argmax(near_max, axis=1)] = 1.0
    return out


class Sweep(NamedTuple):
    """One policy-iteration sweep; every array describes the *input* policy."""

    improved: TabularPolicy  # greedy in the input's Q, every goal
    values: np.ndarray  # (S, G) exact V per goal
    hits: np.ndarray  # (S, S) column s' is first_hit(s' | ., phi(s'))
    defined: np.ndarray  # (S, G) True where the first-hit distribution toward g exists


def policy_iteration_step(mdp, policy):
    """One exact policy-improvement sweep across every goal slice, with one
    taboo first-hit solve per goal and nothing else solved.

    Goals absorb and pay 1 per step, so V = hit_mass / (1 - gamma), with
    hit_mass the discounted first-passage mass into S_g (exactly 1 on S_g
    itself). Q follows by one backup and the improved slice is greedy in it.
    The same solve's first-hit columns are the via-goal values' other factor
    (see via_goal); phi maps every state to one goal, so the goal sets
    partition the states and every goal's columns fit in one (S, S) array.

    By the policy improvement theorem the improved policy's value dominates
    the input's pointwise, for every goal, less at most greedy_policy_slice's
    per-sweep loss tau / (1 - gamma).
    """
    gamma, n_states, n_goals = mdp.gamma, mdp.n_states, policy.n_goals
    next_state = mdp.transitions.reshape(-1, n_states)  # (S*A, S)
    probs = np.empty_like(policy.probs)
    values = np.empty((n_states, n_goals))
    hits = np.zeros((n_states, n_states))
    defined = np.empty((n_states, n_goals), dtype=bool)
    for g in range(n_goals):
        states = mdp.goal_states(g)
        p_pi = policy_transition_matrix(mdp, policy, g)
        hits[:, states], hit_mass = first_hit_columns(p_pi, states, gamma)
        defined[:, g] = hit_mass > HIT_MASS_FLOOR
        v = hit_mass / (1.0 - gamma)
        values[:, g] = v
        probs[:, g, :] = greedy_policy_slice(q_backup(next_state, v, states, gamma), gamma)
    return Sweep(TabularPolicy(probs), values, hits, defined)
