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

Iterative evaluation is the independent cross-check route: it repeats
Bellman backups for every goal of the policy at once and retires each goal
when its own update falls to tol. Its Q is stored goal-major and
action-major, (G, A, S), so each sweep is one (G, S) @ (S, A*S) product on
the raw transitions, every goal's A*S block is contiguous for the update
norm, and V is the sum of A contiguous (G, S) planes. V is summed action by
action, starting from action 0: numpy reduces a contiguous axis of at most
seven entries in exactly that order, so Q and V are bit-identical to the
goal-major (G, S, A) layout's `(pi * q).sum(axis=2)` for A <= 7.
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
        a = np.eye(outside.size) - gamma * p_pi[np.ix_(outside, outside)]
        b = gamma * p_pi[np.ix_(outside, goal_states)]
        columns[outside] = np.linalg.solve(a, b)
    hit_mass = columns.sum(axis=1)
    reachable = hit_mass > HIT_MASS_FLOOR
    columns[reachable] /= hit_mass[reachable, None]
    columns[~reachable] = 0.0
    return columns, hit_mass


class EvaluationNotConverged(RuntimeError):
    """Iterative evaluation ran out of sweeps; `goals` are the ones still moving."""

    def __init__(self, goals, max_iters):
        super().__init__(
            f"policy evaluation did not converge for goals {goals} in {max_iters} sweeps"
        )
        self.goals = goals


def sweep_cap(gamma, tol):
    """Twice the sweeps after which a gamma-contraction shrinks the first
    update (at most 1, from Q = 0) to tol: 2 * (1 + ceil(ln tol / ln gamma)),
    with the ratio's limit of 1 at gamma = 0."""
    contraction = math.ceil(math.log(tol) / math.log(gamma)) if gamma > 0.0 else 1
    return 2 * (1 + max(0, contraction))


def policy_evaluation_iterative(mdp, policy, tol=1e-12, max_iters=None):
    """Fixed-point iteration of the Bellman expectation backup on Q, all goals at once.

    Independent of the linear solves. Returns q (S, A, G) and v (S, G). Each
    goal iterates until its own sup-norm update falls to tol (final error is
    at most tol * gamma / (1 - gamma)), so it runs the sweeps it would run
    alone; goals still moving after max_iters (by default sweep_cap(gamma,
    tol)) raise EvaluationNotConverged.
    """
    if max_iters is None:
        max_iters = sweep_cap(mdp.gamma, tol)
    n_states, n_actions, n_goals = mdp.n_states, mdp.n_actions, policy.n_goals
    # Q is stored goal-major and action-major: one (A, S) block per active goal
    active = np.arange(n_goals)
    pi_all = policy.probs.transpose(1, 2, 0)
    pi = pi_all
    # (S, A*S): column (a, s) is the next-state distribution of (s, a)
    next_state = mdp.transitions.transpose(1, 0, 2).reshape(n_actions * n_states, n_states).T
    q_done = np.empty((n_goals, n_actions, n_states))
    q = np.zeros((n_goals, n_actions, n_states))
    work_all = np.empty_like(q)  # products, then |q_next - q|; its leading rows as goals retire
    work = work_all
    # (goal row, state) pairs with phi(state) == goal: the goal-absorbing rows
    goal_rows, goal_cells = np.nonzero(mdp.phi[None, :] == active[:, None])
    for _ in range(max_iters):
        v = _action_sum(pi, q, work)
        q_next = (v @ next_state).reshape(q.shape)
        q_next *= mdp.gamma
        # goal states self-loop and collect the reward
        q_next[goal_rows, :, goal_cells] = (v[goal_rows, goal_cells] * mdp.gamma + 1.0)[:, None]
        np.subtract(q_next, q, out=work)
        np.abs(work, out=work)
        delta = work.reshape(len(active), -1).max(axis=1)
        q = q_next
        done = delta <= tol
        if done.any():
            q_done[active[done]] = q[done]
            moving = ~done
            active, q, pi = active[moving], q[moving], pi[moving]
            if not active.size:
                break
            work = work_all[:active.size]
            goal_rows, goal_cells = np.nonzero(mdp.phi[None, :] == active[:, None])
    else:
        raise EvaluationNotConverged(active.tolist(), max_iters)
    v = _action_sum(pi_all, q_done, work_all)
    return q_done.transpose(2, 1, 0), v.T


def _action_sum(pi, q, work):
    """(G, S) sum over actions of pi * q for (G, A, S) arrays, added action by
    action from action 0 (numpy's order for a short contiguous axis); `work`
    receives the products."""
    np.multiply(pi, q, out=work)
    v = work[:, 0].copy()
    for a in range(1, work.shape[1]):
        v += work[:, a]
    return v


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
        q = (next_state @ v).reshape(n_states, -1)
        q[states] = v[states, None]  # goal states self-loop
        q *= gamma
        q[states] += 1.0  # and collect the reward
        probs[:, g, :] = greedy_policy_slice(q, gamma)
    return Sweep(TabularPolicy(probs), values, hits, defined)
