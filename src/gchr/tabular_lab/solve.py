"""Exact evaluation and improvement of tabular goal-conditioned policies.

Every MDP is goal-absorbing (see envs.tabular), with reward r(s) = 1{phi(s)=g}
collected at every timestep from t = 0 on, so a state already satisfying the
goal is worth exactly 1/(1-gamma). The goal-absorbing rows are written over
the raw dynamics by the goal set's state indices; no (S, A, S) copy with the
override applied is made.

Direct evaluation solves the Bellman linear system by dense elimination, one
goal at a time. The iterative variant is the independent cross-check route:
it repeats Bellman backups for every goal of the policy at once and retires
each goal when its own update falls to tol. Its Q is stored goal-major and
action-major, (G, A, S), so each sweep is one (G, S) @ (S, A*S) product on
the raw transitions, every goal's A*S block is contiguous for the update
norm, and V is the sum of A contiguous (G, S) planes. V is summed action by
action, starting from action 0: numpy reduces a contiguous axis of at most
seven entries in exactly that order, so Q and V are bit-identical to the
goal-major (G, S, A) layout's `(pi * q).sum(axis=2)` for A <= 7.
"""

from __future__ import annotations

import math

import numpy as np


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


def policy_evaluation_direct(mdp, policy, goal):
    """Exact (Q, V) for one goal via a dense linear solve."""
    r = reward_vector(mdp, goal)
    p_pi = policy_transition_matrix(mdp, policy, goal)
    n = mdp.n_states
    v = np.linalg.solve(np.eye(n) - mdp.gamma * p_pi, r)
    next_v = np.einsum("sax,x->sa", mdp.transitions, v)
    states = mdp.goal_states(goal)
    next_v[states] = v[states, None]  # goal states self-loop
    q = r[:, None] + mdp.gamma * next_v
    return q, v


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

    Independent of the direct solve. Returns q (S, A, G) and v (S, G). Each
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


def greedy_policy_slice(q):
    """One-hot greedy (S, A) slice; ties break toward the lowest action id."""
    n_states, n_actions = q.shape
    out = np.zeros((n_states, n_actions))
    out[np.arange(n_states), np.argmax(q, axis=1)] = 1.0
    return out


def policy_iteration_step(mdp, policy):
    """One exact policy-improvement sweep across every goal slice.

    Returns (improved TabularPolicy, per-goal V of the *input* policy).
    By the policy improvement theorem the returned policy's value dominates
    the input's pointwise, for every goal.
    """
    from .policy import TabularPolicy

    probs = np.empty_like(policy.probs)
    values = np.empty((mdp.n_states, policy.n_goals))
    for g in range(policy.n_goals):
        q, v = policy_evaluation_direct(mdp, policy, g)
        probs[:, g, :] = greedy_policy_slice(q)
        values[:, g] = v
    return TabularPolicy(probs), values
