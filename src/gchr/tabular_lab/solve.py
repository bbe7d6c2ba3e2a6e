"""Exact evaluation and improvement of tabular goal-conditioned policies.

All values use the goal-absorbing formulation with reward r(s) = 1{phi(s)=g}
collected at every timestep from t = 0 on, so a state already satisfying the
goal is worth exactly 1/(1-gamma). Direct evaluation solves the Bellman
linear system by dense elimination, one goal at a time. The iterative
variant is the independent cross-check route: it repeats Bellman backups
for every goal of the policy at once, one (goals, S) @ (S, S*A) product per
sweep on the raw transitions, with the goal-absorbing rows applied as a
phi == g mask, and retires each goal when its own update falls to tol.
"""

from __future__ import annotations

import math

import numpy as np


def reward_vector(mdp, goal):
    return (mdp.phi == goal).astype(np.float64)


def policy_transition_matrix(mdp, policy, goal):
    """State-to-state matrix under the goal-absorbing dynamics and the
    policy's slice for that goal."""
    p_eff = mdp.effective_transitions(goal)
    return np.einsum("sa,sax->sx", policy.for_goal(goal), p_eff)


def policy_evaluation_direct(mdp, policy, goal):
    """Exact (Q, V) for one goal via a dense linear solve."""
    if not mdp.absorbing_goals:
        raise ValueError("evaluation requires the goal-absorbing formulation")
    r = reward_vector(mdp, goal)
    p_pi = policy_transition_matrix(mdp, policy, goal)
    n = mdp.n_states
    v = np.linalg.solve(np.eye(n) - mdp.gamma * p_pi, r)
    p_eff = mdp.effective_transitions(goal)
    q = r[:, None] + mdp.gamma * np.einsum("sax,x->sa", p_eff, v)
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
    if not mdp.absorbing_goals:
        raise ValueError("evaluation requires the goal-absorbing formulation")
    if max_iters is None:
        max_iters = sweep_cap(mdp.gamma, tol)
    n_states, n_actions, n_goals = mdp.n_states, mdp.n_actions, policy.n_goals
    # Q is stored goal-major: one (S, A) block per active goal
    active = np.arange(n_goals)
    # (G, S) phi(s) == g: the goal-absorbing rows, and also the reward
    absorbing = mdp.phi[None, :] == active[:, None]
    pi_all = policy.probs.transpose(1, 0, 2)
    pi = pi_all
    next_state = mdp.transitions.reshape(n_states * n_actions, n_states).T
    q_done = np.empty((n_goals, n_states, n_actions))
    q = np.zeros((n_goals, n_states, n_actions))
    for _ in range(max_iters):
        v = (pi * q).sum(axis=2)
        q_next = (v @ next_state).reshape(q.shape)
        q_next[absorbing] = v[absorbing][:, None]  # goal states self-loop
        q_next *= mdp.gamma
        q_next += absorbing[:, :, None]
        delta = np.abs(q_next - q).max(axis=(1, 2))
        q = q_next
        done = delta <= tol
        if done.any():
            q_done[active[done]] = q[done]
            moving = ~done
            active, q, absorbing, pi = active[moving], q[moving], absorbing[moving], pi[moving]
            if not active.size:
                break
    else:
        raise EvaluationNotConverged(active.tolist(), max_iters)
    v = (pi_all * q_done).sum(axis=2)
    return q_done.transpose(1, 2, 0), v.T


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
