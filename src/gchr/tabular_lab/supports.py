"""Action-support sets of the two hindsight regularizers, on logged data.

Given a trajectory log, the self-imitation support at (s, g) contains the
actions that were taken at s in some trajectory that reached g strictly
later in the same trajectory. The goal-regularization support is the union,
over every goal ever achieved in the log, of the actions a prior policy
assigns more than a threshold probability when conditioned on that goal.
The coverage theorem (HSR support contained in HGR support) is checked by
plain enumeration of these sets.
"""

from __future__ import annotations

import numpy as np

from .policy import TabularPolicy

SMOOTHING = 1e-8  # additive count in behavior_clone


def behavior_clone(logs, phi, n_goals, n_actions):
    """Tabular behavior cloning on the future-relabeled log.

    Every (s_t, a_t) pair is credited to every goal achieved at t' >= t in
    its trajectory (the achievable-future-goal window, endpoint included).
    Additive SMOOTHING keeps unvisited (state, goal) slices uniform and
    visited slices bounded away from zero.
    """
    phi = np.asarray(phi)
    n_states = len(phi)
    counts = np.zeros((n_states, n_goals, n_actions))
    for states, actions in logs:
        goals = phi[np.asarray(states)]
        horizon = len(actions)
        for t in range(horizon):
            np.add.at(counts, (states[t], goals[t:], actions[t]), 1.0)
    counts += SMOOTHING
    return TabularPolicy(counts / counts.sum(axis=2, keepdims=True))


def hsr_support_table(logs, phi, n_goals, n_actions):
    """Boolean (S, G, A): action a taken at s later reached g in the same trajectory."""
    phi = np.asarray(phi)
    n_states = len(phi)
    table = np.zeros((n_states, n_goals, n_actions), dtype=bool)
    for states, actions in logs:
        goals = phi[np.asarray(states)]
        horizon = len(actions)
        for t in range(horizon):
            later = np.unique(goals[t + 1 :])  # strictly after the action
            table[states[t], later, actions[t]] = True
    return table


def achieved_goals_in_logs(logs, phi, n_goals):
    """Boolean (G,): goals achieved at any timestep of any logged trajectory."""
    phi = np.asarray(phi)
    achieved = np.zeros(n_goals, dtype=bool)
    for states, _ in logs:
        achieved[np.unique(phi[np.asarray(states)])] = True
    return achieved


def hgr_support_table(prior_policy, achieved, threshold=1e-6):
    """Boolean (S, A): prior probability above threshold for some achieved goal.

    The set does not depend on the queried desired goal, only on which goals
    the log ever achieved.
    """
    if not np.any(achieved):
        return np.zeros((prior_policy.n_states, prior_policy.n_actions), dtype=bool)
    return np.any(prior_policy.probs[:, achieved, :] > threshold, axis=1)
