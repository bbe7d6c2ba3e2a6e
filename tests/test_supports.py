import numpy as np

from gchr.tabular_lab import (
    TabularPolicy,
    achieved_goals_in_logs,
    behavior_clone,
    hgr_support_table,
    hsr_support_table,
    make_gridworld,
    random_walk_log,
)

from oracles import action_supports


def tiny_log():
    # one trajectory on a 4-state line with identity phi:
    # states 0 ->(a=1) 1 ->(a=1) 2, actions recorded per step
    return [(np.array([0, 1, 2]), np.array([1, 1]))]


def test_hsr_empty_when_goal_never_reached_from_state():
    mdp = make_gridworld(4, 1, gamma=0.9)
    logs = tiny_log()
    prior = TabularPolicy.uniform(4, 4, 2 if False else 4)
    hsr, hgr = action_supports(logs, mdp, prior, s=0, g=3, threshold=1e-6)
    assert hsr == set()  # state 3 never visited after state 0
    assert hgr  # uniform prior proposes everything once any goal was achieved


def test_hsr_contains_logged_actions_leading_to_goal():
    mdp = make_gridworld(4, 1, gamma=0.9)
    table = hsr_support_table(tiny_log(), mdp.phi, mdp.n_goals, mdp.n_actions)
    assert table[0, 2, 1]  # action 1 at state 0 led to goal 2
    assert table[0, 1, 1]
    assert not table[0, 0, 1]  # goal 0 was not achieved strictly later
    assert not table[1, 0, 1]


def test_uniform_prior_covers_full_action_set_once_any_goal_achieved():
    mdp = make_gridworld(3, 1, gamma=0.9)
    prior = TabularPolicy.uniform(3, 3, 4)
    achieved = achieved_goals_in_logs(tiny_log(), mdp.phi, 3)
    hgr = hgr_support_table(prior, achieved, threshold=1e-6)
    assert np.all(hgr)


def test_no_achieved_goals_gives_empty_hgr():
    prior = TabularPolicy.uniform(3, 3, 4)
    hgr = hgr_support_table(prior, np.zeros(3, dtype=bool), threshold=1e-6)
    assert not np.any(hgr)


def test_behavior_clone_probabilities():
    # state 0 takes action 1 and later reaches goals 0, 1, 2 (window t' >= t)
    mdp = make_gridworld(4, 1, gamma=0.9)
    policy = behavior_clone(tiny_log(), mdp.phi, mdp.n_goals, mdp.n_actions)
    assert policy.probs[0, 2, 1] > 0.99
    assert policy.probs[0, 2, 0] < 1e-6
    # unvisited (state, goal) slices stay uniform under smoothing
    np.testing.assert_allclose(policy.probs[3, 0], 0.25)


def test_bc_floor_separates_trained_from_untrained_actions(rng):
    mdp = make_gridworld(3, 3, gamma=0.9)
    logs = random_walk_log(mdp, n_episodes=30, horizon=15, rng=rng)
    policy = behavior_clone(logs, mdp.phi, mdp.n_goals, mdp.n_actions)
    counts_based = hsr_support_table(logs, mdp.phi, mdp.n_goals, mdp.n_actions)
    trained = policy.probs[counts_based]
    assert trained.min() > 1e-6  # every imitated pair sits above the threshold


def test_coverage_inclusion_on_random_gridworld_logs(rng):
    # Theorem-1-style enumeration: every HSR action appears in the HGR set
    # when the prior is the behavior clone of the same log
    mdp = make_gridworld(4, 4, gamma=0.9, slip=0.1)
    logs = random_walk_log(mdp, n_episodes=25, horizon=20, rng=rng)
    prior = behavior_clone(logs, mdp.phi, mdp.n_goals, mdp.n_actions)
    hsr = hsr_support_table(logs, mdp.phi, mdp.n_goals, mdp.n_actions)
    achieved = achieved_goals_in_logs(logs, mdp.phi, mdp.n_goals)
    hgr = hgr_support_table(prior, achieved, threshold=1e-6)
    assert np.all(~hsr | hgr[:, None, :])


def test_action_supports_returns_plain_sets(rng):
    mdp = make_gridworld(3, 3, gamma=0.9)
    logs = random_walk_log(mdp, n_episodes=10, horizon=12, rng=rng)
    prior = behavior_clone(logs, mdp.phi, mdp.n_goals, mdp.n_actions)
    hsr, hgr = action_supports(logs, mdp, prior, s=0, g=8)
    assert isinstance(hsr, set) and isinstance(hgr, set)
    assert hsr <= hgr
