from dataclasses import replace

import numpy as np
import pytest

from gchr.envs import TabularGCMDP
from gchr.tabular_lab import (
    TabularPolicy,
    check_assumption_uniform_reachability,
    make_gridworld,
    policy_iteration_step,
)

from oracles import paired_goal_grid, per_goal_solve_certificate


def uniform_values(mdp):
    """(S, G) exact values of the uniform policy, as one sweep returns them."""
    policy = TabularPolicy.uniform(mdp.n_states, mdp.n_goals, mdp.n_actions)
    return policy_iteration_step(mdp, policy)[1]


def singleton_grid():
    return make_gridworld(3, 3, gamma=0.9)  # identity phi: |S_g| = 1 everywhere


def symmetric_pair():
    # two mutually-connected states share a goal id and have identical rows,
    # so their values toward any other goal agree exactly
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0] = [0.0, 1.0, 0.0]
    transitions[0, 1] = [0.0, 0.0, 1.0]
    transitions[1, 0] = [1.0, 0.0, 0.0]
    transitions[1, 1] = [0.0, 0.0, 1.0]
    transitions[2, 0] = [0.0, 0.0, 1.0]
    transitions[2, 1] = [0.0, 0.0, 1.0]
    return TabularGCMDP(transitions, np.array([0, 0, 1]), 0.9)


def disconnected_pair():
    # states 0 and 1 map to the same goal but cannot reach each other
    transitions = np.zeros((2, 1, 2))
    transitions[0, 0, 0] = 1.0
    transitions[1, 0, 1] = 1.0
    return TabularGCMDP(transitions, np.array([0, 0]), 0.9)


def lopsided_pair():
    # states 0 and 1 share a goal id and can reach each other, but state 1
    # sits closer to goal state 2, so V(., g') differs across the goal set
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0] = [0.0, 1.0, 0.0]
    transitions[0, 1] = [1.0, 0.0, 0.0]
    transitions[1, 0] = [1.0, 0.0, 0.0]
    transitions[1, 1] = [0.0, 0.0, 1.0]
    transitions[2, 0] = [0.0, 0.0, 1.0]
    transitions[2, 1] = [0.0, 0.0, 1.0]
    return TabularGCMDP(transitions, np.array([0, 0, 1]), 0.9)


def test_singleton_goal_sets_hold_for_any_delta():
    mdp = singleton_grid()
    values = uniform_values(mdp)
    for g in range(9):
        cert = check_assumption_uniform_reachability(mdp, values, g, delta=1e-12)
        assert cert.holds and cert.part1_ok and cert.part2_ok
        assert cert.max_spread == 0.0


def test_grouped_goal_set_with_symmetric_dynamics_holds():
    mdp = symmetric_pair()
    cert = check_assumption_uniform_reachability(mdp, uniform_values(mdp), goal=0, delta=1e-9)
    assert cert.holds


def test_disconnected_goal_set_reports_witness_pair():
    mdp = disconnected_pair()
    cert = check_assumption_uniform_reachability(mdp, uniform_values(mdp), goal=0, delta=1e-9)
    assert not cert.holds and not cert.part1_ok
    assert (0, 1) in cert.unreachable_pairs and (1, 0) in cert.unreachable_pairs


def test_value_spread_violation_reported():
    mdp = lopsided_pair()
    cert = check_assumption_uniform_reachability(mdp, uniform_values(mdp), goal=0, delta=1e-3)
    assert cert.part1_ok and not cert.part2_ok and not cert.holds
    other_goal, spread, _, _ = cert.spread_violations[0]
    assert other_goal == 1 and spread > 1e-3


def without_spreads(cert):
    """The certificate with its spreads blanked and its witnesses kept."""
    return replace(cert, max_spread=0.0, spread_violations=[
        (other, None, s_max, s_min) for other, _, s_max, s_min in cert.spread_violations])


def spreads(cert):
    return [cert.max_spread] + [row[1] for row in cert.spread_violations]


@pytest.mark.parametrize("build, delta", [
    (singleton_grid, 1e-12),
    (symmetric_pair, 1e-9),
    (disconnected_pair, 1e-9),
    (lopsided_pair, 1e-3),
    (paired_goal_grid, 1e-9),
])
def test_certificate_from_sweep_values_equals_the_per_goal_solve_certificate(build, delta, rng):
    # the sweep's values come from first-hit solves, the oracle's from one
    # direct solve per goal: verdicts and witnesses are equal, and the
    # spreads agree to the two routes' rounding
    mdp = build()
    policies = [TabularPolicy.uniform(mdp.n_states, mdp.n_goals, mdp.n_actions),
                TabularPolicy.random(mdp.n_states, mdp.n_goals, mdp.n_actions, rng)]
    tol = 1e-15 / (1.0 - mdp.gamma) ** 2
    for policy in policies:
        values = policy_iteration_step(mdp, policy)[1]
        for goal in range(mdp.n_goals):
            cert = check_assumption_uniform_reachability(mdp, values, goal, delta)
            want = per_goal_solve_certificate(mdp, policy, goal, delta)
            assert without_spreads(cert) == without_spreads(want)
            np.testing.assert_allclose(spreads(cert), spreads(want), rtol=0, atol=tol)
