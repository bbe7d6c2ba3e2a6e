from pathlib import Path

import numpy as np
import pytest

from gchr.envs import TabularGCMDP, load_tabular_mdp
from gchr.tabular_lab import (
    TabularPolicy,
    grid_cells,
    make_gridworld,
    policy_evaluation_direct,
    via_goal_components,
    via_goal_tensor,
    via_goal_value,
)

from oracles import mc_via_goal, occupancy_via_goal_tensor

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def exact_values(mdp, policy):
    """(S, G) values of every goal slice, one direct solve per goal."""
    return np.stack([policy_evaluation_direct(mdp, policy, g)[1] for g in range(policy.n_goals)],
                    axis=1)


def test_single_path_case_is_gamma_times_downstream_value():
    # s1 sits one deterministic step from the goal set {s2}; with g' = g the
    # via-goal value collapses to gamma * V(s2, g)
    mdp = load_tabular_mdp(ASSETS / "chain3.mdp")
    policy = TabularPolicy.uniform(3, 3, 2)
    _, v = policy_evaluation_direct(mdp, policy, goal=2)
    got = via_goal_value(mdp, policy, s=1, goal=2, subgoal=2)
    assert got == pytest.approx(mdp.gamma * v[2], abs=1e-12)
    assert got == pytest.approx(0.5 * (1 / (1 - 0.5)))


def test_unreachable_subgoal_gives_zero():
    transitions = np.zeros((3, 1, 3))
    transitions[0, 0, 0] = 1.0
    transitions[1, 0, 1] = 1.0
    transitions[2, 0, 2] = 1.0
    mdp = TabularGCMDP(transitions, np.array([0, 1, 2]), 0.9)
    policy = TabularPolicy.uniform(3, 3, 1)
    assert via_goal_value(mdp, policy, s=0, goal=1, subgoal=2) == 0.0
    _, _, defined = via_goal_components(mdp, policy, 0, 1, 2)
    assert not defined


def test_via_goal_with_subgoal_equal_goal_matches_value():
    # routing through the goal itself is exactly the plain value
    mdp = make_gridworld(3, 3, gamma=0.9)
    policy = TabularPolicy.uniform(9, 9, 4)
    for s in range(9):
        for g in range(9):
            _, v = policy_evaluation_direct(mdp, policy, g)
            via = via_goal_value(mdp, policy, s, g, subgoal=g)
            assert via == pytest.approx(v[s], abs=1e-9)


def test_gridworld_matches_monte_carlo_rollout_oracle(rng):
    mdp = make_gridworld(5, 5, gamma=0.9)
    cells = grid_cells(5, 5)
    policy = TabularPolicy.uniform(25, 25, 4)
    s = cells.index((0, 0))
    subgoal = cells.index((2, 2))
    goal = cells.index((4, 4))
    exact = via_goal_value(mdp, policy, s, goal, subgoal)
    estimate, stderr = mc_via_goal(mdp, policy, s, goal, subgoal, 100_000, rng)
    assert abs(exact - estimate) <= 3 * stderr


def test_tensor_agrees_with_scalar_op(rng):
    mdp = make_gridworld(3, 3, gamma=0.85, slip=0.2)
    policy = TabularPolicy.random(9, 9, 4, rng)
    v_via, p_hit, downstream, defined = via_goal_tensor(mdp, policy, exact_values(mdp, policy))
    for s in [0, 4, 8]:
        for g in [1, 6]:
            for sub in [0, 3, 8]:
                assert v_via[s, g, sub] == pytest.approx(
                    via_goal_value(mdp, policy, s, g, sub), abs=1e-12
                )
                hit, down, ok = via_goal_components(mdp, policy, s, g, sub)
                assert defined[s, sub] == ok
                if ok:
                    assert p_hit[s, sub] == pytest.approx(hit, abs=1e-12)
                    assert downstream[s, g, sub] == pytest.approx(down, abs=1e-12)


def test_hit_probability_equals_one_minus_gamma_times_value(rng):
    # p(g'|s) = (1 - gamma) V(s, g'): the identity Theorem 2's first factor uses
    mdp = make_gridworld(4, 3, gamma=0.9, slip=0.1)
    policy = TabularPolicy.random(12, 12, 4, rng)
    _, p_hit, _, _ = via_goal_tensor(mdp, policy, exact_values(mdp, policy))
    for sub in range(12):
        _, v = policy_evaluation_direct(mdp, policy, sub)
        np.testing.assert_allclose(p_hit[:, sub], (1 - 0.9) * v, atol=1e-10)


def test_tensor_matches_reference_built_from_occupancy_tables(rng):
    # a wall column cuts the grid in two, so some subgoals are unreachable
    # (undefined first-hit rows); pairs of cells share a goal id
    walls = [(1, 0), (1, 1), (1, 2)]
    n_states = len(grid_cells(4, 3, walls))
    mdp = make_gridworld(4, 3, gamma=0.9, walls=walls, slip=0.2, phi=np.arange(n_states) // 2)
    policy = TabularPolicy.random(n_states, mdp.n_goals, 4, rng)
    got = via_goal_tensor(mdp, policy, exact_values(mdp, policy))
    want = occupancy_via_goal_tensor(mdp, policy)
    defined = want[3]
    assert defined.any() and not defined.all()
    np.testing.assert_array_equal(got[3], defined)
    for g, w in zip(got[:3], want[:3]):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)
