import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gchr.envs import load_tabular_mdp
from gchr.tabular_lab import (
    TabularPolicy,
    check_theorem2_monotonicity,
    grid_cells,
    make_gridworld,
    policy_evaluation_direct,
    policy_iteration_step,
)

from oracles import tensor_theorem2_margins

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def test_policy_iteration_improves_values_pointwise():
    mdp = make_gridworld(4, 4, gamma=0.9, slip=0.1)
    policy = TabularPolicy.uniform(16, 16, 4)
    prev = None
    for _ in range(4):
        values = np.stack(
            [policy_evaluation_direct(mdp, policy, g)[1] for g in range(16)], axis=1
        )
        if prev is not None:
            assert np.min(values - prev) >= -1e-12
        prev = values
        policy, _ = policy_iteration_step(mdp, policy)


def test_single_iteration_trivially_monotone():
    mdp = make_gridworld(3, 3, gamma=0.9)
    report = check_theorem2_monotonicity(mdp, n_iterations=1)
    assert report.monotone()
    assert report.per_sweep == []
    assert report.min_via_diff == 0.0


def test_4x4_gridworld_monotone_over_five_sweeps():
    mdp = make_gridworld(4, 4, gamma=0.9)
    report = check_theorem2_monotonicity(mdp, n_iterations=5)
    assert report.assumption_holds
    assert report.min_via_diff >= -1e-9
    assert len(report.per_sweep) == 4


def test_both_factors_individually_non_decreasing():
    mdp = make_gridworld(4, 4, gamma=0.9, slip=0.15)
    report = check_theorem2_monotonicity(mdp, n_iterations=5)
    assert report.assumption_holds
    assert report.min_hit_diff >= -1e-9
    assert report.min_downstream_diff >= -1e-9


def test_weighted_average_monotone_alongside_pointwise():
    mdp = make_gridworld(3, 4, gamma=0.95, slip=0.05)
    report = check_theorem2_monotonicity(mdp, n_iterations=4)
    assert report.min_weighted_via_diff >= report.min_via_diff - 1e-12
    assert report.min_weighted_via_diff >= -1e-9


def test_chain_fixture_monotone():
    mdp = load_tabular_mdp(ASSETS / "chain3.mdp")
    report = check_theorem2_monotonicity(mdp, n_iterations=3)
    assert report.assumption_holds
    assert report.monotone()


def assert_margins_match_the_tensor_oracle(mdp, initial_policy, tol):
    report = check_theorem2_monotonicity(mdp, n_iterations=4, initial_policy=initial_policy)
    want = tensor_theorem2_margins(mdp, 4, initial_policy=initial_policy)
    assert len(report.per_sweep) == len(want) == 3
    for row, ref in zip(report.per_sweep, want):
        for key in ("via", "hit", "down"):
            assert abs(row[key] - ref[key]) <= tol, key
        assert abs(row["weighted"] - ref["weighted"]) <= 1e-12
    assert report.min_via_diff == min(row["via"] for row in report.per_sweep)
    assert report.min_hit_diff == min(row["hit"] for row in report.per_sweep)
    assert report.min_downstream_diff == min(row["down"] for row in report.per_sweep)
    return report


@pytest.mark.parametrize("name", ["3x3", "4x4", "10x10", "chain3", "4x4_random_start"])
def test_streamed_margins_equal_the_tensor_oracle(name):
    # one state per goal set: every slice product is bit-identical to the
    # dense tensor route, so the minima must match exactly
    initial_policy = None
    if name == "chain3":
        mdp = load_tabular_mdp(ASSETS / "chain3.mdp")
    elif name == "4x4_random_start":
        mdp = make_gridworld(4, 4, gamma=0.9, slip=0.15)
        initial_policy = TabularPolicy.random(16, 16, 4, np.random.default_rng(3))
    else:
        side = int(name.split("x")[0])
        mdp = make_gridworld(side, side, gamma=0.9, slip=0.2)
    assert_margins_match_the_tensor_oracle(mdp, initial_policy, tol=0.0)


def test_streamed_margins_match_the_tensor_oracle_on_two_cell_goal_sets():
    # a wall column cuts the grid in two, so some subgoals are unreachable;
    # pairs of cells share a goal id, so each slice product sums two terms
    walls = [(1, 0), (1, 1), (1, 2)]
    n_states = len(grid_cells(4, 3, walls))
    mdp = make_gridworld(4, 3, gamma=0.9, walls=walls, slip=0.2, phi=np.arange(n_states) // 2)
    initial_policy = TabularPolicy.random(n_states, mdp.n_goals, 4, np.random.default_rng(5))
    assert_margins_match_the_tensor_oracle(mdp, initial_policy, tol=1e-12)


def test_check_peak_memory_stays_below_one_dense_via_goal_tensor():
    # the dense route held several (S, G, G) tensors at once (139 MB here);
    # the streamed check must not need even one
    mdp = make_gridworld(12, 12, gamma=0.9, slip=0.2)
    one_tensor = mdp.n_states * mdp.n_goals**2 * 8
    tracemalloc.start()
    try:
        check_theorem2_monotonicity(mdp, n_iterations=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_tensor


def test_streamed_margins_equal_the_tensor_oracle_when_sweeps_make_values_worse(monkeypatch):
    # the check exists to catch a non-improving sweep: alternate a policy that
    # only takes action 0 (most subgoals unreachable, first-hit rows undefined)
    # with the uniform one, so defined rows both appear and vanish
    import gchr.tabular_lab as lab
    import gchr.tabular_lab.monotonic as monotonic

    mdp = make_gridworld(3, 3, gamma=0.9)
    probs = np.zeros((9, 9, 4))
    probs[:, :, 0] = 1.0
    one_action = TabularPolicy(probs)
    uniform = TabularPolicy.uniform(9, 9, 4)
    evaluate = policy_iteration_step

    def alternate(mdp, policy):
        _, values = evaluate(mdp, policy)
        return (uniform if policy is one_action else one_action), values

    monkeypatch.setattr(lab, "policy_iteration_step", alternate)
    monkeypatch.setattr(monotonic, "policy_iteration_step", alternate)
    report = assert_margins_match_the_tensor_oracle(mdp, one_action, tol=0.0)
    assert not report.monotone()


def count_direct_solves(monkeypatch):
    """Wrap policy_evaluation_direct under every name a gchr module binds it
    to; returns the list the wrapper appends each call's goal to."""
    import sys

    calls = []

    def counting(mdp, policy, goal):
        calls.append(goal)
        return policy_evaluation_direct(mdp, policy, goal)

    for name, module in list(sys.modules.items()):
        if name.startswith("gchr") and vars(module).get("policy_evaluation_direct") is \
                policy_evaluation_direct:
            monkeypatch.setattr(module, "policy_evaluation_direct", counting)
    return calls


@pytest.mark.parametrize("set_size", [1, 2, 3])
def test_one_direct_solve_per_sweep_and_goal(set_size, monkeypatch):
    # the certificates read the first sweep's values, so goal sets of several
    # states cost no solves beyond n_iterations * G
    mdp = make_gridworld(4, 3, gamma=0.9, slip=0.2, phi=np.arange(12) // set_size)
    calls = count_direct_solves(monkeypatch)
    report = check_theorem2_monotonicity(mdp, n_iterations=3)
    assert len(report.certificates) == mdp.n_goals
    assert calls == list(range(mdp.n_goals)) * 3
