import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gchr.envs import load_tabular_mdp
import gchr.tabular_lab.monotonic as monotonic
from gchr.tabular_lab import (
    TabularPolicy,
    check_theorem2_monotonicity,
    greedy_policy_slice,
    grid_cells,
    make_gridworld,
    policy_iteration_step,
)
from gchr.tabular_lab.solve import TIE_TOL

from oracles import (
    direct_policy_iteration_step,
    policy_evaluation_direct,
    random_mdp,
    tensor_theorem2_margins,
)

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
        policy = policy_iteration_step(mdp, policy).improved


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


def recording_sweeps(monkeypatch, step):
    """Make check_theorem2_monotonicity sweep with `step`; returns the list
    of the policies it evaluates, in order."""
    policies = []

    def recording(mdp, policy):
        policies.append(policy)
        return step(mdp, policy)

    monkeypatch.setattr(monotonic, "policy_iteration_step", recording)
    return policies


def assert_same_policies(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.probs, b.probs)


def assert_margins_match_the_tensor_oracle(mdp, initial_policy, monkeypatch,
                                           step=policy_iteration_step,
                                           oracle_step=direct_policy_iteration_step):
    # the streamed check takes its values from first-hit solves and the
    # oracle from direct ones: they walk the same policies, and the margins
    # agree to rounding that scales with the value bound 1 / (1 - gamma)
    tol = 1e-13 / (1.0 - mdp.gamma)
    walked = recording_sweeps(monkeypatch, step)
    report = check_theorem2_monotonicity(mdp, n_iterations=4, initial_policy=initial_policy)
    want, policies = tensor_theorem2_margins(mdp, 4, initial_policy=initial_policy,
                                             step=oracle_step)
    assert_same_policies(walked, policies)
    assert len(report.per_sweep) == len(want) == 3
    for row, ref in zip(report.per_sweep, want):
        for key in ("via", "hit", "down", "weighted"):
            assert abs(row[key] - ref[key]) <= tol, key
    assert report.min_via_diff == min(row["via"] for row in report.per_sweep)
    assert report.min_hit_diff == min(row["hit"] for row in report.per_sweep)
    assert report.min_downstream_diff == min(row["down"] for row in report.per_sweep)
    return report


@pytest.mark.parametrize("name", ["3x3", "4x4", "10x10", "chain3", "4x4_random_start"])
def test_streamed_margins_equal_the_tensor_oracle(name, monkeypatch):
    # one state per goal set: every slice product has one term, so the
    # margins differ only by the two value routes' rounding
    initial_policy = None
    if name == "chain3":
        mdp = load_tabular_mdp(ASSETS / "chain3.mdp")
    elif name == "4x4_random_start":
        mdp = make_gridworld(4, 4, gamma=0.9, slip=0.15)
        initial_policy = TabularPolicy.random(16, 16, 4, np.random.default_rng(3))
    else:
        side = int(name.split("x")[0])
        mdp = make_gridworld(side, side, gamma=0.9, slip=0.2)
    assert_margins_match_the_tensor_oracle(mdp, initial_policy, monkeypatch)


def test_streamed_margins_match_the_tensor_oracle_on_two_cell_goal_sets(monkeypatch):
    # a wall column cuts the grid in two, so some subgoals are unreachable;
    # pairs of cells share a goal id, so each slice product sums two terms
    walls = [(1, 0), (1, 1), (1, 2)]
    n_states = len(grid_cells(4, 3, walls))
    mdp = make_gridworld(4, 3, gamma=0.9, walls=walls, slip=0.2, phi=np.arange(n_states) // 2)
    initial_policy = TabularPolicy.random(n_states, mdp.n_goals, 4, np.random.default_rng(5))
    assert_margins_match_the_tensor_oracle(mdp, initial_policy, monkeypatch)


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
    mdp = make_gridworld(3, 3, gamma=0.9)
    probs = np.zeros((9, 9, 4))
    probs[:, :, 0] = 1.0
    one_action = TabularPolicy(probs)
    uniform = TabularPolicy.uniform(9, 9, 4)

    def other(policy):
        return uniform if policy is one_action else one_action

    def alternate(mdp, policy):
        return policy_iteration_step(mdp, policy)._replace(improved=other(policy))

    def alternate_direct(mdp, policy):
        return other(policy), direct_policy_iteration_step(mdp, policy)[1]

    report = assert_margins_match_the_tensor_oracle(mdp, one_action, monkeypatch,
                                                    alternate, alternate_direct)
    assert not report.monotone()


def counting_solves(monkeypatch):
    """Wrap np.linalg.solve; returns the list the wrapper appends each
    call's (matrix order, right-hand sides) to."""
    solve = np.linalg.solve
    calls = []

    def counting(a, b):
        calls.append((a.shape[0], 1 if b.ndim == 1 else b.shape[1]))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.mark.parametrize("set_size", [1, 2, 3])
def test_one_first_hit_solve_per_sweep_and_goal(set_size, monkeypatch):
    # the values, the greedy step and both via-goal factors share one taboo
    # solve per goal; the certificates read the first sweep's values, so
    # goal sets of several states cost nothing more
    mdp = make_gridworld(4, 3, gamma=0.9, slip=0.2, phi=np.arange(12) // set_size)
    calls = counting_solves(monkeypatch)
    report = check_theorem2_monotonicity(mdp, n_iterations=3)
    assert len(report.certificates) == mdp.n_goals
    sizes = [len(mdp.goal_states(g)) for g in range(mdp.n_goals)]
    # each on the states outside the goal set, with one column per goal state
    assert calls == [(12 - k, k) for k in sizes] * 3
    assert all(order < 12 for order, _ in calls)  # no direct solve on all 12 states


SWEEP_CASES = {
    "chain3": lambda: load_tabular_mdp(ASSETS / "chain3.mdp"),
    "grid_0.5": lambda: make_gridworld(4, 4, gamma=0.5, slip=0.2),
    "grid_0.9": lambda: make_gridworld(6, 6, gamma=0.9, slip=0.2),
    "grid_0.99": lambda: make_gridworld(6, 6, gamma=0.99, slip=0.1),
    "pairs_0.95": lambda: make_gridworld(4, 3, gamma=0.95, slip=0.2, phi=np.arange(12) // 2),
    "random_grouped": lambda: random_mdp(np.random.default_rng(11), 12, 3, 4, 0.9),
}


@pytest.mark.parametrize("name", list(SWEEP_CASES))
def test_sweep_values_equal_direct_evaluation(name):
    # V = hit_mass / (1 - gamma) from the taboo solve against the dense
    # Bellman solve, for the uniform policy and two sweeps of improvement;
    # rounding scales with the value bound 1 / (1 - gamma) times the
    # conditioning of I - gamma P_pi, about 1 / (1 - gamma) again
    mdp = SWEEP_CASES[name]()
    policy = TabularPolicy.uniform(mdp.n_states, mdp.n_goals, mdp.n_actions)
    for _ in range(3):
        sweep = policy_iteration_step(mdp, policy)
        improved, values = direct_policy_iteration_step(mdp, policy)
        np.testing.assert_allclose(sweep.values, values, rtol=0,
                                   atol=1e-15 / (1.0 - mdp.gamma) ** 2)
        np.testing.assert_array_equal(sweep.improved.probs, improved.probs)
        policy = sweep.improved


def tied_q(gamma):
    """Q of a 5x4 grid goal under the uniform policy, direct route: moves
    into walls tie with staying put, and mirror-image moves tie exactly."""
    mdp = make_gridworld(5, 4, gamma=gamma)
    policy = TabularPolicy.uniform(20, 20, 4)
    return policy_evaluation_direct(mdp, policy, 7)[0]


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.9999])
def test_greedy_slice_ignores_a_few_ulps(gamma):
    q = tied_q(gamma)
    greedy = greedy_policy_slice(q, gamma)
    rng = np.random.default_rng(4)
    flips = 0
    for _ in range(20):
        noisy = q.copy()
        for _ in range(4):  # up to 4 ulps up or down, entry by entry
            noisy = np.nextafter(noisy, np.where(rng.random(q.shape) < 0.5, -np.inf, np.inf))
        np.testing.assert_array_equal(greedy_policy_slice(noisy, gamma), greedy)
        flips += int(np.any(np.argmax(noisy, axis=1) != np.argmax(q, axis=1)))
    assert flips > 0  # a plain argmax does change its pick


def test_greedy_slice_picks_the_lowest_action_within_the_tie_tolerance():
    gamma = 0.9
    tau = TIE_TOL / (1.0 - gamma)
    q = np.array([[5.0 - 0.5 * tau, 5.0, 4.0],
                  [5.0 - 2.0 * tau, 5.0, 4.0],
                  [5.0, 5.0 + 1e-10, 4.0]])  # a gap of 1e-10 is no tie
    np.testing.assert_array_equal(greedy_policy_slice(q, gamma),
                                  [[1, 0, 0], [0, 1, 0], [0, 1, 0]])


def test_verification_solves_twice_per_policy_and_goal(monkeypatch):
    # one two-column solve for the occupancy's contractions and one taboo
    # first-hit solve per (policy, goal), none with more than 1 + |S_g|
    # right-hand sides; the sweeps add one first-hit solve per goal each
    import gchr.tabular_lab.report as report
    from gchr.tabular_lab import compute_occupancy, verify_tabular

    mdp = make_gridworld(4, 3, gamma=0.9, slip=0.2, phi=np.arange(12) // 2)
    calls = counting_solves(monkeypatch)
    per_table = []

    def counting_occupancy(mdp, policy, goal):
        start = len(calls)
        table = compute_occupancy(mdp, policy, goal)
        per_table.append((goal, calls[start:]))
        return table

    monkeypatch.setattr(report, "compute_occupancy", counting_occupancy)
    verify_tabular(mdp, seed=0, pi_sweeps=2)
    assert [goal for goal, _ in per_table] == list(range(mdp.n_goals)) * report.N_POLICIES
    for goal, solves in per_table:
        k = len(mdp.goal_states(goal))
        assert solves == [(12, 2), (12 - k, k)]
        assert all(rhs <= 1 + k for _, rhs in solves)
    assert len(calls) == (2 * report.N_POLICIES + 2) * mdp.n_goals
