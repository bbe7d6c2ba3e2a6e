import math
from pathlib import Path

import numpy as np
import pytest

from gchr.envs import TabularGCMDP, load_tabular_mdp
from gchr.tabular_lab import (
    TabularPolicy,
    compute_occupancy,
    make_gridworld,
    policy_evaluation_direct,
    policy_evaluation_iterative,
    q_from_occupancy,
    random_mdp,
    v_from_occupancy,
)
from gchr.tabular_lab.occupancy import HIT_MASS_FLOOR
from gchr.tabular_lab.solve import EvaluationNotConverged, policy_transition_matrix, sweep_cap

from oracles import geometric_tail, per_goal_iterative_evaluation

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def chain3():
    return load_tabular_mdp(ASSETS / "chain3.mdp")


def uniform_policy(mdp):
    return TabularPolicy.uniform(mdp.n_states, mdp.n_goals, mdp.n_actions)


def test_chain_occupancy_geometric_sum_oracle():
    # deterministic 3-chain, gamma = 0.5, goal 2 absorbing: s2 is occupied
    # from step 2 on, so d(s2|s0, a) = (1-gamma) * sum_{k>=2} gamma^k = 0.25
    mdp = chain3()
    table = compute_occupancy(mdp, uniform_policy(mdp), goal=2)
    expected = (1 - 0.5) * geometric_tail(0.5, 2)
    assert expected == 0.25
    for a in range(2):
        assert table.d[0, a, 2] == pytest.approx(0.25, abs=1e-12)
    # s1 is visited exactly at step 1
    assert table.d[0, 0, 1] == pytest.approx((1 - 0.5) * 0.5, abs=1e-12)


def test_absorbing_state_keeps_all_occupancy_mass():
    # a state already satisfying the goal self-loops forever, so the whole
    # (1-gamma)-normalized occupancy row concentrates on it
    mdp = chain3()
    table = compute_occupancy(mdp, uniform_policy(mdp), goal=2)
    assert table.d[2, 0, 2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(table.d[2, 0, :2] == 0.0)


def test_occupancy_rows_sum_to_one_random_mdp(rng):
    mdp = random_mdp(rng, n_states=6, n_actions=3, n_goals=4, gamma=0.9)
    policy = TabularPolicy.random(6, 4, 3, rng)
    for goal in range(4):
        table = compute_occupancy(mdp, policy, goal)
        np.testing.assert_allclose(table.d.sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(table.d_marginal.sum(axis=1), 1.0, atol=1e-9)


def test_occupancy_matches_truncated_power_iteration(rng):
    # independent route: d = (1-g)[I + g * P_eff . sum_k g^k P_pi^k] truncated
    mdp = random_mdp(rng, n_states=5, n_actions=2, n_goals=3, gamma=0.9)
    policy = TabularPolicy.random(5, 3, 2, rng)
    goal = 1
    table = compute_occupancy(mdp, policy, goal)
    p_eff = mdp.effective_transitions(goal)
    p_pi = policy_transition_matrix(mdp, policy, goal)
    acc = np.zeros((5, 5))
    power = np.eye(5)
    for _ in range(2500):
        acc += power
        power = 0.9 * (power @ p_pi)
    d_trunc = (1 - 0.9) * (np.eye(5)[:, None, :] + 0.9 * np.einsum("sax,xy->say", p_eff, acc))
    np.testing.assert_allclose(table.d, d_trunc, atol=1e-10)


def test_chain_q_identity_brute_force_oracle():
    # Q(s0, a, 2) = sum_{k>=2} 0.5^k = 0.5 and equals p / (1 - gamma)
    mdp = chain3()
    table = compute_occupancy(mdp, uniform_policy(mdp), goal=2)
    assert q_from_occupancy(table, 0, 0) == pytest.approx(geometric_tail(0.5, 2), abs=1e-12)
    assert q_from_occupancy(table, 0, 0) == pytest.approx(0.5)
    assert table.p_goal[0, 0] == pytest.approx(0.25)


def test_value_at_goal_state_is_full_discounted_series():
    # reward arrives at every timestep including t=0 once inside the goal set
    mdp = chain3()
    table = compute_occupancy(mdp, uniform_policy(mdp), goal=2)
    assert v_from_occupancy(table, 2) == pytest.approx(1.0 / (1 - 0.5), abs=1e-12)


def test_occupancy_d_matches_einsum_reference(rng):
    # the BLAS matmul on the (S*A, S) reshape against the tensor contraction
    # it replaced, goal-absorbing rows included
    phi = np.arange(20) // 3  # goal sets of three states (two for the last goal)
    mdp = make_gridworld(5, 4, gamma=0.9, slip=0.3, phi=phi)
    policy = TabularPolicy.random(20, mdp.n_goals, 4, rng)
    for goal in range(mdp.n_goals):
        table = compute_occupancy(mdp, policy, goal)
        p_pi = policy_transition_matrix(mdp, policy, goal)
        resolvent = np.linalg.solve(np.eye(20) - 0.9 * p_pi, np.eye(20))
        p_eff = mdp.effective_transitions(goal)
        d_ref = (1 - 0.9) * (
            np.eye(20)[:, None, :] + 0.9 * np.einsum("sax,xy->say", p_eff, resolvent)
        )
        np.testing.assert_allclose(table.d, d_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            table.p_goal, d_ref[:, :, mdp.goal_states(goal)].sum(axis=2), rtol=0, atol=1e-14
        )


def test_identity_against_iterative_evaluation_random_mdps(rng):
    for _ in range(10):
        n_s = int(rng.integers(3, 8))
        n_a = int(rng.integers(2, 4))
        n_g = int(rng.integers(2, n_s + 1))
        gamma = rng.choice([0.5, 0.9, 0.98])
        mdp = random_mdp(rng, n_s, n_a, n_g, gamma)
        policy = TabularPolicy.random(n_s, n_g, n_a, rng)
        q_iter, _ = policy_evaluation_iterative(mdp, policy)
        assert q_iter.shape == (n_s, n_a, n_g)
        for goal in range(n_g):
            table = compute_occupancy(mdp, policy, goal)
            assert np.max(np.abs(q_from_occupancy(table) - q_iter[:, :, goal])) <= 1e-9


def test_direct_and_iterative_evaluation_agree(rng):
    mdp = random_mdp(rng, 6, 3, 3, 0.95)
    policy = TabularPolicy.random(6, 3, 3, rng)
    q_it, v_it = policy_evaluation_iterative(mdp, policy)
    assert v_it.shape == (6, 3)
    for goal in range(3):
        q_dir, v_dir = policy_evaluation_direct(mdp, policy, goal)
        np.testing.assert_allclose(q_dir, q_it[:, :, goal], atol=1e-10)
        np.testing.assert_allclose(v_dir, v_it[:, goal], atol=1e-10)


def deterministic_mdp(rng, n_states, n_actions, n_goal_ids, gamma):
    """One-hot transitions: every Bellman backup sums one nonzero term, so
    the batched and per-goal routes round identically."""
    transitions = np.zeros((n_states, n_actions, n_states))
    nxt = rng.integers(0, n_states, size=(n_states, n_actions))
    transitions[np.arange(n_states)[:, None], np.arange(n_actions), nxt] = 1.0
    phi = rng.integers(0, n_goal_ids, size=n_states)
    phi[0] = n_goal_ids - 1  # keep every id in range; lower ids may own no state
    return TabularGCMDP(transitions, phi, gamma)


def test_batched_iterative_evaluation_retires_each_goal_like_the_per_goal_oracle(rng):
    # on one-hot dynamics the batched sweeps must equal the per-goal loop
    # bit for bit, and each goal must stop after exactly the oracle's sweeps
    split = grouped = 0
    for _ in range(8):
        for gamma in (0.5, 0.9, 0.98):
            mdp = deterministic_mdp(rng, 8, 3, 4, gamma)
            policy = TabularPolicy.random(8, 4, 3, rng)
            q, v = policy_evaluation_iterative(mdp, policy)
            sweeps = []
            for goal in range(4):
                q_ref, v_ref, n_sweeps = per_goal_iterative_evaluation(mdp, policy, goal)
                np.testing.assert_array_equal(q[:, :, goal], q_ref)
                np.testing.assert_array_equal(v[:, goal], v_ref)
                sweeps.append(n_sweeps)
            for cap in sorted(set(sweeps))[:-1]:
                with pytest.raises(EvaluationNotConverged) as info:
                    policy_evaluation_iterative(mdp, policy, max_iters=cap)
                assert info.value.goals == [g for g in range(4) if sweeps[g] > cap]
            split += len(set(sweeps)) > 1
            grouped += int(np.bincount(mdp.phi).max() > 1)
    assert split >= 5 and grouped >= 20  # goals stop at different sweeps; goal sets >1 state


def test_batched_iterative_evaluation_matches_per_goal_oracle_on_dense_mdps(rng):
    # dense rows round differently under the matmul, so compare to a
    # tolerance far below the convergence error tol * gamma / (1 - gamma)
    for _ in range(4):
        for gamma in (0.5, 0.9, 0.98):
            mdp = random_mdp(rng, 9, 3, 4, gamma)
            policy = TabularPolicy.random(9, 4, 3, rng)
            q, v = policy_evaluation_iterative(mdp, policy)
            for goal in range(4):
                q_ref, v_ref, _ = per_goal_iterative_evaluation(mdp, policy, goal)
                np.testing.assert_allclose(q[:, :, goal], q_ref, rtol=0, atol=1e-13 / (1 - gamma))
                np.testing.assert_allclose(v[:, goal], v_ref, rtol=0, atol=1e-13 / (1 - gamma))


def test_iterative_evaluation_raises_off_the_absorbing_formulation_and_at_the_cap(rng):
    mdp = random_mdp(rng, 5, 2, 3, 0.9, absorbing_goals=False)
    with pytest.raises(ValueError, match="absorbing"):
        policy_evaluation_iterative(mdp, TabularPolicy.uniform(5, 3, 2))
    mdp = random_mdp(rng, 5, 2, 3, 0.9)
    with pytest.raises(RuntimeError, match="did not converge") as info:
        policy_evaluation_iterative(mdp, TabularPolicy.uniform(5, 3, 2), max_iters=20)
    assert info.value.goals == [0, 1, 2]


def test_first_hit_support_and_normalization(rng):
    mdp = random_mdp(rng, 6, 2, 3, 0.9)
    policy = TabularPolicy.random(6, 3, 2, rng)
    for goal in range(3):
        table = compute_occupancy(mdp, policy, goal)
        outside = np.ones(6, dtype=bool)
        outside[mdp.goal_states(goal)] = False
        assert np.all(table.first_hit[:, outside] == 0.0)
        defined = table.hit_mass > HIT_MASS_FLOOR
        np.testing.assert_allclose(table.first_hit[defined].sum(axis=1), 1.0, atol=1e-9)


def test_first_hit_point_mass_inside_goal_set():
    mdp = chain3()
    table = compute_occupancy(mdp, uniform_policy(mdp), goal=2)
    np.testing.assert_array_equal(table.first_hit[2], [0.0, 0.0, 1.0])
    assert table.hit_mass[2] == 1.0


def test_hit_mass_equals_goal_density(rng):
    # the discounted first-passage mass and the future-goal density are the
    # same object on an absorbing goal set
    mdp = random_mdp(rng, 7, 3, 4, 0.9)
    policy = TabularPolicy.random(7, 4, 3, rng)
    for goal in range(4):
        table = compute_occupancy(mdp, policy, goal)
        np.testing.assert_allclose(table.hit_mass, table.p_goal_marginal, atol=1e-10)


def test_first_hit_invariant_to_relabeling_off_path_states():
    # two disconnected islands: states 0-2 chain into 2; state 3 self-loops.
    # relabeling state 3's goal id must not change first-hit toward goal 1.
    transitions = np.zeros((4, 1, 4))
    transitions[0, 0, 1] = 1.0
    transitions[1, 0, 2] = 1.0
    transitions[2, 0, 2] = 1.0
    transitions[3, 0, 3] = 1.0
    from gchr.envs import TabularGCMDP

    base = TabularGCMDP(transitions, np.array([0, 1, 1, 2]), 0.8)
    relabeled = TabularGCMDP(transitions, np.array([0, 1, 1, 0]), 0.8)
    pol_a = TabularPolicy.uniform(4, 3, 1)
    table_a = compute_occupancy(base, pol_a, goal=1)
    table_b = compute_occupancy(relabeled, TabularPolicy.uniform(4, 3, 1), goal=1)
    np.testing.assert_allclose(table_a.first_hit[:3], table_b.first_hit[:3], atol=1e-12)


def test_unreachable_goal_has_zero_hit_mass():
    transitions = np.zeros((3, 1, 3))
    transitions[0, 0, 0] = 1.0
    transitions[1, 0, 1] = 1.0
    transitions[2, 0, 2] = 1.0
    from gchr.envs import TabularGCMDP

    mdp = TabularGCMDP(transitions, np.array([0, 1, 2]), 0.9)
    table = compute_occupancy(mdp, TabularPolicy.uniform(3, 3, 1), goal=2)
    assert table.hit_mass[0] <= HIT_MASS_FLOOR
    assert np.all(table.first_hit[0] == 0.0)


def test_non_absorbing_formulation_rejected(rng):
    mdp = random_mdp(rng, 4, 2, 2, 0.9, absorbing_goals=False)
    with pytest.raises(ValueError, match="absorbing"):
        compute_occupancy(mdp, TabularPolicy.uniform(4, 2, 2), 0)


def one_goal_state_mdp(gamma):
    return TabularGCMDP(np.ones((1, 1, 1)), np.array([0]), gamma)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
def test_default_sweep_cap_is_twice_the_contraction_bound(gamma):
    # one absorbing goal state: its update after sweep k is exactly gamma^(k-1),
    # so it retires after 1 + ceil(ln tol / ln gamma) sweeps
    needed = 2 if gamma == 0.0 else 1 + math.ceil(math.log(1e-12) / math.log(gamma))
    assert sweep_cap(gamma, 1e-12) == 2 * needed
    policy = TabularPolicy.uniform(1, 1, 1)
    policy_evaluation_iterative(one_goal_state_mdp(gamma), policy, max_iters=needed)
    with pytest.raises(EvaluationNotConverged):
        policy_evaluation_iterative(one_goal_state_mdp(gamma), policy, max_iters=needed - 1)


def test_one_goal_mdp_converges_at_gamma_near_one():
    # about 276,000 sweeps at gamma = 0.9999, past the fixed cap of 200,000
    # the evaluation once had; the default cap is derived from gamma and tol
    gamma = 0.9999
    assert sweep_cap(gamma, 1e-12) > 2 * 276_000
    _, v = policy_evaluation_iterative(one_goal_state_mdp(gamma), TabularPolicy.uniform(1, 1, 1))
    assert v[0, 0] == pytest.approx(1.0 / (1.0 - gamma), rel=1e-11)
