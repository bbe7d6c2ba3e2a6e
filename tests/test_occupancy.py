import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gchr.tabular_lab.report as tabular_report
import gchr.tabular_lab.solve as solve
from gchr.envs import TabularGCMDP, load_tabular_mdp
from gchr.tabular_lab import (
    TabularPolicy,
    compute_occupancy,
    make_gridworld,
    policy_evaluation_iterative,
    policy_iteration_step,
    q_from_occupancy,
    reward_vector,
    verify_tabular,
)
from gchr.tabular_lab.solve import HIT_MASS_FLOOR, policy_transition_matrix, q_backup

from oracles import (
    absorbing_tensor_contractions,
    absorbing_transitions,
    geometric_tail,
    paired_goal_grid,
    per_goal_iterative_evaluation,
    policy_evaluation_direct,
    random_mdp,
    v_from_occupancy,
)
from oracles import compute_occupancy as occupancy_tables

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def chain3():
    return load_tabular_mdp(ASSETS / "chain3.mdp")


def chain3_at(gamma):
    mdp = chain3()
    return TabularGCMDP(mdp.transitions, mdp.phi, gamma)


def uniform_policy(mdp):
    return TabularPolicy.uniform(mdp.n_states, mdp.n_goals, mdp.n_actions)


# the evaluation route's residual correction is only as exact as np.longdouble
needs_extended_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64 here")


def test_chain_occupancy_geometric_sum_oracle():
    # deterministic 3-chain, gamma = 0.5, goal 2 absorbing: s2 is occupied
    # from step 2 on, so d(s2|s0, a) = (1-gamma) * sum_{k>=2} gamma^k = 0.25
    mdp = chain3()
    table = occupancy_tables(mdp, uniform_policy(mdp), goal=2)
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
    table = occupancy_tables(mdp, uniform_policy(mdp), goal=2)
    assert table.d[2, 0, 2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(table.d[2, 0, :2] == 0.0)


def test_occupancy_rows_sum_to_one_random_mdp(rng):
    mdp = random_mdp(rng, n_states=6, n_actions=3, n_goals=4, gamma=0.9)
    policy = TabularPolicy.random(6, 4, 3, rng)
    for goal in range(4):
        table = compute_occupancy(mdp, policy, goal)
        np.testing.assert_allclose(table.d_row_sums, 1.0, atol=1e-9)
        np.testing.assert_allclose(table.d_marginal_row_sums, 1.0, atol=1e-9)


def test_occupancy_matches_truncated_power_iteration(rng):
    # independent route: d = (1-g)[I + g * P_eff . sum_k g^k P_pi^k] truncated
    mdp = random_mdp(rng, n_states=5, n_actions=2, n_goals=3, gamma=0.9)
    policy = TabularPolicy.random(5, 3, 2, rng)
    goal = 1
    table = occupancy_tables(mdp, policy, goal)
    p_eff = absorbing_transitions(mdp, goal)
    p_pi = policy_transition_matrix(mdp, policy, goal)
    acc = np.zeros((5, 5))
    power = np.eye(5)
    for _ in range(2500):
        acc += power
        power = 0.9 * (power @ p_pi)
    d_trunc = (1 - 0.9) * (np.eye(5)[:, None, :] + 0.9 * np.einsum("sax,xy->say", p_eff, acc))
    np.testing.assert_allclose(table.d, d_trunc, atol=1e-10)
    np.testing.assert_allclose(compute_occupancy(mdp, policy, goal).d_row_sums,
                               d_trunc.sum(axis=2), atol=1e-10)


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
    # the oracle's BLAS matmul on the (S*A, S) reshape against the tensor
    # contraction, goal-absorbing rows included
    phi = np.arange(20) // 3  # goal sets of three states (two for the last goal)
    mdp = make_gridworld(5, 4, gamma=0.9, slip=0.3, phi=phi)
    policy = TabularPolicy.random(20, mdp.n_goals, 4, rng)
    for goal in range(mdp.n_goals):
        table = occupancy_tables(mdp, policy, goal)
        p_pi = policy_transition_matrix(mdp, policy, goal)
        resolvent = np.linalg.solve(np.eye(20) - 0.9 * p_pi, np.eye(20))
        p_eff = absorbing_transitions(mdp, goal)
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


ORACLE_TOL = 1e-12  # per_goal_iterative_evaluation's stopping tolerance


def oracle_error_bound(gamma, n_states):
    """How far per_goal_iterative_evaluation can stop from the fixed point.

    Its backup is a gamma-contraction, so once an update is at most
    ORACLE_TOL the iterate lies within ORACLE_TOL * gamma / (1 - gamma) of
    the fixed point. Each backup also rounds, by up to n_states * eps times
    max |Q| <= 1 / (1 - gamma), and a contraction with that per-step error
    settles within it over (1 - gamma).
    """
    eps = np.finfo(np.float64).eps
    return ORACLE_TOL * gamma / (1 - gamma) + n_states * eps / (1 - gamma) ** 2


def test_batched_iterative_evaluation_matches_per_goal_oracle_on_dense_mdps(rng):
    for _ in range(4):
        for gamma in (0.0, 0.5, 0.9, 0.98):
            mdp = random_mdp(rng, 9, 3, 4, gamma)
            policy = TabularPolicy.random(9, 4, 3, rng)
            q, v = policy_evaluation_iterative(mdp, policy)
            bound = oracle_error_bound(gamma, 9)
            for goal in range(4):
                q_ref, v_ref, _ = per_goal_iterative_evaluation(mdp, policy, goal, tol=ORACLE_TOL)
                np.testing.assert_allclose(q[:, :, goal], q_ref, rtol=0, atol=bound)
                np.testing.assert_allclose(v[:, goal], v_ref, rtol=0, atol=bound)


def doubling_without_correction(mdp, policy):
    """policy_evaluation_iterative without its longdouble residual step: a
    mutant whose squared powers leave an error of order eps * Q / (1 - gamma)."""
    gamma, n_states = mdp.gamma, mdp.n_states
    n_steps = math.ceil(math.log2(60 * math.log(2) / -math.log(gamma)))
    q = np.empty((n_states, mdp.n_actions, policy.n_goals))
    v = np.empty((n_states, policy.n_goals))
    for goal in range(policy.n_goals):
        m = gamma * policy_transition_matrix(mdp, policy, goal)
        v_g = reward_vector(mdp, goal)
        for _ in range(n_steps):
            v_g = v_g + m @ v_g
            m = m @ m
        v[:, goal] = v_g
        q[:, :, goal] = q_backup(mdp.transitions.reshape(-1, n_states), v_g,
                                 mdp.goal_states(goal), gamma)
    return q, v


@needs_extended_longdouble
def test_evaluation_is_within_4_ulps_of_exact_on_chain3_near_gamma_one():
    # every action moves s to s + 1 (state 2 self-loops) and goals absorb, so
    # Q(s, a, g) = V(s, g) = gamma^(g - s) / (1 - gamma) for s <= g and 0
    # otherwise, here in exact rationals on the float gamma
    mdp = chain3_at(0.9999)
    q, v = policy_evaluation_iterative(mdp, uniform_policy(mdp))
    gamma = Fraction(mdp.gamma)
    for s in range(3):
        for g in range(3):
            exact = gamma ** (g - s) / (1 - gamma) if s <= g else Fraction(0)
            ulp = Fraction(float(np.spacing(float(exact))))
            for got in (*q[s, :, g], v[s, g]):
                assert abs(Fraction(float(got)) - exact) <= 4 * ulp, (s, g)


def test_identity_row_fails_on_chain3_near_gamma_one_without_the_correction(monkeypatch):
    monkeypatch.setattr(tabular_report, "policy_evaluation_iterative",
                        doubling_without_correction)
    row = next(res for res in verify_tabular(chain3_at(0.9999))
               if res.name == "q_equals_p_over_one_minus_gamma")
    assert not row.passed and row.margin > 1e-9


def test_evaluation_makes_no_linear_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(solve.np.linalg, "solve", no_solve)
    mdp = make_gridworld(4, 3, gamma=0.9, slip=0.2)
    policy = uniform_policy(mdp)
    q, v = policy_evaluation_iterative(mdp, policy)
    assert q.shape == (12, 4, 12) and v.shape == (12, 12)
    with pytest.raises(AssertionError, match="np.linalg.solve called"):
        policy_iteration_step(mdp, policy)  # the patch is live for the solve route


BIT_EQUAL_CASES = {
    # goal sets of 1, 2 and 3 grid cells, then dense rows with goal sets of several states
    "grid_sets_of_1": lambda rng: make_gridworld(5, 4, gamma=0.9, slip=0.3),
    "grid_sets_of_2": lambda rng: make_gridworld(5, 4, gamma=0.9, slip=0.3,
                                                 phi=np.arange(20) // 2),
    "grid_sets_of_3": lambda rng: make_gridworld(5, 4, gamma=0.9, slip=0.3,
                                                 phi=np.arange(20) // 3),
    "dense_random": lambda rng: random_mdp(rng, 9, 3, 4, 0.95),
}


@pytest.mark.parametrize("name", list(BIT_EQUAL_CASES))
def test_occupancy_equals_the_absorbing_tensor_matmul_bit_for_bit(name, rng):
    # goal rows written by index are exactly the rows a one-hot P_eff row
    # picks out of R [1, 1_{S_g}]; the other rows run the same product
    mdp = BIT_EQUAL_CASES[name](rng)
    assert name != "dense_random" or np.bincount(mdp.phi).max() > 1
    for policy in (uniform_policy(mdp),
                   TabularPolicy.random(mdp.n_states, mdp.n_goals, mdp.n_actions, rng)):
        for goal in range(mdp.n_goals):
            row_sums, p_goal = absorbing_tensor_contractions(mdp, policy, goal)
            table = compute_occupancy(mdp, policy, goal)
            assert np.array_equal(table.d_row_sums, row_sums)
            assert np.array_equal(table.p_goal, p_goal)


CONTRACTION_CASES = {
    "random_grouped": lambda: random_mdp(np.random.default_rng(11), 12, 3, 4, 0.9),
    "lab_grid": lambda: make_gridworld(10, 10, gamma=0.9, slip=0.2),
    "paired_goal_grid": paired_goal_grid,
}


@pytest.mark.parametrize("name", list(CONTRACTION_CASES))
def test_contractions_equal_the_sums_of_the_oracle_tables(name, rng):
    # R [1, 1_{S_g}] from a two-column solve against the full resolvent and
    # (S, A, S) occupancy summed afterwards
    mdp = CONTRACTION_CASES[name]()
    for policy in (uniform_policy(mdp),
                   TabularPolicy.random(mdp.n_states, mdp.n_goals, mdp.n_actions, rng)):
        for goal in range(mdp.n_goals):
            table = compute_occupancy(mdp, policy, goal)
            ref = occupancy_tables(mdp, policy, goal)
            pairs = ((table.d_row_sums, ref.d.sum(axis=2)),
                     (table.d_marginal_row_sums, ref.d_marginal.sum(axis=1)),
                     (table.p_goal, ref.p_goal),
                     (table.p_goal_marginal, ref.p_goal_marginal))
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(table.first_hit, ref.first_hit)
            np.testing.assert_array_equal(table.hit_mass, ref.hit_mass)


def test_goal_rows_written_by_index_equal_the_absorbing_tensor_route(rng):
    # the policy matrix and the direct Q overwrite the goal set's rows of the
    # raw dynamics; the old route contracted the copied absorbing tensor
    phi = np.arange(20) // 3
    mdp = make_gridworld(5, 4, gamma=0.9, slip=0.3, phi=phi)
    policy = TabularPolicy.random(20, mdp.n_goals, 4, rng)
    for goal in range(mdp.n_goals):
        p_eff = absorbing_transitions(mdp, goal)
        p_pi = np.einsum("sa,sax->sx", policy.for_goal(goal), p_eff)
        np.testing.assert_array_equal(policy_transition_matrix(mdp, policy, goal), p_pi)
        q, v = policy_evaluation_direct(mdp, policy, goal)
        q_ref = reward_vector(mdp, goal)[:, None] + 0.9 * np.einsum("sax,x->sa", p_eff, v)
        np.testing.assert_array_equal(q, q_ref)


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
        # each goal state is hit first at itself, at time 0
        states = mdp.goal_states(goal)
        np.testing.assert_array_equal(table.first_hit[states], np.eye(6)[states])
        np.testing.assert_array_equal(table.hit_mass[states], 1.0)
    assert np.bincount(mdp.phi).max() > 1  # some goal set holds several states


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


def one_goal_state_mdp(gamma):
    return TabularGCMDP(np.ones((1, 1, 1)), np.array([0]), gamma)


def test_one_goal_mdp_converges_at_gamma_near_one():
    # a Bellman iteration needs about 276,000 sweeps here; doubling needs 19
    gamma = 0.9999
    _, v = policy_evaluation_iterative(one_goal_state_mdp(gamma), TabularPolicy.uniform(1, 1, 1))
    assert v[0, 0] == pytest.approx(1.0 / (1.0 - gamma), rel=1e-11)
