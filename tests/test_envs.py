import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gchr.envs import (
    BlockPush2D,
    GoalEnvState,
    LMaze2D,
    PointReach2D,
    TabularGCMDP,
    load_tabular_mdp,
    make_env,
    save_tabular_mdp,
    sparse_reward,
    tabular_rollout,
)
from gchr.envs.base import is_success, row_norm
from gchr.envs.block_push import CONTACT_DIST, DT
from gchr.envs.l_maze import BOTTOM_STRIP, RIGHT_STRIP, in_free_space
from gchr.replay import HerBuffer, HerConfig, Trajectory
from oracles import (
    _scalar_in_box,
    goal_region_contains,
    per_episode_reset,
    scalar_block_push_dynamics,
    scalar_l_maze_dynamics,
    step_distribution,
)

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def test_point_reach_reset_distributions():
    env = PointReach2D()
    rng = np.random.default_rng(0)
    starts = [env.reset(rng) for _ in range(200)]
    positions = np.array([s.state[:2] for s in starts])
    goals = np.array([s.desired_goal for s in starts])
    assert np.all(np.abs(positions) <= 0.05)
    assert np.all([s.state[2:].tolist() == [0.0, 0.0] for s in starts])
    assert np.all(np.abs(goals) <= 1.0)
    assert goals.min() < -0.5 and goals.max() > 0.5  # actually spreads over the box
    assert all(s.step_index == 0 for s in starts)


def test_l_maze_reset_start_bottom_left_goal_top_right():
    env = LMaze2D()
    rng = np.random.default_rng(1)
    for _ in range(100):
        es = env.reset(rng)
        assert in_free_space(es.state[:2])
        assert es.state[0] < 0.3 and es.state[1] < 0.3
        assert goal_region_contains(es.desired_goal)
        assert es.desired_goal[0] > 0.6 and es.desired_goal[1] > 0.6


def test_fixed_seed_gives_identical_reset():
    for name in ("point_reach", "l_maze", "block_push"):
        a = make_env(name).reset(np.random.default_rng(7))
        b = make_env(name).reset(np.random.default_rng(7))
        np.testing.assert_array_equal(a.state, b.state)
        np.testing.assert_array_equal(a.desired_goal, b.desired_goal)


def test_reward_when_already_within_tolerance():
    env = PointReach2D()
    rng = np.random.default_rng(2)
    es = env.reset(rng)
    es.desired_goal = es.achieved_goal + 0.01  # within eps = 0.05
    _, reward, _ = env.step(es, np.zeros(2), rng)
    assert reward == 1.0


def test_neg_one_zero_convention():
    env = PointReach2D(reward_convention="neg_one_zero")
    rng = np.random.default_rng(2)
    es = env.reset(rng)
    es.desired_goal = np.array([0.9, 0.9])
    _, reward, _ = env.step(es, np.zeros(2), rng)
    assert reward == -1.0


def test_zero_action_zero_velocity_is_fixed_point():
    env = PointReach2D()
    rng = np.random.default_rng(3)
    es = env.reset(rng)
    nxt, _, _ = env.step(es, np.zeros(2), rng)
    np.testing.assert_array_equal(nxt.state[:2], es.state[:2])
    np.testing.assert_array_equal(nxt.state[2:], np.zeros(2))


def test_phi_projections():
    pr = PointReach2D()
    np.testing.assert_array_equal(pr.phi(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0])
    bp = BlockPush2D()
    np.testing.assert_array_equal(bp.phi(np.array([1.0, 2.0, 3.0, 4.0])), [3.0, 4.0])


def test_achieved_goal_always_recomputed_from_state():
    env = LMaze2D()
    rng = np.random.default_rng(4)
    es = env.reset(rng)
    for _ in range(20):
        es, _, _ = env.step(es, rng.uniform(-1, 1, 2), rng)
        np.testing.assert_array_equal(es.achieved_goal, env.phi(es.state))


def test_episode_length_exactly_horizon():
    env = PointReach2D(horizon=13)
    rng = np.random.default_rng(5)
    es = env.reset(rng)
    dones = []
    for _ in range(13):
        es, _, done = env.step(es, np.zeros(2), rng)
        dones.append(done)
    assert dones == [False] * 12 + [True]
    with pytest.raises(RuntimeError, match="done"):
        env.step(es, np.zeros(2), rng)


def test_out_of_box_action_rejected():
    env = PointReach2D()
    es = env.reset(np.random.default_rng(0))
    with pytest.raises(ValueError, match="-1, 1"):
        env.step(es, np.array([1.5, 0.0]), np.random.default_rng(0))


def test_noise_free_episode_is_bit_reproducible():
    def run(seed):
        env = LMaze2D()
        rng = np.random.default_rng(seed)
        es = env.reset(rng)
        states = [es.state]
        arng = np.random.default_rng(seed + 1)
        for _ in range(env.spec.horizon):
            es, _, _ = env.step(es, arng.uniform(-1, 1, 2), rng)
            states.append(es.state)
        return np.array(states)

    np.testing.assert_array_equal(run(11), run(11))


def test_action_noise_perturbs_dynamics():
    env = PointReach2D(action_noise_std=0.3)
    rng = np.random.default_rng(6)
    es = env.reset(rng)
    nxt, _, _ = env.step(es, np.zeros(2), rng)
    assert np.any(nxt.state[2:] != 0.0)


def test_block_push_contact_resolution_hand_case():
    # agent at origin commanded (1, 0): moves to (0.1, 0); block at (0.2, 0)
    # overlaps by 0.06, so it is pushed to agent + contact distance along +x
    env = BlockPush2D()
    state = np.array([0.0, 0.0, 0.2, 0.0])
    nxt = env._dynamics(state, np.array([1.0, 0.0]))
    np.testing.assert_allclose(nxt[:2], [0.1, 0.0])
    np.testing.assert_allclose(nxt[2:], [0.1 + CONTACT_DIST, 0.0], atol=1e-12)


def test_block_push_diagonal_contact_hand_case():
    env = BlockPush2D()
    state = np.array([0.0, 0.0, 0.1, 0.1])
    nxt = env._dynamics(state, np.array([0.5, 0.5]))
    agent = np.array([0.05, 0.05])
    np.testing.assert_allclose(nxt[:2], agent)
    # scalar oracle: offset (0.05, 0.05), |offset| = 0.05*sqrt(2) < 0.16,
    # unit normal (1/sqrt 2, 1/sqrt 2), block lands at agent + 0.16 * normal
    root_half = 1.0 / np.sqrt(2.0)
    expected = agent + CONTACT_DIST * np.array([root_half, root_half])
    np.testing.assert_allclose(nxt[2:], expected, atol=1e-12)


def test_block_push_no_contact_leaves_block():
    env = BlockPush2D()
    state = np.array([-0.5, 0.0, 0.5, 0.0])
    nxt = env._dynamics(state, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(nxt[2:], [0.5, 0.0])


def test_l_maze_wall_slide_zeroes_blocked_velocity():
    env = LMaze2D()
    state = np.array([0.3, 0.38, 0.0, 1.0])
    nxt = env._dynamics(state, np.array([1.0, 1.0]))
    # vertical motion hits the bottom-strip ceiling; horizontal slide survives
    assert nxt[1] == pytest.approx(0.38)
    assert nxt[0] > 0.3
    assert nxt[3] == 0.0 and nxt[2] > 0.0
    assert in_free_space(nxt[:2])


def scalar_free(x, y):
    return _scalar_in_box(x, y, BOTTOM_STRIP) or _scalar_in_box(x, y, RIGHT_STRIP)


def test_in_free_space_equals_the_scalar_box_tests_on_random_points_and_strip_edges(rng):
    # every strip edge and its neighbouring doubles, crossed with themselves
    edges = [0.0, 0.4, 0.6, 1.0]
    coords = sorted({c for e in edges for c in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0))})
    grid = np.array([(x, y) for x in coords for y in coords])
    points = rng.uniform(-0.2, 1.2, size=(3, 1000, 2))
    for p in (grid, points, points[0, 0], np.array([[np.nan, 0.2], [0.2, np.nan]])):
        want = np.array([scalar_free(x, y) for x, y in p.reshape(-1, 2)]).reshape(p.shape[:-1])
        got = in_free_space(p)
        assert got.shape == want.shape and got.dtype == bool
        assert np.array_equal(got, want)
    assert in_free_space(grid).any() and not in_free_space(grid).all()


def test_l_maze_never_leaves_free_space():
    env = LMaze2D()
    rng = np.random.default_rng(8)
    es = env.reset(rng)
    for _ in range(env.spec.horizon):
        es, _, _ = env.step(es, rng.uniform(-1, 1, 2), rng)
        assert in_free_space(es.state[:2])


def test_reward_is_pure_function_of_goal_distance():
    env = PointReach2D()
    rng = np.random.default_rng(9)
    es = env.reset(rng)
    for _ in range(10):
        es, reward, _ = env.step(es, rng.uniform(-1, 1, 2), rng)
        recomputed = sparse_reward(
            es.achieved_goal, es.desired_goal, env.spec.success_tolerance,
            env.spec.reward_convention,
        )
        assert reward == recomputed


# --- batch axis ---------------------------------------------------------------


def assert_bitwise_equal(a, b):
    # view as integers so -0.0 and 0.0 (and any last-ulp change) differ
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def per_row_dynamics(dynamics, states, actions):
    return np.array([dynamics(s, a) for s, a in zip(states, actions)])


def test_row_norm_rounds_each_row_like_the_scalar_norm():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((50, 40, 2))
    scalar = np.array([[np.linalg.norm(v) for v in row] for row in x])
    assert_bitwise_equal(row_norm(x), scalar)
    assert row_norm(x[3, 7]) == np.linalg.norm(x[3, 7])
    # the premise: the axis-wise norm rounds some of these rows differently
    assert np.any(np.linalg.norm(x, axis=-1) != scalar)


def test_point_reach_stacked_dynamics_match_per_row():
    rng = np.random.default_rng(13)
    env = PointReach2D()
    states = rng.uniform(-1.5, 1.5, size=(500, 4))  # speeds beyond the clip too
    actions = rng.uniform(-1.0, 1.0, size=(500, 2))
    assert_bitwise_equal(
        env._dynamics(states, actions), per_row_dynamics(env._dynamics, states, actions)
    )


def test_l_maze_stacked_dynamics_match_per_row_through_wall_slides():
    rng = np.random.default_rng(14)
    env = LMaze2D()
    pos = rng.uniform(0.0, 1.0, size=(20000, 2))
    pos = pos[in_free_space(pos)][:3000]
    states = np.concatenate([pos, rng.uniform(-1.0, 1.0, size=(len(pos), 2))], axis=1)
    actions = rng.uniform(-1.0, 1.0, size=(len(pos), 2))
    nxt = env._dynamics(states, actions)
    assert_bitwise_equal(nxt, per_row_dynamics(scalar_l_maze_dynamics, states, actions))
    # one state at a time goes through the same body
    assert_bitwise_equal(nxt[:500], per_row_dynamics(env._dynamics, states[:500], actions[:500]))
    # every branch ran: free moves, x slides, y slides and full stops
    vel = np.clip(states[:, 2:] + actions * DT, -1.0, 1.0)
    blocked = ~in_free_space(states[:, :2] + vel * DT)
    stopped_y = blocked & (nxt[:, 3] == 0.0) & (nxt[:, 2] != 0.0)
    stopped_x = blocked & (nxt[:, 2] == 0.0) & (nxt[:, 3] != 0.0)
    stuck = blocked & np.all(nxt[:, 2:] == 0.0, axis=1)
    assert np.any(~blocked) and np.any(stopped_y) and np.any(stopped_x) and np.any(stuck)


def test_block_push_stacked_dynamics_match_per_row_in_contact():
    rng = np.random.default_rng(15)
    env = BlockPush2D()
    n = 20000
    agent = rng.uniform(-1.0, 1.0, size=(n, 2))
    block = agent + rng.uniform(-0.3, 0.3, size=(n, 2))
    actions = rng.uniform(-1.0, 1.0, size=(n, 2))
    actions[:10] = 0.0
    moved = np.clip(agent + actions * DT, -1.0, 1.0)
    # coincident centres after the move: the push falls back to the motion
    # direction, or to +x for the rows whose agent did not move
    block[:20] = moved[:20]
    states = np.concatenate([agent, block], axis=1)
    nxt = env._dynamics(states, actions)
    assert_bitwise_equal(nxt, per_row_dynamics(scalar_block_push_dynamics, states, actions))
    assert_bitwise_equal(nxt[:500], per_row_dynamics(env._dynamics, states[:500], actions[:500]))
    contact = row_norm(block - moved) < CONTACT_DIST
    assert 0.2 < np.mean(contact) < 0.8
    np.testing.assert_array_equal(nxt[:10, 2:], np.clip(moved[:10] + [CONTACT_DIST, 0.0], -1, 1))
    # a stack with no row in contact leaves every block where it was
    far = np.array([[-0.5, 0.0, 0.5, 0.0], [0.5, 0.5, -0.5, -0.5]])
    np.testing.assert_array_equal(env._dynamics(far, np.zeros((2, 2)))[:, 2:], far[:, 2:])


@pytest.mark.parametrize("n", [1, 4, 100])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["point_reach", "l_maze", "block_push"])
def test_stacked_reset_equals_per_episode_resets_bit_for_bit(name, seed, n):
    env = make_env(name)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    es = env.reset(rng, n)
    starts = [per_episode_reset(env, reference_rng) for _ in range(n)]
    states = np.array([state for state, _ in starts])
    assert_bitwise_equal(es.state, states)
    assert_bitwise_equal(es.desired_goal, np.array([goal for _, goal in starts]))
    assert_bitwise_equal(es.achieved_goal, env.phi(states))
    assert es.step_index == 0
    # the stream is left at the same next draw
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("name", ["point_reach", "l_maze", "block_push"])
def test_single_reset_is_row_zero_of_a_stack_of_one(name):
    env = make_env(name)
    single = env.reset(np.random.default_rng(3))
    stack = env.reset(np.random.default_rng(3), 1)
    assert single.state.shape == (env.spec.state_dim,)
    assert single.desired_goal.shape == (env.spec.goal_dim,)
    for field in ("state", "achieved_goal", "desired_goal"):
        assert_bitwise_equal(getattr(single, field), getattr(stack, field)[0])


@pytest.mark.parametrize("name", ["point_reach", "l_maze", "block_push"])
def test_stacked_step_returns_reward_array_and_checks_actions(name):
    env = make_env(name)
    rng = np.random.default_rng(16)
    starts = [env.reset(rng) for _ in range(3)]
    es = GoalEnvState(np.array([s.state for s in starts]),
                      np.array([s.achieved_goal for s in starts]),
                      np.array([s.desired_goal for s in starts]))
    nxt, rewards, done = env.step(es, np.zeros((3, 2)), rng)
    assert rewards.shape == (3,) and nxt.state.shape == (3, 4) and done is False
    single = env.step(starts[0], np.zeros(2), rng)[1]
    assert isinstance(single, float)
    with pytest.raises(ValueError, match=r"\(3, 2\)"):
        env.step(es, np.zeros(2), rng)
    bad = np.zeros((3, 2))
    bad[2, 1] = 1.5
    with pytest.raises(ValueError, match="-1, 1"):
        env.step(es, bad, rng)


def test_buffer_and_env_rewards_agree_at_the_tolerance_boundary():
    # offsets from a zero goal, so achieved - desired is the offset exactly
    offsets = np.random.default_rng(17).uniform(-0.05, 0.05, size=(2000, 2))
    scalar = np.array([np.linalg.norm(o) for o in offsets])
    axis_wise = np.linalg.norm(offsets, axis=-1)
    i = int(np.flatnonzero(axis_wise != scalar)[0])
    tol = min(scalar[i], axis_wise[i])  # the two norms fall on either side of it
    hit = bool(scalar[i] <= tol)
    assert hit != bool(axis_wise[i] <= tol)
    offset, goal = offsets[i], np.zeros(2)

    env = PointReach2D(success_tolerance=tol)
    es = GoalEnvState(np.concatenate([offset, np.zeros(2)]), offset.copy(), goal)
    _, env_reward, _ = env.step(es, np.zeros(2), np.random.default_rng(0))
    assert env_reward == float(hit)
    assert is_success(offset, goal, tol) == hit
    assert sparse_reward(offset[None], goal[None], tol)[0] == float(hit)

    buf = HerBuffer(4, 2, 2, tol)
    states = np.zeros((2, 4))
    buf.store_trajectory(Trajectory(states, np.zeros((1, 2)), np.stack([goal, offset]), goal))
    batch = buf.sample_batch(4, HerConfig(relabel_ratio=0.0), np.random.default_rng(0))
    np.testing.assert_array_equal(batch.rewards, float(hit))


# --- tabular family ---------------------------------------------------------


def chain3():
    return load_tabular_mdp(ASSETS / "chain3.mdp")


def test_chain_fixture_documented_rows():
    mdp = chain3()
    assert mdp.n_states == 3 and mdp.n_actions == 2
    assert mdp.gamma == 0.5
    np.testing.assert_array_equal(mdp.phi, [0, 1, 2])
    for a in range(2):
        np.testing.assert_array_equal(mdp.transitions[0, a], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(mdp.transitions[1, a], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(mdp.transitions[2, a], [0.0, 0.0, 1.0])


def test_absorbing_state_self_transition():
    mdp = chain3()
    row = step_distribution(mdp, 2, 0, goal=2)
    np.testing.assert_array_equal(row, [0.0, 0.0, 1.0])
    # same state under a different evaluated goal returns the raw row
    row = step_distribution(mdp, 1, 0, goal=2)
    np.testing.assert_array_equal(row, mdp.transitions[1, 0])


def test_absorbing_override_is_one_hot_even_for_non_self_loops():
    transitions = np.zeros((2, 1, 2))
    transitions[0, 0] = [0.0, 1.0]
    transitions[1, 0] = [1.0, 0.0]  # raw row leaves state 1
    mdp = TabularGCMDP(transitions, phi=np.array([0, 1]), gamma=0.9)
    np.testing.assert_array_equal(step_distribution(mdp, 1, 0, goal=1), [0.0, 1.0])


def test_step_distribution_index_errors():
    mdp = chain3()
    with pytest.raises(IndexError):
        step_distribution(mdp, 5, 0, goal=0)
    with pytest.raises(IndexError):
        step_distribution(mdp, 0, 3, goal=0)


def test_transition_rows_are_probability_vectors():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n_s, n_a = 6, 3
        transitions = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        mdp = TabularGCMDP(transitions, phi=rng.integers(0, 3, n_s), gamma=0.9)
        sums = mdp.transitions.sum(axis=2)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(mdp.transitions >= 0)


def test_invalid_rows_rejected():
    bad = np.zeros((2, 1, 2))
    bad[0, 0] = [0.5, 0.6]
    bad[1, 0] = [1.0, 0.0]
    with pytest.raises(ValueError, match="sums"):
        TabularGCMDP(bad, phi=np.array([0, 1]), gamma=0.9)


def test_goal_ids_at_or_past_the_state_count_rejected():
    # goal ids size every (S, G) and (S, G, A) table of the lab
    with pytest.raises(ValueError, match=r"goal ids must lie in \[0, 1\)"):
        TabularGCMDP(np.ones((1, 1, 1)), phi=np.array([5]), gamma=0.9)
    for phi in ([0, 2], [0, -1]):  # one past the last legal id, and a negative one
        with pytest.raises(ValueError, match="goal ids"):
            TabularGCMDP(np.full((2, 1, 2), 0.5), phi=np.array(phi), gamma=0.9)
    # gaps below the state count stay legal
    mdp = TabularGCMDP(np.full((3, 1, 3), 1.0 / 3.0), phi=np.array([0, 2, 2]), gamma=0.9)
    assert mdp.n_goals == 3 and len(mdp.goal_states(1)) == 0


def test_phi_consistency_with_goal_sets():
    mdp = chain3()
    for s in range(mdp.n_states):
        assert s in mdp.goal_states(mdp.phi[s])


def test_save_load_round_trip(tmp_path):
    mdp = chain3()
    path = tmp_path / "copy.mdp"
    save_tabular_mdp(path, mdp, header_comment="round trip")
    loaded = load_tabular_mdp(path)
    np.testing.assert_array_equal(loaded.transitions, mdp.transitions)
    np.testing.assert_array_equal(loaded.phi, mdp.phi)
    assert loaded.gamma == mdp.gamma


def test_loader_rejects_missing_rows(tmp_path):
    path = tmp_path / "broken.mdp"
    path.write_text("n_states 2\nn_actions 1\ngamma 0.5\nphi 0 1\nP 0 0 0.5 0.5\n")
    with pytest.raises(ValueError, match="missing P row"):
        load_tabular_mdp(path)


def test_nan_probability_rejected(tmp_path):
    text = (ASSETS / "chain3.mdp").read_text().replace("P 0 0 0.0 1.0 0.0", "P 0 0 nan 1.0 0.0")
    path = tmp_path / "nan.mdp"
    path.write_text(text)
    with pytest.raises(ValueError, match="non-negative, not NaN"):
        load_tabular_mdp(path)
    transitions = chain3().transitions.copy()
    transitions[1, 1, 0] = np.nan
    with pytest.raises(ValueError):
        TabularGCMDP(transitions, phi=np.arange(3), gamma=0.5)


ONE_STATE = "n_states 1\nn_actions 1\ngamma 0.5\nphi 0\nP 0 0 1.0\n"


@pytest.mark.parametrize("row, message", [
    ("P 7 3 0.5 0.5", r":6: P row \(7, 3\) lies outside 1 states and 1 actions"),
    ("P 0 -1 1.0", r":6: P row \(0, -1\) lies outside"),
    ("P 0 0 1.0", r":6: repeats P row \(0, 0\) of line 5"),
])
def test_loader_rejects_out_of_range_and_repeated_rows(tmp_path, row, message):
    path = tmp_path / "one_state.mdp"
    path.write_text(ONE_STATE)
    assert load_tabular_mdp(path).n_states == 1
    path.write_text(ONE_STATE + row + "\n")
    with pytest.raises(ValueError, match=message):
        load_tabular_mdp(path)


def test_loader_counts_rows_before_allocating_the_tensor(tmp_path):
    # a header naming 1000 states and 2 actions, and no P row: the (S, A, S)
    # tensor would take 16 MB
    path = tmp_path / "no_rows.mdp"
    path.write_text("n_states 1000\nn_actions 2\ngamma 0.5\nphi "
                    + " ".join(str(s) for s in range(1000)) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="missing P row for state 0, action 0"):
            load_tabular_mdp(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tabular_rollout_follows_dynamics():
    mdp = chain3()
    probs = np.full((3, 2), 0.5)
    states, actions = tabular_rollout(mdp, probs, start_state=0, horizon=4, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(states, [0, 1, 2, 2, 2])
    assert actions.shape == (4,)
