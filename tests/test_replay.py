import numpy as np
import pytest

from gchr.replay import (
    HerBuffer,
    HerConfig,
    Trajectory,
    dump_trajectories_csv,
    first_visit_rows,
)

from oracles import n_trajectories, scalar_first_visit_rows, source_trajectories


def make_trajectory(rng, horizon=10, state_dim=4, action_dim=2, goal_dim=2, walk_scale=0.1):
    states = np.cumsum(rng.normal(scale=walk_scale, size=(horizon + 1, state_dim)), axis=0)
    actions = rng.uniform(-1, 1, size=(horizon, action_dim))
    achieved = states[:, :goal_dim].copy()
    desired = rng.uniform(-1, 1, size=goal_dim)
    return Trajectory(states, actions, achieved, desired)


def make_buffer(capacity=1_000_000, tol=0.05):
    return HerBuffer(state_dim=4, action_dim=2, goal_dim=2,
                     success_tolerance=tol, capacity=capacity)


def test_trajectory_shape_validation():
    with pytest.raises(ValueError, match="actions"):
        Trajectory(np.zeros((5, 4)), np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="achieved"):
        Trajectory(np.zeros((5, 4)), np.zeros((4, 2)), np.zeros((3, 2)), np.zeros(2))


def test_store_count_bookkeeping(rng):
    buf = make_buffer()
    for _ in range(7):
        buf.store_trajectory(make_trajectory(rng, horizon=10))
    assert buf.n_transitions == 70
    assert n_trajectories(buf) == 7


def test_capacity_one_trajectory_evicts_previous(rng):
    buf = make_buffer(capacity=10)
    first = make_trajectory(rng, horizon=10)
    second = make_trajectory(rng, horizon=10)
    buf.store_trajectory(first)
    buf.store_trajectory(second)
    assert n_trajectories(buf) == 1
    batch = buf.sample_batch(64, HerConfig(relabel_ratio=0.0), rng)
    np.testing.assert_array_equal(source_trajectories([first, second], batch), 1)


def test_relabel_ratio_zero_returns_only_original_goals(rng):
    buf = make_buffer()
    buf.store_trajectory(make_trajectory(rng))
    batch = buf.sample_batch(64, HerConfig(relabel_ratio=0.0), rng)
    assert not np.any(batch.is_relabeled)
    np.testing.assert_array_equal(batch.goals, batch.original_goals)


def test_future_relabels_draw_from_future_achieved_goals(rng):
    buf = make_buffer()
    trajs = [make_trajectory(rng, horizon=12) for _ in range(5)]
    for traj in trajs:
        buf.store_trajectory(traj)
    batch = buf.sample_batch(512, HerConfig(relabel_ratio=1.0), rng)
    assert np.all(batch.is_relabeled)
    assert np.all(batch.relabel_t >= batch.t)
    for i, k in enumerate(source_trajectories(trajs, batch)):
        np.testing.assert_array_equal(batch.goals[i], trajs[k].achieved_goals[batch.relabel_t[i]])
        np.testing.assert_array_equal(batch.original_goals[i], trajs[k].desired_goal)


def test_final_strategy_uses_terminal_goal(rng):
    buf = make_buffer()
    trajs = [make_trajectory(rng, horizon=h) for h in (9, 5)]
    for traj in trajs:
        buf.store_trajectory(traj)
    batch = buf.sample_batch(32, HerConfig(strategy="final", relabel_ratio=1.0), rng)
    for i, k in enumerate(source_trajectories(trajs, batch)):
        assert batch.relabel_t[i] == trajs[k].horizon
        np.testing.assert_array_equal(batch.goals[i], trajs[k].achieved_goals[-1])


def test_relabeled_reward_recomputed_from_next_achieved_goal(rng):
    buf = make_buffer(tol=0.05)
    trajs = [make_trajectory(rng) for _ in range(5)]
    for traj in trajs:
        buf.store_trajectory(traj)
    batch = buf.sample_batch(256, HerConfig(relabel_ratio=0.7), rng)
    for i, k in enumerate(source_trajectories(trajs, batch)):
        achieved_next = trajs[k].achieved_goals[batch.t[i] + 1]
        expected = 1.0 if np.linalg.norm(achieved_next - batch.goals[i]) <= 0.05 else 0.0
        assert batch.rewards[i] == expected


def test_sample_satisfying_goal_carries_reward_one(rng):
    buf = make_buffer(tol=0.05)
    buf.store_trajectory(make_trajectory(rng, horizon=8))
    # with the future strategy a relabel at t' = t+1 makes the next state satisfy
    # the goal exactly; over many draws such samples must exist and earn 1
    batch = buf.sample_batch(2000, HerConfig(relabel_ratio=1.0), rng)
    exact = batch.relabel_t == batch.t + 1
    assert exact.any() and np.all(batch.rewards[exact] == 1.0)


def test_relabeled_fraction_concentrates(rng):
    buf = make_buffer()
    for _ in range(10):
        buf.store_trajectory(make_trajectory(rng))
    batch = buf.sample_batch(10_000, HerConfig(relabel_ratio=0.8), rng)
    assert abs(batch.is_relabeled.mean() - 0.8) <= 0.02


def test_sampling_uniform_over_transitions(rng):
    buf = make_buffer()
    t1 = make_trajectory(rng, horizon=5)
    t2 = make_trajectory(rng, horizon=15)
    buf.store_trajectory(t1)
    buf.store_trajectory(t2)
    n = 40_000
    batch = buf.sample_batch(n, HerConfig(relabel_ratio=0.0), rng)
    # transition id: t1's 5 steps are 0-4, t2's 15 steps are 5-19
    ids = np.where(source_trajectories([t1, t2], batch) == 0, 0, 5) + batch.t
    counts = np.bincount(ids, minlength=20)
    assert len(counts) == 20
    # chi-square against uniform over all 20 transitions: a sampler that
    # skips one transition adds n / 20 = 2000 to the statistic on its own
    expected = n / 20
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    assert chi2 <= dof + 3 * np.sqrt(2 * dof)


def test_empty_buffer_rejected(rng):
    with pytest.raises(ValueError, match="empty"):
        make_buffer().sample_batch(8, HerConfig(), rng)


def test_malformed_trajectory_rejected(rng):
    buf = make_buffer()
    with pytest.raises(ValueError, match="dim"):
        buf.store_trajectory(make_trajectory(rng, state_dim=3))


def test_eviction_keeps_flat_arrays_consistent(rng):
    buf = make_buffer(capacity=60)
    trajs = [make_trajectory(rng, horizon=10) for _ in range(30)]
    for t in trajs:
        buf.store_trajectory(t)
    assert buf.n_transitions == 60 and n_trajectories(buf) == 6
    live = trajs[-6:]
    batch = buf.sample_batch(200, HerConfig(relabel_ratio=0.5), rng)
    # a sample from an evicted trajectory has no key among the live ones
    source = source_trajectories(live, batch)
    assert set(source) == set(range(6))
    for i, k in enumerate(source):
        np.testing.assert_array_equal(batch.next_states[i], live[k].states[batch.t[i] + 1])


def stored_goal_sets(traj, tol, n=8):
    """The goal sets of a batch sampled from a buffer holding only `traj`."""
    buf = make_buffer(tol=tol)
    buf.store_trajectory(traj)
    return buf.sample_batch(n, HerConfig(), np.random.default_rng(0)).goal_sets


def test_hindsight_goal_set_stationary_trajectory():
    states = np.zeros((6, 4))
    traj = Trajectory(states, np.zeros((5, 2)), np.zeros((6, 2)), np.zeros(2))
    for goal_set in stored_goal_sets(traj, tol=0.05):  # dedup tolerance 0.005
        np.testing.assert_array_equal(goal_set, [[0.0, 0.0]])


def test_hindsight_goal_set_all_distinct(rng):
    traj = make_trajectory(rng, horizon=12, walk_scale=1.0)
    assert len(first_visit_rows(traj.achieved_goals, 1e-6)) == 13
    for goal_set in stored_goal_sets(traj, tol=1e-5):  # dedup tolerance 1e-6
        np.testing.assert_array_equal(goal_set, traj.achieved_goals)


def test_hindsight_goal_set_dedup_preserves_first_visit_order():
    # visits cells A, B, A, C
    a, b, c = [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]
    achieved = np.array([a, b, a, c])
    np.testing.assert_array_equal(first_visit_rows(achieved, 0.01), [0, 1, 3])
    states = np.hstack([achieved, np.zeros((4, 2))])
    traj = Trajectory(states, np.zeros((3, 2)), achieved, np.zeros(2))
    for goal_set in stored_goal_sets(traj, tol=0.1):  # dedup tolerance 0.01
        np.testing.assert_array_equal(goal_set, [a, b, c])


def test_goal_set_independent_of_actions(rng):
    traj = make_trajectory(rng, horizon=10)
    other = Trajectory(traj.states, rng.uniform(-1, 1, traj.actions.shape),
                       traj.achieved_goals, traj.desired_goal)
    for ours, theirs in zip(stored_goal_sets(traj, 0.05), stored_goal_sets(other, 0.05)):
        np.testing.assert_array_equal(ours, theirs)


def near_tolerance_goals(rng, n, dim, tol):
    """Goals in a few tight clusters, a third of them displaced from an
    earlier goal by exactly tol along a random direction, so their
    distances round to either side of tol."""
    centres = rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), dim))
    goals = centres[rng.integers(0, len(centres), n)] + rng.normal(scale=tol, size=(n, dim))
    for i in rng.permutation(np.arange(1, n))[: n // 3]:
        direction = rng.normal(size=dim)
        goals[i] = goals[rng.integers(0, i)] + tol * direction / np.linalg.norm(direction)
    return goals


@pytest.mark.parametrize("seed", range(30))
def test_first_visit_rows_match_scalar_scan(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 60)), int(rng.integers(1, 4))
    tol = float(rng.choice([0.005, 0.05, 0.3]))
    goals = near_tolerance_goals(rng, n, dim, tol)
    np.testing.assert_array_equal(first_visit_rows(goals, tol),
                                  scalar_first_visit_rows(goals, tol))


def test_near_tolerance_goals_straddle_the_tolerance():
    # the property test above only probes rounding at tol if its pairs do
    rng = np.random.default_rng(0)
    tol = 0.05
    below = above = 0
    for _ in range(20):
        goals = near_tolerance_goals(rng, 40, 2, tol)
        dist = np.array([[np.linalg.norm(a - b) for b in goals] for a in goals])
        close = np.abs(dist - tol) <= 4 * np.spacing(tol)
        below += int(np.sum(close & (dist <= tol)))
        above += int(np.sum(close & (dist > tol)))
    assert below > 0 and above > 0


@pytest.mark.parametrize("tol", [0.0, 0.01])
def test_first_visit_rows_stationary_trajectory(tol):
    goals = np.tile([0.3, -0.2], (9, 1))
    np.testing.assert_array_equal(first_visit_rows(goals, tol), [0])
    np.testing.assert_array_equal(scalar_first_visit_rows(goals, tol), [0])


@pytest.mark.parametrize("seed", range(10))
def test_first_visit_rows_zero_tolerance_keeps_first_of_exact_repeats(seed):
    rng = np.random.default_rng(seed)
    goals = rng.integers(0, 4, size=(int(rng.integers(1, 40)), 2)) * 0.25
    rows = first_visit_rows(goals, 0.0)
    np.testing.assert_array_equal(rows, scalar_first_visit_rows(goals, 0.0))
    _, first = np.unique(goals, axis=0, return_index=True)
    np.testing.assert_array_equal(rows, np.sort(first))


def test_goal_sets_survive_eviction_and_compaction(rng, monkeypatch):
    compactions = []
    compact = HerBuffer._compact
    monkeypatch.setattr(HerBuffer, "_compact",
                        lambda self: compactions.append(1) or compact(self))
    buf = make_buffer(capacity=60, tol=0.5)  # dedup tolerance 0.05
    her = HerConfig(relabel_ratio=0.5)
    stored = []
    for i in range(300):
        # horizons and walk scales vary so goal sets range from one goal to
        # the whole trajectory and the padded table has to widen
        walk = [0.0, 0.01, 0.05, 1.0][i % 4]
        stored.append(make_trajectory(rng, horizon=int(rng.integers(3, 16)), walk_scale=walk))
        buf.store_trajectory(stored[-1])
        if i % 25 == 24:
            live = stored[-n_trajectories(buf):]
            batch = buf.sample_batch(64, her, rng)
            for j, (k, goal_set) in enumerate(zip(source_trajectories(live, batch),
                                                  batch.goal_sets)):
                achieved = live[k].achieved_goals
                expected = achieved[scalar_first_visit_rows(achieved, buf.goal_dedup_tol)]
                np.testing.assert_array_equal(goal_set, expected)
                assert batch.goal_counts[j] == len(expected)
    assert buf.n_transitions <= 60 and compactions


def test_flat_arrays_grow_with_use_and_compact_only_at_the_cap(rng, monkeypatch):
    compactions = []
    compact = HerBuffer._compact
    monkeypatch.setattr(HerBuffer, "_compact",
                        lambda self: compactions.append(1) or compact(self))
    buf = make_buffer()  # the default capacity of a million transitions
    rows = 0
    for _ in range(200):
        traj = make_trajectory(rng, horizon=int(rng.integers(5, 60)))
        buf.store_trajectory(traj)
        rows += traj.horizon + 1
        assert rows <= len(buf._states) <= 2 * rows
        assert len(buf._actions) == len(buf._achieved) == len(buf._states)
    assert not compactions

    buf = make_buffer(capacity=300)
    her = HerConfig(relabel_ratio=0.5)
    stored = []
    for i in range(120):
        stored.append(make_trajectory(rng, horizon=int(rng.integers(5, 40))))
        buf.store_trajectory(stored[-1])
        assert len(buf._states) <= int(300 * 1.25) + 2 * 41 + 4
        if i % 20 == 19:
            live = stored[-n_trajectories(buf):]
            batch = buf.sample_batch(64, her, rng)
            for k, goal in zip(source_trajectories(live, batch), batch.original_goals):
                np.testing.assert_array_equal(goal, live[k].desired_goal)
    assert compactions


def test_dump_csv_one_row_per_transition(tmp_path, rng):
    trajs = [make_trajectory(rng, horizon=6) for _ in range(3)]
    path = tmp_path / "transitions.csv"
    dump_trajectories_csv(trajs, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 6
    header = lines[0].split(",")
    assert header[:2] == ["episode", "t"]
    last = lines[-1].split(",")
    assert last[0] == "2" and last[1] == "5"
    # final row carries the terminal achieved goal
    terminal = [float(v) for v in last[2 + 4 + 2 : 2 + 4 + 2 + 2]]
    np.testing.assert_allclose(terminal, trajs[2].achieved_goals[-1])
