import numpy as np
import pytest

from gchr.replay import (
    HerBuffer,
    HerConfig,
    Trajectory,
    dump_trajectories_csv,
    first_visit_rows,
)

from oracles import (
    n_trajectories,
    reference_sample_batch,
    scalar_first_visit_rows,
    source_trajectories,
    store_counting_wraps,
)


def make_trajectory(rng, horizon=10, state_dim=4, action_dim=2, goal_dim=2, walk_scale=0.1):
    states = np.cumsum(rng.normal(scale=walk_scale, size=(horizon + 1, state_dim)), axis=0)
    actions = rng.uniform(-1, 1, size=(horizon, action_dim))
    achieved = states[:, :goal_dim].copy()
    desired = rng.uniform(-1, 1, size=goal_dim)
    return Trajectory(states, actions, achieved, desired)


def make_buffer(capacity=1_000_000, tol=0.05, reward_convention="zero_one"):
    return HerBuffer(state_dim=4, action_dim=2, goal_dim=2, success_tolerance=tol,
                     reward_convention=reward_convention, capacity=capacity)


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


def test_capacity_below_the_horizon_keeps_exactly_one_episode(rng):
    buf = make_buffer(capacity=4)
    trajs = [make_trajectory(rng, horizon=10) for _ in range(3)]
    for traj in trajs:
        buf.store_trajectory(traj)
        assert n_trajectories(buf) == 1 and buf.n_transitions == 10
    assert len(buf._desired) == 1
    batch = buf.sample_batch(64, HerConfig(relabel_ratio=0.0), rng)
    np.testing.assert_array_equal(source_trajectories(trajs, batch), 2)


def test_another_horizon_is_rejected_and_changes_nothing(rng):
    # a full, wrapped ring, so a partial store would move the oldest slot
    buf, twin = make_buffer(capacity=30), make_buffer(capacity=30)
    for _ in range(5):
        traj = make_trajectory(rng, horizon=10)
        buf.store_trajectory(traj)
        twin.store_trajectory(traj)
    # all-distinct goals, so a partial store would also widen the goal rows
    for horizon in (8, 12):
        with pytest.raises(ValueError, match="horizon"):
            buf.store_trajectory(make_trajectory(rng, horizon=horizon, walk_scale=1.0))
    assert buf.n_transitions == twin.n_transitions == 30
    her = HerConfig(relabel_ratio=0.5)
    ours = buf.sample_batch(128, her, np.random.default_rng(1))
    theirs = twin.sample_batch(128, her, np.random.default_rng(1))
    for name in ("states", "actions", "next_states", "goals", "rewards", "relabel_t",
                 "goal_counts"):
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
    for got, want in zip(ours.goal_sets, theirs.goal_sets, strict=True):
        assert got.tobytes() == want.tobytes()


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
    trajs = [make_trajectory(rng, horizon=9) for _ in range(3)]
    for traj in trajs:
        buf.store_trajectory(traj)
    batch = buf.sample_batch(64, HerConfig(strategy="final", relabel_ratio=1.0), rng)
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
    # six stores into a ring of four: the live episodes start mid-ring
    buf = make_buffer(capacity=20)
    trajs = [make_trajectory(rng, horizon=5) for _ in range(6)]
    for traj in trajs:
        buf.store_trajectory(traj)
    assert buf._oldest == 2
    n = 40_000
    batch = buf.sample_batch(n, HerConfig(relabel_ratio=0.0), rng)
    # transition id: live episode k's 5 steps are 5k to 5k + 4
    ids = 5 * source_trajectories(trajs[2:], batch) + batch.t
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


def test_goal_sets_survive_eviction_and_ring_wrap(rng):
    buf = make_buffer(capacity=60, tol=0.5)  # dedup tolerance 0.05, 5 slots
    her = HerConfig(relabel_ratio=0.5)
    stored, wraps = [], 0
    for i in range(300):
        # walk scales vary so goal sets range from one goal to the whole
        # trajectory and the padded goal rows have to widen
        walk = [0.0, 0.01, 0.05, 1.0][i % 4]
        stored.append(make_trajectory(rng, horizon=12, walk_scale=walk))
        wraps += store_counting_wraps(buf, stored[-1])
        if i % 25 == 24:
            live = stored[-n_trajectories(buf):]
            batch = buf.sample_batch(64, her, rng)
            for j, (k, goal_set) in enumerate(zip(source_trajectories(live, batch),
                                                  batch.goal_sets)):
                achieved = live[k].achieved_goals
                expected = achieved[scalar_first_visit_rows(achieved, buf.goal_dedup_tol)]
                np.testing.assert_array_equal(goal_set, expected)
                assert batch.goal_counts[j] == len(expected)
    assert buf.n_transitions <= 60 and wraps


def test_ring_grows_with_use_and_wraps_only_at_capacity(rng):
    buf = make_buffer()  # the default capacity of a million transitions
    for n in range(1, 201):
        wraps = store_counting_wraps(buf, make_trajectory(rng, horizon=30))
        assert not wraps and buf._oldest == 0
        assert n <= len(buf._desired) <= 2 * n
        assert (len(buf._states) == len(buf._achieved) == len(buf._actions)
                == len(buf._goal_counts) == len(buf._goal_rows) == len(buf._desired))

    buf = make_buffer(capacity=300)  # 12 slots
    her = HerConfig(relabel_ratio=0.5)
    stored, wraps = [], 0
    for i in range(120):
        stored.append(make_trajectory(rng, horizon=25))
        wraps += store_counting_wraps(buf, stored[-1])
        assert len(buf._desired) <= 12
        if i % 20 == 19:
            live = stored[-n_trajectories(buf):]
            batch = buf.sample_batch(64, her, rng)
            for k, goal in zip(source_trajectories(live, batch), batch.original_goals):
                np.testing.assert_array_equal(goal, live[k].desired_goal)
    assert wraps == 120 // 12 - 1


@pytest.mark.parametrize("capacity, horizon", [(1, 3), (100, 7), (96, 12), (1000, 9)])
def test_allocated_slots_stay_within_the_ring_and_twice_the_live_episodes(
        rng, capacity, horizon):
    ring = max(1, capacity // horizon)
    buf = make_buffer(capacity=capacity)
    for _ in range(3 * ring):
        buf.store_trajectory(make_trajectory(rng, horizon=horizon))
        assert len(buf._desired) <= ring
        assert n_trajectories(buf) <= len(buf._desired) <= 2 * n_trajectories(buf)
    assert len(buf._desired) == n_trajectories(buf) == ring


def test_goal_row_width_is_the_largest_goal_set_stored(rng):
    buf = make_buffer(capacity=40, tol=0.5)  # dedup tolerance 0.05, 4 slots
    largest = 0
    # the widest set is stored early and evicted long before the end
    for walk in [0.0, 0.01, 1.0, 0.05] + [0.0, 0.01, 0.02] * 6:
        traj = make_trajectory(rng, horizon=10, walk_scale=walk)
        buf.store_trajectory(traj)
        largest = max(largest, len(scalar_first_visit_rows(traj.achieved_goals, 0.05)))
        assert buf._goal_rows.shape[1] == largest
    assert largest == 11 and buf._goal_counts.max() < largest


@pytest.mark.parametrize("reward_convention", ["zero_one", "neg_one_zero"])
@pytest.mark.parametrize("strategy", ["future", "final"])
def test_batches_equal_the_reference_sampler_after_the_ring_wraps(
        rng, strategy, reward_convention):
    # 8 slots: 30 stores take the oldest slot past the ring's end twice,
    # with checks at every phase of the ring
    buf = make_buffer(capacity=100, tol=0.5, reward_convention=reward_convention)
    her = HerConfig(strategy=strategy, relabel_ratio=0.6)
    stored, wraps = [], 0
    for i in range(30):
        stored.append(make_trajectory(rng, horizon=12, walk_scale=[0.0, 0.05, 1.0][i % 3]))
        wraps += store_counting_wraps(buf, stored[-1])
        if i % 3:
            continue
        live = stored[-n_trajectories(buf):]
        batch = buf.sample_batch(256, her, np.random.default_rng(i))
        want = reference_sample_batch(live, 256, her, np.random.default_rng(i), 0.5,
                                      reward_convention, buf.goal_dedup_tol)
        for name, expected in want.items():
            if name == "goal_sets":
                for got, ref in zip(batch.goal_sets, expected, strict=True):
                    assert got.tobytes() == ref.tobytes()
                continue
            got = getattr(batch, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    assert wraps == 2


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
