"""Trajectory replay buffer with hindsight goal relabeling.

Stored trajectories keep their full achieved-goal sequence, so a sampled
transition can be relabeled with any goal the trajectory actually reached
at or after that timestep (the future strategy) or with its final achieved
goal. Rewards are always recomputed from the achieved goal of the
transition's destination state against the sample's effective goal.

Every episode of a buffer has the same horizon T, so episodes live
episode-major in one FIFO ring of (episodes, T+1, dim) arrays, and
minibatch sampling is fully vectorized: a draw's slot and step are a
division by T. The ring holds as many whole episodes as fit in the
transition capacity (at least one); once full, each store overwrites the
oldest. Each episode's deduplicated hindsight goal set is computed once,
at store time, as first-visit row offsets into its slot. A sampled batch
copies no goal set: it carries a `GoalLookup` into the buffer's arrays,
and the hindsight prior gathers only the goals it draws. No padded goal
table is built per batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .envs.base import row_norm, sparse_reward

HER_STRATEGIES = ("future", "final")


@dataclass
class Trajectory:
    """One episode: T+1 states, T actions, T+1 achieved goals, one desired goal."""

    states: np.ndarray
    actions: np.ndarray
    achieved_goals: np.ndarray
    desired_goal: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.achieved_goals = np.asarray(self.achieved_goals, dtype=np.float64)
        self.desired_goal = np.asarray(self.desired_goal, dtype=np.float64)
        if self.states.ndim != 2 or self.actions.ndim != 2 or self.achieved_goals.ndim != 2:
            raise ValueError("states, actions and achieved_goals must be 2-D arrays")
        if len(self.states) != len(self.actions) + 1:
            raise ValueError(
                f"{len(self.states)} states require {len(self.states) - 1} actions, "
                f"got {len(self.actions)}"
            )
        if len(self.achieved_goals) != len(self.states):
            raise ValueError("need one achieved goal per state")
        if self.desired_goal.shape != (self.achieved_goals.shape[1],):
            raise ValueError("desired goal dimension must match achieved goals")

    @property
    def horizon(self):
        return len(self.actions)


@dataclass
class HerConfig:
    strategy: str = "future"
    relabel_ratio: float = 0.8

    def __post_init__(self):
        if self.strategy not in HER_STRATEGIES:
            raise ValueError(f"strategy must be one of {HER_STRATEGIES}")
        if not 0.0 <= self.relabel_ratio <= 1.0:
            raise ValueError("relabel_ratio must lie in [0, 1]")


class GoalLookup:
    """Where each element of a batch finds its hindsight goal set.

    Member j of element i's set is row `bases[i] + offsets[slots[i], j]` of
    `pool`, for j below the element's goal count; the offsets past a set's
    size are padding that still points into the pool. A sampled batch's
    lookup reads the buffer's own arrays, not a copy: it stays valid until
    the buffer's next store_trajectory, which may overwrite the oldest slot
    in place or reallocate the arrays.
    """

    def __init__(self, pool, offsets, slots, bases):
        self.pool = pool
        self.offsets = offsets
        self.slots = slots
        self.bases = bases

    def gather(self, elements, members):
        """Goals (..., goal_dim) for broadcastable index arrays of elements
        and of members within each element's set."""
        rows = self.bases[elements] + self.offsets[self.slots[elements], members]
        return self.pool.take(rows, axis=0)


class ReplayBatch:
    """A sampled minibatch as parallel arrays; `relabel_t` is -1 where unrelabeled.

    Element i's hindsight goal set has `goal_counts[i]` members, read
    through `goal_lookup`. `reward_convention` is the one the rewards were
    computed under, so the critic clips its targets to that value range.
    """

    def __init__(self, states, actions, next_states, original_goals, goals, rewards,
                 is_relabeled, t, relabel_t, goal_counts, goal_lookup, reward_convention):
        self.states = states
        self.actions = actions
        self.next_states = next_states
        self.original_goals = original_goals
        self.goals = goals
        self.rewards = rewards
        self.is_relabeled = is_relabeled
        self.t = t
        self.relabel_t = relabel_t
        self.goal_counts = goal_counts
        self.goal_lookup = goal_lookup
        self.reward_convention = reward_convention

    @property
    def goal_sets(self):
        """Each element's hindsight goal set as a (K, goal_dim) array, built
        on demand through the lookup (so valid as long as it is)."""
        lookup = self.goal_lookup
        rows = lookup.bases[:, None] + lookup.offsets[lookup.slots, : self.goal_counts.max()]
        goals = lookup.pool.take(rows, axis=0)
        return [row[:k] for row, k in zip(goals, self.goal_counts)]

    def __len__(self):
        return len(self.states)


def first_visit_rows(goals, dedup_tol=0.0):
    """Indices of the goals kept by greedy first-visit deduplication.

    Scanning `goals` (one per row) in order, a goal is kept when it lies
    farther than dedup_tol from every goal kept before it. The loop runs
    once per kept goal: take the first remaining row, then drop every row
    within dedup_tol of it.
    """
    # row_norm rounds each distance like np.linalg.norm of that pair alone,
    # so ties at the tolerance go the same way as in a pair-by-pair scan
    near = row_norm(goals[:, None, :] - goals[None, :, :]) <= dedup_tol
    remaining = np.ones(len(goals), dtype=bool)
    kept = []
    i = 0
    while True:
        kept.append(i)
        remaining &= ~near[i]
        remaining[i] = False
        i = int(np.argmax(remaining))
        if not remaining[i]:
            return np.array(kept, dtype=np.int64)


class HerBuffer:
    """FIFO ring of fixed-horizon episodes with vectorized hindsight relabeling.

    Every stored trajectory has the horizon T of the first one. Slot s holds
    one episode: its T+1 states and achieved goals, its T actions, its
    desired goal, and the first-visit rows of its goal set, padded with
    offset 0 to the largest set stored so far. The ring holds
    max(1, capacity // T) episodes; its arrays double up to that many
    slots, after which each store overwrites the oldest episode.
    """

    def __init__(self, state_dim, action_dim, goal_dim, success_tolerance,
                 reward_convention="zero_one", capacity=1_000_000):
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.goal_dim = int(goal_dim)
        self.success_tolerance = float(success_tolerance)
        self.reward_convention = reward_convention
        self.capacity = int(capacity)
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        self.goal_dedup_tol = self.success_tolerance / 10.0  # for hindsight goal sets
        # T, the ring's slot count and the episode arrays come with the first store
        self._horizon = 0
        self._n_episodes = 0  # live episodes
        self._oldest = 0  # slot of the oldest live episode
        self._desired = np.empty((0, self.goal_dim))
        self._goal_counts = np.empty(0, dtype=np.int64)
        self._goal_rows = np.empty((0, 0), dtype=np.int64)

    # -- storage ------------------------------------------------------------

    @property
    def n_transitions(self):
        return self._n_episodes * self._horizon

    def _grow(self, size):
        """Reallocate every slot array at `size` slots, keeping the stored
        episodes: the ring does not wrap while it grows, so they fill the
        first slots."""
        for name in ("_states", "_achieved", "_actions", "_desired", "_goal_counts",
                     "_goal_rows"):
            old = getattr(self, name)
            grown = np.empty((size, *old.shape[1:]), dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def store_trajectory(self, trajectory):
        if not isinstance(trajectory, Trajectory):
            trajectory = Trajectory(*trajectory)
        if trajectory.states.shape[1] != self.state_dim:
            raise ValueError("trajectory state dim does not match buffer")
        if trajectory.actions.shape[1] != self.action_dim:
            raise ValueError("trajectory action dim does not match buffer")
        if trajectory.achieved_goals.shape[1] != self.goal_dim:
            raise ValueError("trajectory goal dim does not match buffer")
        horizon = trajectory.horizon
        if horizon < 1:
            raise ValueError("trajectory must contain at least one transition")
        if not self._horizon:
            self._horizon = horizon
            self._n_slots = max(1, self.capacity // horizon)
            self._states = np.empty((0, horizon + 1, self.state_dim))
            self._achieved = np.empty((0, horizon + 1, self.goal_dim))
            self._actions = np.empty((0, horizon, self.action_dim))
        elif horizon != self._horizon:
            raise ValueError(f"trajectory horizon {horizon} differs from the buffer's "
                             f"{self._horizon}")
        goal_rows = first_visit_rows(trajectory.achieved_goals, self.goal_dedup_tol)
        if self._n_episodes < self._n_slots:
            slot = self._n_episodes
            if slot == len(self._desired):
                self._grow(min(self._n_slots, max(1, 2 * slot)))
            self._n_episodes += 1
        else:  # full: the new episode replaces the oldest
            slot = self._oldest
            self._oldest = (slot + 1) % self._n_slots
        width = self._goal_rows.shape[1]
        if len(goal_rows) > width:
            self._goal_rows = np.pad(self._goal_rows, ((0, 0), (0, len(goal_rows) - width)))
        self._states[slot] = trajectory.states
        self._achieved[slot] = trajectory.achieved_goals
        self._actions[slot] = trajectory.actions
        self._desired[slot] = trajectory.desired_goal
        self._goal_counts[slot] = len(goal_rows)
        self._goal_rows[slot] = 0
        self._goal_rows[slot, : len(goal_rows)] = goal_rows

    # -- sampling -----------------------------------------------------------

    def sample_batch(self, batch_size, her, rng):
        """Uniform over stored transitions, each independently relabeled
        with probability her.relabel_ratio."""
        if self._n_episodes == 0:
            raise ValueError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        horizon = self._horizon
        # draw i is step i % T of the (i // T)-th live episode, oldest first
        episode, t = np.divmod(rng.integers(0, self.n_transitions, size=batch_size), horizon)
        slots = (self._oldest + episode) % self._n_slots

        relabel = rng.random(batch_size) < her.relabel_ratio
        if her.strategy == "future":
            relabel_t = rng.integers(t, horizon + 1)  # uniform over [t, T]
        else:
            relabel_t = np.full(batch_size, horizon)
        relabel_t = np.where(relabel, relabel_t, -1)

        # flat (slot, row) views; ndarray.take copies whole rows, several
        # times faster than the equivalent fancy index at these sizes
        all_states = self._states.reshape(-1, self.state_dim)
        all_achieved = self._achieved.reshape(-1, self.goal_dim)
        bases = slots * (horizon + 1)
        rows = bases + t
        states = all_states.take(rows, axis=0)
        actions = self._actions.reshape(-1, self.action_dim).take(slots * horizon + t, axis=0)
        next_states = all_states.take(rows + 1, axis=0)
        achieved_next = all_achieved.take(rows + 1, axis=0)
        original_goals = self._desired.take(slots, axis=0)
        goals = original_goals.copy()
        if np.any(relabel):
            ridx = np.flatnonzero(relabel)
            goals[ridx] = all_achieved.take(bases[ridx] + relabel_t[ridx], axis=0)
        rewards = sparse_reward(achieved_next, goals, self.success_tolerance,
                                self.reward_convention)
        return ReplayBatch(
            states=states,
            actions=actions,
            next_states=next_states,
            original_goals=original_goals,
            goals=goals,
            rewards=rewards,
            is_relabeled=relabel,
            t=t,
            relabel_t=relabel_t,
            goal_counts=self._goal_counts[slots],
            goal_lookup=GoalLookup(all_achieved, self._goal_rows, slots, bases),
            reward_convention=self.reward_convention,
        )


def dump_trajectories_csv(trajectories, path):
    """Write one row per transition: episode, t, state, action, achieved
    goal of the destination state, desired goal.

    The last row of each episode therefore carries the terminal achieved
    goal, which is what the goal-coverage analysis consumes.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("no trajectories to dump")
    first = trajectories[0]
    header = (
        ["episode", "t"]
        + [f"state_{i}" for i in range(first.states.shape[1])]
        + [f"action_{i}" for i in range(first.actions.shape[1])]
        + [f"achieved_{i}" for i in range(first.achieved_goals.shape[1])]
        + [f"desired_{i}" for i in range(first.achieved_goals.shape[1])]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for episode, traj in enumerate(trajectories):
            for t in range(traj.horizon):
                writer.writerow(
                    [episode, t]
                    + [repr(float(v)) for v in traj.states[t]]
                    + [repr(float(v)) for v in traj.actions[t]]
                    + [repr(float(v)) for v in traj.achieved_goals[t + 1]]
                    + [repr(float(v)) for v in traj.desired_goal]
                )
