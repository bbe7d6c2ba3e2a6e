"""Trajectory replay buffer with hindsight goal relabeling.

Stored trajectories keep their full achieved-goal sequence, so a sampled
transition can be relabeled with any goal the trajectory actually reached
at or after that timestep (the future strategy) or with its final achieved
goal. Rewards are always recomputed from the achieved goal of the
transition's destination state against the sample's effective goal.

Transitions live only in flat arrays, so minibatch sampling is fully
vectorized; the arrays grow geometrically up to a cap of about 1.25x the
transition capacity, and eviction is FIFO over whole trajectories once the
transition capacity is exceeded. Each trajectory's deduplicated
hindsight goal set is computed once, at store time, as first-visit row
offsets into those arrays. A sampled batch copies no goal set: it carries a
`GoalLookup` into the buffer's arrays, and the hindsight prior gathers only
the goals it draws. No padded goal table is built per batch.
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
    the buffer's next store_trajectory, which may compact the flat arrays
    in place and so move the rows it points at.
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
    """FIFO trajectory store with vectorized hindsight relabeling.

    Per-trajectory bookkeeping lives in columns indexed by slot, in store
    order: the flat-array base row, the horizon, the running transition
    count at its end (evictions included), the desired goal, and the
    first-visit rows of its goal set as offsets from the base, padded with
    offset 0. A store writes one slot at the tail and an eviction advances
    the head, so neither rebuilds the columns; they are repacked only when
    the tail reaches their end, at twice the live size.
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
        self._n_transitions = 0
        self._n_stored = 0  # transitions ever stored, evicted ones included
        self._fill = 0  # rows used in the flat arrays (T+1 per trajectory)
        self._states = np.empty((0, self.state_dim))
        self._actions = np.empty((0, self.action_dim))
        self._achieved = np.empty((0, self.goal_dim))
        self._head = 0  # slot of the oldest live trajectory
        self._tail = 0  # one past the newest live slot
        self._bases = np.empty(0, dtype=np.int64)
        self._lengths = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._goal_counts = np.empty(0, dtype=np.int64)
        self._desired = np.empty((0, self.goal_dim))
        self._goal_rows = np.empty((0, 0), dtype=np.int64)

    # -- storage ------------------------------------------------------------

    @property
    def n_transitions(self):
        return self._n_transitions

    def _ensure_alloc(self, extra_rows):
        """Make room for `extra_rows` more flat rows: double the arrays up to
        the cap; only where the rows would pass the cap, first compact the
        live rows to the front."""
        need = self._fill + extra_rows
        alloc = len(self._states)
        if need <= alloc:
            return
        # capacity counts transitions; the flat arrays hold T+1 rows per
        # trajectory, so the cap leaves ~25% headroom before compacting
        cap = int(self.capacity * 1.25) + 2 * extra_rows + 4
        if need > cap:
            self._compact()
            need = self._fill + extra_rows
            if need <= alloc:
                return
        size = max(need, min(cap, 2 * alloc))
        for name in ("_states", "_actions", "_achieved"):
            old = getattr(self, name)
            grown = np.empty((size, old.shape[1]))
            grown[: self._fill] = old[: self._fill]
            setattr(self, name, grown)

    def _compact(self):
        shift = self._bases[self._head] if self._tail > self._head else self._fill
        keep = self._fill - shift
        for arr in (self._states, self._actions, self._achieved):
            arr[:keep] = arr[shift : self._fill]
        self._bases[self._head : self._tail] -= shift
        self._fill = keep

    def _repack_slots(self, width):
        """Move the live slots to the front of fresh columns with room to
        grow and at least `width` goal-row columns."""
        live = slice(self._head, self._tail)
        n_live = self._tail - self._head
        size = max(16, 2 * n_live)
        for name in ("_bases", "_lengths", "_ends", "_goal_counts", "_desired"):
            old = getattr(self, name)
            column = np.zeros((size, *old.shape[1:]), dtype=old.dtype)
            column[:n_live] = old[live]
            setattr(self, name, column)
        rows = np.zeros((size, max(width, self._goal_rows.shape[1])), dtype=np.int64)
        rows[:n_live, : self._goal_rows.shape[1]] = self._goal_rows[live]
        self._goal_rows = rows
        self._head, self._tail = 0, n_live

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
        # FIFO eviction before inserting so capacity bounds the stored count
        while self._tail > self._head and self._n_transitions + horizon > self.capacity:
            self._n_transitions -= int(self._lengths[self._head])
            self._head += 1
        rows = horizon + 1
        self._ensure_alloc(rows)
        base = self._fill
        self._states[base : base + rows] = trajectory.states
        self._achieved[base : base + rows] = trajectory.achieved_goals
        self._actions[base : base + horizon] = trajectory.actions
        self._fill += rows
        goal_rows = first_visit_rows(trajectory.achieved_goals, self.goal_dedup_tol)
        if self._tail == len(self._lengths) or len(goal_rows) > self._goal_rows.shape[1]:
            self._repack_slots(len(goal_rows))
        slot = self._tail
        self._n_stored += horizon
        self._bases[slot] = base
        self._lengths[slot] = horizon
        self._ends[slot] = self._n_stored
        self._goal_counts[slot] = len(goal_rows)
        self._desired[slot] = trajectory.desired_goal
        self._goal_rows[slot, : len(goal_rows)] = goal_rows
        self._tail += 1
        self._n_transitions += horizon

    # -- sampling -----------------------------------------------------------

    def sample_batch(self, batch_size, her, rng):
        """Uniform over stored transitions, each independently relabeled
        with probability her.relabel_ratio."""
        if self._n_transitions == 0:
            raise ValueError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        flat_idx = rng.integers(0, self._n_transitions, size=batch_size)
        # the running end counts include evicted transitions: skip past them
        stored_idx = flat_idx + (self._n_stored - self._n_transitions)
        slots = self._head + np.searchsorted(self._ends[self._head : self._tail], stored_idx,
                                             side="right")
        lengths = self._lengths[slots]
        t = stored_idx - (self._ends[slots] - lengths)
        bases = self._bases[slots]

        relabel = rng.random(batch_size) < her.relabel_ratio
        if her.strategy == "future":
            relabel_t = rng.integers(t, lengths + 1)  # uniform over [t, T]
        else:
            relabel_t = lengths.copy()
        relabel_t = np.where(relabel, relabel_t, -1)

        # ndarray.take copies whole rows, several times faster than the
        # equivalent fancy index at these sizes
        rows = bases + t
        states = self._states.take(rows, axis=0)
        actions = self._actions.take(rows, axis=0)
        next_states = self._states.take(rows + 1, axis=0)
        achieved_next = self._achieved.take(rows + 1, axis=0)
        original_goals = self._desired.take(slots, axis=0)
        goals = original_goals.copy()
        if np.any(relabel):
            ridx = np.flatnonzero(relabel)
            goals[ridx] = self._achieved.take(bases[ridx] + relabel_t[ridx], axis=0)
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
            goal_lookup=GoalLookup(self._achieved, self._goal_rows, slots, bases),
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
