"""Goal-conditioned environment contract: state-to-goal map, sparse reward,
fixed-horizon episodes.

Episodes always run exactly `horizon` steps; reaching the goal sets the
reward but does not terminate (the usual sparse-reward convention for
goal-reaching benchmarks). Environment dynamics are deterministic given the
rng, so fixed seeds reproduce full episodes bit for bit when the action
noise is zero.

States, goals and actions may carry leading batch axes: the same step,
phi, dynamics and reward serve one episode and a stack of episodes stepped
in lockstep, row for row with the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

REWARD_CONVENTIONS = ("zero_one", "neg_one_zero")


@dataclass
class GoalEnvSpec:
    state_dim: int
    action_dim: int
    goal_dim: int
    horizon: int
    success_tolerance: float = 0.05
    reward_convention: str = "zero_one"
    action_noise_std: float = 0.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.success_tolerance <= 0:
            raise ValueError("success_tolerance must be positive")
        if self.action_noise_std < 0:
            raise ValueError("action_noise_std must be non-negative")
        if self.reward_convention not in REWARD_CONVENTIONS:
            raise ValueError(
                f"reward_convention must be one of {REWARD_CONVENTIONS}, "
                f"got {self.reward_convention!r}"
            )


@dataclass
class GoalEnvState:
    state: np.ndarray
    achieved_goal: np.ndarray
    desired_goal: np.ndarray
    step_index: int = 0


def row_norm(x):
    """Euclidean norm over the last axis: a float for one vector, an array
    for a stack.

    Every row is squared with the dot routine np.linalg.norm uses on one
    vector (a stack goes through a stacked matmul, which calls it per row),
    so each row rounds exactly like the norm of that row alone;
    np.linalg.norm(axis=-1) does not, and differs in the last bit for about
    8% of random 2-D rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return math.sqrt(x.dot(x))
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0])


def clamp(x, low, high):
    """np.clip(x, low, high) of an array as two ufunc calls into one fresh
    array: the same values, NaN included, without np.clip's per-call
    wrapper cost, which dominates on the few-element arrays of an env step."""
    out = np.maximum(x, low)
    return np.minimum(out, high, out=out)


def is_success(achieved_goal, desired_goal, tolerance):
    """Goal reached within tolerance: a bool for one goal pair, a bool array
    for stacks of them."""
    return row_norm(np.asarray(achieved_goal) - np.asarray(desired_goal)) <= tolerance


def sparse_reward(achieved_goal, desired_goal, tolerance, convention="zero_one"):
    """The sparse reward of every goal pair: 1/0 under zero_one, 0/-1 under
    neg_one_zero. A float for one pair, a float array for stacks of them."""
    hit = is_success(achieved_goal, desired_goal, tolerance)
    return hit - (0.0 if convention == "zero_one" else 1.0)


def reward_value_bounds(convention, gamma):
    """Feasible range of discounted returns under a reward convention."""
    if convention == "zero_one":
        return 0.0, 1.0 / (1.0 - gamma)
    return -1.0 / (1.0 - gamma), 0.0


class GoalEnv:
    """Base class for the continuous desk-scale tasks.

    Subclasses set reset_low and reset_high and implement phi(),
    _start_and_goal() and _dynamics(); this class owns the episode
    mechanics (resets, action clipping, optional Gaussian action noise,
    reward and termination bookkeeping).

    Reset contract: every draw a reset makes is uniform in the box
    [reset_low, reset_high] of shape (k,), listed in draw order, and
    _start_and_goal() maps draws of shape (..., k) row by row to (states,
    desired goals). reset(rng, n) takes all n episodes' draws in one
    rng.uniform call of size (n, k), which consumes rng exactly as n
    single resets in episode order; a single reset, reset(rng), is row 0
    of a stack of one.

    Batch-axis contract: phi() and _dynamics() map states of shape
    (..., state_dim) and actions of shape (..., action_dim) row by row, and
    step() accepts a GoalEnvState whose state and goals carry the same
    leading axes. Every row gets the same arithmetic as a single state
    would, so stepping n episodes in lockstep equals stepping each alone,
    bit for bit. step() returns the reward as a float for a single state
    and as an array over the leading axes for a stack; done is one bool,
    since all rows share the step index.
    """

    spec: GoalEnvSpec
    reset_low: np.ndarray
    reset_high: np.ndarray

    def phi(self, state):
        raise NotImplementedError

    def _start_and_goal(self, draws):
        raise NotImplementedError

    def _dynamics(self, state, action):
        raise NotImplementedError

    def reset(self, rng, n=None):
        """One episode's start (n=None) or a stack of n episodes' starts."""
        size = self.reset_low.shape if n is None else (n, len(self.reset_low))
        state, goal = self._start_and_goal(rng.uniform(self.reset_low, self.reset_high, size))
        # a copy: a view would keep all the draws alive for the whole episode
        return GoalEnvState(state=state, achieved_goal=self.phi(state), desired_goal=goal.copy())

    def step(self, env_state, action, rng):
        """Advance one step; returns (next GoalEnvState, reward, done).

        Action noise, when enabled, is drawn as one standard-normal array of
        the action's shape, which consumes the rng in the same order as
        stepping the rows one at a time.
        """
        spec = self.spec
        if env_state.step_index >= spec.horizon:
            raise RuntimeError("episode is done; reset before stepping again")
        action = np.asarray(action, dtype=np.float64)
        expected = (*np.shape(env_state.state)[:-1], spec.action_dim)
        if action.shape != expected:
            raise ValueError(f"action shape {action.shape} != {expected}")
        if (np.abs(action) > 1.0 + 1e-9).any():
            raise ValueError("action components must lie in [-1, 1]")
        if spec.action_noise_std > 0:
            action = action + spec.action_noise_std * rng.standard_normal(action.shape)
        action = clamp(action, -1.0, 1.0)
        next_state = self._dynamics(env_state.state, action)
        achieved = self.phi(next_state)
        reward = sparse_reward(
            achieved, env_state.desired_goal, spec.success_tolerance, spec.reward_convention
        )
        step_index = env_state.step_index + 1
        next_env_state = GoalEnvState(next_state, achieved, env_state.desired_goal, step_index)
        return next_env_state, reward, step_index == spec.horizon

    def _with_spec_overrides(self, **overrides):
        fixed = {"state_dim", "action_dim", "goal_dim"}
        bad = fixed & set(overrides)
        if bad:
            raise ValueError(f"cannot override environment dimensions: {sorted(bad)}")
        self.spec = replace(self.spec, **overrides)
