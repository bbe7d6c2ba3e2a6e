"""Free-space point-mass reaching: double integrator on the plane."""

from __future__ import annotations

import numpy as np

from .base import GoalEnv, GoalEnvSpec, clamp

DT = 0.1
VELOCITY_CLIP = 1.0
START_JITTER = 0.05
GOAL_RANGE = 1.0


class PointReach2D(GoalEnv):
    """State (x, y, vx, vy); the action is an acceleration in [-1, 1]^2.

    Start near the origin at rest, goal uniform in [-1, 1]^2, horizon 50.
    """

    # start x, y, then goal x, y
    reset_low = np.array([-START_JITTER, -START_JITTER, -GOAL_RANGE, -GOAL_RANGE])
    reset_high = -reset_low

    def __init__(self, **spec_overrides):
        self.spec = GoalEnvSpec(state_dim=4, action_dim=2, goal_dim=2, horizon=50)
        self._with_spec_overrides(**spec_overrides)

    def phi(self, state):
        return np.asarray(state, dtype=np.float64)[..., :2].copy()

    def _start_and_goal(self, draws):
        pos = draws[..., :2]
        return np.concatenate([pos, np.zeros_like(pos)], axis=-1), draws[..., 2:]

    def _dynamics(self, state, action):
        pos, vel = state[..., :2], state[..., 2:]
        vel = clamp(vel + action * DT, -VELOCITY_CLIP, VELOCITY_CLIP)
        return np.concatenate([pos + vel * DT, vel], axis=-1)

