"""L-shaped corridor maze for the same point mass as PointReach2D.

The free space is the union of a bottom strip and a right strip on the unit
square; the agent starts in the bottom-left corner and desired goals are
drawn from the top-right region, so reaching them requires traversing the
whole corridor. Wall collisions project the motion onto the free space
axis by axis and zero the blocked velocity component.
"""

from __future__ import annotations

import numpy as np

from .base import GoalEnv, GoalEnvSpec
from .point_reach import DT, VELOCITY_CLIP

# free space: bottom strip on [0,1] x [0, 0.4] plus right strip on [0.6, 1] x [0, 1]
BOTTOM_STRIP = (0.0, 1.0, 0.0, 0.4)
RIGHT_STRIP = (0.6, 1.0, 0.0, 1.0)
START_BOX = (0.08, 0.22, 0.08, 0.22)
GOAL_BOX = (0.68, 0.95, 0.68, 0.95)


def _in_box(p, box):
    x0, x1, y0, y1 = box
    x, y = p[..., 0], p[..., 1]
    return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)


def in_free_space(p):
    """Per point of shape (..., 2): inside the bottom or the right strip."""
    p = np.asarray(p)
    return _in_box(p, BOTTOM_STRIP) | _in_box(p, RIGHT_STRIP)


class LMaze2D(GoalEnv):
    """State (x, y, vx, vy); acceleration control, horizon 100."""

    def __init__(self, **spec_overrides):
        self.spec = GoalEnvSpec(state_dim=4, action_dim=2, goal_dim=2, horizon=100)
        self._with_spec_overrides(**spec_overrides)

    def phi(self, state):
        return np.asarray(state, dtype=np.float64)[..., :2].copy()

    def _sample_start(self, rng):
        x0, x1, y0, y1 = START_BOX
        pos = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        return np.concatenate([pos, np.zeros(2)])

    def _sample_goal(self, rng):
        x0, x1, y0, y1 = GOAL_BOX
        return np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])

    def _dynamics(self, state, action):
        pos, vel = state[..., :2], state[..., 2:]
        vel = np.clip(vel + action * DT, -VELOCITY_CLIP, VELOCITY_CLIP)
        target = pos + vel * DT
        # slide along walls: when the full move leaves the free space, keep
        # the x move if it alone stays free, else the y move; a blocked
        # axis keeps its position and loses its velocity
        free = in_free_space(target)
        free_x = in_free_space(np.stack([target[..., 0], pos[..., 1]], axis=-1))
        free_y = in_free_space(np.stack([pos[..., 0], target[..., 1]], axis=-1))
        moves = np.stack([free | free_x, free | (~free_x & free_y)], axis=-1)
        return np.concatenate(
            [np.where(moves, target, pos), np.where(moves, vel, 0.0)], axis=-1
        )


def goal_region_contains(goal):
    """True if a goal lies inside the desired top-right sampling region."""
    return _in_box(np.asarray(goal), GOAL_BOX)
