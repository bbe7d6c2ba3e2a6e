"""L-shaped corridor maze for the same point mass as PointReach2D.

The free space is the union of a bottom strip and a right strip on the unit
square; the agent starts in the bottom-left corner and desired goals are
drawn from the top-right region, so reaching them requires traversing the
whole corridor. Wall collisions project the motion onto the free space
axis by axis and zero the blocked velocity component.
"""

from __future__ import annotations

import numpy as np

from .base import GoalEnv, GoalEnvSpec, clamp
from .point_reach import DT, VELOCITY_CLIP

# free space: bottom strip on [0,1] x [0, 0.4] plus right strip on [0.6, 1] x [0, 1]
BOTTOM_STRIP = (0.0, 1.0, 0.0, 0.4)
RIGHT_STRIP = (0.6, 1.0, 0.0, 1.0)
START_BOX = (0.08, 0.22, 0.08, 0.22)
GOAL_BOX = (0.68, 0.95, 0.68, 0.95)
# (x, y) lower and upper corners of the free space, one row per strip
FREE_LOW = np.array([[BOTTOM_STRIP[0], BOTTOM_STRIP[2]], [RIGHT_STRIP[0], RIGHT_STRIP[2]]])
FREE_HIGH = np.array([[BOTTOM_STRIP[1], BOTTOM_STRIP[3]], [RIGHT_STRIP[1], RIGHT_STRIP[3]]])


def in_free_space(p):
    """Per point of shape (..., 2): inside the bottom or the right strip,
    edges included. Both strips are tested in one comparison per side."""
    q = np.asarray(p)[..., None, :]
    inside = (q >= FREE_LOW) & (q <= FREE_HIGH)  # (..., strip, axis)
    per_strip = inside[..., 0] & inside[..., 1]
    return per_strip[..., 0] | per_strip[..., 1]


class LMaze2D(GoalEnv):
    """State (x, y, vx, vy); acceleration control, horizon 100."""

    # start x, y in START_BOX, then goal x, y in GOAL_BOX
    reset_low = np.array([START_BOX[0], START_BOX[2], GOAL_BOX[0], GOAL_BOX[2]])
    reset_high = np.array([START_BOX[1], START_BOX[3], GOAL_BOX[1], GOAL_BOX[3]])

    def __init__(self, **spec_overrides):
        self.spec = GoalEnvSpec(state_dim=4, action_dim=2, goal_dim=2, horizon=100)
        self._with_spec_overrides(**spec_overrides)

    def phi(self, state):
        return np.asarray(state, dtype=np.float64)[..., :2].copy()

    def _start_and_goal(self, draws):
        pos = draws[..., :2]
        return np.concatenate([pos, np.zeros_like(pos)], axis=-1), draws[..., 2:]

    def _dynamics(self, state, action):
        pos, vel = state[..., :2], state[..., 2:]
        vel = clamp(vel + action * DT, -VELOCITY_CLIP, VELOCITY_CLIP)
        target = pos + vel * DT
        # slide along walls: when the full move leaves the free space, keep
        # the x move if it alone stays free, else the y move; a blocked
        # axis keeps its position and loses its velocity. The full move, the
        # x move alone and the y move alone are tested in one call.
        candidates = np.stack([target, target, pos])
        candidates[1, ..., 1] = pos[..., 1]
        candidates[2, ..., 1] = target[..., 1]
        free, free_x, free_y = in_free_space(candidates)
        moves = np.stack([free | free_x, free | (~free_x & free_y)], axis=-1)
        return np.concatenate(
            [np.where(moves, target, pos), np.where(moves, vel, 0.0)], axis=-1
        )
