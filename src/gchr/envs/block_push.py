"""Kinematic disc-pushes-disc manipulation on the plane.

The agent disc moves by a commanded velocity; whenever it would overlap
the block disc, the block is displaced along the contact normal so the two
discs end up exactly in contact. The goal is a target block position.
"""

from __future__ import annotations

import numpy as np

from .base import GoalEnv, GoalEnvSpec, clamp, row_norm

DT = 0.1
AGENT_RADIUS = 0.08
BLOCK_RADIUS = 0.08
CONTACT_DIST = AGENT_RADIUS + BLOCK_RADIUS
WORKSPACE = 1.0
AGENT_START = np.array([-0.5, 0.0])
BLOCK_START = np.array([0.0, 0.0])
STARTS = np.concatenate([AGENT_START, BLOCK_START])
START_JITTER = 0.05
GOAL_RANGE = 0.7


def resolve_contact(agent_pos, block_pos, fallback_dir):
    """Push the block out of overlap along the agent->block normal.

    Positions have shape (..., 2). Where the two centers coincide the push
    direction falls back to `fallback_dir` (the agent's motion direction),
    or to +x when that is zero too. Returns the new block positions; rows
    without overlap keep theirs, and when no row overlaps nothing more is
    computed.
    """
    offset = block_pos - agent_pos
    dist = row_norm(offset)
    # count_nonzero is the cheapest test that takes a bool as well as an array
    if not np.count_nonzero(dist < CONTACT_DIST):
        return block_pos
    dist = np.asarray(dist)  # 0-d for a single state
    contact = dist < CONTACT_DIST
    coincident = dist <= 1e-12
    if np.count_nonzero(coincident):
        fallback_norm = np.asarray(row_norm(fallback_dir))
        moved = fallback_norm > 1e-12
        direction = np.where(moved[..., None], fallback_dir, [1.0, 0.0])
        offset = np.where(coincident[..., None], direction, offset)
        dist = np.where(coincident, np.where(moved, fallback_norm, 1.0), dist)
    pushed = agent_pos + CONTACT_DIST * (offset / dist[..., None])
    return np.where(contact[..., None], pushed, block_pos)


class BlockPush2D(GoalEnv):
    """State (agent_x, agent_y, block_x, block_y); phi extracts the block position."""

    # agent x, y jitter, then block x, y jitter, then goal x, y
    reset_low = np.array([-START_JITTER] * 4 + [-GOAL_RANGE] * 2)
    reset_high = -reset_low

    def __init__(self, **spec_overrides):
        self.spec = GoalEnvSpec(state_dim=4, action_dim=2, goal_dim=2, horizon=60)
        self._with_spec_overrides(**spec_overrides)

    def phi(self, state):
        return np.asarray(state, dtype=np.float64)[..., 2:4].copy()

    def _start_and_goal(self, draws):
        return STARTS + draws[..., :4], draws[..., 4:]

    def _dynamics(self, state, action):
        agent, block = state[..., :2], state[..., 2:4]
        new_agent = clamp(agent + action * DT, -WORKSPACE, WORKSPACE)
        new_block = resolve_contact(new_agent, block, new_agent - agent)
        new_block = clamp(new_block, -WORKSPACE, WORKSPACE)
        return np.concatenate([new_agent, new_block], axis=-1)
