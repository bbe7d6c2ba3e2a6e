"""Fixture builders: gridworlds and trajectory logs."""

from __future__ import annotations

import numpy as np

from ..envs.tabular import TabularGCMDP, tabular_rollout

# action ids: 0 right, 1 left, 2 up, 3 down
GRID_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def make_gridworld(width, height, gamma, walls=(), slip=0.0, phi=None):
    """Deterministic-or-slippery four-action gridworld over free cells.

    Moving into a wall or off the grid leaves the agent in place. With
    probability `slip` the executed move is uniform over the four
    directions instead of the commanded one. `phi` maps cell index to goal
    id and defaults to the identity (every free cell is its own goal).
    """
    walls = set(walls)
    cells = [(x, y) for y in range(height) for x in range(width) if (x, y) not in walls]
    index = {cell: i for i, cell in enumerate(cells)}
    n_states = len(cells)
    n_actions = 4

    def target(cell, move):
        nxt = (cell[0] + move[0], cell[1] + move[1])
        if nxt in index:
            return index[nxt]
        return index[cell]

    transitions = np.zeros((n_states, n_actions, n_states))
    for cell, s in index.items():
        landings = [target(cell, move) for move in GRID_MOVES]
        for a in range(n_actions):
            transitions[s, a, landings[a]] += 1.0 - slip
            for landing in landings:
                transitions[s, a, landing] += slip / n_actions
    if phi is None:
        phi = np.arange(n_states)
    return TabularGCMDP(transitions, np.asarray(phi), gamma)


def grid_cells(width, height, walls=()):
    """Free-cell list in the same order make_gridworld indexes states."""
    walls = set(walls)
    return [(x, y) for y in range(height) for x in range(width) if (x, y) not in walls]


def random_walk_log(mdp, n_episodes, horizon, rng):
    """Uniform-random walks on the raw dynamics from uniform-random start
    states; returns (states, actions) pairs for the support analyses."""
    action_probs = np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
    return [tabular_rollout(mdp, action_probs, rng.integers(0, mdp.n_states), horizon, rng)
            for _ in range(n_episodes)]
