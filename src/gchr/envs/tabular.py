"""Finite goal-conditioned MDPs with goal-absorbing dynamics.

The transition tensor stores the raw dynamics. Every MDP is goal-absorbing:
under an evaluated goal g, each state satisfying g self-loops whatever the
action. The lab's solvers write those rows over the raw dynamics by the
goal set's state indices; no tensor with the override applied is stored.
Goal satisfaction is exact id equality (phi maps each state to a goal id
in [0, n_states), so no goal id can size a table beyond the state count).

Text file format (see assets/chain3.mdp for a worked example):

    # comments and blank lines are ignored
    n_states 3
    n_actions 2
    gamma 0.5
    phi 0 1 2
    P <state> <action> <p_0> ... <p_{n_states-1}>   # one line per (s, a)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass
class TabularGCMDP:
    transitions: np.ndarray  # (S, A, S) raw dynamics
    phi: np.ndarray  # (S,) goal id per state
    gamma: float

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.int64)
        self.validate()

    @property
    def n_states(self):
        return self.transitions.shape[0]

    @property
    def n_actions(self):
        return self.transitions.shape[1]

    @property
    def n_goals(self):
        return int(self.phi.max()) + 1

    def validate(self):
        if self.transitions.ndim != 3 or self.transitions.shape[0] != self.transitions.shape[2]:
            raise ValueError(f"transition tensor must be (S, A, S), got {self.transitions.shape}")
        if self.phi.shape != (self.transitions.shape[0],):
            raise ValueError("phi must assign one goal id per state")
        if np.any(self.phi < 0) or np.any(self.phi >= self.n_states):
            raise ValueError(f"goal ids must lie in [0, {self.n_states}), the state count")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        # written so that a NaN fails each test
        if not np.all(self.transitions >= 0):
            raise ValueError("transition probabilities must be non-negative, not NaN")
        row_sums = self.transitions.sum(axis=2)
        if not np.all(np.abs(row_sums - 1.0) <= ROW_SUM_TOL):
            worst = np.unravel_index(np.argmax(np.abs(row_sums - 1.0)), row_sums.shape)
            raise ValueError(f"transition row {worst} sums to {row_sums[worst]!r}, not 1")

    def goal_states(self, goal):
        """States s with phi(s) = goal."""
        return np.flatnonzero(self.phi == goal)


def load_tabular_mdp(path):
    n_states = n_actions = None
    gamma = None
    phi = None
    rows = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0]
            try:
                if key == "n_states":
                    n_states = int(parts[1])
                elif key == "n_actions":
                    n_actions = int(parts[1])
                elif key == "gamma":
                    gamma = float(parts[1])
                elif key == "phi":
                    phi = [int(v) for v in parts[1:]]
                elif key == "P":
                    s, a = int(parts[1]), int(parts[2])
                    if (s, a) in rows:
                        raise ValueError(f"repeats P row ({s}, {a}) of line {rows[s, a][0]}")
                    rows[(s, a)] = (lineno, [float(v) for v in parts[3:]])
                else:
                    raise ValueError(f"unknown directive {key!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if n_states is None or n_actions is None or gamma is None or phi is None:
        raise ValueError(f"{path}: header must define n_states, n_actions, gamma and phi")
    if len(phi) != n_states:
        raise ValueError(f"{path}: phi lists {len(phi)} entries for {n_states} states")
    # every row is checked for before the (S, A, S) tensor is allocated
    for (s, a), (lineno, _) in rows.items():
        if not (0 <= s < n_states and 0 <= a < n_actions):
            raise ValueError(f"{path}:{lineno}: P row ({s}, {a}) lies outside "
                             f"{n_states} states and {n_actions} actions")
    for s in range(n_states):
        for a in range(n_actions):
            if (s, a) not in rows:
                raise ValueError(f"{path}: missing P row for state {s}, action {a}")
    transitions = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            lineno, row = rows[(s, a)]
            if len(row) != n_states:
                raise ValueError(f"{path}:{lineno}: P row ({s}, {a}) has {len(row)} entries")
            transitions[s, a] = row
    return TabularGCMDP(transitions, np.array(phi), gamma)


def save_tabular_mdp(path, mdp, header_comment=None):
    with open(path, "w") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"n_states {mdp.n_states}\n")
        fh.write(f"n_actions {mdp.n_actions}\n")
        fh.write(f"gamma {mdp.gamma!r}\n")
        fh.write("phi " + " ".join(str(int(g)) for g in mdp.phi) + "\n")
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                row = " ".join(repr(float(p)) for p in mdp.transitions[s, a])
                fh.write(f"P {s} {a} {row}\n")


def tabular_rollout(mdp, action_probs, start_state, horizon, rng):
    """Roll out a state-conditional policy on the raw dynamics.

    `action_probs` is an (S, A) matrix. Returns (states, actions) with
    horizon+1 states and horizon actions; used to produce trajectory logs
    for the coverage analyses.
    """
    states = np.empty(horizon + 1, dtype=np.int64)
    actions = np.empty(horizon, dtype=np.int64)
    s = int(start_state)
    states[0] = s
    for t in range(horizon):
        a = rng.choice(mdp.n_actions, p=action_probs[s])
        s = rng.choice(mdp.n_states, p=mdp.transitions[s, a])
        actions[t] = a
        states[t + 1] = s
    return states, actions
