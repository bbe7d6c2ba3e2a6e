"""Certificate for the uniform-reachability precondition.

Two parts, per evaluated goal g with goal set S_g:

1. every state of S_g can reach every other state of S_g through some
   action sequence on the raw dynamics (paths may leave S_g);
2. for every other goal g' that is reachable from S_g under the policy
   (some V(s, g') > 0 with s in S_g), the values V(., g') are uniform over
   S_g up to the given delta.

Part 2 reads the policy's exact per-goal values, the (S, G) array that a
`policy_iteration_step` sweep returns, so certifying every goal solves
nothing beyond that sweep. The certificate lists concrete witnesses for
every violation so failing fixtures explain themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReachabilityCertificate:
    goal: int
    delta: float
    holds: bool
    part1_ok: bool
    part2_ok: bool
    unreachable_pairs: list = field(default_factory=list)  # (from_state, to_state)
    spread_violations: list = field(default_factory=list)  # (other_goal, spread, s_max, s_min)
    max_spread: float = 0.0


def _reachable_from(adjacency, start):
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in np.flatnonzero(adjacency[s]):
                if not seen[t]:
                    seen[t] = True
                    nxt.append(t)
        frontier = nxt
    return seen


def check_assumption_uniform_reachability(mdp, values, goal, delta):
    """Certificate for `goal`; `values` (S, G) are the policy's exact V."""
    goal_states = mdp.goal_states(goal)

    unreachable = []
    if len(goal_states) > 1:  # a lone goal state reaches itself at step 0
        adjacency = mdp.transitions.max(axis=1) > 0.0  # edge if any action can move there
        for s in goal_states:
            seen = _reachable_from(adjacency, int(s))
            for t in goal_states:
                if not seen[t]:
                    unreachable.append((int(s), int(t)))
    part1_ok = not unreachable

    spread_violations = []
    max_spread = 0.0
    if len(goal_states) > 1:
        for other in range(mdp.n_goals):
            if other == goal:
                continue
            vals = values[goal_states, other]
            if np.max(vals) <= 0.0:
                continue  # g' unreachable from S_g under this policy
            spread = float(np.max(vals) - np.min(vals))
            max_spread = max(max_spread, spread)
            if not spread < delta:  # a NaN spread is a violation too
                spread_violations.append(
                    (int(other), spread,
                     int(goal_states[np.argmax(vals)]), int(goal_states[np.argmin(vals)]))
                )
    part2_ok = not spread_violations

    return ReachabilityCertificate(
        goal=int(goal),
        delta=float(delta),
        holds=part1_ok and part2_ok,
        part1_ok=part1_ok,
        part2_ok=part2_ok,
        unreachable_pairs=unreachable,
        spread_violations=spread_violations,
        max_spread=max_spread,
    )
