"""Goal-conditioned actor and critic networks built on the Mlp substrate."""

from __future__ import annotations

import numpy as np

from .gaussian import LOG_STD_MAX, LOG_STD_MIN, DiagGaussianHead, reparam_action
from .mlp import Mlp


def _concat(*arrays):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    return np.concatenate(arrays, axis=-1)


class PolicyNet:
    """Squashed diagonal-Gaussian actor.

    The trunk maps concat(state, goal) to 2*action_dim outputs; the first
    half is the mean, the second half a raw log-std that is clamped to
    [LOG_STD_MIN, LOG_STD_MAX].
    """

    def __init__(self, state_dim, goal_dim, action_dim, hidden_sizes=(64, 64),
                 activation="relu", squash=True, rng=None):
        self.state_dim = int(state_dim)
        self.goal_dim = int(goal_dim)
        self.action_dim = int(action_dim)
        self.squash = bool(squash)
        sizes = [self.state_dim + self.goal_dim, *hidden_sizes, 2 * self.action_dim]
        self.mlp = Mlp.initialize(sizes, activation=activation, rng=rng)

    def head_cached(self, states, goals):
        """Returns (head, cache, raw_log_std); cache feeds backward_from_head."""
        out, cache = self.mlp.forward_cached(_concat(states, goals))
        mean = out[..., : self.action_dim]
        raw_log_std = out[..., self.action_dim :]
        head = DiagGaussianHead(mean, raw_log_std, squash=self.squash)
        return head, cache, raw_log_std

    def head(self, states, goals):
        return self.head_cached(states, goals)[0]

    def mean_action(self, states, goals):
        """Deterministic (greedy) action: the distribution mode."""
        return self.head(states, goals).mode()

    def sample(self, states, goals, rng):
        """One reparameterized action draw per row."""
        head = self.head(states, goals)
        return reparam_action(head, rng.standard_normal(head.mean.shape))

    def backward_from_head(self, cache, raw_log_std, d_mean, d_log_std):
        """Backpropagate gradients on (mean, log_std) to the trunk parameters.

        The log-std clamp passes gradient only strictly inside its bounds.
        Returns (param grads, gradient w.r.t. the concatenated input).
        """
        mask = (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)
        d_out = np.concatenate(
            [np.asarray(d_mean, dtype=np.float64), np.asarray(d_log_std, dtype=np.float64) * mask],
            axis=-1,
        )
        return self.mlp.backward(cache, d_out)

    def params(self):
        return self.mlp.params()

    def set_params(self, params):
        self.mlp.set_params(params)

    def copy(self):
        clone = PolicyNet.__new__(PolicyNet)
        clone.state_dim = self.state_dim
        clone.goal_dim = self.goal_dim
        clone.action_dim = self.action_dim
        clone.squash = self.squash
        clone.mlp = self.mlp.copy()
        return clone


class CriticNet:
    """Goal-conditioned Q-function over concat(state, action, goal)."""

    def __init__(self, state_dim, goal_dim, action_dim, hidden_sizes=(64, 64),
                 activation="relu", rng=None):
        self.state_dim = int(state_dim)
        self.goal_dim = int(goal_dim)
        self.action_dim = int(action_dim)
        sizes = [self.state_dim + self.action_dim + self.goal_dim, *hidden_sizes, 1]
        self.mlp = Mlp.initialize(sizes, activation=activation, rng=rng)

    def q_cached(self, states, actions, goals):
        out, cache = self.mlp.forward_cached(_concat(states, actions, goals))
        return out[..., 0], cache

    def q(self, states, actions, goals):
        return self.q_cached(states, actions, goals)[0]

    def backward(self, cache, d_q):
        """Backward from dL/dQ; returns (param grads, dL/d(action))."""
        d_out = np.asarray(d_q, dtype=np.float64)[..., np.newaxis]
        grads, d_input = self.mlp.backward(cache, d_out)
        d_action = d_input[..., self.state_dim : self.state_dim + self.action_dim]
        return grads, d_action

    def params(self):
        return self.mlp.params()

    def set_params(self, params):
        self.mlp.set_params(params)

    def copy(self):
        clone = CriticNet.__new__(CriticNet)
        clone.state_dim = self.state_dim
        clone.goal_dim = self.goal_dim
        clone.action_dim = self.action_dim
        clone.mlp = self.mlp.copy()
        return clone
