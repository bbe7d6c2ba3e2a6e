"""Goal-conditioned actor and critic networks built on the Mlp substrate."""

from __future__ import annotations

import copy

import numpy as np

from .gaussian import LOG_STD_MAX, LOG_STD_MIN, DiagGaussianHead, reparam_action
from .mlp import Mlp


def _concat(*arrays):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    return np.concatenate(arrays, axis=-1)


class _MlpNet:
    """Parameter access shared by the actor and the critic: a net's
    parameters are those of its trunk Mlp."""

    def params(self, flat=None):
        return self.mlp.params(flat)

    def set_params(self, params):
        self.mlp.set_params(params)

    def copy(self):
        clone = copy.copy(self)
        clone.mlp = self.mlp.copy()
        return clone


class PolicyNet(_MlpNet):
    """Squashed diagonal-Gaussian actor.

    The trunk maps concat(state, goal) to 2*action_dim outputs; the first
    half is the mean, the second half a raw log-std that is clamped to
    [LOG_STD_MIN, LOG_STD_MAX].
    """

    def __init__(self, state_dim, goal_dim, action_dim, hidden_sizes=(64, 64),
                 activation="relu", squash=True, rng=None):
        sizes = [int(state_dim) + int(goal_dim), *hidden_sizes, 2 * int(action_dim)]
        self._bind(Mlp.initialize(sizes, activation=activation, rng=rng),
                   state_dim, goal_dim, action_dim, squash)

    @classmethod
    def from_mlp(cls, mlp, state_dim, goal_dim, action_dim):
        """A squashed actor around an existing trunk, e.g. one built from
        stored arrays; no random initialization."""
        actor = cls.__new__(cls)
        actor._bind(mlp, state_dim, goal_dim, action_dim, squash=True)
        return actor

    def _bind(self, mlp, state_dim, goal_dim, action_dim, squash):
        self.state_dim = int(state_dim)
        self.goal_dim = int(goal_dim)
        self.action_dim = int(action_dim)
        self.squash = bool(squash)
        self.mlp = mlp

    def head_cached(self, states, goals):
        """Returns (head, cache, raw_log_std); cache feeds backward_from_head."""
        return self.head_cached_on(_concat(states, goals))

    def head_cached_on(self, inputs):
        """head_cached on rows that already hold concat(state, goal)."""
        out, cache = self.mlp.forward_cached(inputs)
        mean = out[..., : self.action_dim]
        raw_log_std = out[..., self.action_dim :]
        head = DiagGaussianHead(mean, raw_log_std, squash=self.squash)
        return head, cache, raw_log_std

    def head(self, states, goals):
        return self.head_cached(states, goals)[0]

    def mean_action(self, states, goals):
        """Deterministic (greedy) action: the distribution mode, tanh(mean)
        when squashed, taken from the trunk without building a head."""
        mean = self.mlp.forward(_concat(states, goals))[..., : self.action_dim]
        return np.tanh(mean) if self.squash else mean.copy()

    def sample(self, states, goals, rng):
        """One reparameterized action draw per row."""
        head = self.head(states, goals)
        return reparam_action(head, rng.standard_normal(head.mean.shape))

    def backward_from_head(self, cache, raw_log_std, d_head):
        """Backpropagate a head gradient to the trunk parameters; returns dL/d(theta).

        `d_head` holds dL/d(mean) then dL/d(log_std) on each row, laid out
        like the trunk's output. The log-std clamp passes gradient only
        strictly inside its bounds: the log-std half is masked in place.
        """
        mask = (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)
        d_head[..., self.action_dim :] *= mask
        return self.mlp.backward(cache, d_head, "params")[0]


class CriticNet(_MlpNet):
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

    def backward(self, cache, d_q, wrt="both"):
        """Backward from dL/dQ; returns (dL/d(theta), dL/d(action)). `wrt`
        picks what to compute, as in Mlp.backward; the other one is None."""
        d_out = np.asarray(d_q, dtype=np.float64)[..., np.newaxis]
        grad, d_input = self.mlp.backward(cache, d_out, wrt)
        if d_input is None:
            return grad, None
        return grad, d_input[..., self.state_dim : self.state_dim + self.action_dim]
