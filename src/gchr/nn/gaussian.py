"""Diagonal-Gaussian policy head, optionally tanh-squashed into the action box.

Log-densities, sampling and the analytic gradients needed by the actor
losses all live here. For a squashed head with pre-tanh value
u ~ N(mean, std^2) and action a = tanh(u), the change of variables gives

    log p(a) = log N(atanh(a); mean, std) - sum_i log(1 - a_i^2)

Actions are clamped to |a| <= 1 - 1e-6 before the inverse tanh so boundary
samples stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class DiagGaussianHead:
    """Per-sample mean/log-std pair; arrays may carry leading batch axes."""

    mean: np.ndarray
    log_std: np.ndarray
    squash: bool = True

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.log_std = np.clip(
            np.asarray(self.log_std, dtype=np.float64), LOG_STD_MIN, LOG_STD_MAX
        )
        if self.mean.shape != self.log_std.shape:
            raise ValueError("mean and log_std must have identical shapes")

    @property
    def std(self):
        return np.exp(self.log_std)

    def mode(self):
        """Most likely action: tanh(mean) when squashed, mean otherwise."""
        return np.tanh(self.mean) if self.squash else self.mean.copy()


def _clamp_action(head, action):
    action = np.asarray(action, dtype=np.float64)
    if action.shape[-1] != head.mean.shape[-1]:
        raise ValueError(
            f"action dim {action.shape[-1]} does not match head dim {head.mean.shape[-1]}"
        )
    if head.squash:
        action = np.clip(action, -1.0 + SQUASH_EPS, 1.0 - SQUASH_EPS)
    return action


def gaussian_log_prob(head, action):
    """Log density of `action` under the head, summed over action dims."""
    a = _clamp_action(head, action)
    u = np.arctanh(a) if head.squash else a
    z = (u - head.mean) / head.std
    logp = -0.5 * z * z - head.log_std - 0.5 * _LOG_2PI
    if head.squash:
        logp = logp - np.log1p(-a * a)
    return logp.sum(axis=-1)


def gaussian_log_prob_grads(head, action):
    """Log density plus its gradients with respect to mean and log_std.

    The action is treated as data; the tanh correction term does not depend
    on the head parameters, so the gradients are those of the underlying
    Gaussian evaluated at the pre-tanh value.
    """
    a = _clamp_action(head, action)
    u = np.arctanh(a) if head.squash else a
    std = head.std
    z = (u - head.mean) / std
    logp = (-0.5 * z * z - head.log_std - 0.5 * _LOG_2PI).sum(axis=-1)
    if head.squash:
        logp = logp - np.log1p(-a * a).sum(axis=-1)
    d_mean = z / std
    d_log_std = z * z - 1.0
    return logp, d_mean, d_log_std


def reparam_action(head, noise):
    """Deterministic sampling map: tanh(mean + std * noise), clamped strictly inside the box."""
    u = head.mean + head.std * noise
    if not head.squash:
        return u
    return np.clip(np.tanh(u), -1.0 + SQUASH_EPS, 1.0 - SQUASH_EPS)


def reparam_grads(head, noise, action):
    """Elementwise pathwise factors d(action)/d(mean) and d(action)/d(log_std)."""
    if head.squash:
        jac = 1.0 - action * action
    else:
        jac = np.ones_like(action)
    return jac, jac * head.std * noise
