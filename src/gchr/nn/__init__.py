from .adam import AdamState, adam_step
from .actor_critic import CriticNet, PolicyNet
from .checkpoint import load_params, save_params
from .gaussian import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SQUASH_EPS,
    DiagGaussianHead,
    gaussian_log_prob,
    gaussian_log_prob_grads,
    reparam_action,
    reparam_grads,
)
from .mlp import Mlp

__all__ = [
    "AdamState",
    "adam_step",
    "CriticNet",
    "PolicyNet",
    "load_params",
    "save_params",
    "LOG_STD_MAX",
    "LOG_STD_MIN",
    "SQUASH_EPS",
    "DiagGaussianHead",
    "gaussian_log_prob",
    "gaussian_log_prob_grads",
    "reparam_action",
    "reparam_grads",
    "Mlp",
]
