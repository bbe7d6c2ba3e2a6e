from .config import ConfigError, ExperimentConfig, default_config, load_config, write_config
from .goals import dump_terminal_goals
from .loop import (
    RunFailure,
    collect_episode,
    collect_episodes,
    final_success_per_seed,
    read_metrics,
    run_eval,
    run_training,
    train_seed,
)
from .sweep import SWEEP_AXES, apply_axis, run_sweep

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "default_config",
    "load_config",
    "write_config",
    "dump_terminal_goals",
    "RunFailure",
    "collect_episode",
    "collect_episodes",
    "final_success_per_seed",
    "read_metrics",
    "run_eval",
    "run_training",
    "train_seed",
    "SWEEP_AXES",
    "apply_axis",
    "run_sweep",
]
