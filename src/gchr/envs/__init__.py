from .base import (
    GoalEnv,
    GoalEnvSpec,
    GoalEnvState,
    is_success,
    reward_value_bounds,
    sparse_reward,
)
from .block_push import BlockPush2D
from .l_maze import LMaze2D
from .point_reach import PointReach2D
from .tabular import TabularGCMDP, load_tabular_mdp, save_tabular_mdp, tabular_rollout

ENV_REGISTRY = {
    "point_reach": PointReach2D,
    "l_maze": LMaze2D,
    "block_push": BlockPush2D,
}


def make_env(name, **spec_overrides):
    """Instantiate a registered environment with optional spec overrides."""
    try:
        cls = ENV_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; known: {sorted(ENV_REGISTRY)}") from None
    return cls(**spec_overrides)


__all__ = [
    "GoalEnv",
    "GoalEnvSpec",
    "GoalEnvState",
    "is_success",
    "reward_value_bounds",
    "sparse_reward",
    "BlockPush2D",
    "LMaze2D",
    "PointReach2D",
    "TabularGCMDP",
    "load_tabular_mdp",
    "save_tabular_mdp",
    "tabular_rollout",
    "ENV_REGISTRY",
    "make_env",
]
