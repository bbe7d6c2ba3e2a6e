"""Experiment configuration: INI files with strict key checking.

Four sections mirror the moving parts:

    [env]    name plus GoalEnvSpec overrides
    [her]    relabeling strategy and ratio
    [agent]  every learning-core knob, the hindsight goal count K included
    [run]    seeds, schedule, evaluation and output settings

Unknown sections or keys are rejected (exit code 2 at the CLI). Values set
on the command line with --set section.key=value go through the same typed
parser.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from ..agent import GchrConfig
from ..envs import ENV_REGISTRY, make_env
from ..replay import HerConfig


class ConfigError(ValueError):
    """Invalid configuration file, key or value."""


@dataclass
class ExperimentConfig:
    env_name: str = "point_reach"
    horizon: int | None = None
    success_tolerance: float | None = None
    reward_convention: str | None = None
    action_noise_std: float | None = None
    her: HerConfig = field(default_factory=HerConfig)
    agent: GchrConfig = field(default_factory=GchrConfig)
    seeds: tuple = (1, 2, 3, 4, 5)
    epochs: int = 50
    cycles_per_epoch: int = 50
    episodes_per_cycle: int = 2
    eval_rollouts: int = 100
    warmup_steps: int = 5000
    random_action_prob: float = 0.3
    exploration_noise: float = 0.2
    output_dir: str = "run"
    dump_trajectories: bool = False

    def __post_init__(self):
        if self.env_name not in ENV_REGISTRY:
            raise ConfigError(f"unknown environment {self.env_name!r}")
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ConfigError("seeds must be a non-empty list of distinct integers")
        for name in ("epochs", "cycles_per_epoch", "episodes_per_cycle", "eval_rollouts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")

    def env_overrides(self):
        out = {}
        for key in ("horizon", "success_tolerance", "reward_convention", "action_noise_std"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def build_env(self):
        return make_env(self.env_name, **self.env_overrides())

    def resolved_agent_config(self, env):
        """Agent config with the env-coupled reward convention filled in."""
        return replace(self.agent, reward_convention=env.spec.reward_convention)


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text):
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _parse_int_list(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_optional_int(text):
    text = text.strip().lower()
    return None if text in ("none", "") else int(text)


_ENV_KEYS = {
    "name": str,
    "horizon": int,
    "success_tolerance": float,
    "reward_convention": str,
    "action_noise_std": float,
}
_HER_KEYS = {
    "strategy": str,
    "relabel_ratio": float,
}
_AGENT_KEYS = {
    "alpha": float,
    "beta": float,
    "gamma": float,
    "polyak": float,
    "batch_size": int,
    "updates_per_cycle": int,
    "hindsight_goals": _parse_optional_int,
    "hindsight_goal_fraction": float,
    "prior_source": str,
    "tau_delay": int,
    "entropy_coeff": float,
    "prior_mc_samples": int,
    "learning_rate": float,
    "hidden_sizes": _parse_int_list,
    "activation": str,
}
_RUN_KEYS = {
    "seeds": _parse_int_list,
    "epochs": int,
    "cycles_per_epoch": int,
    "episodes_per_cycle": int,
    "eval_rollouts": int,
    "warmup_steps": int,
    "random_action_prob": float,
    "exploration_noise": float,
    "output_dir": str,
    "dump_trajectories": _parse_bool,
}
_SECTIONS = {"env": _ENV_KEYS, "her": _HER_KEYS, "agent": _AGENT_KEYS, "run": _RUN_KEYS}


def _typed(section, key, raw):
    keys = _SECTIONS.get(section)
    if keys is None:
        raise ConfigError(f"unknown section [{section}]")
    parser = keys.get(key)
    if parser is None:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        return parser(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _assemble(values):
    env = values.get("env", {})
    her = values.get("her", {})
    agent = values.get("agent", {})
    run = values.get("run", {})
    try:
        her_cfg = HerConfig(**her)
        agent_cfg = GchrConfig(**agent)
        kwargs = dict(run)
        if "name" in env:
            kwargs["env_name"] = env.pop("name")
        kwargs.update(env)
        return ExperimentConfig(her=her_cfg, agent=agent_cfg, **kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def parse_overrides(overrides, values=None):
    """Apply --set style `section.key=value` items, each through the typed
    parser, onto a {section: {key: value}} dict (a new one by default)."""
    values = {} if values is None else values
    for item in overrides:
        target, eq, raw = item.partition("=")
        section, dot, key = target.partition(".")
        if not eq or not dot:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = section.strip(), key.strip()
        values.setdefault(section, {})[key] = _typed(section, key, raw.strip())
    return values


def parse_env_overrides(overrides):
    """GoalEnvSpec overrides from `env.key=value` items, as `gchr eval` takes
    them; the environment name comes from --env, never from an override."""
    values = parse_overrides(overrides)
    if set(values) - {"env"}:
        raise ConfigError("eval only accepts env.* overrides")
    env = values.get("env", {})
    if "name" in env:
        raise ConfigError("env.name cannot be overridden; --env names the environment")
    return env


def load_config(path, overrides=()):
    """Parse an INI experiment file, then apply --set style overrides."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            values.setdefault(section, {})[key] = _typed(section, key, raw)
    return _assemble(parse_overrides(overrides, values))


def default_config(overrides=()):
    return _assemble(parse_overrides(overrides))


def write_config(cfg, path):
    """Write the fully-resolved configuration back out as INI."""
    parser = configparser.ConfigParser()
    parser["env"] = {"name": cfg.env_name}
    for key in ("horizon", "success_tolerance", "reward_convention", "action_noise_std"):
        value = getattr(cfg, key)
        if value is not None:
            parser["env"][key] = str(value)
    parser["her"] = {
        "strategy": cfg.her.strategy,
        "relabel_ratio": repr(cfg.her.relabel_ratio),
    }
    agent = {}
    for f in fields(GchrConfig):
        if f.name == "reward_convention":
            continue  # derived from [env]
        value = getattr(cfg.agent, f.name)
        if f.name == "hidden_sizes":
            agent[f.name] = " ".join(str(v) for v in value)
        elif value is None:
            agent[f.name] = "none"
        else:
            agent[f.name] = repr(value) if isinstance(value, float) else str(value)
    parser["agent"] = agent
    parser["run"] = {
        "seeds": " ".join(str(s) for s in cfg.seeds),
        "epochs": str(cfg.epochs),
        "cycles_per_epoch": str(cfg.cycles_per_epoch),
        "episodes_per_cycle": str(cfg.episodes_per_cycle),
        "eval_rollouts": str(cfg.eval_rollouts),
        "warmup_steps": str(cfg.warmup_steps),
        "random_action_prob": repr(cfg.random_action_prob),
        "exploration_noise": repr(cfg.exploration_noise),
        "output_dir": cfg.output_dir,
        "dump_trajectories": str(cfg.dump_trajectories).lower(),
    }
    with open(path, "w") as fh:
        parser.write(fh)
