"""Experiment configuration: INI files with strict key checking.

One schema, derived from the dataclasses that own the knobs, so each knob
is declared once, as a field:

    [env]    name plus the GoalEnvSpec fields other than the three dims
    [her]    the HerConfig fields: relabeling strategy and ratio
    [agent]  the GchrConfig fields: every learning-core knob
    [run]    the remaining ExperimentConfig fields: seeds, schedule,
             evaluation and output settings

Each key is parsed by the parser of its field's annotation. A config
travels as one {section: {key: value}} form: an INI file and --set
section.key=value items are applied to it through the same typed parser,
and write_config writes it back out. Unknown sections or keys are rejected
(exit code 2 at the CLI).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from ..agent import GchrConfig
from ..envs import GoalEnvSpec, make_env
from ..replay import HerConfig


class ConfigError(ValueError):
    """Invalid configuration file, key or value."""


@dataclass
class ExperimentConfig:
    # [env]: the environment name plus the GoalEnvSpec overrides that are set
    env: dict = field(default_factory=lambda: {"name": "point_reach"})
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
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ConfigError("seeds must be a non-empty list of distinct integers")
        for name in ("epochs", "cycles_per_epoch", "episodes_per_cycle", "eval_rollouts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if not 0.0 <= self.random_action_prob <= 1.0:
            raise ConfigError("random_action_prob must lie in [0, 1]")
        if self.exploration_noise < 0.0:
            raise ConfigError("exploration_noise must be >= 0")
        try:
            self.build_env()  # the name and spec checks training runs
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[env] {exc}") from exc

    def build_env(self):
        return make_env(**self.env)

    def resolved_agent_config(self, env):
        """The agent config; the environment adds nothing to it."""
        return self.agent


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text):
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _parse_int_list(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool, "tuple": _parse_int_list}


def _keys(owner, skip=()):
    """{field name: parser} for the fields of a dataclass, in field order."""
    keys = {}
    for f in fields(owner):
        if f.name in skip:
            continue
        if f.type not in _PARSERS:
            raise TypeError(f"{owner.__name__}.{f.name}: no INI parser for {f.type!r}")
        keys[f.name] = _PARSERS[f.type]
    return keys


_SECTIONS = {
    "env": {"name": str, **_keys(GoalEnvSpec, skip=("state_dim", "action_dim", "goal_dim"))},
    "her": _keys(HerConfig),
    "agent": _keys(GchrConfig),
    "run": _keys(ExperimentConfig, skip=("env", "her", "agent")),
}


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


def config_sections(cfg):
    """The {section: {key: value}} form of a config, in schema order. [env]
    holds the name and the overrides that are set; every other section
    holds all of its keys."""
    form = {"env": {key: cfg.env[key] for key in _SECTIONS["env"] if key in cfg.env}}
    for section, owner in (("her", cfg.her), ("agent", cfg.agent), ("run", cfg)):
        form[section] = {key: getattr(owner, key) for key in _SECTIONS[section]}
    return form


def _assemble(form):
    try:
        return ExperimentConfig(env=form["env"], her=HerConfig(**form["her"]),
                                agent=GchrConfig(**form["agent"]), **form["run"])
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_overrides(overrides, form):
    """Apply --set style `section.key=value` items, each through the typed
    parser, onto a {section: {key: value}} form; returns the form."""
    for item in overrides:
        target, eq, raw = item.partition("=")
        section, dot, key = target.partition(".")
        if not eq or not dot:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = section.strip(), key.strip()
        value = _typed(section, key, raw.strip())
        form[section][key] = value
    return form


def apply_overrides(cfg, overrides):
    """A new ExperimentConfig: cfg with --set style items applied."""
    return _assemble(parse_overrides(overrides, config_sections(cfg)))


def parse_env_overrides(overrides):
    """GoalEnvSpec overrides from `env.key=value` items, as `gchr eval` takes
    them; the environment name comes from --env, never from an override."""
    form = parse_overrides(overrides, {section: {} for section in _SECTIONS})
    if any(values for section, values in form.items() if section != "env"):
        raise ConfigError("eval only accepts env.* overrides")
    if "name" in form["env"]:
        raise ConfigError("env.name cannot be overridden; --env names the environment")
    return form["env"]


def load_config(path, overrides=()):
    """Parse an INI experiment file, then apply --set style overrides."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    form = config_sections(ExperimentConfig())
    for section in parser.sections():
        for key, raw in parser.items(section):
            value = _typed(section, key, raw)
            form[section][key] = value
    return _assemble(parse_overrides(overrides, form))


def default_config(overrides=()):
    return apply_overrides(ExperimentConfig(), overrides)


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_config(cfg, path):
    """Write the fully-resolved configuration back out as INI."""
    parser = configparser.ConfigParser()
    for section, values in config_sections(cfg).items():
        parser[section] = {key: _format(value) for key, value in values.items()}
    with open(path, "w") as fh:
        parser.write(fh)
