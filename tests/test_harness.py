import csv
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import gchr.harness.sweep as sweep

from gchr.agent import GchrAgent, GchrConfig, load_actor_from_checkpoint
from gchr.envs import make_env
from gchr.harness import (
    ConfigError,
    collect_episode,
    collect_episodes,
    default_config,
    load_config,
    run_eval,
    train_seed,
    write_config,
)
from gchr.harness.cli import main
from gchr.harness.config import _SECTIONS as config_sections
from gchr.harness.loop import exploration_actions
from gchr.harness.sweep import SWEEP_AXES, apply_axis
from gchr.nn.actor_critic import PolicyNet
from gchr.replay import HerBuffer

from oracles import per_episode_collection, per_rollout_eval

TINY_REACH = [
    "env.name=point_reach", "run.epochs=2", "run.cycles_per_epoch=2",
    "run.warmup_steps=100", "run.eval_rollouts=5", "agent.updates_per_cycle=4",
    "agent.batch_size=32", "agent.hidden_sizes=16,16",
]


def test_train_seed_is_byte_reproducible(tmp_path):
    # the full objective at its defaults: HER relabeling, HSR and HGR all run
    cfg = default_config(TINY_REACH)
    assert cfg.agent.alpha > 0 and cfg.agent.beta > 0
    for run in ("a", "b"):
        train_seed(cfg, 3, tmp_path / run)
    for name in ("metrics.csv", "checkpoint.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("name", ["point_reach", "l_maze", "block_push"])
def test_lockstep_eval_matches_per_rollout_reference(name, noise):
    env = make_env(name, action_noise_std=noise)
    # a large init spreads the mean actions over the whole box, so walls,
    # pushes and the action clip all come into play
    actor = PolicyNet(4, 2, 2, hidden_sizes=(16, 16), rng=5)
    actor.set_params({k: 4.0 * v for k, v in actor.params().items()})
    assert run_eval(actor, env, 25, 11) == per_rollout_eval(actor, env, 25, 11)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    assert run_eval(actor, env, 7, rng_a) == per_rollout_eval(actor, env, 7, rng_b)
    assert rng_a.random() == rng_b.random()  # the stream advanced the same way


def spread_agent():
    """A tiny agent whose large init spreads its actions over the whole box,
    so walls, pushes and the action clip all come into play."""
    agent = GchrAgent(4, 2, 2, GchrConfig(hidden_sizes=(16, 16)), seed=5)
    actor = agent.nets.actor
    actor.set_params({k: 4.0 * v for k, v in actor.params().items()})
    return agent


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("states", "actions", "achieved_goals", "desired_goal"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("name", ["point_reach", "l_maze", "block_push"])
def test_lockstep_collection_matches_per_episode_reference(name, noise):
    env = make_env(name, action_noise_std=noise)
    agent = spread_agent()
    runs = []
    for collect in (collect_episodes, per_episode_collection):
        explore_rng, env_rng = np.random.default_rng(8), np.random.default_rng(9)

        def explore(states, goals):
            return exploration_actions(agent, states, goals, explore_rng, 0.3, 0.2)

        runs.append((collect(env, 6, explore, env_rng), explore_rng, env_rng))
    (got, explore_a, env_a), (want, explore_b, env_b) = runs
    assert_same_trajectories(got, want)
    # both streams advanced the same way
    assert explore_a.random() == explore_b.random()
    assert env_a.random() == env_b.random()


def test_exploration_actions_follow_the_documented_draw_order():
    agent = spread_agent()
    rng = np.random.default_rng(3)
    states, goals = rng.normal(size=(9, 4)), rng.normal(size=(9, 2))
    got_rng, want_rng = np.random.default_rng(12), np.random.default_rng(12)
    got = exploration_actions(agent, states, goals, got_rng, 0.4, 0.2)
    mask = want_rng.random(9) < 0.4
    uniform = want_rng.uniform(-1.0, 1.0, (9, 2))
    sample = agent.nets.actor.sample(states, goals, want_rng)
    noisy = np.clip(sample + 0.2 * want_rng.standard_normal((9, 2)), -1.0, 1.0)
    np.testing.assert_array_equal(got, np.where(mask[:, None], uniform, noisy))
    assert 0 < mask.sum() < 9 and np.all(np.abs(got) <= 1.0)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("name", ["point_reach", "l_maze", "block_push"])
def test_single_episode_collection_matches_lockstep_collection_of_one(name, noise):
    # collect_episode keeps its own single-state body; one lockstep episode
    # must give the same trajectory and leave both streams in the same state
    env = make_env(name, action_noise_std=noise)
    explore_a, env_a = np.random.default_rng(6), np.random.default_rng(7)
    explore_b, env_b = np.random.default_rng(6), np.random.default_rng(7)
    traj, _, _ = collect_episode(env, lambda s, g: explore_a.uniform(-1.0, 1.0, 2), env_a)
    (stacked,) = collect_episodes(
        env, 1, lambda s, g: explore_b.uniform(-1.0, 1.0, (len(s), 2)), env_b
    )
    assert_same_trajectories([stacked], [traj])
    assert explore_a.random() == explore_b.random()
    assert env_a.random() == env_b.random()


def scripted_reach_action(state, goal, kp=6.0, kd=3.5):
    """Proportional-derivative controller toward the goal, for one state or
    a stack: a callable actor that reaches point_reach goals."""
    pos, vel = np.asarray(state)[..., :2], np.asarray(state)[..., 2:]
    return np.clip(kp * (np.asarray(goal) - pos) - kd * vel, -1.0, 1.0)


def test_callable_actor_scripted_controller_reaches_the_goals():
    env = make_env("point_reach")
    success, mean_return = run_eval(scripted_reach_action, env, 50, 0)
    assert success >= 0.9 and mean_return > 0
    assert (success, mean_return) == per_rollout_eval(scripted_reach_action, env, 50, 0)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("tiny") / "seed_3"
    train_seed(default_config(TINY_REACH), 3, run_dir)
    return run_dir / "checkpoint.ckpt"


def eval_argv(checkpoint, *extra):
    return ["eval", "--checkpoint", str(checkpoint), "--env", "point_reach",
            "--episodes", "20", "--seed", "2", *extra]


def test_cli_eval_prints_the_run_eval_success(tiny_checkpoint, capsys):
    assert main(eval_argv(tiny_checkpoint, "--set", "env.horizon=30")) == 0
    out = capsys.readouterr().out
    env = make_env("point_reach", horizon=30)
    actor = load_actor_from_checkpoint(tiny_checkpoint, 4, 2, 2)
    success, mean_return = run_eval(actor, env, 20, 2)
    assert f"success_rate {success:.4f} mean_return {mean_return:.4f}" in out


@pytest.mark.parametrize("extra", [
    ["--set", "env.bogus=1"],
    ["--set", "env.horizon=abc"],
    ["--set", "env.horizon"],
    ["--set", "env.horizon=0"],
    ["--set", "env.name=l_maze"],
    ["--set", "run.epochs=3"],
])
def test_cli_eval_config_errors_exit_2(tiny_checkpoint, extra, capsys):
    assert main(eval_argv(tiny_checkpoint, *extra)) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_eval_unknown_activation_is_a_usage_error(tiny_checkpoint, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(eval_argv(tiny_checkpoint, "--activation", "bogus"))
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_eval_run_failures_exit_1(tiny_checkpoint, tmp_path, capsys):
    assert main(eval_argv(tmp_path / "missing.ckpt")) == 1
    assert "run failed" in capsys.readouterr().err
    argv = eval_argv(tiny_checkpoint)
    argv[argv.index("--episodes") + 1] = "0"
    assert main(argv) == 1
    assert "at least one rollout" in capsys.readouterr().err


def test_train_set_overrides_share_the_eval_parser(tmp_path):
    cfg = default_config(["env.name=l_maze", "env.horizon=7", "run.epochs=2"])
    assert (cfg.env, cfg.epochs) == ({"name": "l_maze", "horizon": 7}, 2)
    path = tmp_path / "exp.ini"
    write_config(cfg, path)
    again = load_config(path, ["env.horizon=9", "agent.hidden_sizes=8 8"])
    assert (again.env, again.agent.hidden_sizes) == ({"name": "l_maze", "horizon": 9}, (8, 8))
    for bad in (["env.horizon"], ["horizon=3"], ["env.bogus=1"], ["env.horizon=x"]):
        with pytest.raises(ConfigError):
            default_config(bad)


# one non-default value for every INI key
EVERY_KEY = {
    "env": {"name": "block_push", "horizon": "7", "success_tolerance": "0.07",
            "reward_convention": "neg_one_zero", "action_noise_std": "0.05"},
    "her": {"strategy": "final", "relabel_ratio": "0.6"},
    "agent": {"alpha": "0.5", "beta": "0.3", "gamma": "0.95", "polyak": "0.9",
              "batch_size": "64", "updates_per_cycle": "3",
              "hindsight_goal_fraction": "0.5", "prior_source": "delayed_copy",
              "tau_delay": "7", "entropy_coeff": "0.01", "prior_mc_samples": "2",
              "learning_rate": "0.0005", "hidden_sizes": "8 8 8", "activation": "tanh"},
    "run": {"seeds": "3 4", "epochs": "2", "cycles_per_epoch": "4",
            "episodes_per_cycle": "3", "eval_rollouts": "7", "warmup_steps": "10",
            "random_action_prob": "0.1", "exploration_noise": "0.3",
            "output_dir": "out/x", "dump_trajectories": "true"},
}


def config_value(cfg, section, key):
    if section == "env":
        return cfg.env.get(key)
    if section in ("her", "agent"):
        return getattr(getattr(cfg, section), key)
    return getattr(cfg, key)


def test_every_config_key_survives_write_and_load(tmp_path):
    assert {s: set(keys) for s, keys in EVERY_KEY.items()} == {
        s: set(keys) for s, keys in config_sections.items()}
    overrides = [f"{s}.{k}={v}" for s, keys in EVERY_KEY.items() for k, v in keys.items()]
    cfg = default_config(overrides)
    defaults = default_config()
    for section, keys in EVERY_KEY.items():
        for key in keys:
            assert config_value(cfg, section, key) != config_value(defaults, section, key), key
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    assert load_config(path) == cfg
    text = path.read_text()
    assert "hindsight_goal_fraction = 0.5" in text.split("[agent]")[1].split("[run]")[0]


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, overrides", [
    ("default_config.ini", []),
    ("every_key_config.ini",
     [f"{s}.{k}={v}" for s, keys in EVERY_KEY.items() for k, v in keys.items()]),
])
def test_write_config_text_is_the_golden_file(tmp_path, name, overrides):
    path = tmp_path / "config.ini"
    write_config(default_config(overrides), path)
    assert path.read_text() == (GOLDEN / name).read_text()


def test_env_keys_are_written_in_schema_order(tmp_path):
    path = tmp_path / "config.ini"
    write_config(default_config(["env.action_noise_std=0.1", "env.horizon=9"]), path)
    env_section = path.read_text().split("[her]")[0]
    assert env_section == "[env]\nname = point_reach\nhorizon = 9\naction_noise_std = 0.1\n\n"


@pytest.mark.parametrize("axis", list(SWEEP_AXES))
def test_sweep_axis_cell_config_is_the_set_item(axis):
    base = default_config(TINY_REACH)
    for value in (0.25, 0.5):
        key = SWEEP_AXES[axis]
        assert apply_axis(base, axis, value) == default_config(TINY_REACH + [f"{key}={value}"])


def test_agent_hindsight_goals_is_an_unknown_key(tmp_path, capsys):
    # a config.ini written before K had one knob holds `hindsight_goals = none`
    path = tmp_path / "old.ini"
    path.write_text("[agent]\nhindsight_goals = none\n")
    assert main(["train", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
    assert "unknown key 'hindsight_goals' in section [agent]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


ROOT = Path(__file__).resolve().parent.parent


def benchmark_override_lists(monkeypatch):
    """Every override list the benchmark and the output digests train with.
    tools/output_digests.py pins the BLAS threads and extends sys.path on
    import; monkeypatch restores both afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return {**digests.TRAIN_OVERRIDES, **digests.CONFIGS}


def test_benchmark_and_digest_configs_load_and_round_trip(tmp_path, monkeypatch):
    lists = benchmark_override_lists(monkeypatch)
    assert {"reach_hgr", "push_collect", "l_maze_tanh_delayed"} <= set(lists)
    for name, overrides in lists.items():
        cfg = default_config(overrides)
        path = tmp_path / f"{name}.ini"
        write_config(cfg, path)
        assert load_config(path) == cfg, name


def test_her_hindsight_goal_fraction_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "old.ini"
    path.write_text("[her]\nhindsight_goal_fraction = 0.5\n")
    assert main(["train", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
    assert "unknown key 'hindsight_goal_fraction' in section [her]" in capsys.readouterr().err
    assert main(["train", "--set", "her.hindsight_goal_fraction=0.5",
                 "--output", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


ONE_CYCLE = TINY_REACH + ["run.seeds=1", "run.epochs=1", "run.cycles_per_epoch=1"]


def train_argv(run_dir, items):
    argv = ["train", "--output", str(run_dir)]
    for item in items:
        argv += ["--set", item]
    return argv


def test_cli_train_succeeds_with_exit_0(tmp_path, capsys):
    assert main(train_argv(tmp_path / "run", ONE_CYCLE)) == 0
    assert "seed 1: final success" in capsys.readouterr().out
    assert (tmp_path / "run" / "seed_1" / "checkpoint.ckpt").exists()


BAD_VALUES = [
    ["agent.prior_source=delayed_copy", "agent.tau_delay=0"],
    ["agent.hidden_sizes=0"],
    ["agent.hidden_sizes=16 0"],
    ["agent.activation=bogus"],
    ["agent.learning_rate=-1"],
    ["agent.learning_rate=0"],
    ["agent.entropy_coeff=-0.1"],
    ["run.random_action_prob=1.5"],
    ["run.random_action_prob=-0.1"],
    ["run.exploration_noise=-0.1"],
    ["env.horizon=0"],
    ["env.action_noise_std=-1"],
    ["env.success_tolerance=-1"],
]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda items: items[-1])
def test_cli_train_rejects_bad_values_before_the_run_with_exit_2(tmp_path, capsys, bad):
    assert main(train_argv(tmp_path / "run", ONE_CYCLE + bad)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_sweep_builds_every_cell_before_any_runs(tmp_path, monkeypatch, capsys):
    trained = []
    monkeypatch.setattr(sweep, "run_training", lambda cfg, run_dir: trained.append(run_dir))
    argv = ["sweep", "--axis", "beta", "--values", "0.1,-1", "--output", str(tmp_path / "sw")]
    assert main(argv) == 2
    assert "sweep beta: alpha and beta must be non-negative" in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "sw").exists()


def test_cli_sweep_rejects_a_bad_env_value_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    trained = []
    monkeypatch.setattr(sweep, "run_training", lambda cfg, run_dir: trained.append(run_dir))
    argv = ["sweep", "--axis", "action_noise", "--values", "0.1,-1",
            "--output", str(tmp_path / "sw")]
    assert main(argv) == 2
    assert "action_noise_std must be non-negative" in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "sw").exists()


def test_cli_train_run_failure_exits_1(tmp_path, monkeypatch, capsys):
    nan_losses = dict.fromkeys(("critic_loss", "actor_loss", "q_term", "hsr_loss", "hgr_loss"),
                               float("nan"))
    monkeypatch.setattr(GchrAgent, "update", lambda self, buffer, her, rng: nan_losses)
    assert main(train_argv(tmp_path / "run", ONE_CYCLE)) == 1
    assert "run failed: seed 1: non-finite loss" in capsys.readouterr().err
    assert (tmp_path / "run" / "seed_1" / "FAILED").exists()


def test_cli_dump_goals_writes_each_stored_episode_terminal_goal(tmp_path, monkeypatch):
    stored = []
    store = HerBuffer.store_trajectory

    def recording(self, trajectory):
        stored.append(trajectory)
        return store(self, trajectory)

    monkeypatch.setattr(HerBuffer, "store_trajectory", recording)
    items = ONE_CYCLE + ["run.seeds=1 2", "run.dump_trajectories=true"]
    assert main(train_argv(tmp_path / "run", items)) == 0
    cfg = default_config(items)
    horizon = cfg.build_env().spec.horizon
    per_seed = (-(-cfg.warmup_steps // horizon)
                + cfg.epochs * cfg.cycles_per_epoch * cfg.episodes_per_cycle)
    assert len(stored) == 2 * per_seed  # the seeds train one after the other

    assert main(["dump-goals", "--run-dir", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "terminal_goals.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["seed", "episode", "achieved_0", "achieved_1", "desired_0", "desired_1"]
    assert len(rows) == len(stored)
    for i, (row, trajectory) in enumerate(zip(rows, stored)):
        assert row[:2] == [str(1 + i // per_seed), str(i % per_seed)]
        values = [float(v) for v in row[2:]]
        assert values == [*trajectory.achieved_goals[-1], *trajectory.desired_goal]


def test_k_fraction_sweep_cell_sets_the_agent_key(tmp_path):
    tiny = TINY_REACH + ["run.seeds=1", "run.epochs=1"]
    argv = ["sweep", "--axis", "K_fraction", "--values", "0.5", "--output", str(tmp_path / "sw")]
    for item in tiny:
        argv += ["--set", item]
    assert main(argv) == 0
    cell = tmp_path / "sw" / "K_fraction_0.5"
    assert load_config(cell / "config.ini").agent.hindsight_goal_fraction == 0.5
    # the cell trained exactly as a run with the agent key set directly
    train_seed(default_config(tiny + ["agent.hindsight_goal_fraction=0.5"]), 1, tmp_path / "ref")
    assert ((cell / "seed_1" / "metrics.csv").read_bytes()
            == (tmp_path / "ref" / "metrics.csv").read_bytes())


CHAIN3 = Path(__file__).resolve().parent.parent / "assets" / "chain3.mdp"


def test_cli_tabular_verify_passes_and_writes_the_csv(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    assert main(["tabular-verify", "--mdp", str(CHAIN3), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("check,passed,margin") and len(rows) == 11
    assert all(row.split(",")[1] == "1" for row in rows[1:])


def test_cli_tabular_verify_bad_files_exit_1(tmp_path, capsys):
    malformed = tmp_path / "bad.mdp"
    malformed.write_text("n_states 3\nn_actions 2\ngamma 0.5\nphi 0 1\n")
    assert main(["tabular-verify", "--mdp", str(malformed)]) == 1
    assert "phi lists 2 entries" in capsys.readouterr().err
    assert main(["tabular-verify", "--mdp", str(tmp_path / "missing.mdp")]) == 1
    assert "run failed" in capsys.readouterr().err
    # a goal id past the state count would size the lab's tables by it
    far_goal = tmp_path / "far_goal.mdp"
    far_goal.write_text("n_states 1\nn_actions 1\ngamma 0.5\nphi 5\nP 0 0 1.0\n")
    assert main(["tabular-verify", "--mdp", str(far_goal)]) == 1
    assert "goal ids must lie in [0, 1)" in capsys.readouterr().err


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_cli_tabular_verify_passes_chain3_near_gamma_one(tmp_path, capsys):
    """chain3 at gamma = 0.9999 passes every row at its usual tolerance.

    Skipped where np.longdouble is plain float64: the evaluation route's
    residual correction then rounds like the route itself, and its error of
    order eps / (1 - gamma)^2 exceeds the identity row's 1e-9 there.
    """
    text = CHAIN3.read_text()
    assert "\ngamma 0.5\n" in text
    mdp_file = tmp_path / "chain3.mdp"
    mdp_file.write_text(text.replace("\ngamma 0.5\n", "\ngamma 0.9999\n"))
    assert main(["tabular-verify", "--mdp", str(mdp_file)]) == 0
    assert "10/10 checks passed" in capsys.readouterr().out
