import functools
from pathlib import Path

import numpy as np
import pytest

import gchr.tabular_lab.report as tabular_report

from gchr.agent import load_actor_from_checkpoint
from gchr.envs import make_env, scripted_reach_action
from gchr.harness import (
    ConfigError,
    default_config,
    load_config,
    run_eval,
    train_seed,
    write_config,
)
from gchr.harness.cli import main
from gchr.harness.config import _SECTIONS as config_sections
from gchr.nn.actor_critic import PolicyNet
from gchr.tabular_lab import policy_evaluation_iterative

from oracles import per_rollout_eval

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


def test_cli_eval_run_failures_exit_1(tiny_checkpoint, tmp_path, capsys):
    assert main(eval_argv(tmp_path / "missing.ckpt")) == 1
    assert "run failed" in capsys.readouterr().err
    argv = eval_argv(tiny_checkpoint)
    argv[argv.index("--episodes") + 1] = "0"
    assert main(argv) == 1
    assert "at least one rollout" in capsys.readouterr().err


def test_train_set_overrides_share_the_eval_parser(tmp_path):
    cfg = default_config(["env.name=l_maze", "env.horizon=7", "run.epochs=2"])
    assert (cfg.env_name, cfg.horizon, cfg.epochs) == ("l_maze", 7, 2)
    path = tmp_path / "exp.ini"
    write_config(cfg, path)
    again = load_config(path, ["env.horizon=9", "agent.hidden_sizes=8 8"])
    assert (again.env_name, again.horizon, again.agent.hidden_sizes) == ("l_maze", 9, (8, 8))
    for bad in (["env.horizon"], ["horizon=3"], ["env.bogus=1"], ["env.horizon=x"]):
        with pytest.raises(ConfigError):
            default_config(bad)


# one non-default value for every INI key
EVERY_KEY = {
    "env": {"name": "block_push", "horizon": "7", "success_tolerance": "0.07",
            "reward_convention": "neg_one_zero", "action_noise_std": "0.05"},
    "her": {"strategy": "final", "relabel_ratio": "0.6"},
    "agent": {"alpha": "0.5", "beta": "0.3", "gamma": "0.95", "polyak": "0.9",
              "batch_size": "64", "updates_per_cycle": "3", "hindsight_goals": "5",
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
        return cfg.env_name if key == "name" else getattr(cfg, key)
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


def test_her_hindsight_goal_fraction_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "old.ini"
    path.write_text("[her]\nhindsight_goal_fraction = 0.5\n")
    assert main(["train", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
    assert "unknown key 'hindsight_goal_fraction' in section [her]" in capsys.readouterr().err
    assert main(["train", "--set", "her.hindsight_goal_fraction=0.5",
                 "--output", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


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


def test_cli_tabular_verify_reports_non_convergence_and_exits_1(monkeypatch, capsys):
    # chain3 needs 41 sweeps at gamma = 0.5; a cap of 5 stops every goal early
    monkeypatch.setattr(tabular_report, "policy_evaluation_iterative",
                        functools.partial(policy_evaluation_iterative, max_iters=5))
    assert main(["tabular-verify", "--mdp", str(CHAIN3)]) == 1
    captured = capsys.readouterr()
    line = next(row for row in captured.out.splitlines()
                if "q_equals_p_over_one_minus_gamma" in row)
    assert line.startswith("FAIL") and "margin=inf" in line
    assert "did not converge: policy 0 goals [0, 1, 2]" in line
    assert "9/10 checks passed" in captured.out
    assert "Traceback" not in captured.err
