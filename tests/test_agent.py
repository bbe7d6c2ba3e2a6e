import itertools
from dataclasses import fields

import numpy as np
import pytest

from gchr.agent import GchrAgent, GchrConfig, load_actor_from_checkpoint
from gchr.replay import HerBuffer, HerConfig, Trajectory

from oracles import DictAdamState, per_block_update


def filled_buffer(rng, n_traj=6, horizon=12):
    buf = HerBuffer(state_dim=4, action_dim=2, goal_dim=2, success_tolerance=0.05)
    for _ in range(n_traj):
        states = np.cumsum(rng.normal(scale=0.2, size=(horizon + 1, 4)), axis=0)
        traj = Trajectory(states, rng.uniform(-1, 1, (horizon, 2)),
                          states[:, :2].copy(), rng.uniform(-1, 1, 2))
        buf.store_trajectory(traj)
    return buf


def make_agent(seed=0, **cfg_kw):
    defaults = dict(hidden_sizes=(16, 16), batch_size=32, gamma=0.9)
    defaults.update(cfg_kw)
    return GchrAgent(4, 2, 2, GchrConfig(**defaults), seed=seed)


def test_update_returns_finite_metrics(rng):
    agent = make_agent()
    buf = filled_buffer(rng)
    her = HerConfig()
    for _ in range(5):
        metrics = agent.update(buf, her, rng)
    assert agent.global_step == 5
    assert set(metrics) == {"critic_loss", "actor_loss", "q_term", "hsr_loss", "hgr_loss"}
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["hgr_loss"] != 0.0  # beta default 0.2 exercises the prior term


def test_updates_are_deterministic_per_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        agent = make_agent(seed=3)
        buf = filled_buffer(np.random.default_rng(7))
        her = HerConfig()
        for _ in range(8):
            agent.update(buf, her, rng)
        return agent.nets.actor.params()

    a = run(11)
    b = run(11)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_baseline_mode_runs_without_priors(rng):
    agent = make_agent(alpha=0.0, beta=0.0)
    buf = filled_buffer(rng)
    metrics = agent.update(buf, HerConfig(relabel_ratio=0.0), rng)
    assert metrics["hsr_loss"] == 0.0 and metrics["hgr_loss"] == 0.0
    assert np.isfinite(metrics["actor_loss"])


def test_save_load_round_trip(tmp_path, rng):
    agent = make_agent()
    buf = filled_buffer(rng)
    her = HerConfig()
    for _ in range(3):
        agent.update(buf, her, rng)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    clone = make_agent(seed=99)
    clone.load(path)
    state = rng.normal(size=(5, 4))
    goal = rng.normal(size=(5, 2))
    np.testing.assert_array_equal(
        agent.nets.actor.mean_action(state, goal), clone.nets.actor.mean_action(state, goal)
    )
    for name, arr in agent.nets.target_critic.params().items():
        np.testing.assert_array_equal(arr, clone.nets.target_critic.params()[name])


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_actor_loaded_alone_is_the_saved_actor(tmp_path, rng, activation):
    agent = make_agent(activation=activation)
    agent.update(filled_buffer(rng), HerConfig(), rng)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    actor = load_actor_from_checkpoint(path, 4, 2, 2, activation=activation)
    assert actor.mlp.layer_sizes == agent.nets.actor.mlp.layer_sizes
    assert actor.mlp.activation == activation
    assert actor.mlp.theta.tobytes() == agent.nets.actor.mlp.theta.tobytes()
    # the loaded actor owns its parameters
    actor.mlp.theta[0] += 1.0
    assert load_actor_from_checkpoint(path, 4, 2, 2).mlp.theta[0] != actor.mlp.theta[0]
    with pytest.raises(ValueError, match="environment needs"):
        load_actor_from_checkpoint(path, 4, 3, 2)


def test_act_shapes_and_box(rng):
    agent = make_agent()
    greedy = agent.nets.actor.mean_action(np.zeros(4), np.zeros(2))
    sampled = agent.nets.actor.sample(np.zeros(4), np.zeros(2), rng)
    assert greedy.shape == (2,) and sampled.shape == (2,)
    assert np.all(np.abs(greedy) < 1.0) and np.all(np.abs(sampled) < 1.0)


def test_agent_nets_share_no_memory(rng):
    agent = make_agent()
    agent.update(filled_buffer(rng), HerConfig(), rng)
    arrays = [getattr(agent.nets, f.name).mlp.theta for f in fields(agent.nets)]
    for opt in (agent.critic_opt, agent.actor_opt):
        arrays += [opt.first_moment, opt.second_moment]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_flat_update_matches_per_block_reference(activation):
    kw = dict(activation=activation, alpha=0.5, beta=0.3,
              prior_source="delayed_copy", tau_delay=2)
    agent, ref = make_agent(seed=4, **kw), make_agent(seed=4, **kw)
    opts = (DictAdamState(ref.cfg.learning_rate), DictAdamState(ref.cfg.learning_rate))
    buf = filled_buffer(np.random.default_rng(7))
    her = HerConfig()
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    for _ in range(5):
        agent.update(buf, her, rng)
        per_block_update(ref, opts, buf, her, ref_rng)

    def bits(a):
        return a.view(np.int64)

    for f in fields(agent.nets):
        np.testing.assert_array_equal(bits(getattr(agent.nets, f.name).mlp.theta),
                                      bits(getattr(ref.nets, f.name).mlp.theta))
    for net, opt, ref_opt in ((agent.nets.critic, agent.critic_opt, opts[0]),
                              (agent.nets.actor, agent.actor_opt, opts[1])):
        assert opt.step_count == ref_opt.step_count == 5
        for flat, blocks in ((opt.first_moment, ref_opt.first_moment),
                             (opt.second_moment, ref_opt.second_moment)):
            want = np.concatenate([blocks[k].ravel() for k in net.params()])
            np.testing.assert_array_equal(bits(flat), bits(want))
