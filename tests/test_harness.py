from gchr.harness import default_config, train_seed

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
