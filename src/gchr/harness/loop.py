"""Training and evaluation loops: seeded, reproducible, CSV-logged.

Per seed the loop runs warmup (uniform random episodes), then
epochs x cycles of {collect episodes with exploration, do gradient
updates}, then a greedy evaluation after every epoch. All randomness comes
from named child streams of the seed, so a (config, seed) pair reproduces
its metrics file byte for byte; wall-clock timings go to a separate file
for that reason.

Collection is lockstep: the warm-up episodes, and each cycle's episodes,
are reset as one stack and then stepped together, one action call and one
env.step per timestep on the stacked states (collect_episodes).

Exploration follows the sparse-goal-reaching convention: with a fixed
probability the action is uniform in the box, otherwise it is a policy
sample plus Gaussian noise, clipped. Draw order, which fixes every run's
output: per timestep of n stacked episodes, explore_rng gives random(n)
for the random-action mask, then uniform(-1, 1, (n, action_dim)), then
one policy sample on all n rows, then standard_normal((n, action_dim))
for the exploration noise (only when the noise scale is positive); the
warm-up draws only uniform(-1, 1, (n, action_dim)). env_rng gives the n
resets, as one (n, k) uniform draw that consumes it exactly as n resets in
episode order would, then each step's action-noise draw in the env.

The networks are too small to gain from multithreaded BLAS, which only
adds overhead. Nothing here limits BLAS threads: set
OPENBLAS_NUM_THREADS=1 (and OMP_NUM_THREADS / MKL_NUM_THREADS for other
BLAS builds) before numpy is imported, as perfbench/run.py does.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np

from ..agent import GchrAgent
from ..envs.base import is_success
from ..replay import HerBuffer, Trajectory, dump_trajectories_csv

_METRIC_FIELDS = ("critic_loss", "actor_loss", "q_term", "hsr_loss", "hgr_loss")


class RunFailure(RuntimeError):
    """A training run aborted (non-finite loss)."""


def exploration_actions(agent, states, goals, rng, random_action_prob, noise_scale):
    """Exploration actions for a stack of (state, goal) rows, one row each.

    Every row draws its mask entry and uniform action, and every row gets a
    policy sample, whether or not the mask keeps it, so the draws per call
    depend only on the stack's size (see the module docstring for their
    order).
    """
    shape = (len(states), agent.action_dim)
    random_rows = rng.random(shape[0]) < random_action_prob
    uniform = rng.uniform(-1.0, 1.0, size=shape)
    actions = agent.nets.actor.sample(states, goals, rng)
    if noise_scale > 0:
        actions = actions + noise_scale * rng.standard_normal(shape)
    return np.where(random_rows[:, None], uniform, np.clip(actions, -1.0, 1.0))


def collect_episode(env, action_fn, env_rng):
    """Roll one full episode alone; returns (Trajectory, return, final-state
    success). Training collects through collect_episodes, which gives the
    same trajectory for n = 1."""
    es = env.reset(env_rng)
    states = [es.state]
    achieved = [es.achieved_goal]
    actions = []
    total = 0.0
    done = False
    while not done:
        action = action_fn(es.state, es.desired_goal)
        es, reward, done = env.step(es, action, env_rng)
        states.append(es.state)
        achieved.append(es.achieved_goal)
        actions.append(action)
        total += reward
    success = is_success(es.achieved_goal, es.desired_goal, env.spec.success_tolerance)
    return (
        Trajectory(np.array(states), np.array(actions), np.array(achieved), es.desired_goal),
        total,
        success,
    )


def collect_episodes(env, n, action_fn, env_rng):
    """Roll n full episodes in lockstep; returns their Trajectory list in
    episode order.

    The n episodes are reset as one stack from env_rng; each timestep then
    makes one action_fn(states (n, state_dim), goals (n, goal_dim)) ->
    (n, action_dim) call and one env.step on the stack.
    Each trajectory equals the one its episode gives when stepped alone
    with the same actions and the same env_rng draws.
    """
    if n < 1:
        raise ValueError("collection needs at least one episode")
    spec = env.spec
    es = env.reset(env_rng, n)
    states = np.empty((n, spec.horizon + 1, spec.state_dim))
    achieved = np.empty((n, spec.horizon + 1, spec.goal_dim))
    actions = np.empty((n, spec.horizon, spec.action_dim))
    states[:, 0] = es.state
    achieved[:, 0] = es.achieved_goal
    for t in range(spec.horizon):
        action = action_fn(es.state, es.desired_goal)
        es, _, _ = env.step(es, action, env_rng)
        actions[:, t] = action
        states[:, t + 1] = es.state
        achieved[:, t + 1] = es.achieved_goal
    return [Trajectory(states[i], actions[i], achieved[i], es.desired_goal[i]) for i in range(n)]


def run_eval(actor, env, n, seed_or_rng):
    """Mean-action evaluation over n fresh-goal episodes.

    Returns (success_rate, mean_return); success is the final state lying
    within tolerance. The n episodes are reset as one stack, then stepped in
    lockstep: one env.step per timestep on the stacked states. `actor`
    either exposes mean_action(states, goals) or is itself a callable
    (states, goals) -> actions; either is called once per timestep on the
    whole stack.
    """
    if n < 1:
        raise ValueError("evaluation needs at least one rollout")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    es = env.reset(rng, n)
    returns = np.zeros(n)
    act = getattr(actor, "mean_action", actor)
    for _ in range(env.spec.horizon):
        es, rewards, _ = env.step(es, act(es.state, es.desired_goal), rng)
        returns += rewards
    successes = is_success(es.achieved_goal, es.desired_goal, env.spec.success_tolerance)
    return float(np.mean(successes)), float(returns.mean())


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value):
    return repr(float(value))


def train_seed(cfg, seed, seed_dir):
    """One training run; writes metrics.csv / timing.csv / checkpoints.

    Returns the per-epoch metric rows. Raises RunFailure on a non-finite
    loss, leaving the last epoch's checkpoint in place.
    """
    seed_dir = Path(seed_dir)
    seed_dir.mkdir(parents=True, exist_ok=True)
    env = cfg.build_env()
    spec = env.spec
    agent = GchrAgent(spec.state_dim, spec.goal_dim, spec.action_dim, cfg.agent, seed=seed)
    buffer = HerBuffer(
        spec.state_dim, spec.action_dim, spec.goal_dim, spec.success_tolerance,
        reward_convention=spec.reward_convention,
    )
    streams = np.random.SeedSequence(seed).spawn(4)
    env_rng, explore_rng, update_rng, eval_rng = (np.random.default_rng(s) for s in streams)

    collected = []

    def store(trajectory):
        buffer.store_trajectory(trajectory)
        if cfg.dump_trajectories:
            collected.append(trajectory)

    # warmup: uniform random action episodes before any gradient update
    warmup_episodes = -(-cfg.warmup_steps // spec.horizon)
    if warmup_episodes:
        for traj in collect_episodes(
            env, warmup_episodes,
            lambda s, g: explore_rng.uniform(-1.0, 1.0, (len(s), spec.action_dim)), env_rng,
        ):
            store(traj)

    def explore(states, goals):
        return exploration_actions(agent, states, goals, explore_rng,
                                   cfg.random_action_prob, cfg.exploration_noise)

    checkpoint = seed_dir / "checkpoint.ckpt"
    metric_rows = []
    timing_rows = []
    try:
        for epoch in range(cfg.epochs):
            tick = time.perf_counter()
            sums = dict.fromkeys(_METRIC_FIELDS, 0.0)
            n_updates = 0
            for _ in range(cfg.cycles_per_epoch):
                for traj in collect_episodes(env, cfg.episodes_per_cycle, explore, env_rng):
                    store(traj)
                for _ in range(cfg.agent.updates_per_cycle):
                    metrics = agent.update(buffer, cfg.her, update_rng)
                    if not all(np.isfinite(v) for v in metrics.values()):
                        raise FloatingPointError("non-finite loss")
                    for name in _METRIC_FIELDS:
                        sums[name] += metrics[name]
                    n_updates += 1
            success, mean_return = run_eval(agent.nets.actor, env, cfg.eval_rollouts, eval_rng)
            row = [epoch, seed, _fmt(success), _fmt(mean_return)]
            row += [_fmt(sums[name] / max(1, n_updates)) for name in _METRIC_FIELDS]
            metric_rows.append(row)
            timing_rows.append([epoch, seed, f"{time.perf_counter() - tick:.3f}"])
            agent.save(checkpoint)
    except FloatingPointError as exc:
        (seed_dir / "FAILED").write_text(f"{exc}\n")
        _flush_seed_files(seed_dir, metric_rows, timing_rows, collected, cfg)
        raise RunFailure(f"seed {seed}: {exc}; last-good checkpoint at {checkpoint}") from exc

    _flush_seed_files(seed_dir, metric_rows, timing_rows, collected, cfg)
    return metric_rows


_METRICS_HEADER = ["epoch", "seed", "success_rate", "mean_return", *_METRIC_FIELDS]


def _flush_seed_files(seed_dir, metric_rows, timing_rows, collected, cfg):
    _write_rows(seed_dir / "metrics.csv", _METRICS_HEADER, metric_rows)
    _write_rows(seed_dir / "timing.csv", ["epoch", "seed", "wall_seconds"], timing_rows)
    if cfg.dump_trajectories and collected:
        dump_trajectories_csv(collected, seed_dir / "trajectories.csv")


def run_training(cfg, run_dir):
    """Full multi-seed run; returns the run directory.

    Layout: <run_dir>/config.ini, <run_dir>/seed_<s>/{metrics,timing}.csv
    plus checkpoints, and <run_dir>/aggregate.csv with per-epoch
    cross-seed statistics.
    """
    from .config import write_config

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg, run_dir / "config.ini")
    all_rows = {}
    for seed in cfg.seeds:
        all_rows[seed] = train_seed(cfg, seed, run_dir / f"seed_{seed}")
    _write_aggregate(run_dir, cfg, all_rows)
    return run_dir


def _write_aggregate(run_dir, cfg, all_rows):
    rows = []
    for epoch in range(cfg.epochs):
        successes = [float(all_rows[s][epoch][2]) for s in cfg.seeds]
        returns = [float(all_rows[s][epoch][3]) for s in cfg.seeds]
        rows.append([
            epoch,
            _fmt(np.mean(successes)),
            _fmt(np.std(successes)),
            _fmt(np.median(successes)),
            _fmt(np.mean(returns)),
        ])
    _write_rows(
        run_dir / "aggregate.csv",
        ["epoch", "success_mean", "success_std", "success_median", "return_mean"],
        rows,
    )


def read_metrics(path):
    """metrics.csv rows as a list of dicts with floats."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {k: (int(v) if k in ("epoch", "seed") else float(v)) for k, v in row.items()}
            for row in reader
        ]


def final_success_per_seed(run_dir, seeds):
    out = {}
    for seed in seeds:
        rows = read_metrics(Path(run_dir) / f"seed_{seed}" / "metrics.csv")
        out[seed] = rows[-1]["success_rate"] if rows else float("nan")
    return out
