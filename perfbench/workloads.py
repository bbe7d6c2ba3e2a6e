"""The benchmark's workloads, their correctness gates and their span set.

Each workload is a closed loop with one caller: the next call starts only
after the previous one returned. A workload has three timed phases:

    setup()     build the inputs; returns its wall time
    task()      the call `gchr train` (per seed) or `gchr tabular-verify` waits for
    evaluate()  read the task's saved artifact back, as `gchr eval` or
                `gchr tabular-verify --mdp FILE` does

Why each workload exists is written in NOTES.md beside this file.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np

import gchr.agent as gchr_agent
import gchr.harness.loop as harness_loop
import gchr.tabular_lab as tabular_lab
from gchr.envs import load_tabular_mdp, save_tabular_mdp
from gchr.envs.base import GoalEnv
from gchr.harness import default_config, read_metrics
from gchr.nn import Mlp
from gchr.replay import HerBuffer

# Budgets were sized on a 2-core x86_64 box so one call takes about 1-3 s.
TRAIN_OVERRIDES = {
    # the paper's full objective at the defaults: alpha=1, beta=0.2, K = whole
    # goal set, 4 prior samples, batch 256, 40 updates and 2 episodes per cycle
    "reach_hgr": ["env.name=point_reach", "run.epochs=3", "run.cycles_per_epoch=10"],
    # contact dynamics, plain HER: collection and eval dominate, no HSR/HGR
    "push_collect": [
        "env.name=block_push", "agent.alpha=0", "agent.beta=0",
        "run.episodes_per_cycle=4", "agent.updates_per_cycle=5",
        "run.epochs=5", "run.cycles_per_epoch=20",
    ],
}
LAB_GRID = {"width": 10, "height": 10, "gamma": 0.9, "slip": 0.2}
# the update-time p99 needs at least ten traced samples beyond it
MIN_P99_SAMPLES = 1000


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Gate:
    """Correctness bookkeeping: operations attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, n_ops, problem=None):
        self.attempted += n_ops
        if problem:
            self.failed += n_ops
            self.problems.append(problem)

    def same(self, what, values, n_ops_each):
        """Every value must equal the first; each mismatch fails its operations."""
        for i, value in enumerate(values[1:], start=1):
            if value != values[0]:
                self.failed += n_ops_each
                self.problems.append(f"{what}: call {i} gave {value!r}, call 0 gave {values[0]!r}")

    @property
    def ok(self):
        return self.failed == 0 and not self.problems


class TrainWorkload:
    """One `harness.loop.train_seed` call per task, each in a fresh run directory."""

    root_span = "harness.train_seed"

    def __init__(self, name, seed, work_dir, gate):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.gate = gate
        self.cfg = default_config(TRAIN_OVERRIDES[name])
        self.updates_per_task = (
            self.cfg.epochs * self.cfg.cycles_per_epoch * self.cfg.agent.updates_per_cycle
        )
        self.min_traced_tasks = max(2, math.ceil(MIN_P99_SAMPLES / self.updates_per_task))
        self.runs = []  # one run directory per finished task
        self.digests = []
        self.successes = []

    def setup(self):
        """Env, agent and buffer plus the warm-up fill, through the public calls
        and with the same random streams `train_seed` uses."""
        tick = time.perf_counter()
        cfg = self.cfg
        env = cfg.build_env()
        spec = env.spec
        agent_cfg = cfg.resolved_agent_config(env)
        gchr_agent.GchrAgent(spec.state_dim, spec.goal_dim, spec.action_dim, agent_cfg,
                             seed=self.seed)
        buffer = HerBuffer(spec.state_dim, spec.action_dim, spec.goal_dim,
                           spec.success_tolerance, reward_convention=spec.reward_convention)
        env_rng, explore_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(4)[:2]
        )
        episodes = -(-cfg.warmup_steps // spec.horizon)
        for _ in range(episodes):
            traj, _, _ = harness_loop.collect_episode(
                env, lambda s, g: explore_rng.uniform(-1.0, 1.0, spec.action_dim), env_rng
            )
            buffer.store_trajectory(traj)
        elapsed = time.perf_counter() - tick
        if buffer.n_transitions != episodes * spec.horizon:
            self.gate.record(0, f"warm-up stored {buffer.n_transitions} transitions, "
                                f"expected {episodes * spec.horizon}")
        return elapsed

    def task(self):
        run_dir = self.work_dir / f"train_{len(self.runs)}"
        tick = time.perf_counter()
        try:
            harness_loop.train_seed(self.cfg, self.seed, run_dir)
        except harness_loop.RunFailure as exc:
            self.gate.record(self.updates_per_task, f"train_seed: {exc}")
            return time.perf_counter() - tick
        elapsed = time.perf_counter() - tick
        metrics = run_dir / "metrics.csv"
        rows = read_metrics(metrics)
        finite = len(rows) == self.cfg.epochs and all(
            math.isfinite(v) for row in rows for v in row.values()
        )
        self.gate.record(self.updates_per_task,
                         None if finite else f"{metrics}: missing or non-finite values")
        self.runs.append(run_dir)
        self.digests.append(file_digest(metrics))
        return elapsed

    def evaluate(self):
        """`gchr eval` on a finished run's checkpoint: load the actor, 100 rollouts."""
        if not self.runs:
            raise RuntimeError("evaluate() needs a finished task")
        checkpoint = self.runs[len(self.successes) % len(self.runs)] / "checkpoint.ckpt"
        tick = time.perf_counter()
        env = self.cfg.build_env()
        spec = env.spec
        actor = gchr_agent.load_actor_from_checkpoint(
            checkpoint, spec.state_dim, spec.goal_dim, spec.action_dim,
            activation=self.cfg.agent.activation,
        )
        success, _ = harness_loop.run_eval(actor, env, self.cfg.eval_rollouts, self.seed)
        elapsed = time.perf_counter() - tick
        self.successes.append(success)
        return elapsed

    def epoch_seconds(self):
        """Per-epoch wall times from every run's own timing.csv (checkpoint excluded)."""
        out = []
        for run_dir in self.runs:
            lines = (run_dir / "timing.csv").read_text().split()[1:]
            out += [float(line.split(",")[2]) for line in lines]
        return out

    def finish(self):
        """Same seed, same config: every run must write the same metrics.csv
        and every evaluation must give the same success rate."""
        self.gate.same("metrics.csv sha256", self.digests, self.updates_per_task)
        self.gate.same("eval success rate", self.successes, self.updates_per_task)


class LabWorkload:
    """`verify_tabular` on a 10x10 slippery gridworld; the seed draws its random policies."""

    root_span = "tabular_lab.verify_tabular"
    min_traced_tasks = 2

    def __init__(self, seed, work_dir, gate):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.gate = gate
        self.mdp = None
        self.mdp_file = self.work_dir / "grid.mdp"
        self.digests = []
        self.n_checks = None

    def setup(self):
        """Build the MDP; the first call also saves the file `evaluate` reads."""
        tick = time.perf_counter()
        self.mdp = tabular_lab.make_gridworld(**LAB_GRID)
        elapsed = time.perf_counter() - tick
        if not self.mdp_file.exists():
            save_tabular_mdp(self.mdp_file, self.mdp)
        return elapsed

    def _check(self, results):
        report = self.work_dir / f"report_{len(self.digests)}.csv"
        tabular_lab.write_report_csv(results, report)
        self.digests.append(file_digest(report))
        failing = [r.name for r in results if not r.passed]
        self.n_checks = self.n_checks or len(results)
        self.gate.attempted += len(results)
        if failing:
            self.gate.failed += len(failing)
            self.gate.problems.append(f"lab checks failed: {', '.join(failing)}")

    def task(self):
        tick = time.perf_counter()
        results = tabular_lab.verify_tabular(self.mdp, seed=self.seed)
        elapsed = time.perf_counter() - tick
        self._check(results)
        return elapsed

    def evaluate(self):
        """The `gchr tabular-verify --mdp FILE` path: load the file, verify, format."""
        tick = time.perf_counter()
        results = tabular_lab.verify_tabular(load_tabular_mdp(self.mdp_file), seed=self.seed)
        tabular_lab.format_report(results)
        elapsed = time.perf_counter() - tick
        self._check(results)
        return elapsed

    def epoch_seconds(self):
        return []

    def finish(self):
        self.gate.same("verification report sha256", self.digests, self.n_checks or 0)


def make_workload(name, seed, work_dir, gate):
    if name == "lab_grid":
        return LabWorkload(seed, work_dir, gate)
    return TrainWorkload(name, seed, work_dir, gate)


# -- traced runs ---------------------------------------------------------------


def _rows_in(cache):
    return cache[0][0].shape[0]  # Mlp caches keep the 2-D input as acts[0]


def _batch_stats(args, batch):
    buffer = args[0]
    hit = 1.0 if buffer.reward_convention == "zero_one" else 0.0
    return (float(np.mean(batch.is_relabeled)), float(np.mean(batch.rewards == hit)),
            float(np.mean([len(g) for g in batch.goal_sets])))


def install_spans(tracer):
    """Wrap the public functions of every layer; see NOTES.md for what each should move."""
    tracer.patch(harness_loop.train_seed, "harness.train_seed")
    tracer.patch(harness_loop.collect_episode, "harness.collect_episode")
    tracer.patch(harness_loop.run_eval, "harness.run_eval")
    tracer.patch(gchr_agent.load_actor_from_checkpoint, "harness.load_actor")
    tracer.patch_method(gchr_agent.GchrAgent, "save", "harness.checkpoint")
    tracer.patch_method(gchr_agent.GchrAgent, "update", "agent.update")
    for fn in (gchr_agent.critic_loss, gchr_agent.actor_loss, gchr_agent.hsr_loss,
               gchr_agent.update_targets, gchr_agent.adam_step):
        tracer.patch(fn, f"agent.{fn.__name__}")
    tracer.patch(gchr_agent.hgr_loss, "agent.hgr_loss",
                 note=lambda a, r: len(a[0]) * a[3].prior_mc_samples)
    tracer.patch(gchr_agent.build_hgr_priors_batch, "agent.build_hgr_priors_batch",
                 note=lambda a, r: float(np.mean(r.counts)))
    tracer.patch_method(Mlp, "forward_cached", "nn.forward_cached",
                        note=lambda a, r: _rows_in(r[1]))
    tracer.patch_method(Mlp, "backward", "nn.backward", note=lambda a, r: _rows_in(a[1]))
    tracer.patch_method(HerBuffer, "sample_batch", "replay.sample_batch", note=_batch_stats)
    tracer.patch_method(HerBuffer, "store_trajectory", "replay.store_trajectory")
    tracer.patch_method(GoalEnv, "step", "envs.step")
    for fn in (tabular_lab.verify_tabular, tabular_lab.compute_occupancy,
               tabular_lab.policy_evaluation_iterative, tabular_lab.check_theorem2_monotonicity,
               tabular_lab.check_assumption_uniform_reachability):
        tracer.patch(fn, f"tabular_lab.{fn.__name__}")


def _p50(values, scale):
    return float(np.median(values)) * scale if len(values) else 0.0


def _p99(values, scale):
    """Nearest-rank p99; the caller guarantees ten samples beyond it when it runs at all."""
    if not len(values):
        return 0.0
    ordered = np.sort(values)
    return float(ordered[math.ceil(0.99 * len(ordered)) - 1]) * scale


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(table, workload, gate):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    dur = table.duration
    roots = table.of(workload.root_span)
    root_time = float(dur[roots].sum())
    root_of = table.under(workload.root_span)
    update_of = table.under("agent.update")
    updates = table.of("agent.update")
    n_updates = len(updates)

    calls = table.of

    def ms(name):
        return _p50(dur[calls(name)], 1e3)

    def in_update(name):
        idx = calls(name)
        return idx[update_of[idx] >= 0]

    def share(name):
        idx = calls(name)
        return float(dur[idx[root_of[idx] >= 0]].sum()) / root_time if root_time else 0.0

    def per_update(total):
        return total / n_updates if n_updates else 0.0

    def per_root(name):
        """Calls of `name` under each task root, in root order."""
        idx = calls(name)
        return [int(np.sum(root_of[idx] == r)) for r in roots]

    fwd, bwd = in_update("nn.forward_cached"), in_update("nn.backward")
    hgr = calls("agent.hgr_loss")
    batches = table.note_values(calls("replay.sample_batch"))
    out = {
        "agent.update_ms_p50": (_p50(dur[updates], 1e3), "ms"),
        "agent.update_ms_p99": (_p99(dur[updates], 1e3), "ms"),
        "agent.critic_loss_ms": (ms("agent.critic_loss"), "ms"),
        "agent.actor_loss_ms": (ms("agent.actor_loss"), "ms"),
        "agent.hsr_loss_ms": (ms("agent.hsr_loss"), "ms"),
        "agent.hgr_loss_ms": (ms("agent.hgr_loss"), "ms"),
        "agent.build_hgr_priors_batch_ms": (ms("agent.build_hgr_priors_batch"), "ms"),
        "agent.update_targets_ms": (ms("agent.update_targets"), "ms"),
        "agent.adam_step_ms": (ms("agent.adam_step"), "ms"),
        "agent.update_share": (share("agent.update"), "frac"),
        "agent.hgr_rows_per_update": (per_update(sum(table.note_values(hgr))), "count"),
        "agent.prior_k_mean": (
            _mean(table.note_values(calls("agent.build_hgr_priors_batch"))), "count"),
        "nn.forward_calls_per_update": (per_update(len(fwd)), "count"),
        "nn.forward_rows_per_update": (per_update(sum(table.note_values(fwd))), "count"),
        "nn.backward_calls_per_update": (per_update(len(bwd)), "count"),
        "nn.backward_rows_per_update": (per_update(sum(table.note_values(bwd))), "count"),
        "nn.forward_cached_ms": (_p50(table.self_time[fwd], 1e3), "ms"),
        "nn.backward_ms": (_p50(table.self_time[bwd], 1e3), "ms"),
        "replay.sample_batch_ms": (ms("replay.sample_batch"), "ms"),
        "replay.store_trajectory_ms": (ms("replay.store_trajectory"), "ms"),
        "replay.store_calls": (_mean(per_root("replay.store_trajectory")), "count"),
        "replay.relabel_frac": (_mean([b[0] for b in batches]), "frac"),
        "replay.reward_rate": (_mean([b[1] for b in batches]), "frac"),
        "replay.goal_set_size_mean": (_mean([b[2] for b in batches]), "count"),
        "envs.step_us": (_p50(dur[calls("envs.step")], 1e6), "us"),
        "envs.step_calls": (_mean(per_root("envs.step")), "count"),
        "envs.step_share": (share("envs.step"), "frac"),
        "harness.collect_episode_ms": (ms("harness.collect_episode"), "ms"),
        "harness.run_eval_ms": (ms("harness.run_eval"), "ms"),
        # mean, not p50: saves are bimodal (see NOTES.md), so a p50 flips between modes
        "harness.checkpoint_ms_mean": (_mean(dur[calls("harness.checkpoint")]) * 1e3, "ms"),
        "harness.load_actor_ms": (ms("harness.load_actor"), "ms"),
        "tabular_lab.compute_occupancy_ms": (ms("tabular_lab.compute_occupancy"), "ms"),
        "tabular_lab.policy_evaluation_iterative_ms": (
            ms("tabular_lab.policy_evaluation_iterative"), "ms"),
        "tabular_lab.policy_evaluation_iterative_share": (
            share("tabular_lab.policy_evaluation_iterative"), "frac"),
        "tabular_lab.check_theorem2_monotonicity_ms": (
            ms("tabular_lab.check_theorem2_monotonicity"), "ms"),
        "tabular_lab.check_assumption_uniform_reachability_ms": (
            ms("tabular_lab.check_assumption_uniform_reachability"), "ms"),
    }

    # the per-task counts are exact: every traced task must repeat them
    if workload.root_span == TrainWorkload.root_span:
        n_ops = workload.updates_per_task
        for name in ("agent.update", "nn.forward_cached", "nn.backward",
                     "replay.store_trajectory", "envs.step"):
            gate.same(f"{name} calls per task", per_root(name), n_ops)
        rows = [sum(table.note_values(fwd[root_of[fwd] == r])) for r in roots]
        gate.same("nn.forward_cached rows per task", rows, n_ops)
    return out
