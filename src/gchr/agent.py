"""Learning core: TD critic updates plus the hindsight-regularized actor objective.

The actor loss combines three terms on one sampled minibatch:

    loss = -E[Q(s, a~, g_eff)]                      (task term, reparameterized)
           + alpha * BC(-log pi(a | s, g_relabel))  (self-imitation on relabeled samples)
           + beta  * CE(-log pi(a' | s, g_orig))    (cross-entropy against the hindsight
                                                     mixture prior, a' drawn from it)

The cross-entropy estimator has the same actor gradient as the forward KL
from the mixture prior, whose entropy does not depend on the actor. Each
term uses the goal field it is defined on: effective goals for the critic
and task term, relabeled goals for self-imitation, original desired goals
for the prior term.

All three terms share one actor forward and one backward pass. The pass
runs over N task rows on (s, g_eff) plus one extra row on (s, g_orig) for
each sample whose effective goal differs from its original goal. The
self-imitation term reads the task rows of the relabeled samples (there
g_eff is g_relabel); the prior term reads one row per element, its task
row when g_eff equals g_orig, and evaluates its Monte-Carlo draws there.
`hsr_loss` and `hgr_loss` stay the only implementation of their terms:
`actor_loss` hands each a row view of the shared pass in place of the
actor, whose `head_cached` gathers the term's rows and whose
`backward_from_head` adds the term's weighted head gradients into the
shared rows. The single backward then runs on the summed head gradients.

Every gradient is computed analytically through the fixed MLP/Gaussian
graph in float64 and is checked against central finite differences by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs.base import REWARD_CONVENTIONS, reward_value_bounds
from .nn import (
    AdamState,
    CriticNet,
    DiagGaussianHead,
    PolicyNet,
    adam_step,
    gaussian_log_prob,
    gaussian_log_prob_grads,
    load_params,
    reparam_action,
    reparam_grads,
    save_params,
)

PRIOR_SOURCES = ("target_actor", "delayed_copy")


@dataclass
class GchrConfig:
    alpha: float = 1.0  # self-imitation weight
    beta: float = 0.2  # prior-KL weight
    gamma: float = 0.98
    polyak: float = 0.95  # target <- polyak * target + (1 - polyak) * online
    batch_size: int = 256
    updates_per_cycle: int = 40
    hindsight_goals: int | None = None  # fixed K; None derives K from the fraction
    hindsight_goal_fraction: float = 1.0  # K = ceil(fraction * |goal set|), at least 1
    prior_source: str = "target_actor"
    tau_delay: int = 40
    entropy_coeff: float = 0.0
    prior_mc_samples: int = 4
    learning_rate: float = 1e-3
    hidden_sizes: tuple = (64, 64)
    activation: str = "relu"
    reward_convention: str = "zero_one"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.polyak < 1.0:
            raise ValueError("polyak must lie in (0, 1)")
        if self.prior_source not in PRIOR_SOURCES:
            raise ValueError(f"prior_source must be one of {PRIOR_SOURCES}")
        if self.reward_convention not in REWARD_CONVENTIONS:
            raise ValueError(f"reward_convention must be one of {REWARD_CONVENTIONS}")
        if self.prior_mc_samples < 1 or self.batch_size < 1 or self.updates_per_cycle < 1:
            raise ValueError("counts must be positive")
        if not 0.0 < self.hindsight_goal_fraction <= 1.0:
            raise ValueError("hindsight_goal_fraction must lie in (0, 1]")
        if self.hindsight_goals is not None and self.hindsight_goals < 1:
            raise ValueError("hindsight_goals must be >= 1 when set")


@dataclass
class AgentNets:
    actor: PolicyNet
    critic: CriticNet
    target_actor: PolicyNet
    target_critic: CriticNet
    delayed_actor: PolicyNet

    @classmethod
    def create(cls, state_dim, goal_dim, action_dim, cfg, seed=0):
        seq = np.random.SeedSequence(seed)
        actor_rng, critic_rng = [np.random.default_rng(s) for s in seq.spawn(2)]
        actor = PolicyNet(state_dim, goal_dim, action_dim,
                          hidden_sizes=cfg.hidden_sizes, activation=cfg.activation,
                          rng=actor_rng)
        critic = CriticNet(state_dim, goal_dim, action_dim,
                           hidden_sizes=cfg.hidden_sizes, activation=cfg.activation,
                           rng=critic_rng)
        return cls(
            actor=actor,
            critic=critic,
            target_actor=actor.copy(),
            target_critic=critic.copy(),
            delayed_actor=actor.copy(),
        )

    def prior_actor(self, cfg):
        return self.delayed_actor if cfg.prior_source == "delayed_copy" else self.target_actor


def resolve_k(cfg, n_available):
    """Number of mixture components for hindsight goal sets of the given
    sizes (an array of sizes)."""
    if cfg.hindsight_goals is not None:
        return np.full_like(n_available, cfg.hindsight_goals, dtype=np.int64)
    k = np.ceil(cfg.hindsight_goal_fraction * np.asarray(n_available))
    return np.maximum(1, k).astype(np.int64)


class BatchedHgrPriors:
    """Per-sample mixture priors packed for vectorized sampling.

    Element i's prior is the equal-weight mixture of pi(. | states[i], g)
    over its component goals g, padded to the largest K in the batch;
    `counts` records each element's true component count.
    """

    def __init__(self, states, padded_goals, counts, prior_net):
        self.states = states
        self.padded_goals = padded_goals
        self.counts = counts
        self.prior_net = prior_net

    def __len__(self):
        return len(self.states)

    def sample_actions(self, m, rng):
        """(N, m, action_dim) actions: components chosen uniformly per draw."""
        n = len(self.states)
        comp = np.floor(rng.random((n, m)) * self.counts[:, None]).astype(np.int64)
        goals = self.padded_goals[np.arange(n)[:, None], comp]  # (N, m, goal_dim)
        states = np.repeat(self.states, m, axis=0)
        head = self.prior_net.head(states, goals.reshape(n * m, -1))
        noise = rng.standard_normal(head.mean.shape)
        return reparam_action(head, noise).reshape(n, m, -1)


def build_hgr_priors_batch(batch, nets, cfg, rng):
    """Priors for a whole minibatch; hgr_loss scores them on the original desired goals.

    When K equals the full goal-set size (the default fraction of 1), the
    component set is the whole hindsight goal set: the batch's goal table
    is used as it is. Otherwise each element draws its own K goals
    uniformly, without replacement while K fits in its set.
    """
    counts = batch.goal_counts
    ks = resolve_k(cfg, counts)
    if np.array_equal(ks, counts):
        return BatchedHgrPriors(batch.states, batch.goal_table, counts, nets.prior_actor(cfg))
    n = len(batch)
    padded = np.zeros((n, int(ks.max()), batch.goal_table.shape[2]))
    for i, goal_set in enumerate(batch.goal_sets):
        k = ks[i]
        if k == len(goal_set):
            padded[i, :k] = goal_set
        else:
            idx = rng.choice(len(goal_set), size=k, replace=k > len(goal_set))
            padded[i, :k] = goal_set[idx]
    return BatchedHgrPriors(batch.states, padded, ks, nets.prior_actor(cfg))


# -- losses -------------------------------------------------------------------


def critic_loss(batch, nets, cfg):
    """Mean squared TD error with clipped targets; returns (loss, critic grads).

    The bootstrap action is the target actor's distribution mode and the
    target value comes from the target critic; targets are clipped to the
    feasible value range of the reward convention.
    """
    target_action = nets.target_actor.mean_action(batch.next_states, batch.goals)
    next_q = nets.target_critic.q(batch.next_states, target_action, batch.goals)
    targets = batch.rewards + cfg.gamma * next_q
    if not np.all(np.isfinite(targets)):
        bad = int(np.flatnonzero(~np.isfinite(targets))[0])
        raise FloatingPointError(f"non-finite TD target at batch index {bad}")
    lo, hi = reward_value_bounds(cfg.reward_convention, cfg.gamma)
    targets = np.clip(targets, lo, hi)
    q, cache = nets.critic.q_cached(batch.states, batch.actions, batch.goals)
    err = q - targets
    loss = float(np.mean(err * err))
    grads, _ = nets.critic.backward(cache, 2.0 * err / len(err))
    return loss, grads


def hsr_loss(batch, actor):
    """Behavior cloning on relabeled samples: -mean log pi(a | s, g_relabel).

    `actor` is a PolicyNet or a row view of a shared actor pass; with a row
    view the gradients go into the shared pass and None is returned for them.
    """
    if not np.all(batch.is_relabeled):
        raise ValueError("hsr_loss expects a batch of relabeled samples only")
    head, cache, raw = actor.head_cached(batch.states, batch.goals)
    logp, d_mean, d_log_std = gaussian_log_prob_grads(head, batch.actions)
    n = len(logp)
    loss = -float(np.mean(logp))
    scale = -1.0 / n
    grads, _ = actor.backward_from_head(cache, raw, scale * d_mean, scale * d_log_std)
    return loss, grads


def hgr_loss(batch, priors, actor, cfg, rng, prior_actions=None):
    """Monte-Carlo cross-entropy against the hindsight mixture priors.

    Draws cfg.prior_mc_samples actions per element from its prior (or uses
    the given frozen actions) and returns -mean log pi(a' | s, g_orig); the
    actor gradient matches that of the forward KL from the prior. `actor`
    may be a row view of a shared actor pass, as in hsr_loss.
    """
    if len(priors) != len(batch):
        raise ValueError("one prior per batch element required")
    if prior_actions is None:
        prior_actions = priors.sample_actions(cfg.prior_mc_samples, rng)
    n, m, action_dim = prior_actions.shape
    states = np.repeat(batch.states, m, axis=0)
    goals = np.repeat(batch.original_goals, m, axis=0)
    head, cache, raw = actor.head_cached(states, goals)
    logp, d_mean, d_log_std = gaussian_log_prob_grads(head, prior_actions.reshape(n * m, action_dim))
    loss = -float(np.mean(logp))
    scale = -1.0 / (n * m)
    grads, _ = actor.backward_from_head(cache, raw, scale * d_mean, scale * d_log_std)
    return loss, grads


class _ActorRows:
    """Stands in for the actor in one loss term, reading rows of a shared pass.

    `head` and the gradient buffers `d_mean` / `d_log_std` belong to one
    actor forward pass. The term's inputs are that pass's `rows` (distinct
    indices), each repeated `repeats` times in np.repeat order; the term
    computes them as it would for the actor, and only their count is
    checked here. `backward_from_head` sums the term's head gradients over
    the repeats, scales them by `weight` and adds them into the buffers; it
    returns no parameter gradients, since the shared backward produces them.
    """

    def __init__(self, head, d_mean, d_log_std, rows, weight, repeats=1):
        self.head = head
        self.d_mean = d_mean
        self.d_log_std = d_log_std
        self.rows = rows
        self.weight = weight
        self.repeats = repeats

    def head_cached(self, states, goals):
        n = len(self.rows) * self.repeats
        if len(states) != n or len(goals) != n:
            raise ValueError(f"row view holds {n} rows, got {len(states)} inputs")
        idx = np.repeat(self.rows, self.repeats)
        return DiagGaussianHead(self.head.mean[idx], self.head.log_std[idx],
                                squash=self.head.squash), None, None

    def backward_from_head(self, cache, raw_log_std, d_mean, d_log_std):
        del cache, raw_log_std  # the shared backward applies the log-std clamp mask
        shape = (len(self.rows), self.repeats, -1)
        self.d_mean[self.rows] += self.weight * d_mean.reshape(shape).sum(axis=1)
        self.d_log_std[self.rows] += self.weight * d_log_std.reshape(shape).sum(axis=1)
        return None, None


def actor_loss(batch, priors, nets, cfg, rng, noise=None, prior_actions=None):
    """Combined actor objective; returns (loss, actor grads, term values).

    loss = -mean Q(s, a~, g_eff) + alpha * hsr + beta * hgr, with a~
    reparameterized from the actor and the critic held fixed. Passing
    `noise` and `prior_actions` freezes the Monte-Carlo draws (used by the
    finite-difference tests). An optional entropy bonus weighs in with
    entropy_coeff. One actor forward and one backward serve every term.
    """
    if cfg.beta > 0.0 and priors is None:
        raise ValueError("beta > 0 requires hindsight priors")
    n = len(batch)
    # the prior term needs (s, g_orig) rows: extra rows after the N task rows
    # where the effective goal differs, the task row itself where it does not
    if cfg.beta > 0.0:
        extra = np.flatnonzero(np.any(batch.goals != batch.original_goals, axis=1))
    else:
        extra = np.empty(0, dtype=np.int64)
    shared, cache, raw = nets.actor.head_cached(
        np.concatenate([batch.states, batch.states[extra]]),
        np.concatenate([batch.goals, batch.original_goals[extra]]),
    )
    shared_d_mean = np.zeros_like(shared.mean)
    shared_d_log_std = np.zeros_like(shared.log_std)
    head = DiagGaussianHead(shared.mean[:n], shared.log_std[:n], squash=shared.squash)
    if noise is None:
        noise = rng.standard_normal(head.mean.shape)
    action = reparam_action(head, noise)
    q, q_cache = nets.critic.q_cached(batch.states, action, batch.goals)
    q_term = -float(np.mean(q))
    _, d_action = nets.critic.backward(q_cache, np.full(n, -1.0 / n))
    jac_mean, jac_log_std = reparam_grads(head, noise, action)
    d_mean = d_action * jac_mean
    d_log_std = d_action * jac_log_std

    entropy_term = 0.0
    if cfg.entropy_coeff > 0.0:
        # reparameterized gradient of mean log pi(a~): the Gaussian terms
        # contribute -1 to d(log_std); the tanh correction adds 2a and
        # 2a * std * noise respectively
        entropy_term = float(np.mean(gaussian_log_prob(head, action)))
        c = cfg.entropy_coeff / n
        if head.squash:
            d_mean = d_mean + c * 2.0 * action
            d_log_std = d_log_std + c * (-1.0 + 2.0 * action * head.std * noise)
        else:
            d_log_std = d_log_std - c

    shared_d_mean[:n] = d_mean
    shared_d_log_std[:n] = d_log_std
    loss = q_term + cfg.entropy_coeff * entropy_term
    parts = {"q_term": q_term, "hsr": 0.0, "hgr": 0.0, "entropy": entropy_term}

    if cfg.alpha > 0.0:
        relabeled = np.flatnonzero(batch.is_relabeled)
        if len(relabeled):
            view = _ActorRows(shared, shared_d_mean, shared_d_log_std, relabeled, cfg.alpha)
            value, _ = hsr_loss(batch.relabeled_subset(), view)
            parts["hsr"] = value
            loss += cfg.alpha * value
    if cfg.beta > 0.0:
        prior_rows = np.arange(n)
        prior_rows[extra] = n + np.arange(len(extra))
        m = cfg.prior_mc_samples if prior_actions is None else prior_actions.shape[1]
        view = _ActorRows(shared, shared_d_mean, shared_d_log_std, prior_rows, cfg.beta,
                          repeats=m)
        value, _ = hgr_loss(batch, priors, view, cfg, rng, prior_actions=prior_actions)
        parts["hgr"] = value
        loss += cfg.beta * value
    grads, _ = nets.actor.backward_from_head(cache, raw, shared_d_mean, shared_d_log_std)
    return loss, grads, parts


def update_targets(nets, cfg, global_step):
    """Polyak-average both targets; hard-copy the delayed prior every tau_delay steps."""
    rho = cfg.polyak
    for online, target in ((nets.actor, nets.target_actor), (nets.critic, nets.target_critic)):
        for ow, tw in zip(online.mlp.weights, target.mlp.weights):
            tw *= rho
            tw += (1.0 - rho) * ow
        for ob, tb in zip(online.mlp.biases, target.mlp.biases):
            tb *= rho
            tb += (1.0 - rho) * ob
    if cfg.prior_source == "delayed_copy" and global_step % cfg.tau_delay == 0:
        nets.delayed_actor.set_params(nets.actor.params())


# -- agent --------------------------------------------------------------------


class GchrAgent:
    """Owns the networks and optimizers; one update = critic step, actor
    step, target update, strictly in that order."""

    def __init__(self, state_dim, goal_dim, action_dim, cfg=None, seed=0):
        self.cfg = cfg or GchrConfig()
        self.state_dim = state_dim
        self.goal_dim = goal_dim
        self.action_dim = action_dim
        self.nets = AgentNets.create(state_dim, goal_dim, action_dim, self.cfg, seed=seed)
        self.actor_opt = AdamState(learning_rate=self.cfg.learning_rate)
        self.critic_opt = AdamState(learning_rate=self.cfg.learning_rate)
        self.global_step = 0

    def act(self, state, goal, rng=None, greedy=False):
        if greedy:
            return self.nets.actor.mean_action(state, goal)
        return self.nets.actor.sample(state, goal, rng)

    def update(self, buffer, her, rng):
        """One gradient step on a fresh minibatch; returns the loss terms."""
        cfg = self.cfg
        batch = buffer.sample_batch(cfg.batch_size, her, rng)
        c_loss, c_grads = critic_loss(batch, self.nets, cfg)
        new_critic, _ = adam_step(self.nets.critic.params(), c_grads, self.critic_opt)
        self.nets.critic.set_params(new_critic)

        priors = build_hgr_priors_batch(batch, self.nets, cfg, rng) if cfg.beta > 0 else None
        a_loss, a_grads, parts = actor_loss(batch, priors, self.nets, cfg, rng)
        new_actor, _ = adam_step(self.nets.actor.params(), a_grads, self.actor_opt)
        self.nets.actor.set_params(new_actor)

        self.global_step += 1
        update_targets(self.nets, cfg, self.global_step)
        return {
            "critic_loss": c_loss,
            "actor_loss": a_loss,
            "q_term": parts["q_term"],
            "hsr_loss": parts["hsr"],
            "hgr_loss": parts["hgr"],
        }

    # -- persistence ----------------------------------------------------------

    _NET_NAMES = ("actor", "critic", "target_actor", "target_critic", "delayed_actor")

    def save(self, path):
        params = {}
        for net_name in self._NET_NAMES:
            for key, arr in getattr(self.nets, net_name).params().items():
                params[f"{net_name}.{key}"] = arr
        save_params(path, params)

    def load(self, path):
        params = load_params(path)
        for net_name in self._NET_NAMES:
            prefix = f"{net_name}."
            net_params = {
                key[len(prefix):]: arr for key, arr in params.items() if key.startswith(prefix)
            }
            getattr(self.nets, net_name).set_params(net_params)


def load_actor_from_checkpoint(path, state_dim, goal_dim, action_dim,
                               activation="relu", squash=True):
    """Rebuild just the actor from an agent checkpoint.

    Hidden sizes are recovered from the stored weight shapes; the input and
    output dimensions are cross-checked against the requested environment.
    """
    params = load_params(path)
    actor_params = {k.removeprefix("actor."): v for k, v in params.items()
                    if k.startswith("actor.")}
    if not actor_params:
        raise ValueError(f"{path}: checkpoint holds no actor parameters")
    n_layers = sum(1 for k in actor_params if k.startswith("w"))
    sizes = [actor_params["w0"].shape[0]]
    for i in range(n_layers):
        sizes.append(actor_params[f"w{i}"].shape[1])
    if sizes[0] != state_dim + goal_dim or sizes[-1] != 2 * action_dim:
        raise ValueError(
            f"{path}: actor expects input {sizes[0]} / output {sizes[-1]}, "
            f"environment needs {state_dim + goal_dim} / {2 * action_dim}"
        )
    actor = PolicyNet(state_dim, goal_dim, action_dim, hidden_sizes=tuple(sizes[1:-1]),
                      activation=activation, squash=squash, rng=0)
    actor.set_params(actor_params)
    return actor
