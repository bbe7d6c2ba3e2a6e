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
each sample whose effective goal differs from its original goal.
`hsr_loss` and `hgr_loss` are functions of the actor's head rows: each
takes the rows its term is defined on and returns the term's value and its
gradients with respect to those rows' mean and log-std. `actor_loss` owns
the pass: it gathers the self-imitation rows (the task rows of the
relabeled samples, where g_eff is g_relabel) and the prior rows (one per
element, its task row when g_eff equals g_orig and its extra row
otherwise), adds each term's weighted head gradients into the shared rows,
and runs the single backward on their sum. Those gradients live in one
(rows, 2 * action_dim) buffer laid out like the actor's output, mean
gradients then log-std ones, which the backward takes as it is. Each
backward computes only what its caller uses: the critic pass of the task
term asks for d(action) alone, the critic and actor updates for the
parameter gradient alone.

Every gradient is computed analytically through the fixed MLP/Gaussian
graph in float64 and is checked against central finite differences by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs.base import reward_value_bounds
from .nn import (
    AdamState,
    CriticNet,
    DiagGaussianHead,
    Mlp,
    PolicyNet,
    adam_step,
    gaussian_log_prob,
    gaussian_log_prob_grads,
    load_params,
    reparam_action,
    reparam_grads,
    save_params,
)
from .nn.mlp import ACTIVATIONS

PRIOR_SOURCES = ("target_actor", "delayed_copy")


@dataclass
class GchrConfig:
    alpha: float = 1.0  # self-imitation weight
    beta: float = 0.2  # prior-KL weight
    gamma: float = 0.98
    polyak: float = 0.95  # target <- polyak * target + (1 - polyak) * online
    batch_size: int = 256
    updates_per_cycle: int = 40
    hindsight_goal_fraction: float = 1.0  # K = ceil(fraction * |goal set|), at least 1
    prior_source: str = "target_actor"
    tau_delay: int = 40
    entropy_coeff: float = 0.0
    prior_mc_samples: int = 4
    learning_rate: float = 1e-3
    hidden_sizes: tuple = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.polyak < 1.0:
            raise ValueError("polyak must lie in (0, 1)")
        if self.prior_source not in PRIOR_SOURCES:
            raise ValueError(f"prior_source must be one of {PRIOR_SOURCES}")
        if self.prior_mc_samples < 1 or self.batch_size < 1 or self.updates_per_cycle < 1:
            raise ValueError("counts must be positive")
        if not 0.0 < self.hindsight_goal_fraction <= 1.0:
            raise ValueError("hindsight_goal_fraction must lie in (0, 1]")
        if self.tau_delay < 1:
            raise ValueError("tau_delay must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.entropy_coeff < 0.0:
            raise ValueError("entropy_coeff must be non-negative")
        if any(size < 1 for size in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


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
    sizes (an array of sizes); with a fraction in (0, 1], never more than
    the set's size."""
    k = np.ceil(cfg.hindsight_goal_fraction * np.asarray(n_available))
    return np.maximum(1, k).astype(np.int64)


class BatchedHgrPriors:
    """Per-sample mixture priors packed for vectorized sampling.

    Element i's prior is the equal-weight mixture of pi(. | states[i], g)
    over its counts[i] component goals. Component c is member c of the
    element's hindsight goal set, read through `goal_lookup`, or member
    members[i, c] where a `members` table picks a subset.
    """

    def __init__(self, states, goal_lookup, counts, prior_net, members=None):
        self.states = states
        self.goal_lookup = goal_lookup
        self.counts = counts
        self.prior_net = prior_net
        self.members = members

    def __len__(self):
        return len(self.states)

    def component_goals(self, elements, comps):
        """Goals (..., goal_dim) of components `comps` of `elements`
        (broadcastable index arrays)."""
        members = comps if self.members is None else self.members[elements, comps]
        return self.goal_lookup.gather(elements, members)

    def sample_actions(self, m, rng):
        """(N, m, action_dim) actions: components chosen uniformly per draw.

        Only the N*m drawn component goals are gathered; they and the states
        are written into one (N*m, state+goal) input array for the prior.
        """
        n, state_dim = self.states.shape
        comp = np.floor(rng.random((n, m)) * self.counts[:, None]).astype(np.int64)
        goals = self.component_goals(np.arange(n)[:, None], comp)
        inputs = np.empty((n, m, state_dim + goals.shape[-1]))
        inputs[:, :, :state_dim] = self.states[:, None]
        inputs[:, :, state_dim:] = goals
        head = self.prior_net.head_cached_on(inputs.reshape(n * m, -1))[0]
        noise = rng.standard_normal(head.mean.shape)
        return reparam_action(head, noise).reshape(n, m, -1)


def build_hgr_priors_batch(batch, nets, cfg, rng):
    """Priors for a whole minibatch; hgr_loss scores them on the original desired goals.

    When K equals the full goal-set size (the default fraction of 1), the
    component set is the whole hindsight goal set, in first-visit order.
    Otherwise each element's K members are picked by index: the whole set
    where K equals its size, and the first K of a uniform random order of
    the set where K is smaller (one random((rows, largest set)) call,
    argsorted with the slots past the set last), so a uniform K-subset
    without replacement. Slots past an element's K are padding, never read.
    """
    counts = batch.goal_counts
    ks = resolve_k(cfg, counts)
    prior_net = nets.prior_actor(cfg)
    if np.array_equal(ks, counts):
        return BatchedHgrPriors(batch.states, batch.goal_lookup, counts, prior_net)
    width = int(counts.max())
    slot = np.arange(int(ks.max()))
    members = np.where(slot < counts[:, None], slot, 0)
    under = ks < counts
    keys = rng.random((int(under.sum()), width))
    keys[np.arange(width) >= counts[under, None]] = np.inf
    members[under] = np.argsort(keys, axis=1)[:, : len(slot)]
    return BatchedHgrPriors(batch.states, batch.goal_lookup, ks, prior_net, members)


# -- losses -------------------------------------------------------------------


def critic_loss(batch, nets, cfg):
    """Mean squared TD error with clipped targets; returns (loss, dL/d(critic theta)).

    The bootstrap action is the target actor's distribution mode and the
    target value comes from the target critic; targets are clipped to the
    feasible value range of the reward convention the batch was sampled
    under.
    """
    target_action = nets.target_actor.mean_action(batch.next_states, batch.goals)
    next_q = nets.target_critic.q(batch.next_states, target_action, batch.goals)
    targets = batch.rewards + cfg.gamma * next_q
    if not np.all(np.isfinite(targets)):
        bad = int(np.flatnonzero(~np.isfinite(targets))[0])
        raise FloatingPointError(f"non-finite TD target at batch index {bad}")
    lo, hi = reward_value_bounds(batch.reward_convention, cfg.gamma)
    targets = np.clip(targets, lo, hi)
    q, cache = nets.critic.q_cached(batch.states, batch.actions, batch.goals)
    err = q - targets
    loss = float(np.mean(err * err))
    grad, _ = nets.critic.backward(cache, 2.0 * err / len(err), wrt="params")
    return loss, grad


def hsr_loss(head, actions):
    """Behavior cloning on relabeled samples: -mean log pi(a | s, g_relabel).

    `head` holds one row per relabeled sample, on its relabeled goal.
    Returns (loss, d_mean, d_log_std), the head gradients already scaled by
    -1/n.
    """
    logp, d_mean, d_log_std = gaussian_log_prob_grads(head, actions)
    scale = -1.0 / len(logp)
    return -float(np.mean(logp)), scale * d_mean, scale * d_log_std


def hgr_loss(batch, priors, head, cfg, rng, prior_actions=None):
    """Monte-Carlo cross-entropy against the hindsight mixture priors.

    `head` holds one row per batch element, on (s, g_orig). Draws
    cfg.prior_mc_samples actions per element from its prior (or uses the
    given frozen actions), scores each draw against its element's row and
    returns (-mean log pi(a' | s, g_orig), d_mean, d_log_std), the head
    gradients scaled by -1/(n m) and summed over each element's m draws;
    the actor gradient matches that of the forward KL from the prior.
    """
    if not len(priors) == len(batch) == len(head.mean):
        raise ValueError("one prior and one head row per batch element required")
    if prior_actions is None:
        prior_actions = priors.sample_actions(cfg.prior_mc_samples, rng)
    n, m, _ = prior_actions.shape
    # scored draw-major, (m, N, action_dim): each head row broadcasts along
    # the leading axis, so every pass runs over whole contiguous blocks. The
    # sums over draws still add them in draw order, and the mean sums logp
    # in its element-major (N, m) order, so every result keeps its rounding
    draws = np.ascontiguousarray(prior_actions.transpose(1, 0, 2))
    logp, d_mean, d_log_std = gaussian_log_prob_grads(head, draws)
    scale = -1.0 / (n * m)
    return (-float(np.mean(np.ascontiguousarray(logp.T))), (scale * d_mean).sum(axis=0),
            (scale * d_log_std).sum(axis=0))


def actor_loss(batch, priors, nets, cfg, rng, noise=None, prior_actions=None):
    """Combined actor objective; returns (loss, dL/d(actor theta), term values).

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

    def rows(idx):
        return DiagGaussianHead(shared.mean[idx], shared.log_std[idx], squash=shared.squash)

    # one head-gradient buffer, laid out like the trunk's output: the mean
    # gradients, then the log-std ones; every term adds into its rows
    a_dim = nets.actor.action_dim
    d_head = np.zeros((len(shared.mean), 2 * a_dim))
    shared_d_mean, shared_d_log_std = d_head[:, :a_dim], d_head[:, a_dim:]
    head = rows(slice(n))
    if noise is None:
        noise = rng.standard_normal(head.mean.shape)
    action = reparam_action(head, noise)
    q, q_cache = nets.critic.q_cached(batch.states, action, batch.goals)
    q_term = -float(np.mean(q))
    _, d_action = nets.critic.backward(q_cache, np.full(n, -1.0 / n), wrt="input")
    jac_mean, jac_log_std = reparam_grads(head, noise, action)
    d_mean = np.multiply(d_action, jac_mean, out=shared_d_mean[:n])
    d_log_std = np.multiply(d_action, jac_log_std, out=shared_d_log_std[:n])

    entropy_term = 0.0
    if cfg.entropy_coeff > 0.0:
        # reparameterized gradient of mean log pi(a~): the Gaussian terms
        # contribute -1 to d(log_std); the tanh correction adds 2a and
        # 2a * std * noise respectively
        entropy_term = float(np.mean(gaussian_log_prob(head, action)))
        c = cfg.entropy_coeff / n
        if head.squash:
            d_mean += c * 2.0 * action
            d_log_std += c * (-1.0 + 2.0 * action * head.std * noise)
        else:
            d_log_std -= c

    loss = q_term + cfg.entropy_coeff * entropy_term
    parts = {"q_term": q_term, "hsr": 0.0, "hgr": 0.0, "entropy": entropy_term}

    if cfg.alpha > 0.0:
        # relabeled samples' task rows are on g_relabel
        relabeled = np.flatnonzero(batch.is_relabeled)
        if len(relabeled):
            value, d_m, d_ls = hsr_loss(rows(relabeled), batch.actions[relabeled])
            shared_d_mean[relabeled] += cfg.alpha * d_m
            shared_d_log_std[relabeled] += cfg.alpha * d_ls
            parts["hsr"] = value
            loss += cfg.alpha * value
    if cfg.beta > 0.0:
        prior_rows = np.arange(n)
        prior_rows[extra] = n + np.arange(len(extra))
        value, d_m, d_ls = hgr_loss(batch, priors, rows(prior_rows), cfg, rng,
                                    prior_actions=prior_actions)
        shared_d_mean[prior_rows] += cfg.beta * d_m
        shared_d_log_std[prior_rows] += cfg.beta * d_ls
        parts["hgr"] = value
        loss += cfg.beta * value
    grad = nets.actor.backward_from_head(cache, raw, d_head)
    return loss, grad, parts


def update_targets(nets, cfg, global_step):
    """Polyak-average both targets; hard-copy the delayed prior every tau_delay steps."""
    rho = cfg.polyak
    for online, target in ((nets.actor, nets.target_actor), (nets.critic, nets.target_critic)):
        target.mlp.theta *= rho
        target.mlp.theta += (1.0 - rho) * online.mlp.theta
    if cfg.prior_source == "delayed_copy" and global_step % cfg.tau_delay == 0:
        nets.delayed_actor.mlp.theta[:] = nets.actor.mlp.theta


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

    def update(self, buffer, her, rng):
        """One gradient step on a fresh minibatch; returns the loss terms."""
        cfg = self.cfg
        batch = buffer.sample_batch(cfg.batch_size, her, rng)
        critic, actor = self.nets.critic.mlp, self.nets.actor.mlp
        c_loss, c_grad = critic_loss(batch, self.nets, cfg)
        adam_step(critic.theta, c_grad, self.critic_opt, critic.block_of)

        priors = build_hgr_priors_batch(batch, self.nets, cfg, rng) if cfg.beta > 0 else None
        a_loss, a_grad, parts = actor_loss(batch, priors, self.nets, cfg, rng)
        adam_step(actor.theta, a_grad, self.actor_opt, actor.block_of)

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


def load_actor_from_checkpoint(path, state_dim, goal_dim, action_dim, activation="relu"):
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
    weights = [actor_params[f"w{i}"] for i in range(n_layers)]
    biases = [actor_params[f"b{i}"] for i in range(n_layers)]
    sizes = [weights[0].shape[0], *(w.shape[1] for w in weights)]
    if sizes[0] != state_dim + goal_dim or sizes[-1] != 2 * action_dim:
        raise ValueError(
            f"{path}: actor expects input {sizes[0]} / output {sizes[-1]}, "
            f"environment needs {state_dim + goal_dim} / {2 * action_dim}"
        )
    return PolicyNet.from_mlp(Mlp(sizes, weights, biases, activation),
                              state_dim, goal_dim, action_dim)
