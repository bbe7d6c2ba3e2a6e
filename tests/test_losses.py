import math

import numpy as np
import pytest

from gchr.agent import (
    AgentNets,
    BatchedHgrPriors,
    GchrAgent,
    GchrConfig,
    actor_loss,
    build_hgr_priors_batch,
    critic_loss,
    hgr_loss,
    hsr_loss,
    update_targets,
)
from gchr.nn import Mlp, PolicyNet, gaussian_log_prob
from gchr.replay import HerBuffer, HerConfig, ReplayBatch, Trajectory

from oracles import finite_difference_grads, max_relative_grad_error, mixture_log_prob

STATE_DIM, GOAL_DIM, ACTION_DIM = 3, 2, 2


def small_cfg(**kw):
    defaults = dict(hidden_sizes=(4,), batch_size=8, gamma=0.9)
    defaults.update(kw)
    return GchrConfig(**defaults)


def make_nets(cfg, seed=0):
    return AgentNets.create(STATE_DIM, GOAL_DIM, ACTION_DIM, cfg, seed=seed)


def replay_batch(goal_sets, **arrays):
    """A ReplayBatch with per-element goal sets packed into the padded goal
    table the buffer hands out."""
    counts = np.array([len(gs) for gs in goal_sets], dtype=np.int64)
    table = np.zeros((len(goal_sets), int(counts.max()), np.shape(goal_sets[0])[-1]))
    for row, goal_set in zip(table, goal_sets):
        row[: len(goal_set)] = goal_set
    return ReplayBatch(goal_table=table, goal_counts=counts, **arrays)


def make_batch(rng, n=8, relabeled="mixed", goal_sets=None):
    states = rng.normal(size=(n, STATE_DIM))
    actions = rng.uniform(-0.9, 0.9, size=(n, ACTION_DIM))
    next_states = states + 0.1 * rng.normal(size=(n, STATE_DIM))
    original = rng.normal(size=(n, GOAL_DIM))
    goals = original.copy()
    if relabeled == "all":
        flags = np.ones(n, dtype=bool)
    elif relabeled == "none":
        flags = np.zeros(n, dtype=bool)
    else:
        flags = rng.random(n) < 0.5
    goals[flags] += 0.3 * rng.normal(size=(int(flags.sum()), GOAL_DIM))
    rewards = (rng.random(n) < 0.2).astype(np.float64)
    if goal_sets is None:
        goal_sets = [rng.normal(size=(int(rng.integers(1, 5)), GOAL_DIM)) for _ in range(n)]
    return replay_batch(
        states=states, actions=actions, next_states=next_states,
        original_goals=original, goals=goals, rewards=rewards,
        is_relabeled=flags, t=np.zeros(n, dtype=int),
        relabel_t=np.where(flags, 1, -1), goal_sets=goal_sets,
    )


def with_params(net, params):
    clone = net.copy()
    clone.set_params(params)
    return clone


# -- critic -------------------------------------------------------------------


def test_critic_loss_gamma_zero_reduces_to_reward_regression(rng):
    cfg = small_cfg(gamma=0.0)
    nets = make_nets(cfg)
    batch = make_batch(rng)
    loss, _ = critic_loss(batch, nets, cfg)
    q = nets.critic.q(batch.states, batch.actions, batch.goals)
    assert loss == pytest.approx(float(np.mean((batch.rewards - q) ** 2)))


def test_critic_targets_clipped_to_value_range(rng):
    cfg = small_cfg(gamma=0.98)
    nets = make_nets(cfg)
    # inflate the target critic so raw targets exceed 1/(1-gamma) = 50
    inflated = {k: v * 40.0 for k, v in nets.target_critic.params().items()}
    nets.target_critic.set_params(inflated)
    batch = make_batch(rng)
    raw_next = nets.target_critic.q(
        batch.next_states,
        nets.target_actor.mean_action(batch.next_states, batch.goals),
        batch.goals,
    )
    assert np.max(batch.rewards + 0.98 * raw_next) > 50.0  # clipping is active
    loss, _ = critic_loss(batch, nets, cfg)
    q = nets.critic.q(batch.states, batch.actions, batch.goals)
    target = np.clip(batch.rewards + 0.98 * raw_next, 0.0, 50.0)
    assert loss == pytest.approx(float(np.mean((q - target) ** 2)))


def test_critic_loss_non_finite_target_names_sample(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    batch = make_batch(rng)
    batch.rewards[3] = np.nan
    with pytest.raises(FloatingPointError, match="index 3"):
        critic_loss(batch, nets, cfg)


def test_critic_gradients_match_finite_differences(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    batch = make_batch(rng, n=6)
    _, analytic = critic_loss(batch, nets, cfg)

    def loss_fn(params):
        probe_nets = AgentNets(
            actor=nets.actor, critic=with_params(nets.critic, params),
            target_actor=nets.target_actor, target_critic=nets.target_critic,
            delayed_actor=nets.delayed_actor,
        )
        return critic_loss(batch, probe_nets, cfg)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.critic.params().items()})
    assert max_relative_grad_error(analytic, fd) <= 1e-4


def test_critic_converges_to_td_fixed_point(rng):
    # a self-loop transition whose bootstrap action equals the stored action:
    # the TD fixed point is r / (1 - gamma), matched by the scalar recursion
    from gchr.nn import AdamState, adam_step

    cfg = small_cfg(gamma=0.5, polyak=0.9)
    nets = make_nets(cfg)
    s = np.zeros((1, STATE_DIM))
    g = np.zeros((1, GOAL_DIM))
    # force the actor (and hence target actor) to output the stored action
    for net in (nets.actor, nets.target_actor):
        params = net.params()
        zeroed = {k: np.zeros_like(v) for k, v in params.items()}
        net.set_params(zeroed)
    a = nets.target_actor.mean_action(s, g)  # tanh(0) = 0
    batch = replay_batch(
        states=s, actions=a, next_states=s, original_goals=g, goals=g,
        rewards=np.array([0.8]), is_relabeled=np.array([False]),
        t=np.zeros(1, dtype=int), relabel_t=np.array([-1]),
        goal_sets=[g],
    )
    opt = AdamState(learning_rate=3e-3)
    for step in range(1, 20001):
        _, grads = critic_loss(batch, nets, cfg)
        new_params, _ = adam_step(nets.critic.params(), grads, opt)
        nets.critic.set_params(new_params)
        update_targets(nets, cfg, step)
    # scalar iteration oracle: y <- r + gamma * y converges to r / (1 - gamma)
    y = 0.0
    for _ in range(200):
        y = 0.8 + 0.5 * y
    assert y == pytest.approx(1.6)
    q = float(nets.critic.q(s, a, g)[0])
    assert abs(q - y) <= 1e-6


# -- hsr ----------------------------------------------------------------------


def test_hsr_requires_relabeled_batch(rng):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, relabeled="none")
    with pytest.raises(ValueError, match="relabeled"):
        hsr_loss(batch, nets.actor)


def test_hsr_single_sample_is_negative_log_prob(rng):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, n=1, relabeled="all")
    loss, _ = hsr_loss(batch, nets.actor)
    head = nets.actor.head(batch.states, batch.goals)
    assert loss == pytest.approx(-float(gaussian_log_prob(head, batch.actions)[0]))


def test_hsr_loss_decreases_as_std_tightens():
    # actor mean pinned at the sampled action: shrinking std raises the
    # log-likelihood until the clamp floor
    actor = PolicyNet(1, 1, 1, hidden_sizes=(), rng=0)
    action = np.array([[0.4]])
    batch_kwargs = dict(
        states=np.zeros((1, 1)), actions=action, next_states=np.zeros((1, 1)),
        original_goals=np.zeros((1, 1)), goals=np.zeros((1, 1)),
        rewards=np.zeros(1), is_relabeled=np.array([True]),
        t=np.zeros(1, dtype=int), relabel_t=np.array([0]),
        goal_sets=[np.zeros((1, 1))],
    )
    batch = replay_batch(**batch_kwargs)
    losses = []
    for log_std in (0.5, 0.0, -1.0, -3.0, -5.0):
        actor.set_params({
            "w0": np.zeros((2, 2)),
            "b0": np.array([np.arctanh(0.4), log_std]),
        })
        losses.append(hsr_loss(batch, actor)[0])
    assert losses == sorted(losses, reverse=True)


def test_hsr_gradient_closed_form_unsquashed_gaussian(rng):
    # 1-D unsquashed head: d(-log pi)/d(mean) = (mean - a) / sigma^2
    actor = PolicyNet(1, 1, 1, hidden_sizes=(), squash=False, rng=1)
    mean_bias, log_std_bias = 0.3, -0.2
    actor.set_params({"w0": np.zeros((2, 2)), "b0": np.array([mean_bias, log_std_bias])})
    actions = rng.uniform(-1, 1, size=(16, 1))
    batch = replay_batch(
        states=np.zeros((16, 1)), actions=actions, next_states=np.zeros((16, 1)),
        original_goals=np.zeros((16, 1)), goals=np.zeros((16, 1)),
        rewards=np.zeros(16), is_relabeled=np.ones(16, dtype=bool),
        t=np.zeros(16, dtype=int), relabel_t=np.zeros(16, dtype=int),
        goal_sets=[np.zeros((1, 1))] * 16,
    )
    _, grads = hsr_loss(batch, actor)
    sigma2 = np.exp(2 * log_std_bias)
    closed_form = float(np.mean((mean_bias - actions) / sigma2))
    assert grads["b0"][0] == pytest.approx(closed_form, rel=1e-12)

    def loss_fn(params):
        return hsr_loss(batch, with_params(actor, params))[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in actor.params().items()})
    assert max_relative_grad_error(grads, fd) <= 1e-4


def test_hsr_gradients_match_finite_differences_squashed(rng):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, relabeled="all")
    _, analytic = hsr_loss(batch, nets.actor)

    def loss_fn(params):
        return hsr_loss(batch, with_params(nets.actor, params))[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.actor.params().items()})
    assert max_relative_grad_error(analytic, fd) <= 1e-4


# -- hindsight prior ----------------------------------------------------------


def element_log_prob(priors, i, action):
    """Exact mixture log-density of element i's prior, by the oracle."""
    k = int(priors.counts[i])
    return mixture_log_prob(priors.prior_net, priors.states[i], priors.padded_goals[i, :k],
                            action)


def test_prior_with_one_component_equals_single_conditional(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    goal = rng.normal(size=GOAL_DIM)
    batch = make_batch(rng, n=1, goal_sets=[goal[None, :]])
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    action = np.array([0.3, -0.5])
    head = nets.target_actor.head(batch.states[0], goal)
    assert element_log_prob(priors, 0, action) == pytest.approx(
        float(gaussian_log_prob(head, action)))


def test_prior_identical_components_collapse(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    goal = rng.normal(size=GOAL_DIM)
    batch = make_batch(rng, n=1, goal_sets=[np.repeat(goal[None, :], 5, axis=0)])
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    assert priors.counts[0] == 5
    head = nets.target_actor.head(batch.states[0], goal)
    for _ in range(10):
        action = rng.uniform(-0.9, 0.9, size=ACTION_DIM)
        assert element_log_prob(priors, 0, action) == pytest.approx(
            float(gaussian_log_prob(head, action)), abs=1e-12
        )


def test_prior_log_density_is_logsumexp_of_components(rng):
    # per-component densities of the batch's own goal set, summed in plain Python
    cfg = small_cfg()
    nets = make_nets(cfg)
    batch = make_batch(rng, n=1, goal_sets=[rng.normal(size=(4, GOAL_DIM))])
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    state = batch.states[0]
    for _ in range(20):
        action = rng.uniform(-0.9, 0.9, size=ACTION_DIM)
        comps = [
            float(gaussian_log_prob(nets.target_actor.head(state, g), action))
            for g in batch.goal_sets[0]
        ]
        expected = math.log(sum(math.exp(c) for c in comps) / 4.0)
        assert abs(element_log_prob(priors, 0, action) - expected) <= 1e-12


def test_prior_samples_follow_the_exact_mixture_density():
    # 1-D unsquashed prior whose mean is its goal: three separated components
    prior_net = PolicyNet(1, 1, 1, hidden_sizes=(), squash=False, rng=0)
    prior_net.set_params({"w0": np.array([[0.0, 0.0], [1.0, 0.0]]),
                          "b0": np.array([0.0, np.log(0.5)])})
    goals = np.array([[-2.0], [0.5], [3.0]])
    priors = BatchedHgrPriors(np.zeros((1, 1)), goals[None], np.array([3]), prior_net)
    n = 20_000
    draws = priors.sample_actions(n, np.random.default_rng(3))[0, :, 0]
    edges = np.linspace(-4.0, 5.0, 19)
    counts, _ = np.histogram(draws, bins=edges)
    # bin probabilities by midpoint quadrature of the oracle density
    width = (edges[1] - edges[0]) / 50
    probs = np.array([
        sum(math.exp(element_log_prob(priors, 0, np.array([x])))
            for x in lo + width * (np.arange(50) + 0.5)) * width
        for lo in edges[:-1]
    ])
    assert probs.sum() == pytest.approx(1.0, abs=1e-3)
    expected = n * probs
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    assert chi2 <= dof + 3 * np.sqrt(2 * dof)


def test_batched_priors_use_the_trajectory_goal_set(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    states = np.cumsum(rng.normal(size=(7, STATE_DIM)), axis=0)
    traj = Trajectory(states, rng.uniform(-1, 1, (6, ACTION_DIM)),
                      states[:, :GOAL_DIM].copy(), rng.normal(size=GOAL_DIM))
    buf = HerBuffer(STATE_DIM, ACTION_DIM, GOAL_DIM, success_tolerance=0.05)
    buf.store_trajectory(traj)
    batch = buf.sample_batch(16, HerConfig(), rng)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    assert priors.prior_net is nets.target_actor
    np.testing.assert_array_equal(priors.counts, 7)  # fraction 1.0 keeps the full set
    for goals in priors.padded_goals:
        np.testing.assert_array_equal(goals, traj.achieved_goals)


def test_batched_priors_match_per_element(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    batch = make_batch(rng, n=5)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    np.testing.assert_array_equal(priors.states, batch.states)
    np.testing.assert_array_equal(priors.counts, batch.goal_counts)
    for i, goal_set in enumerate(batch.goal_sets):
        np.testing.assert_array_equal(priors.padded_goals[i, : priors.counts[i]], goal_set)


def test_prior_goals_at_k_equal_to_the_set_size_are_the_whole_set(rng):
    nets = make_nets(small_cfg())
    sizes = (4, 2, 4, 7)
    batch = make_batch(rng, n=4, goal_sets=[rng.normal(size=(k, GOAL_DIM)) for k in sizes])
    priors = build_hgr_priors_batch(batch, nets, small_cfg(hindsight_goals=4), rng)
    np.testing.assert_array_equal(priors.counts, 4)
    members = [{tuple(g) for g in goal_set} for goal_set in batch.goal_sets]
    drawn = [[tuple(g) for g in goals] for goals in priors.padded_goals]
    for i in (0, 2):  # K = |set|: the whole set, in first-visit order
        np.testing.assert_array_equal(priors.padded_goals[i], batch.goal_sets[i])
    assert set(drawn[1]) <= members[1]  # K > |set|: drawn with replacement
    assert len(set(drawn[3])) == 4 and set(drawn[3]) <= members[3]  # K < |set|: distinct
    # with every K equal to its set size the batch's own table is used
    whole = build_hgr_priors_batch(batch, nets, small_cfg(), rng)
    assert whole.padded_goals is batch.goal_table


@pytest.mark.parametrize("k", [1, 3])
def test_prior_goals_from_a_singleton_set(rng, k):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, n=1, goal_sets=[np.array([[0.25, -0.5]])])
    priors = build_hgr_priors_batch(batch, nets, small_cfg(hindsight_goals=k), rng)
    np.testing.assert_array_equal(priors.padded_goals[0], np.tile([0.25, -0.5], (k, 1)))


def test_prior_goals_are_drawn_uniformly_from_the_set(rng):
    nets = make_nets(small_cfg())
    goal_set = rng.normal(size=(10, GOAL_DIM))
    n = 10_000
    batch = make_batch(rng, n=n, goal_sets=[goal_set] * n)
    priors = build_hgr_priors_batch(batch, nets, small_cfg(hindsight_goals=1), rng)
    drawn = priors.padded_goals[:, 0]
    member = np.argmin(np.linalg.norm(drawn[:, None] - goal_set[None], axis=2), axis=1)
    np.testing.assert_array_equal(goal_set[member], drawn)
    counts = np.bincount(member, minlength=len(goal_set))
    expected = n / len(goal_set)
    # chi-square against uniform: with n-1 dof the statistic stays well below
    # the 3-sigma-ish bound dof + 3 * sqrt(2 dof)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(goal_set) - 1
    assert chi2 <= dof + 3 * np.sqrt(2 * dof)


def test_batched_prior_sampling_shape_and_box(rng):
    cfg = small_cfg(prior_mc_samples=3)
    nets = make_nets(cfg)
    batch = make_batch(rng, n=6)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    actions = priors.sample_actions(3, rng)
    assert actions.shape == (6, 3, ACTION_DIM)
    assert np.all(np.abs(actions) < 1.0)


def test_fixed_k_subsampling(rng):
    cfg = small_cfg(hindsight_goals=2)
    nets = make_nets(cfg)
    batch = make_batch(rng, n=4)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    assert np.all(priors.counts == 2)


# -- hgr ----------------------------------------------------------------------


def unit_gaussian_actor(mean_bias, squash=False):
    """1-D actor with constant output: mean = mean_bias, std = 1."""
    actor = PolicyNet(1, 1, 1, hidden_sizes=(), squash=squash, rng=0)
    actor.set_params({"w0": np.zeros((2, 2)), "b0": np.array([mean_bias, 0.0])})
    return actor


def one_element_batch(goal_set):
    return replay_batch(
        states=np.zeros((1, 1)), actions=np.zeros((1, 1)), next_states=np.zeros((1, 1)),
        original_goals=np.zeros((1, 1)), goals=np.zeros((1, 1)),
        rewards=np.zeros(1), is_relabeled=np.array([False]),
        t=np.zeros(1, dtype=int), relabel_t=np.array([-1]),
        goal_sets=[goal_set],
    )


def _self_case_gradient_norm(m, seed):
    cfg = GchrConfig(hidden_sizes=(), prior_mc_samples=m, beta=0.2)
    actor = unit_gaussian_actor(0.3, squash=False)
    prior_net = actor.copy()
    batch = one_element_batch(np.zeros((1, 1)))
    priors = BatchedHgrPriors(batch.states, np.zeros((1, 1, 1)), np.array([1]), prior_net)
    rng = np.random.default_rng(seed)
    actions = priors.sample_actions(m, rng)
    value, grads = hgr_loss(batch, priors, actor, cfg, rng, prior_actions=actions)
    norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    return value, norm, actions, actor


def test_hgr_self_case_matches_entropy_and_small_gradient():
    # actor == single-component prior: the cross-entropy estimator targets the
    # prior's entropy and the expected actor gradient is zero. The Gaussian
    # score has per-sample std (1, sqrt 2), so the norm is held to a 3-SE
    # bound at M=256 and shrinks below 0.05 by M=4096.
    value, norm, actions, actor = _self_case_gradient_norm(256, seed=5)
    analytic_entropy = 0.5 * np.log(2 * np.pi * np.e)  # std = 1
    logps = gaussian_log_prob(actor.head(np.zeros((256, 1)), np.zeros((256, 1))),
                              actions.reshape(256, 1))
    stderr = float(logps.std(ddof=1) / np.sqrt(256))
    assert abs(value - analytic_entropy) <= 3 * stderr
    assert norm <= 3 * np.sqrt(3.0 / 256)

    _, norm_large, _, _ = _self_case_gradient_norm(4096, seed=5)
    assert norm_large <= 0.05
    assert norm_large < norm


def test_hgr_mismatched_prior_costs_more_than_matched(rng):
    cfg = GchrConfig(hidden_sizes=(), prior_mc_samples=512)
    actor = unit_gaussian_actor(0.0, squash=False)
    near = BatchedHgrPriors(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.array([1]), actor.copy())
    far_net = unit_gaussian_actor(6.0, squash=False)
    far = BatchedHgrPriors(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.array([1]), far_net)
    batch = one_element_batch(np.zeros((1, 1)))
    near_loss, _ = hgr_loss(batch, near, actor, cfg, np.random.default_rng(0))
    far_loss, _ = hgr_loss(batch, far, actor, cfg, np.random.default_rng(0))
    assert far_loss > near_loss + 1.0


def test_hgr_recovers_closed_form_gaussian_kl():
    # KL(N(mu_p, 1) || N(mu_q, 1)) = (mu_p - mu_q)^2 / 2; the estimator minus
    # the prior entropy should land within 3 standard errors
    m = 10_000
    for gap in (0.0, 0.5, 2.0):
        cfg = GchrConfig(hidden_sizes=(), prior_mc_samples=m)
        actor = unit_gaussian_actor(0.0, squash=False)
        prior_net = unit_gaussian_actor(gap, squash=False)
        priors = BatchedHgrPriors(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.array([1]), prior_net)
        batch = one_element_batch(np.zeros((1, 1)))
        rng = np.random.default_rng(int(gap * 10) + 7)
        actions = priors.sample_actions(m, rng)
        cross_entropy, _ = hgr_loss(batch, priors, actor, cfg, rng, prior_actions=actions)
        logps = gaussian_log_prob(actor.head(np.zeros((m, 1)), np.zeros((m, 1))),
                                  actions.reshape(m, 1))
        stderr = float(logps.std(ddof=1) / np.sqrt(m))
        prior_entropy = 0.5 * np.log(2 * np.pi * np.e)
        kl_estimate = cross_entropy - prior_entropy
        assert abs(kl_estimate - gap**2 / 2) <= 3 * stderr


def test_hgr_gradients_match_finite_differences(rng):
    cfg = small_cfg(prior_mc_samples=3)
    nets = make_nets(cfg)
    batch = make_batch(rng, n=5)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    frozen = priors.sample_actions(3, rng)
    _, analytic = hgr_loss(batch, priors, nets.actor, cfg, rng, prior_actions=frozen)

    def loss_fn(params):
        return hgr_loss(batch, priors, with_params(nets.actor, params), cfg, rng,
                        prior_actions=frozen)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.actor.params().items()})
    assert max_relative_grad_error(analytic, fd) <= 1e-4


def test_hgr_gradient_unbiased_for_forward_kl(rng):
    # mean of R independent M=64 estimates vs the quadrature gradient of
    # KL(prior || pi_theta), per coordinate within 3 standard errors
    cfg = GchrConfig(hidden_sizes=(), prior_mc_samples=64)
    actor = PolicyNet(1, 1, 1, hidden_sizes=(), squash=False, rng=3)
    prior_net = unit_gaussian_actor(0.7, squash=False)
    batch = one_element_batch(np.zeros((1, 1)))
    priors = BatchedHgrPriors(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.array([1]), prior_net)

    # quadrature of -E_{a ~ p}[grad log pi(a)] over a wide grid
    grid = np.linspace(-12, 12, 4801)
    weights = np.gradient(grid)
    prior_head = prior_net.head(np.zeros((grid.size, 1)), np.zeros((grid.size, 1)))
    p_density = np.exp(gaussian_log_prob(prior_head, grid[:, None]))
    head, cache, raw = actor.head_cached(np.zeros((grid.size, 1)), np.zeros((grid.size, 1)))
    from gchr.nn import gaussian_log_prob_grads

    _, d_mean, d_log_std = gaussian_log_prob_grads(head, grid[:, None])
    scale = -(p_density * weights)[:, None]
    true_grads, _ = actor.backward_from_head(cache, raw, scale * d_mean, scale * d_log_std)

    runs = 200
    samples = {name: [] for name in true_grads}
    for r in range(runs):
        run_rng = np.random.default_rng(1000 + r)
        _, grads = hgr_loss(batch, priors, actor, cfg, run_rng)
        for name, g in grads.items():
            samples[name].append(g)
    for name in true_grads:
        stack = np.array(samples[name])
        mean = stack.mean(axis=0)
        stderr = stack.std(axis=0, ddof=1) / np.sqrt(runs)
        assert np.all(np.abs(mean - true_grads[name]) <= 3 * stderr + 1e-12)


# -- actor loss ---------------------------------------------------------------


def test_actor_loss_decomposes_exactly(rng):
    cfg = small_cfg(alpha=0.7, beta=0.4, prior_mc_samples=2)
    nets = make_nets(cfg)
    batch = make_batch(rng, relabeled="mixed")
    if not batch.is_relabeled.any():
        batch.is_relabeled[0] = True
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    noise = np.random.default_rng(9).standard_normal((len(batch), ACTION_DIM))
    frozen = priors.sample_actions(cfg.prior_mc_samples, np.random.default_rng(10))

    loss_full, _, parts = actor_loss(batch, priors, nets, cfg, rng,
                                     noise=noise, prior_actions=frozen)
    cfg_bare = small_cfg(alpha=0.0, beta=0.0)
    loss_bare, _, _ = actor_loss(batch, None, nets, cfg_bare, rng, noise=noise)
    hsr_val, _ = hsr_loss(batch.relabeled_subset(), nets.actor)
    hgr_val, _ = hgr_loss(batch, priors, nets.actor, cfg, rng, prior_actions=frozen)
    assert loss_full == loss_bare + 0.7 * hsr_val + 0.4 * hgr_val
    assert parts["hsr"] == hsr_val and parts["hgr"] == hgr_val


@pytest.mark.parametrize("unrelabeled_goal_moved", [False, True])
def test_fused_actor_pass_matches_separate_terms(rng, monkeypatch, unrelabeled_goal_moved):
    # the fused pass sums head gradients before one backward; the separate
    # terms each run their own pass, so only the summation order differs
    cfg = small_cfg(alpha=0.7, beta=0.4, prior_mc_samples=3)
    nets = make_nets(cfg)
    batch = make_batch(rng, n=12, relabeled="mixed")
    batch.is_relabeled[:2] = [True, False]
    batch.goals[0] += 0.5
    if unrelabeled_goal_moved:
        # an unrelabeled sample whose goal still differs from its original
        # goal must get its own prior row
        batch.goals[1] += 0.5
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    noise = rng.standard_normal((len(batch), ACTION_DIM))
    frozen = priors.sample_actions(cfg.prior_mc_samples, rng)

    _, fused, _ = actor_loss(batch, priors, nets, cfg, rng, noise=noise, prior_actions=frozen)
    _, task, _ = actor_loss(batch, None, nets, small_cfg(alpha=0.0, beta=0.0), rng, noise=noise)
    _, hsr = hsr_loss(batch.relabeled_subset(), nets.actor)
    _, hgr = hgr_loss(batch, priors, nets.actor, cfg, rng, prior_actions=frozen)
    for name in fused:
        np.testing.assert_allclose(fused[name], task[name] + 0.7 * hsr[name] + 0.4 * hgr[name],
                                   rtol=1e-10)

    # one update runs the actor network forward and backward exactly once
    agent = GchrAgent(STATE_DIM, GOAL_DIM, ACTION_DIM, cfg, seed=1)
    buf = HerBuffer(STATE_DIM, ACTION_DIM, GOAL_DIM, success_tolerance=0.05)
    for _ in range(3):
        states = np.cumsum(rng.normal(scale=0.2, size=(9, STATE_DIM)), axis=0)
        buf.store_trajectory(Trajectory(states, rng.uniform(-1, 1, (8, ACTION_DIM)),
                                        states[:, :GOAL_DIM].copy(), rng.normal(size=GOAL_DIM)))
    calls = {"forward": 0, "backward": 0}
    actor_mlp = agent.nets.actor.mlp

    def counting(kind, method):
        def wrapper(self, *args):
            calls[kind] += self is actor_mlp
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(Mlp, "forward_cached", counting("forward", Mlp.forward_cached))
    monkeypatch.setattr(Mlp, "backward", counting("backward", Mlp.backward))
    metrics = agent.update(buf, HerConfig(relabel_ratio=0.5), rng)
    assert metrics["hsr_loss"] != 0.0 and metrics["hgr_loss"] != 0.0
    assert calls == {"forward": 1, "backward": 1}


def test_actor_loss_alpha_beta_zero_is_pure_q_maximization(rng):
    cfg = small_cfg(alpha=0.0, beta=0.0)
    nets = make_nets(cfg)
    batch = make_batch(rng)
    noise = np.random.default_rng(4).standard_normal((len(batch), ACTION_DIM))
    loss, _, parts = actor_loss(batch, None, nets, cfg, rng, noise=noise)
    head = nets.actor.head(batch.states, batch.goals)
    from gchr.nn import reparam_action

    q = nets.critic.q(batch.states, reparam_action(head, noise), batch.goals)
    assert loss == pytest.approx(-float(np.mean(q)))
    assert parts["hsr"] == 0.0 and parts["hgr"] == 0.0


def test_actor_loss_gradients_match_finite_differences(rng):
    # ~20-parameter actor with frozen MC noise, combined objective
    cfg = GchrConfig(hidden_sizes=(), alpha=0.6, beta=0.3, prior_mc_samples=2,
                     batch_size=4, gamma=0.9)
    nets = AgentNets.create(2, 1, 2, cfg, seed=2)
    n = 4
    local = np.random.default_rng(21)
    goal_sets = [local.normal(size=(2, 1)) for _ in range(n)]
    batch = replay_batch(
        states=local.normal(size=(n, 2)), actions=local.uniform(-0.8, 0.8, (n, 2)),
        next_states=local.normal(size=(n, 2)), original_goals=local.normal(size=(n, 1)),
        goals=local.normal(size=(n, 1)), rewards=np.zeros(n),
        is_relabeled=np.array([True, True, False, False]),
        t=np.zeros(n, dtype=int), relabel_t=np.array([0, 0, -1, -1]),
        goal_sets=goal_sets,
    )
    priors = build_hgr_priors_batch(batch, nets, cfg, local)
    noise = local.standard_normal((n, 2))
    frozen = priors.sample_actions(2, local)
    _, analytic, _ = actor_loss(batch, priors, nets, cfg, local,
                                noise=noise, prior_actions=frozen)

    def loss_fn(params):
        probe = AgentNets(
            actor=with_params(nets.actor, params), critic=nets.critic,
            target_actor=nets.target_actor, target_critic=nets.target_critic,
            delayed_actor=nets.delayed_actor,
        )
        return actor_loss(batch, priors, probe, cfg, local,
                          noise=noise, prior_actions=frozen)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.actor.params().items()})
    assert max_relative_grad_error(analytic, fd) <= 1e-4


def test_actor_entropy_bonus_gradients_match_finite_differences(rng):
    cfg = GchrConfig(hidden_sizes=(4,), alpha=0.0, beta=0.0, entropy_coeff=0.2,
                     batch_size=4, gamma=0.9)
    nets = AgentNets.create(2, 1, 2, cfg, seed=5)
    local = np.random.default_rng(31)
    n = 4
    batch = replay_batch(
        states=local.normal(size=(n, 2)), actions=local.uniform(-0.8, 0.8, (n, 2)),
        next_states=local.normal(size=(n, 2)), original_goals=local.normal(size=(n, 1)),
        goals=local.normal(size=(n, 1)), rewards=np.zeros(n),
        is_relabeled=np.zeros(n, dtype=bool), t=np.zeros(n, dtype=int),
        relabel_t=np.full(n, -1), goal_sets=[local.normal(size=(1, 1))] * n,
    )
    noise = local.standard_normal((n, 2))
    _, analytic, parts = actor_loss(batch, None, nets, cfg, local, noise=noise)
    assert parts["entropy"] != 0.0

    def loss_fn(params):
        probe = AgentNets(
            actor=with_params(nets.actor, params), critic=nets.critic,
            target_actor=nets.target_actor, target_critic=nets.target_critic,
            delayed_actor=nets.delayed_actor,
        )
        return actor_loss(batch, None, probe, cfg, local, noise=noise)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.actor.params().items()})
    assert max_relative_grad_error(analytic, fd) <= 1e-4


# -- target updates -----------------------------------------------------------


def test_polyak_zero_tracks_online_exactly(rng):
    cfg = small_cfg()
    object.__setattr__(cfg, "polyak", 1e-12)  # effectively rho = 0
    nets = make_nets(cfg)
    new_actor = {k: v + rng.normal(size=v.shape) for k, v in nets.actor.params().items()}
    nets.actor.set_params(new_actor)
    update_targets(nets, cfg, 1)
    for k, v in nets.target_actor.params().items():
        np.testing.assert_allclose(v, new_actor[k], atol=1e-9)


def test_target_converges_geometrically_scalar_recursion(rng):
    cfg = small_cfg(polyak=0.95)
    nets = make_nets(cfg)
    theta = {k: v + 1.0 for k, v in nets.actor.params().items()}
    nets.actor.set_params(theta)
    t0 = {k: v.copy() for k, v in nets.target_actor.params().items()}
    n = 17
    for step in range(1, n + 1):
        update_targets(nets, cfg, step)
    # scalar recursion oracle on a single entry
    name = "w0"
    scalar_target = t0[name][0, 0]
    scalar_theta = theta[name][0, 0]
    for _ in range(n):
        scalar_target = 0.95 * scalar_target + 0.05 * scalar_theta
    assert nets.target_actor.params()[name][0, 0] == pytest.approx(scalar_target, abs=1e-12)
    # equivalently: the gap decays by rho^n
    expected_gap = (t0[name][0, 0] - scalar_theta) * 0.95**n
    assert nets.target_actor.params()[name][0, 0] - scalar_theta == pytest.approx(
        expected_gap, abs=1e-12
    )


def test_delayed_copy_refreshes_every_tau_delay(rng):
    cfg = small_cfg(prior_source="delayed_copy", tau_delay=3)
    nets = make_nets(cfg)
    initial = {k: v.copy() for k, v in nets.delayed_actor.params().items()}
    moved = {k: v + 1.0 for k, v in nets.actor.params().items()}
    nets.actor.set_params(moved)
    update_targets(nets, cfg, 1)
    update_targets(nets, cfg, 2)
    np.testing.assert_array_equal(nets.delayed_actor.params()["w0"], initial["w0"])
    update_targets(nets, cfg, 3)
    np.testing.assert_array_equal(nets.delayed_actor.params()["w0"], moved["w0"])
