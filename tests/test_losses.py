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
    resolve_k,
    update_targets,
)
from gchr.nn import Mlp, PolicyNet, gaussian_log_prob
from gchr.replay import GoalLookup, HerBuffer, HerConfig, ReplayBatch, Trajectory

from oracles import (
    actor_term,
    element_major_hgr_terms,
    finite_difference_grads,
    max_relative_grad_error,
    mixture_log_prob,
    n_trajectories,
    padded_table_prior_actions,
    padded_table_priors,
    scalar_first_visit_rows,
    separate_pass_actor_loss,
    source_trajectories,
)

STATE_DIM, GOAL_DIM, ACTION_DIM = 3, 2, 2


def small_cfg(**kw):
    defaults = dict(hidden_sizes=(4,), batch_size=8, gamma=0.9)
    defaults.update(kw)
    return GchrConfig(**defaults)


def make_nets(cfg, seed=0):
    return AgentNets.create(STATE_DIM, GOAL_DIM, ACTION_DIM, cfg, seed=seed)


def goal_lookup(goal_sets):
    """A GoalLookup over explicit per-element goal sets, packed end to end:
    member j of element i sits j rows past the start of its set, and its
    padding offsets are 0, as the buffer's are."""
    counts = np.array([len(goal_set) for goal_set in goal_sets])
    members = np.arange(counts.max())
    offsets = np.where(members < counts[:, None], members, 0)
    bases = np.cumsum(counts) - counts
    return GoalLookup(np.concatenate(goal_sets, dtype=np.float64), offsets,
                      np.arange(len(goal_sets)), bases)


def replay_batch(goal_sets, reward_convention="zero_one", **arrays):
    """A ReplayBatch whose elements have the given hindsight goal sets."""
    counts = np.array([len(gs) for gs in goal_sets], dtype=np.int64)
    return ReplayBatch(goal_counts=counts, goal_lookup=goal_lookup(goal_sets),
                       reward_convention=reward_convention, **arrays)


def one_goal_priors(prior_net):
    """Priors for one element at state 0 with the single component goal 0."""
    return BatchedHgrPriors(np.zeros((1, 1)), goal_lookup([np.zeros((1, 1))]), np.array([1]),
                            prior_net)


def component_goal_sets(priors):
    """Each element's K component goals, in component order."""
    return [priors.component_goals(i, np.arange(k)) for i, k in enumerate(priors.counts)]


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


def hsr_on(actor, batch):
    """HSR on its own actor pass over the batch's (s, g) rows: (loss, gradient)."""
    return actor_term(actor, batch.states, batch.goals,
                      lambda head: hsr_loss(head, batch.actions))


def hgr_on(actor, batch, priors, cfg, rng, prior_actions=None):
    """HGR on its own actor pass over the batch's (s, g_orig) rows: (loss, gradient)."""
    return actor_term(actor, batch.states, batch.original_goals,
                      lambda head: hgr_loss(batch, priors, head, cfg, rng,
                                            prior_actions=prior_actions))


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


def test_neg_one_zero_batch_clips_targets_to_its_value_range(rng):
    # the buffer's convention reaches the critic through the batch: targets
    # clip to [-1/(1-gamma), 0] = [-50, 0], not to zero_one's [0, 50]
    cfg = small_cfg(gamma=0.98)
    nets = make_nets(cfg)
    inflated = {k: v * 400.0 for k, v in nets.target_critic.params().items()}
    nets.target_critic.set_params(inflated)
    states = np.cumsum(rng.normal(size=(7, STATE_DIM)), axis=0)
    traj = Trajectory(states, rng.uniform(-1, 1, (6, ACTION_DIM)),
                      states[:, :GOAL_DIM].copy(), rng.normal(size=GOAL_DIM))
    buf = HerBuffer(STATE_DIM, ACTION_DIM, GOAL_DIM, success_tolerance=0.05,
                    reward_convention="neg_one_zero")
    buf.store_trajectory(traj)
    batch = buf.sample_batch(64, HerConfig(), rng)
    assert batch.reward_convention == "neg_one_zero"
    raw = batch.rewards + 0.98 * nets.target_critic.q(
        batch.next_states,
        nets.target_actor.mean_action(batch.next_states, batch.goals),
        batch.goals,
    )
    assert raw.min() < -50.0 and np.any((raw > 0.0) & (raw < 50.0))  # both bounds bind
    loss, _ = critic_loss(batch, nets, cfg)
    q = nets.critic.q(batch.states, batch.actions, batch.goals)
    assert loss == pytest.approx(float(np.mean((q - np.clip(raw, -50.0, 0.0)) ** 2)))
    assert loss != pytest.approx(float(np.mean((q - np.clip(raw, 0.0, 50.0)) ** 2)))


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
    assert max_relative_grad_error(nets.critic.params(analytic), fd) <= 1e-4


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
        _, grad = critic_loss(batch, nets, cfg)
        adam_step(nets.critic.mlp.theta, grad, opt)
        update_targets(nets, cfg, step)
    # scalar iteration oracle: y <- r + gamma * y converges to r / (1 - gamma)
    y = 0.0
    for _ in range(200):
        y = 0.8 + 0.5 * y
    assert y == pytest.approx(1.6)
    q = float(nets.critic.q(s, a, g)[0])
    assert abs(q - y) <= 1e-6


# -- hsr ----------------------------------------------------------------------


def test_hsr_single_sample_is_negative_log_prob(rng):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, n=1, relabeled="all")
    head = nets.actor.head(batch.states, batch.goals)
    loss, _, _ = hsr_loss(head, batch.actions)
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
        losses.append(hsr_on(actor, batch)[0])
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
    _, grad = hsr_on(actor, batch)
    grads = actor.params(grad)
    sigma2 = np.exp(2 * log_std_bias)
    closed_form = float(np.mean((mean_bias - actions) / sigma2))
    assert grads["b0"][0] == pytest.approx(closed_form, rel=1e-12)

    def loss_fn(params):
        return hsr_on(with_params(actor, params), batch)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in actor.params().items()})
    assert max_relative_grad_error(grads, fd) <= 1e-4


def test_hsr_gradients_match_finite_differences_squashed(rng):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, relabeled="all")
    _, analytic = hsr_on(nets.actor, batch)

    def loss_fn(params):
        return hsr_on(with_params(nets.actor, params), batch)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.actor.params().items()})
    assert max_relative_grad_error(nets.actor.params(analytic), fd) <= 1e-4


# -- hindsight prior ----------------------------------------------------------


def element_log_prob(priors, i, action):
    """Exact mixture log-density of element i's prior, by the oracle."""
    k = int(priors.counts[i])
    return mixture_log_prob(priors.prior_net, priors.states[i],
                            priors.component_goals(i, np.arange(k)),
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
    priors = BatchedHgrPriors(np.zeros((1, 1)), goal_lookup([goals]), np.array([3]), prior_net)
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
    for goals in component_goal_sets(priors):
        np.testing.assert_array_equal(goals, traj.achieved_goals)


def test_batched_priors_match_per_element(rng):
    cfg = small_cfg()
    nets = make_nets(cfg)
    batch = make_batch(rng, n=5)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    np.testing.assert_array_equal(priors.states, batch.states)
    np.testing.assert_array_equal(priors.counts, batch.goal_counts)
    for goals, goal_set in zip(component_goal_sets(priors), batch.goal_sets, strict=True):
        np.testing.assert_array_equal(goals, goal_set)


def test_prior_goals_at_k_equal_to_the_set_size_are_the_whole_set(rng):
    nets = make_nets(small_cfg())
    # fraction 0.75 gives K = ceil(0.75 |set|): 2, 3, 1 and 6
    sizes = (2, 4, 1, 7)
    batch = make_batch(rng, n=4, goal_sets=[rng.normal(size=(k, GOAL_DIM)) for k in sizes])
    priors = build_hgr_priors_batch(batch, nets, small_cfg(hindsight_goal_fraction=0.75), rng)
    np.testing.assert_array_equal(priors.counts, [2, 3, 1, 6])
    members = [{tuple(g) for g in goal_set} for goal_set in batch.goal_sets]
    drawn = [[tuple(g) for g in goals] for goals in component_goal_sets(priors)]
    for i in (0, 2):  # K = |set|: the whole set, in first-visit order
        np.testing.assert_array_equal(drawn[i], batch.goal_sets[i])
    for i in (1, 3):  # K < |set|: distinct members
        assert len(set(drawn[i])) == priors.counts[i] and set(drawn[i]) <= members[i]
    # with every K equal to its set size the components are the batch's own
    # goal sets: no member table
    whole = build_hgr_priors_batch(batch, nets, small_cfg(), rng)
    assert whole.members is None and whole.goal_lookup is batch.goal_lookup


def test_prior_goals_from_a_singleton_set(rng):
    nets = make_nets(small_cfg())
    batch = make_batch(rng, n=1, goal_sets=[np.array([[0.25, -0.5]])])
    for fraction in (0.1, 1.0):  # every fraction keeps the one goal
        cfg = small_cfg(hindsight_goal_fraction=fraction)
        priors = build_hgr_priors_batch(batch, nets, cfg, rng)
        np.testing.assert_array_equal(priors.counts, [1])
        np.testing.assert_array_equal(component_goal_sets(priors)[0], [[0.25, -0.5]])


def test_prior_goals_are_drawn_uniformly_from_the_set(rng):
    nets = make_nets(small_cfg())
    goal_set = rng.normal(size=(10, GOAL_DIM))
    n = 10_000
    batch = make_batch(rng, n=n, goal_sets=[goal_set] * n)
    # fraction 0.05 of 10 goals: K = 1
    priors = build_hgr_priors_batch(batch, nets, small_cfg(hindsight_goal_fraction=0.05), rng)
    np.testing.assert_array_equal(priors.counts, 1)
    drawn = priors.component_goals(np.arange(n), 0)
    member = np.argmin(np.linalg.norm(drawn[:, None] - goal_set[None], axis=2), axis=1)
    np.testing.assert_array_equal(goal_set[member], drawn)
    counts = np.bincount(member, minlength=len(goal_set))
    expected = n / len(goal_set)
    # chi-square against uniform: with n-1 dof the statistic stays well below
    # the 3-sigma-ish bound dof + 3 * sqrt(2 dof)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(goal_set) - 1
    assert chi2 <= dof + 3 * np.sqrt(2 * dof)


def test_prior_subsets_include_every_member_uniformly(rng):
    # K < |set|: each element keeps a uniform 3-subset of its goals, so each
    # of a 10-goal set's members is included with probability 3/10; every
    # other element holds a 12-goal set, so the 10-goal rows carry padding
    nets = make_nets(small_cfg())
    goal_set, wider = rng.normal(size=(10, GOAL_DIM)), rng.normal(size=(12, GOAL_DIM))
    n, k = 10_000, 3
    batch = make_batch(rng, n=n, goal_sets=[goal_set, wider] * (n // 2))
    # fraction 0.25: K = ceil(2.5) = 3 of 10 goals and ceil(3.0) = 3 of 12
    priors = build_hgr_priors_batch(batch, nets, small_cfg(hindsight_goal_fraction=0.25), rng)
    np.testing.assert_array_equal(priors.counts, k)
    drawn = priors.component_goals(np.arange(0, n, 2)[:, None], np.arange(k))
    member = np.argmin(np.linalg.norm(drawn[:, :, None] - goal_set, axis=3), axis=2)
    np.testing.assert_array_equal(goal_set[member], drawn)
    assert all(len(set(row)) == k for row in member)  # without replacement
    counts = np.bincount(member.ravel(), minlength=len(goal_set))
    expected = n // 2 * k / len(goal_set)
    # without replacement the statistic's mean is below dof, so the bound holds
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


def test_k_fraction_subsampling(rng):
    cfg = small_cfg(hindsight_goal_fraction=0.5)
    nets = make_nets(cfg)
    batch = make_batch(rng, n=16)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    expected = np.maximum(1, np.ceil(0.5 * batch.goal_counts))
    np.testing.assert_array_equal(priors.counts, expected)
    assert np.all(priors.counts <= batch.goal_counts)
    for goals, goal_set in zip(component_goal_sets(priors), batch.goal_sets, strict=True):
        assert {tuple(g) for g in goals} <= {tuple(g) for g in goal_set}


@pytest.mark.parametrize("fraction", [1.0, 0.5, 0.2])
def test_index_gathered_prior_goals_equal_the_padded_table_route(fraction, monkeypatch):
    # a small buffer that evicts and compacts, with goal sets from one goal
    # to the whole trajectory; the reference goal sets come from the stored
    # trajectories, not from the buffer
    compactions = []
    compact = HerBuffer._compact
    monkeypatch.setattr(HerBuffer, "_compact",
                        lambda self: compactions.append(1) or compact(self))
    rng = np.random.default_rng(8)
    cfg = small_cfg(hindsight_goal_fraction=fraction, prior_mc_samples=3)
    nets = make_nets(cfg)
    buf = HerBuffer(STATE_DIM, ACTION_DIM, GOAL_DIM, success_tolerance=0.5, capacity=60)
    stored, subsets = [], 0
    for i in range(160):
        horizon = int(rng.integers(3, 16))
        walk = [0.0, 0.01, 0.05, 1.0][i % 4]
        states = np.cumsum(rng.normal(scale=walk, size=(horizon + 1, STATE_DIM)), axis=0)
        stored.append(Trajectory(states, rng.uniform(-1, 1, (horizon, ACTION_DIM)),
                                 states[:, :GOAL_DIM].copy(), rng.uniform(-1, 1, GOAL_DIM)))
        buf.store_trajectory(stored[-1])
        if i % 20 != 19:
            continue
        batch = buf.sample_batch(64, HerConfig(), rng)
        live = stored[-n_trajectories(buf):]
        goal_sets = [live[k].achieved_goals[scalar_first_visit_rows(live[k].achieved_goals,
                                                                     buf.goal_dedup_tol)]
                     for k in source_trajectories(live, batch)]
        ks = resolve_k(cfg, batch.goal_counts)
        subsets += int(np.sum(ks < batch.goal_counts))
        priors = build_hgr_priors_batch(batch, nets, cfg, np.random.default_rng(i))
        reference = padded_table_priors(goal_sets, ks, np.random.default_rng(i))
        np.testing.assert_array_equal(priors.counts, ks)
        for got, want, k in zip(component_goal_sets(priors), reference, ks, strict=True):
            assert got.tobytes() == want[:k].tobytes()
        actions = priors.sample_actions(3, np.random.default_rng(i))
        expected = padded_table_prior_actions(batch.states, reference, ks, priors.prior_net, 3,
                                              np.random.default_rng(i))
        assert actions.tobytes() == expected.tobytes()
    assert compactions and buf.n_transitions <= 60
    assert (subsets > 0) == (fraction < 1.0)


@pytest.mark.parametrize("n, m", [(1, 1), (5, 3), (64, 4), (7, 16)])
def test_draw_major_hgr_terms_equal_the_element_major_route(rng, n, m):
    cfg = small_cfg(prior_mc_samples=m)
    nets = make_nets(cfg)
    batch = make_batch(rng, n=n)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    head = nets.actor.head(batch.states, batch.original_goals)
    actions = priors.sample_actions(m, rng)
    got = hgr_loss(batch, priors, head, cfg, rng, prior_actions=actions)
    want = element_major_hgr_terms(head, actions)
    assert got[0] == want[0]
    for got_grad, want_grad in zip(got[1:], want[1:]):
        assert got_grad.tobytes() == want_grad.tobytes()


def test_actor_loss_critic_pass_computes_no_parameter_gradient(rng, monkeypatch):
    cfg = small_cfg()
    nets = make_nets(cfg)
    batch = make_batch(rng)
    priors = build_hgr_priors_batch(batch, nets, cfg, rng)
    passes, splits = [], []
    backward, split = Mlp.backward, Mlp._split

    def spy_backward(self, cache, grad_output, wrt="both"):
        before = len(splits)
        result = backward(self, cache, grad_output, wrt)
        # _split lays out a parameter gradient; nothing else calls it in a pass
        passes.append((self, result, len(splits) - before))
        return result

    monkeypatch.setattr(Mlp, "backward", spy_backward)
    monkeypatch.setattr(Mlp, "_split", lambda self, flat: splits.append(1) or split(self, flat))
    actor_loss(batch, priors, nets, cfg, rng)
    critic_loss(batch, nets, cfg)
    (critic_pass, actor_pass, critic_update) = passes
    assert critic_pass[0] is nets.critic.mlp
    assert critic_pass[1][0] is None and critic_pass[1][1] is not None and critic_pass[2] == 0
    for net, (grad, grad_input), n_splits in (actor_pass, critic_update):
        assert grad is not None and grad_input is None and n_splits == 1
    assert actor_pass[0] is nets.actor.mlp and critic_update[0] is nets.critic.mlp


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
    priors = one_goal_priors(prior_net)
    rng = np.random.default_rng(seed)
    actions = priors.sample_actions(m, rng)
    value, grad = hgr_on(actor, batch, priors, cfg, rng, prior_actions=actions)
    norm = np.sqrt(sum(float((g**2).sum()) for g in actor.params(grad).values()))
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
    near = one_goal_priors(actor.copy())
    far_net = unit_gaussian_actor(6.0, squash=False)
    far = one_goal_priors(far_net)
    batch = one_element_batch(np.zeros((1, 1)))
    near_loss, _ = hgr_on(actor, batch, near, cfg, np.random.default_rng(0))
    far_loss, _ = hgr_on(actor, batch, far, cfg, np.random.default_rng(0))
    assert far_loss > near_loss + 1.0


def test_hgr_recovers_closed_form_gaussian_kl():
    # KL(N(mu_p, 1) || N(mu_q, 1)) = (mu_p - mu_q)^2 / 2; the estimator minus
    # the prior entropy should land within 3 standard errors
    m = 10_000
    for gap in (0.0, 0.5, 2.0):
        cfg = GchrConfig(hidden_sizes=(), prior_mc_samples=m)
        actor = unit_gaussian_actor(0.0, squash=False)
        prior_net = unit_gaussian_actor(gap, squash=False)
        priors = one_goal_priors(prior_net)
        batch = one_element_batch(np.zeros((1, 1)))
        rng = np.random.default_rng(int(gap * 10) + 7)
        actions = priors.sample_actions(m, rng)
        cross_entropy, _ = hgr_on(actor, batch, priors, cfg, rng, prior_actions=actions)
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
    _, analytic = hgr_on(nets.actor, batch, priors, cfg, rng, prior_actions=frozen)

    def loss_fn(params):
        return hgr_on(with_params(nets.actor, params), batch, priors, cfg, rng,
                      prior_actions=frozen)[0]

    fd = finite_difference_grads(loss_fn, {k: v.copy() for k, v in nets.actor.params().items()})
    assert max_relative_grad_error(nets.actor.params(analytic), fd) <= 1e-4


def test_hgr_gradient_unbiased_for_forward_kl(rng):
    # mean of R independent M=64 estimates vs the quadrature gradient of
    # KL(prior || pi_theta), per coordinate within 3 standard errors
    cfg = GchrConfig(hidden_sizes=(), prior_mc_samples=64)
    actor = PolicyNet(1, 1, 1, hidden_sizes=(), squash=False, rng=3)
    prior_net = unit_gaussian_actor(0.7, squash=False)
    batch = one_element_batch(np.zeros((1, 1)))
    priors = one_goal_priors(prior_net)

    # quadrature of -E_{a ~ p}[grad log pi(a)] over a wide grid
    grid = np.linspace(-12, 12, 4801)
    weights = np.gradient(grid)
    prior_head = prior_net.head(np.zeros((grid.size, 1)), np.zeros((grid.size, 1)))
    p_density = np.exp(gaussian_log_prob(prior_head, grid[:, None]))
    head, cache, raw = actor.head_cached(np.zeros((grid.size, 1)), np.zeros((grid.size, 1)))
    from gchr.nn import gaussian_log_prob_grads

    _, d_mean, d_log_std = gaussian_log_prob_grads(head, grid[:, None])
    scale = -(p_density * weights)[:, None]
    true_grad = actor.backward_from_head(cache, raw, np.concatenate(
        [scale * d_mean, scale * d_log_std], axis=-1))
    true_grads = actor.params(true_grad)

    runs = 200
    samples = {name: [] for name in true_grads}
    for r in range(runs):
        run_rng = np.random.default_rng(1000 + r)
        _, grad = hgr_on(actor, batch, priors, cfg, run_rng)
        for name, g in actor.params(grad).items():
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
    loss_ref, _, ref = separate_pass_actor_loss(batch, priors, nets, cfg, rng, noise, frozen)
    assert loss_full == loss_ref
    assert parts == ref and ref["hsr"] != 0.0 and ref["hgr"] != 0.0


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
    _, separate, _ = separate_pass_actor_loss(batch, priors, nets, cfg, rng, noise, frozen)
    np.testing.assert_allclose(fused, separate, rtol=1e-10)

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
    assert max_relative_grad_error(nets.actor.params(analytic), fd) <= 1e-4


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
    assert max_relative_grad_error(nets.actor.params(analytic), fd) <= 1e-4


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
