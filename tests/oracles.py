"""Independent oracles shared by the test suite.

Everything in here deliberately avoids the library's vectorized code paths:
straight-line scalar arithmetic, central finite differences, geometric sums
and Monte-Carlo rollouts, so the tests check the implementation against a
second route rather than against itself.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


def straight_line_forward(weights, biases, x, activation="relu"):
    """Scalar re-computation of an MLP forward pass with plain Python loops."""
    h = [float(v) for v in x]
    n_layers = len(weights)
    for k in range(n_layers):
        w, b = weights[k], biases[k]
        out = []
        for j in range(w.shape[1]):
            s = float(b[j])
            for i in range(w.shape[0]):
                s += h[i] * float(w[i, j])
            out.append(s)
        if k < n_layers - 1:
            if activation == "relu":
                h = [max(0.0, v) for v in out]
            else:
                h = [float(np.tanh(v)) for v in out]
        else:
            h = out
    return np.array(h)


def scalar_first_visit_rows(goals, dedup_tol=0.0):
    """Greedy first-visit dedup, goal by goal: a goal is kept when it lies
    farther than dedup_tol from every goal kept before it. Returns the kept
    row indices in visit order."""
    kept = []
    for i, g in enumerate(goals):
        if all(np.linalg.norm(g - goals[k]) > dedup_tol for k in kept):
            kept.append(i)
    return np.array(kept, dtype=np.int64)


def source_trajectories(trajectories, batch):
    """For each sample of a replay batch, the index in `trajectories` of the
    one trajectory whose step t holds the sample's state and action. The
    lookup runs over the caller's own record of what it stored, not over
    the buffer's bookkeeping; a sample that matches no step raises KeyError."""
    steps = {}
    for i, traj in enumerate(trajectories):
        for t in range(traj.horizon):
            key = (t, traj.states[t].tobytes(), traj.actions[t].tobytes())
            if key in steps:
                raise ValueError(f"step {t} of trajectories {steps[key]} and {i} coincide")
            steps[key] = i
    return np.array([steps[(int(t), s.tobytes(), a.tobytes())]
                     for t, s, a in zip(batch.t, batch.states, batch.actions)], dtype=np.int64)


def reference_sample_batch(trajectories, batch_size, her, rng, success_tolerance,
                           reward_convention="zero_one", dedup_tol=0.0):
    """The batch HerBuffer.sample_batch should draw from `trajectories`, the
    live episodes oldest first, built element by element from that list.

    The draws come in the buffer's order: a transition uniform over all live
    steps, in episode then step order; then one relabel coin per element;
    then, under the future strategy, a relabel step uniform over [t, T].
    Rewards are the sparse reward of each pair's own norm, and goal sets the
    scalar first-visit dedup of each episode's achieved goals.
    """
    steps = [(k, t) for k, traj in enumerate(trajectories) for t in range(traj.horizon)]
    draws = rng.integers(0, len(steps), size=batch_size)
    relabel = rng.random(batch_size) < her.relabel_ratio
    source = [trajectories[steps[d][0]] for d in draws]
    t = np.array([steps[d][1] for d in draws], dtype=np.int64)
    horizons = np.array([traj.horizon for traj in source], dtype=np.int64)
    if her.strategy == "future":
        relabel_t = rng.integers(t, horizons + 1)
    else:
        relabel_t = horizons
    relabel_t = np.where(relabel, relabel_t, -1)
    goals = [traj.achieved_goals[rt] if rt >= 0 else traj.desired_goal
             for traj, rt in zip(source, relabel_t)]
    hits = [float(np.linalg.norm(traj.achieved_goals[step + 1] - goal) <= success_tolerance)
            for traj, step, goal in zip(source, t, goals)]
    goal_sets = [traj.achieved_goals[scalar_first_visit_rows(traj.achieved_goals, dedup_tol)]
                 for traj in source]
    return {
        "states": np.array([traj.states[step] for traj, step in zip(source, t)]),
        "actions": np.array([traj.actions[step] for traj, step in zip(source, t)]),
        "next_states": np.array([traj.states[step + 1] for traj, step in zip(source, t)]),
        "original_goals": np.array([traj.desired_goal for traj in source]),
        "goals": np.array(goals),
        "rewards": np.array(hits) - (0.0 if reward_convention == "zero_one" else 1.0),
        "is_relabeled": relabel,
        "t": t,
        "relabel_t": relabel_t,
        "goal_counts": np.array([len(goal_set) for goal_set in goal_sets], dtype=np.int64),
        "goal_sets": goal_sets,
    }


def mixture_log_prob(prior_net, state, goals, action):
    """Exact log-density of `action` under the equal-weight mixture of
    prior_net's conditionals at `state`, one component per goal: the
    reference for the hindsight priors. Each component is evaluated on its
    own and the mixture is a scalar logsumexp minus log K."""
    from gchr.nn import gaussian_log_prob

    logps = [float(gaussian_log_prob(prior_net.head(state, g), action)) for g in goals]
    peak = max(logps)
    return peak + math.log(sum(math.exp(lp - peak) for lp in logps)) - math.log(len(logps))


def padded_table_priors(goal_sets, ks, rng):
    """The hindsight priors' component goals by the padded-table route: the
    goal sets zero-padded into one (N, largest set, goal_dim) table, and each
    element's K components gathered from its row of the table (the whole row
    where K equals the set's size, the first K of an argsort of one
    random((rows, table width)) draw otherwise). Returns the (N, max K,
    goal_dim) component table; slots past an element's K are padding. The
    reference for the index-gathered components."""
    counts = np.array([len(goal_set) for goal_set in goal_sets])
    n, width = len(goal_sets), int(counts.max())
    table = np.zeros((n, width, np.shape(goal_sets[0])[-1]))
    for row, goal_set in zip(table, goal_sets):
        row[: len(goal_set)] = goal_set
    if np.array_equal(ks, counts):
        return table
    slot = np.arange(int(ks.max()))
    idx = np.where(slot < counts[:, None], slot, 0)
    under = ks < counts
    keys = rng.random((int(under.sum()), width))
    keys[np.arange(width) >= counts[under, None]] = np.inf
    idx[under] = np.argsort(keys, axis=1)[:, : len(slot)]
    return table[np.arange(n)[:, None], idx]


def padded_table_prior_actions(states, components, ks, prior_net, m, rng):
    """Prior actions drawn from a padded component table, with the states
    repeated and joined to the drawn goals by concatenation: the reference
    for BatchedHgrPriors.sample_actions."""
    from gchr.nn import reparam_action

    n = len(states)
    comp = np.floor(rng.random((n, m)) * ks[:, None]).astype(np.int64)
    goals = components[np.arange(n)[:, None], comp]
    head = prior_net.head(np.repeat(states, m, axis=0), goals.reshape(n * m, -1))
    noise = rng.standard_normal(head.mean.shape)
    return reparam_action(head, noise).reshape(n, m, -1)


def element_major_hgr_terms(head, prior_actions):
    """hgr_loss's value and head gradients with the draws scored in their
    (N, m, action_dim) layout, each head row broadcast over its m draws: the
    reference for the draw-major scoring."""
    from gchr.nn import DiagGaussianHead, gaussian_log_prob_grads

    n, m, _ = prior_actions.shape
    rows = DiagGaussianHead(head.mean[:, None], head.log_std[:, None], squash=head.squash)
    logp, d_mean, d_log_std = gaussian_log_prob_grads(rows, prior_actions)
    scale = -1.0 / (n * m)
    return (-float(np.mean(logp)), (scale * d_mean).sum(axis=1),
            (scale * d_log_std).sum(axis=1))


def per_rollout_eval(actor, env, n, seed_or_rng):
    """Mean-action evaluation stepping each episode alone, one env.step per
    episode and timestep: the reference for the lockstep run_eval. Same
    reset order and the same rng, so noise draws line up row for row."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    episodes = [env.reset(rng) for _ in range(n)]
    returns = np.zeros(n)
    vectorized = hasattr(actor, "mean_action")
    for _ in range(env.spec.horizon):
        if vectorized:
            states = np.array([es.state for es in episodes])
            goals = np.array([es.desired_goal for es in episodes])
            actions = actor.mean_action(states, goals)
        else:
            actions = [actor(es.state, es.desired_goal) for es in episodes]
        for i, es in enumerate(episodes):
            episodes[i], reward, _ = env.step(es, actions[i], rng)
            returns[i] += reward
    tol = env.spec.success_tolerance
    successes = [
        float(np.linalg.norm(es.achieved_goal - es.desired_goal)) <= tol for es in episodes
    ]
    return float(np.mean(successes)), float(returns.mean())


def per_episode_collection(env, n, action_fn, env_rng):
    """Collection stepping each episode alone, one env.step per episode and
    timestep: the reference for the lockstep collect_episodes. The n
    episodes are reset in the same order from the same rng; action_fn is
    called once per timestep on the stacked states and goals, so its draws
    are the lockstep run's, and each episode is stepped with its own row."""
    from gchr.replay import Trajectory

    episodes = [env.reset(env_rng) for _ in range(n)]
    states = [[es.state] for es in episodes]
    achieved = [[es.achieved_goal] for es in episodes]
    actions = [[] for _ in range(n)]
    for _ in range(env.spec.horizon):
        rows = action_fn(np.array([es.state for es in episodes]),
                         np.array([es.desired_goal for es in episodes]))
        for i, es in enumerate(episodes):
            episodes[i], _, _ = env.step(es, rows[i], env_rng)
            states[i].append(episodes[i].state)
            achieved[i].append(episodes[i].achieved_goal)
            actions[i].append(rows[i])
    return [Trajectory(np.array(states[i]), np.array(actions[i]), np.array(achieved[i]),
                       episodes[i].desired_goal) for i in range(n)]


def per_episode_reset(env, rng):
    """One episode's (state, desired goal), drawn with one rng call per
    coordinate pair or scalar and the env's own constants: the reference for
    GoalEnv.reset's single (n, k) uniform draw."""
    from gchr.envs import block_push, l_maze, point_reach

    if isinstance(env, point_reach.PointReach2D):
        pos = rng.uniform(-point_reach.START_JITTER, point_reach.START_JITTER, size=2)
        goal = rng.uniform(-point_reach.GOAL_RANGE, point_reach.GOAL_RANGE, size=2)
        return np.concatenate([pos, np.zeros(2)]), goal
    if isinstance(env, l_maze.LMaze2D):
        x0, x1, y0, y1 = l_maze.START_BOX
        pos = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        x0, x1, y0, y1 = l_maze.GOAL_BOX
        goal = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        return np.concatenate([pos, np.zeros(2)]), goal
    if isinstance(env, block_push.BlockPush2D):
        jitter = block_push.START_JITTER
        agent = block_push.AGENT_START + rng.uniform(-jitter, jitter, size=2)
        block = block_push.BLOCK_START + rng.uniform(-jitter, jitter, size=2)
        goal = rng.uniform(-block_push.GOAL_RANGE, block_push.GOAL_RANGE, size=2)
        return np.concatenate([agent, block]), goal
    raise TypeError(f"no per-episode reset for {type(env).__name__}")


def n_trajectories(buffer):
    """Live trajectories in a HerBuffer: its occupied slots."""
    return buffer._n_episodes


def store_counting_wraps(buffer, trajectory):
    """Store `trajectory` in a HerBuffer; 1 if that store moved the oldest
    slot back to the start of the ring, else 0."""
    oldest = buffer._oldest
    buffer.store_trajectory(trajectory)
    return int(buffer._oldest < oldest)


def _scalar_in_box(x, y, box):
    x0, x1, y0, y1 = box
    return x0 <= x <= x1 and y0 <= y <= y1


def _in_box(p, box):
    """Per point of shape (..., 2): inside the (x0, x1, y0, y1) box, edges included."""
    x0, x1, y0, y1 = box
    x, y = p[..., 0], p[..., 1]
    return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)


def goal_region_contains(goal):
    """True if a goal lies inside l_maze's desired top-right sampling region."""
    from gchr.envs.l_maze import GOAL_BOX

    return _in_box(np.asarray(goal), GOAL_BOX)


def scalar_l_maze_dynamics(state, action):
    """One l_maze step for one state with scalar branches: the full move if
    it stays free, else the x slide, else the y slide, else a stop."""
    from gchr.envs.l_maze import BOTTOM_STRIP, DT, RIGHT_STRIP, VELOCITY_CLIP

    def free(x, y):
        return _scalar_in_box(x, y, BOTTOM_STRIP) or _scalar_in_box(x, y, RIGHT_STRIP)

    pos = state[:2].copy()
    vel = np.clip(state[2:] + action * DT, -VELOCITY_CLIP, VELOCITY_CLIP)
    target = pos + vel * DT
    if free(target[0], target[1]):
        pos = target
    elif free(target[0], pos[1]):
        pos[0] = target[0]
        vel[1] = 0.0
    elif free(pos[0], target[1]):
        pos[1] = target[1]
        vel[0] = 0.0
    else:
        vel[:] = 0.0
    return np.concatenate([pos, vel])


def scalar_block_push_dynamics(state, action):
    """One block_push step for one state with scalar branches: the block is
    pushed out of overlap along the agent->block normal, or along the
    agent's motion (then +x) when the centres coincide."""
    from gchr.envs.block_push import CONTACT_DIST, DT, WORKSPACE

    agent, block = state[:2], state[2:4]
    new_agent = np.clip(agent + action * DT, -WORKSPACE, WORKSPACE)
    offset = block - new_agent
    dist = float(np.linalg.norm(offset))
    if dist < CONTACT_DIST:
        if dist > 1e-12:
            normal = offset / dist
        else:
            motion = new_agent - agent
            norm = float(np.linalg.norm(motion))
            normal = motion / norm if norm > 1e-12 else np.array([1.0, 0.0])
        block = new_agent + CONTACT_DIST * normal
    return np.concatenate([new_agent, np.clip(block, -WORKSPACE, WORKSPACE)])


def fresh_array_pass(net, x, grad_output):
    """Forward and backward through an Mlp with a fresh array for every
    intermediate: the reference for the work-array passes. Returns
    (output, param grads, input grad) for a 2-D batch x."""
    acts, pres = [x], []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = acts[-1] @ w + b
        pres.append(pre)
        last = k == len(net.weights) - 1
        acts.append(pre if last else np.maximum(pre, 0.0) if net.activation == "relu"
                    else np.tanh(pre))
    delta, grads = grad_output, {}
    for k in range(len(net.weights) - 1, -1, -1):
        if k < len(net.weights) - 1:
            if net.activation == "relu":
                delta = delta * (pres[k] > 0.0)
            else:
                delta = delta * (1.0 - np.tanh(pres[k]) ** 2)
        grads[f"w{k}"] = acts[k].T @ delta
        grads[f"b{k}"] = delta.sum(axis=0)
        delta = delta @ net.weights[k].T
    return acts[-1], grads, delta


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn over a dict of parameter arrays."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def max_relative_grad_error(analytic, reference):
    """Sup-norm difference scaled by the reference gradient's sup-norm."""
    num = 0.0
    den = 0.0
    for name in reference:
        num = max(num, float(np.max(np.abs(analytic[name] - reference[name]))))
        den = max(den, float(np.max(np.abs(reference[name]))))
    return num / max(den, 1e-10)


def scalar_adam_reference(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam on a scalar parameter; returns the iterate after each step."""
    x = float(x0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x)
    return out


class DictAdamState:
    """Adam state of the per-block reference: one moment array per block name."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = {}
        self.second_moment = {}


def per_block_adam_step(params, grads, state, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Adam over dict-keyed parameter blocks, each block on its own with its
    own moments: the reference for the flat adam_step. Returns the updated
    parameters as fresh arrays."""
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    new_params = {}
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment.get(name, np.zeros_like(p))
        v = state.second_moment.get(name, np.zeros_like(p))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / bias1
        v_hat = v / bias2
        new_params[name] = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    return new_params


def per_block_update(agent, opts, buffer, her, rng):
    """One GchrAgent.update taken block by block: the library's losses, then
    per-block Adam (opts: the critic's and the actor's DictAdamState),
    set_params, per-block Polyak averaging into fresh arrays and a
    set_params copy for the delayed prior. The reference for the flat
    update path."""
    from gchr.agent import actor_loss, build_hgr_priors_batch, critic_loss

    cfg, nets = agent.cfg, agent.nets
    batch = buffer.sample_batch(cfg.batch_size, her, rng)
    _, c_grad = critic_loss(batch, nets, cfg)
    nets.critic.set_params(
        per_block_adam_step(nets.critic.params(), nets.critic.params(c_grad), opts[0]))
    priors = build_hgr_priors_batch(batch, nets, cfg, rng) if cfg.beta > 0 else None
    _, a_grad, _ = actor_loss(batch, priors, nets, cfg, rng)
    nets.actor.set_params(
        per_block_adam_step(nets.actor.params(), nets.actor.params(a_grad), opts[1]))
    agent.global_step += 1
    rho = cfg.polyak
    for online, target in ((nets.actor, nets.target_actor), (nets.critic, nets.target_critic)):
        online_params = online.params()
        target.set_params({name: rho * t + (1.0 - rho) * online_params[name]
                           for name, t in target.params().items()})
    if cfg.prior_source == "delayed_copy" and agent.global_step % cfg.tau_delay == 0:
        nets.delayed_actor.set_params({k: v.copy() for k, v in nets.actor.params().items()})


def actor_term(actor, states, goals, term):
    """One loss term on its own actor pass: the head on (states, goals), then
    term(head) -> (loss, d_mean, d_log_std), then backward_from_head.
    Returns (loss, dL/d(actor theta))."""
    head, cache, raw = actor.head_cached(states, goals)
    loss, d_mean, d_log_std = term(head)
    grad = actor.backward_from_head(cache, raw, np.concatenate([d_mean, d_log_std], axis=-1))
    return loss, grad


def separate_pass_actor_loss(batch, priors, nets, cfg, rng, noise, prior_actions):
    """actor_loss with each term on its own actor pass and backward: the task
    term (actor_loss at alpha = beta = 0), HSR on (s, g_relabel) of the
    relabeled samples, HGR on (s, g_orig) of every sample. The weighted
    losses and gradients are summed. The reference for the fused pass, which
    sums the head gradients before its one backward instead."""
    from gchr.agent import actor_loss, hgr_loss, hsr_loss

    loss, grad, parts = actor_loss(batch, None, nets, replace(cfg, alpha=0.0, beta=0.0), rng,
                                   noise=noise)
    rel = np.flatnonzero(batch.is_relabeled)
    if cfg.alpha > 0.0 and len(rel):
        value, term_grad = actor_term(nets.actor, batch.states[rel], batch.goals[rel],
                                      lambda head: hsr_loss(head, batch.actions[rel]))
        parts["hsr"] = value
        loss += cfg.alpha * value
        grad = grad + cfg.alpha * term_grad
    if cfg.beta > 0.0:
        value, term_grad = actor_term(
            nets.actor, batch.states, batch.original_goals,
            lambda head: hgr_loss(batch, priors, head, cfg, rng, prior_actions=prior_actions))
        parts["hgr"] = value
        loss += cfg.beta * value
        grad = grad + cfg.beta * term_grad
    return loss, grad, parts


def absorbing_transitions(mdp, goal):
    """Full (S, A, S) copy of the raw dynamics with every state satisfying
    `goal` made a self-loop under every action: the goal-absorbing tensor
    that the library's solvers never build, written out as the reference."""
    p = mdp.transitions.copy()
    for s in mdp.goal_states(goal):
        p[s, :, :] = 0.0
        p[s, :, s] = 1.0
    return p


def absorbing_tensor_contractions(mdp, policy, goal):
    """(d_row_sums, p_goal), both (S, A), from the same two-column solve as
    the library's compute_occupancy but one matmul on the copied
    goal-absorbing tensor: the reference for its goal rows written by index,
    which must match it bit for bit."""
    from gchr.tabular_lab import policy_transition_matrix, reward_vector

    gamma, n = mdp.gamma, mdp.n_states
    p_pi = policy_transition_matrix(mdp, policy, goal)
    r_sums = np.linalg.solve(np.eye(n) - gamma * p_pi,
                             np.stack([np.ones(n), reward_vector(mdp, goal)], axis=1))
    p_eff = absorbing_transitions(mdp, goal)
    sums = (p_eff.reshape(-1, n) @ r_sums).reshape(n, mdp.n_actions, 2)
    sums *= gamma
    sums[:, :, 0] += 1.0
    sums[mdp.goal_states(goal), :, 1] += 1.0
    sums *= 1.0 - gamma
    return sums[:, :, 0], sums[:, :, 1]


@dataclass
class OccupancyTables:
    """Every occupancy table of one (policy, goal) pair, materialised."""

    goal: int
    gamma: float
    d: np.ndarray  # (S, A, S) future-state occupancy
    d_marginal: np.ndarray  # (S, S), action marginalized under the policy
    p_goal: np.ndarray  # (S, A) future-goal density
    p_goal_marginal: np.ndarray  # (S,)
    first_hit: np.ndarray  # (S, S) normalized first-hit distribution over S_g
    hit_mass: np.ndarray  # (S,) unnormalized discounted first-passage mass


def compute_occupancy(mdp, policy, goal):
    """The full (S, S) resolvent and (S, A, S) occupancy of one goal, solved
    with S right-hand sides: the reference for the library's
    compute_occupancy, which keeps only their row and goal-set sums."""
    from gchr.tabular_lab import policy_transition_matrix
    from gchr.tabular_lab.solve import first_hit_columns

    gamma, n = mdp.gamma, mdp.n_states
    p_pi = policy_transition_matrix(mdp, policy, goal)
    resolvent = np.linalg.solve(np.eye(n) - gamma * p_pi, np.eye(n))
    # d = (1 - gamma) (I + gamma P_eff R) on the copied goal-absorbing tensor
    p_eff = absorbing_transitions(mdp, goal)
    d = (p_eff.reshape(-1, n) @ resolvent).reshape(p_eff.shape)
    d *= gamma
    d[np.arange(n), :, np.arange(n)] += 1.0
    d *= 1.0 - gamma
    d_marginal = (1.0 - gamma) * resolvent
    goal_states = mdp.goal_states(goal)
    first_hit = np.zeros((n, n))
    first_hit[:, goal_states], hit_mass = first_hit_columns(p_pi, goal_states, gamma)
    return OccupancyTables(
        goal=goal, gamma=gamma, d=d, d_marginal=d_marginal,
        p_goal=d[:, :, goal_states].sum(axis=2),
        p_goal_marginal=d_marginal[:, goal_states].sum(axis=1),
        first_hit=first_hit, hit_mass=hit_mass,
    )


def random_mdp(rng, n_states, n_actions, n_goals, gamma):
    """Dense random MDP; every goal id owns at least one state."""
    from gchr.envs import TabularGCMDP

    transitions = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    phi = np.concatenate([
        np.arange(n_goals),
        rng.integers(0, n_goals, size=n_states - n_goals),
    ])
    rng.shuffle(phi)
    return TabularGCMDP(transitions, phi, gamma)


def paired_goal_grid():
    """4x3 slippery grid behind a wall column; consecutive cells share a goal id."""
    from gchr.tabular_lab import grid_cells, make_gridworld

    walls = [(1, 0), (1, 1), (1, 2)]
    n_states = len(grid_cells(4, 3, walls))
    return make_gridworld(4, 3, gamma=0.9, walls=walls, slip=0.2, phi=np.arange(n_states) // 2)


def policy_evaluation_direct(mdp, policy, goal):
    """Exact (Q, V) for one goal via a dense solve of the Bellman system:
    the reference for the values policy_iteration_step takes from the
    first-hit solve."""
    from gchr.tabular_lab import policy_transition_matrix, reward_vector

    r = reward_vector(mdp, goal)
    p_pi = policy_transition_matrix(mdp, policy, goal)
    n = mdp.n_states
    v = np.linalg.solve(np.eye(n) - mdp.gamma * p_pi, r)
    next_v = np.einsum("sax,x->sa", mdp.transitions, v)
    states = mdp.goal_states(goal)
    next_v[states] = v[states, None]  # goal states self-loop
    q = r[:, None] + mdp.gamma * next_v
    return q, v


def direct_policy_iteration_step(mdp, policy):
    """One policy-improvement sweep on direct solves: every goal's Q and V
    from policy_evaluation_direct, then the library's greedy slice. The
    reference for policy_iteration_step. Returns (improved, values (S, G))."""
    from gchr.tabular_lab import TabularPolicy, greedy_policy_slice

    probs = np.empty_like(policy.probs)
    values = np.empty((mdp.n_states, policy.n_goals))
    for g in range(policy.n_goals):
        q, values[:, g] = policy_evaluation_direct(mdp, policy, g)
        probs[:, g, :] = greedy_policy_slice(q, mdp.gamma)
    return TabularPolicy(probs), values


def per_goal_solve_certificate(mdp, policy, goal, delta):
    """The uniform-reachability certificate with part 2 read from one direct
    solve per other goal of the policy: the reference for the library's
    certificate, which reads the same values from a policy-iteration sweep."""
    from gchr.tabular_lab import ReachabilityCertificate

    goal_states = mdp.goal_states(goal)
    unreachable = []
    if len(goal_states) > 1:
        adjacency = mdp.transitions.max(axis=1) > 0.0
        for s in goal_states:
            seen = np.zeros(mdp.n_states, dtype=bool)
            stack = [int(s)]
            while stack:  # depth-first search on the raw dynamics
                u = stack.pop()
                if not seen[u]:
                    seen[u] = True
                    stack.extend(int(t) for t in np.flatnonzero(adjacency[u]))
            unreachable += [(int(s), int(t)) for t in goal_states if not seen[t]]
    violations = []
    max_spread = 0.0
    if len(goal_states) > 1:
        for other in range(mdp.n_goals):
            if other == goal:
                continue
            vals = policy_evaluation_direct(mdp, policy, other)[1][goal_states]
            if np.max(vals) <= 0.0:
                continue
            spread = float(np.max(vals) - np.min(vals))
            max_spread = max(max_spread, spread)
            if spread >= delta:
                violations.append((int(other), spread, int(goal_states[np.argmax(vals)]),
                                   int(goal_states[np.argmin(vals)])))
    return ReachabilityCertificate(
        goal=int(goal), delta=float(delta), holds=not unreachable and not violations,
        part1_ok=not unreachable, part2_ok=not violations, unreachable_pairs=unreachable,
        spread_violations=violations, max_spread=max_spread,
    )


def step_distribution(mdp, s, a, goal):
    """Next-state distribution of one (s, a) under an evaluated goal, read
    row by row: a goal-satisfying state self-loops; any other state keeps
    its raw row."""
    if not (0 <= s < mdp.n_states and 0 <= a < mdp.n_actions):
        raise IndexError(f"state/action ({s}, {a}) out of range")
    if mdp.phi[s] == goal:
        row = np.zeros(mdp.n_states)
        row[s] = 1.0
        return row
    return mdp.transitions[s, a].copy()


def v_from_occupancy(table, s=None):
    """V = p_goal_marginal / (1 - gamma) from one occupancy table; full (S,)
    array or a single entry."""
    v = table.p_goal_marginal / (1.0 - table.gamma)
    return v if s is None else float(v[s])


def action_supports(logs, mdp, prior_policy, s, g, threshold=1e-6):
    """(HSR action set, HGR action set) for one queried (state, goal) pair,
    as plain sets read from the library's support tables."""
    from gchr.tabular_lab import achieved_goals_in_logs, hgr_support_table, hsr_support_table

    hsr = hsr_support_table(logs, mdp.phi, mdp.n_goals, mdp.n_actions)
    achieved = achieved_goals_in_logs(logs, mdp.phi, mdp.n_goals)
    hgr = hgr_support_table(prior_policy, achieved, threshold)
    return set(np.flatnonzero(hsr[s, g])), set(np.flatnonzero(hgr[s]))


def geometric_tail(gamma, start):
    """sum_{k>=start} gamma^k."""
    return gamma**start / (1.0 - gamma)


def per_goal_iterative_evaluation(mdp, policy, goal, tol=1e-12, max_iters=200_000):
    """Bellman backups on one goal's (S, A) Q with the goal-absorbing tensor
    written out, until the sup-norm update falls to tol: the reference for
    policy_evaluation_iterative's Neumann doubling. Returns (q, v, sweeps)."""
    r = (mdp.phi == goal).astype(np.float64)
    p_eff = absorbing_transitions(mdp, goal)
    pi = policy.for_goal(goal)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for sweep in range(1, max_iters + 1):
        v = (pi * q).sum(axis=1)
        q_next = r[:, None] + mdp.gamma * np.einsum("sax,x->sa", p_eff, v)
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta <= tol:
            return q, (pi * q).sum(axis=1), sweep
    raise RuntimeError("policy evaluation did not converge")


def occupancy_via_goal_tensor(mdp, policy):
    """Via-goal tensor assembled from one full compute_occupancy table per
    subgoal and direct-solve values: the reference for via_goal_slice on a
    policy_iteration_step sweep, which reads both factors from first-hit
    solves. Returns (v_via, p_hit, downstream, defined)."""
    from gchr.tabular_lab.solve import HIT_MASS_FLOOR

    n_goals = policy.n_goals
    values = np.stack(
        [policy_evaluation_direct(mdp, policy, g)[1] for g in range(n_goals)], axis=1
    )
    p_hit = np.empty((mdp.n_states, n_goals))
    defined = np.empty((mdp.n_states, n_goals), dtype=bool)
    downstream = np.zeros((mdp.n_states, n_goals, n_goals))
    for sub in range(n_goals):
        table = compute_occupancy(mdp, policy, sub)
        p_hit[:, sub] = table.p_goal_marginal
        defined[:, sub] = table.hit_mass > HIT_MASS_FLOOR
        downstream[:, :, sub] = table.first_hit @ values
    downstream *= defined[:, None, :]
    return p_hit[:, None, :] * downstream, p_hit, downstream, defined


def via_goal_tensor(mdp, policy, values):
    """All via-goal values at once as dense (S, G, G') tensors, one dense
    first_hit @ values product per subgoal, first_hit from a full
    compute_occupancy table: the reference for the streamed
    via_goal_slice. `values` (S, G) are the policy's
    exact per-goal values, and p_hit = (1 - gamma) * values as in the
    streamed route. Returns (v_via, p_hit, downstream, defined)."""
    from gchr.tabular_lab.solve import HIT_MASS_FLOOR

    n_goals = policy.n_goals
    n_states = mdp.n_states
    p_hit = (1.0 - mdp.gamma) * values
    defined = np.empty((n_states, n_goals), dtype=bool)
    downstream = np.zeros((n_states, n_goals, n_goals))
    for sub in range(n_goals):
        table = compute_occupancy(mdp, policy, sub)
        defined[:, sub] = table.hit_mass > HIT_MASS_FLOOR
        downstream[:, :, sub] = table.first_hit @ values
    downstream *= defined[:, None, :]
    v_via = p_hit[:, None, :] * downstream
    return v_via, p_hit, downstream, defined


def tensor_theorem2_margins(mdp, n_iterations, initial_policy=None,
                            step=direct_policy_iteration_step):
    """The Theorem 2 margins from whole (S, G, G') tensors of consecutive
    policy-iteration sweeps on direct solves: the reference for the streamed
    check_theorem2_monotonicity. `step(mdp, policy)` returns (improved,
    values). Returns (per_sweep, policies): one {"via", "hit", "down",
    "weighted"} dict of worst changes per sweep pair, and the policy each
    sweep evaluated."""
    from gchr.tabular_lab import TabularPolicy

    n_goals = mdp.n_goals
    goal_weights = np.full(n_goals, 1.0 / n_goals)
    policy = initial_policy or TabularPolicy.uniform(mdp.n_states, n_goals, mdp.n_actions)
    per_sweep = []
    policies = []
    prev = None
    for _ in range(max(1, n_iterations)):
        policies.append(policy)
        improved, values = step(mdp, policy)
        v_via, p_hit, downstream, defined = via_goal_tensor(mdp, policy, values)
        weighted = v_via @ goal_weights
        if prev is not None:
            both_defined = prev["defined"] & defined
            if np.any(both_defined):
                mask = np.broadcast_to(both_defined[:, None, :], downstream.shape)
                down_diff = float(np.min((downstream - prev["downstream"])[mask]))
            else:
                down_diff = 0.0
            per_sweep.append({
                "via": float(np.min(v_via - prev["v_via"])),
                "hit": float(np.min(p_hit - prev["p_hit"])),
                "down": down_diff,
                "weighted": float(np.min(weighted - prev["weighted"])),
            })
        prev = {"v_via": v_via, "p_hit": p_hit, "downstream": downstream,
                "defined": defined, "weighted": weighted}
        policy = improved
    return per_sweep, policies


def via_goal_components(mdp, policy, s, goal, subgoal):
    """(hit probability, downstream value, defined flag) for one (s, g, g'),
    from one full compute_occupancy table and one direct solve: the scalar
    route to one via-goal value and its factors."""
    from gchr.tabular_lab.solve import HIT_MASS_FLOOR

    table = compute_occupancy(mdp, policy, subgoal)
    if table.hit_mass[s] <= HIT_MASS_FLOOR:
        return 0.0, 0.0, False
    _, values = policy_evaluation_direct(mdp, policy, goal)
    return float(table.p_goal_marginal[s]), float(table.first_hit[s] @ values), True


def via_goal_value(mdp, policy, s, goal, subgoal):
    """V_via(s, g; g') by the scalar route; 0 where the subgoal is unreachable."""
    p_hit, downstream, defined = via_goal_components(mdp, policy, s, goal, subgoal)
    return p_hit * downstream if defined else 0.0


def _step_markov(states, cum_rows, rng):
    u = rng.random(states.shape[0])
    nxt = (cum_rows[states] < u[:, None]).sum(axis=1)
    return np.minimum(nxt, cum_rows.shape[0] - 1)


def _first_hit_times(p_pi, start_states, in_target, rng, t_max):
    """Vectorized first-hit simulation on raw dynamics; returns (tau, hit_state, hit)."""
    n = start_states.shape[0]
    tau = np.zeros(n, dtype=np.int64)
    hit_state = start_states.copy()
    hit = in_target[start_states].copy()
    active = ~hit
    states = start_states.copy()
    cum_rows = np.cumsum(p_pi, axis=1)
    t = 0
    while np.any(active) and t < t_max:
        t += 1
        idx = np.flatnonzero(active)
        states[idx] = _step_markov(states[idx], cum_rows, rng)
        newly = idx[in_target[states[idx]]]
        tau[newly] = t
        hit_state[newly] = states[newly]
        hit[newly] = True
        active[newly] = False
    return tau, hit_state, hit


def mc_via_goal(mdp, policy, s, goal, subgoal, n_episodes, rng, t_max=400):
    """Monte-Carlo two-stage rollout estimate of the via-goal value.

    Stage 1 runs the policy slice for the subgoal until the subgoal set is
    first hit; stage 2 continues from the hit state with the slice for the
    final goal. Each episode contributes gamma^(tau1 + tau2) / (1 - gamma)
    when both stages hit (the absorbing tail in closed form), else 0.
    Returns (mean, standard error).
    """
    gamma = mdp.gamma
    p1 = np.einsum("sa,sax->sx", policy.probs[:, subgoal, :], mdp.transitions)
    p2 = np.einsum("sa,sax->sx", policy.probs[:, goal, :], mdp.transitions)
    in_sub = mdp.phi == subgoal
    in_goal = mdp.phi == goal
    starts = np.full(n_episodes, s, dtype=np.int64)
    tau1, hit_states, hit1 = _first_hit_times(p1, starts, in_sub, rng, t_max)
    values = np.zeros(n_episodes)
    if np.any(hit1):
        idx = np.flatnonzero(hit1)
        tau2, _, hit2 = _first_hit_times(p2, hit_states[idx], in_goal, rng, t_max)
        sub = idx[hit2]
        values[sub] = gamma ** (tau1[sub] + tau2[hit2]) / (1.0 - gamma)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_episodes))
