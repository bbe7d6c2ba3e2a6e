"""Independent oracles shared by the test suite.

Everything in here deliberately avoids the library's vectorized code paths:
straight-line scalar arithmetic, central finite differences, geometric sums
and Monte-Carlo rollouts, so the tests check the implementation against a
second route rather than against itself.
"""

import math

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


def mixture_log_prob(prior_net, state, goals, action):
    """Exact log-density of `action` under the equal-weight mixture of
    prior_net's conditionals at `state`, one component per goal: the
    reference for the hindsight priors. Each component is evaluated on its
    own and the mixture is a scalar logsumexp minus log K."""
    from gchr.nn import gaussian_log_prob

    logps = [float(gaussian_log_prob(prior_net.head(state, g), action)) for g in goals]
    peak = max(logps)
    return peak + math.log(sum(math.exp(lp - peak) for lp in logps)) - math.log(len(logps))


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


def _scalar_in_box(x, y, box):
    x0, x1, y0, y1 = box
    return x0 <= x <= x1 and y0 <= y <= y1


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


def geometric_tail(gamma, start):
    """sum_{k>=start} gamma^k."""
    return gamma**start / (1.0 - gamma)


def per_goal_iterative_evaluation(mdp, policy, goal, tol=1e-12, max_iters=200_000):
    """Bellman backups on one goal's (S, A) Q with the goal-absorbing tensor
    written out, until the sup-norm update falls to tol: the reference for
    the batched policy_evaluation_iterative. Returns (q, v, sweeps)."""
    r = (mdp.phi == goal).astype(np.float64)
    p_eff = mdp.effective_transitions(goal)
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
    subgoal: the reference for via_goal_tensor, which skips the (S, A, S)
    occupancy. Returns (v_via, p_hit, downstream, defined)."""
    from gchr.tabular_lab import compute_occupancy, policy_evaluation_direct
    from gchr.tabular_lab.occupancy import HIT_MASS_FLOOR

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
