import numpy as np
import pytest

from gchr.nn import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SQUASH_EPS,
    DiagGaussianHead,
    gaussian_log_prob,
    PolicyNet,
    gaussian_log_prob_grads,
    reparam_action,
)


def constant_policy(mean, log_std, squash=True):
    """A policy on 1-D states and goals whose head is (mean, log_std) everywhere."""
    mean = np.asarray(mean, dtype=np.float64)
    policy = PolicyNet(1, 1, len(mean), hidden_sizes=(), squash=squash, rng=0)
    policy.set_params({"w0": np.zeros((2, 2 * len(mean))),
                       "b0": np.concatenate([mean, np.broadcast_to(log_std, mean.shape)])})
    return policy


def test_standard_normal_at_mode():
    head = DiagGaussianHead(mean=np.zeros(1), log_std=np.zeros(1), squash=False)
    assert gaussian_log_prob(head, np.zeros(1)) == pytest.approx(-0.5 * np.log(2 * np.pi))
    assert gaussian_log_prob(head, np.zeros(1)) == pytest.approx(-0.91894, abs=1e-5)


def test_one_sigma_point():
    mu, sigma = 0.7, 0.4
    head = DiagGaussianHead(mean=np.array([mu]), log_std=np.array([np.log(sigma)]), squash=False)
    expected = -0.5 * np.log(2 * np.pi) - np.log(sigma) - 0.5
    assert gaussian_log_prob(head, np.array([mu + sigma])) == pytest.approx(expected)


def test_squashed_density_normalizes_over_action_box():
    # midpoint quadrature of exp(log_prob) over (-1, 1)^3
    head = DiagGaussianHead(
        mean=np.array([0.3, -0.2, 0.05]),
        log_std=np.log([0.6, 0.8, 0.5]),
        squash=True,
    )
    n = 120
    centers = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    grid = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"), axis=-1)
    density = np.exp(gaussian_log_prob(head, grid.reshape(-1, 3)))
    integral = density.sum() * (2.0 / n) ** 3
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_log_std_clamped_on_construction():
    head = DiagGaussianHead(mean=np.zeros(2), log_std=np.array([-40.0, 40.0]))
    assert head.log_std[0] == LOG_STD_MIN
    assert head.log_std[1] == 2.0


def test_clamps_equal_np_clip_nan_included(rng):
    raw = np.array([[-40.0, np.nan, 1.5], [2.0, -5.0, 40.0]])
    head = DiagGaussianHead(mean=np.zeros((2, 3)), log_std=raw)
    np.testing.assert_array_equal(head.log_std, np.clip(raw, LOG_STD_MIN, LOG_STD_MAX))
    noise = rng.standard_normal((2, 3)) * 30.0
    u = head.mean + head.std * noise
    bound = 1.0 - SQUASH_EPS
    np.testing.assert_array_equal(reparam_action(head, noise), np.clip(np.tanh(u), -bound, bound))


@pytest.mark.parametrize("squash", [True, False])
def test_mean_action_is_the_mode_of_the_head(rng, squash):
    policy = PolicyNet(3, 2, 2, hidden_sizes=(8,), squash=squash, rng=1)
    for shape in [(), (5,)]:
        states, goals = rng.standard_normal((*shape, 3)), rng.standard_normal((*shape, 2))
        mean = policy.head(states, goals).mean
        mode = np.tanh(mean) if squash else mean
        action = policy.mean_action(states, goals)
        assert action.shape == (*shape, 2)
        assert action.tobytes() == mode.tobytes()


def test_tight_std_limit_action_is_tanh_mean(rng):
    policy = constant_policy([0.9, -1.4], -40.0)
    action = policy.sample(np.zeros(1), np.zeros(1), rng)
    np.testing.assert_allclose(action, np.tanh([0.9, -1.4]), atol=1e-3)


def test_identical_seeds_give_identical_actions():
    policy = constant_policy([0.1, 0.2], 0.0)
    states, goals = np.zeros((3, 1)), np.ones((3, 1))
    a1 = policy.sample(states, goals, np.random.default_rng(42))
    a2 = policy.sample(states, goals, np.random.default_rng(42))
    np.testing.assert_array_equal(a1, a2)
    # one standard-normal draw of the head's shape, and nothing else, per call
    reference = np.random.default_rng(42)
    head = policy.head(states, goals)
    np.testing.assert_array_equal(a1, reparam_action(head, reference.standard_normal((3, 2))))
    used = np.random.default_rng(42)
    policy.sample(states, goals, used)
    assert used.bit_generator.state == reference.bit_generator.state


def test_sample_log_prob_consistent_with_density():
    # draws of the squashed policy, histogrammed, against bin masses of
    # exp(gaussian_log_prob) integrated by the midpoint rule
    policy = constant_policy([0.4], np.log(0.7))
    n = 20_000
    draws = policy.sample(np.zeros((n, 1)), np.zeros((n, 1)), np.random.default_rng(7))[:, 0]
    assert np.all(np.abs(draws) < 1.0)
    head = policy.head(np.zeros(1), np.zeros(1))
    edges = np.linspace(-1.0, 1.0, 21)
    counts, _ = np.histogram(draws, bins=edges)
    width = (edges[1] - edges[0]) / 200
    points = (edges[:-1, None] + width * (np.arange(200) + 0.5)).reshape(-1, 1)
    density = np.exp(gaussian_log_prob(head, points)).reshape(20, 200)
    expected = n * density.sum(axis=1) * width
    assert expected.sum() == pytest.approx(n, rel=1e-3)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    assert chi2 <= dof + 3 * np.sqrt(2 * dof)


def test_empirical_mean_of_unsquashed_samples():
    mu, sigma, n = 0.37, 1.3, 100_000
    head = DiagGaussianHead(mean=np.array([mu]), log_std=np.array([np.log(sigma)]), squash=False)
    rng = np.random.default_rng(123)
    noise = rng.standard_normal((n, 1))
    samples = reparam_action(DiagGaussianHead(head.mean, head.log_std, squash=False), noise)
    assert abs(samples.mean() - mu) <= 4 * sigma / np.sqrt(n)


def test_log_prob_maximized_at_mode():
    # grid search +-3 sigma around the mean, fixed std
    mean, sigma = 0.35, 0.5
    head = DiagGaussianHead(mean=np.array([mean]), log_std=np.array([np.log(sigma)]), squash=False)
    actions = np.linspace(mean - 3 * sigma, mean + 3 * sigma, 601)
    logps = gaussian_log_prob(head, actions[:, None])
    assert abs(actions[np.argmax(logps)] - mean) <= 3 * sigma / 300


def test_squashed_log_prob_maximized_at_stationary_point():
    # the squashed density's maximizer solves (u - mu)/sigma^2 = 2 tanh(u);
    # solve that by bisection as an independent oracle and compare to a grid argmax
    mean, sigma = 0.35, 0.5
    head = DiagGaussianHead(mean=np.array([mean]), log_std=np.array([np.log(sigma)]), squash=True)

    def f(u):
        return (u - mean) / sigma**2 - 2 * np.tanh(u)

    lo, hi = mean, mean + 3 * sigma
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    mode = np.tanh(0.5 * (lo + hi))

    us = np.linspace(mean - 3 * sigma, mean + 3 * sigma, 2001)
    actions = np.tanh(us)
    logps = gaussian_log_prob(head, actions[:, None])
    assert abs(actions[np.argmax(logps)] - mode) <= 1e-2


def test_action_dim_mismatch_raises():
    head = DiagGaussianHead(mean=np.zeros(2), log_std=np.zeros(2))
    with pytest.raises(ValueError, match="dim"):
        gaussian_log_prob(head, np.zeros(3))


def test_log_prob_grads_match_finite_differences():
    head = DiagGaussianHead(mean=np.array([0.2, -0.4]), log_std=np.log([0.7, 1.2]), squash=True)
    action = np.array([0.5, -0.3])
    _, d_mean, d_log_std = gaussian_log_prob_grads(head, action)
    h = 1e-6
    for i in range(2):
        for attr, grad in (("mean", d_mean), ("log_std", d_log_std)):
            up = DiagGaussianHead(head.mean.copy(), head.log_std.copy(), squash=True)
            dn = DiagGaussianHead(head.mean.copy(), head.log_std.copy(), squash=True)
            getattr(up, attr)[i] += h
            getattr(dn, attr)[i] -= h
            fd = (gaussian_log_prob(up, action) - gaussian_log_prob(dn, action)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_batched_log_prob_matches_per_row():
    heads = DiagGaussianHead(
        mean=np.array([[0.1, 0.2], [-0.3, 0.4]]),
        log_std=np.array([[0.0, -1.0], [0.5, 0.0]]),
    )
    actions = np.array([[0.3, -0.2], [0.1, 0.9]])
    batched = gaussian_log_prob(heads, actions)
    for i in range(2):
        single = DiagGaussianHead(heads.mean[i], heads.log_std[i])
        assert batched[i] == pytest.approx(gaussian_log_prob(single, actions[i]))
