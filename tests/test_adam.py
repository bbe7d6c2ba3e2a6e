import numpy as np
import pytest

from gchr.nn import AdamState, Mlp, adam_step

from oracles import DictAdamState, per_block_adam_step, scalar_adam_reference


def test_zero_gradients_leave_parameters_fixed():
    theta = np.array([1.0, -2.0, 0.5])
    state = AdamState(learning_rate=0.1)
    for _ in range(5):
        adam_step(theta, np.zeros(3), state)
    np.testing.assert_array_equal(theta, np.array([1.0, -2.0, 0.5]))
    assert state.step_count == 5


def test_moments_decay_toward_zero_after_gradient_stops():
    theta = np.array([0.0])
    state = AdamState()
    adam_step(theta, np.array([1.0]), state)
    m1 = abs(state.first_moment[0])
    for _ in range(10):
        adam_step(theta, np.array([0.0]), state)
    assert abs(state.first_moment[0]) < m1
    assert abs(state.first_moment[0]) == pytest.approx(m1 * 0.9**10)


def test_first_step_is_signed_learning_rate():
    lr = 0.01
    theta = np.array([5.0, 5.0])
    adam_step(theta, np.array([3.7, -0.002]), AdamState(learning_rate=lr))
    # at t=1 the bias-corrected update is -lr * g / (|g| + eps)
    np.testing.assert_allclose(theta, [5.0 - lr, 5.0 + lr], rtol=1e-5)


def test_three_step_sequence_matches_scalar_reference():
    grads = [0.4, -1.3, 0.05]
    expected = scalar_adam_reference(2.0, grads, lr=0.05)
    theta = np.array([2.0])
    state = AdamState(learning_rate=0.05)
    seen = []
    for g in grads:
        adam_step(theta, np.array([g]), state)
        seen.append(theta[0])
    np.testing.assert_allclose(seen, expected, atol=1e-12)


def test_flat_step_matches_per_block_reference_bit_for_bit():
    net = Mlp.initialize([5, 7, 3], rng=2)
    params = {k: v.copy() for k, v in net.params().items()}
    state, ref_state = AdamState(learning_rate=0.03), DictAdamState(0.03)
    rng = np.random.default_rng(8)
    for _ in range(6):
        grad = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=net.theta.shape)
        adam_step(net.theta, grad, state)
        params = per_block_adam_step(params, net.params(grad), ref_state)
    for flat, blocks in [(net.theta, params), (state.first_moment, ref_state.first_moment),
                         (state.second_moment, ref_state.second_moment)]:
        want = np.concatenate([blocks[k].ravel() for k in net.params()])
        np.testing.assert_array_equal(flat.view(np.int64), want.view(np.int64))


def test_non_finite_gradient_names_parameter_block():
    net = Mlp.initialize([2, 3, 2], rng=0)
    grad = np.zeros_like(net.theta)
    net.params(grad)["w1"][2, 1] = np.nan
    net.params(grad)["b1"][0] = np.inf
    before = net.theta.copy()
    state = AdamState()
    with pytest.raises(FloatingPointError, match="'w1'"):
        adam_step(net.theta, grad, state, net.block_of)
    np.testing.assert_array_equal(net.theta, before)
    assert state.step_count == 0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        adam_step(np.ones(2), np.ones(3), AdamState())
