import tracemalloc

import numpy as np
import pytest

from gchr.nn import Mlp

from oracles import (
    finite_difference_grads,
    fresh_array_pass,
    max_relative_grad_error,
    straight_line_forward,
)


def test_zero_parameter_net_outputs_zero():
    sizes = [3, 5, 2]
    weights = [np.zeros((3, 5)), np.zeros((5, 2))]
    biases = [np.zeros(5), np.zeros(2)]
    net = Mlp(sizes, weights, biases)
    assert np.all(net.forward(np.array([1.5, -2.0, 7.0])) == 0.0)


def test_single_linear_layer_affine_identity():
    net = Mlp([1, 1], [np.array([[2.0]])], [np.array([1.0])])
    assert net.forward(np.array([3.0])) == pytest.approx(7.0)


def test_seed0_forward_matches_scalar_recomputation():
    net = Mlp.initialize([4, 6, 3], activation="relu", rng=0)
    x = np.ones(4)
    expected = straight_line_forward(net.weights, net.biases, x, "relu")
    np.testing.assert_allclose(net.forward(x), expected, atol=1e-12)


def test_tanh_forward_matches_scalar_recomputation():
    net = Mlp.initialize([3, 5, 2], activation="tanh", rng=3)
    x = np.array([0.4, -1.2, 0.9])
    expected = straight_line_forward(net.weights, net.biases, x, "tanh")
    np.testing.assert_allclose(net.forward(x), expected, atol=1e-12)


def test_forward_batch_matches_per_row():
    net = Mlp.initialize([3, 8, 2], rng=1)
    xs = np.random.default_rng(2).normal(size=(6, 3))
    batched = net.forward(xs)
    for i in range(6):
        np.testing.assert_allclose(batched[i], net.forward(xs[i]), atol=1e-14)


def test_forward_finite_on_finite_input():
    net = Mlp.initialize([5, 32, 32, 4], rng=7)
    out = net.forward(np.random.default_rng(0).normal(size=(10, 5)) * 100)
    assert np.all(np.isfinite(out))


def test_dimension_mismatch_raises():
    net = Mlp.initialize([3, 2], rng=0)
    with pytest.raises(ValueError, match="features"):
        net.forward(np.ones(4))


def test_inconsistent_layer_shapes_rejected():
    with pytest.raises(ValueError, match="shape"):
        Mlp([2, 3], [np.zeros((2, 4))], [np.zeros(4)])


def test_backward_linear_net_weight_grad_is_input():
    # L = output of a 1-layer linear net => dL/dw = x, dL/db = 1
    net = Mlp([2, 1], [np.array([[0.3], [0.7]])], [np.array([0.1])])
    x = np.array([3.0, -4.0])
    _, cache = net.forward_cached(x)
    grad, grad_in = net.backward(cache, np.array([1.0]), wrt="both")
    grads = net.params(grad)
    np.testing.assert_allclose(grads["w0"][:, 0], x)
    assert grads["b0"][0] == pytest.approx(1.0)
    np.testing.assert_allclose(grad_in, net.weights[0][:, 0])


def test_backward_constant_loss_gives_zero_grads():
    net = Mlp.initialize([3, 4, 2], rng=0)
    _, cache = net.forward_cached(np.ones(3))
    grad, grad_in = net.backward(cache, np.zeros(2), wrt="both")
    assert np.all(grad == 0.0)
    assert np.all(grad_in == 0.0)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backward_matches_central_differences(activation):
    # <=50 parameters: [3, 4, 3] has 3*4+4 + 4*3+3 = 35
    rng = np.random.default_rng(11)
    net = Mlp.initialize([3, 4, 3], activation=activation, rng=5)
    x = rng.normal(size=3)
    direction = rng.normal(size=3)

    def loss(params):
        probe = net.copy()
        probe.set_params(params)
        return float(probe.forward(x) @ direction)

    _, cache = net.forward_cached(x)
    analytic, _ = net.backward(cache, direction, wrt="both")
    fd = finite_difference_grads(loss, {k: v.copy() for k, v in net.params().items()})
    assert max_relative_grad_error(net.params(analytic), fd) <= 1e-4


def test_backward_input_gradient_matches_central_differences():
    net = Mlp.initialize([4, 6, 2], rng=9)
    rng = np.random.default_rng(4)
    x = rng.normal(size=4)
    direction = rng.normal(size=2)
    _, cache = net.forward_cached(x)
    _, grad_in = net.backward(cache, direction, wrt="both")
    h = 1e-5
    fd = np.zeros(4)
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (net.forward(xp) @ direction - net.forward(xm) @ direction) / (2 * h)
    np.testing.assert_allclose(grad_in, fd, rtol=1e-6, atol=1e-8)


def test_backward_shape_mismatch_raises():
    net = Mlp.initialize([3, 2], rng=0)
    _, cache = net.forward_cached(np.ones(3))
    with pytest.raises(ValueError, match="gradient"):
        net.backward(cache, np.ones(5), wrt="both")


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_work_array_passes_match_fresh_array_reference(activation):
    # row counts that grow the work arrays, reuse them shorter, and regrow them
    net = Mlp.initialize([5, 16, 12, 3], activation=activation, rng=4)
    rng = np.random.default_rng(5)
    for rows in (40, 300, 7, 301, 650, 1, 300):
        x = rng.normal(size=(rows, 5))
        direction = rng.normal(size=(rows, 3))
        out, cache = net.forward_cached(x)
        grad, grad_in = net.backward(cache, direction, wrt="both")
        grads = net.params(grad)
        ref_out, ref_grads, ref_in = fresh_array_pass(net, x, direction)
        for got, want in [(out, ref_out), (grad_in, ref_in)] + [
            (grads[k], ref_grads[k]) for k in ref_grads
        ]:
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_backward_rejects_a_cache_whose_work_arrays_were_reused():
    net = Mlp.initialize([3, 8, 2], rng=0)
    _, first = net.forward_cached(np.ones((4, 3)))
    net.forward(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="stale cache"):
        net.backward(first, np.ones((4, 2)), wrt="both")
    _, second = net.forward_cached(np.ones((4, 3)))
    net.backward(second, np.ones((4, 2)), wrt="both")


def test_repeated_pass_allocates_no_hidden_width_array():
    net = Mlp.initialize([6, 64, 64, 4], rng=1)
    x = np.random.default_rng(2).normal(size=(1024, 6))
    direction = np.ones((1024, 4))
    net.backward(net.forward_cached(x)[1], direction, wrt="both")  # grows the work arrays
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        net.backward(net.forward_cached(x)[1], direction, wrt="both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 1024 x 64 float64 array is 512 kB; the pass allocates only its
    # output, the input gradient, relu masks and the parameter gradients
    assert peak < 1024 * 64 * 8


def test_blocks_are_views_of_one_theta_and_set_params_writes_in_place():
    net = Mlp.initialize([3, 5, 4, 2], rng=0)
    theta = net.theta
    assert theta.flags.c_contiguous and theta.size == (3 + 1) * 5 + (5 + 1) * 4 + (4 + 1) * 2
    blocks = net.params()
    for block in net.weights + net.biases + list(blocks.values()):
        assert np.shares_memory(block, theta)
    np.testing.assert_array_equal(np.concatenate([b.ravel() for b in blocks.values()]), theta)
    moved = {k: v + 1.0 for k, v in blocks.items()}
    net.set_params(moved)
    assert net.theta is theta
    for name, block in blocks.items():  # the views taken before still see theta
        np.testing.assert_array_equal(block, moved[name])
    clone = net.copy()
    assert not np.shares_memory(clone.theta, theta)
    np.testing.assert_array_equal(clone.theta, theta)


def test_backward_returns_a_fresh_gradient_each_pass():
    net = Mlp.initialize([3, 6, 2], rng=1)
    rng = np.random.default_rng(3)
    first, _ = net.backward(net.forward_cached(rng.normal(size=(5, 3)))[1],
                            rng.normal(size=(5, 2)), wrt="both")
    kept = first.copy()
    second, _ = net.backward(net.forward_cached(rng.normal(size=(5, 3)))[1],
                             rng.normal(size=(5, 2)), wrt="both")
    np.testing.assert_array_equal(first.view(np.int64), kept.view(np.int64))
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, net.theta)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("batched", [False, True])
def test_each_backward_mode_equals_that_output_of_the_full_backward(activation, batched):
    net = Mlp.initialize([5, 16, 12, 3], activation=activation, rng=6)
    rng = np.random.default_rng(7)
    shape = (9,) if batched else ()
    x, direction = rng.normal(size=(*shape, 5)), rng.normal(size=(*shape, 3))
    full_grad, full_in = net.backward(net.forward_cached(x)[1], direction, wrt="both")
    grad, grad_in = net.backward(net.forward_cached(x)[1], direction, wrt="params")
    assert grad_in is None
    assert np.array_equal(grad.view(np.int64), full_grad.view(np.int64))
    grad, grad_in = net.backward(net.forward_cached(x)[1], direction, wrt="input")
    assert grad is None
    assert grad_in.shape == x.shape
    assert np.array_equal(grad_in.view(np.int64), full_in.view(np.int64))


@pytest.mark.parametrize("wrt", ["both", "params", "input"])
def test_every_backward_mode_rejects_a_stale_cache(wrt):
    net = Mlp.initialize([3, 8, 2], rng=0)
    _, stale = net.forward_cached(np.ones((4, 3)))
    net.forward(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="stale cache"):
        net.backward(stale, np.ones((4, 2)), wrt=wrt)


def test_backward_rejects_an_unknown_mode():
    net = Mlp.initialize([3, 2], rng=0)
    with pytest.raises(ValueError, match="wrt must be one of"):
        net.backward(net.forward_cached(np.ones(3))[1], np.ones(2), wrt="weights")
