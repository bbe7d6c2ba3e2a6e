"""Dense multilayer perceptrons with hand-written backpropagation.

All arithmetic is float64. Forward and backward accept a single input
vector or a batch with a leading axis; outputs match the input rank.

A network's parameters are one contiguous vector, `theta`: the blocks w0,
b0, w1, b1, ... end to end, weights in C order. `weights`, `biases` and
`params()` are views into it; backward returns the gradient as a fresh
vector with the same layout, whose blocks `params(grad)` names.

Hidden activations and their gradients live in per-network work arrays that
every pass reuses: an update's passes over hundreds of rows then allocate
only their small outputs, instead of fresh hidden-width arrays that the
allocator maps and returns to the system on every call. A forward_cached
cache is therefore valid until the next forward pass of the same network;
backward raises on a stale one.

Backward computes only the gradients its caller asks for, in one loop over
the layers. `wrt="params"` gives dL/d(theta) and skips the input gradient:
no `delta @ w0.T` at layer 0. `wrt="input"` gives dL/d(input) and skips
every parameter gradient: no `acts[k].T @ delta`, no bias sums and no
gradient vector. `wrt="both"` gives both. Each output of a partial pass is
bit-equal to the same output of the full one.
"""

from __future__ import annotations

import numpy as np

ACTIVATIONS = ("relu", "tanh")
BACKWARD_WRT = ("both", "params", "input")


class Mlp:
    """Fully-connected network; hidden layers share one activation, the output layer is linear.

    Weights are stored as (fan_in, fan_out) matrices so a forward pass is
    ``x @ w + b``.
    """

    def __init__(self, layer_sizes, weights, biases, activation="relu"):
        layer_sizes = tuple(int(n) for n in layer_sizes)
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(n <= 0 for n in layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
        if len(weights) != len(layer_sizes) - 1 or len(biases) != len(layer_sizes) - 1:
            raise ValueError("one weight matrix and bias vector per layer required")
        for k, (w, b) in enumerate(zip(weights, biases)):
            expect = (layer_sizes[k], layer_sizes[k + 1])
            if w.shape != expect:
                raise ValueError(f"weight {k} has shape {w.shape}, expected {expect}")
            if b.shape != (layer_sizes[k + 1],):
                raise ValueError(f"bias {k} has shape {b.shape}, expected ({layer_sizes[k + 1]},)")
        self.layer_sizes = layer_sizes
        self.theta = np.concatenate(
            [np.ravel(a) for wb in zip(weights, biases) for a in wb], dtype=np.float64)
        self.weights, self.biases = self._split(self.theta)
        self.activation = activation
        self._work = {}  # (kind, hidden layer) -> (rows, width) array, grown on demand
        self._passes = 0

    @classmethod
    def initialize(cls, layer_sizes, activation="relu", rng=None):
        """Uniform fan-in initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
        rng = np.random.default_rng(rng)
        weights, biases = [], []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            biases.append(rng.uniform(-bound, bound, size=n_out))
        return cls(layer_sizes, weights, biases, activation)

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    def _split(self, flat):
        """(weights, biases): lists of views into a vector laid out like theta."""
        weights, biases = [], []
        start = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[start : start + n_in * n_out].reshape(n_in, n_out))
            biases.append(flat[start + n_in * n_out : start + (n_in + 1) * n_out])
            start += (n_in + 1) * n_out
        return weights, biases

    def params(self, flat=None):
        """The parameter blocks as an ordered dict keyed w0, b0, w1, b1, ...:
        views of theta, or of `flat` (a gradient from backward, say)."""
        weights, biases = self._split(self.theta if flat is None else flat)
        out = {}
        for k, (w, b) in enumerate(zip(weights, biases)):
            out[f"w{k}"] = w
            out[f"b{k}"] = b
        return out

    def block_of(self, index):
        """Name of the params() block that holds element `index` of theta."""
        blocks = self.params()
        ends = np.cumsum([block.size for block in blocks.values()])
        return list(blocks)[int(np.searchsorted(ends, index, side="right"))]

    def set_params(self, params):
        """Copy a dict of blocks keyed like params() into theta."""
        for name, block in self.params().items():
            if np.shape(params[name]) != block.shape:
                raise ValueError(f"parameter shape mismatch at block {name}")
            block[...] = params[name]

    def copy(self):
        return Mlp(self.layer_sizes, self.weights, self.biases, self.activation)

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"input has {x.shape[-1]} features, network expects {self.input_dim}"
            )
        return x

    def _work_rows(self, kind, k, rows):
        """The first `rows` rows of work array `kind` of hidden layer k; a
        short array is replaced by one at least twice as long."""
        buf = self._work.get((kind, k))
        if buf is None or len(buf) < rows:
            size = rows if buf is None else max(rows, 2 * len(buf))
            buf = self._work[(kind, k)] = np.empty((size, self.layer_sizes[k + 1]))
        return buf[:rows]

    def forward(self, x):
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x):
        """Forward pass keeping intermediate activations for backward().

        Returns (output, cache); the cache holds the 2-D per-layer inputs
        (the hidden ones in work arrays), whether the input needed promotion
        to 2-D, and the pass number that backward checks. The output is a
        fresh array.
        """
        x = self._check_input(x)
        single = x.ndim == 1
        acts = [np.atleast_2d(x)]
        for k in range(len(self.weights) - 1):
            act = self._work_rows("act", k, len(acts[0]))
            np.matmul(acts[-1], self.weights[k], out=act)
            act += self.biases[k]
            if self.activation == "relu":
                np.maximum(act, 0.0, out=act)
            else:
                np.tanh(act, out=act)
            acts.append(act)
        acts.append(acts[-1] @ self.weights[-1] + self.biases[-1])
        self._passes += 1
        out = acts[-1][0] if single else acts[-1]
        return out, (acts, single, self._passes)

    def backward(self, cache, grad_output, wrt):
        """Backpropagate an upstream gradient through the cached forward pass.

        Args:
            cache: second element returned by forward_cached.
            grad_output: dL/d(output), same shape as the forward output.
            wrt: which gradients to compute: "params", "input" or "both".

        Returns:
            (grad, grad_input): grad is dL/d(theta), a fresh vector laid out
            like theta; grad_input is dL/d(input). The one `wrt` does not
            ask for is None.
        """
        if wrt not in BACKWARD_WRT:
            raise ValueError(f"wrt must be one of {BACKWARD_WRT}, got {wrt!r}")
        acts, single, pass_number = cache
        if pass_number != self._passes:
            raise ValueError("stale cache: a later forward pass has reused its work arrays")
        delta = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        if delta.shape != acts[-1].shape:
            raise ValueError(
                f"upstream gradient has shape {np.shape(grad_output)}, "
                f"expected {acts[-1][0].shape if single else acts[-1].shape}"
            )
        grad = grad_input = None
        if wrt != "input":
            grad = np.empty_like(self.theta)
            grad_weights, grad_biases = self._split(grad)
        n_layers = len(self.weights)
        for k in range(n_layers - 1, -1, -1):
            if k < n_layers - 1:
                # the derivative from the activation itself: relu passes
                # where it is positive, tanh' = 1 - tanh^2
                if self.activation == "relu":
                    np.multiply(delta, acts[k + 1] > 0.0, out=delta)
                else:
                    np.multiply(delta, 1.0 - acts[k + 1] ** 2, out=delta)
            if grad is not None:
                np.matmul(acts[k].T, delta, out=grad_weights[k])
                delta.sum(axis=0, out=grad_biases[k])
            if k > 0:
                delta = np.matmul(
                    delta, self.weights[k].T, out=self._work_rows("grad", k - 1, len(delta))
                )
            elif wrt != "params":
                grad_input = delta @ self.weights[k].T
                if single:
                    grad_input = grad_input[0]
        return grad, grad_input
