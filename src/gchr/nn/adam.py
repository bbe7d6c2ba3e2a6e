"""Adam optimizer over one flat parameter vector (an Mlp's theta)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: np.ndarray | None = None  # zeros like theta until the first step
    second_moment: np.ndarray | None = None


def adam_step(theta, grad, state, block_of=None):
    """One bias-corrected Adam update of `theta` and the state's moment
    vectors, all in place; the state's step_count is incremented.

    A non-finite gradient raises FloatingPointError before anything moves;
    `block_of` (an Mlp's block_of) names the block of its first element.
    """
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    finite = np.isfinite(grad)
    if not finite.all():
        index = int(np.argmin(finite))
        where = f"parameter block {block_of(index)!r}" if block_of else f"element {index}"
        raise FloatingPointError(f"non-finite gradient in {where}")
    if state.first_moment is None:
        state.first_moment = np.zeros_like(theta)
        state.second_moment = np.zeros_like(theta)
    state.step_count += 1
    m, v = state.first_moment, state.second_moment
    # each step below rounds as the plain expression would: (1 - beta2) * g * g
    # left to right, and lr * m_hat before the divide
    work = np.multiply(grad, 1.0 - BETA1)
    m *= BETA1
    m += work
    np.multiply(grad, 1.0 - BETA2, out=work)
    work *= grad
    v *= BETA2
    v += work
    np.divide(v, 1.0 - BETA2**state.step_count, out=work)  # v_hat
    np.sqrt(work, out=work)
    work += EPSILON
    step = np.divide(m, 1.0 - BETA1**state.step_count)  # m_hat
    step *= state.learning_rate
    step /= work
    theta -= step
