"""Numerical-gradient checking utilities for the nn tests."""

from __future__ import annotations

import numpy as np

from repro.nn.losses import Loss
from repro.nn.module import Module


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_model_gradients(
    model: Module,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    *,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    max_params: int = 200,
    rng: np.random.Generator | None = None,
) -> None:
    """Assert analytic parameter gradients match central differences.

    Checks up to ``max_params`` randomly chosen parameter scalars (full
    check would be O(P × forward) — too slow for conv layers).
    """
    rng = rng or np.random.default_rng(0)
    model.zero_grad()
    out = model.forward(x)
    loss.forward(out, y)
    model.backward(loss.backward())
    analytic = model.get_flat_gradients()

    def loss_value() -> float:
        return loss.forward(model.forward(x), y)

    flat_params = [p for p in model.parameters()]
    offsets = np.cumsum([0] + [p.size for p in flat_params])
    total = int(offsets[-1])
    picks = (
        np.arange(total)
        if total <= max_params
        else np.sort(rng.choice(total, size=max_params, replace=False))
    )
    eps = 1e-6
    for flat_index in picks:
        param_idx = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        local = int(flat_index - offsets[param_idx])
        value = flat_params[param_idx].value.ravel()
        orig = value[local]
        value[local] = orig + eps
        f_plus = loss_value()
        value[local] = orig - eps
        f_minus = loss_value()
        value[local] = orig
        numeric = (f_plus - f_minus) / (2 * eps)
        got = analytic[flat_index]
        assert np.isclose(got, numeric, rtol=rtol, atol=atol), (
            f"param {param_idx} offset {local}: analytic={got}, numeric={numeric}"
        )


def check_input_gradient(
    module: Module,
    x: np.ndarray,
    *,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> None:
    """Assert the input gradient of a (parameterless path of a) module
    matches central differences of ``sum(forward(x) * w)`` for a fixed
    random weighting ``w``."""
    rng = np.random.default_rng(1)
    out = module.forward(x)
    w = rng.normal(size=out.shape)
    analytic = module.backward(w)

    def f() -> float:
        return float(np.sum(module.forward(x) * w))

    numeric = numerical_gradient(f, x)
    assert np.allclose(analytic, numeric, rtol=rtol, atol=atol)
