"""Dense and activation layers with explicit forward/backward passes."""

from __future__ import annotations

import numpy as np


class Dense:
    """Fully connected layer ``y = x @ W + b`` with He initialization."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        scale = np.sqrt(2.0 / in_dim)
        self.W = rng.normal(0.0, scale, size=(in_dim, out_dim)).astype(np.float64)
        self.b = np.zeros(out_dim, dtype=np.float64)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Forward pass; caches the input for backward when ``train``."""
        if train:
            self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads, return gradient w.r.t. the input."""
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.dW += self._x.T @ grad_out
        self.db += grad_out.sum(axis=0)
        return grad_out @ self.W.T

    def zero_grad(self) -> None:
        self.dW.fill(0.0)
        self.db.fill(0.0)

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]


class ReLU:
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if train:
            self._mask = x > 0.0
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad_out * self._mask

    def zero_grad(self) -> None:  # no parameters
        return None

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []
