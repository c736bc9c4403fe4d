"""Q-networks: a plain MLP head and a dueling value/advantage head.

Both networks map a labeling-state observation to one Q value per action
(the paper's architecture: one hidden dense layer, 256 ReLU units at full
scale).  The dueling variant (Wang et al., used by the paper's best agent)
splits the head into a scalar state value V and per-action advantages A and
combines them as ``Q = V + A - mean(A)``.
"""

from __future__ import annotations

import numpy as np

from repro.rl.nn.layers import Dense, ReLU


class QNetwork:
    """One hidden ReLU layer ``fc1`` under a subclass's head (:meth:`_head`)."""

    _layers: tuple

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int,
        rng: np.random.Generator,
    ):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden_size = hidden_size
        self.fc1 = Dense(obs_dim, hidden_size, rng)
        self.act1 = ReLU()

    def _head(self, h: np.ndarray, train: bool) -> np.ndarray:
        """Q values from the hidden activations ``h``, shape ``(B, n_actions)``."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Dense pass over a ``(B, obs_dim)`` batch; caches for backward when
        ``train``."""
        return self._head(self.act1.forward(self.fc1.forward(x, train), train), train)

    def backward(self, grad_q: np.ndarray) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for layer in self._layers:
            layer.zero_grad()

    def params(self) -> list[np.ndarray]:
        return [p for layer in self._layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self._layers for g in layer.grads()]

    def copy_from(self, other: "QNetwork") -> None:
        """Hard parameter copy (used for target-network syncs)."""
        for mine, theirs in zip(self.params(), other.params()):
            np.copyto(mine, theirs)

    # -- inference -----------------------------------------------------------

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        """Q values for one observation, shape ``(n_actions,)``, or for a
        ``(B, obs_dim)`` batch, shape ``(B, n_actions)``.

        The first layer multiplies only the columns some row sets: a
        labeling state is a sparse bit vector over the label space, so the
        zero columns add nothing but time.  Equal to ``forward(x, False)``
        up to the summation order of the dropped zeros.
        """
        x = np.asarray(obs)
        if x.ndim not in (1, 2) or x.shape[-1] != self.obs_dim:
            raise ValueError(
                f"expected ({self.obs_dim},) or (B, {self.obs_dim}) "
                f"observations, got shape {x.shape}"
            )
        rows = x.reshape(-1, self.obs_dim)
        active = np.flatnonzero(rows.any(axis=0))
        h = rows[:, active].astype(np.float64) @ self.fc1.W[active] + self.fc1.b
        q = self._head(self.act1.forward(h, False), False)
        return q if x.ndim == 2 else q[0]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"p{i}": p.copy() for i, p in enumerate(self.params())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.params()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays, network has {len(params)}"
            )
        for i, p in enumerate(params):
            src = state[f"p{i}"]
            if src.shape != p.shape:
                raise ValueError(f"shape mismatch at p{i}: {src.shape} vs {p.shape}")
            np.copyto(p, src)


class MLPQNetwork(QNetwork):
    """obs -> Dense(hidden) -> ReLU -> Dense(n_actions)."""

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int,
        rng: np.random.Generator,
    ):
        super().__init__(obs_dim, n_actions, hidden_size, rng)
        self.fc2 = Dense(hidden_size, n_actions, rng)
        self._layers = (self.fc1, self.act1, self.fc2)

    def _head(self, h: np.ndarray, train: bool) -> np.ndarray:
        return self.fc2.forward(h, train)

    def backward(self, grad_q: np.ndarray) -> None:
        grad = self.fc2.backward(grad_q)
        grad = self.act1.backward(grad)
        self.fc1.backward(grad)


class DuelingQNetwork(QNetwork):
    """Dueling head: shared trunk, then V (scalar) and A (per-action).

    ``Q = V + A - mean(A)``; the mean-subtraction makes the decomposition
    identifiable.  Backward distributes ``dQ`` accordingly:
    ``dV_row = sum_a dQ[a]``, ``dA = dQ - mean_a(dQ)``.
    """

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int,
        rng: np.random.Generator,
    ):
        super().__init__(obs_dim, n_actions, hidden_size, rng)
        self.value_head = Dense(hidden_size, 1, rng)
        self.adv_head = Dense(hidden_size, n_actions, rng)
        self._layers = (self.fc1, self.act1, self.value_head, self.adv_head)

    def _head(self, h: np.ndarray, train: bool) -> np.ndarray:
        value = self.value_head.forward(h, train)  # (B, 1)
        adv = self.adv_head.forward(h, train)  # (B, A)
        return value + adv - adv.mean(axis=1, keepdims=True)

    def backward(self, grad_q: np.ndarray) -> None:
        grad_value = grad_q.sum(axis=1, keepdims=True)  # (B, 1)
        grad_adv = grad_q - grad_q.mean(axis=1, keepdims=True)  # (B, A)
        grad_h = self.value_head.backward(grad_value)
        grad_h = grad_h + self.adv_head.backward(grad_adv)
        grad = self.act1.backward(grad_h)
        self.fc1.backward(grad)
