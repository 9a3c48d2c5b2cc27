"""Core reinforcement-learning primitives.

Discounted returns, epsilon-greedy action selection, tabular Q-learning and
linear (semi-gradient) Q-learning with a trailing bias feature.  Everything
here is deterministic given its inputs and, where randomness is involved, an
explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from .errors import ConfigError, InvalidInputError

__all__ = [
    "Transition",
    "QTable",
    "LinearQ",
    "discounted_return",
    "epsilon_greedy",
    "tabular_q_update",
    "linear_q_predict",
    "linear_q_update",
    "state_key",
]


@dataclass(frozen=True)
class Transition:
    """One (state, action, reward, next_state, terminal) experience record."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool = False


def check_discount(discount: float) -> float:
    """Validate 0 < discount <= 1 and return it as a float."""
    lam = float(discount)
    if not 0.0 < lam <= 1.0:
        raise ConfigError(f"discount must lie in (0, 1], got {discount!r}")
    return lam


def _check_step_size(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ConfigError(f"step size must lie in (0, 1], got {alpha!r}")
    return a


def discounted_return(rewards: Iterable[float], discount: float) -> float:
    """Sum of rewards weighted by discount**t, t starting at 0.

    An empty reward sequence returns 0.0.  Non-finite rewards are rejected.
    """
    lam = check_discount(discount)
    r = np.asarray(list(rewards), dtype=float)
    if r.size == 0:
        return 0.0
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("rewards must all be finite")
    return float(r @ np.power(lam, np.arange(r.size)))


def epsilon_greedy(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Pick argmax with probability 1 - epsilon, else a uniform action.

    Ties in the greedy branch resolve to the lowest action index.  With
    epsilon = 0 the choice is fully deterministic.  Float values up to 64
    bits are read out as Python floats, an exact widening, so the checks
    and the argmax see what a float64 copy would hold; for a menu-sized
    vector that is several times cheaper than numpy's per-call overhead.
    Other values are converted to float64 first.
    """
    q = np.asarray(q_values)
    if q.dtype.kind != "f" or q.dtype.itemsize > 8:
        q = q.astype(float)
    if q.ndim != 1 or q.size == 0:
        raise InvalidInputError("q_values must be a nonempty 1-D array")
    values = q.tolist()
    if not all(map(math.isfinite, values)):
        raise InvalidInputError("q_values must be finite")
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(q.size))
    return values.index(max(values))


def state_key(state) -> Hashable:
    """Hashable dictionary key for a state vector or scalar id."""
    if isinstance(state, (int, str)):
        return state
    arr = np.asarray(state)
    if arr.ndim == 0:
        return arr.item()
    return tuple(arr.ravel().tolist())


@dataclass
class QTable:
    """Action-value table with a constant learning rate.

    Rows are dense per-action arrays keyed by a hashable state id; states
    never visited read as all-zero rows without being inserted.
    """

    n_actions: int
    alpha: float
    values: dict[Hashable, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_actions < 1:
            raise ConfigError("QTable needs at least one action")
        self.alpha = _check_step_size(self.alpha)

    def row(self, state) -> np.ndarray:
        """Per-action values for ``state`` (zeros if unseen).  Read-only copy."""
        key = state_key(state)
        if key in self.values:
            return self.values[key].copy()
        return np.zeros(self.n_actions)


def tabular_q_update(table: QTable, t: Transition, discount: float) -> QTable:
    """One Q-learning backup; returns a new table sharing untouched rows.

    Q(s,a) <- (1 - alpha) Q(s,a) + alpha * (r + discount * max_a' Q(s',a')),
    with the bootstrap term dropped on terminal transitions.
    """
    lam = check_discount(discount)
    if not np.isfinite(t.reward):
        raise InvalidInputError("reward must be finite")
    a = int(t.action)
    if not 0 <= a < table.n_actions:
        raise InvalidInputError(f"action {t.action} outside [0, {table.n_actions})")
    row = table.row(t.state)
    if t.terminal:
        target = float(t.reward)
    else:
        target = float(t.reward) + lam * float(table.row(t.next_state).max())
    row[a] = (1.0 - table.alpha) * row[a] + table.alpha * target
    new_values = dict(table.values)
    new_values[state_key(t.state)] = row
    return QTable(table.n_actions, table.alpha, new_values)


@dataclass
class LinearQ:
    """One linear value head per action over [features; 1].

    ``weights`` has shape (n_actions, n_features + 1); the trailing column
    multiplies a constant 1 appended to every state (the bias feature).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise ConfigError("LinearQ weights must be (n_actions, n_features + 1)")
        self.weights = w

    @classmethod
    def zeros(cls, n_actions: int, n_features: int) -> "LinearQ":
        return cls(np.zeros((n_actions, n_features + 1)))

    @property
    def n_actions(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1] - 1


def _bias_augment(lq: LinearQ, state) -> np.ndarray:
    x = np.asarray(state, dtype=float).ravel()
    if x.size != lq.n_features:
        raise InvalidInputError(
            f"state has {x.size} features, model expects {lq.n_features}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("state features must be finite")
    return np.append(x, 1.0)


def linear_q_predict(lq: LinearQ, state) -> np.ndarray:
    """Per-action value estimates w_a . [state; 1]."""
    return lq.weights @ _bias_augment(lq, state)


def linear_q_update(lq: LinearQ, t: Transition, discount: float, alpha: float) -> LinearQ:
    """Semi-gradient Q-learning step on the taken action's weight row."""
    lam = check_discount(discount)
    a_step = _check_step_size(alpha)
    if not np.isfinite(t.reward):
        raise InvalidInputError("reward must be finite")
    a = int(t.action)
    if not 0 <= a < lq.n_actions:
        raise InvalidInputError(f"action {t.action} outside [0, {lq.n_actions})")
    phi = _bias_augment(lq, t.state)
    if t.terminal:
        target = float(t.reward)
    else:
        target = float(t.reward) + lam * float(linear_q_predict(lq, t.next_state).max())
    pred = float(lq.weights[a] @ phi)
    w = lq.weights.copy()
    w[a] += a_step * (target - pred) * phi
    return LinearQ(w)
