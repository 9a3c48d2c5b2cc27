"""Core reinforcement-learning primitives.

Epsilon-greedy action selection (``explore`` is its exploring half), the
tabular Q-learning backup (``q_backup``) and the linear (semi-gradient)
Q-learning step (``linear_q_step``) on a trailing bias feature
(``bias_features``).  The local agents in ``greenrl.agents`` call these
kernels on their own table or weight rows, in place.  Everything here is
deterministic given its inputs and, where randomness is involved, an
explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .errors import ConfigError, InvalidInputError

__all__ = [
    "QTable",
    "LinearQ",
    "explore",
    "epsilon_greedy",
    "q_backup",
    "bias_features",
    "linear_q_step",
]


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


def check_epsilon(epsilon: float) -> float:
    """Validate 0 <= epsilon <= 1 and return it as a float."""
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return eps


def explore(epsilon: float, rng: np.random.Generator, n_actions: int) -> int | None:
    """The exploring half of epsilon-greedy: a uniform action, or None to act greedily.

    With epsilon > 0 it draws ``rng.random()`` and, when that falls below
    epsilon, ``rng.integers(n_actions)``; with epsilon = 0 it draws nothing.
    A caller that gets None can compute its action values only then, and
    pick with ``epsilon_greedy(q, 0.0, rng)``, which draws nothing more: the
    generator ends where one ``epsilon_greedy(q, epsilon, rng)`` call leaves it.
    A caller acting many times at one epsilon may check it once with
    ``check_epsilon`` and make these draws itself.
    """
    eps = check_epsilon(epsilon)
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(n_actions))
    return None


def epsilon_greedy(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Pick argmax with probability 1 - epsilon, else a uniform action.

    The values are checked first, then ``explore`` checks epsilon and makes
    the draws.  Ties in the greedy branch resolve to the lowest action index.
    With epsilon = 0 the choice is fully deterministic.  Float values up to 64
    bits (dtype chars ``e``, ``f``, ``d``) are read out as Python floats, an
    exact widening, so the checks and the argmax see what a float64 copy
    would hold; for a menu-sized vector that is several times cheaper than
    numpy's per-call overhead.  Other values are converted to float64 first.
    An epsilon that reads as 0.0 through ``float``, which passes ``explore``'s
    check and draws nothing there, takes the argmax without calling it.
    """
    q = np.asarray(q_values)
    if q.dtype.char not in "efd":
        q = q.astype(float)
    if q.ndim != 1 or q.size == 0:
        raise InvalidInputError("q_values must be a nonempty 1-D array")
    values = q.tolist()
    if not all(map(math.isfinite, values)):
        raise InvalidInputError("q_values must be finite")
    action = None if float(epsilon) == 0.0 else explore(epsilon, rng, q.size)
    return values.index(max(values)) if action is None else action


@dataclass
class QTable:
    """Action-value table with a constant learning rate.

    Rows are dense per-action arrays keyed by a hashable state id.  A state
    never backed up has no row and reads as all zeros
    (``TabularQAgent.q_values``); ``q_backup`` inserts its row.
    """

    n_actions: int
    alpha: float
    values: dict[Hashable, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_actions < 1:
            raise ConfigError("QTable needs at least one action")
        self.alpha = _check_step_size(self.alpha)


def q_backup(table: QTable, key, action, reward, next_key, lam: float) -> None:
    """One Q-learning backup, written into ``table``'s row for ``key`` in place.

    Q(s,a) <- (1 - alpha) Q(s,a) + alpha * (r + lam * max_a' Q(s',a')),
    with the bootstrap term dropped when ``next_key`` is None (a terminal
    transition).  The one tabular backup: the tabular agent comes here
    with its bin triples as keys.  ``key`` and ``next_key`` are hashable
    keys, and ``lam`` is a checked discount; the reward and action are
    checked on every call, before the table is touched.
    """
    if not math.isfinite(reward):
        raise InvalidInputError("reward must be finite")
    a = int(action)
    if not 0 <= a < table.n_actions:
        raise InvalidInputError(f"action {action} outside [0, {table.n_actions})")
    values = table.values
    row = values.get(key)
    if row is None:
        row = values[key] = np.zeros(table.n_actions)
    if next_key is None:
        target = float(reward)
    else:
        nxt = values.get(next_key)
        target = float(reward) + lam * (0.0 if nxt is None else float(nxt.max()))
    row[a] = (1.0 - table.alpha) * row[a] + table.alpha * target


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


def bias_features(state, n_features: int, scale: float = 1.0) -> np.ndarray:
    """The feature vector [state / scale; 1], written into one new array.

    The one bias augmentation: the linear agent featurises each observation
    here, scaled by the menu's largest opportunity count.  The state must
    hold ``n_features`` values, all finite; the check reads them out as
    Python floats, several times cheaper than ``np.isfinite`` for a
    window-sized vector.
    """
    x = np.asarray(state, dtype=float).ravel()
    if x.size != n_features:
        raise InvalidInputError(f"state has {x.size} features, model expects {n_features}")
    phi = np.empty(n_features + 1)
    np.divide(x, scale, out=phi[:n_features])
    phi[n_features] = 1.0
    if not all(map(math.isfinite, phi.tolist())):
        raise InvalidInputError("state features must be finite")
    return phi


def linear_q_step(weights: np.ndarray, phi, action, reward, next_phi, lam: float, alpha: float) -> None:
    """Semi-gradient Q-learning step on the taken action's row of ``weights``,
    in place.

    The target is r + lam * max_a' w_a' . next_phi, or r alone when
    ``next_phi`` is None (a terminal transition).  The one linear update:
    the linear agent comes here with its own weight matrix.  ``phi`` and
    ``next_phi`` come from ``bias_features``, and ``lam`` and ``alpha`` are
    checked; the reward and action are checked on every call.
    """
    if not math.isfinite(reward):
        raise InvalidInputError("reward must be finite")
    a = int(action)
    if not 0 <= a < weights.shape[0]:
        raise InvalidInputError(f"action {action} outside [0, {weights.shape[0]})")
    if next_phi is None:
        target = float(reward)
    else:
        target = float(reward) + lam * float(weights.dot(next_phi).max())
    pred = float(weights[a].dot(phi))
    weights[a] += alpha * (target - pred) * phi
