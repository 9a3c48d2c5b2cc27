"""Baseline agents that run directly against the environment.

These cover the non-DQN arms of experiments: tabular Q-learning on a
discretised single-slot observation, linear Q-learning on the full history
window, the load-estimating heuristic, and a uniform-random sanity baseline.
All of them act per slot on the local machine; only the DQN arm goes through
the cloud session machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cloud_loop import build_state, derive_seeds, epsilon_linear
from .compression import DiscretizationScheme, discretize
from .errors import ConfigError
from .neural import DenseNet, forward
from .rach_env import RachConfig, RachEnv, le_urc_policy
from .rl_core import (
    LinearQ,
    QTable,
    Transition,
    epsilon_greedy,
    linear_q_predict,
    linear_q_update,
    tabular_q_update,
)

__all__ = [
    "LocalAgentParams",
    "TabularQAgent",
    "LinearQAgent",
    "LeUrcAgent",
    "RandomAgent",
    "make_agent",
    "run_local_agent",
    "greedy_action",
    "evaluate_greedy_agent",
    "evaluate_greedy_net",
    "LOCAL_AGENTS",
]


@dataclass(frozen=True)
class LocalAgentParams:
    alpha: float = 0.05
    discount: float = 0.9
    levels: int = 6
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 3000

    def __post_init__(self):
        if self.levels < 2:
            raise ConfigError("levels must be >= 2")


class TabularQAgent:
    """Q-table over the latest slot triple, each count binned equal-width.

    The full window is far too large to enumerate, so the table sees only
    the most recent (idle, collided, successful) triple.
    """

    def __init__(self, n_actions: int, norm: float, params: LocalAgentParams, rng):
        self.params = params
        self.norm = norm
        self.rng = rng
        self.table = QTable(n_actions, params.alpha)
        self.scheme = DiscretizationScheme(0.0, norm + 1.0, params.levels)
        self.slot = 0

    def _key(self, obs: np.ndarray) -> tuple[int, ...]:
        return tuple(discretize(self.scheme, v) for v in np.asarray(obs)[:3])

    def act(self, obs: np.ndarray) -> int:
        eps = epsilon_linear(
            self.slot, self.params.eps_start, self.params.eps_end, self.params.eps_decay_steps
        )
        return epsilon_greedy(self.table.row(self._key(obs)), eps, self.rng)

    def learn(self, obs, action, reward, next_obs) -> None:
        t = Transition(
            np.asarray(self._key(obs)), action, reward, np.asarray(self._key(next_obs)), False
        )
        self.table = tabular_q_update(self.table, t, self.params.discount)
        self.slot += 1


class LinearQAgent:
    """Semi-gradient linear Q-learning on the normalised window vector."""

    def __init__(self, n_actions: int, n_features: int, norm: float, params: LocalAgentParams, rng):
        self.params = params
        self.norm = norm
        self.rng = rng
        self.model = LinearQ.zeros(n_actions, n_features)
        self.slot = 0

    def _feat(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=float) / self.norm

    def act(self, obs: np.ndarray) -> int:
        eps = epsilon_linear(
            self.slot, self.params.eps_start, self.params.eps_end, self.params.eps_decay_steps
        )
        return epsilon_greedy(linear_q_predict(self.model, self._feat(obs)), eps, self.rng)

    def learn(self, obs, action, reward, next_obs) -> None:
        t = Transition(self._feat(obs), action, reward, self._feat(next_obs), False)
        self.model = linear_q_update(self.model, t, self.params.discount, self.params.alpha)
        self.slot += 1


class LeUrcAgent:
    """Stateless wrapper around the load-estimating heuristic."""

    def __init__(self, menu):
        self.menu = tuple(menu)

    def act(self, obs: np.ndarray) -> int:
        return self.menu.index(le_urc_policy(obs, self.menu))

    def learn(self, *args) -> None:
        pass


class RandomAgent:
    def __init__(self, n_actions: int, rng):
        self.n_actions = n_actions
        self.rng = rng

    def act(self, obs: np.ndarray) -> int:
        return int(self.rng.integers(self.n_actions))

    def learn(self, *args) -> None:
        pass


LOCAL_AGENTS = ("tabular", "la-q", "le-urc", "random")


def make_agent(kind: str, env_cfg: RachConfig, params: LocalAgentParams, rng):
    n_actions = len(env_cfg.action_menu)
    norm = float(env_cfg.max_opportunities)
    if kind == "tabular":
        return TabularQAgent(n_actions, norm, params, rng)
    if kind == "la-q":
        return LinearQAgent(n_actions, 3 * env_cfg.history_window, norm, params, rng)
    if kind == "le-urc":
        return LeUrcAgent(env_cfg.action_menu)
    if kind == "random":
        return RandomAgent(n_actions, rng)
    raise ConfigError(f"unknown local agent {kind!r}")


def run_local_agent(
    env_cfg: RachConfig,
    kind: str,
    params: LocalAgentParams,
    total_slots: int,
    bucket: int,
    seed: int,
) -> tuple[list[dict], object]:
    """Run one local agent; rows aggregate every ``bucket`` slots so the
    output lines up with cloud-session round rows.  Returns (rows, agent)
    so the trained agent can be evaluated after the run.

    Seeds derive exactly as a one-entity cloud session would derive them,
    so runs with the same seed see identical arrival and contention noise
    regardless of the agent (paired comparisons stay paired).
    """
    seeds = derive_seeds(seed, 1)["entities"][0]
    env = RachEnv(replace(env_cfg, seed=seeds["env"]))
    rng = np.random.default_rng(seeds["action"])
    agent = make_agent(kind, env_cfg, params, rng)
    obs = env.reset()
    rows: list[dict] = []
    bucket_rewards: list[float] = []
    for slot in range(total_slots):
        action = agent.act(obs)
        next_obs, reward, _ = env.step(env_cfg.action_menu[action])
        agent.learn(obs, action, reward, next_obs)
        obs = next_obs
        bucket_rewards.append(reward)
        if len(bucket_rewards) == bucket or slot == total_slots - 1:
            eps = epsilon_linear(
                getattr(agent, "slot", slot),
                params.eps_start,
                params.eps_end,
                params.eps_decay_steps,
            )
            rows.append(
                {
                    "round": len(rows),
                    "entity": 0,
                    "reward_mean": float(np.mean(bucket_rewards)),
                    "loss": float("nan"),
                    "epsilon": eps if kind in ("tabular", "la-q") else 0.0,
                    "staleness": 0,
                    "bytes_down_total": 0,
                    "bytes_up_total": 0,
                }
            )
            bucket_rewards = []
    return rows, agent


def greedy_action(agent, obs: np.ndarray) -> int:
    """Exploitation-only action for a trained local agent."""
    if isinstance(agent, TabularQAgent):
        return int(np.argmax(agent.table.row(agent._key(obs))))
    if isinstance(agent, LinearQAgent):
        return int(np.argmax(linear_q_predict(agent.model, agent._feat(obs))))
    return agent.act(obs)


def evaluate_greedy_agent(agent, env_cfg: RachConfig, slots: int, seed: int) -> float:
    """Mean per-slot reward of a frozen local agent on a fresh env.

    Uses the same seed derivation as evaluate_greedy_net, so agents whose
    greedy policies coincide see byte-identical rollouts.
    """
    seeds = derive_seeds(seed, 1)["entities"][0]
    env = RachEnv(replace(env_cfg, seed=seeds["env"]))
    obs = env.reset()
    total = 0.0
    for _ in range(slots):
        obs, reward, _ = env.step(env_cfg.action_menu[greedy_action(agent, obs)])
        total += reward
    return total / slots


def evaluate_greedy_net(
    net: DenseNet, env_cfg: RachConfig, slots: int, norm: float, seed: int
) -> float:
    """Mean per-slot reward of the network's greedy policy on a fresh env."""
    seeds = derive_seeds(seed, 1)["entities"][0]
    env = RachEnv(replace(env_cfg, seed=seeds["env"]))
    rng = np.random.default_rng(seeds["action"])
    menu = env_cfg.action_menu
    obs = env.reset()
    # One state row, refilled in place every slot.
    state = np.empty(obs.size, net.dtype)
    total = 0.0
    for _ in range(slots):
        build_state(obs, norm, net.dtype, out=state)
        action = epsilon_greedy(forward(net, state), 0.0, rng)
        obs, reward, _ = env.step(menu[action])
        total += reward
    return total / slots
