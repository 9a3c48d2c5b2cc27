"""Baseline agents that run directly against the environment.

These cover the non-DQN arms of experiments: tabular Q-learning on a
discretised single-slot observation, linear Q-learning on the full history
window, the load-estimating heuristic, and a uniform-random sanity baseline.
All of them act per slot on the local machine; only the DQN arm goes through
the cloud session machinery.

Each agent computes its features once per observation and acts and learns
on them: ``features(obs)`` is the tabular agent's bin triple, the linear
agent's ``[obs / norm; 1]`` vector in one array, the LE-URC agent's checked
count list, and the observation itself for the random agent.
``run_local_agent`` carries one slot's features over as the next slot's, so
an observation is featurised once however often it is read, and
``evaluate_greedy_agent`` featurises each observation once for ``greedy``.
``learn(feat, a, r, next_feat)`` writes the agent's own table row or weight
row in place through the one kernel per rule (``q_backup``,
``bias_features`` and ``linear_q_step`` in ``rl_core``, ``bin_indices`` in
``compression``, ``le_urc_pick`` in ``rach_env``).  The constants are
checked once, by ``LocalAgentParams``; the per-slot data checks stay
(finite features, finite reward, action in range).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cloud_loop import RoundLog, build_state, derive_seeds, epsilon_linear
from .compression import DiscretizationScheme, bin_indices
from .errors import ConfigError
from .neural import DenseNet, forward
from .rach_env import RachConfig, RachEnv, _check_fields, le_urc_counts, le_urc_pick, le_urc_ranking
from .rl_core import LinearQ, QTable, bias_features, epsilon_greedy, linear_q_step, q_backup

__all__ = [
    "LocalAgentParams",
    "TabularQAgent",
    "LinearQAgent",
    "LeUrcAgent",
    "RandomAgent",
    "make_agent",
    "run_local_agent",
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
        _check_fields(
            self,
            lambda: [
                ("alpha", 0 < self.alpha <= 1, "a number in (0, 1]"),
                ("discount", 0 < self.discount <= 1, "a number in (0, 1]"),
                ("levels", self.levels >= 2, "an integer >= 2"),
                ("eps_start", 0 <= self.eps_start <= 1, "a number in [0, 1]"),
                ("eps_end", 0 <= self.eps_end <= 1, "a number in [0, 1]"),
                ("eps_decay_steps", self.eps_decay_steps >= 1, "an integer >= 1"),
            ],
        )


class _EpsilonGreedyAgent:
    """Shared schedule of the two learning agents: epsilon anneals with the
    number of updates taken, and a greedy pick is epsilon 0."""

    def __init__(self, params: LocalAgentParams, rng):
        self.params = params
        self.rng = rng
        self.slot = 0
        # Python floats, as the public updates' checks return them
        self.discount, self.alpha = float(params.discount), float(params.alpha)

    def epsilon(self) -> float:
        p = self.params
        return epsilon_linear(self.slot, p.eps_start, p.eps_end, p.eps_decay_steps)

    def act(self, feat) -> int:
        return epsilon_greedy(self.q_values(feat), self.epsilon(), self.rng)

    def greedy(self, feat) -> int:
        return epsilon_greedy(self.q_values(feat), 0.0, self.rng)


class TabularQAgent(_EpsilonGreedyAgent):
    """Q-table over the latest slot triple, each count binned equal-width.

    The full window is far too large to enumerate, so the table sees only
    the most recent (idle, collided, successful) triple; that bin triple is
    the agent's features and its table key.
    """

    def __init__(self, n_actions: int, norm: float, params: LocalAgentParams, rng):
        super().__init__(params, rng)
        self.norm = norm
        self.table = QTable(n_actions, self.alpha)
        self.scheme = DiscretizationScheme(0.0, norm + 1.0, params.levels)
        # what an unseen state reads as; never written
        self._unseen = np.zeros(n_actions)

    def features(self, obs) -> tuple[int, ...]:
        return bin_indices(self.scheme, np.asarray(obs, dtype=float)[:3].tolist())

    def q_values(self, key) -> np.ndarray:
        return self.table.values.get(key, self._unseen)

    def learn(self, key, action, reward, next_key) -> None:
        q_backup(self.table, key, action, reward, next_key, self.discount)
        self.slot += 1


class LinearQAgent(_EpsilonGreedyAgent):
    """Semi-gradient linear Q-learning on the normalised window vector;
    its features are ``[obs / norm; 1]``."""

    def __init__(self, n_actions: int, n_features: int, norm: float, params: LocalAgentParams, rng):
        super().__init__(params, rng)
        self.norm = norm
        self.model = LinearQ.zeros(n_actions, n_features)

    def features(self, obs) -> np.ndarray:
        return bias_features(obs, self.model.n_features, self.norm)

    def q_values(self, phi) -> np.ndarray:
        return self.model.weights.dot(phi)

    def learn(self, phi, action, reward, next_phi) -> None:
        linear_q_step(self.model.weights, phi, action, reward, next_phi, self.discount, self.alpha)
        self.slot += 1


class _FixedPolicyAgent:
    """An agent that does not learn: greedy is acting, and epsilon is 0."""

    def greedy(self, feat) -> int:
        return self.act(feat)

    def learn(self, *args) -> None:
        pass

    def epsilon(self) -> float:
        return 0.0


class LeUrcAgent(_FixedPolicyAgent):
    """Stateless wrapper around the load-estimating heuristic; its features
    are the observation's checked count list."""

    def __init__(self, menu):
        self.menu = tuple(menu)
        self._ranking = le_urc_ranking(self.menu)

    def features(self, obs) -> list[float]:
        return le_urc_counts(obs)

    def act(self, counts) -> int:
        return le_urc_pick(counts, self._ranking)


class RandomAgent(_FixedPolicyAgent):
    """Uniform over the menu; its features are the observation, unread."""

    def __init__(self, n_actions: int, rng):
        self.n_actions = n_actions
        self.rng = rng

    def features(self, obs):
        return obs

    def act(self, feat) -> int:
        return int(self.rng.integers(self.n_actions))


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


def _entity_env(env_cfg: RachConfig, seed: int) -> tuple[RachEnv, np.random.Generator]:
    """The environment and action generator of a one-entity session's entity."""
    seeds = derive_seeds(seed, 1)["entities"][0]
    return RachEnv(replace(env_cfg, seed=seeds["env"])), np.random.default_rng(seeds["action"])


def run_local_agent(
    env_cfg: RachConfig,
    kind: str,
    params: LocalAgentParams,
    total_slots: int,
    bucket: int,
    seed: int,
) -> tuple[RoundLog, object]:
    """Run one local agent; each record of its width-1 round log aggregates
    ``bucket`` slots, so the log lines up with a one-entity cloud session's.
    Returns (log, agent) so the trained agent can be evaluated after the run.

    Seeds derive exactly as a one-entity cloud session would derive them,
    so runs with the same seed see identical arrival and contention noise
    regardless of the agent (paired comparisons stay paired).  Each
    observation is featurised once: a slot's next features are the
    following slot's features.
    """
    env, rng = _entity_env(env_cfg, seed)
    agent = make_agent(kind, env_cfg, params, rng)
    menu = env_cfg.action_menu
    feat = agent.features(env.reset())
    log = RoundLog(1)
    for start in range(0, total_slots, bucket):
        n = min(bucket, total_slots - start)
        total = 0.0
        for _ in range(n):
            action = agent.act(feat)
            next_obs, reward, _ = env.step(menu[action])
            next_feat = agent.features(next_obs)
            agent.learn(feat, action, reward, next_feat)
            feat = next_feat
            total += reward
        # rewards are whole counts of served devices, so the running sum is
        # exact in any order and total / n is np.mean's value
        log.append(len(log), 0, total / n, float("nan"), agent.epsilon(), 0, 0, 0)
    return log, agent


def evaluate_greedy_agent(agent, env_cfg: RachConfig, slots: int, seed: int) -> float:
    """Mean per-slot reward of a frozen local agent on a fresh env.

    Uses the same seed derivation as evaluate_greedy_net, so agents whose
    greedy policies coincide see byte-identical rollouts.
    """
    env, _ = _entity_env(env_cfg, seed)
    menu = env_cfg.action_menu
    obs = env.reset()
    total = 0.0
    for _ in range(slots):
        obs, reward, _ = env.step(menu[agent.greedy(agent.features(obs))])
        total += reward
    return total / slots


def evaluate_greedy_net(net: DenseNet, env_cfg: RachConfig, slots: int, seed: int) -> float:
    """Mean per-slot reward of the network's greedy policy on a fresh env,
    fed states scaled by the menu norm, ``env_cfg.max_opportunities``."""
    env, rng = _entity_env(env_cfg, seed)
    menu, norm = env_cfg.action_menu, float(env_cfg.max_opportunities)
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
