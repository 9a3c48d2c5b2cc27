import numpy as np
import pytest

from greenrl.agents import (
    LOCAL_AGENTS,
    LeUrcAgent,
    LinearQAgent,
    LocalAgentParams,
    RandomAgent,
    TabularQAgent,
    evaluate_greedy_agent,
    evaluate_greedy_net,
    greedy_action,
    make_agent,
    run_local_agent,
)
from greenrl.errors import ConfigError, InvalidInputError
from greenrl.neural import glorot_init
from greenrl.rach_env import BernoulliTraffic, RachAction, RachConfig, le_urc_policy

MENU = (
    RachAction(1, 8, 8),
    RachAction(2, 8, 8),
    RachAction(4, 8, 8),
    RachAction(6, 8, 4),
)


def env_config(**overrides):
    kwargs = {
        "num_devices": 30,
        "action_menu": MENU,
        "history_window": 2,
        "traffic": BernoulliTraffic(0.1),
    }
    kwargs.update(overrides)
    return RachConfig(**kwargs)


def test_params_validation():
    with pytest.raises(ConfigError):
        LocalAgentParams(levels=1)


def test_make_agent_dispatch():
    cfg = env_config()
    params = LocalAgentParams()
    rng = np.random.default_rng(0)
    assert isinstance(make_agent("tabular", cfg, params, rng), TabularQAgent)
    assert isinstance(make_agent("la-q", cfg, params, rng), LinearQAgent)
    assert isinstance(make_agent("le-urc", cfg, params, rng), LeUrcAgent)
    assert isinstance(make_agent("random", cfg, params, rng), RandomAgent)
    with pytest.raises(ConfigError):
        make_agent("sarsa", cfg, params, rng)
    assert set(LOCAL_AGENTS) == {"tabular", "la-q", "le-urc", "random"}


def test_tabular_key_uses_latest_triple_only():
    agent = TabularQAgent(4, 48.0, LocalAgentParams(levels=7), np.random.default_rng(0))
    obs = np.array([10.0, 2.0, 5.0, 40.0, 40.0, 40.0])
    key = agent._key(obs)
    assert len(key) == 3
    assert key == agent._key(obs[:3])  # history beyond the first slot is ignored
    assert all(0 <= k < 7 for k in key)


def test_tabular_learn_updates_acted_cell():
    params = LocalAgentParams(alpha=0.5, discount=0.9)
    agent = TabularQAgent(4, 48.0, params, np.random.default_rng(0))
    obs = np.zeros(6)
    agent.learn(obs, 2, 10.0, obs)
    key = agent._key(obs)
    row = agent.table.row(key)
    # the bootstrap row was still all zeros when the target was formed
    assert row[2] == pytest.approx(5.0)  # 0.5 * (10 + 0.9 * 0)
    assert row[0] == row[1] == row[3] == 0.0
    assert agent.slot == 1


def test_linear_agent_features_and_update_direction():
    params = LocalAgentParams(alpha=0.1, discount=0.9)
    agent = LinearQAgent(4, 6, 48.0, params, np.random.default_rng(0))
    obs = np.full(6, 24.0)
    np.testing.assert_allclose(agent._feat(obs), 0.5)
    before = agent.model.weights[1].copy()
    agent.learn(obs, 1, 3.0, obs)
    after = agent.model.weights[1]
    assert not np.array_equal(after, before)
    # positive TD error on all-positive features pushes weights up
    assert np.all(after >= before)


def test_le_urc_agent_matches_policy_function():
    cfg = env_config()
    agent = LeUrcAgent(cfg.action_menu)
    obs = np.array([5.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    idx = agent.act(obs)
    assert cfg.action_menu[idx] == le_urc_policy(obs, cfg.action_menu)
    agent.learn(obs, idx, 1.0, obs)  # no-op, must not raise


def test_random_agent_covers_menu():
    agent = RandomAgent(4, np.random.default_rng(0))
    picks = {agent.act(np.zeros(6)) for _ in range(200)}
    assert picks == {0, 1, 2, 3}


def test_run_local_agent_row_shape_and_buckets():
    rows, agent = run_local_agent(env_config(), "tabular", LocalAgentParams(), 100, 25, seed=0)
    assert len(rows) == 4
    assert rows[0]["round"] == 0 and rows[-1]["round"] == 3
    assert set(rows[0]) == {
        "round",
        "entity",
        "reward_mean",
        "loss",
        "epsilon",
        "staleness",
        "bytes_down_total",
        "bytes_up_total",
    }
    assert all(r["bytes_down_total"] == 0 for r in rows)  # no cloud traffic
    assert agent.slot == 100


def test_run_local_agent_ragged_final_bucket():
    rows, _ = run_local_agent(env_config(), "random", LocalAgentParams(), 10, 4, seed=0)
    assert len(rows) == 3  # 4 + 4 + 2


def test_heuristic_rows_report_zero_epsilon():
    rows, _ = run_local_agent(env_config(), "le-urc", LocalAgentParams(), 20, 10, seed=0)
    assert all(r["epsilon"] == 0.0 for r in rows)
    rows, _ = run_local_agent(env_config(), "tabular", LocalAgentParams(), 20, 10, seed=0)
    assert rows[0]["epsilon"] > 0.0


def test_same_seed_pairs_identical_noise():
    """Two agents with one seed face the same arrivals, so the heuristic's
    score is reproducible across kinds run back to back."""
    a, _ = run_local_agent(env_config(), "le-urc", LocalAgentParams(), 50, 50, seed=9)
    b, _ = run_local_agent(env_config(), "le-urc", LocalAgentParams(), 50, 50, seed=9)
    assert a[0]["reward_mean"] == b[0]["reward_mean"]


def test_greedy_action_freezes_learning_agents():
    cfg = env_config()
    _, agent = run_local_agent(cfg, "tabular", LocalAgentParams(), 200, 50, seed=1)
    obs = np.zeros(6)
    picks = {greedy_action(agent, obs) for _ in range(20)}
    assert len(picks) == 1  # no exploration left
    row = agent.table.row(agent._key(obs))
    assert picks.pop() == int(np.argmax(row))


def test_evaluate_greedy_agent_depends_only_on_policy():
    cfg = env_config()
    heur = LeUrcAgent(cfg.action_menu)
    score_a = evaluate_greedy_agent(heur, cfg, 200, seed=4)
    score_b = evaluate_greedy_agent(LeUrcAgent(cfg.action_menu), cfg, 200, seed=4)
    assert score_a == score_b
    assert score_a > 0.0


def test_evaluate_greedy_net_deterministic_and_seed_sensitive():
    cfg = env_config()
    net = glorot_init((6, 8, 4), seed=0, dtype=np.float32)
    one = evaluate_greedy_net(net, cfg, 150, 48.0, seed=2)
    two = evaluate_greedy_net(net, cfg, 150, 48.0, seed=2)
    other = evaluate_greedy_net(net, cfg, 150, 48.0, seed=3)
    assert one == two
    assert one != other


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_evaluate_greedy_net_rejects_non_finite_weights():
    net = glorot_init((6, 8, 4), seed=0, dtype=np.float32)
    net.weights[1][3, 2] = np.inf
    with pytest.raises(InvalidInputError):
        evaluate_greedy_net(net, env_config(), 20, 48.0, seed=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_greedy_net_matches_reference_rollout(dtype):
    """The in-place state row and trusted forward pick the same actions as
    build_state, the reference forward and the reference environment."""
    from dataclasses import replace

    from greenrl.cloud_loop import build_state, derive_seeds
    from oracles import ReferenceRachEnv, _reference_forward_cached

    cfg = env_config()
    net = glorot_init((6, 8, 4), seed=4, dtype=dtype)
    net.biases = [np.linspace(-0.5, 0.5, b.size).astype(dtype) for b in net.biases]
    env = ReferenceRachEnv(replace(cfg, seed=derive_seeds(9, 1)["entities"][0]["env"]))
    obs, total = env.reset(), 0.0
    for _ in range(300):
        q = _reference_forward_cached(net, build_state(obs, 48.0, dtype)[None, :])[1][-1][0]
        obs, reward, _ = env.step(MENU[int(np.argmax(q))])
        total += reward
    assert evaluate_greedy_net(net, cfg, 300, 48.0, seed=9) == total / 300
