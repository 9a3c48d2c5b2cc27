import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.agents import (
    LOCAL_AGENTS,
    LeUrcAgent,
    LinearQAgent,
    LocalAgentParams,
    RandomAgent,
    TabularQAgent,
    evaluate_greedy_agent,
    evaluate_greedy_net,
    make_agent,
    run_local_agent,
)
from greenrl.cloud_loop import ROUND_COLUMNS
from greenrl.config import config_from_dict
from greenrl.errors import ConfigError, InvalidInputError
from greenrl.neural import glorot_init, pack
from greenrl.rach_env import BernoulliTraffic, RachAction, RachConfig
from oracles import reference_evaluate_greedy_agent, reference_le_urc_policy, reference_run_local_agent

MENU = (
    RachAction(1, 8, 8),
    RachAction(2, 8, 8),
    RachAction(4, 8, 8),
    RachAction(6, 8, 4),
)


def reference_records(ref_rows) -> list[tuple]:
    """The reference's row dicts as round-log records, in column order."""
    return [tuple(row[c] for c in ROUND_COLUMNS) for row in ref_rows]


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


@pytest.mark.parametrize(
    "key,value",
    [
        ("alpha", 0.0),
        ("alpha", 1.5),
        ("alpha", float("nan")),
        ("alpha", "0.1"),
        ("discount", 0.0),
        ("discount", 1.01),
        ("discount", True),
        ("levels", 1),
        ("levels", 2.5),
        ("eps_start", 2.0),
        ("eps_start", -0.1),
        ("eps_end", float("inf")),
        ("eps_decay_steps", 0),
        ("eps_decay_steps", 10.5),
        ("eps_decay_steps", None),
    ],
)
def test_params_checks_name_the_dotted_path(key, value):
    with pytest.raises(ConfigError, match=rf"^config\.agent_params\.{key}: must be"):
        config_from_dict({"agent": "la-q", "agent_params": {key: value}})


def test_params_accept_the_range_edges():
    LocalAgentParams(alpha=1.0, discount=1.0, levels=2, eps_start=0.0, eps_end=1.0, eps_decay_steps=1)
    LocalAgentParams(alpha=1, levels=np.int64(3), eps_start=np.float32(0.5))


def test_learning_agents_update_their_own_rows_in_place():
    params = LocalAgentParams(alpha=0.5)
    tab = TabularQAgent(4, 48.0, params, np.random.default_rng(0))
    key = tab.features(np.zeros(6))
    tab.learn(key, 1, 2.0, key)
    values, row = tab.table.values, tab.table.values[key]
    tab.learn(key, 1, 2.0, key)
    assert tab.table.values is values and tab.table.values[key] is row
    assert row[1] == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 + 0.9 * 1.0))
    laq = LinearQAgent(4, 6, 48.0, params, np.random.default_rng(0))
    weights = laq.model.weights
    phi = laq.features(np.full(6, 24.0))
    laq.learn(phi, 2, 1.0, phi)
    assert laq.model.weights is weights
    assert np.any(weights[2] != 0.0) and not np.any(weights[[0, 1, 3]])


def test_agents_reject_bad_slot_data():
    params = LocalAgentParams()
    tab = TabularQAgent(4, 48.0, params, np.random.default_rng(0))
    laq = LinearQAgent(4, 6, 48.0, params, np.random.default_rng(0))
    urc = LeUrcAgent(MENU)
    for agent in (tab, laq, urc):
        for bad in (np.nan, np.inf):
            obs = np.zeros(6)
            obs[1] = bad
            with pytest.raises(InvalidInputError):
                agent.features(obs)
    for agent in (tab, laq):
        feat = agent.features(np.zeros(6))
        with pytest.raises(InvalidInputError):
            agent.learn(feat, 0, float("nan"), feat)
        with pytest.raises(InvalidInputError):
            agent.learn(feat, 4, 1.0, feat)
        assert agent.slot == 0
    assert tab.table.values == {}
    assert not np.any(laq.model.weights)


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
    key = agent.features(obs)
    assert len(key) == 3
    assert key == agent.features(obs[:3])  # history beyond the first slot is ignored
    assert all(0 <= k < 7 for k in key)


def test_tabular_learn_updates_acted_cell():
    params = LocalAgentParams(alpha=0.5, discount=0.9)
    agent = TabularQAgent(4, 48.0, params, np.random.default_rng(0))
    obs = np.zeros(6)
    key = agent.features(obs)
    agent.learn(key, 2, 10.0, key)
    row = agent.q_values(key)
    # the bootstrap row was still all zeros when the target was formed
    assert row[2] == pytest.approx(5.0)  # 0.5 * (10 + 0.9 * 0)
    assert row[0] == row[1] == row[3] == 0.0
    assert agent.slot == 1


def test_tabular_unseen_state_reads_zero_without_insert():
    agent = TabularQAgent(4, 48.0, LocalAgentParams(), np.random.default_rng(0))
    assert agent.q_values((1, 2, 3)).tolist() == [0.0] * 4
    assert agent.table.values == {}


def test_linear_agent_features_and_update_direction():
    params = LocalAgentParams(alpha=0.1, discount=0.9)
    agent = LinearQAgent(4, 6, 48.0, params, np.random.default_rng(0))
    obs = np.full(6, 24.0)
    phi = agent.features(obs)
    np.testing.assert_allclose(phi[:-1], 0.5)
    assert phi[-1] == 1.0  # the bias feature
    before = agent.model.weights[1].copy()
    agent.learn(phi, 1, 3.0, phi)
    after = agent.model.weights[1]
    assert not np.array_equal(after, before)
    # positive TD error on all-positive features pushes weights up
    assert np.all(after >= before)


def test_le_urc_agent_matches_policy_function():
    cfg = env_config()
    agent = LeUrcAgent(cfg.action_menu)
    obs = np.array([5.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    counts = agent.features(obs)
    idx = agent.act(counts)
    assert cfg.action_menu[idx] == reference_le_urc_policy(obs, cfg.action_menu)
    agent.learn(counts, idx, 1.0, counts)  # no-op, must not raise


def test_random_agent_covers_menu():
    agent = RandomAgent(4, np.random.default_rng(0))
    picks = {agent.act(agent.features(np.zeros(6))) for _ in range(200)}
    assert picks == {0, 1, 2, 3}


def test_run_local_agent_row_shape_and_buckets():
    rows, agent = run_local_agent(env_config(), "tabular", LocalAgentParams(), 100, 25, seed=0)
    assert len(rows) == 4 and rows.width == 1
    assert rows["round"][0] == 0 and rows["round"][-1] == 3
    assert all(len(record) == len(ROUND_COLUMNS) for record in rows)
    assert set(ROUND_COLUMNS) == {
        "round",
        "entity",
        "reward_mean",
        "loss",
        "epsilon",
        "staleness",
        "bytes_down_total",
        "bytes_up_total",
    }
    assert all(b == 0 for b in rows["bytes_down_total"])  # no cloud traffic
    assert agent.slot == 100


def test_run_local_agent_ragged_final_bucket():
    rows, _ = run_local_agent(env_config(), "random", LocalAgentParams(), 10, 4, seed=0)
    assert len(rows) == 3  # 4 + 4 + 2


def test_heuristic_rows_report_zero_epsilon():
    rows, _ = run_local_agent(env_config(), "le-urc", LocalAgentParams(), 20, 10, seed=0)
    assert all(e == 0.0 for e in rows["epsilon"])
    rows, _ = run_local_agent(env_config(), "tabular", LocalAgentParams(), 20, 10, seed=0)
    assert rows["epsilon"][0] > 0.0


def test_same_seed_pairs_identical_noise():
    """Two agents with one seed face the same arrivals, so the heuristic's
    score is reproducible across kinds run back to back."""
    a, _ = run_local_agent(env_config(), "le-urc", LocalAgentParams(), 50, 50, seed=9)
    b, _ = run_local_agent(env_config(), "le-urc", LocalAgentParams(), 50, 50, seed=9)
    assert a["reward_mean"][0] == b["reward_mean"][0]


def test_greedy_action_freezes_learning_agents():
    cfg = env_config()
    _, agent = run_local_agent(cfg, "tabular", LocalAgentParams(), 200, 50, seed=1)
    obs = np.zeros(6)
    picks = {agent.greedy(agent.features(obs)) for _ in range(20)}
    assert len(picks) == 1  # no exploration left
    row = agent.q_values(agent.features(obs))
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
    one = evaluate_greedy_net(net, cfg, 150, seed=2)
    two = evaluate_greedy_net(net, cfg, 150, seed=2)
    other = evaluate_greedy_net(net, cfg, 150, seed=3)
    assert one == two
    assert one != other


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_evaluate_greedy_net_rejects_non_finite_weights():
    net = glorot_init((6, 8, 4), seed=0, dtype=np.float32)
    net.weights[1][3, 2] = np.inf
    with pytest.raises(InvalidInputError):
        evaluate_greedy_net(net, env_config(), 20, seed=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_greedy_net_matches_reference_rollout(dtype):
    """The in-place state row and trusted forward pick the same actions as
    build_state at the menu's largest size, the reference forward and the
    reference environment."""
    from dataclasses import replace

    from greenrl.cloud_loop import build_state, derive_seeds
    from oracles import ReferenceRachEnv, _reference_forward_cached

    cfg = env_config()
    assert cfg.max_opportunities == 48
    net = glorot_init((6, 8, 4), seed=4, dtype=dtype)
    net = pack(net.layer_dims, net.weights, [np.linspace(-0.5, 0.5, b.size).astype(dtype) for b in net.biases])
    env = ReferenceRachEnv(replace(cfg, seed=derive_seeds(9, 1)["entities"][0]["env"]))
    obs, total = env.reset(), 0.0
    for _ in range(300):
        q = _reference_forward_cached(net, build_state(obs, 48.0, dtype)[None, :])[1][-1][0]
        obs, reward, _ = env.step(MENU[int(np.argmax(q))])
        total += reward
    assert evaluate_greedy_net(net, cfg, 300, seed=9) == total / 300


unit = st.floats(min_value=0.0, max_value=1.0)


@given(
    kind=st.sampled_from(LOCAL_AGENTS),
    seed=st.integers(0, 2**32 - 1),
    total_slots=st.integers(1, 300),
    bucket=st.integers(1, 40),
    eval_slots=st.integers(1, 120),
    window=st.integers(1, 4),
    num_devices=st.integers(1, 60),
    traffic_p=unit,
    levels=st.integers(2, 12),
    alpha=st.floats(min_value=1e-3, max_value=1.0),
    discount=st.floats(min_value=1e-3, max_value=1.0),
    eps=st.tuples(unit, unit),
    eps_decay_steps=st.integers(1, 400),
)
@settings(max_examples=120, deadline=None)
def test_local_agents_match_reference_bit_for_bit(
    kind,
    seed,
    total_slots,
    bucket,
    eval_slots,
    window,
    num_devices,
    traffic_p,
    levels,
    alpha,
    discount,
    eps,
    eps_decay_steps,
):
    """Training rows, greedy eval rewards and the learned table or weights
    equal the reference agents' exactly, for every kind."""
    cfg = env_config(
        history_window=window, num_devices=num_devices, traffic=BernoulliTraffic(traffic_p)
    )
    params = LocalAgentParams(
        alpha=alpha,
        discount=discount,
        levels=levels,
        eps_start=eps[0],
        eps_end=eps[1],
        eps_decay_steps=eps_decay_steps,
    )
    rows, agent = run_local_agent(cfg, kind, params, total_slots, bucket, seed)
    ref_rows, ref = reference_run_local_agent(cfg, kind, params, total_slots, bucket, seed)
    # repr tells every float apart exactly and reads nan as equal to nan
    assert repr(list(rows)) == repr(reference_records(ref_rows))
    got = evaluate_greedy_agent(agent, cfg, eval_slots, seed + 1)
    want = reference_evaluate_greedy_agent(ref, cfg, eval_slots, seed + 1)
    assert got.hex() == want.hex()
    if kind == "tabular":
        assert {k: v.tobytes() for k, v in agent.table.values.items()} == {
            k: v.tobytes() for k, v in ref.table.values.items()
        }
    if kind == "la-q":
        assert agent.model.weights.tobytes() == ref.model.weights.tobytes()


@pytest.mark.parametrize("kind", ["tabular", "la-q"])
def test_numpy_scalar_params_match_reference(kind):
    """float32 constants are widened once, as the reference's checks widen
    them, so no update runs in float32."""
    params = LocalAgentParams(alpha=np.float32(0.3), discount=np.float32(0.7), eps_decay_steps=50)
    rows, agent = run_local_agent(env_config(), kind, params, 200, 7, seed=5)
    ref_rows, ref = reference_run_local_agent(env_config(), kind, params, 200, 7, seed=5)
    assert repr(list(rows)) == repr(reference_records(ref_rows))
    if kind == "la-q":
        assert agent.model.weights.tobytes() == ref.model.weights.tobytes()
    else:
        assert {k: v.tobytes() for k, v in agent.table.values.items()} == {
            k: v.tobytes() for k, v in ref.table.values.items()
        }


@pytest.mark.parametrize("cls,kind", [(TabularQAgent, "tabular"), (LinearQAgent, "la-q"), (LeUrcAgent, "le-urc")])
def test_each_observation_featurised_once(monkeypatch, cls, kind):
    calls = []
    original = cls.features

    def counted(self, obs):
        calls.append(1)
        return original(self, obs)

    monkeypatch.setattr(cls, "features", counted)
    _, agent = run_local_agent(env_config(), kind, LocalAgentParams(), 50, 7, seed=1)
    assert len(calls) == 51  # the reset observation and one per step
    calls.clear()
    evaluate_greedy_agent(agent, env_config(), 30, seed=2)
    assert len(calls) == 30
