import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenrl.errors import ConfigError, InvalidInputError
from greenrl.rach_env import (
    COLLISION_MULTIPLICITY,
    BernoulliTraffic,
    ExternalTraffic,
    RachAction,
    RachConfig,
    RachEnv,
    expected_successes,
    le_urc_counts,
    le_urc_pick,
    le_urc_ranking,
    simulate_contention,
)
from oracles import ReferenceRachEnv, enumerate_expected_successes, reference_le_urc_policy

MENU = (
    RachAction(1, 8, 8),
    RachAction(2, 8, 8),
    RachAction(4, 8, 8),
    RachAction(6, 8, 4),
)


def make_env(**overrides):
    kwargs = {"num_devices": 50, "action_menu": MENU}
    kwargs.update(overrides)
    return RachEnv(RachConfig(**kwargs))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_collision_multiplicity_matches_truncated_poisson_series():
    # E[X | X >= 2] for X ~ Poisson(1), summed term by term
    num = sum(k * math.exp(-1) / math.factorial(k) for k in range(2, 60))
    den = sum(math.exp(-1) / math.factorial(k) for k in range(2, 60))
    assert COLLISION_MULTIPLICITY == pytest.approx(num / den, abs=1e-12)


@pytest.mark.parametrize(
    "n,m,expected",
    [
        (0, 8, 0.0),
        (-3, 8, 0.0),
        (1, 1, 1.0),
        (2, 1, 0.0),
        (1, 8, 1.0),
        (5, 8, 5 * (7 / 8) ** 4),
    ],
)
def test_expected_successes_pinned(n, m, expected):
    assert expected_successes(n, m) == pytest.approx(expected)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (5, 5), (6, 6)])
def test_expected_successes_matches_enumeration(n, m):
    assert expected_successes(n, m) == pytest.approx(
        enumerate_expected_successes(n, m), abs=1e-12
    )


def test_simulate_contention_mean_tracks_closed_form():
    rng = np.random.default_rng(0)
    draws = [(simulate_contention(5, 8, rng) == 1).sum() for _ in range(20000)]
    assert np.mean(draws) == pytest.approx(expected_successes(5, 8), rel=0.02)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_simulate_contention_conserves_devices(n, m):
    occ = simulate_contention(n, m, np.random.default_rng(7))
    assert occ.sum() == n
    assert occ.shape == (m,)
    assert np.all(occ >= 0)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12))
@settings(max_examples=30)
def test_simulate_contention_precomputed_pvals_draw_alike(n, m):
    """Passing the uniform probabilities in gives the draw that building
    them inside does, from the same generator state."""
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    pvals = np.full(m, 1.0 / m)
    for _ in range(5):
        assert np.array_equal(simulate_contention(n, m, a), simulate_contention(n, m, b, pvals))


def test_simulate_contention_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        simulate_contention(3, 0, rng)
    with pytest.raises(InvalidInputError):
        simulate_contention(-1, 4, rng)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_action_validation():
    with pytest.raises(ConfigError):
        RachAction(0, 8, 1)
    with pytest.raises(ConfigError):
        RachAction(1, 8, 0)
    assert RachAction(2, 8, 1).opportunities == 16


def test_traffic_validation():
    with pytest.raises(ConfigError):
        BernoulliTraffic(1.5)
    with pytest.raises(ConfigError):
        BernoulliTraffic(-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_devices": 0},
        {"action_menu": ()},
        {"history_window": 0},
        {"backoff_slots": 0},
    ],
)
def test_config_validation(kwargs):
    base = {"num_devices": 10, "action_menu": MENU}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        RachConfig(**base)


def test_max_opportunities():
    assert RachConfig(num_devices=5, action_menu=MENU).max_opportunities == 48


# ---------------------------------------------------------------------------
# environment dynamics
# ---------------------------------------------------------------------------


def test_initial_observation_is_zero_window():
    env = make_env(history_window=4)
    obs = env.reset()
    assert obs.shape == (12,)
    assert np.all(obs == 0)


def test_observation_most_recent_first():
    env = make_env(history_window=3, traffic=ExternalTraffic(lambda slot: 0))
    env.step(MENU[0])
    first = tuple(env.observation()[:3])
    env.backlog = 20
    obs, _ = env.step(MENU[0])
    assert tuple(obs[3:6]) == first
    assert obs[0] + obs[1] + obs[2] == MENU[0].opportunities  # idle+collided+successful


def test_slot_accounting_and_backlog_conservation():
    """Each slot's triple covers the action's opportunities, the reward is its
    successful count, the attempts it shows (one per success, at least two per
    collision) come from the backlog, and the served devices leave it."""
    env = make_env(traffic=ExternalTraffic(lambda slot: 3))
    for _ in range(200):
        before = env.backlog + min(3, env.cfg.num_devices - env.backlog)
        obs, reward = env.step(MENU[1])
        idle, collided, successful = obs[:3]
        assert idle + collided + successful == MENU[1].opportunities
        assert reward == successful
        assert successful + 2 * collided <= before  # attempts drawn from the backlog
        assert env.backlog == before - reward
        assert 0 <= env.backlog <= env.cfg.num_devices


def test_full_repetition_forces_every_device_to_attempt():
    """A lone backlogged device always attempts at repetition 8 == backoff_slots
    (p_attempt = 1) and, alone, is always served; at repetition 4 it sits out
    some slots."""
    rewards = {}
    for action in (MENU[0], MENU[3]):
        env = make_env(num_devices=1, traffic=ExternalTraffic(lambda slot: 1), backoff_slots=8)
        rewards[action.repetition] = [env.step(action)[1] for _ in range(100)]
        assert env.backlog == 1 - rewards[action.repetition][-1]
    assert rewards[8] == [1.0] * 100
    assert 0.0 in rewards[4]


def test_external_traffic_clamps_to_population():
    env = make_env(num_devices=10, traffic=ExternalTraffic(lambda slot: 1000))
    _, reward = env.step(MENU[0])
    assert env.backlog + reward == 10


def test_external_traffic_negative_count_rejected():
    env = make_env(traffic=ExternalTraffic(lambda slot: -1))
    with pytest.raises(InvalidInputError, match="slot 0 must be an integer >= 0, got -1"):
        env.step(MENU[0])


@pytest.mark.parametrize(
    "count", [float("nan"), float("inf"), 2.7, 3.0, np.float64(2.0), "3", None, True, np.int64(-2)]
)
def test_external_traffic_count_must_be_an_integer(count):
    """A count that is not an integer >= 0 raises InvalidInputError naming its
    slot, and the slot is not played.  nan, inf and None used to raise raw
    ValueError, OverflowError and TypeError; 2.7 was truncated and "3" read."""
    env = make_env(traffic=ExternalTraffic(lambda slot: count if slot == 2 else 1))
    env.step(MENU[0])
    env.step(MENU[0])
    before = (env.backlog, env.slot, env.observation().tobytes(), env.rng.bit_generator.state)
    with pytest.raises(InvalidInputError, match=r"external traffic count for slot 2 must be an integer >= 0"):
        env.step(MENU[0])
    assert (env.backlog, env.slot, env.observation().tobytes(), env.rng.bit_generator.state) == before


@pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)])
def test_external_traffic_numpy_integer_counts_match_int(count):
    """numpy integer counts play exactly as the equal Python int, and the
    backlog stays a Python int."""
    env, twin = (make_env(traffic=ExternalTraffic(lambda slot, c=c: c)) for c in (count, 3))
    for _ in range(20):
        obs, reward = env.step(MENU[1])
        twin_obs, twin_reward = twin.step(MENU[1])
        assert obs.tobytes() == twin_obs.tobytes() and reward == twin_reward
        assert type(env.backlog) is int and env.backlog == twin.backlog


def test_off_menu_action_rejected():
    env = make_env()
    with pytest.raises(InvalidInputError):
        env.step(RachAction(3, 3, 3))


def test_unhashable_action_rejected():
    env = make_env()
    with pytest.raises(InvalidInputError):
        env.step([1, 8, 8])


_actions = st.builds(
    RachAction,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=10),
)
_traffic = st.one_of(
    st.builds(BernoulliTraffic, st.floats(min_value=0.0, max_value=1.0)),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=7).map(
        lambda counts: ExternalTraffic(lambda slot: counts[slot % len(counts)])
    ),
)


@given(
    menu=st.lists(_actions, min_size=1, max_size=5),
    window=st.integers(min_value=1, max_value=6),
    devices=st.integers(min_value=1, max_value=200),
    backoff=st.integers(min_value=1, max_value=12),
    traffic=_traffic,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    action_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# repetition == backoff_slots, so every backlogged device attempts (p_attempt = 1)
@example(
    menu=[RachAction(2, 4, 8)], window=2, devices=30, backoff=8, traffic=BernoulliTraffic(0.3), seed=3, action_seed=0
)
@settings(max_examples=40, deadline=None)
def test_step_matches_reference_env(menu, window, devices, backoff, traffic, seed, action_seed):
    """Over 500 slots the tuple-window step agrees with the deque step on
    every observation, reward, backlog, slot and generator state.  Every
    other slot plays an equal but distinct copy of the menu entry rather
    than the entry itself."""
    cfg = RachConfig(devices, tuple(menu), window, traffic, backoff, seed)
    env, ref = RachEnv(cfg), ReferenceRachEnv(cfg)
    np.testing.assert_array_equal(env.reset(), ref.reset())
    picks = np.random.default_rng(action_seed).integers(len(menu), size=500)
    for slot, i in enumerate(picks):
        action = menu[i] if slot % 2 else replace(menu[i])
        assert action == menu[i] and (action is menu[i]) == bool(slot % 2)
        obs, reward = env.step(action)
        ref_obs, ref_reward = ref.step(menu[i])
        assert obs.dtype == ref_obs.dtype
        np.testing.assert_array_equal(obs, ref_obs)
        assert reward == ref_reward
        assert env.backlog == ref.backlog
        assert env.slot == ref.slot
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
    np.testing.assert_array_equal(env.observation(), ref.observation())


def test_held_observation_survives_later_steps():
    """Observations are copies: a later step must not write into one the
    caller still holds, no two share memory, and a caller writing into one
    leaves the environment's window as it was."""
    env = make_env(history_window=3, traffic=BernoulliTraffic(0.5))
    held = [env.reset(), env.observation()]
    for _ in range(6):
        held.append(env.step(MENU[1])[0])
        held.append(env.observation())
    frozen = [h.copy() for h in held]
    for _ in range(6):
        env.step(MENU[3])
    for h, f in zip(held, frozen):
        np.testing.assert_array_equal(h, f)
    held.append(env.observation())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[i + 1 :])
    window = env.observation()
    for h in held:
        h[:] = -1.0
    np.testing.assert_array_equal(env.observation(), window)


def test_deterministic_given_seed():
    def rollout():
        env = make_env(seed=99, traffic=BernoulliTraffic(0.1))
        return [env.step(MENU[i % 4])[1] for i in range(50)]

    assert rollout() == rollout()


def test_reset_restores_initial_state():
    env = make_env(seed=5, traffic=BernoulliTraffic(0.2))
    first = [env.step(MENU[0])[1] for _ in range(20)]
    env.reset()
    assert env.backlog == 0 and env.slot == 0
    second = [env.step(MENU[0])[1] for _ in range(20)]
    assert first == second


# ---------------------------------------------------------------------------
# load-estimating baseline
# ---------------------------------------------------------------------------


def pick(obs, menu):
    """The menu entry the kernels pick for ``obs``, as the LE-URC agent does."""
    return menu[le_urc_pick(le_urc_counts(obs), le_urc_ranking(menu))]


def test_le_urc_busy_slot_opens_everything():
    # N = 3 + 2.392 * 2 ~ 7.78 attempts; the score rises with m, so the
    # widest allocation wins
    obs = np.array([5.0, 2.0, 3.0] + [0.0] * 9)
    assert pick(obs, MENU) is MENU[3]


def test_le_urc_idle_slot_prefers_smallest_allocation():
    obs = np.zeros(12)
    assert pick(obs, MENU) is MENU[0]


def test_le_urc_single_opportunity_scoring():
    # with N = 1 every m scores 1.0 and the m = 1 entry wins the tie
    menu = (RachAction(2, 4, 1), RachAction(1, 1, 1))
    assert pick(np.zeros(3), menu) is menu[1]
    # a busy observation makes m = 1 useless (score 0)
    busy = np.array([0.0, 4.0, 2.0])
    assert pick(busy, menu) is menu[0]


def test_le_urc_tie_breaks_by_index():
    menu = (RachAction(2, 4, 8), RachAction(4, 2, 1))  # both m = 8
    assert pick(np.zeros(3), menu) is menu[0]


def test_le_urc_only_reads_most_recent_slot():
    recent = np.array([5.0, 2.0, 3.0])
    padded = np.concatenate([recent, [9.0, 9.0, 9.0]])
    assert pick(recent, MENU) is pick(padded, MENU)


def test_le_urc_validation():
    with pytest.raises(InvalidInputError):
        pick(np.zeros(3), ())
    with pytest.raises(InvalidInputError):
        pick(np.zeros(2), MENU)
    with pytest.raises(InvalidInputError):
        pick(np.array([-1.0, 0.0, 0.0]), MENU)
    with pytest.raises(InvalidInputError):
        pick(np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0]), MENU)  # any slot of the window
    # non-finite counts anywhere in the window, which used to pick menu[0]
    for bad in (np.nan, np.inf, -np.inf):
        for pos in range(6):
            obs = np.zeros(6)
            obs[pos] = bad
            with pytest.raises(InvalidInputError):
                pick(obs, MENU)


@given(
    st.floats(min_value=0, max_value=40),
    st.floats(min_value=0, max_value=40),
)
@settings(max_examples=50)
def test_le_urc_estimate_drives_choice(collided, successful):
    """The pick must maximise the success score among menu entries."""
    obs = np.array([0.0, collided, successful])
    choice = pick(obs, MENU)
    n_hat = max(successful + COLLISION_MULTIPLICITY * collided, 1.0)
    scores = [n_hat * (1 - 1 / a.opportunities) ** (n_hat - 1) for a in MENU]
    assert scores[MENU.index(choice)] == pytest.approx(max(scores))


menus = st.lists(
    st.builds(RachAction, st.integers(1, 6), st.integers(1, 8), st.integers(1, 8)),
    min_size=1,
    max_size=6,
)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=12),
    menus,
)
@settings(max_examples=200)
def test_le_urc_matches_reference(obs, menu):
    """Same pick as the reference scoring on every finite observation,
    ties included (menus repeat opportunity counts)."""
    assert pick(np.array(obs), menu) is reference_le_urc_policy(np.array(obs), menu)
