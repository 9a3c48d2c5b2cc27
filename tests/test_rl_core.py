import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.errors import ConfigError, InvalidInputError
from greenrl.rl_core import (
    LinearQ,
    QTable,
    Transition,
    discounted_return,
    epsilon_greedy,
    linear_q_predict,
    linear_q_update,
    state_key,
    tabular_q_update,
)
from oracles import chain_mdp, value_iteration

finite_rewards = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=0, max_size=30
)


# ---------------------------------------------------------------------------
# discounted_return
# ---------------------------------------------------------------------------


def test_discounted_return_hand_value():
    # 1 + 0.5*2 + 0.25*3
    assert discounted_return([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.75)


def test_discounted_return_empty_is_zero():
    assert discounted_return([], 0.9) == 0.0


@given(finite_rewards)
def test_discounted_return_undiscounted_is_sum(rewards):
    assert discounted_return(rewards, 1.0) == pytest.approx(sum(rewards), abs=1e-9)


@given(finite_rewards, st.floats(min_value=0.01, max_value=1.0))
def test_discounted_return_recursion(rewards, lam):
    """G(r0, r1, ...) = r0 + lam * G(r1, ...)."""
    full = discounted_return(rewards, lam)
    if not rewards:
        assert full == 0.0
    else:
        rest = discounted_return(rewards[1:], lam)
        assert full == pytest.approx(rewards[0] + lam * rest, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan")])
def test_discounted_return_rejects_bad_discount(bad):
    with pytest.raises(ConfigError):
        discounted_return([1.0], bad)


def test_discounted_return_rejects_nonfinite_reward():
    with pytest.raises(InvalidInputError):
        discounted_return([1.0, float("inf")], 0.9)


# ---------------------------------------------------------------------------
# epsilon_greedy
# ---------------------------------------------------------------------------


def test_greedy_picks_argmax_and_breaks_ties_low():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([0.5, 2.0, 1.0]), 0.0, rng) == 1
    assert epsilon_greedy(np.array([3.0, 3.0, 1.0]), 0.0, rng) == 0


def test_epsilon_zero_consumes_no_randomness():
    """A purely greedy call must leave the generator untouched."""
    rng = np.random.default_rng(123)
    epsilon_greedy(np.array([1.0, 0.0]), 0.0, rng)
    assert rng.random() == np.random.default_rng(123).random()


def test_epsilon_one_explores_uniformly():
    rng = np.random.default_rng(7)
    picks = [epsilon_greedy(np.array([100.0, 0.0, 0.0]), 1.0, rng) for _ in range(3000)]
    counts = np.bincount(picks, minlength=3)
    assert counts.min() > 0.25 * len(picks)


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_epsilon_greedy_always_in_range(qs, eps, seed):
    a = epsilon_greedy(np.array(qs), eps, np.random.default_rng(seed))
    assert 0 <= a < len(qs)


@given(
    st.lists(
        st.sampled_from([-1.5, -0.0, 0.0, 2.25]) | st.floats(min_value=-1e4, max_value=1e4),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([np.float16, np.float32, np.float64]),
    st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_epsilon_greedy_matches_float64_reference(qs, dtype, eps, seed):
    """Same choice and same draws as argmax over a float64 copy, ties included."""
    q = np.asarray(qs).astype(dtype)
    ref_rng = np.random.default_rng(seed)
    if eps > 0.0 and ref_rng.random() < eps:
        expected = int(ref_rng.integers(q.size))
    else:
        expected = int(np.argmax(np.asarray(q, dtype=float)))
    rng = np.random.default_rng(seed)
    assert epsilon_greedy(q, eps, rng) == expected
    assert rng.random() == ref_rng.random()


def test_epsilon_greedy_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        epsilon_greedy(np.array([]), 0.0, rng)
    with pytest.raises(InvalidInputError):
        epsilon_greedy(np.array([[1.0]]), 0.0, rng)
    with pytest.raises(InvalidInputError):
        epsilon_greedy(np.array([1.0, float("nan")]), 0.0, rng)
    with pytest.raises(InvalidInputError):
        epsilon_greedy(np.array([-np.inf, 1.0], dtype=np.float32), 0.0, rng)
    with pytest.raises(InvalidInputError):
        epsilon_greedy(np.array([1.0]), 1.5, rng)


# ---------------------------------------------------------------------------
# state_key
# ---------------------------------------------------------------------------


def test_state_key_forms():
    assert state_key(4) == 4
    assert state_key("s0") == "s0"
    assert state_key(np.float64(2.5)) == 2.5
    assert state_key(np.array([1.0, 2.0])) == (1.0, 2.0)
    assert state_key([1.0, 2.0]) == state_key(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# QTable / tabular_q_update
# ---------------------------------------------------------------------------


def test_qtable_unseen_row_reads_zero_without_insert():
    table = QTable(3, 0.5)
    row = table.row(42)
    assert np.array_equal(row, np.zeros(3))
    assert table.values == {}
    row[0] = 9.0  # returned row is a copy
    assert np.array_equal(table.row(42), np.zeros(3))


def test_qtable_validation():
    with pytest.raises(ConfigError):
        QTable(0, 0.5)
    with pytest.raises(ConfigError):
        QTable(2, 0.0)
    with pytest.raises(ConfigError):
        QTable(2, 1.5)


def test_tabular_update_hand_value():
    """Q(s,a) <- (1-a) Q + a (r + lam max Q'), here 0.5*1 + 0.5*(1 + 0.9*2)."""
    table = QTable(2, 0.5, {0: np.array([1.0, 3.0]), 1: np.array([0.0, 2.0])})
    t = Transition(0, 0, 1.0, 1)
    out = tabular_q_update(table, t, 0.9)
    assert out.values[0][0] == pytest.approx(1.9)
    assert out.values[0][1] == 3.0
    assert np.array_equal(out.values[1], table.values[1])
    # the input table is untouched
    assert table.values[0][0] == 1.0


def test_tabular_update_terminal_drops_bootstrap():
    table = QTable(2, 0.5, {0: np.array([1.0, 3.0]), 1: np.array([0.0, 50.0])})
    out = tabular_q_update(table, Transition(0, 0, 1.0, 1, terminal=True), 0.9)
    assert out.values[0][0] == pytest.approx(1.0)


def test_tabular_update_unseen_states():
    out = tabular_q_update(QTable(2, 0.5), Transition(7, 1, 4.0, 8), 0.9)
    assert out.values[7][1] == pytest.approx(2.0)
    assert 8 not in out.values


def test_tabular_update_validation():
    table = QTable(2, 0.5)
    with pytest.raises(InvalidInputError):
        tabular_q_update(table, Transition(0, 2, 1.0, 1), 0.9)
    with pytest.raises(InvalidInputError):
        tabular_q_update(table, Transition(0, 0, float("nan"), 1), 0.9)


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=30)
def test_tabular_update_alpha_one_jumps_to_target(q0, reward):
    table = QTable(1, 1.0, {0: np.array([q0])})
    out = tabular_q_update(table, Transition(0, 0, reward, 0), 0.5)
    assert out.values[0][0] == pytest.approx(reward + 0.5 * q0)


def test_tabular_sweeps_converge_to_value_iteration():
    """Exhaustive (s, a) sweeps drive the table to the dense Q* solution."""
    mdp = chain_mdp()
    q_star = value_iteration(mdp, 0.9)
    table = QTable(2, 0.5)
    for _ in range(200):
        for s in range(3):
            if mdp.terminal[s]:
                continue
            for a in range(2):
                s2 = int(np.argmax(mdp.P[s, a]))
                t = Transition(s, a, float(mdp.R[s, a]), s2, terminal=bool(mdp.terminal[s2]))
                table = tabular_q_update(table, t, 0.9)
    learned = np.array([table.row(s) for s in range(3)])
    q_star = q_star.copy()
    q_star[mdp.terminal] = 0.0
    assert np.max(np.abs(learned - q_star)) < 1e-9


# ---------------------------------------------------------------------------
# LinearQ
# ---------------------------------------------------------------------------


def test_linear_predict_hand_value():
    lq = LinearQ(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]))
    q = linear_q_predict(lq, [2.0, 0.5])
    assert q == pytest.approx([6.0, 0.5])


def test_linear_update_hand_value():
    lq = LinearQ(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]))
    t = Transition(np.array([2.0, 0.5]), 0, 1.0, np.array([0.0, 0.0]))
    out = linear_q_update(lq, t, 0.5, 0.1)
    # target = 1 + 0.5 * max(3, 1) = 2.5, delta = 2.5 - 6 = -3.5
    assert out.weights[0] == pytest.approx([0.3, 1.825, 2.65])
    assert np.array_equal(out.weights[1], lq.weights[1])


def test_linear_update_terminal_target():
    lq = LinearQ.zeros(2, 2)
    t = Transition(np.array([1.0, 0.0]), 1, 3.0, np.array([9.0, 9.0]), terminal=True)
    out = linear_q_update(lq, t, 0.9, 1.0)
    assert out.weights[1] == pytest.approx([3.0, 0.0, 3.0])


def test_linear_feature_mismatch():
    lq = LinearQ.zeros(2, 3)
    with pytest.raises(InvalidInputError):
        linear_q_predict(lq, [1.0, 2.0])
    with pytest.raises(ConfigError):
        LinearQ(np.zeros((2,)))


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25)
def test_linear_update_fixed_point(seed):
    """When the TD error is zero the weights must not move."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 4))
    lq = LinearQ(w)
    s = rng.normal(size=3)
    s2 = rng.normal(size=3)
    q_next = linear_q_predict(lq, s2).max()
    pred = linear_q_predict(lq, s)[1]
    reward = pred - 0.9 * q_next
    out = linear_q_update(lq, Transition(s, 1, float(reward), s2), 0.9, 0.3)
    np.testing.assert_allclose(out.weights, lq.weights, atol=1e-12)
