import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.errors import ConfigError, InvalidInputError
from greenrl.rl_core import (
    QTable,
    bias_features,
    epsilon_greedy,
    explore,
    linear_q_step,
    q_backup,
)
from oracles import (
    LinearQ,
    Transition,
    chain_mdp,
    discounted_return,
    q_table_row,
    reference_linear_q_predict,
    reference_linear_q_update,
    reference_tabular_q_update,
    state_key,
    value_iteration,
)

finite_rewards = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=0, max_size=30
)


# ---------------------------------------------------------------------------
# discounted_return (the oracle in tests/oracles.py)
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


@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8),
    st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_explore_then_greedy_matches_epsilon_greedy(qs, eps, seed):
    """Drawing first and taking the argmax only when ``explore`` returns None
    gives the same action and leaves the generator in the same state."""
    q = np.asarray(qs)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = epsilon_greedy(q, eps, ref_rng)
    action = explore(eps, rng, q.size)
    if action is None:
        action = epsilon_greedy(q, 0.0, rng)
    assert action == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
# state_key (the oracles' table key)
# ---------------------------------------------------------------------------


def test_state_key_forms():
    assert state_key(4) == 4
    assert state_key("s0") == "s0"
    assert state_key(np.float64(2.5)) == 2.5
    assert state_key(np.array([1.0, 2.0])) == (1.0, 2.0)
    assert state_key([1.0, 2.0]) == state_key(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# QTable / q_backup
# ---------------------------------------------------------------------------


def test_qtable_unseen_row_reads_zero_without_insert():
    """The oracles' row read, which the reference backup writes into: an
    unseen state reads zeros, and every row it returns is a copy."""
    table = QTable(3, 0.5)
    row = q_table_row(table, 42)
    assert np.array_equal(row, np.zeros(3))
    assert table.values == {}
    row[0] = 9.0  # returned row is a copy
    assert np.array_equal(q_table_row(table, 42), np.zeros(3))
    q_backup(table, 42, 1, 2.0, None, 0.9)
    seen = q_table_row(table, 42)
    seen[1] = 9.0
    assert table.values[42][1] == 1.0


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
    q_backup(table, 0, 0, 1.0, 1, 0.9)
    assert table.values[0][0] == pytest.approx(1.9)
    assert table.values[0][1] == 3.0
    assert np.array_equal(table.values[1], [0.0, 2.0])


def test_tabular_update_terminal_drops_bootstrap():
    """No next key, no bootstrap: neither the next row nor the updated row
    itself adds to the target."""
    table = QTable(2, 0.5, {0: np.array([1.0, 3.0]), 1: np.array([0.0, 50.0])})
    q_backup(table, 0, 0, 1.0, None, 0.9)
    assert table.values[0][0] == pytest.approx(1.0)


def test_tabular_update_unseen_states():
    table = QTable(2, 0.5)
    q_backup(table, 7, 1, 4.0, 8, 0.9)
    assert table.values[7][1] == pytest.approx(2.0)
    assert 8 not in table.values


def test_tabular_update_validation():
    """Both checks run before the table is touched."""
    table = QTable(2, 0.5)
    with pytest.raises(InvalidInputError):
        q_backup(table, 0, 2, 1.0, 1, 0.9)
    with pytest.raises(InvalidInputError):
        q_backup(table, 0, -1, 1.0, 1, 0.9)
    with pytest.raises(InvalidInputError):
        q_backup(table, 0, 0, float("nan"), 1, 0.9)
    assert table.values == {}


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=30)
def test_tabular_update_alpha_one_jumps_to_target(q0, reward):
    table = QTable(1, 1.0, {0: np.array([q0])})
    q_backup(table, 0, 0, reward, 0, 0.5)
    assert table.values[0][0] == pytest.approx(reward + 0.5 * q0)


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
                q_backup(table, s, a, float(mdp.R[s, a]), None if mdp.terminal[s2] else s2, 0.9)
    learned = np.array([q_table_row(table, s) for s in range(3)])
    q_star = q_star.copy()
    q_star[mdp.terminal] = 0.0
    assert np.max(np.abs(learned - q_star)) < 1e-9


# ---------------------------------------------------------------------------
# bias_features / linear_q_step
# ---------------------------------------------------------------------------


def test_linear_predict_hand_value():
    w = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]])
    phi = bias_features([2.0, 0.5], 2)
    assert np.array_equal(phi, [2.0, 0.5, 1.0])
    assert w.dot(phi) == pytest.approx([6.0, 0.5])
    # the scale divides the state, never the bias
    assert np.array_equal(bias_features([2.0, 0.5], 2, 4.0), [0.5, 0.125, 1.0])


def test_linear_update_hand_value():
    w = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]])
    linear_q_step(w, bias_features([2.0, 0.5], 2), 0, 1.0, bias_features([0.0, 0.0], 2), 0.5, 0.1)
    # target = 1 + 0.5 * max(3, 1) = 2.5, delta = 2.5 - 6 = -3.5
    assert w[0] == pytest.approx([0.3, 1.825, 2.65])
    assert np.array_equal(w[1], [0.0, -1.0, 1.0])


def test_linear_update_terminal_target():
    w = np.zeros((2, 3))
    w[0] = 5.0  # a bootstrap from any row would show
    linear_q_step(w, bias_features([1.0, 0.0], 2), 1, 3.0, None, 0.9, 1.0)
    assert w[1] == pytest.approx([3.0, 0.0, 3.0])
    assert np.array_equal(w[0], [5.0, 5.0, 5.0])


def test_linear_feature_mismatch():
    with pytest.raises(InvalidInputError):
        bias_features([1.0, 2.0], 3)
    with pytest.raises(InvalidInputError):
        bias_features(np.zeros((2, 2)), 3)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25)
def test_linear_update_fixed_point(seed):
    """When the TD error is zero the weights must not move."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 4))
    phi, next_phi = bias_features(rng.normal(size=3), 3), bias_features(rng.normal(size=3), 3)
    reward = w[1].dot(phi) - 0.9 * w.dot(next_phi).max()
    before = w.copy()
    linear_q_step(w, phi, 1, float(reward), next_phi, 0.9, 0.3)
    np.testing.assert_allclose(w, before, atol=1e-12)


# ---------------------------------------------------------------------------
# parity with the reference updates
# ---------------------------------------------------------------------------

small_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(
    st.dictionaries(st.integers(0, 4), st.lists(small_floats, min_size=3, max_size=3), max_size=5),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2), small_floats, st.integers(0, 4), st.booleans()),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=100)
def test_tabular_update_matches_reference(rows, steps, alpha, discount):
    """A chain of in-place backups gives the reference's table bit for bit."""
    table = QTable(3, alpha, {k: np.array(v) for k, v in rows.items()})
    ref = QTable(3, alpha, {k: np.array(v) for k, v in rows.items()})
    for s, a, r, s2, terminal in steps:
        q_backup(table, s, a, r, None if terminal else s2, discount)
        ref = reference_tabular_q_update(ref, Transition(s, a, r, s2, terminal), discount)
        assert {k: v.tobytes() for k, v in table.values.items()} == {
            k: v.tobytes() for k, v in ref.values.items()
        }


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 4),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1.0),
    st.integers(1, 15),
)
@settings(max_examples=100)
def test_linear_update_matches_reference(seed, n_features, n_actions, alpha, discount, steps):
    rng = np.random.default_rng(seed)
    ref = LinearQ(rng.normal(size=(n_actions, n_features + 1)))
    w = ref.weights.copy()
    for _ in range(steps):
        s, s2 = rng.normal(size=n_features), rng.normal(size=n_features)
        t = Transition(s, int(rng.integers(n_actions)), float(rng.normal()), s2, bool(rng.random() < 0.3))
        phi = bias_features(s, n_features)
        next_phi = None if t.terminal else bias_features(s2, n_features)
        assert w.dot(phi).tobytes() == reference_linear_q_predict(ref, s).tobytes()
        linear_q_step(w, phi, t.action, t.reward, next_phi, discount, alpha)
        ref = reference_linear_q_update(ref, t, discount, alpha)
        assert w.tobytes() == ref.weights.tobytes()


def test_linear_update_validation():
    """Bad features fail in ``bias_features``; a bad reward or action fails
    before ``linear_q_step`` writes."""
    w = np.zeros((2, 3))
    good = bias_features(np.zeros(2), 2)
    for state in (np.array([np.inf, 0.0]), np.array([0.0, np.nan])):
        with pytest.raises(InvalidInputError):
            bias_features(state, 2)
    for action, reward in ((0, float("nan")), (2, 1.0), (-1, 1.0)):
        with pytest.raises(InvalidInputError):
            linear_q_step(w, good, action, reward, good, 0.9, 0.5)
    assert not np.any(w)
