import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenrl.compression import prune_by_magnitude, threshold_for_sparsity
from greenrl.errors import ConfigError, InvalidInputError, NotReadyError
from greenrl.neural import (
    DenseNet,
    ReplayBatch,
    ReplayBuffer,
    backprop_minibatch,
    batch_loss,
    dqn_train_step,
    forward,
    glorot_init,
    net_from_bytes,
    net_to_bytes,
    pack,
    symmetric_quantize_layer,
    sync_target,
)
from oracles import (
    ReferenceReplayBuffer,
    Transition,
    finite_diff_grads,
    random_net_and_batch,
    reference_dqn_train_step,
    reference_net_from_bytes,
    reference_net_to_bytes,
)


def tiny_net():
    """Hand-sized 2-2-1 network for pinned-value checks."""
    return pack(
        (2, 2, 1),
        [np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([[2.0], [1.0]])],
        [np.array([0.5, -1.0]), np.array([0.2])],
    )


def scalar_net(w=2.0, b=1.0, mask=None):
    return pack((1, 1), [np.array([[w]])], [np.array([b])], mask)


# ---------------------------------------------------------------------------
# init and forward
# ---------------------------------------------------------------------------


def test_glorot_bounds_and_zero_biases():
    net = glorot_init((10, 7, 3), seed=0)
    for w, (fi, fo) in zip(net.weights, [(10, 7), (7, 3)]):
        limit = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) < limit)
        assert w.shape == (fi, fo)
    assert all(np.all(b == 0) for b in net.biases)
    assert net.dtype == np.float64


def test_glorot_reproducible_and_dtype():
    a = glorot_init((4, 4), seed=5, dtype=np.float32)
    b = glorot_init((4, 4), seed=5, dtype=np.float32)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert a.dtype == np.float32


@pytest.mark.parametrize("dims", [(3,), (), (2, 0, 1), (0, 2)])
def test_glorot_rejects_bad_dims(dims):
    with pytest.raises(ConfigError):
        glorot_init(dims, seed=0)


def test_forward_hand_value():
    # z0 = [5.5, -1] -> relu [5.5, 0] -> 5.5*2 + 0*1 + 0.2
    assert forward(tiny_net(), [1.0, 2.0])[0] == pytest.approx(11.2)


def test_hidden_relu_output_linear():
    net = pack(
        (1, 1, 1),
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([0.0]), np.array([0.0])],
    )
    assert forward(net, [-3.0])[0] == 0.0  # clipped in the hidden layer
    out_only = pack((1, 1), [np.array([[1.0]])], [np.array([0.0])])
    assert forward(out_only, [-3.0])[0] == -3.0  # linear head may go negative


def test_forward_validates_state():
    net = tiny_net()
    with pytest.raises(InvalidInputError):
        forward(net, [1.0])
    with pytest.raises(InvalidInputError):
        forward(net, [1.0, float("nan")])


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def test_batch_loss_hand_value():
    net = scalar_net()
    batch = [(np.array([3.0]), np.array([4.0]), np.array([1.0]))]
    assert batch_loss(net, batch) == pytest.approx(9.0)  # (7 - 4)^2, no 1/2
    two = batch + [(np.array([0.0]), np.array([0.0]), np.array([1.0]))]
    assert batch_loss(net, two) == pytest.approx((9.0 + 1.0) / 2)


def test_batch_loss_mask_selects_actions():
    net = pack((1, 2), [np.array([[1.0, 1.0]])], [np.array([0.0, 0.0])])
    batch = [(np.array([2.0]), np.array([0.0, 2.0]), np.array([1.0, 0.0]))]
    assert batch_loss(net, batch) == pytest.approx(4.0)


def test_backprop_single_neuron_hand_value():
    """d/dw (wx + b - y)^2 = 2 (wx + b - y) x = 2*3*3 with w=2, b=1, x=3, y=4."""
    net = scalar_net()
    batch = [(np.array([3.0]), np.array([4.0]), np.array([1.0]))]
    g = backprop_minibatch(net, batch)
    assert g.weight_grads[0][0, 0] == pytest.approx(18.0)
    assert g.bias_grads[0][0] == pytest.approx(6.0)


def test_backprop_matches_finite_differences_small():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net, batch = random_net_and_batch(rng, max_weights=80)
        analytic = backprop_minibatch(net, batch)
        fd_w, fd_b = finite_diff_grads(net, batch)
        for a, f in zip(analytic.weight_grads, fd_w):
            np.testing.assert_allclose(a, f, rtol=1e-5, atol=1e-7)
        for a, f in zip(analytic.bias_grads, fd_b):
            np.testing.assert_allclose(a, f, rtol=1e-5, atol=1e-7)


def test_backprop_masked_outputs_get_no_gradient():
    net = glorot_init((3, 4, 2), seed=3)
    x = np.array([1.0, -0.5, 2.0])
    batch = [(x, np.array([5.0, 5.0]), np.array([0.0, 1.0]))]
    g = backprop_minibatch(net, batch)
    # output-layer columns for the untouched action stay zero
    assert np.all(g.weight_grads[-1][:, 0] == 0)
    assert g.bias_grads[-1][0] == 0


def test_backprop_respects_weight_mask():
    net = scalar_net(mask=[np.array([[0.0]])])
    g = backprop_minibatch(net, [(np.array([3.0]), np.array([4.0]), np.array([1.0]))])
    assert g.weight_grads[0][0, 0] == 0.0


def test_empty_batch_rejected():
    with pytest.raises(InvalidInputError):
        batch_loss(scalar_net(), [])


# ---------------------------------------------------------------------------
# sync_target
# ---------------------------------------------------------------------------


def test_sync_target_is_deep_copy():
    net = glorot_init((2, 3), seed=1)
    tgt = sync_target(net)
    net.weights[0][0, 0] += 99.0
    assert tgt.weights[0][0, 0] != net.weights[0][0, 0]


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------


def _t(r):
    s = np.zeros(1)
    return Transition(s, 0, float(r), s)


def _rows(transitions):
    """``transitions`` as one column batch, oldest first, for a multi-row write."""
    return ReplayBatch(
        np.array([t.state for t in transitions]),
        np.array([t.action for t in transitions], np.int64),
        np.array([t.reward for t in transitions], np.float64),
        np.array([t.next_state for t in transitions]),
        np.array([1.0 - t.terminal for t in transitions]),
    )


def test_replay_fifo_eviction():
    buf = ReplayBuffer(2)
    for r in (1, 2, 3):
        buf.write(_rows([_t(r)]))
    assert len(buf) == 2
    rng = np.random.default_rng(0)
    rewards = set(buf.sample(2, rng).reward) | set(buf.sample(2, rng).reward)
    assert rewards <= {2.0, 3.0}


def test_replay_underfill_and_validation():
    buf = ReplayBuffer(4)
    buf.write(_rows([_t(1)]))
    with pytest.raises(NotReadyError):
        buf.sample(2, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        buf.sample(0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        ReplayBuffer(0)
    with pytest.raises(InvalidInputError):
        buf.write(_rows([Transition(np.zeros(2), 0, 0.0, np.zeros(2))]))  # width 1 fixed by first write
    with pytest.raises(InvalidInputError):
        buf.write(_rows([Transition(np.zeros(1), 0, 0.0, np.zeros(2))]))
    assert len(buf) == 1


def test_replay_samples_with_replacement():
    buf = ReplayBuffer(8)
    buf.write(_rows([_t(1)]))
    buf.write(_rows([_t(2)]))
    rng = np.random.default_rng(0)
    seen_duplicate = any(
        len(set(buf.sample(2, rng).reward)) == 1 for _ in range(50)
    )
    assert seen_duplicate


class _FixedDraw:
    """Stand-in generator whose single integer draw is fixed in advance."""

    def __init__(self, idx):
        self.idx = np.asarray(idx)

    def integers(self, low, high, size):
        assert (low, high, size) == (0, 3, len(self.idx))
        return self.idx


@pytest.mark.parametrize("chunks", [[1] * 7, [7], [2, 2, 3], [3, 4], [1, 5, 1]])
def test_replay_wraparound_maps_draw_to_oldest(chunks):
    """Capacity 3, rewards 1..7 written in chunks: draw i is the i-th oldest of 5, 6, 7."""
    buf = ReplayBuffer(3)
    rewards = iter(range(1, 8))
    for k in chunks:
        buf.write(_rows([_t(next(rewards)) for _ in range(k)]))
    assert len(buf) == 3
    assert list(buf.sample(3, _FixedDraw([0, 1, 2])).reward) == [5.0, 6.0, 7.0]
    got = buf.sample(3, _FixedDraw([2, 0, 2]))
    assert list(got.reward) == [7.0, 5.0, 7.0]
    assert got.state.shape == (3, 1)


def test_float32_ring_samples_as_a_float64_ring_cast():
    """A ring held in float32 rounds each float64 input once, as it is
    stored; a float64 ring rounds it once, as it is sampled into float32.
    Both give the same bytes."""
    data_rng = np.random.default_rng(8)
    narrow, wide = ReplayBuffer(16, np.float32), ReplayBuffer(16)
    for k in (5, 7, 9):
        rows = _random_rows(data_rng, k, 3)
        for buf in (narrow, wide):
            buf.write(rows)
    assert narrow._ring.state.dtype == narrow._ring.reward.dtype == np.float32
    assert wide._ring.state.dtype == np.float64
    n = 12
    outs = [
        ReplayBatch(np.empty((n, 3), np.float32), np.empty(n, np.int64), np.empty(n, np.float32),
                    np.empty((n, 3), np.float32), np.empty(n, np.float32))
        for _ in range(2)
    ]
    got = [buf.sample(n, np.random.default_rng(4), out=out) for buf, out in zip((narrow, wide), outs)]
    for a, b in zip(*got):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    plain = narrow.sample(n, np.random.default_rng(4))
    for a, b in zip(plain, got[1]):
        assert a.tobytes() == b.tobytes()


def test_replay_dtype_is_a_float_dtype():
    with pytest.raises(ConfigError):
        ReplayBuffer(4, np.int64)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"next_state": np.zeros((2, 3))}, id="next-state-width"),
        pytest.param({"state": np.zeros((2, 0)), "next_state": np.zeros((2, 0))}, id="zero-width"),
        pytest.param({"state": np.zeros(2), "next_state": np.zeros(2)}, id="not-2d"),
        pytest.param({"action": np.zeros(3, np.int64)}, id="action-rows"),
        pytest.param({"reward": np.zeros(1)}, id="reward-rows"),
        pytest.param({"live": np.ones((2, 1))}, id="live-shape"),
        pytest.param({"action": np.array([0, -1])}, id="negative-action"),
    ],
)
def test_replay_write_validation(change):
    rows = ReplayBatch(np.zeros((2, 2)), np.zeros(2, np.int64), np.zeros(2), np.zeros((2, 2)), np.ones(2))
    buf = ReplayBuffer(4)
    with pytest.raises(InvalidInputError):
        buf.write(rows._replace(**change))
    assert len(buf) == 0


# ---------------------------------------------------------------------------
# dqn_train_step
# ---------------------------------------------------------------------------


def test_train_step_pinned_update():
    """Replay of one transition, batch 1: the whole update is hand-checkable."""
    online = scalar_net(w=1.0, b=0.0)
    target = scalar_net(w=2.0, b=0.5)
    buf = ReplayBuffer(1)
    buf.write(_rows([Transition(np.array([1.0]), 0, 1.0, np.array([2.0]))]))
    rng = np.random.default_rng(0)
    # td_target = 1 + 0.5 * (2*2 + 0.5) = 3.25; pred = 1; loss = 2.25^2
    # grad_w = 2*(1 - 3.25)*1 = -4.5; grad_b = -4.5
    out, loss = dqn_train_step(online, target, buf, 1, 0.5, 0.1, rng)
    assert loss == pytest.approx(2.25**2)
    assert out.weights[0][0, 0] == pytest.approx(1.45)
    assert out.biases[0][0] == pytest.approx(0.45)


def test_train_step_terminal_drops_bootstrap():
    online = scalar_net(w=1.0, b=0.0)
    target = scalar_net(w=100.0, b=0.0)
    buf = ReplayBuffer(1)
    buf.write(_rows([Transition(np.array([1.0]), 0, 1.0, np.array([2.0]), terminal=True)]))
    out, loss = dqn_train_step(online, target, buf, 1, 0.9, 0.1, rng=np.random.default_rng(0))
    assert loss == pytest.approx(0.0)  # pred 1 equals the reward-only target
    assert out.weights[0][0, 0] == pytest.approx(1.0)


def test_train_step_only_taken_action_moves_head():
    net = glorot_init((2, 4, 3), seed=9, dtype=np.float64)
    target = sync_target(net)
    buf = ReplayBuffer(4)
    buf.write(_rows([Transition(np.array([1.0, 2.0]), 1, 0.5, np.array([0.0, 1.0]))]))
    out, _ = dqn_train_step(net, target, buf, 1, 0.9, 0.01, np.random.default_rng(1))
    head_delta = out.weights[-1] - net.weights[-1]
    assert np.all(head_delta[:, 0] == 0)
    assert np.all(head_delta[:, 2] == 0)
    assert np.any(head_delta[:, 1] != 0)


def test_train_step_rejects_a_mismatched_target():
    online = glorot_init((3, 4, 2), seed=1, dtype=np.float32)
    buf = ReplayBuffer(8)
    buf.write(_rows([Transition(np.ones(3), i % 2, 1.0, np.zeros(3)) for i in range(4)]))
    for target in (glorot_init((3, 4, 2), seed=1), glorot_init((3, 5, 2), seed=1, dtype=np.float32)):
        with pytest.raises(InvalidInputError, match="target"):
            dqn_train_step(online, target, buf, 2, 0.9, 0.01, np.random.default_rng(0))


@pytest.mark.parametrize("action", [7, -1])
def test_train_step_rejects_an_action_the_net_has_no_output_for(action):
    """Action 7 used to raise a raw IndexError in the gather, and -1 to
    train the last output column."""
    online = glorot_init((3, 4, 2), seed=1, dtype=np.float32)
    target, before = sync_target(online), online.params.copy()
    buf = ReplayBuffer(8)
    with pytest.raises(InvalidInputError, match="actions"):
        for _ in range(4):
            buf.write(_rows([Transition(np.ones(3), action, 1.0, np.zeros(3))]))
        online, _ = dqn_train_step(online, target, buf, 2, 0.9, 0.01, np.random.default_rng(0))
    np.testing.assert_array_equal(online.params, before)


@pytest.mark.parametrize("lr", [0.0, -0.01, float("nan")])
def test_train_step_rejects_a_learning_rate_that_is_not_positive(lr):
    """The update raises before the online network changes."""
    online = glorot_init((3, 4, 2), seed=1)
    target, before = sync_target(online), online.params.copy()
    buf = ReplayBuffer(8)
    buf.write(ReplayBatch(np.ones((4, 3)), np.ones(4, np.int64), np.ones(4), np.zeros((4, 3)), np.ones(4)))
    with pytest.raises(InvalidInputError, match="learning rate"):
        dqn_train_step(online, target, buf, 2, 0.9, lr, np.random.default_rng(0))
    np.testing.assert_array_equal(online.params, before)


@pytest.mark.parametrize(
    "dtype, pruned, capacity",
    [
        (np.float32, False, 61),
        (np.float64, False, 61),
        (np.float32, True, 61),
        (np.float64, True, 61),
        (np.float32, False, 4000),
    ],
)
def test_train_step_matches_reference(dtype, pruned, capacity):
    """Ring replay and the one-forward step against the reference learner.

    Both learners see the same transitions and the same sample stream for
    1,500 steps; weights, biases and loss must agree bit for bit at every
    step.  Capacity 61 wraps the ring over a hundred times, mid-batch too.
    """
    data_rng = np.random.default_rng(2024)
    online = glorot_init((12, 32, 32, 4), seed=5, dtype=dtype)
    if pruned:
        online, _ = prune_by_magnitude(online, threshold_for_sparsity(online, 0.5))
    ref_online = online
    target = ref_target = sync_target(online)
    buf, ref_buf = ReplayBuffer(capacity), ReferenceReplayBuffer(capacity)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    for step in range(1500):
        state_dtype = np.float32 if step % 3 else np.float64
        fresh = [
            Transition(
                data_rng.random(12).astype(state_dtype),
                int(data_rng.integers(4)),
                float(data_rng.random()),
                data_rng.random(12).astype(state_dtype),
                bool(data_rng.random() < 0.05),
            )
            for _ in range(int(data_rng.integers(1, 9)))
        ]
        if step % 2:
            buf.write(_rows(fresh))
        else:
            for t in fresh:
                buf.write(_rows([t]))
        for t in fresh:
            ref_buf.push(t)
        bs = min(32, len(buf))
        online, loss = dqn_train_step(online, target, buf, bs, 0.9, 0.01, rng)
        ref_online, ref_loss = reference_dqn_train_step(
            ref_online, ref_target, ref_buf, bs, 0.9, 0.01, ref_rng
        )
        assert loss == ref_loss, f"loss differs at step {step}"
        for a, b in zip(online.weights + online.biases, ref_online.weights + ref_online.biases):
            assert np.array_equal(a, b), f"parameters differ at step {step}"
        if (step + 1) % 50 == 0:
            target, ref_target = sync_target(online), sync_target(ref_online)
    assert np.isfinite(loss) and loss > 0
    assert online.dtype == dtype
    if pruned:
        assert all(np.all(w[mk == 0] == 0) for w, mk in zip(online.weights, online.mask))


def _random_rows(rng, count, width):
    return ReplayBatch(
        rng.random((count, width)), rng.integers(0, 3, count), rng.random(count), rng.random((count, width)),
        np.ones(count),
    )


def _copy_of(buf, how):
    return copy.deepcopy(buf) if how == "deepcopy" else pickle.loads(pickle.dumps(buf))


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
@pytest.mark.parametrize("capacity", [40, 100])
def test_copied_replay_buffer_trains_like_the_original(how, capacity):
    """A copy of a buffer that has taken a train step trains as the original
    does, bit for bit; capacity 40 holds a wrapped ring.  The learner's
    workspace used to be copied along, and in the copy the per-layer
    gradient views no longer viewed the gradient, so each step applied a
    stale gradient without an error."""
    data_rng = np.random.default_rng(11)
    online = glorot_init((6, 8, 3), seed=2, dtype=np.float32)
    target = sync_target(online)
    buf = ReplayBuffer(capacity)
    buf.write(_random_rows(data_rng, 64, 6))
    online, _ = dqn_train_step(online, target, buf, 16, 0.9, 0.05, np.random.default_rng(0))
    copied = _copy_of(buf, how)
    after = {}
    for name, b in (("original", buf), ("copy", copied)):
        net, rng, losses = online, np.random.default_rng(1), []
        for _ in range(3):
            net, loss = dqn_train_step(net, target, b, 16, 0.9, 0.05, rng)
            losses.append(loss)
        after[name] = (net.params.tobytes(), losses)
    assert after["copy"] == after["original"]


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copied_replay_ring_keeps_only_its_filled_rows(how):
    """A copy of a ring that has not wrapped carries its filled rows only,
    not the whole capacity, until its next write; it then fills and samples
    as the original."""
    data_rng = np.random.default_rng(5)
    buf = ReplayBuffer(100_000)
    buf.write(_random_rows(data_rng, 10, 12))
    assert len(pickle.dumps(buf)) < 20_000  # the whole ring is about 21.6 MB
    copied = _copy_of(buf, how)
    assert copied.capacity == buf.capacity and len(copied) == len(buf)
    assert copied._ring.state.shape == (10, 12)
    more = _random_rows(data_rng, 7, 12)
    buf.write(more)
    copied.write(more)
    assert copied._ring.state.shape == buf._ring.state.shape
    picks = [b.sample(12, np.random.default_rng(3)) for b in (buf, copied)]
    for a, b in zip(*picks):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wire_roundtrip_exact(dtype):
    net = glorot_init((5, 4, 3), seed=2, dtype=dtype)
    back = net_from_bytes(net_to_bytes(net))
    assert back.layer_dims == net.layer_dims
    assert back.dtype == net.dtype
    for w, w2 in zip(net.weights, back.weights):
        assert np.array_equal(w, w2)
    for b, b2 in zip(net.biases, back.biases):
        assert np.array_equal(b, b2)


def test_wire_byte_length_formula():
    # header 10 + 4 per dim + per layer (4*in*out weights + 4*out biases), f32
    net = glorot_init((3, 2), seed=0, dtype=np.float32)
    assert len(net_to_bytes(net)) == 10 + 8 + (3 * 2 * 4 + 2 * 4)
    # quantised at 8 bits: f32 scale + one int8 code per weight
    assert len(net_to_bytes(net, quant_bits=8)) == 10 + 8 + (4 + 3 * 2) + 2 * 4


def test_wire_quantized_roundtrip_and_meta():
    net = glorot_init((6, 5, 2), seed=4, dtype=np.float32)
    back = net_from_bytes(net_to_bytes(net, quant_bits=8))
    assert back.quant is not None
    assert back.quant.bits == 8
    for w, w2, scale in zip(net.weights, back.weights, back.quant.scales):
        assert np.max(np.abs(w.astype(np.float64) - w2.astype(np.float64))) <= scale / 2 * (
            1 + 1e-5
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("peak, dtype", [(5e-324, np.float64), (1e-320, np.float64), (1e-45, np.float32)])
def test_wire_quantized_subnormal_layer_roundtrips(peak, dtype):
    """A layer whose scale is 0 in float32 ships as an all-zero layer with
    scale 1.0.  It used to divide by a zero scale (5e-324) or write a zero
    scale field, and the decoder rejected the payload either way."""
    net = pack((2, 1), [np.array([[peak], [0.0]], dtype)], [np.array([0.5], dtype)])
    back = net_from_bytes(net_to_bytes(net, quant_bits=8))
    assert back.quant.scales == [1.0]
    np.testing.assert_array_equal(back.weights[0], [[0.0], [0.0]])
    np.testing.assert_array_equal(back.biases[0], [0.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("peak", [1e300, np.inf, np.nan])
def test_wire_quantized_rejects_a_scale_beyond_float32(peak):
    """A layer with no float32 scale used to raise a raw OverflowError from
    ``struct.pack`` (1e300), ship an infinite scale the decoder rejects
    (inf), or cast NaN to integer codes (nan)."""
    net = pack((2, 1), [np.array([[peak], [1.0]])], [np.zeros(1)])
    with pytest.raises(InvalidInputError, match="float32 quantisation scale"):
        net_to_bytes(net, quant_bits=8)


def test_wire_rejects_garbage():
    net = glorot_init((2, 2), seed=0)
    buf = net_to_bytes(net)
    with pytest.raises(InvalidInputError):
        net_from_bytes(b"XXXX" + buf[4:])
    with pytest.raises(InvalidInputError):
        net_from_bytes(buf + b"\x00")


def test_wire_16bit_codes():
    net = glorot_init((4, 4), seed=8, dtype=np.float64)
    buf = net_to_bytes(net, quant_bits=12)
    back = net_from_bytes(buf)
    assert back.quant.bits == 12
    # 12-bit codes ship as int16
    assert len(buf) == 10 + 8 + (4 + 16 * 2) + 4 * 8


# ---------------------------------------------------------------------------
# symmetric quantisation
# ---------------------------------------------------------------------------


def test_quantize_layer_pins_extremes():
    w = np.array([[0.5, -1.0, 0.25]])
    codes, scale = symmetric_quantize_layer(w, 8)
    assert scale == pytest.approx(1.0 / 127)
    assert codes[0, 1] == -127
    assert codes[0, 0] == 64  # round(0.5 * 127)


def test_quantize_layer_zero_layer():
    codes, scale = symmetric_quantize_layer(np.zeros((3, 3)), 8)
    assert scale == 1.0
    assert np.all(codes == 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=16),
)
@example([5e-324, 0.0], 8)
@example([1e-320, 0.0], 8)
@settings(max_examples=60)
def test_quantize_layer_error_bound(vals, bits):
    w = np.array(vals)
    codes, scale = symmetric_quantize_layer(w, bits)
    assert np.max(np.abs(codes * scale - w)) <= scale / 2 + 1e-12
    assert np.max(np.abs(codes)) <= 2 ** (bits - 1) - 1


@pytest.mark.parametrize("bits", [1, 17, 0])
def test_quantize_layer_bits_range(bits):
    with pytest.raises(ConfigError):
        symmetric_quantize_layer(np.ones((2, 2)), bits)


# ---------------------------------------------------------------------------
# trusted batch-of-one forward
# ---------------------------------------------------------------------------


def _variant_net(dtype, n_hidden, variant):
    net = glorot_init((6, *[5 + i for i in range(n_hidden)], 3), seed=n_hidden, dtype=dtype)
    net = pack(net.layer_dims, net.weights, [np.linspace(-0.3, 0.3, b.size).astype(dtype) for b in net.biases])
    if variant == "masked":
        net, _ = prune_by_magnitude(net, threshold_for_sparsity(net, 0.5))
    elif variant == "quantised":
        net = net_from_bytes(net_to_bytes(net, quant_bits=6))
    return net


@pytest.mark.parametrize("variant", ["dense", "masked", "quantised"])
@pytest.mark.parametrize("n_hidden", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trusted_forward_matches_cached_forward(dtype, n_hidden, variant):
    """``forward`` gives the cached batch forward's last pre-activation row
    bit for bit."""
    from greenrl.neural import _forward_cached, _Workspace

    net = _variant_net(dtype, n_hidden, variant)
    for x in np.random.default_rng(7).normal(size=(25, 6)).astype(dtype):
        expected = _forward_cached(net, x[None, :], _Workspace(net, 1))[1][-1][0]
        got = forward(net, x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_mixed_dtype_net_is_rejected():
    """Weights and biases live in one parameter vector of one dtype: ``pack``
    refuses float64 biases on float32 weights with a ConfigError."""
    net = _variant_net(np.float32, 2, "dense")
    with pytest.raises(ConfigError, match="one dtype"):
        pack(net.layer_dims, net.weights, [b.astype(np.float64) + 0.1 for b in net.biases])
    with pytest.raises(ConfigError, match="one dtype"):
        pack((1, 1), [np.ones((1, 1), np.float32)], [np.zeros(1)])


@pytest.mark.parametrize("name", ["weights", "biases", "mask"])
def test_layer_views_cannot_be_assigned(name):
    """``weights``, ``biases`` and ``mask`` are views of the network's
    vectors: assigning one raises AttributeError and changes nothing."""
    net, _ = prune_by_magnitude(_variant_net(np.float32, 2, "dense"), 0.1)
    before, mask_before, views = net.params.tobytes(), net.param_mask.tobytes(), getattr(net, name)
    with pytest.raises(AttributeError):
        setattr(net, name, [np.zeros_like(a) for a in views])
    assert getattr(net, name) is views
    assert (net.params.tobytes(), net.param_mask.tobytes()) == (before, mask_before)


def test_trusted_forward_leaves_net_and_input_unchanged():
    net = _variant_net(np.float32, 2, "dense")
    before = [a.copy() for a in net.weights + net.biases]
    x = np.full(6, -1.0, np.float32)
    forward(net, x)
    assert np.array_equal(x, np.full(6, -1.0, np.float32))
    assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, before))


# ---------------------------------------------------------------------------
# wire decode hardening
# ---------------------------------------------------------------------------

_WIRE_Q8 = net_to_bytes(glorot_init((4, 3, 2), seed=5, dtype=np.float32), quant_bits=8)


def _wire_byte(buf, offset, value):
    return buf[:offset] + bytes([value]) + buf[offset + 1 :]


# The second layer's scale of _WIRE_Q8 sits after the 22-byte header and
# the first layer's scale, 12 codes and 3 float32 biases.
_SECOND_SCALE = 22 + 4 + 12 + 3 * 4
_MALFORMED_WIRE = [
    pytest.param(b"", id="no-bytes"),
    pytest.param(_WIRE_Q8[:9], id="truncated-header"),
    pytest.param(_WIRE_Q8[:14], id="truncated-dims"),
    pytest.param(_WIRE_Q8[:-1], id="one-byte-short"),
    pytest.param(_wire_byte(_WIRE_Q8, 6, 2), id="float-tag-2"),
    pytest.param(_wire_byte(_WIRE_Q8, 7, 1), id="quant-bits-1"),
    pytest.param(_wire_byte(_WIRE_Q8, 7, 17), id="quant-bits-17"),
    pytest.param(_wire_byte(_WIRE_Q8, 8, 1), id="activation-tag-1"),
    pytest.param(_wire_byte(_WIRE_Q8, 9, 1), id="one-dim"),
    pytest.param(_WIRE_Q8[:10] + bytes(4) + _WIRE_Q8[14:], id="zero-dim"),
    pytest.param(_WIRE_Q8[:10] + b"\xff" * 4 + _WIRE_Q8[14:], id="huge-dim"),
    pytest.param(_WIRE_Q8[:22] + b"\x00\x00\x80\xbf" + _WIRE_Q8[26:], id="negative-scale"),
    pytest.param(_WIRE_Q8[:22] + b"\x00\x00\x80\x7f" + _WIRE_Q8[26:], id="infinite-scale"),
    pytest.param(
        _WIRE_Q8[:_SECOND_SCALE] + b"\x00\x00\xc0\x7f" + _WIRE_Q8[_SECOND_SCALE + 4 :], id="second-scale-nan"
    ),
]


@pytest.mark.parametrize("payload", _MALFORMED_WIRE)
def test_wire_decode_rejects_malformed_payload(payload):
    with pytest.raises(InvalidInputError):
        net_from_bytes(payload)


# ---------------------------------------------------------------------------
# decoding into a resident network
# ---------------------------------------------------------------------------


def _resident(dims, dtype, bits=None, seed=11):
    """A decoded network, as an entity holds one, from a payload of another net."""
    return net_from_bytes(net_to_bytes(glorot_init(dims, seed, dtype=dtype), bits))


@pytest.mark.parametrize("resident_bits", [None, 8])
@pytest.mark.parametrize("bits", [None, 8, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resident_decode_matches_a_fresh_decode(dtype, bits, resident_bits):
    """Decoding into a resident network of the payload's layout writes its
    vector in place, keeps its views, and gives the bytes and QuantMeta of
    a fresh decode and of the reference decoder; a dense payload clears a
    quantised resident's tag."""
    dims = (5, 4, 3, 2)
    net = glorot_init(dims, 3, dtype=dtype)
    net = pack(dims, net.weights, [np.linspace(-0.5, 0.5, b.size).astype(dtype) for b in net.biases])
    payload = net_to_bytes(net, bits)
    resident = _resident(dims, dtype, resident_bits)
    params, weights = resident.params, resident.weights
    back = net_from_bytes(payload, into=resident)
    fresh, ref = net_from_bytes(payload), reference_net_from_bytes(payload)
    assert back is resident and back.params is params and back.weights is weights
    assert back.params.tobytes() == fresh.params.tobytes() == ref.params.tobytes()
    assert (back.layer_dims, back.dtype, back.quant, back.mask) == (ref.layer_dims, ref.dtype, ref.quant, None)
    assert back.quant == fresh.quant
    _assert_views_agree(back)


@pytest.mark.parametrize(
    "into",
    [
        pytest.param(lambda: _resident((5, 4, 2), np.float32), id="other-dims"),
        pytest.param(lambda: _resident((5, 4, 3, 2), np.float64), id="other-dtype"),
        pytest.param(
            lambda: prune_by_magnitude(_resident((5, 4, 3, 2), np.float32), 0.1)[0], id="masked"
        ),
    ],
)
def test_resident_decode_builds_a_fresh_net_for_another_layout(into):
    """A resident network whose dims, dtype or mask layout differ from the
    payload's is left alone, and a fresh network is returned."""
    into = into()
    before = into.params.tobytes()
    payload = net_to_bytes(glorot_init((5, 4, 3, 2), 3, dtype=np.float32), 8)
    back = net_from_bytes(payload, into=into)
    assert back is not into and not np.shares_memory(back.params, into.params)
    assert back.params.tobytes() == net_from_bytes(payload).params.tobytes()
    assert back.quant == net_from_bytes(payload).quant and back.mask is None
    assert into.params.tobytes() == before


@pytest.mark.parametrize("payload", _MALFORMED_WIRE)
def test_resident_decode_of_a_malformed_payload_changes_nothing(payload):
    """Every check runs before the first byte is written: a bad payload,
    such as a quantised one whose second layer's scale is NaN, leaves the
    resident network's vector and tag as they were."""
    resident = _resident((4, 3, 2), np.float32, 8)
    before, quant = resident.params.tobytes(), resident.quant
    with pytest.raises(InvalidInputError):
        net_from_bytes(payload, into=resident)
    assert resident.params.tobytes() == before and resident.quant is quant


# ---------------------------------------------------------------------------
# flat parameter vector
# ---------------------------------------------------------------------------


def _assert_views_agree(net):
    """``params`` is the layers in [W0, b0, W1, b1, ...] order, and every
    view (and mask view) lives in its flat vector."""
    layers = [a.ravel() for pair in zip(net.weights, net.biases) for a in pair]
    assert net.params.tobytes() == np.concatenate(layers).tobytes()
    assert all(np.shares_memory(a, net.params) for a in (*net.weights, *net.biases))
    if net.mask is not None:
        ones = [np.ones_like(b) for b in net.biases]
        flat = np.concatenate([a.ravel() for pair in zip(net.mask, ones) for a in pair])
        assert net.param_mask.tobytes() == flat.tobytes()
        assert all(np.shares_memory(m, net.param_mask) for m in net.mask)


def test_views_and_params_agree_through_every_write():
    weights = [np.arange(6.0).reshape(2, 3), np.arange(3.0).reshape(3, 1)]
    biases = [np.array([1.0, 2.0, 3.0]), np.array([4.0])]
    net = pack((2, 3, 1), weights, biases)
    _assert_views_agree(net)
    assert net.params.tolist() == [0, 1, 2, 3, 4, 5, 1, 2, 3, 0, 1, 2, 4]
    weights[0][0, 0] = 99.0  # the constructor copied its arguments
    assert net.weights[0][0, 0] == 0.0

    net.weights[1][2, 0] = -7.0  # in-place element writes land in params
    net.biases[0][:] = 0.5
    assert net.params[11] == -7.0 and net.params[6:9].tolist() == [0.5] * 3
    _assert_views_agree(net)

    swapped = pack(net.layer_dims, [np.ones((2, 3)), np.ones((3, 1))], net.biases)
    _assert_views_agree(swapped)
    assert not np.shares_memory(swapped.params, net.params)
    assert swapped.biases[0].tolist() == [0.5] * 3  # carried over from net
    assert net.weights[0][0, 1] == 1.0  # net itself unchanged

    net = pack(  # a rebuilt network has views on its own vectors
        net.layer_dims, net.weights, [np.zeros(3), np.array([9.0])], [np.ones((2, 3)), np.array([[1.0], [0.0], [1.0]])]
    )
    _assert_views_agree(net)
    assert net.params[-1] == 9.0
    assert net.param_mask.tolist() == [1] * 9 + [1, 0, 1] + [1]
    net.mask[0][1, 2] = 0.0
    assert net.param_mask[5] == 0.0


def test_copies_rebuild_views_on_their_own_vector():
    import copy
    import pickle

    net, _ = prune_by_magnitude(glorot_init((3, 4, 2), seed=6), 0.3)
    for dup in (copy.deepcopy(net), pickle.loads(pickle.dumps(net)), sync_target(net)):
        _assert_views_agree(dup)
        assert not np.shares_memory(dup.params, net.params)
        assert not np.shares_memory(dup.param_mask, net.param_mask)
        assert dup.params.tobytes() == net.params.tobytes()


def test_constructor_checks_shapes_against_dims():
    with pytest.raises(ConfigError, match="shapes"):
        pack((2, 3), [np.ones((3, 2))], [np.zeros(3)])
    with pytest.raises(ConfigError, match="shapes"):
        pack((2, 3), [np.ones((2, 3))], [np.zeros(2)])
    with pytest.raises(ConfigError, match="mask"):
        pack((2, 3), [np.ones((2, 3))], [np.zeros(3)], mask=[np.ones((3, 2))])
    # (2, 3) holds 6 weights and 3 biases: a vector of 8 ends inside the
    # biases, one of 10 runs past them.
    assert DenseNet((2, 3), np.arange(9.0), np.ones(9)).weights[0].tolist() == [[0, 1, 2], [3, 4, 5]]
    for params, param_mask in [
        (np.zeros(8), None), (np.zeros(10), None), (np.zeros((9, 1)), None),
        (np.zeros(9), np.ones(8)),
    ]:
        with pytest.raises(ConfigError, match="does not hold"):
            DenseNet((2, 3), params, param_mask)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_sample_into_a_new_workspace_casts_no_stale_memory():
    """A gather from a float64 ring into a float32 workspace first casts the
    workspace columns' old contents.  Signalling NaNs left in freed memory
    used to warn ``invalid value encountered in cast`` at a workspace's first
    step, depending on what earlier code had freed."""
    from greenrl.neural import _Workspace

    buf = ReplayBuffer(16)
    buf.write(ReplayBatch(np.ones((16, 4)), np.zeros(16, np.int64), np.ones(16), np.ones((16, 4)), np.ones(16)))
    junk = np.empty((2, 8, 4), np.float32)  # the size of the workspace's state columns
    junk.view(np.uint32)[...] = 0x7FA00000  # a float32 signalling NaN
    del junk
    ws = _Workspace(glorot_init((4, 3), 0, dtype=np.float32), 8)
    sample = buf.sample(8, np.random.default_rng(0), out=ws.sample)
    assert sample.state.tolist() == np.ones((8, 4)).tolist()


def test_returned_nets_and_gradients_do_not_alias_the_workspace():
    """Every step returns fresh arrays: a net or gradient handed out earlier
    survives later steps, later backprops and target syncs unchanged."""
    rng = np.random.default_rng(4)
    online = glorot_init((4, 6, 3), seed=1, dtype=np.float32)
    online, _ = prune_by_magnitude(online, threshold_for_sparsity(online, 0.3))
    target = sync_target(online)
    buf = ReplayBuffer(32)
    buf.write(_rows([Transition(rng.random(4), int(rng.integers(3)), float(rng.random()), rng.random(4)) for _ in range(32)]))
    batch = [(rng.random(4), rng.random(3), np.eye(3)[i % 3]) for i in range(5)]
    sample_rng = np.random.default_rng(5)
    first, _ = dqn_train_step(online, target, buf, 8, 0.9, 0.05, sample_rng)
    grads = backprop_minibatch(first, batch)
    kept = [a.copy() for a in (online.params, target.params, first.params, first.param_mask)]
    kept_grads = [g.copy() for g in grads.weight_grads + grads.bias_grads]
    net = first
    for _ in range(3):
        net, _ = dqn_train_step(net, target, buf, 8, 0.9, 0.05, sample_rng)
        backprop_minibatch(net, batch)
    assert not np.array_equal(net.params, first.params)
    for before, after in zip(kept, (online.params, target.params, first.params, first.param_mask)):
        assert before.tobytes() == after.tobytes()
    for before, after in zip(kept_grads, grads.weight_grads + grads.bias_grads):
        assert before.tobytes() == after.tobytes()
    scratch = [a for a in vars(buf._workspace).values() if isinstance(a, np.ndarray)]
    for a in (first.params, first.param_mask, net.params, net.param_mask):
        assert not any(np.shares_memory(a, s) for s in scratch)
    assert not np.shares_memory(first.param_mask, net.param_mask)


def test_backprop_minibatch_gradients_own_their_memory():
    """Two calls on one network with batches of one shape: the first call's
    gradients are unchanged by the second, which a workspace kept across
    calls would overwrite."""
    rng = np.random.default_rng(6)
    net = glorot_init((4, 6, 3), seed=2)
    batches = [[(rng.random(4), rng.random(3), np.eye(3)[i % 3]) for i in range(5)] for _ in range(2)]
    first = backprop_minibatch(net, batches[0])
    kept = [g.copy() for g in first.weight_grads + first.bias_grads]
    second = backprop_minibatch(net, batches[1])
    firsts, seconds = first.weight_grads + first.bias_grads, second.weight_grads + second.bias_grads
    for before, after, other in zip(kept, firsts, seconds):
        assert before.tobytes() == after.tobytes()
        assert not np.shares_memory(after, other)
    assert any(a.tobytes() != b.tobytes() for a, b in zip(kept, seconds))


@given(
    dims=st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=4),
    dtype=st.sampled_from([np.float32, np.float64]),
    sparsity=st.sampled_from([None, 0.3, 0.8]),
    bits=st.one_of(st.none(), st.integers(min_value=2, max_value=16)),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=120, deadline=None)
def test_codec_matches_reference(dims, dtype, sparsity, bits, seed):
    """Payloads are byte-identical to the per-layer reference codec, dense
    and quantised at 2-16 bits, and both decoders agree bit for bit."""
    net = glorot_init(dims, seed, dtype=dtype)
    net = pack(dims, net.weights, [np.random.default_rng(seed).normal(size=b.shape).astype(dtype) for b in net.biases])
    if sparsity is not None:
        net, _ = prune_by_magnitude(net, threshold_for_sparsity(net, sparsity))
    payload = net_to_bytes(net, bits)
    assert payload == reference_net_to_bytes(net, bits)
    back, ref = net_from_bytes(payload), reference_net_from_bytes(payload)
    assert back.params.tobytes() == ref.params.tobytes()
    assert (back.layer_dims, back.dtype, back.quant, back.mask) == (ref.layer_dims, ref.dtype, ref.quant, None)
    _assert_views_agree(back)
