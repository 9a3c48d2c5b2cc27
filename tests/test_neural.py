import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.compression import prune_by_magnitude, threshold_for_sparsity
from greenrl.errors import ConfigError, InvalidInputError, NotReadyError
from greenrl.neural import (
    DenseNet,
    GradientBatch,
    ReplayBuffer,
    backprop_minibatch,
    batch_loss,
    dqn_train_step,
    forward,
    glorot_init,
    net_from_bytes,
    net_to_bytes,
    sgd_step,
    symmetric_quantize_layer,
    sync_target,
)
from greenrl.rl_core import Transition
from oracles import (
    ReferenceReplayBuffer,
    finite_diff_grads,
    random_net_and_batch,
    reference_dqn_train_step,
)


def tiny_net():
    """Hand-sized 2-2-1 network for pinned-value checks."""
    return DenseNet(
        (2, 2, 1),
        [np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([[2.0], [1.0]])],
        [np.array([0.5, -1.0]), np.array([0.2])],
    )


def scalar_net(w=2.0, b=1.0):
    return DenseNet((1, 1), [np.array([[w]])], [np.array([b])])


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
    net = DenseNet(
        (1, 1, 1),
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([0.0]), np.array([0.0])],
    )
    assert forward(net, [-3.0])[0] == 0.0  # clipped in the hidden layer
    out_only = DenseNet((1, 1), [np.array([[1.0]])], [np.array([0.0])])
    assert forward(out_only, [-3.0])[0] == -3.0  # linear head may go negative


def test_forward_validates_state():
    net = tiny_net()
    with pytest.raises(InvalidInputError):
        forward(net, [1.0])
    with pytest.raises(InvalidInputError):
        forward(net, [1.0, float("nan")])


def test_unsupported_activation():
    net = tiny_net()
    net.activation = "tanh"
    with pytest.raises(ConfigError):
        forward(net, [1.0, 2.0])


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
    net = DenseNet((1, 2), [np.array([[1.0, 1.0]])], [np.array([0.0, 0.0])])
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
    net = scalar_net()
    net.mask = [np.array([[0.0]])]
    g = backprop_minibatch(net, [(np.array([3.0]), np.array([4.0]), np.array([1.0]))])
    assert g.weight_grads[0][0, 0] == 0.0


def test_empty_batch_rejected():
    with pytest.raises(InvalidInputError):
        batch_loss(scalar_net(), [])


# ---------------------------------------------------------------------------
# sgd_step / sync_target
# ---------------------------------------------------------------------------


def test_sgd_step_arithmetic():
    net = scalar_net(w=2.0, b=1.0)
    g = GradientBatch([np.array([[10.0]])], [np.array([4.0])])
    out = sgd_step(net, g, lr=0.1)
    assert out.weights[0][0, 0] == pytest.approx(1.0)
    assert out.biases[0][0] == pytest.approx(0.6)
    assert net.weights[0][0, 0] == 2.0  # input net untouched


def test_sgd_step_reapplies_mask():
    net = scalar_net()
    net.mask = [np.array([[0.0]])]
    out = sgd_step(net, GradientBatch([np.array([[5.0]])], [np.array([0.0])]), 0.1)
    assert out.weights[0][0, 0] == 0.0
    assert out.mask[0][0, 0] == 0.0


def test_sgd_step_validation():
    net = scalar_net()
    good = GradientBatch([np.zeros((1, 1))], [np.zeros(1)])
    with pytest.raises(InvalidInputError):
        sgd_step(net, good, lr=0.0)
    with pytest.raises(InvalidInputError):
        sgd_step(net, GradientBatch([np.zeros((2, 1))], [np.zeros(1)]), 0.1)
    with pytest.raises(InvalidInputError):
        sgd_step(net, GradientBatch([], []), 0.1)


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


def test_replay_fifo_eviction():
    buf = ReplayBuffer(2)
    for r in (1, 2, 3):
        buf.push(_t(r))
    assert len(buf) == 2
    rng = np.random.default_rng(0)
    rewards = set(buf.sample(2, rng).reward) | set(buf.sample(2, rng).reward)
    assert rewards <= {2.0, 3.0}


def test_replay_underfill_and_validation():
    buf = ReplayBuffer(4)
    buf.push(_t(1))
    with pytest.raises(NotReadyError):
        buf.sample(2, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        buf.sample(0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        ReplayBuffer(0)
    with pytest.raises(InvalidInputError):
        buf.push(Transition(np.zeros(2), 0, 0.0, np.zeros(2)))  # width 1 fixed by first push
    with pytest.raises(InvalidInputError):
        buf.push(Transition(np.zeros(1), 0, 0.0, np.zeros(2)))
    assert len(buf) == 1


def test_replay_samples_with_replacement():
    buf = ReplayBuffer(8)
    buf.push(_t(1))
    buf.push(_t(2))
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
    """Capacity 3, rewards 1..7 pushed in chunks: draw i is the i-th oldest of 5, 6, 7."""
    buf = ReplayBuffer(3)
    rewards = iter(range(1, 8))
    for k in chunks:
        batch = [_t(next(rewards)) for _ in range(k)]
        if k == 1:
            buf.push(batch[0])
        else:
            buf.extend(batch)
    assert len(buf) == 3
    assert list(buf.sample(3, _FixedDraw([0, 1, 2])).reward) == [5.0, 6.0, 7.0]
    got = buf.sample(3, _FixedDraw([2, 0, 2]))
    assert list(got.reward) == [7.0, 5.0, 7.0]
    assert got.state.shape == (3, 1)


# ---------------------------------------------------------------------------
# dqn_train_step
# ---------------------------------------------------------------------------


def test_train_step_pinned_update():
    """Replay of one transition, batch 1: the whole update is hand-checkable."""
    online = scalar_net(w=1.0, b=0.0)
    target = scalar_net(w=2.0, b=0.5)
    buf = ReplayBuffer(1)
    buf.push(Transition(np.array([1.0]), 0, 1.0, np.array([2.0])))
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
    buf.push(Transition(np.array([1.0]), 0, 1.0, np.array([2.0]), terminal=True))
    out, loss = dqn_train_step(online, target, buf, 1, 0.9, 0.1, rng=np.random.default_rng(0))
    assert loss == pytest.approx(0.0)  # pred 1 equals the reward-only target
    assert out.weights[0][0, 0] == pytest.approx(1.0)


def test_train_step_only_taken_action_moves_head():
    net = glorot_init((2, 4, 3), seed=9, dtype=np.float64)
    target = sync_target(net)
    buf = ReplayBuffer(4)
    buf.push(Transition(np.array([1.0, 2.0]), 1, 0.5, np.array([0.0, 1.0])))
    out, _ = dqn_train_step(net, target, buf, 1, 0.9, 0.01, np.random.default_rng(1))
    head_delta = out.weights[-1] - net.weights[-1]
    assert np.all(head_delta[:, 0] == 0)
    assert np.all(head_delta[:, 2] == 0)
    assert np.any(head_delta[:, 1] != 0)


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
            buf.extend(fresh)
        else:
            for t in fresh:
                buf.push(t)
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
    assert back.quant.zero_points == [0, 0]
    for w, w2, scale in zip(net.weights, back.weights, back.quant.scales):
        assert np.max(np.abs(w.astype(np.float64) - w2.astype(np.float64))) <= scale / 2 * (
            1 + 1e-5
        )


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


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=16),
)
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
