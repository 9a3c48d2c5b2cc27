"""Fully connected value network trained by hand-rolled backprop.

The network is a list of weight matrices (in_dim, out_dim) and bias vectors
with ReLU on hidden layers and a linear output head, one output per action.
Training is plain SGD on the squared TD error of the taken action only.
Networks are treated as immutable: every update returns fresh arrays.

The learner is array-native.  Replay is a preallocated ring of column
arrays, and a DQN step runs the target network once and the online network
once, taking both the loss and the gradients from that one cached forward
pass.  The loss and the output delta come from the taken-action column
alone, since every other column carries no error.  ``batch_loss``,
``backprop_minibatch`` and the learner share one backprop helper, so the
gradient check covers the code the learner runs.

``forward`` serves per-slot inference: it checks the state once, then runs
a trusted batch-of-one pass that keeps the (1, d) gemm of the batched
forward, so its values match a batch row bit for bit.

The module also owns the wire format: a flat little-endian encoding of the
layer dimensions followed by row-major matrices, with an optional symmetric
integer quantisation of the weights.  Byte lengths of these payloads feed
the message and energy accounting elsewhere.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError, NotReadyError
from .rl_core import Transition, check_discount

__all__ = [
    "DenseNet",
    "QuantMeta",
    "GradientBatch",
    "ReplayBatch",
    "ReplayBuffer",
    "glorot_init",
    "forward",
    "batch_loss",
    "backprop_minibatch",
    "sgd_step",
    "dqn_train_step",
    "sync_target",
    "net_to_bytes",
    "net_from_bytes",
    "symmetric_quantize_layer",
]

@dataclass
class QuantMeta:
    """Record of a symmetric per-layer weight quantisation.

    ``scales`` holds one positive step size per weight layer; zero points are
    kept explicitly even though the symmetric scheme pins them all to 0.
    """

    bits: int
    scales: list[float]
    zero_points: list[int]

    def __post_init__(self):
        if not 2 <= int(self.bits) <= 16:
            raise ConfigError(f"quantisation bits must lie in [2, 16], got {self.bits}")
        if any(s <= 0 for s in self.scales):
            raise ConfigError("quantisation scales must be positive")
        if any(z != 0 for z in self.zero_points):
            raise ConfigError("symmetric quantisation requires zero_point == 0")


@dataclass
class DenseNet:
    """Feed-forward value network with optional sparsity mask and quant tag.

    ``weights[i]`` has shape (layer_dims[i], layer_dims[i+1]); a mask entry of
    0 pins the corresponding weight to exactly zero through any training.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    mask: list[np.ndarray] | None = None
    quant: QuantMeta | None = None

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype


@dataclass
class GradientBatch:
    """Per-layer gradients matching a DenseNet's weight and bias shapes."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]


def _validate_dims(layer_dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims needs >= 2 positive entries, got {layer_dims!r}")
    return dims


def glorot_init(layer_dims: Sequence[int], seed, dtype=np.float64) -> DenseNet:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
    dims = _validate_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return DenseNet(dims, weights, biases)


def _forward_cached(net: DenseNet, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Batched forward pass keeping per-layer inputs and pre-activations."""
    if net.activation != "relu":
        raise ConfigError(f"unsupported activation {net.activation!r}")
    inputs, pre_acts = [], []
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0) if i < net.n_layers - 1 else z
    return inputs, pre_acts


def _check_state(net: DenseNet, state) -> np.ndarray:
    x = np.asarray(state, dtype=net.dtype)
    if x.shape != (net.layer_dims[0],):
        raise InvalidInputError(
            f"state shape {x.shape} does not match input dim {net.layer_dims[0]}"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("state must be finite")
    return x


def forward(net: DenseNet, state) -> np.ndarray:
    """Per-action value estimates for a single state vector.

    After one check of the state this is a trusted batch-of-one pass: each
    layer is the same (1, d) gemm and bias add as ``_forward_cached``, with
    ReLU applied in place, so the values match its last pre-activation row
    bit for bit without keeping per-layer lists.
    """
    if net.activation != "relu":
        raise ConfigError(f"unsupported activation {net.activation!r}")
    last = net.n_layers - 1
    h = _check_state(net, state)[None, :]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < last:
            np.maximum(h, 0, out=h)
    return h[0]


def _stack_batch(net: DenseNet, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack (input, target_vector, action_mask) triples into arrays."""
    if len(batch) == 0:
        raise InvalidInputError("batch must be nonempty")
    xs, ts, ms = zip(*batch)
    x = np.asarray(xs, dtype=net.dtype)
    t = np.asarray(ts, dtype=net.dtype)
    m = np.asarray(ms, dtype=net.dtype)
    out = net.layer_dims[-1]
    if x.shape != (len(batch), net.layer_dims[0]) or t.shape != (len(batch), out) or m.shape != t.shape:
        raise InvalidInputError("batch entries do not match network dims")
    return x, t, m


def _loss_and_grads(
    net: DenseNet,
    inputs: list[np.ndarray],
    pre_acts: list[np.ndarray],
    t: np.ndarray,
    m: np.ndarray,
    with_grads: bool = True,
) -> tuple[float, GradientBatch | None]:
    """Masked squared-error loss and its gradients from one cached forward.

    ``inputs`` and ``pre_acts`` come from ``_forward_cached(net, x)``; ``t``
    and ``m`` are the (n, out) target and action-mask matrices.  The
    gradients are skipped when ``with_grads`` is False.
    """
    y = pre_acts[-1]
    diff = y - t
    loss = float((diff**2 * m).sum(axis=1).mean())
    if not with_grads:
        return loss, None
    return loss, _backprop(net, inputs, pre_acts, 2.0 * m * diff / y.shape[0])


def _backprop(
    net: DenseNet, inputs: list[np.ndarray], pre_acts: list[np.ndarray], delta: np.ndarray
) -> GradientBatch:
    """Weight and bias gradients for the (n, out) output delta of a cached forward."""
    weight_grads = [np.empty(0)] * net.n_layers
    bias_grads = [np.empty(0)] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        weight_grads[i] = inputs[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre_acts[i - 1] > 0)
    if net.mask is not None:
        weight_grads = [g * mk for g, mk in zip(weight_grads, net.mask)]
    return GradientBatch(weight_grads, bias_grads)


def batch_loss(net: DenseNet, batch) -> float:
    """Mean over samples of the squared error restricted by each action mask."""
    x, t, m = _stack_batch(net, batch)
    inputs, pre_acts = _forward_cached(net, x)
    return _loss_and_grads(net, inputs, pre_acts, t, m, with_grads=False)[0]


def backprop_minibatch(net: DenseNet, batch) -> GradientBatch:
    """Exact gradients of ``batch_loss`` w.r.t. every weight and bias.

    The per-sample loss carries no 1/2 factor, so a single neuron with
    prediction (w x + b) and target y has gradient 2 (w x + b - y) x.
    Gradients of masked weights are zeroed.
    """
    x, t, m = _stack_batch(net, batch)
    inputs, pre_acts = _forward_cached(net, x)
    return _loss_and_grads(net, inputs, pre_acts, t, m)[1]


def sgd_step(net: DenseNet, grads: GradientBatch, lr: float) -> DenseNet:
    """w <- w - lr * g; the sparsity mask is re-applied afterwards."""
    if not lr > 0:
        raise InvalidInputError(f"learning rate must be positive, got {lr!r}")
    if len(grads.weight_grads) != net.n_layers:
        raise InvalidInputError("gradient layer count does not match network")
    lr = net.dtype.type(lr)
    weights, biases = [], []
    for i in range(net.n_layers):
        if grads.weight_grads[i].shape != net.weights[i].shape:
            raise InvalidInputError(f"gradient shape mismatch at layer {i}")
        w = net.weights[i] - lr * grads.weight_grads[i].astype(net.dtype)
        if net.mask is not None:
            w = w * net.mask[i]
        weights.append(w)
        biases.append(net.biases[i] - lr * grads.bias_grads[i].astype(net.dtype))
    mask = [mk.copy() for mk in net.mask] if net.mask is not None else None
    return DenseNet(net.layer_dims, weights, biases, net.activation, mask, quant=None)


def sync_target(net: DenseNet) -> DenseNet:
    """Deep copy used as the frozen bootstrap network."""
    return DenseNet(
        net.layer_dims,
        [w.copy() for w in net.weights],
        [b.copy() for b in net.biases],
        net.activation,
        [mk.copy() for mk in net.mask] if net.mask is not None else None,
        replace(net.quant, scales=list(net.quant.scales), zero_points=list(net.quant.zero_points))
        if net.quant is not None
        else None,
    )


class ReplayBatch(NamedTuple):
    """Replay rows as columns; row i of every column is one transition.

    ``live`` is 0.0 for a terminal transition and 1.0 otherwise.
    """

    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray
    live: np.ndarray


class ReplayBuffer:
    """Bounded FIFO of transitions with uniform random sampling.

    Transitions live in a ring of preallocated column arrays, one row per
    slot, allocated at the first write once the state width is known.
    ``head`` is the slot of the oldest item; item i, counting from the
    oldest, sits in slot ``(head + i) % capacity``.  A full buffer
    overwrites its oldest slot.  Floats are stored as float64, which holds
    any float32 or float64 input exactly, so a sample converts to the
    network dtype with the same single rounding as the input itself would.

    ``write`` is the one path into the ring and takes whole columns;
    ``push`` and ``extend`` turn ``Transition`` records into columns for it.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: ReplayBatch | None = None
        self._head = 0
        self._size = 0

    def push(self, t: Transition) -> None:
        self.extend((t,))

    def extend(self, transitions: Sequence[Transition]) -> None:
        """Append ``Transition`` records oldest first through ``write``."""
        k = len(transitions)
        if k == 0:
            return
        states, actions, rewards, next_states, terminals = zip(
            *[(t.state, t.action, t.reward, t.next_state, t.terminal) for t in transitions]
        )
        widths = set(map(len, states + next_states))
        if len(widths) != 1 or 0 in widths:
            raise InvalidInputError("transition states must be nonempty vectors of one width")
        both = np.concatenate(states + next_states).reshape(2, k, widths.pop())
        self.write(
            ReplayBatch(
                both[0],
                np.array(actions, dtype=np.int64),
                np.array(rewards, dtype=np.float64),
                both[1],
                1.0 - np.array(terminals, dtype=np.float64),
            )
        )

    def write(self, rows: ReplayBatch) -> None:
        """Append column rows oldest first with one slice write per column.

        ``state`` and ``next_state`` are (k, width) and the other columns
        hold k entries.  The write splits in two where it wraps past the
        last slot.  When more than ``capacity`` rows arrive, only the
        newest are kept.
        """
        cap = self.capacity
        rows = ReplayBatch(*(np.asarray(c) for c in rows))
        if rows.state.ndim != 2 or rows.state.shape != rows.next_state.shape or rows.state.shape[1] == 0:
            raise InvalidInputError("state and next_state must be (rows, width) arrays of one nonzero width")
        k, width = rows.state.shape
        if any(c.shape != (k,) for c in (rows.action, rows.reward, rows.live)):
            raise InvalidInputError("every replay column must hold one entry per row")
        if k == 0:
            return
        if self._ring is None:
            self._ring = ReplayBatch(
                np.zeros((cap, width)), np.zeros(cap, np.int64), np.zeros(cap),
                np.zeros((cap, width)), np.zeros(cap),
            )
        elif width != self._ring.state.shape[1]:
            raise InvalidInputError(
                f"state width {width} does not match replay width {self._ring.state.shape[1]}"
            )
        if k > cap:
            rows = ReplayBatch(*(c[k - cap :] for c in rows))
            k = cap
        start = (self._head + self._size) % cap
        first = min(k, cap - start)
        for col, src in zip(self._ring, rows):
            col[start : start + first] = src[:first]
            if first < k:
                col[: k - first] = src[first:]
        overflow = max(0, self._size + k - cap)
        self._head = (self._head + overflow) % cap
        self._size += k - overflow

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator) -> ReplayBatch:
        """Uniform sample with replacement; errors if underfilled.

        One ``rng.integers(0, len(self), size=batch_size)`` draw picks the
        rows; draw value i selects the i-th oldest transition.
        """
        if batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if len(self) < batch_size:
            raise NotReadyError(
                f"replay holds {len(self)} transitions, need {batch_size}"
            )
        idx = rng.integers(0, self._size, size=batch_size)
        slots = (idx + self._head) % self.capacity
        return ReplayBatch(*(col[slots] for col in self._ring))


def dqn_train_step(
    online: DenseNet,
    target: DenseNet,
    buffer: ReplayBuffer,
    batch_size: int,
    discount: float,
    lr: float,
    rng: np.random.Generator,
) -> tuple[DenseNet, float]:
    """One mini-batch TD update of the online network.

    Targets are r + discount * max_a target(s', a), with the bootstrap term
    dropped on terminal transitions; the loss touches only taken actions.
    Returns the updated network and the pre-update batch loss.
    """
    lam = check_discount(discount)
    sample = buffer.sample(batch_size, rng)
    dt = online.dtype
    x = sample.state.astype(dt)
    rewards = sample.reward.astype(dt)
    live = sample.live.astype(dt)

    _, tgt_acts = _forward_cached(target, sample.next_state.astype(dt))
    boot = tgt_acts[-1].max(axis=1)
    td_target = rewards + dt.type(lam) * boot * live

    # Only the taken action's column carries error: its squared error is the
    # per-sample loss, and every other entry of the output delta is zero, as
    # the masked loss over the full (n, out) matrix would give.
    inputs, pre_acts = _forward_cached(online, x)
    rows = np.arange(batch_size)
    diff = pre_acts[-1][rows, sample.action] - td_target
    loss = float((diff**2).mean())
    delta = np.zeros_like(pre_acts[-1])
    delta[rows, sample.action] = 2.0 * diff / batch_size
    return sgd_step(online, _backprop(online, inputs, pre_acts, delta), lr), loss


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

_MAGIC = b"GDNW"
_FORMAT_VERSION = 1
# magic, format version, float tag, quant bits, activation tag, n_dims
_NET_HEADER = struct.Struct("<4sHBBBB")
_FLOAT_TAGS = {0: np.float32, 1: np.float64}
_ACT_TAGS = {"relu": 0}


def symmetric_quantize_layer(w: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Round-to-nearest signed integer codes with scale max|w| / (2**(bits-1)-1).

    An all-zero layer quantises with scale 1.0.  Returns (codes, scale).
    """
    if not 2 <= int(bits) <= 16:
        raise ConfigError(f"quantisation bits must lie in [2, 16], got {bits}")
    q_max = 2 ** (int(bits) - 1) - 1
    w64 = np.asarray(w, dtype=np.float64)
    peak = float(np.max(np.abs(w64))) if w64.size else 0.0
    scale = peak / q_max if peak > 0 else 1.0
    codes = np.clip(np.round(w64 / scale), -q_max, q_max).astype(np.int32)
    return codes, scale


def net_to_bytes(net: DenseNet, quant_bits: int | None = None) -> bytes:
    """Serialise to the flat little-endian wire payload.

    Layout: magic, format version u16, float tag u8 (0=f32, 1=f64),
    quant bits u8 (0 = dense floats), activation tag u8, n_dims u8,
    dims u32 each, then per layer the weight block (row-major floats, or a
    f32 scale followed by i8/i16 codes when quantised) and f32/f64 biases.
    """
    float_tag = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}.get(net.dtype)
    if float_tag is None:
        raise InvalidInputError(f"unsupported network dtype {net.dtype}")
    parts = [
        _MAGIC,
        struct.pack(
            "<HBBBB",
            _FORMAT_VERSION,
            float_tag,
            0 if quant_bits is None else int(quant_bits),
            _ACT_TAGS[net.activation],
            len(net.layer_dims),
        ),
        struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims),
    ]
    for w, b in zip(net.weights, net.biases):
        if quant_bits is None:
            parts.append(np.ascontiguousarray(w).tobytes())
        else:
            codes, scale = symmetric_quantize_layer(w, quant_bits)
            code_dtype = np.int8 if quant_bits <= 8 else np.int16
            parts.append(struct.pack("<f", scale))
            parts.append(codes.astype(code_dtype).tobytes())
        parts.append(np.ascontiguousarray(b).tobytes())
    return b"".join(parts)


def net_from_bytes(buf: bytes) -> DenseNet:
    """Rebuild a DenseNet from ``net_to_bytes`` output.

    Quantised payloads decode to dequantised float weights (codes * scale)
    carrying a QuantMeta tag.  The header fields are checked, and the
    payload length is checked against the length they imply before any
    body read, so every malformed payload raises ``InvalidInputError``.
    """
    if len(buf) < _NET_HEADER.size:
        raise InvalidInputError("network payload is shorter than its header")
    magic, fmt, float_tag, quant_bits, act_tag, n_dims = _NET_HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise InvalidInputError("bad magic in network payload")
    if fmt != _FORMAT_VERSION:
        raise InvalidInputError(f"unsupported payload format version {fmt}")
    if float_tag not in _FLOAT_TAGS:
        raise InvalidInputError(f"unknown float tag {float_tag}")
    if quant_bits != 0 and not 2 <= quant_bits <= 16:
        raise InvalidInputError(f"quantisation bits must be 0 or lie in [2, 16], got {quant_bits}")
    activation = {v: k for k, v in _ACT_TAGS.items()}.get(act_tag)
    if activation is None:
        raise InvalidInputError(f"unknown activation tag {act_tag}")
    if n_dims < 2:
        raise InvalidInputError(f"network payload needs >= 2 layer dims, got {n_dims}")
    off = _NET_HEADER.size + 4 * n_dims
    if len(buf) < off:
        raise InvalidInputError("network payload is shorter than its layer dims")
    dims = struct.unpack_from(f"<{n_dims}I", buf, _NET_HEADER.size)
    if min(dims) < 1:
        raise InvalidInputError(f"network layer dims must be >= 1, got {dims}")
    dtype = np.dtype(_FLOAT_TAGS[float_tag])
    code_dtype = np.dtype(np.int8) if quant_bits <= 8 else np.dtype(np.int16)
    layer_head, w_size = (0, dtype.itemsize) if quant_bits == 0 else (4, code_dtype.itemsize)
    expected = off + sum(
        layer_head + (fan_in * w_size + dtype.itemsize) * fan_out
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    )
    if len(buf) != expected:
        raise InvalidInputError(f"network payload holds {len(buf)} bytes, its header implies {expected}")
    weights, biases, scales = [], [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        n = fan_in * fan_out
        if quant_bits == 0:
            w = np.frombuffer(buf, dtype=dtype, count=n, offset=off).reshape(fan_in, fan_out)
            off += n * dtype.itemsize
        else:
            (scale,) = struct.unpack_from("<f", buf, off)
            if not 0 < scale < np.inf:
                raise InvalidInputError(f"quantisation scale must be finite and positive, got {scale}")
            off += 4
            codes = np.frombuffer(buf, dtype=code_dtype, count=n, offset=off)
            off += n * code_dtype.itemsize
            w = (codes.astype(dtype) * dtype.type(scale)).reshape(fan_in, fan_out)
            scales.append(float(scale))
        weights.append(w.copy())
        b = np.frombuffer(buf, dtype=dtype, count=fan_out, offset=off)
        off += fan_out * dtype.itemsize
        biases.append(b.copy())
    quant = None
    if quant_bits:
        quant = QuantMeta(quant_bits, scales, [0] * len(scales))
    return DenseNet(tuple(dims), weights, biases, activation, mask=None, quant=quant)
